#!/usr/bin/env bash
# Record the performance baseline used by scripts/check.sh's perf smoke.
#
#   scripts/bench_baseline.sh [--cells N] [--quick]
#
# Builds the Release tree (build/), runs the micro benchmarks plus the
# F4 proposal-throughput table, and combines the headline numbers into
# BENCH_baseline.json at the repo root, stamped with the host (core
# count, CPU model, compiler; scripts/host_stamp.py) and the commit.
# Re-run on a quiet machine after intentional performance changes;
# check.sh compares fresh runs against this file only on a host with the
# same stamp, and fails there on >20% regressions.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cells=10           # 2*10^3 = 2000 sites, the ISSUE 4 throughput scale
budget_sweeps=200  # kernel-quality table budget (not part of the gate)
min_time=0.5
repetitions=5      # per micro row; the baseline is their median
while [[ $# -gt 0 ]]; do
  case "$1" in
    --cells) cells="$2"; shift 2 ;;
    --quick) budget_sweeps=50; min_time=0.2; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "${jobs}" --target bench_micro bench_f4_proposals

micro_json="${build_dir}/bench_micro_baseline.json"
f4_json="${build_dir}/bench_f4_baseline.json"
rm -f "${f4_json}"

# Micro kernels: the GEMM + decode + proposal + energy hot paths and one
# VAE training step. The proposal rows include VaeGlobalProposal/3/16,
# the 54-site move of the tts54 workload, with its decode
# (VaeDecodeBatch/3/16), output GEMM (GemmNnAcc/16/64/216) and hidden
# activation (LaneTanh/1024). The kernels run on one thread, as in every
# REWL rank, so the numbers are what a walker pays. Each row is run
# ${repetitions} times; the baseline keeps the median CPU time with the
# min and max, and check.sh's smoke compares its own median against it.
"${build_dir}/bench/bench_micro" \
  --benchmark_filter='BM_(GemmNN|GemmNnAcc|GemmBackward|GemmNtAcc|GemmTnAcc|TotalEnergy|VaeDecodeBatch|VaeGlobalProposal|VaeTrainStep|LaneTanh)' \
  --benchmark_min_time="${min_time}" \
  --benchmark_repetitions="${repetitions}" \
  --benchmark_out="${micro_json}" --benchmark_out_format=json

# F4 proposal throughput at N = 2*cells^3 sites (appends JSON lines).
# --walkers=8 also records the decode-plane on/off aggregate table
# (Table F4d) at W in {1, 4, 8}.
"${build_dir}/bench/bench_f4_proposals" \
  --cells="${cells}" --budget_sweeps="${budget_sweeps}" \
  --walkers=8 \
  --json="${f4_json}"

python3 - "$repo_root" "$micro_json" "$f4_json" "$cells" "$build_dir" <<'PY'
import json
import statistics
import subprocess
import sys

repo_root, micro_path, f4_path, cells, build_dir = sys.argv[1:6]
sys.path.insert(0, f"{repo_root}/scripts")
from host_stamp import host_stamp

with open(micro_path) as f:
    micro_raw = json.load(f)
# Per row, the median of its repetitions (cpu_time_ns, what check.sh
# compares), with the spread the host showed while recording it.
runs = {}
for b in micro_raw.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    runs.setdefault(b["run_name"], []).append(b)
micro = {}
for name, reps in runs.items():
    cpu = [b["cpu_time"] for b in reps]
    micro[name] = {
        "cpu_time_ns": round(statistics.median(cpu), 1),
        "cpu_min_ns": round(min(cpu), 1),
        "cpu_max_ns": round(max(cpu), 1),
        "repetitions": len(reps),
        "real_time_ns": round(statistics.median(b["real_time"] for b in reps), 1),
        "items_per_second": round(
            statistics.median(b.get("items_per_second", 0.0) for b in reps), 1),
    }

f4 = {}
with open(f4_path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        table = json.loads(line)
        tag = table.get("tag") or table.get("bench", "")
        cols = table["columns"]
        rows = {}
        for row in table["rows"]:
            rows[row[0]] = dict(zip(cols[1:], row[1:]))
        f4[tag] = rows

# "-dirty": measured from uncommitted changes on top of that commit.
commit = subprocess.run(
    ["git", "-C", repo_root, "describe", "--always", "--dirty", "--abbrev=7"],
    capture_output=True, text=True).stdout.strip() or "unknown"

# Headline decode-plane numbers (Table F4d): per walker count W, the
# plane-on proposal latency, the fused-GEMM batching achieved, and the
# plane-on/off throughput ratio (see DESIGN.md "Cross-walker decode
# plane" for when the opt-in plane pays).
decode_plane = {}
for walkers, row in f4.get("_walkers", {}).items():
    decode_plane[f"W{walkers}"] = {  # table cells arrive as strings
        "us_per_proposal_on": round(float(row["us_per_prop_on"]), 2),
        "rows_per_gemm": round(float(row["rows_per_gemm"]), 2),
        "speedup_on_vs_off": round(float(row["speedup"]), 3),
    }

out = {
    "schema": 3,
    "host": {**host_stamp(build_dir), "commit": commit},
    "cells": int(cells),
    "micro": dict(sorted(micro.items())),
    "decode_plane": decode_plane,
    "f4": f4,
}
path = f"{repo_root}/BENCH_baseline.json"
with open(path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {path}")
PY
