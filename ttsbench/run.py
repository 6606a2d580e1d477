#!/usr/bin/env python3
"""DeepThermo time-to-solution benchmark.

    python3 ttsbench/run.py --workload tts54 --seed 1 --seconds 30 --trace 0

Builds the DeepThermo libraries and the ttsbench driver from source into
.bench_build/, runs the workload as separate ttsbench processes under a
fixed thread budget until --seconds is used, checks every output, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced runs. --trace 1
runs every solve untraced and traced once, requires the two to agree bit
for bit, and reports the per-layer ledger. The line before the result is
a host stamp. README.md defines the workloads, metrics and checks.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import lngcmp  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BIN = BUILD / "ttsbench" / "ttsbench"
RUNS = BUILD / "runs"
REFERENCE = HERE / "reference_tts54.json"

# OpenMP threads per REWL rank. At 2000 sites the decode GEMM clears the
# library's parallel threshold, so with more threads every walker forks
# its own team and the ranks oversubscribe the cores.
OMP_THREADS = 1
CHILD_TIMEOUT_S = 150
MIN_CLOSURE = 0.95

# ranks: REWL windows x walkers per window, as ttsbench.cpp sets them.
# saves: checkpoint generations one run writes. min_reps: repetitions
# measured even when --seconds is shorter.
WORKLOADS = {
    "tts54": {"ranks": 2, "saves": 0, "min_reps": 1},
    "vae2000": {"ranks": 3, "saves": 0, "min_reps": 3},
    "retrain2000": {"ranks": 2, "saves": 3, "min_reps": 3},
}


def log(msg):
    print(f"ttsbench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(OMP_THREADS)
    return env


def build():
    """Configure and build the library tree, then the driver; both are
    no-ops when up to date. Build output goes to stderr."""
    if not (ROOT / "src" / "core" / "framework.hpp").is_file():
        die(f"no DeepThermo sources under {ROOT}")
    jobs = str(max(1, min(nproc(), 4)))
    lib = BUILD / "dt"
    steps = [
        ["cmake", "-S", ROOT, "-B", lib, "-DCMAKE_BUILD_TYPE=Release",
         "-DDT_BUILD_TESTS=OFF", "-DDT_BUILD_BENCH=OFF",
         "-DDT_BUILD_EXAMPLES=OFF"],
        ["cmake", "--build", lib, "-j", jobs],
        ["cmake", "-S", HERE, "-B", BUILD / "ttsbench",
         "-DCMAKE_BUILD_TYPE=Release", f"-DDT_ROOT={ROOT}",
         f"-DDT_BUILD_DIR={lib}"],
        ["cmake", "--build", BUILD / "ttsbench", "-j", jobs],
    ]
    for step in steps:
        cmd = [str(part) for part in step]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def run_child(workload, seed, trace, tag, **options):
    """Run one ttsbench process. Returns its JSON with the process's peak
    RSS added, or None when it failed."""
    RUNS.mkdir(parents=True, exist_ok=True)
    out = RUNS / f"{workload}-{tag}.json"
    ckpt = RUNS / f"{workload}-ckpt"
    if out.exists():
        out.unlink()
    shutil.rmtree(ckpt, ignore_errors=True)
    cmd = [str(BIN), "--mode=run", f"--workload={workload}", f"--seed={seed}",
           f"--trace={trace}", f"--out={out}", f"--ckpt_dir={ckpt}"]
    cmd += [f"--{key}={value}" for key, value in options.items()]
    with open(RUNS / "children.log", "a") as err:
        proc = subprocess.Popen(cmd, stdout=err, stderr=err, env=child_env(),
                                cwd=ROOT)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    proc.returncode = os.WEXITSTATUS(status) if os.WIFEXITED(status) else -1
    shutil.rmtree(ckpt, ignore_errors=True)
    if proc.returncode != 0 or not out.exists():
        log(f"{workload} seed {seed} trace {trace} exited with "
            f"{proc.returncode}; see {RUNS / 'children.log'}")
        return None
    child = json.loads(out.read_text())
    child["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return child


def load_reference():
    data = json.loads(REFERENCE.read_text())
    return {"lng": lngcmp.lng_map(data["lng"]),
            "tolerance": data["tolerance"], "panel": data["panel"]}


def solve_seeds(workload, seed, ref):
    """tts54 solves the pinned panel, rotated by the workload seed, so its
    cost does not depend on --seed; the others run --seed itself."""
    if workload != "tts54":
        return [seed]
    k = seed % len(ref["panel"])
    return ref["panel"][k:] + ref["panel"][:k]


def check(workload, child, ref):
    """Failed output checks of one run; empty when it is correct."""
    res = child["result"]
    spec = WORKLOADS[workload]
    cap = child["n_ranks"] * child["max_sweeps"]
    problems = []
    if child["n_ranks"] != spec["ranks"]:
        problems.append(f"{child['n_ranks']} ranks, budget set for "
                        f"{spec['ranks']}")
    if child["ckpt_saves"] != spec["saves"]:
        problems.append(f"{child['ckpt_saves']} checkpoint saves, expected "
                        f"{spec['saves']}")
    if not res["lng_finite"]:
        problems.append("stitched ln g not finite on every visited bin")
    if workload == "tts54":
        if not res["converged"] or res["sweeps"] >= cap:
            problems.append("no convergence within the sweep cap")
        rms, coverage = lngcmp.distance(lngcmp.lng_map(res["lng"]),
                                        ref["lng"])
        if coverage < lngcmp.MIN_COVERAGE or rms > ref["tolerance"]:
            problems.append(f"ln g off the reference: rms {rms:.4g} "
                            f"(tolerance {ref['tolerance']:.4g}), coverage "
                            f"{coverage:.3f}")
    else:
        if res["sweeps"] != cap:
            problems.append(f"{res['sweeps']} sweeps, budget {cap}")
        if res["converged"]:
            problems.append("converged inside the sweep budget")
    return problems


def fingerprint(child):
    """Outputs that must repeat bit for bit for one seed."""
    res = child["result"]
    return (res["sweeps"], res["walker_energies"], res["walker_rng"],
            [(row[0], row[3]) for row in res["lng"]], child["ckpt_bytes"])


def report(workload, seed, problems):
    log(f"{workload} seed {seed}: " + "; ".join(problems))


def measure(workload, seed, seconds, ref):
    """Untraced repetitions of the workload's solves until `seconds` is
    used. Returns (repetitions, attempted, failed)."""
    seeds = solve_seeds(workload, seed, ref)
    reps, first, attempted, failed = [], {}, 0, 0
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rep = []
        for i, s in enumerate(seeds):
            attempted += 1
            child = run_child(workload, s, 0, f"u{i}")
            if child is None:
                problems = ["run failed"]
            else:
                problems = check(workload, child, ref)
                if first.setdefault(s, fingerprint(child)) != fingerprint(child):
                    problems.append("outputs differ between repetitions")
                rep.append(child)
            if problems:
                failed += 1
                report(workload, s, problems)
        reps.append(rep)
        now = time.monotonic()
        if (len(reps) >= WORKLOADS[workload]["min_reps"]
                and now - start + (now - t0) > seconds):
            return reps, attempted, failed


def trace(workload, seed, ref):
    """One untraced and one traced run per solve. The traced run must
    reproduce the untraced outputs bit for bit and close its ledger.
    Returns ([(untraced, traced)], attempted, failed)."""
    pairs, attempted, failed = [], 0, 0
    for i, s in enumerate(solve_seeds(workload, seed, ref)):
        untraced = run_child(workload, s, 0, f"u{i}")
        traced = run_child(workload, s, 1, f"t{i}", solve=i,
                           spans=RUNS / f"{workload}-t{i}.spans.json")
        attempted += 2
        found = [["run failed"] if c is None else check(workload, c, ref)
                 for c in (untraced, traced)]
        if untraced is not None and traced is not None:
            if fingerprint(traced) != fingerprint(untraced):
                found[1].append("traced outputs differ from Framework::run()")
            ledger = traced["ledger"]
            closure = ledger["ledger_s"] / ledger["rank_wall_s"]
            if closure < MIN_CLOSURE:
                found[1].append(f"ledger covers {closure:.3f} of rank time")
            pairs.append((untraced, traced))
        for problems in found:
            if problems:
                failed += 1
                report(workload, s, problems)
    return pairs, attempted, failed


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def tts(child):
    return child["construct_s"] + child["pretrain_s"] + child["run_s"]


def end_to_end(reps):
    reps = [rep for rep in reps if rep]
    children = [c for rep in reps for c in rep]
    sweeps = [sum(c["result"]["sweeps"] for c in rep) for rep in reps]
    return {
        "setup_s": (median([c["construct_s"] + c["pretrain_s"]
                            for c in children]), "s"),
        "tts_s": (median([sum(tts(c) for c in rep) for rep in reps]), "s"),
        "sweeps_per_s": (median([n / sum(c["run_s"] for c in rep)
                                 for n, rep in zip(sweeps, reps)]),
                         "sweeps/s"),
        "tts_sweeps": (median(sweeps), "sweeps"),
        "peak_rss_mb": (median([c["peak_rss_mb"] for c in children]), "MB"),
    }


def per_layer(pairs):
    traced = [t for _, t in pairs]
    led = [t["ledger"] for t in traced]
    res = [t["result"] for t in traced]

    def total(key, rows=led):
        return sum(row[key] for row in rows)

    local_s = sum(row["local_calls"] * ratio(row["local_timed_s"],
                                             row["local_timed"])
                  for row in led)
    busy = [sum(col) for col in zip(*(row["rank_busy_s"] for row in led))]
    vae_calls = total("vae_calls")
    packs = total("pack_hits", traced) + total("pack_misses", traced)
    return {
        "core.construct_s": (total("construct_s", traced), "s"),
        "core.pretrain_s": (total("pretrain_s", traced), "s"),
        "mc.local.proposals": (total("local_calls"), "count"),
        "mc.local.ns_per_proposal": (
            1e9 * ratio(total("local_timed_s"), total("local_timed")), "ns"),
        "mc.local.accept_ratio": (
            1.0 - ratio(total("local_reverted", res),
                        total("local_proposed", res)), "ratio"),
        "mc.wl.self_s": (total("block_s") - total("vae_s") - local_s, "s"),
        "mc.wl.f_stages": (total("f_stages", res), "count"),
        "par.sync_s": (total("sync_s"), "s"),
        "par.rounds": (total("rounds"), "count"),
        "par.exchange.accept_ratio": (
            ratio(total("exch_accepted"), total("exch_attempted")), "ratio"),
        "par.busy_spread": (ratio(max(busy) - min(busy), max(busy)), "ratio"),
        "par.seek_s": (total("seek_s"), "s"),
        "core.vae.proposals": (vae_calls, "count"),
        "core.vae.us_per_proposal": (
            1e6 * ratio(total("vae_s"), vae_calls), "us"),
        "core.vae.self_us_per_proposal": (
            1e6 * ratio(total("vae_s") - total("decode_wait_s"), vae_calls),
            "us"),
        "core.vae.accept_ratio": (
            1.0 - ratio(total("vae_reverted", res),
                        total("vae_proposed", res)), "ratio"),
        "core.decode_plane.wait_s": (total("decode_wait_s"), "s"),
        "core.decode_plane.rows_per_gemm": (
            ratio(total("plane_rows"), total("plane_batches")), "rows"),
        "core.decode_plane.coalesced_ratio": (
            ratio(total("plane_coalesced"), total("plane_requests")),
            "ratio"),
        "nn.linear.pack.hit_ratio": (
            ratio(total("pack_hits", traced), packs), "ratio"),
        "nn.retrain_s": (total("retrain_s"), "s"),
        "nn.retrains": (total("retrains"), "count"),
        "ckpt.saves": (total("ckpt_saves", traced), "count"),
        "ckpt.mb_written": (total("ckpt_bytes", traced) / 1e6, "MB"),
        "ckpt.save_s": (total("ckpt_rewl_s") + total("ckpt_final_s"), "s"),
        "trace.closure": (ratio(total("ledger_s"), total("rank_wall_s")),
                          "ratio"),
        "trace.overhead": (ratio(sum(tts(t) for t in traced),
                                 sum(tts(u) for u, _ in pairs)), "ratio"),
    }


def source_id():
    """git HEAD in a clone; elsewhere a digest of the library sources."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("src/**/*")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_stamp(workload, children):
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"ranks": WORKLOADS[workload]["ranks"], "omp_threads": OMP_THREADS,
            "nproc": nproc(), "cpu": cpu, "compiler": children[0]["compiler"],
            "commit": source_id()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ranks = WORKLOADS[args.workload]["ranks"]
    if ranks * OMP_THREADS > nproc() - 1:
        die(f"thread budget: {ranks} ranks x {OMP_THREADS} OpenMP threads "
            f"exceeds nproc - 1 = {nproc() - 1}")
    build()
    ref = load_reference()
    if args.trace:
        pairs, attempted, failed = trace(args.workload, args.seed, ref)
        children = [c for pair in pairs for c in pair]
        metrics = per_layer(pairs) if pairs else {}
    else:
        reps, attempted, failed = measure(args.workload, args.seed,
                                          args.seconds, ref)
        children = [c for rep in reps for c in rep]
        metrics = end_to_end(reps) if children else {}
    if not children:
        die("no run completed")
    print(json.dumps({"stamp": host_stamp(args.workload, children)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


if __name__ == "__main__":
    main()
