#!/usr/bin/env bash
# Pre-merge gate. Stages, in order (see README "check.sh pipeline"):
#
#   static      dt_lint domain invariants (+ standalone-header compile),
#               gcc -fanalyzer gate over curated TUs, clang-format diff
#               gate, clang-tidy profile
#   asan        ASan/UBSan build, tier-1 suite under both
#   tsan        ThreadSanitizer pass over the concurrency-heavy tests
#   coverage    line-coverage floors for src/mc/ and src/validate/
#   perf        Release perf smoke vs BENCH_baseline.json
#
#   scripts/check.sh [extra ctest args...]     (args go to the asan stage)
#
# Escape hatches (set to 1): DT_SKIP_LINT, DT_SKIP_ANALYZER,
# DT_SKIP_CLANG_TIDY, DT_SKIP_TSAN, DT_SKIP_COVERAGE,
# DT_SKIP_PERF_SMOKE. static_format and static_clang_tidy are for Clang
# hosts only: they need clang-format / clang-tidy and self-skip without
# them.
#
# Each stage emits one machine-readable summary line:
#   check.sh[stage] name=<stage> status=<ok|fail|skip> duration_s=<secs>
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
ctest_args=("$@")

# abort_on_error makes ASan failures fail the ctest run instead of just
# printing; detect_leaks stays on (default) to catch checkpoint I/O leaks.
export ASAN_OPTIONS="abort_on_error=1:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:${UBSAN_OPTIONS:-}"

# ---- stage harness ------------------------------------------------------
# run_stage <name> <fn> runs <fn> in a subshell, times it, and prints the
# summary line. A failing stage prints status=fail and stops the gate.
# A stage may skip itself by returning 99.
declare -a stage_lines=()

summarize() {
  printf '%s\n' "" "check.sh summary:"
  printf '  %s\n' "${stage_lines[@]}"
}

run_stage() {
  local name="$1" fn="$2" status rc t0 t1
  t0=$(date +%s)
  rc=0
  ( "${fn}" ) || rc=$?
  t1=$(date +%s)
  case "${rc}" in
    0) status=ok ;;
    99) status=skip ;;
    *) status=fail ;;
  esac
  local line="check.sh[stage] name=${name} status=${status} duration_s=$((t1 - t0))"
  echo "${line}"
  stage_lines+=("${line}")
  if [[ "${status}" == fail ]]; then
    summarize
    echo "check.sh: stage '${name}' FAILED" >&2
    exit 1
  fi
}

# ---- static pass --------------------------------------------------------
# Cheapest and most deterministic checks run first so discipline
# violations fail in seconds, before any compiler warms up.

stage_lint() {
  if [[ "${DT_SKIP_LINT:-0}" == "1" ]]; then
    echo "check.sh: dt_lint skipped (DT_SKIP_LINT=1)"
    return 99
  fi
  python3 "${repo_root}/scripts/lint/dt_lint.py" --repo "${repo_root}" \
    --self-test tests/lint
  python3 "${repo_root}/scripts/lint/dt_lint.py" --repo "${repo_root}" \
    --compile-headers
  echo "check.sh: dt_lint invariants hold (src/ + standalone headers)"
}

stage_analyzer() {
  if [[ "${DT_SKIP_ANALYZER:-0}" == "1" ]]; then
    echo "check.sh: gcc -fanalyzer gate skipped (DT_SKIP_ANALYZER=1)"
    return 99
  fi
  if ! command -v g++ >/dev/null 2>&1; then
    echo "check.sh: gcc -fanalyzer gate skipped (no g++ on PATH)"
    return 99
  fi
  python3 "${repo_root}/scripts/lint/dt_analyze.py" --repo "${repo_root}" \
    --jobs "${jobs}"
  echo "check.sh: gcc -fanalyzer gate clean (curated targets)"
}

stage_format() {
  if [[ "${DT_SKIP_LINT:-0}" == "1" ]]; then
    echo "check.sh: format gate skipped (DT_SKIP_LINT=1)"
    return 99
  fi
  # check_format.sh self-skips (exit 2) when clang-format is absent.
  local rc=0
  "${repo_root}/scripts/check_format.sh" || rc=$?
  if [[ "${rc}" == "2" ]]; then
    echo "check.sh: format gate skipped (Clang hosts only: no clang-format on PATH)"
    return 99
  fi
  return "${rc}"
}

stage_clang_tidy() {
  if [[ "${DT_SKIP_CLANG_TIDY:-0}" == "1" ]]; then
    echo "check.sh: clang-tidy skipped (DT_SKIP_CLANG_TIDY=1)"
    return 99
  fi
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "check.sh: clang-tidy skipped (Clang hosts only: no clang-tidy on PATH)"
    return 99
  fi
  local tidy_dir="${repo_root}/build-tidy"
  cmake -B "${tidy_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDT_ENABLE_CLANG_TIDY=ON \
    -DDT_BUILD_BENCH=OFF -DDT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${tidy_dir}" -j "${jobs}"
  echo "check.sh: clang-tidy profile clean"
}

run_stage static_lint stage_lint
run_stage static_analyzer stage_analyzer
run_stage static_format stage_format
run_stage static_clang_tidy stage_clang_tidy

# ---- ASan/UBSan tier-1 --------------------------------------------------
# Dedicated build tree (build-asan/) so the regular build/ stays
# untouched. Pass e.g. -R Determinism to narrow the run.

stage_asan() {
  local build_dir="${repo_root}/build-asan"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDT_ENABLE_SANITIZERS=ON
  cmake --build "${build_dir}" -j "${jobs}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    -L tier1 "${ctest_args[@]}"
  echo "check.sh: tier-1 suite clean under ASan/UBSan"
}

run_stage asan_tier1 stage_asan

# ---- ThreadSanitizer pass -----------------------------------------------
# Races in the lock-free observability plane (metrics registry, trace
# ring, health cells scraped over HTTP mid-run) and in the REWL/minicomm
# thread fabric slip past ASan; rebuild the concerned test binaries
# under TSan and run them directly. Skip with DT_SKIP_TSAN=1 (e.g. when
# the toolchain lacks libtsan).

stage_tsan() {
  if [[ "${DT_SKIP_TSAN:-0}" == "1" ]]; then
    echo "check.sh: TSan pass skipped (DT_SKIP_TSAN=1)"
    return 99
  fi
  local tsan_dir="${repo_root}/build-tsan"
  local targets=(test_metrics test_trace test_http_obs
                 test_minicomm test_rewl test_ddp test_decode_plane)
  cmake -B "${tsan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDT_ENABLE_TSAN=ON >/dev/null
  cmake --build "${tsan_dir}" -j "${jobs}" --target "${targets[@]}"
  local t
  for t in "${targets[@]}"; do
    TSAN_OPTIONS="halt_on_error=1:${TSAN_OPTIONS:-}" "${tsan_dir}/tests/${t}"
  done
  echo "check.sh: concurrency tests clean under TSan"
}

run_stage tsan stage_tsan

# ---- Coverage gate ------------------------------------------------------
# Line-coverage floors for the subsystems whose correctness argument
# rests on tests (src/mc/, src/validate/ -- see DESIGN "Validation
# harness"). Instrumented build tree (build-cov/), tier-1 + oracle test
# run, then scripts/coverage_report.py aggregates the gcov counters and
# enforces the floors. Skip with DT_SKIP_COVERAGE=1 (slow: -O0 build).

stage_coverage() {
  if [[ "${DT_SKIP_COVERAGE:-0}" == "1" ]]; then
    echo "check.sh: coverage gate skipped (DT_SKIP_COVERAGE=1)"
    return 99
  fi
  local cov_dir="${repo_root}/build-cov"
  cmake -B "${cov_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DDT_ENABLE_COVERAGE=ON \
    -DDT_BUILD_BENCH=OFF -DDT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${cov_dir}" -j "${jobs}"
  # Fresh counters: stale .gcda from a previous tree layout would skew
  # the merge.
  find "${cov_dir}" -name '*.gcda' -delete
  # The 63M-state multinomial enumeration takes ~20 min at -O0 under
  # instrumentation (19 s optimised); its code paths are covered by the
  # other ExactOracle tests, so it sits out the coverage run.
  ctest --test-dir "${cov_dir}" -j "${jobs}" -L 'tier1|oracle' \
    -E 'MultiSpeciesStateCountIsMultinomial' --output-on-failure
  python3 "${repo_root}/scripts/coverage_report.py" "${cov_dir}"
  echo "check.sh: coverage floors met"
}

run_stage coverage stage_coverage

# ---- Release perf smoke -------------------------------------------------
# Guards the proposal fast path: re-times the headline micro benchmarks
# in the Release tree and fails when the median CPU time of 5 repetitions
# regresses >20% against the median BENCH_baseline.json recorded the
# same way (scripts/bench_baseline.sh). Timings only compare on the host that recorded
# them: when the baseline's host stamp (core count, CPU model, compiler;
# scripts/host_stamp.py) differs from this host, the stage prints
# "host mismatch" and skips. Re-record the baseline on an intentional
# perf change, or on a new host, with scripts/bench_baseline.sh. Skip
# with DT_SKIP_PERF_SMOKE=1 (e.g. on loaded CI machines).

stage_perf() {
  if [[ "${DT_SKIP_PERF_SMOKE:-0}" == "1" ]]; then
    echo "check.sh: perf smoke skipped (DT_SKIP_PERF_SMOKE=1)"
    return 99
  fi
  local baseline="${repo_root}/BENCH_baseline.json"
  if [[ ! -f "${baseline}" ]]; then
    echo "check.sh: WARNING perf smoke skipped -- ${baseline} missing" \
         "(record it with scripts/bench_baseline.sh)"
    return 99
  fi

  local release_dir="${repo_root}/build"
  cmake -B "${release_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release \
    >/dev/null
  if ! python3 "${repo_root}/scripts/host_stamp.py" "${release_dir}" \
       "${baseline}"; then
    echo "check.sh: perf smoke: host mismatch -- not comparing (re-record" \
         "the baseline here with scripts/bench_baseline.sh)"
    return 99
  fi
  cmake --build "${release_dir}" -j "${jobs}" --target bench_micro
  local smoke_json="${release_dir}/bench_micro_smoke.json"
  "${release_dir}/bench/bench_micro" \
    --benchmark_filter='BM_(GemmNN/256|GemmNnAcc/16/64/216|GemmNtAcc/32/64/8000|GemmNtAcc/32/8000/64|GemmTnAcc/32/64/8000|GemmTnAcc/32/8000/64|LaneTanh/1024|VaeDecodeBatch/3/16|VaeGlobalProposal/3/16|VaeGlobalProposal/10/16|VaeTrainStep/10/32|TotalEnergy/8)' \
    --benchmark_min_time=0.5 --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="${smoke_json}" --benchmark_out_format=json >/dev/null

  python3 - "${baseline}" "${smoke_json}" <<'PY'
import json
import sys

baseline_path, smoke_path = sys.argv[1:3]
with open(baseline_path) as f:
    base = json.load(f).get("micro", {})
with open(smoke_path) as f:
    smoke = json.load(f)

# Median of 5 repetitions vs the baseline's median of 5.
fresh = {}
for b in smoke.get("benchmarks", []):
    if b.get("aggregate_name") == "median":
        fresh[b["run_name"]] = b["cpu_time"]

tol = 1.20
failures = []
for name, cpu_ns in sorted(fresh.items()):
    entry = base.get(name, {})
    ref = entry.get("cpu_time_ns")
    if ref is None:
        print(f"perf smoke: {name}: no baseline entry, skipping")
        continue
    ratio = cpu_ns / ref
    status = "OK" if ratio <= tol else "REGRESSED"
    spread = (f" [{entry['cpu_min_ns']:.0f}-{entry['cpu_max_ns']:.0f}]"
              if "cpu_min_ns" in entry else "")
    print(f"perf smoke: {name}: {cpu_ns:.0f} ns vs baseline "
          f"{ref:.0f} ns{spread} ({ratio:.2f}x) {status}")
    if ratio > tol:
        failures.append(name)
if failures:
    sys.exit("check.sh: perf smoke FAILED (>20% regression): "
             + ", ".join(failures))
print("check.sh: perf smoke clean")
PY
}

run_stage perf_smoke stage_perf

summarize
echo "check.sh: all stages passed (or explicitly skipped)"
