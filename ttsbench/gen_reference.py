#!/usr/bin/env python3
"""Regenerate reference_tts54.json, the pinned inputs of the tts54 checks.

    python3 ttsbench/gen_reference.py

Run from the repository root; it builds like run.py. Steps:

1. Reference ln g. Local-swap-only REWL solves of the tts54 system (the
   system seed is pinned, so every solve shares one grid) at the
   driver's reference ln f, one per REF_SEEDS entry, aligned by their
   mean offset and averaged. Local swaps keep the reference independent
   of the VAE kernel under test.
2. Tolerance. tts54 solves exactly as the benchmark runs them
   (log_f_final = 1e-4) for SPREAD_SEEDS. Their distances to the
   reference measure the seed-to-seed spread; the tolerance is
   max(mean + 4 sd, 1.25 x max) over the converged ones.
3. Panel. The first PANEL_SIZE spread seeds that converged below the
   sweep cap and matched. The others stay listed under "spread". A
   change that alters the trajectory redraws every solve, which moves
   the panel's summed sweeps by about panel_sweeps_cv (the per-seed
   relative sd over sqrt(PANEL_SIZE)); the tts_s and tts_sweeps bounds
   in BENCHMARK.json must stay well above it.
4. Comparator check at 16 sites. A mixed-kernel solve of the 16-site
   system must match the exact ln g of validate::ExactOracle within the
   tolerance, and the same solve perturbed by lngcmp.perturbed must not.
"""
import json
import math
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
import lngcmp  # noqa: E402
import run  # noqa: E402

REF_SEEDS = [101, 102]
SPREAD_SEEDS = list(range(1, 21))
PANEL_SIZE = 12
ORACLE_SEED = 1


def driver(mode, tag, **options):
    out = run.RUNS / f"gen-{tag}.json"
    cmd = [str(run.BIN), f"--mode={mode}", f"--out={out}"]
    cmd += [f"--{key}={value}" for key, value in options.items()]
    subprocess.run(cmd, check=True, env=run.child_env(), stdout=sys.stderr)
    return json.loads(out.read_text())


def reference_curve():
    """Averaged local-swap ln g: ({bin: ln g}, {bin: energy}, per-run RMS
    to the average, ln f the solves stopped at)."""
    runs = []
    for seed in REF_SEEDS:
        out = driver("reference", f"ref{seed}", seed=seed)
        if not out["result"]["converged"]:
            sys.exit(f"reference seed {seed} did not converge")
        runs.append(out)
    curves = [lngcmp.lng_map(r["result"]["lng"]) for r in runs]
    common = sorted(set.intersection(*(set(c) for c in curves)))
    aligned = []
    for curve in curves:
        offset = statistics.fmean(curve[b] - curves[0][b] for b in common)
        aligned.append({b: curve[b] - offset for b in common})
    mean = {b: statistics.fmean(a[b] for a in aligned) for b in common}
    energy = {int(row[0]): row[1] for row in runs[0]["result"]["lng"]}
    return (mean, energy, [lngcmp.distance(a, mean)[0] for a in aligned],
            runs[0]["log_f_final"])


def spread_runs(reference):
    runs = []
    for seed in SPREAD_SEEDS:
        child = run.run_child("tts54", seed, 0, f"spread{seed}")
        if child is None:
            sys.exit(f"tts54 seed {seed} failed")
        res = child["result"]
        cap = child["n_ranks"] * child["max_sweeps"]
        rms, coverage = lngcmp.distance(lngcmp.lng_map(res["lng"]), reference)
        runs.append({"seed": seed, "sweeps": res["sweeps"],
                     "converged": res["converged"] and res["sweeps"] < cap,
                     "rms": rms, "coverage": coverage,
                     "tts_s": run.tts(child)})
    return runs


def oracle_check(tolerance):
    oracle = driver("oracle16", "oracle16", seed=ORACLE_SEED)
    exact = lngcmp.lng_map(oracle["exact"])
    solve = lngcmp.lng_map(oracle["result"]["lng"])
    bad = lngcmp.perturbed(solve, tolerance)
    rms, coverage = lngcmp.distance(solve, exact)
    return {"sites": 16, "seed": ORACLE_SEED, "rms": rms,
            "coverage": coverage,
            "matches": lngcmp.matches(solve, exact, tolerance),
            "perturbed_rms": lngcmp.distance(bad, exact)[0],
            "perturbed_matches": lngcmp.matches(bad, exact, tolerance)}


def main():
    run.build()
    run.RUNS.mkdir(parents=True, exist_ok=True)
    reference, energy, ref_rms, ref_log_f = reference_curve()
    spread = spread_runs(reference)
    done = [r for r in spread if r["converged"]]
    rms = [r["rms"] for r in done]
    tolerance = max(statistics.fmean(rms) + 4 * statistics.stdev(rms),
                    1.25 * max(rms))
    for r in spread:
        r["matches"] = (r["converged"] and r["rms"] <= tolerance
                        and r["coverage"] >= lngcmp.MIN_COVERAGE)
    panel = [r["seed"] for r in spread if r["matches"]][:PANEL_SIZE]
    if len(panel) < PANEL_SIZE:
        sys.exit(f"only {len(panel)} seeds converged and matched")
    sweeps = [r["sweeps"] for r in done]
    panel_cv = (statistics.stdev(sweeps) / statistics.fmean(sweeps)
                / math.sqrt(PANEL_SIZE))
    oracle = oracle_check(tolerance)
    print(json.dumps({"tolerance": tolerance, "panel": panel,
                      "panel_sweeps_cv": panel_cv, "oracle16": oracle}))
    if not oracle["matches"] or oracle["perturbed_matches"]:
        sys.exit("comparator failed its 16-site check")
    doc = {
        "about": "Pinned inputs of the tts54 checks, written by "
                 "gen_reference.py; see README.md.",
        "reference": {"kernel": "local swap", "log_f_final": ref_log_f,
                      "seeds": REF_SEEDS, "rms_to_mean": ref_rms},
        "min_coverage": lngcmp.MIN_COVERAGE,
        "tolerance": tolerance,
        "panel": panel,
        "panel_sweeps_cv": panel_cv,
        "spread": {"log_f_final": 1e-4, "runs": spread},
        "oracle16": oracle,
        "lng": [[b, energy[b], reference[b]] for b in sorted(reference)],
    }
    run.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
