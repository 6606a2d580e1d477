"""ln g comparator shared by run.py and gen_reference.py.

A Wang-Landau ln g is defined up to an additive constant, so two curves
are compared after removing the best constant offset over the bins both
visited. The distance is the RMS of what remains. A curve matches a
reference when it covers at least MIN_COVERAGE of the reference's bins
and its distance is within the tolerance.
"""
import math

MIN_COVERAGE = 0.9


def lng_map(rows):
    """{bin: ln g} from [bin, energy, ln g, ...] rows."""
    return {int(row[0]): float(row[2]) for row in rows}


def distance(sample, reference):
    """(RMS of the offset-free difference, share of reference bins covered)."""
    common = [b for b in reference if b in sample]
    coverage = len(common) / len(reference) if reference else 0.0
    if len(common) < 2:
        return math.inf, coverage
    diffs = [sample[b] - reference[b] for b in common]
    mean = sum(diffs) / len(diffs)
    rms = math.sqrt(sum((d - mean) ** 2 for d in diffs) / len(diffs))
    return rms, coverage


def matches(sample, reference, tolerance):
    rms, coverage = distance(sample, reference)
    return coverage >= MIN_COVERAGE and rms <= tolerance


def perturbed(curve, tolerance):
    """Negative control: `curve` with a step of 4 x tolerance over its
    upper half of bins, as from a window misaligned at the stitch. This
    adds about 2 x tolerance to its distance from anything."""
    bins = sorted(curve)
    upper = set(bins[len(bins) // 2:])
    return {b: v + (4.0 * tolerance if b in upper else 0.0)
            for b, v in curve.items()}
