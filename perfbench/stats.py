"""Order statistics for the benchmark report: medians and the tail-percentile rule."""

from __future__ import annotations

# Percentiles the tail metric may report, lowest first.  The rungs sit a
# decade apart in sample count (20, 100, 1000, 10000 samples), so run-to-run
# variation in how many ops fit into a run rarely moves the chosen rung.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """The nearest rank ceil(q/100 * n) of the q-th percentile of n samples,
    in exact arithmetic on q's tenths (float rounding would give 9991 for
    the 99.9th of 10000)."""
    tenths = round(q * 10)
    return max(1, -(-tenths * n // 1000))


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-th percentile by the nearest-rank rule."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[rank(len(sorted_values), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples ranked strictly above the nearest-rank q-th percentile of n samples."""
    return n - rank(n, q)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least MIN_BEYOND samples beyond it.

    Falls back to the median when even that has fewer samples beyond it; the
    caller reports the sample count beyond, so the shortfall stays visible.
    """
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the tail-percentile rule."""
    ordered = sorted(values)
    q = tail_percentile(len(ordered))
    return q, nearest_rank(ordered, q), beyond(len(ordered), q)
