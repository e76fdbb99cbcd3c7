"""Host-speed calibration.

On a shared VM the same Python loop runs 10-20 seconds at a time at speeds
that differ by up to +-15%, in wall and thread CPU time alike, so absolute op
times from two runs differ more than a change worth detecting.  The run times
a fixed reference kernel, written here and independent of the package, every
REF_EVERY_S of op time.  Each op's time is then scaled by REF_NOMINAL_S over
the median reference time around it: the op's time on a host where the kernel
takes exactly REF_NOMINAL_S.  The scaling cancels the host's drift and leaves
the program's own speed.
"""

from __future__ import annotations

import statistics
import time

REF_NOMINAL_S = 0.006
REF_EVERY_S = 0.25
REF_WINDOW = 3  # reference samples taken on each side of an op


def reference_kernel(p: int = 10007, slopes: int = 2400) -> int:
    """Fixed pure-Python work with the package's instruction mix: Lagrange
    reduction on plain integers, tuple and set building, and formatting."""
    seen = set()
    for mu in range(2, slopes):
        ax, ay, bx, by = p, 0, -mu, 1
        na, nb = ax * ax + ay * ay, bx * bx + by * by
        if na > nb:
            ax, ay, bx, by, na, nb = bx, by, ax, ay, nb, na
        while True:
            dot = ax * bx + ay * by
            q = dot // na
            if 2 * (dot - q * na) > na:
                q += 1
            if q:
                bx -= q * ax
                by -= q * ay
                nb = bx * bx + by * by
            if nb >= na:
                break
            ax, ay, bx, by, na, nb = bx, by, ax, ay, nb, na
        seen.add((ax, ay, bx, by))
    return len("\n".join(f"{a} {b} {c} {d}" for a, b, c, d in sorted(seen)))


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scale_factors(ref_times: list[float], ref_index: list[int]) -> list[float]:
    """Per-op factor REF_NOMINAL_S / (median reference time near the op).

    ref_index[i] is the index of the last reference sample taken before op i;
    the median runs over REF_WINDOW samples before and after that point.
    """
    smoothed = []
    for i in range(len(ref_times)):
        window = ref_times[max(0, i - REF_WINDOW + 1) : i + REF_WINDOW + 1]
        smoothed.append(statistics.median(window))
    return [REF_NOMINAL_S / smoothed[i] for i in ref_index]
