"""Order statistics for benchmark samples.

A timing is reported as its median plus the highest percentile that has
at least ten samples beyond it, together with the sample count. With
fewer than 100 samples no percentile above the median qualifies.
"""

from __future__ import annotations

import math

TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {pct}")
    rank = (len(xs) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(samples) -> float:
    return percentile(samples, 50.0)


def qualifies(n: int, pct: float) -> bool:
    """True when at least MIN_BEYOND of n samples lie beyond the percentile."""
    return n * (1.0 - pct / 100.0) >= MIN_BEYOND - 1e-9


def tail_percentile(n: int) -> float | None:
    """Highest reportable percentile above the median for n samples."""
    for pct in TAIL_PERCENTILES:
        if qualifies(n, pct):
            return pct
    return None


def summarize(samples) -> dict:
    """{"n", "p50", "tail_pct", "tail"}; the tail fields are None when no
    percentile above the median has ten samples beyond it."""
    xs = [float(x) for x in samples]
    if not xs:
        return {"n": 0, "p50": None, "tail_pct": None, "tail": None}
    pct = tail_percentile(len(xs))
    return {"n": len(xs), "p50": median(xs), "tail_pct": pct,
            "tail": percentile(xs, pct) if pct is not None else None}


def p90_or_zero(samples) -> float:
    """p90 when the sample-count rule allows it, else 0 (too few samples)."""
    return percentile(samples, 90.0) if samples and qualifies(len(samples), 90.0) else 0.0
