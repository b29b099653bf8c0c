"""Characterization metrics.

Small, well-defined functions used everywhere in the benches: speedup,
parallel efficiency (the paper's Table 4 "multi-core speedup", which can
exceed 1.0 for superlinear cases), per-core normalization, bandwidth
conversions, and the Spearman rank correlation the surrogate gate and
the fidelity scores share.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = [
    "speedup",
    "parallel_efficiency",
    "per_core",
    "flops_rate",
    "bandwidth",
    "improvement_percent",
    "best_scheme",
    "spearman",
]


def _check_positive(value: float, name: str) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def speedup(baseline_time: float, time: float) -> float:
    """Classical speedup: baseline / measured."""
    _check_positive(baseline_time, "baseline_time")
    _check_positive(time, "time")
    return baseline_time / time


def parallel_efficiency(t1: float, tn: float, n: int) -> float:
    """Speedup per core: ``t1 / (n * tn)``.

    This is the paper's Table 4 metric ("we can see speedups greater
    than 1.0"): values above 1.0 indicate superlinear scaling, typically
    from per-task working sets dropping into cache.
    """
    if n < 1:
        raise ValueError(f"core count must be >= 1, got {n}")
    return speedup(t1, tn) / n


def per_core(aggregate: float, n: int) -> float:
    """Aggregate metric divided by core count."""
    if n < 1:
        raise ValueError(f"core count must be >= 1, got {n}")
    return aggregate / n


def flops_rate(flops: float, seconds: float) -> float:
    """Achieved flop/s."""
    _check_positive(seconds, "seconds")
    return flops / seconds


def bandwidth(nbytes: float, seconds: float) -> float:
    """Achieved bytes/s."""
    _check_positive(seconds, "seconds")
    return nbytes / seconds


def improvement_percent(baseline_time: float, improved_time: float) -> float:
    """Percentage runtime improvement of ``improved`` over ``baseline``.

    Positive means faster: 25.0 = "25% performance improvement" in the
    paper's phrasing (time reduced by 25%).
    """
    _check_positive(baseline_time, "baseline_time")
    _check_positive(improved_time, "improved_time")
    return (baseline_time - improved_time) / baseline_time * 100.0


def best_scheme(times_by_scheme: Dict[str, float]) -> str:
    """Name of the fastest scheme (ties break lexicographically)."""
    if not times_by_scheme:
        raise ValueError("no schemes to compare")
    return min(sorted(times_by_scheme), key=lambda k: times_by_scheme[k])


def _ranks(values: Sequence[float]) -> List[float]:
    """Average ranks (1-based; ties share the mean of their positions)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (j + 1 < len(order)
               and values[order[j + 1]] == values[order[i]]):
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation (tie-aware, pure python).

    The one Spearman of the repository, shared by the surrogate gate
    and the fidelity gate; tests pin it to ``scipy.stats.spearmanr``.

    ``None`` when fewer than two pairs or either side is constant —
    a degenerate table neither passes nor fails on correlation alone.
    """
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    if len(xs) < 2:
        return None
    rx, ry = _ranks(xs), _ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    sxx = sum((r - mx) ** 2 for r in rx)
    syy = sum((r - my) ** 2 for r in ry)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return sxy / (sxx * syy) ** 0.5
