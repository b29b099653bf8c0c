"""Summaries and the parent-versus-change comparison of benchmark runs.

The comparison follows the method the repository's performance claims
use: medians and quartiles per side, pairs won, a gain claimed only
when the change wins at least nine tenths of the pairs by more than
the parent's own spread, a regression when the change's median is
worse than the parent's by more than the metric's bound, and
"unresolved" when run-to-run spread is wider than the bound.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: a percentile is reported only with at least this many samples beyond
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-th percentile, or ``None`` when fewer
    than :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    if not n:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def percentile_or_max(samples: Sequence[float], q: float) -> float:
    """:func:`percentile`, the maximum when too few samples support it,
    0 without samples (per-layer metrics are always numbers)."""
    if not samples:
        return 0.0
    value = percentile(samples, q)
    return value if value is not None else max(samples)


def tail(samples: Sequence[float]) -> Tuple[float, str]:
    """The highest of p99, p90 and p50 the samples support, else the
    maximum; returns ``(value, label)``."""
    for q in (99, 90, 50):
        value = percentile(samples, q)
        if value is not None:
            return value, f"p{q}"
    return max(samples), "max"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics``'
    exclusive method; a single value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def _better(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Dict:
    """Compare paired runs of one metric on one workload.

    ``parent[i]`` and ``change[i]`` form pair ``i``.  Returns medians,
    quartiles, pairs won and lost by the change, and one of
    ``improved``, ``no worse``, ``regressed`` or ``unresolved``.
    """
    pq = quartiles(parent)
    cq = quartiles(change)
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if _better(c, p, better))
    lost = sum(1 for p, c in pairs if _better(p, c, better))
    base = abs(pq[1]) or 1.0
    worse_by = ((cq[1] - pq[1]) if better == "lower"
                else (pq[1] - cq[1])) / base
    spread = max(relative_spread(parent), relative_spread(change))
    all_better = all(_better(c, p, better) for c in change for p in parent)
    if (pairs and won >= 0.9 * len(pairs) and worse_by < 0
            and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
        word = "improved"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "regressed"
    else:
        word = "no worse"
    return {"parent": pq, "change": cq, "pairs": len(pairs), "won": won,
            "lost": lost, "worse_by": worse_by, "spread": spread,
            "verdict": word}


def compare(parent_runs: List[Dict], change_runs: List[Dict],
            catalog: Sequence[Dict]) -> List[Dict]:
    """Verdicts for every (workload, metric) present on both sides.

    Each run is ``{workload: {metric: value}}``; ``catalog`` is the
    ``end_to_end`` list of ``BENCHMARK.json`` (name, better, bound).
    """
    rows = []
    workloads = sorted(set().union(*(run.keys() for run in parent_runs))
                       & set().union(*(run.keys() for run in change_runs)))
    for workload in workloads:
        for metric in catalog:
            name = metric["name"]
            parent = [run[workload][name] for run in parent_runs
                      if name in run.get(workload, {})]
            change = [run[workload][name] for run in change_runs
                      if name in run.get(workload, {})]
            if not parent or not change:
                continue
            row = verdict(parent, change, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name,
                       unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    return rows
