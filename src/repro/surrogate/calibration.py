"""The pinned calibration sweep behind the surrogate-fidelity gate.

The fast tier is only useful if it *orders* cells the way the exact
tier does — the paper's conclusions are rankings (which scheme wins,
which system scales), not absolute seconds.  This module pins a small
sweep spanning the regimes the surrogate must get right (bandwidth-
bound STREAM, compute-bound DGEMM, latency-bound RandomAccess, and the
communication-heavy NAS kernels, across schemes and machines) and
measures per-table Spearman rank correlation of fast-vs-exact wall
times.

:func:`compare` runs the sweep in both tiers and returns the per-table
correlations plus wall-clock totals; ``repro-bench regress
--surrogate-gate`` and the CI ``surrogate-gate`` job fail when any
table's correlation falls below ``1 - RANK_CORRELATION_DROP`` (the same
tolerance the fidelity gate applies to model-vs-paper agreement).

Everything here is dependency-light on purpose: the rank correlation
(:func:`repro.core.metrics.spearman`) is computed in pure python (no
scipy), so the gate also runs on the numpy-less fallback path.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from ..core.metrics import spearman

__all__ = [
    "calibration_tables",
    "compare",
    "format_report",
]


def calibration_tables() -> List[Tuple[str, List[Any]]]:
    """The pinned sweep: ``(table_name, [JobRequest, ...])`` groups.

    Deliberately a function (not a module constant) so importing this
    module stays cheap; the cells are deterministic values, so the two
    tiers of one calibration run always describe the same sweep.
    """
    from ..apps.md.amber import AmberSander
    from ..apps.md.lammps import LammpsBench
    from ..apps.pop import Pop
    from ..core.experiment import ALL_SCHEMES
    from ..core.parallel import JobRequest
    from ..machine import dmz, longs
    from ..workloads.hpcc import HpccDgemm, HpccRandomAccess, HpccStream
    from ..workloads.nas import NasCG, NasFT

    kernels = [
        ("stream", HpccStream, (2, 4), tuple(ALL_SCHEMES)),
        ("dgemm", HpccDgemm, (2, 4), tuple(ALL_SCHEMES)),
        ("randomaccess", HpccRandomAccess, (2, 4), tuple(ALL_SCHEMES)),
        ("nas-cg", NasCG, (2, 4, 8), tuple(ALL_SCHEMES[:3])),
        ("nas-ft", NasFT, (2, 4, 8), tuple(ALL_SCHEMES[:3])),
        ("amber", lambda n: AmberSander("jac", n), (4, 8),
         tuple(ALL_SCHEMES[:3])),
        ("lammps", lambda n: LammpsBench("lj", n), (4, 8),
         tuple(ALL_SCHEMES[:3])),
        ("pop", Pop, (4, 8),
         (ALL_SCHEMES[0], ALL_SCHEMES[5])),
    ]
    tables: List[Tuple[str, List[Any]]] = []
    for spec in (longs(), dmz()):
        for family, factory, counts, schemes in kernels:
            requests = [
                JobRequest(spec=spec, workload=factory(ntasks),
                           scheme=scheme)
                for ntasks in counts
                for scheme in schemes
            ]
            tables.append((f"{spec.name.lower()}:{family}", requests))
    return tables


def _sweep(requests, tier: str, jobs, cache) -> Tuple[List[Any], float]:
    """Run every request in one tier; returns (results, wall seconds)."""
    from ..core.parallel import run_requests

    tiered = [replace(r, tier=tier) for r in requests]
    start = time.perf_counter()
    kwargs = {} if cache is None else {"cache": cache}
    results = run_requests(tiered, jobs=jobs, **kwargs)
    return results, time.perf_counter() - start


def compare(jobs: Optional[int] = None, cache=None) -> Dict[str, Any]:
    """Run the calibration sweep in both tiers and score the agreement.

    Returns::

        {"tables": {name: {"cells": int, "rank_correlation": float|None,
                           "fast_mean_ratio": float}},
         "mean_rank_correlation": float,
         "min_rank_correlation": float,
         "exact_seconds": float, "fast_seconds": float,
         "speedup": float, "cells": int}

    Wall-clock numbers are honest only against a cold cache — pass a
    scratch ``cache`` (or point ``REPRO_BENCH_CACHE_DIR`` somewhere
    fresh) when using them for the speedup gate; the correlations are
    cache-independent.
    """
    tables = calibration_tables()
    flat = [request for _name, requests in tables for request in requests]
    exact_results, exact_s = _sweep(flat, "exact", jobs, cache)
    fast_results, fast_s = _sweep(flat, "fast", jobs, cache)

    report: Dict[str, Any] = {"tables": {}}
    rhos: List[float] = []
    cells = 0
    offset = 0
    for name, requests in tables:
        n = len(requests)
        exact_t, fast_t = [], []
        for exact, fast in zip(exact_results[offset:offset + n],
                               fast_results[offset:offset + n]):
            if exact is None or fast is None:
                continue  # infeasible in both tiers (same resolver)
            exact_t.append(exact.wall_time)
            fast_t.append(fast.wall_time)
        offset += n
        rho = spearman(exact_t, fast_t)
        ratio = (sum(f / e for f, e in zip(fast_t, exact_t)) / len(fast_t)
                 if fast_t else None)
        report["tables"][name] = {
            "cells": len(exact_t),
            "rank_correlation": rho,
            "fast_mean_ratio": ratio,
        }
        cells += len(exact_t)
        if rho is not None:
            rhos.append(rho)
    report["mean_rank_correlation"] = (sum(rhos) / len(rhos)
                                       if rhos else None)
    report["min_rank_correlation"] = min(rhos) if rhos else None
    report["exact_seconds"] = exact_s
    report["fast_seconds"] = fast_s
    report["speedup"] = exact_s / fast_s if fast_s > 0 else None
    report["cells"] = cells
    return report


def format_report(report: Dict[str, Any]) -> str:
    """The comparison table as text (CI artifact / regress output)."""
    lines = ["surrogate calibration: fast-vs-exact rank agreement",
             f"{'table':24s} {'cells':>5s} {'rho':>7s} {'fast/exact':>10s}"]
    for name, scores in sorted(report["tables"].items()):
        rho = scores["rank_correlation"]
        ratio = scores["fast_mean_ratio"]
        rho_text = f"{rho:7.4f}" if rho is not None else f"{'-':>7s}"
        ratio_text = f"{ratio:10.3f}" if ratio is not None else f"{'-':>10s}"
        lines.append(f"{name:24s} {scores['cells']:5d} "
                     f"{rho_text} {ratio_text}")
    mean = report["mean_rank_correlation"]
    lines.append(
        f"mean rho {mean:.4f}  "
        f"exact {report['exact_seconds']:.2f}s  "
        f"fast {report['fast_seconds']:.2f}s  "
        f"speedup {report['speedup']:.1f}x"
        if mean is not None else "no scorable tables")
    return "\n".join(lines)
