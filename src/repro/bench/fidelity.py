"""Quantitative model-vs-paper agreement.

For every numeric table of the paper, join the generated values against
the transcribed measurements (:mod:`repro.bench.paper_data`) and score:

* **rank correlation** (Spearman) over each row's scheme/column values —
  "does the model order the configurations the way the paper measured
  them?", the reproduction's primary claim.  It is the same pure-python
  :func:`repro.surrogate.calibration.spearman` the surrogate gate uses;
* the **median magnitude ratio** model/paper — how close absolute
  numbers land;
* the **ratio spread** (max/min of per-cell ratios) — whether the model
  is a clean rescaling of the paper or distorts shapes.

``fidelity_table()`` produces one summary row per paper table; the
`repro-bench fidelity` target prints it and the benchmark suite asserts
minimum correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.report import TableResult
from ..surrogate.calibration import spearman
from . import paper_data, tables

__all__ = ["TableFidelity", "score_pairs", "fidelity_table", "paired_values"]


@dataclass(frozen=True)
class TableFidelity:
    """Agreement summary for one paper table.

    ``rank_correlation`` is None when no row has enough distinct cells
    to rank (e.g. two-column speedup tables).
    """

    name: str
    cells: int
    rank_correlation: Optional[float]
    median_ratio: float
    ratio_spread: float


def score_pairs(pairs: Sequence[Tuple[float, float]],
                row_groups: Sequence[Sequence[Tuple[float, float]]],
                name: str) -> TableFidelity:
    """Compute fidelity metrics from (paper, model) cell pairs.

    ``row_groups`` holds the same pairs grouped by table row; rank
    correlation is computed within rows (the paper's comparisons are
    within-row: scheme vs scheme at fixed task count) and averaged over
    rows with at least three distinct cells.
    """
    if not pairs:
        raise ValueError(f"no comparable cells for {name}")
    ratios = [model / paper for paper, model in pairs if paper > 0]
    ratios.sort()
    median_ratio = ratios[len(ratios) // 2]
    spread = ratios[-1] / ratios[0] if ratios else math.inf

    correlations: List[float] = []
    for group in row_groups:
        if len(group) < 3:
            continue
        papers = [p for p, _m in group]
        models = [m for _p, m in group]
        if len(set(papers)) < 2 or len(set(models)) < 2:
            continue
        rho = spearman(papers, models)
        if rho is not None:
            correlations.append(rho)
    mean_rho = (sum(correlations) / len(correlations)
                if correlations else None)
    return TableFidelity(name=name, cells=len(pairs),
                         rank_correlation=mean_rho,
                         median_ratio=median_ratio, ratio_spread=spread)


def paired_values(generated: TableResult, paper: Dict,
                  key_columns: int = 2) -> List[List[Tuple[float, float]]]:
    """Join a generated table against a paper dict, grouped by row.

    ``paper`` maps the tuple of the row's first ``key_columns`` cells to
    the tuple of remaining column values.
    """
    groups: List[List[Tuple[float, float]]] = []
    for row in generated.rows:
        key = tuple(row[:key_columns])
        key = key if len(key) > 1 else key[0]
        if key not in paper:
            continue
        paper_row = paper[key]
        model_row = row[key_columns:]
        if len(paper_row) != len(model_row):
            raise ValueError(
                f"column mismatch for row {key}: paper {len(paper_row)} vs "
                f"model {len(model_row)}"
            )
        group = [
            (float(p), float(m))
            for p, m in zip(paper_row, model_row)
            if p is not None and m is not None
        ]
        if group:
            groups.append(group)
    return groups


#: the scored tables: name, `repro-bench` target, paper data, key columns
_COMPARISONS = [
    ("Table 2 (NAS, Longs)", "tab02", paper_data.TABLE02, 2),
    ("Table 3 (NAS, DMZ)", "tab03", paper_data.TABLE03, 2),
    ("Table 4 (NAS efficiency)", "tab04", paper_data.TABLE04, 2),
    ("Table 7 (JAC FFT)", "tab07", paper_data.TABLE07, 2),
    ("Table 8 (AMBER speedup)", "tab08", paper_data.TABLE08, 2),
    ("Table 9 (JAC overall)", "tab09", paper_data.TABLE09, 2),
    ("Table 10 (LAMMPS speedup)", "tab10", paper_data.TABLE10, 2),
    ("Table 11 (LAMMPS LJ)", "tab11", paper_data.TABLE11, 2),
    ("Table 12 (POP speedup)", "tab12", paper_data.TABLE12, 2),
    ("Table 13 (POP baroclinic)", "tab13", paper_data.TABLE13, 2),
    ("Table 14 (POP barotropic)", "tab14", paper_data.TABLE14, 2),
]


def _build_table(target: str) -> TableResult:
    """Generate the table a ``tabNN`` target names."""
    return getattr(tables, f"table{target[3:]}")()


def fidelity_table(build: Optional[Callable[[str], TableResult]] = None
                   ) -> TableResult:
    """Model-vs-paper agreement for every numeric table of the paper.

    ``build`` turns a target name (``tab02``, ...) into its table
    (generating it by default); `repro-bench` passes its per-run memo,
    so the fidelity target scores the very tables ``tab02``-``tab14``
    print instead of assembling them a second time.
    """
    build = build or _build_table
    out = TableResult(
        title="fidelity: model vs paper, per table",
        headers=["Paper table", "cells", "rank corr", "median ratio",
                 "ratio spread"],
    )
    for name, target, paper, key_columns in _COMPARISONS:
        groups = paired_values(build(target), paper, key_columns)
        pairs = [pair for group in groups for pair in group]
        score = score_pairs(pairs, groups, name)
        out.add_row(name, score.cells, score.rank_correlation,
                    score.median_ratio, score.ratio_spread)
    out.notes.append(
        "rank corr: mean within-row Spearman correlation (1.0 = the model "
        "orders every configuration exactly as the paper measured)"
    )
    out.notes.append(
        "median ratio: model/paper magnitudes (1.0 = absolute agreement)"
    )
    return out
