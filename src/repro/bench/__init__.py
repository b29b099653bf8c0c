"""Paper-reproduction bench: one generator per table and figure.

``repro.bench.tables.tableNN()`` / ``repro.bench.figures.figureNN()``
return structured results that render to the same rows/series the paper
reports; the ``repro-bench`` CLI (:mod:`repro.bench.cli`) prints them.
"""

from . import ablations, extensions, figures, paper_data, tables
from .common import RUNTIME_CONFIGS, bound_spread_affinity, run

__all__ = ["figures", "tables", "ablations", "extensions", "paper_data",
           "RUNTIME_CONFIGS", "bound_spread_affinity", "run"]
