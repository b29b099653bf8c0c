"""Paper-reproduction bench: one generator per table and figure.

``repro.bench.tables.tableNN()`` / ``repro.bench.figures.figureNN()``
return structured results that render to the same rows/series the paper
reports; the ``repro-bench`` CLI (:mod:`repro.bench.cli`) prints them.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".common": ("RUNTIME_CONFIGS", "bound_spread_affinity", "run"),
}, submodules=(
    "ablations", "extensions", "figures", "paper_data", "tables",
))
