"""The affinity-scheme sweep vocabulary.

A cell of the paper's measurement grid is a
:class:`~repro.core.parallel.JobRequest`; sweeps over such cells are
session methods (:meth:`Session.scheme_sweep`,
:meth:`Session.compare_schemes`, :meth:`Session.scaling_study`), so
they share the service's cache, coalescing, and telemetry.
:class:`SchemeComparison` lives here because those methods return it;
they default to :data:`ALL_SCHEMES`, which :mod:`~repro.core.affinity`
defines with the schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .affinity import ALL_SCHEMES, AffinityScheme

__all__ = ["SchemeComparison", "ALL_SCHEMES"]


@dataclass
class SchemeComparison:
    """Outcome of :meth:`Session.compare_schemes` for one workload."""

    times: Dict[str, float]
    best: str
    worst: str

    @property
    def best_time(self) -> float:
        return self.times[self.best]

    @property
    def improvement_over_default_percent(self) -> float:
        """How much the best scheme improves on the Default placement."""
        default = self.times[str(AffinityScheme.DEFAULT)]
        return (default - self.best_time) / default * 100.0

    @property
    def spread(self) -> float:
        """Worst/best runtime ratio across feasible schemes."""
        return self.times[self.worst] / self.best_time
