"""Instrumented scientific kernels.

Each module pairs a *functional* implementation (real numpy math,
validated in the test suite) with an *operation-count model* (a
:class:`~repro.core.ops.Compute` descriptor at paper-scale sizes) used
by the workload drivers.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {}, submodules=(
    "blas", "cg", "fft", "hpl", "ptrans", "randomaccess", "stream",
))
