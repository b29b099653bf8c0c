"""Full applications: molecular dynamics and the Parallel Ocean Program."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {}, submodules=("md", "pop"))
