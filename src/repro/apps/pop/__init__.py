"""Parallel Ocean Program (POP) substrate: x1 grid, functional
baroclinic/barotropic mini-solvers, and the characterization workload."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".baroclinic": ("baroclinic_step", "total_tracer"),
    ".barotropic": ("Laplacian2D", "solve_barotropic", "stencil_apply"),
    ".grid": ("X1_GRID", "PopGrid", "block_shape", "factor_grid"),
    ".model": ("Pop",),
    ".shallow_water": ("ShallowWaterModel", "ShallowWaterState"),
})
