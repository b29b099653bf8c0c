"""Operating-system model: task placement, CPU masks, scheduler effects."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".affinity_api": ("AffinityRegistry", "CpuSet", "parse_cpu_list"),
    ".placement": (
        "Placement", "one_per_socket", "packed", "preferred_socket_order",
        "spread", "two_per_socket",
    ),
    ".scheduler": ("SchedulerModel",),
})
