"""NUMA memory-placement substrate.

Page-placement policies matching Linux/`numactl` semantics (first-touch
default, localalloc, membind, interleave), a 4 KB page table for
page-granular validation, and a `numactl` front-end mirroring the CLI
the paper drives its experiments with.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".numactl": ("NumactlConfig", "parse_numactl"),
    ".numastat": ("NodeStats", "numastat", "remote_fraction"),
    ".pages": ("PAGE_SIZE", "PageTable", "Region"),
    ".policy": (
        "FirstTouch", "Interleave", "LocalAlloc", "Membind", "MemoryPolicy",
        "Preferred",
    ),
})
