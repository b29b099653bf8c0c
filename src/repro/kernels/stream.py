"""STREAM kernels (McCalpin), functional and modeled.

The paper uses the LMbench3 STREAM-triad variant (Section 3.1) and the
HPCC STREAM embedding (Section 3.3).  STREAM has no temporal reuse at
all — every element is touched once per pass — which is what makes it
the pure memory-link probe of the study.

Natural traffic per element (8-byte doubles):

* copy:  c = a          → 16 B, 0 flops
* scale: b = q*c        → 16 B, 1 flop
* add:   c = a + b      → 24 B, 1 flop
* triad: a = b + q*c    → 24 B, 2 flops

(Write-allocate traffic is folded into the achievable-bandwidth
fraction of the machine model rather than counted per kernel, matching
how STREAM itself reports bandwidth.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.ops import Compute

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "copy",
    "scale",
    "add",
    "triad",
    "triad_model",
    "stream_model",
    "BYTES_PER_ELEMENT",
    "WRITE_FRACTION",
]

BYTES_PER_ELEMENT = {"copy": 16, "scale": 16, "add": 24, "triad": 24}
FLOPS_PER_ELEMENT = {"copy": 0, "scale": 1, "add": 1, "triad": 2}
#: writes / (reads + writes) per element: copy and scale stream one
#: read and one write; add and triad read two arrays and write one
WRITE_FRACTION = {"copy": 0.5, "scale": 0.5, "add": 1 / 3, "triad": 1 / 3}


# -- functional -----------------------------------------------------------

def copy(a: np.ndarray) -> np.ndarray:
    """STREAM copy: ``c = a``."""
    return a.copy()


def scale(c: np.ndarray, q: float) -> np.ndarray:
    """STREAM scale: ``b = q * c``."""
    return q * c


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """STREAM add: ``c = a + b``."""
    return a + b


def triad(b: np.ndarray, c: np.ndarray, q: float) -> np.ndarray:
    """STREAM triad: ``a = b + q * c``."""
    return b + q * c


# -- model ----------------------------------------------------------------

def stream_model(kind: str, n: int, passes: int = 1,
                 phase: str = "") -> Compute:
    """Operation-count descriptor for ``passes`` sweeps of one kernel.

    ``n`` is elements per array.  ``reuse`` is zero by construction;
    the flop efficiency is irrelevant (the kernel is bandwidth-bound)
    but set to the streaming-FPU value for completeness.
    """
    if kind not in BYTES_PER_ELEMENT:
        raise ValueError(f"unknown STREAM kernel {kind!r}")
    if n < 1 or passes < 1:
        raise ValueError("n and passes must be positive")
    return Compute(
        phase=phase,
        flops=FLOPS_PER_ELEMENT[kind] * n * passes,
        dram_bytes=BYTES_PER_ELEMENT[kind] * n * passes,
        working_set=BYTES_PER_ELEMENT[kind] * n,
        reuse=0.0,
        flop_efficiency=0.9,
        write_fraction=WRITE_FRACTION[kind],
    )


def triad_model(n: int, passes: int = 1, phase: str = "") -> Compute:
    """Convenience: the triad descriptor (the paper's headline kernel)."""
    return stream_model("triad", n, passes, phase)
