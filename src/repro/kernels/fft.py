"""FFT kernels: an iterative radix-2 implementation plus cost models.

FFT appears throughout the paper: HPCC FFT (Figure 9), NAS FT class B
(Tables 2–4), and the reciprocal-space part of AMBER's PME method
(Table 7).  Its characterization sits between DGEMM and STREAM: each
butterfly pass streams the whole array, but log n passes over data that
partially stays in cache gives it moderate temporal reuse ("the
somewhat less cache-friendly FFT", Section 3.3).

The functional implementation is a standard iterative Cooley–Tukey
radix-2 transform, validated against numpy.fft in the tests.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..core.ops import Compute

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "fft_radix2",
    "ifft_radix2",
    "fft3d",
    "ifft3d",
    "fft_flops",
    "fft_model",
    "is_power_of_two",
]


def is_power_of_two(n: int) -> bool:
    """True for 1, 2, 4, 8, ..."""
    return n >= 1 and (n & (n - 1)) == 0


def fft_radix2(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT (power-of-two length)."""
    import numpy as np

    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    if not is_power_of_two(n):
        raise ValueError(f"radix-2 FFT requires power-of-two length, got {n}")
    if n == 1:
        return x.copy()
    # bit-reversal permutation
    levels = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=int)
    for bit in range(levels):
        reversed_indices |= ((indices >> bit) & 1) << (levels - 1 - bit)
    result = x[reversed_indices].copy()
    # butterfly passes
    size = 2
    while size <= n:
        half = size // 2
        twiddle = np.exp(-2j * np.pi * np.arange(half) / size)
        for start in range(0, n, size):
            # copy: `top` must not alias the slice written below
            top = result[start:start + half].copy()
            bottom = result[start + half:start + size] * twiddle
            result[start:start + half] = top + bottom
            result[start + half:start + size] = top - bottom
        size *= 2
    return result


def ifft_radix2(x: np.ndarray) -> np.ndarray:
    """Inverse transform via conjugation."""
    import numpy as np

    x = np.asarray(x, dtype=complex)
    return np.conj(fft_radix2(np.conj(x))) / x.shape[0]


def fft3d(x: np.ndarray) -> np.ndarray:
    """3-D FFT by successive 1-D transforms along each axis.

    This is the transform-then-transpose structure the parallel NAS FT
    and PME workloads model: 1-D butterflies along the contiguous axis,
    reorient, repeat.  All dimensions must be powers of two.
    """
    import numpy as np

    x = np.asarray(x, dtype=complex)
    if x.ndim != 3:
        raise ValueError("fft3d requires a 3-D array")
    out = x.copy()
    for axis in range(3):
        # bring `axis` last (the "transpose"), transform all pencils
        moved = np.moveaxis(out, axis, -1)
        shape = moved.shape
        pencils = moved.reshape(-1, shape[-1])
        transformed = np.stack([fft_radix2(p) for p in pencils])
        out = np.moveaxis(transformed.reshape(shape), -1, axis)
    return out


def ifft3d(x: np.ndarray) -> np.ndarray:
    """Inverse 3-D transform via conjugation."""
    import numpy as np

    x = np.asarray(x, dtype=complex)
    return np.conj(fft3d(np.conj(x))) / x.size


def fft_flops(n: int) -> float:
    """The standard 5 n log2 n flop count for a complex length-n FFT."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 0.0
    return 5.0 * n * math.log2(n)


def fft_model(n: int, batches: int = 1, phase: str = "") -> Compute:
    """Descriptor for ``batches`` complex FFTs of length ``n``.

    Natural traffic: a cache-exceeding transform makes roughly two full
    read+write sweeps over its 16-byte complex elements (64 B/elt);
    with moderate reuse (0.55) this reproduces the paper's "slightly
    more impact going from Single FFT to Star FFT" relative to DGEMM's
    near-zero traffic.
    """
    if n < 1 or batches < 1:
        raise ValueError("n and batches must be positive")
    return Compute(
        phase=phase,
        flops=fft_flops(n) * batches,
        dram_bytes=64.0 * n * batches,
        working_set=16.0 * n,
        reuse=0.55,
        flop_efficiency=0.45,
    )
