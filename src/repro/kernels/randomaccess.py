"""HPCC RandomAccess (GUPS): functional kernel and latency-bound model.

RandomAccess "is designed to measure the performance of the last level
of hierarchy of the memory system" (Section 3.3): a stream of XOR
updates to random 8-byte words of a huge table.  Every update is a
dependent remote-or-local access, so its cost is dominated by NUMA
latency — and, in the MPI variant, by per-message overhead of the
locking sub-layer, which is exactly where the paper sees SysV
semaphores collapse.

The functional version implements the HPCC update rule (the x(n+1) =
(x(n) << 1) XOR (poly if MSB set) LCG over GF(2)) including the
benchmark's self-verification step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.ops import Compute

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = [
    "POLY",
    "random_stream",
    "random_access_update",
    "verify_table",
    "randomaccess_model",
]

#: the HPCC polynomial for the GF(2) linear generator
POLY = 0x0000000000000007
_MASK64 = (1 << 64) - 1


def random_stream(count: int, start: int = 1) -> np.ndarray:
    """The HPCC pseudo-random sequence a(i) as uint64."""
    import numpy as np

    if count < 0:
        raise ValueError("count must be non-negative")
    out = np.empty(count, dtype=np.uint64)
    value = start & _MASK64
    for i in range(count):
        high_bit = value >> 63
        value = ((value << 1) & _MASK64) ^ (POLY if high_bit else 0)
        out[i] = value
    return out


def random_access_update(table: np.ndarray, updates: int,
                         start: int = 1) -> np.ndarray:
    """Apply ``updates`` XOR updates; table length must be a power of two."""
    import numpy as np

    n = table.shape[0]
    if n & (n - 1):
        raise ValueError("table length must be a power of two")
    stream = random_stream(updates, start)
    indices = (stream & np.uint64(n - 1)).astype(np.int64)
    for idx, value in zip(indices, stream):
        table[idx] ^= value
    return table


def verify_table(table_size: int, updates: int, start: int = 1) -> float:
    """Run updates then un-apply them; returns the fraction of errors.

    A correct implementation returns 0.0 (XOR updates are involutory
    when replayed, and our serial version has no races).
    """
    import numpy as np

    table = np.arange(table_size, dtype=np.uint64)
    random_access_update(table, updates, start)
    random_access_update(table, updates, start)  # replay undoes every update
    errors = int(np.count_nonzero(table != np.arange(table_size, dtype=np.uint64)))
    return errors / table_size


def randomaccess_model(updates: int, table_bytes: float,
                       phase: str = "") -> Compute:
    """Descriptor: ``updates`` dependent accesses over a huge table.

    The table dwarfs any cache, so the working set equals the table and
    reuse is zero; the read-modify-write traffic itself is tiny compared
    to the latency cost, which the runtime charges per access.
    """
    if updates < 0 or table_bytes <= 0:
        raise ValueError("updates must be >= 0 and table_bytes positive")
    return Compute(
        phase=phase,
        flops=updates,  # one XOR per update
        dram_bytes=16.0 * updates,
        working_set=table_bytes,
        reuse=0.0,
        flop_efficiency=0.5,
        random_accesses=updates,
    )
