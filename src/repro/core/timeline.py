"""Text timelines from op-level traces.

Run a job with ``JobRunner(..., trace=True)`` and render where each
rank spent its time — a terminal-friendly Gantt view that makes
placement pathologies (one hot rank, synchronized stalls) visible at a
glance.
"""

from __future__ import annotations

import json
from typing import Dict, List

from ..sim import Tracer
from ..telemetry.tracing import chrome_trace

__all__ = ["render_timeline", "to_chrome_trace", "CATEGORY_GLYPHS"]

#: one glyph per accounting category
CATEGORY_GLYPHS: Dict[str, str] = {
    "compute": "#",
    "comm": "~",
}
_IDLE = "."
_MIXED = "+"


def render_timeline(tracer: Tracer, width: int = 72,
                    time_scale: float = 1.0) -> str:
    """Render per-rank activity lanes from an op-level trace.

    Each lane is ``width`` buckets of equal simulated time; a bucket
    shows the glyph of the category that dominated it, ``+`` where two
    categories mix, and ``.`` where the rank was idle (waiting).
    """
    if width < 10:
        raise ValueError("width must be at least 10 characters")
    records = [r for r in tracer.records if r.category in CATEGORY_GLYPHS]
    if not records:
        return "(no op-level trace records; run with trace=True)"
    horizon = max(r.time + r.duration for r in records)
    if horizon <= 0:
        return "(empty timeline)"
    ranks = sorted({r.rank for r in records})
    # accumulate per-bucket occupancy per category
    lanes: Dict[int, List[Dict[str, float]]] = {
        rank: [dict() for _ in range(width)] for rank in ranks
    }
    bucket_span = horizon / width
    for record in records:
        lane = lanes[record.rank]
        start, end = record.time, record.time + record.duration
        first = min(width - 1, int(start / bucket_span))
        last = min(width - 1, int(end / bucket_span))
        for bucket in range(first, last + 1):
            lo = max(start, bucket * bucket_span)
            hi = min(end, (bucket + 1) * bucket_span)
            if hi > lo:
                cell = lane[bucket]
                cell[record.category] = cell.get(record.category, 0.0) + (hi - lo)

    lines = [
        f"timeline: {horizon * time_scale:.4g} s across {width} buckets "
        f"({'; '.join(f'{g}={c}' for c, g in CATEGORY_GLYPHS.items())}; "
        f"{_MIXED}=mixed, {_IDLE}=idle)"
    ]
    for rank in ranks:
        cells = []
        for cell in lanes[rank]:
            busy = {c: t for c, t in cell.items() if t > 0.02 * bucket_span}
            if not busy:
                cells.append(_IDLE)
            elif len(busy) > 1:
                cells.append(_MIXED)
            else:
                cells.append(CATEGORY_GLYPHS[next(iter(busy))])
        lines.append(f"rank {rank:3d} |{''.join(cells)}|")
    return "\n".join(lines)


def to_chrome_trace(tracer: Tracer, time_scale: float = 1.0) -> str:
    """Export the op-level trace as Chrome tracing JSON.

    Load the result in ``chrome://tracing`` or Perfetto: one thread
    lane per rank, complete ("X") events with the op type as name and
    the workload phase as an argument.  Timestamps are microseconds of
    (time_scale-adjusted) simulated time.
    """
    return json.dumps(chrome_trace(
        (record.detail.get("op", record.category), record.category, 0,
         record.rank, record.time * time_scale * 1e6,
         record.duration * time_scale * 1e6,
         {"phase": record.detail.get("op_phase", "")})
        for record in tracer.records if record.rank >= 0))
