"""Process-wide metrics registry: counters, gauges, histograms.

The live half of the observability plane (the ledger is the post-hoc
half).  Instrumented call sites go through the module-level helpers
:func:`inc` / :func:`set_gauge` / :func:`observe`, which follow the
``tracing.py`` null-path idiom: when no registry has been enabled the
helpers return after a single global read, so plain bench runs pay
nothing.  Daemons (``repro-bench serve``, ``repro-bench cluster up``)
call :func:`enable` at startup and expose the snapshot through the
side-effect-free ``{"op": "metrics"}`` protocol op.

Histograms use fixed bucket upper bounds so snapshots from different
processes merge bucket-wise (:func:`merge_snapshots`) and quantiles can
be estimated client-side (:func:`histogram_quantile`) without shipping
raw samples.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "enable", "disable", "active_registry",
    "inc", "set_gauge", "observe",
    "snapshot", "merge_snapshots", "to_prometheus",
    "counter_total", "gauge_value", "histogram_entry",
    "histogram_quantile", "DEFAULT_BUCKETS", "COUNT_BUCKETS",
]

#: Default histogram bucket upper bounds, in seconds.  Spans the range
#: from sub-millisecond coalesce hits to multi-second batch drains; the
#: implicit final bucket catches everything above the last bound.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: bucket bounds for size-like observations (batch sizes, cell counts)
COUNT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)


def _key(name: str, labels: Dict[str, Any]) -> str:
    """Flat string identity for a (name, labels) pair.

    Prometheus-style — ``name{k="v",...}`` with sorted label keys — so
    the same string doubles as the snapshot key and the exposition name.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with mergeable counts.

    ``counts`` has ``len(bounds) + 1`` entries; the final slot is the
    overflow bucket (observations above the last bound).
    """

    __slots__ = ("bounds", "counts", "total", "sum", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += 1
        self.sum += value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> Optional[float]:
        return histogram_quantile(self.to_snapshot(), q)

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum
        self.max = max(self.max, other.max)

    def to_snapshot(self) -> Dict[str, Any]:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.total, "sum": round(self.sum, 9),
                "max": round(self.max, 9)}


class MetricsRegistry:
    """Thread-safe home for every metric in one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter()
            counter.inc(amount)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge()
            gauge.set(value)

    def observe(self, name: str, value: float,
                bounds: Sequence[float] = DEFAULT_BUCKETS,
                **labels: Any) -> None:
        key = _key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(bounds)
            hist.observe(value)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able point-in-time view of every metric."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in
                             sorted(self._counters.items())},
                "gauges": {k: g.value for k, g in
                           sorted(self._gauges.items())},
                "histograms": {k: h.to_snapshot() for k, h in
                               sorted(self._histograms.items())},
            }


# -- process-wide null path --------------------------------------------------

_REGISTRY: Optional[MetricsRegistry] = None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (or replace) the process-wide registry and return it."""
    global _REGISTRY
    _REGISTRY = registry if registry is not None else MetricsRegistry()
    return _REGISTRY


def disable() -> None:
    """Drop the process-wide registry; helpers revert to the null path."""
    global _REGISTRY
    _REGISTRY = None


def active_registry() -> Optional[MetricsRegistry]:
    return _REGISTRY


def inc(name: str, amount: float = 1.0, **labels: Any) -> None:
    registry = _REGISTRY
    if registry is None:
        return
    registry.inc(name, amount, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    registry = _REGISTRY
    if registry is None:
        return
    registry.set_gauge(name, value, **labels)


def observe(name: str, value: float,
            bounds: Sequence[float] = DEFAULT_BUCKETS,
            **labels: Any) -> None:
    registry = _REGISTRY
    if registry is None:
        return
    registry.observe(name, value, bounds, **labels)


def snapshot() -> Dict[str, Any]:
    """Snapshot of the process-wide registry ({} when disabled)."""
    registry = _REGISTRY
    if registry is None:
        return {"counters": {}, "gauges": {}, "histograms": {}}
    return registry.snapshot()


# -- snapshot algebra (works on plain dicts, usable client-side) -------------

def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge snapshots from several processes into one cluster view.

    Counters and gauges sum; histograms merge bucket-wise when bounds
    agree (mismatched bounds keep the first form and fold in count/sum
    only, so a rolling-upgrade cluster still aggregates).
    """
    merged: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for kind in ("counters", "gauges"):
            for key, value in (snap.get(kind) or {}).items():
                if isinstance(value, (int, float)):
                    merged[kind][key] = merged[kind].get(key, 0.0) + value
        for key, entry in (snap.get("histograms") or {}).items():
            if not isinstance(entry, dict):
                continue
            into = merged["histograms"].get(key)
            if into is None:
                merged["histograms"][key] = {
                    "bounds": list(entry.get("bounds") or []),
                    "counts": list(entry.get("counts") or []),
                    "count": entry.get("count", 0),
                    "sum": entry.get("sum", 0.0),
                    "max": entry.get("max", 0.0),
                }
                continue
            if into["bounds"] == list(entry.get("bounds") or []):
                counts = list(entry.get("counts") or [])
                for i, count in enumerate(counts[:len(into["counts"])]):
                    into["counts"][i] += count
            into["count"] += entry.get("count", 0)
            into["sum"] += entry.get("sum", 0.0)
            into["max"] = max(into["max"], entry.get("max", 0.0))
    return merged


def histogram_quantile(entry: Dict[str, Any], q: float) -> Optional[float]:
    """Estimate a quantile from a histogram snapshot entry.

    Linear interpolation inside the target bucket; the overflow bucket
    reports the recorded max (the best upper estimate available).
    """
    total = entry.get("count") or 0
    counts = entry.get("counts") or []
    bounds = entry.get("bounds") or []
    if not total or not counts:
        return None
    q = min(max(q, 0.0), 1.0)
    target = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= target and count:
            if i >= len(bounds):  # overflow bucket
                fallback = bounds[-1] if bounds else 0.0
                return float(entry.get("max") or fallback)
            low = bounds[i - 1] if i else 0.0
            high = bounds[i]
            fraction = (target - previous) / count
            return low + (high - low) * min(max(fraction, 0.0), 1.0)
    return float(entry.get("max") or 0.0)


def counter_total(snap: Dict[str, Any], name: str) -> float:
    """Sum a counter across all its label sets in a snapshot."""
    total = 0.0
    for key, value in (snap.get("counters") or {}).items():
        if key == name or key.startswith(name + "{"):
            total += value
    return total


def gauge_value(snap: Dict[str, Any], name: str) -> Optional[float]:
    """A gauge's value (summed across label sets; None when absent)."""
    values = [v for k, v in (snap.get("gauges") or {}).items()
              if k == name or k.startswith(name + "{")]
    return sum(values) if values else None


def histogram_entry(snap: Dict[str, Any], name: str) -> Optional[Dict[str, Any]]:
    """One histogram entry, merging label sets sharing the base name."""
    entries = [v for k, v in (snap.get("histograms") or {}).items()
               if k == name or k.startswith(name + "{")]
    if not entries:
        return None
    if len(entries) == 1:
        return entries[0]
    merged = merge_snapshots([{"histograms": {name: e}} for e in entries])
    return merged["histograms"].get(name)


def to_prometheus(snap: Dict[str, Any]) -> str:
    """Prometheus text exposition of a snapshot."""
    lines: List[str] = []
    for key, value in (snap.get("counters") or {}).items():
        lines.append(f"{key} {_fmt(value)}")
    for key, value in (snap.get("gauges") or {}).items():
        lines.append(f"{key} {_fmt(value)}")
    for key, entry in (snap.get("histograms") or {}).items():
        name, labels = _split_key(key)
        cumulative = 0
        bounds = entry.get("bounds") or []
        counts = entry.get("counts") or []
        for i, count in enumerate(counts):
            cumulative += count
            le = "+Inf" if i >= len(bounds) else _fmt(bounds[i])
            lines.append(f"{name}_bucket{{{_join(labels, ('le', le))}}} "
                         f"{cumulative}")
        lines.append(f"{name}_sum{_brace(labels)} {_fmt(entry.get('sum', 0))}")
        lines.append(f"{name}_count{_brace(labels)} {entry.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: Any) -> str:
    value = float(value)
    return str(int(value)) if value == int(value) else repr(value)


def _split_key(key: str) -> Tuple[str, str]:
    if "{" in key and key.endswith("}"):
        name, _, rest = key.partition("{")
        return name, rest[:-1]
    return key, ""


def _brace(labels: str) -> str:
    return f"{{{labels}}}" if labels else ""


def _join(labels: str, extra: Tuple[str, str]) -> str:
    part = f'{extra[0]}="{extra[1]}"'
    return f"{labels},{part}" if labels else part
