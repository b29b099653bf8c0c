"""The cluster router: content-address sharding over N serve daemons.

The router speaks the same protocol as a single daemon — clients
cannot tell the difference — and forwards every cell to one of N shards
picked by **rendezvous (highest-random-weight) hashing of the cell's
cache content address** (:meth:`JobRequest.key`).  That choice is what
keeps the PR-5 coalescing guarantee cluster-wide: identical cells from
any client hash to the same shard, whose session collapses them onto
one in-flight simulation, while the shards' shared content-addressed
disk store (``--cache-dir``) is the second cache tier under each
shard's session outcome table.

Rendezvous hashing also gives every key a *stable fallback order* over
the shard set: when the preferred shard is dead the router forwards to
the next shard in that key's order (retry with backoff), so a killed
shard degrades capacity instead of availability.  Simulation cells are
deterministic and content-addressed, which makes re-forwarding safe:
a job lost with a dying shard is simply recomputed by the fallback
shard, so **no accepted job is ever lost** — at worst one is computed
twice.  Only when every shard is unreachable does a request fail, with
the typed :class:`~repro.errors.ShardUnavailableError` wire code.

A background health prober pings shards on an interval and after
forwarding failures, so routing tables recover automatically when a
shard comes back.

Each shard additionally carries a **circuit breaker**
(closed → open → half-open) driven by consecutive forward failures:
a flapping shard is demoted out of every key's fallback order while
its breaker is open, so its connect timeouts stop stacking up in the
hot path.  After a cooldown the breaker half-opens and the next
forward acts as the probe — success re-closes the breaker, failure
re-opens it.  Open shards are still tried as a *last resort* when
every other shard has failed, so the breaker can only reorder, never
strand, a key.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ProtocolError, ReproError, ShardUnavailableError, \
    error_code
from ..service.protocol import PROTOCOL_VERSION, cell_from_wire, \
    metrics_response
from ..service.transport import Address, format_address, parse_address, \
    request
from ..telemetry import metrics as _metrics
from ..telemetry import tracing
from ..telemetry.tracing import span

__all__ = ["CircuitBreaker", "Router", "ShardState", "rendezvous_order",
           "shard_for_key"]


def _weight(shard_name: str, key: str) -> int:
    digest = hashlib.sha256(f"{shard_name}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_order(key: str, shard_names: Sequence[str]) -> List[str]:
    """All shards ordered by highest-random-weight for ``key``.

    The first entry is the home shard; the rest are the stable fallback
    order used when shards die.  Removing one shard from the set never
    reshuffles keys between the surviving shards — only the dead
    shard's keys move (to their next-ranked shard), which preserves
    both cache locality and in-flight coalescing on the survivors.
    """
    return sorted(shard_names, key=lambda name: _weight(name, key),
                  reverse=True)


def shard_for_key(key: str, shard_names: Sequence[str]) -> str:
    """The home shard of a content address."""
    return rendezvous_order(key, shard_names)[0]


class CircuitBreaker:
    """Per-shard closed → open → half-open failure gate.

    ``failure_threshold`` consecutive failures open the breaker; while
    open, :meth:`allow` answers False so callers demote the shard.
    After ``open_s`` the breaker half-opens: exactly one caller at a
    time is let through as a probe, and its outcome either re-closes
    (success) or re-opens (failure) the breaker.  A threshold of 0
    disables the breaker — it then never leaves the closed state.

    The clock is injectable for deterministic tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 3, open_s: float = 2.0,
                 clock=time.monotonic):
        self.failure_threshold = max(0, failure_threshold)
        self.open_s = open_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._streak = 0          # consecutive failures while closed
        self._opened_at = 0.0
        self._probing = False     # a half-open probe is in flight
        self.transitions = 0

    def _tick_locked(self) -> None:
        if self._state == self.OPEN and \
                self._clock() - self._opened_at >= self.open_s:
            self._state = self.HALF_OPEN
            self._probing = False
            self.transitions += 1

    def state(self) -> str:
        with self._lock:
            self._tick_locked()
            return self._state

    def allow(self) -> bool:
        """May a request be sent to this shard right now?

        In the half-open state the first caller wins the probe slot;
        concurrent callers are told to go elsewhere until the probe's
        outcome is recorded.
        """
        with self._lock:
            self._tick_locked()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._tick_locked()
            if self._state != self.CLOSED:
                self.transitions += 1
            self._state = self.CLOSED
            self._streak = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._tick_locked()
            if self.failure_threshold <= 0:
                return
            if self._state == self.HALF_OPEN:
                # the probe failed: back to a full cooldown
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probing = False
                self.transitions += 1
                return
            self._streak += 1
            if self._state == self.CLOSED and \
                    self._streak >= self.failure_threshold:
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.transitions += 1

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            self._tick_locked()
            return {"state": self._state,
                    "failure_streak": self._streak,
                    "transitions": self.transitions}


#: numeric encoding of breaker states for the ``router_breaker_state``
#: gauge (sorted by increasing badness so dashboards can threshold)
BREAKER_STATE_GAUGE = {CircuitBreaker.CLOSED: 0,
                       CircuitBreaker.HALF_OPEN: 1,
                       CircuitBreaker.OPEN: 2}


@dataclass
class ShardState:
    """Router-side view of one shard."""

    name: str
    address: Address
    alive: bool = True
    forwarded: int = 0
    failures: int = 0
    last_error: Optional[str] = None
    last_seen: float = field(default_factory=time.monotonic)
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    #: transitions already published as the metrics counter
    breaker_transitions_emitted: int = 0
    #: the shard's RemoteBackend: one persistent connection
    #: for sequential traffic, one-shot sockets when it is busy
    backend: Optional[Any] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "address": format_address(self.address),
                "alive": self.alive,
                "forwarded": self.forwarded,
                "failures": self.failures,
                "last_error": self.last_error,
                "breaker": self.breaker.as_dict()}


def _reparent(cell: Dict[str, Any], hop: Any) -> Dict[str, Any]:
    """``cell`` forwarded under ``hop``: the shard's hop becomes its child.

    The cell is returned unchanged while the hop is untraced.
    """
    if hop.span_id is None:
        return cell
    forwarded = dict(cell)
    forwarded["trace"] = tracing.wire_trace(hop.trace_id, hop.span_id)
    return forwarded


class Router:
    """Shard-picking request forwarder behind one service endpoint.

    ``handle_message`` is the transport hook — plug it into
    :func:`~repro.service.transport.make_server` and the router serves
    the full daemon protocol, plus the router-only ``route`` op (where
    would this cell go?) with no simulation side effects.
    """

    def __init__(self, shards: Sequence[Tuple[str, Union[str, Address]]],
                 retries: int = 2, backoff_s: float = 0.05,
                 health_interval_s: float = 0.5,
                 request_timeout_s: float = 600.0,
                 name: str = "router",
                 breaker_threshold: int = 3,
                 breaker_open_s: float = 2.0):
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        self.name = name
        self.retries = max(0, retries)
        self.backoff_s = backoff_s
        self.request_timeout_s = request_timeout_s
        self.breaker_threshold = breaker_threshold
        self.breaker_open_s = breaker_open_s
        from ..backends import RemoteBackend

        self._shards: Dict[str, ShardState] = {}
        for shard_name, address in shards:
            resolved = parse_address(address)
            self._shards[shard_name] = ShardState(
                name=shard_name, address=resolved,
                breaker=CircuitBreaker(failure_threshold=breaker_threshold,
                                       open_s=breaker_open_s),
                backend=RemoteBackend(resolved,
                                      timeout=request_timeout_s))
        self._lock = threading.Lock()
        self.routed = 0
        self.rerouted = 0
        self.forward_failures = 0
        self.unroutable = 0
        self._health_interval_s = health_interval_s
        self._stop = threading.Event()
        self._prober: Optional[threading.Thread] = None

    # -- health ------------------------------------------------------------

    def start_health_checks(self) -> None:
        """Run the background prober (idempotent)."""
        if self._prober is not None:
            return
        self._prober = threading.Thread(target=self._probe_loop,
                                        name=f"{self.name}-health",
                                        daemon=True)
        self._prober.start()

    def stop(self) -> None:
        self._stop.set()
        for shard in self._shards.values():
            if shard.backend is not None:
                shard.backend.close()

    def _probe_loop(self) -> None:
        while not self._stop.wait(self._health_interval_s):
            self.check_health()

    def check_health(self) -> Dict[str, bool]:
        """Ping every shard once; returns name -> alive."""
        results: Dict[str, bool] = {}
        for shard in list(self._shards.values()):
            # the backend's health hook probes on a one-shot socket, so
            # a slow in-flight batch can never fail the liveness check
            ok = shard.backend.healthy(timeout=2.0)
            with self._lock:
                shard.alive = ok
                if ok:
                    shard.last_seen = time.monotonic()
            _metrics.set_gauge("router_shard_alive", 1 if ok else 0,
                               shard=shard.name)
            self._note_breaker(shard)
            results[shard.name] = ok
        return results

    # -- routing -----------------------------------------------------------

    def shard_names(self) -> List[str]:
        return list(self._shards)

    def _cell_key(self, cell: Any) -> str:
        """The routing key of a wire cell.

        The cache content address when the cell has one — that is what
        makes coalescing and the per-shard outcome table line up
        cluster-wide.  Uncacheable cells fall back to a hash of their
        canonical wire form: stable, but private to the router.
        """
        key = cell_from_wire(cell).key()
        if key is not None:
            return key
        canonical = json.dumps(cell, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _demoted(self, ranked: Sequence[str]) -> List[ShardState]:
        """The shards in rendezvous order ``ranked``, bad shards demoted.

        Known-dead shards and shards whose breaker is open are demoted,
        not removed (a stale health verdict must not make a key
        unroutable) — they are tried last.  Half-open shards rank with
        healthy ones so the next forward can act as the probe.
        """
        def demotion(shard: ShardState) -> int:
            if not shard.alive:
                return 2
            return 1 if shard.breaker.state() == CircuitBreaker.OPEN else 0

        return sorted((self._shards[name] for name in ranked), key=demotion)

    def _note_breaker(self, shard: ShardState) -> None:
        """Publish a shard's breaker state to the metrics plane."""
        info = shard.breaker.as_dict()
        _metrics.set_gauge("router_breaker_state",
                           BREAKER_STATE_GAUGE[info["state"]],
                           shard=shard.name)
        delta = info["transitions"] - shard.breaker_transitions_emitted
        if delta > 0:
            _metrics.inc("router_breaker_transitions_total", amount=delta,
                         shard=shard.name)
            shard.breaker_transitions_emitted = info["transitions"]

    def _try_shard(self, shard: ShardState, home: str,
                   message: Dict[str, Any]
                   ) -> Tuple[Optional[Dict[str, Any]],
                              Optional[BaseException]]:
        """Contact one shard once; record the outcome everywhere."""
        t0 = time.perf_counter()
        try:
            response = shard.backend.forward(message)
        except (OSError, ValueError) as exc:
            with self._lock:
                self.forward_failures += 1
                shard.alive = False
                shard.failures += 1
                shard.last_error = f"{type(exc).__name__}: {exc}"
            shard.breaker.record_failure()
            _metrics.inc("router_forward_failures_total", shard=shard.name)
            _metrics.set_gauge("router_shard_alive", 0, shard=shard.name)
            self._note_breaker(shard)
            return None, exc
        with self._lock:
            shard.alive = True
            shard.last_seen = time.monotonic()
            shard.forwarded += 1
            self.routed += 1
            if shard.name != home:
                self.rerouted += 1
                _metrics.inc("router_reroutes_total")
        shard.breaker.record_success()
        _metrics.inc("router_forwards_total", shard=shard.name)
        _metrics.set_gauge("router_shard_alive", 1, shard=shard.name)
        self._note_breaker(shard)
        _metrics.observe("router_forward_seconds",
                         time.perf_counter() - t0)
        response.setdefault("shard", shard.name)
        return response, None

    def _forward(self, key: str, message: Dict[str, Any]
                 ) -> Dict[str, Any]:
        """Send one message to the key's shard, rerouting on failure.

        Tries the full fallback order, then backs off and repeats, up
        to ``retries`` extra passes; only when every pass exhausts
        every shard does the request fail (and then with a typed
        *pre-acceptance* error: nothing was lost).  Shards whose
        breaker disallows traffic (open, or a half-open probe already
        in flight) are deferred to the end of each pass: they are only
        contacted once every permitted shard has failed, so an open
        breaker can reorder but never strand a key.
        """
        last_error: Optional[BaseException] = None
        # the ranking is fixed per key; only the demotions can change
        # between passes
        ranked = rendezvous_order(key, list(self._shards))
        home = ranked[0]
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            deferred: List[ShardState] = []
            for shard in self._demoted(ranked):
                if not shard.breaker.allow():
                    deferred.append(shard)
                    continue
                response, exc = self._try_shard(shard, home, message)
                if response is not None:
                    return response
                last_error = exc
            for shard in deferred:  # last resort: everyone else failed
                response, exc = self._try_shard(shard, home, message)
                if response is not None:
                    return response
                last_error = exc
        with self._lock:
            self.unroutable += 1
        _metrics.inc("router_unroutable_total")
        raise ShardUnavailableError(
            f"no live shard for key {key[:12]}… after "
            f"{self.retries + 1} passes over {len(self._shards)} shards "
            f"(last error: {last_error})")

    # -- protocol ----------------------------------------------------------

    def handle_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one decoded request (the transport hook)."""
        op = message.get("op")
        try:
            if op == "ping":
                return {"status": "ok", "op": "ping",
                        "protocol": PROTOCOL_VERSION,
                        "session": self.name, "router": True,
                        "shards": len(self._shards)}
            if op == "stats":
                return self._stats_response()
            if op == "metrics":
                return self._metrics_response(message)
            if op == "route":
                return self._route_response(message)
            if op == "submit":
                cell = message.get("cell")
                key = self._cell_key(cell)
                trace_id, parent = tracing.trace_from_cell(cell)
                if trace_id is None:
                    return self._forward(key, {"op": "submit", "cell": cell})
                with tracing.context(trace_id, parent), \
                        span("router_forward", router=self.name) as hop:
                    response = self._forward(key, {
                        "op": "submit", "cell": _reparent(cell, hop)})
                    hop.note(shard=response.get("shard"))
                return response
            if op == "batch":
                return self._batch_response(message)
            if op in ("drain", "shutdown"):
                return self._fanout_response(op)
            raise ProtocolError(f"unknown op {op!r}")
        except BaseException as exc:
            if isinstance(exc, ReproError):
                wire = exc.to_wire()
            else:
                wire = {"status": "error", "code": error_code(exc),
                        "message": f"{type(exc).__name__}: {exc}"}
            wire["op"] = op
            return wire

    def _route_response(self, message: Dict[str, Any]) -> Dict[str, Any]:
        key = self._cell_key(message.get("cell"))
        order = rendezvous_order(key, list(self._shards))
        return {"status": "ok", "op": "route", "key": key,
                "shard": order[0],
                "fallbacks": order[1:],
                "alive": {name: self._shards[name].alive
                          for name in order}}

    def _batch_response(self, message: Dict[str, Any]) -> Dict[str, Any]:
        cells = message.get("cells")
        if not isinstance(cells, list) or not cells:
            raise ProtocolError("'cells' must be a non-empty list")
        # group by home shard so per-shard sub-batches keep the
        # session-side batching/coalescing win, then forward the
        # sub-batches concurrently and reassemble in request order
        groups: Dict[str, List[int]] = {}
        keys: List[str] = []
        for index, cell in enumerate(cells):
            try:
                key = self._cell_key(cell)
            except ReproError as exc:
                keys.append("")
                groups.setdefault("", []).append(index)
                cells[index] = exc  # malformed: answer without routing
                continue
            keys.append(key)
            home = shard_for_key(key, list(self._shards))
            groups.setdefault(home, []).append(index)
        results: List[Optional[Dict[str, Any]]] = [None] * len(cells)

        def forward_group(indices: List[int]) -> None:
            bad = [i for i in indices if isinstance(cells[i], ReproError)]
            for i in bad:
                wire = cells[i].to_wire()
                wire["op"] = "submit"
                results[i] = wire
            good = [i for i in indices if i not in bad]
            if not good:
                return
            sub_cells = []
            hops = []
            for i in good:
                cell = cells[i]
                trace_id, parent = tracing.trace_from_cell(cell)
                if trace_id is not None:
                    with tracing.context(trace_id, parent):
                        hop = span("router_forward", router=self.name,
                                   op="batch")
                    hops.append(hop)
                    cell = _reparent(cell, hop)
                sub_cells.append(cell)
            sub = {"op": "batch", "cells": sub_cells}

            def close_hops(**attrs: Any) -> None:
                for hop in hops:
                    hop.note(**attrs)
                    hop.end()

            try:
                response = self._forward(keys[good[0]], sub)
            except ReproError as exc:
                close_hops(error=exc.code)
                for i in good:
                    results[i] = exc.to_wire()
                return
            answers = response.get("results", [])
            shard = response.get("shard")
            close_hops(shard=shard)
            for slot, i in enumerate(good):
                if slot < len(answers):
                    answer = dict(answers[slot])
                    if shard is not None:
                        answer.setdefault("shard", shard)
                    results[i] = answer
                else:  # a short reply is a shard bug; keep it visible
                    results[i] = {"status": "error", "code": "internal",
                                  "message": "shard returned a short "
                                             "batch reply"}

        threads = [threading.Thread(target=forward_group, args=(idx,),
                                    daemon=True)
                   for idx in groups.values()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {"status": "ok", "op": "batch", "results": results}

    def _metrics_response(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Cluster-wide metrics: scrape every shard, merge with ours.

        Side-effect free, and resilient by construction: a dead or
        misbehaving shard contributes an ``error`` entry instead of
        failing the scrape, so dashboards keep rendering through
        partial outages.
        """
        local = metrics_response({})
        per_shard: Dict[str, Any] = {}
        snapshots = [local["metrics"]]
        for shard in self._shards.values():
            try:
                response = request(shard.address, {"op": "metrics"},
                                   timeout=5.0)
            except (OSError, ValueError) as exc:
                per_shard[shard.name] = {
                    "error": f"{type(exc).__name__}: {exc}"}
                continue
            snap = response.get("metrics") if isinstance(response, dict) \
                else None
            if response.get("status") != "ok" or not isinstance(snap, dict):
                per_shard[shard.name] = {
                    "error": "malformed metrics reply "
                             f"(status={response.get('status')!r})"}
                continue
            per_shard[shard.name] = {"metrics": snap}
            snapshots.append(snap)
        merged = _metrics.merge_snapshots(snapshots)
        reply: Dict[str, Any] = {"status": "ok", "op": "metrics",
                                 "router": True, "session": self.name,
                                 "metrics": merged,
                                 "shards": per_shard,
                                 "enabled": local.get("enabled", False)}
        if message.get("format") == "text":
            reply["text"] = _metrics.to_prometheus(merged)
        return reply

    def _stats_response(self) -> Dict[str, Any]:
        per_shard: Dict[str, Any] = {}
        totals: Dict[str, float] = {}
        gauges_by_shard: Dict[str, Dict[str, Any]] = {}
        for shard in self._shards.values():
            entry = shard.as_dict()
            try:
                response = request(shard.address, {"op": "stats"},
                                   timeout=5.0)
            except (OSError, ValueError) as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
                with self._lock:
                    shard.alive = False
                per_shard[shard.name] = entry
                continue
            with self._lock:
                shard.alive = True
            entry["stats"] = response.get("stats", {})
            entry["gauges"] = response.get("gauges", {})
            gauges_by_shard[shard.name] = entry["gauges"]
            for field_name, value in entry["stats"].items():
                if isinstance(value, (int, float)):
                    totals[field_name] = totals.get(field_name, 0) + value
            per_shard[shard.name] = entry
        lookups = (totals.get("coalesced", 0) + totals.get("cache_hits", 0)
                   + totals.get("accepted", 0))
        coalesce_rate = round(totals.get("coalesced", 0) / lookups, 6) \
            if lookups else 0.0
        return {"status": "ok", "op": "stats", "router": True,
                "stats": totals,
                "gauges": self.cluster_gauges(totals),
                "cluster": {"shards": per_shard,
                            "coalesce_rate": coalesce_rate,
                            "routed": self.routed,
                            "rerouted": self.rerouted,
                            "forward_failures": self.forward_failures,
                            "unroutable": self.unroutable,
                            "breakers": self.breaker_states()}}

    def breaker_states(self) -> Dict[str, str]:
        """Current breaker state per shard (for status displays)."""
        return {name: shard.breaker.state()
                for name, shard in self._shards.items()}

    def cluster_gauges(self, totals: Optional[Dict[str, float]] = None
                       ) -> Dict[str, float]:
        """Cluster-wide gauges in the ledger's ``service_*`` shape."""
        if totals is None:
            totals = {}
            for shard in self._shards.values():
                try:
                    response = request(shard.address, {"op": "stats"},
                                       timeout=5.0)
                except (OSError, ValueError):
                    continue
                for field_name, value in response.get("stats",
                                                      {}).items():
                    if isinstance(value, (int, float)):
                        totals[field_name] = \
                            totals.get(field_name, 0) + value
        lookups = (totals.get("coalesced", 0) + totals.get("cache_hits", 0)
                   + totals.get("accepted", 0))
        return {
            "service_coalesce_hits": totals.get("coalesced", 0),
            "service_cache_hits": totals.get("cache_hits", 0),
            "service_rejected": totals.get("rejected", 0),
            "service_coalesce_rate":
                round(totals.get("coalesced", 0) / lookups, 6)
                if lookups else 0.0,
            "cluster_shards": len(self._shards),
            "cluster_shards_alive": sum(
                1 for s in self._shards.values() if s.alive),
            "cluster_routed": self.routed,
            "cluster_rerouted": self.rerouted,
            "cluster_forward_failures": self.forward_failures,
            "cluster_breakers_open": sum(
                1 for s in self._shards.values()
                if s.breaker.state() != CircuitBreaker.CLOSED),
        }

    def _fanout_response(self, op: str) -> Dict[str, Any]:
        """Forward drain/shutdown to every shard; never partial-fail."""
        shards: Dict[str, Any] = {}
        ok = True
        for shard in self._shards.values():
            try:
                response = request(shard.address, {"op": op},
                                   timeout=self.request_timeout_s)
                shards[shard.name] = response.get("status")
            except (OSError, ValueError) as exc:
                shards[shard.name] = f"unreachable: {exc}"
                # an unreachable shard fails a drain (work may be lost
                # from the caller's view) but not a shutdown — "down"
                # is already that shard's goal state
                if op == "drain":
                    ok = False
                with self._lock:
                    shard.alive = False
        if op == "shutdown":
            self.stop()
        return {"status": "ok" if ok else "error", "op": op,
                "shards": shards,
                "gauges": self.cluster_gauges() if op == "drain" else
                {"cluster_routed": self.routed,
                 "cluster_rerouted": self.rerouted}}

    def snapshot(self) -> Dict[str, Any]:
        """Router-local state (no shard round-trips) for status/ledger."""
        with self._lock:
            return {"name": self.name,
                    "routed": self.routed,
                    "rerouted": self.rerouted,
                    "forward_failures": self.forward_failures,
                    "unroutable": self.unroutable,
                    "shards": [s.as_dict()
                               for s in self._shards.values()]}
