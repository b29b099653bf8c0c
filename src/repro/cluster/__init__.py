"""``repro.cluster`` — sharded multi-daemon serving behind one router.

The scale-out layer over :mod:`repro.service`: N serve daemons
("shards"), each wrapping its own :class:`~repro.service.Session` and
sharing one content-addressed disk cache, behind a thin
:class:`~.router.Router` that picks shards by rendezvous-hashing the
request's cache content address — so request coalescing and the
two-tier cache keep working cluster-wide.  :mod:`~.manager` is the
``repro-bench cluster up/route/status/down`` CLI; :mod:`~.replay` is
the traffic-replay load generator (``repro-bench replay``) that proves
the latency/throughput/coalescing story against recorded traffic.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".router": (
        "CircuitBreaker", "Router", "ShardState", "rendezvous_order",
        "shard_for_key",
    ),
    ".replay": (
        "load_trace", "percentile", "run_replay", "trace_from_ledger",
    ),
    ".supervisor": ("ShardSpec", "ShardSupervisor"),
})
