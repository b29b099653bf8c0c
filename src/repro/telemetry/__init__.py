"""Structured telemetry: run ledger, spans and traces, and metrics.

Four layers, all zero-overhead until a CLI opts in:

* :mod:`~repro.telemetry.log` — the ``repro.*`` stdlib-logging
  hierarchy (``--verbose``/``--quiet`` map onto it);
* :mod:`~repro.telemetry.tracing` — the one ``span("sweep", ...)``
  primitive: it aggregates into the active run's record, or, under a
  trace context carried across router/shard/session/executor hops,
  records an id-carrying hop that ``repro-bench trace`` exports; it
  also feeds a metrics histogram when given one;
* :mod:`~repro.telemetry.metrics` — the live counters/gauges/histogram
  registry behind the ``{"op": "metrics"}`` protocol op and
  ``repro-bench top``;
* :mod:`~repro.telemetry.ledger` — one append-only JSONL record per
  instrumented ``repro-bench``/``repro-prof`` invocation, consumed by
  ``repro-bench history`` (:mod:`~repro.telemetry.history`) and the
  regression gate ``repro-bench regress``
  (:mod:`~repro.telemetry.regress`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".ledger": (
        "RunRecorder", "append", "env_configured", "hit_rate", "ledger_dir",
        "ledger_path", "read_records",
    ),
    ".log": ("configure_logging", "get_logger"),
    ".tracing": ("active_recorder", "set_recorder", "span"),
}, submodules=(
    "metrics", "tracing",
))
