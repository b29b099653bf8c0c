"""Append-only run ledger: one structured record per instrumented run.

Every recorded ``repro-bench`` / ``repro-prof`` invocation appends one
JSON object (a single line) to ``.repro/ledger/ledger.jsonl``: run id,
git SHA, model fingerprint, config and machine hashes, per-target wall
times with cache traffic, executor pool utilization, per-table fidelity
scores, aggregated spans, and the trace-drop tally.  The history and
regression-gate commands (:mod:`repro.telemetry.history`,
:mod:`repro.telemetry.regress`) are pure readers of this file.

Recording is **opt-in**: nothing is written unless the CLI was passed
``--ledger``/``--ledger-dir`` or the environment sets
``REPRO_LEDGER=1`` / ``REPRO_LEDGER_DIR``.  Corrupt (torn) lines are
skipped on read, so a crashed writer never poisons the history.
"""

from __future__ import annotations

import itertools
import json
import hashlib
import os
import platform
import subprocess
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .tracing import active_recorder, set_recorder

__all__ = [
    "LEDGER_SCHEMA",
    "RunRecorder",
    "append",
    "env_configured",
    "git_sha",
    "hit_rate",
    "ledger_dir",
    "ledger_path",
    "machine_info",
    "read_records",
    "repair",
    "scan",
]

#: bump when the record layout changes incompatibly
LEDGER_SCHEMA = 1

#: default location, relative to the invocation directory
DEFAULT_DIR = Path(".repro") / "ledger"

LEDGER_NAME = "ledger.jsonl"

_RUN_COUNTER = itertools.count()


def env_configured() -> bool:
    """Whether the environment opts this process into recording."""
    if os.environ.get("REPRO_LEDGER_DIR"):
        return True
    return os.environ.get("REPRO_LEDGER", "") in ("1", "true")


def ledger_dir(override: Optional[os.PathLike] = None) -> Path:
    """Resolve the ledger directory: argument, environment, default."""
    if override:
        return Path(override).expanduser()
    env = os.environ.get("REPRO_LEDGER_DIR")
    if env:
        return Path(env).expanduser()
    return DEFAULT_DIR


def ledger_path(override: Optional[os.PathLike] = None) -> Path:
    return ledger_dir(override) / LEDGER_NAME


def append(record: Dict[str, Any],
           directory: Optional[os.PathLike] = None) -> Path:
    """Append one record as a single JSONL line; returns the file path."""
    path = ledger_path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "a+") as handle:
        # A crashed writer can leave a torn line without a newline; start
        # this record on a fresh line so only the torn one is lost.
        handle.seek(0, os.SEEK_END)
        if handle.tell() > 0:
            handle.seek(handle.tell() - 1)
            if handle.read(1) != "\n":
                handle.write("\n")
        handle.write(line + "\n")
    return path


def read_records(directory: Optional[os.PathLike] = None
                 ) -> List[Dict[str, Any]]:
    """All parseable records, oldest first (torn lines are skipped)."""
    path = ledger_path(directory)
    try:
        text = path.read_text()
    except OSError:
        return []
    records: List[Dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def scan(directory: Optional[os.PathLike] = None) -> Dict[str, Any]:
    """Health-check the ledger file without modifying it.

    Returns a summary dict: total line count, parseable record count,
    and the 1-based line numbers of torn (unparseable) lines.  A
    missing ledger scans clean with zero lines.
    """
    path = ledger_path(directory)
    summary: Dict[str, Any] = {"path": str(path), "lines": 0,
                               "records": 0, "torn_lines": []}
    try:
        text = path.read_text()
    except OSError:
        return summary
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        summary["lines"] += 1
        try:
            record = json.loads(stripped)
        except ValueError:
            summary["torn_lines"].append(lineno)
            continue
        if isinstance(record, dict):
            summary["records"] += 1
        else:
            summary["torn_lines"].append(lineno)
    return summary


def repair(directory: Optional[os.PathLike] = None) -> Dict[str, Any]:
    """Rewrite the ledger keeping only parseable records.

    The original file is preserved as ``ledger.jsonl.bak`` and the
    clean copy lands atomically (temp file + ``os.replace``), so a
    crash mid-repair can never lose the healthy records.  Returns the
    :func:`scan` summary from before the rewrite plus a ``"repaired"``
    flag (False when there was nothing to fix).
    """
    summary = scan(directory)
    summary["repaired"] = False
    if not summary["torn_lines"]:
        return summary
    path = ledger_path(directory)
    text = path.read_text()
    kept = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except ValueError:
            continue
        if isinstance(record, dict):
            kept.append(json.dumps(record, sort_keys=True,
                                   separators=(",", ":")))
    backup = path.with_suffix(path.suffix + ".bak")
    backup.write_text(text)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("".join(line + "\n" for line in kept))
    os.replace(tmp, path)
    summary["repaired"] = True
    summary["backup"] = str(backup)
    return summary


def hit_rate(record: Dict[str, Any]) -> Optional[float]:
    """Cache hit fraction of one record, or None without cache data."""
    cache = record.get("cache") or {}
    hits = cache.get("memory_hits", 0) + cache.get("disk_hits", 0)
    lookups = hits + cache.get("misses", 0)
    if lookups <= 0:
        return None
    return hits / lookups


def git_sha() -> Optional[str]:
    """The repository HEAD commit, or None outside a usable checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def machine_info() -> Dict[str, Any]:
    """Where this run happened (folded into the machine hash)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def _hash(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _new_run_id() -> str:
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    return f"{stamp}-{os.getpid()}-{next(_RUN_COUNTER)}"


class RunRecorder:
    """Collects one run's telemetry and builds its ledger record.

    Lifecycle: ``start()`` installs the recorder as the process-wide
    span sink, ``stop()`` freezes the elapsed time and uninstalls it,
    ``finish(**fields)`` returns the final record dict.  ``extra`` is a
    scratch dict instrumented code may attach payloads to (e.g. the
    profiler's derived metrics).
    """

    #: cap on per-request trace spans kept in memory (see record_trace_span)
    TRACE_SPAN_LIMIT = 4096

    def __init__(self, tool: str, argv: Optional[List[str]] = None):
        self.tool = tool
        self.argv = list(argv) if argv is not None else None
        self.started_at: Optional[str] = None
        self.elapsed_s: Optional[float] = None
        self.spans: Dict[str, Dict[str, Any]] = {}
        self.trace_spans: List[Dict[str, Any]] = []
        self.trace_spans_dropped = 0
        self.extra: Dict[str, Any] = {}
        self._t0: Optional[float] = None
        self._trace_lock = threading.Lock()

    def start(self) -> "RunRecorder":
        self.started_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self._t0 = time.perf_counter()
        set_recorder(self)
        return self

    def stop(self) -> None:
        if self._t0 is not None and self.elapsed_s is None:
            self.elapsed_s = time.perf_counter() - self._t0
        if active_recorder() is self:
            set_recorder(None)

    def record_span(self, name: str, elapsed: float,
                    attrs: Dict[str, Any]) -> None:
        """Aggregate one finished span (called by :func:`~.tracing.span`)."""
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = {"count": 0, "total_s": 0.0,
                                        "max_s": 0.0}
        entry["count"] += 1
        entry["total_s"] += elapsed
        entry["max_s"] = max(entry["max_s"], elapsed)
        for key, value in attrs.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                entry[key] = value  # descriptive attribute: keep latest
            else:
                entry[key] = entry.get(key, 0) + value  # counter: sum

    def record_trace_span(self, name: str, trace_id: str, span_id: str,
                          parent_span: Optional[str], t0: float, dur_s: float,
                          attrs: Optional[Dict[str, Any]] = None) -> None:
        """Keep one per-request trace span (a traced :func:`~.tracing.span`).

        Unlike :meth:`record_span`'s lossy aggregation, trace spans keep
        per-occurrence identity (``count`` is 1) so a request can be
        reconstructed hop by hop.  Past :attr:`TRACE_SPAN_LIMIT` the
        recorder aggregates into an existing same-shaped span (bumping
        its ``count`` and summing ``dur_s``) instead of growing without
        bound; spans with no aggregation target count as dropped.
        """
        entry: Dict[str, Any] = {"name": name, "trace": trace_id,
                                 "span": span_id, "parent": parent_span,
                                 "tool": self.tool, "t0": round(t0, 6),
                                 "dur_s": round(dur_s, 6), "count": 1}
        if attrs:
            entry["attrs"] = dict(attrs)
        with self._trace_lock:
            if len(self.trace_spans) < self.TRACE_SPAN_LIMIT:
                self.trace_spans.append(entry)
                return
            for kept in reversed(self.trace_spans):
                if (kept["name"] == name and kept["trace"] == trace_id
                        and kept.get("parent") == parent_span):
                    kept["count"] += 1
                    kept["dur_s"] = round(kept["dur_s"] + dur_s, 6)
                    return
            self.trace_spans_dropped += 1

    def finish(self, config: Optional[Dict[str, Any]] = None,
               **fields: Any) -> Dict[str, Any]:
        """Stop the recorder and build the ledger record."""
        self.stop()
        from ..core.cache import model_fingerprint

        machine = machine_info()
        config = dict(config or {})
        record: Dict[str, Any] = {
            "schema": LEDGER_SCHEMA,
            "run_id": _new_run_id(),
            "tool": self.tool,
            "started_at": self.started_at,
            "elapsed_s": round(self.elapsed_s or 0.0, 6),
            "argv": self.argv,
            "git_sha": git_sha(),
            "model_fingerprint": model_fingerprint()[:16],
            "machine": machine,
            "machine_hash": _hash(machine),
            "config": config,
            "config_hash": _hash(config),
            "spans": {name: {k: (round(v, 6) if isinstance(v, float) else v)
                             for k, v in entry.items()}
                      for name, entry in self.spans.items()},
        }
        if self.extra:
            record["extra"] = dict(self.extra)
        if self.trace_spans:
            record["trace_spans"] = list(self.trace_spans)
        if self.trace_spans_dropped:
            record["trace_spans_dropped"] = self.trace_spans_dropped
        record.update(fields)
        return record
