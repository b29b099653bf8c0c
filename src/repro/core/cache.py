"""Content-addressed result cache for deterministic experiment cells.

Every cell (:class:`~repro.core.parallel.JobRequest`) is deterministic
by construction (DESIGN.md): the outcome is a pure function of the
machine spec, the workload parameters, the resolved affinity, the MPI
implementation, the lock sub-layer, and the parked-process count.
That makes each cell safe to memoize under a *content-addressed* key —
a SHA-256 over the canonical form of exactly those inputs — rather
than an ad-hoc name.

Two tiers:

* an in-process dictionary (shared across every table/figure generator
  of one ``repro-bench`` invocation, so sweeps that project different
  columns out of the same runs never recompute);
* a file per result under ``~/.cache/repro-bench/`` (override with
  ``REPRO_BENCH_CACHE_DIR``), so *reruns* of the bench pipeline are
  served from disk.

Disk entries are schema-3 :mod:`repro.wire` framed binary (leading
``RW`` magic); anything else at a key's path is treated like a torn
entry — quarantined and recomputed.  The storage format is *not* part
of the content address — keys hash their own layout
(:data:`CACHE_SCHEMA`) — and the per-entry checksum is computed over
the canonical JSON form of the result.  No migration between formats
is ever needed: the model fingerprint below changes with every source
edit, so entries written by older code are never looked up again.

Keys additionally fold in a **model fingerprint** — a hash over the
source of every non-bench ``repro`` module — so editing the simulator
invalidates stale results automatically instead of silently replaying
them.  Floats survive the binary round trip bit for bit, which is what
lets cached results stay bit-identical to freshly computed ones.

Set ``REPRO_BENCH_NO_CACHE=1`` (or call ``configure(enabled=False)``,
or pass ``--no-cache`` to ``repro-bench``) to disable both tiers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..telemetry import metrics as _metrics
from ..wire import frames as _frames
from .execution import JobResult

__all__ = [
    "CACHE_SCHEMA",
    "CACHE_STORE_SCHEMA",
    "CacheStats",
    "ResultCache",
    "Uncacheable",
    "canonical_token",
    "configure",
    "default_cache",
    "job_key",
    "model_fingerprint",
    "parse_entry",
    "result_checksum",
]

#: bump when the key layout or the *logical* entry schema changes;
#: folded into every content address, so bumping it invalidates the
#: whole cache — which is why the storage format below is a separate
#: number
CACHE_SCHEMA = 2
#: the framed-binary *storage* format, checked on every read (never
#: part of the key payload: how an entry is spelled on disk must not
#: change its address)
CACHE_STORE_SCHEMA = 3

_LOG = logging.getLogger("repro.core.cache")


class Uncacheable(TypeError):
    """An experiment input that has no canonical content representation."""


def canonical_token(obj: Any) -> Any:
    """A canonical, JSON-serializable form of one experiment input.

    Handles primitives, enums, (nested) dataclasses, containers, and
    plain objects via their public ``__dict__`` (the workload classes).
    Raises :class:`Uncacheable` for anything else — notably closures —
    so callers can fall back to running uncached instead of hashing an
    unstable ``repr``.

    The common exact types are dispatched first, and each dataclass's
    field names are looked up once per class; everything else (and the
    first instance of every dataclass) takes :func:`_general_token`,
    which defines the form.
    """
    kind = type(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is float:
        return ["f", repr(obj)]
    if kind is list or kind is tuple:
        return ["seq", [canonical_token(v) for v in obj]]
    names = _DATACLASS_FIELDS.get(kind)
    if names is not None:
        return ["dc", kind.__name__,
                [[name, canonical_token(getattr(obj, name))]
                 for name in names]]
    if kind is dict:
        return ["map", sorted(
            [str(k), canonical_token(v)] for k, v in obj.items()
        )]
    return _general_token(obj)


#: field names of every dataclass :func:`canonical_token` has met, by
#: exact class (``dataclasses.fields`` is slow enough to dominate keys)
_DATACLASS_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _general_token(obj: Any) -> Any:
    """:func:`canonical_token` by ``isinstance``, subclasses included."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, Enum):
        return ["enum", type(obj).__name__, canonical_token(obj.value)]
    if is_dataclass(obj) and not isinstance(obj, type):
        names = tuple(f.name for f in fields(obj))
        _DATACLASS_FIELDS[type(obj)] = names
        return ["dc", type(obj).__name__,
                [[name, canonical_token(getattr(obj, name))]
                 for name in names]]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonical_token(v) for v in obj]]
    if isinstance(obj, dict):
        return ["map", sorted(
            [str(k), canonical_token(v)] for k, v in obj.items()
        )]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(json.dumps(canonical_token(v), sort_keys=True)
                              for v in obj)]
    if hasattr(obj, "item") and callable(obj.item) and hasattr(obj, "dtype"):
        return canonical_token(obj.item())  # numpy scalar
    if callable(obj):
        # Functions/closures carry behaviour, not content: a key built
        # from their (usually empty) __dict__ would collide.
        raise Uncacheable(f"cannot canonicalize callable {obj!r}")
    if hasattr(obj, "__dict__"):
        state = {k: v for k, v in vars(obj).items() if not k.startswith("_")}
        return ["obj", type(obj).__name__, canonical_token(state)]
    raise Uncacheable(f"cannot canonicalize {type(obj).__name__} instance")


_FINGERPRINT: Optional[str] = None


def model_fingerprint() -> str:
    """Hash of every non-bench ``repro`` source file (computed once).

    Folding this into every cache key means a change to the simulator —
    a new contention formula, a recalibrated constant — invalidates all
    previously stored results without anyone having to remember a
    version bump.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            if rel.parts[0] == "bench":
                continue  # projections of results, not inputs to them
            digest.update(str(rel).encode())
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def job_key(spec, workload, scheme=None, affinity=None, impl=None,
            lock: Optional[str] = None, parked: int = 0,
            profile: bool = False, faults=None,
            tier: Optional[str] = None) -> str:
    """The content address of one experiment cell.

    Exactly one of ``scheme`` / ``affinity`` describes the placement;
    ``affinity`` (a :class:`ResolvedAffinity`) wins when both are given,
    mirroring the runner.  Raises :class:`Uncacheable` when any input
    has no canonical form.

    ``profile`` and ``faults`` fold into the key *only when enabled*:
    profiled results carry counter payloads and fault-injected results
    describe a degraded machine, so both must live under distinct
    addresses, while the disabled path keeps the exact key layout (and
    therefore warm disk-cache hits) of plain runs.  ``tier`` follows the
    same pattern: only the resolved ``"fast"`` tier marks the key —
    analytic answers must never collide with exact ones — while
    ``"exact"`` (and ``auto`` cells that fell back to exact) keeps the
    plain-run address byte-identical.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "model": model_fingerprint(),
        "system": spec.cache_token(),
        "workload": canonical_token(workload),
        "scheme": None if affinity is not None else canonical_token(scheme),
        "affinity": canonical_token(affinity),
        "impl": canonical_token(impl),
        "lock": lock,
        "parked": parked,
    }
    if profile:
        payload["profile"] = True
    if faults:
        payload["faults"] = canonical_token(faults)
    if tier == "fast":
        payload["tier"] = "fast"
    elif tier not in (None, "exact"):
        raise Uncacheable(f"tier must be resolved to fast/exact, got {tier!r}")
    return hashlib.sha256(_CANONICAL_JSON.encode(payload).encode()).hexdigest()


#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, built once;
#: keys and checksums encode freshly built trees, which cannot be
#: circular, so the cycle check (about a third of the encoding time) is
#: off without changing a byte
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                   check_circular=False)


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    #: disk entries that failed to parse or verify and were quarantined
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {"memory_hits": self.memory_hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "stores": self.stores,
                "corrupt": self.corrupt}

    def __str__(self) -> str:
        text = (f"{self.lookups} lookups: {self.memory_hits} memory hits, "
                f"{self.disk_hits} disk hits, {self.misses} misses, "
                f"{self.stores} stores")
        if self.corrupt:
            text += f", {self.corrupt} corrupt entries quarantined"
        return text


def _default_directory() -> Path:
    env = os.environ.get("REPRO_BENCH_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "repro-bench"


def result_checksum(result_data: Dict) -> str:
    """SHA-256 over the canonical JSON form of one stored result.

    Stored next to the result so reads can tell *torn or bit-rotted*
    entries apart from entries that simply never existed.
    """
    return hashlib.sha256(_CANONICAL_JSON.encode(result_data).encode()
                          ).hexdigest()


def parse_entry(raw: bytes) -> Dict:
    """Decode and verify one schema-3 disk entry.

    An entry is one framed binary message.  Returns the entry dict
    (``schema``/``check``/``result``) after verifying the schema number
    and the result checksum; raises :class:`ValueError` (or a subclass
    — frame errors are :class:`~repro.errors.ProtocolError`) on
    anything malformed, torn, bit-rotted or in another format.
    """
    data, end = _frames.unpack_frames(raw)
    if end != len(raw):
        raise ValueError(
            f"{len(raw) - end} trailing byte(s) after cache entry")
    if not isinstance(data, dict):
        raise ValueError("cache entry is not an object")
    if data.get("schema") != CACHE_STORE_SCHEMA:
        raise ValueError(f"cache schema {data.get('schema')!r}, "
                         f"expected {CACHE_STORE_SCHEMA}")
    if data.get("check") != result_checksum(data["result"]):
        raise ValueError("cache checksum mismatch")
    return data


#: per-process sequence of temp-file names (``next`` is atomic under
#: the GIL, so threads never share one)
_TEMP_SEQ = itertools.count()


def _create_temp(path: Path) -> Tuple[Path, int]:
    """A new, exclusively created temp file next to ``path``.

    The name (pid and a per-process sequence number) is unique among
    live writers; ``O_EXCL`` makes a collision with a dead writer's
    leftover a retry, never a shared file.  The shard directory is
    made only when the first create in it finds it missing, not once
    per store.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    while True:
        tmp = path.with_name(f"{path.name}.{os.getpid()}."
                             f"{next(_TEMP_SEQ)}.tmp")
        try:
            return tmp, os.open(tmp, flags, 0o600)
        except FileExistsError:
            continue
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            return tmp, os.open(tmp, flags, 0o600)


class ResultCache:
    """Two-tier (memory + on-disk) store of :class:`JobResult`.

    Disk entries are written in the schema-3 framed binary format.

    Disk writes are atomic (temp file + ``os.replace``, no fsync), so
    concurrent writers — the parallel sweep executor's workers — can
    race on the same key without corrupting it: every writer produces
    identical bytes for a given content address.  Durability rests on
    the checksum every entry carries over its result payload: a read
    that finds a torn, empty or bit-rotted entry **quarantines** it
    (renames it to ``*.corrupt``), counts it in
    :attr:`CacheStats.corrupt`, and reports a miss so the deterministic
    cell is recomputed and the entry rewritten cleanly.
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 enabled: bool = True, disk: bool = True):
        self.directory = Path(directory) if directory else _default_directory()
        self.enabled = enabled
        self.disk = disk
        self.stats = CacheStats()
        self._memory: Dict[str, JobResult] = {}
        self._disk_warned = False

    # -- paths ----------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    # -- tiers ----------------------------------------------------------

    def get(self, key: str) -> Optional[JobResult]:
        """The stored result for ``key``, promoting disk hits to memory.

        Disk entries are verified against their stored checksum; a
        mismatch (or an unparseable file) is quarantined and reported
        as a miss so the cell recomputes.
        """
        if not self.enabled:
            return None
        hit = self._memory.get(key)
        if hit is not None:
            self.stats.memory_hits += 1
            _metrics.inc("cache_memory_hits_total")
            return hit
        if self.disk:
            path = self._path(key)
            exists = path.exists()
            try:
                data = parse_entry(path.read_bytes())
                result = JobResult.from_dict(data["result"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                if exists:
                    self._quarantine(path, exc)
            else:
                self._memory[key] = result
                self.stats.disk_hits += 1
                _metrics.inc("cache_disk_hits_total")
                return result
        self.stats.misses += 1
        _metrics.inc("cache_misses_total")
        return None

    def _quarantine(self, path: Path, reason: Exception) -> None:
        """Move a bad entry aside so the key recomputes cleanly.

        The quarantined copy is kept (``<key>.json.corrupt``) for
        ``repro-bench doctor`` to inspect or sweep; renaming rather than
        deleting also means a concurrent healthy writer to the same key
        is never raced against a delete of its fresh entry.
        """
        self.stats.corrupt += 1
        _metrics.inc("cache_corrupt_total")
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass  # a vanished entry needs no quarantine
        _LOG.warning("quarantined corrupt cache entry %s (%s); "
                     "the cell will recompute", path.name, reason)

    def put(self, key: str, result: JobResult) -> None:
        """Store ``result`` in both tiers."""
        if not self.enabled:
            return
        self._memory[key] = result
        self.stats.stores += 1
        _metrics.inc("cache_stores_total")
        if not self.disk:
            return
        path = self._path(key)
        try:
            result_data = result.to_dict()
            check = result_checksum(result_data)
            payload = _frames.pack_frames(
                {"schema": CACHE_STORE_SCHEMA, "check": check,
                 "result": result_data})
            _metrics.inc("cache_disk_write_bytes_total", len(payload))
            tmp, fd = _create_temp(path)
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # a read-only cache directory degrades to memory-only
            if not self._disk_warned:
                self._disk_warned = True
                _LOG.warning("result cache disk writes under %s failing; "
                             "continuing memory-only", self.directory)

    def clear_memory(self) -> None:
        """Drop the in-process tier (disk entries stay)."""
        self._memory.clear()

    def disk_usage(self) -> Dict[str, int]:
        """Entry count and byte size of the disk tier (best effort).

        Walks the cache directory, so call it at run boundaries (the
        ledger does), not in hot paths.
        """
        entries = 0
        size = 0
        try:
            for path in self.directory.rglob("*.json"):
                entries += 1
                size += path.stat().st_size
        except OSError:
            pass
        return {"entries": entries, "bytes": size}


_DEFAULT: Optional[ResultCache] = None


def default_cache() -> ResultCache:
    """The process-wide cache (built lazily from the environment)."""
    global _DEFAULT
    if _DEFAULT is None:
        enabled = os.environ.get("REPRO_BENCH_NO_CACHE", "") not in ("1", "true")
        _DEFAULT = ResultCache(enabled=enabled)
        _LOG.debug("result cache at %s (enabled=%s)",
                   _DEFAULT.directory, enabled)
    return _DEFAULT


def configure(enabled: Optional[bool] = None,
              directory: Optional[os.PathLike] = None,
              disk: Optional[bool] = None) -> ResultCache:
    """Reconfigure the process-wide cache in place and return it."""
    cache = default_cache()
    if enabled is not None:
        cache.enabled = enabled
    if directory is not None:
        cache.directory = Path(directory)
        cache.clear_memory()
    if disk is not None:
        cache.disk = disk
    return cache
