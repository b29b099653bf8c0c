"""Content addresses against a frozen reference implementation.

:func:`repro.core.cache.canonical_token` dispatches on exact types and
remembers each dataclass's field names, and :meth:`JobRequest.key`
memoizes on the instance; both exist for speed alone.  The reference
below is the straightforward ``isinstance`` chain that defined the
token format, plus the ``json.dumps`` key it hashed.  Every cell
behind ``repro-bench`` and a set of awkward inputs must get the same
token and the same key from both, so a cached result never moves to a
new address.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum, IntEnum

import pytest

from repro.bench import ablations, extensions, figures, tables
from repro.core import AffinityScheme
from repro.core import parallel
from repro.core.cache import (
    CACHE_SCHEMA,
    Uncacheable,
    canonical_token,
    job_key,
    model_fingerprint,
)
from repro.core.parallel import JobRequest
from repro.faults import FaultPlan
from repro.machine import dmz, longs
from repro.mpi import OPENMPI
from repro.workloads import NasCG


def reference_token(obj):
    """The token format, written as plainly as possible."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, Enum):
        return ["enum", type(obj).__name__, reference_token(obj.value)]
    if is_dataclass(obj) and not isinstance(obj, type):
        return ["dc", type(obj).__name__,
                [[f.name, reference_token(getattr(obj, f.name))]
                 for f in fields(obj)]]
    if isinstance(obj, (list, tuple)):
        return ["seq", [reference_token(v) for v in obj]]
    if isinstance(obj, dict):
        return ["map", sorted(
            [str(k), reference_token(v)] for k, v in obj.items())]
    if isinstance(obj, (set, frozenset)):
        return ["set", sorted(json.dumps(reference_token(v), sort_keys=True)
                              for v in obj)]
    if hasattr(obj, "item") and callable(obj.item) and hasattr(obj, "dtype"):
        return reference_token(obj.item())
    if callable(obj):
        raise Uncacheable(f"cannot canonicalize callable {obj!r}")
    if hasattr(obj, "__dict__"):
        state = {k: v for k, v in vars(obj).items() if not k.startswith("_")}
        return ["obj", type(obj).__name__, reference_token(state)]
    raise Uncacheable(f"cannot canonicalize {type(obj).__name__} instance")


def reference_key(cell: JobRequest) -> str:
    """:meth:`JobRequest.key` through :func:`reference_token`."""
    affinity = cell.affinity
    payload = {
        "schema": CACHE_SCHEMA,
        "model": model_fingerprint(),
        "system": cell.spec.cache_token(),
        "workload": reference_token(cell.workload),
        "scheme": None if affinity is not None
        else reference_token(cell.scheme),
        "affinity": reference_token(affinity),
        "impl": reference_token(cell.impl or OPENMPI),
        "lock": cell.lock,
        "parked": cell.parked,
    }
    if cell.profile:
        payload["profile"] = True
    if cell.faults:
        payload["faults"] = reference_token(cell.faults)
    if cell.effective_tier() == "fast":
        payload["tier"] = "fast"
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _every_cell():
    return (tables.sweep_requests() + figures.figure_requests()
            + ablations.requests() + extensions.requests())


def test_every_bench_cell_keys_like_the_reference():
    cells = _every_cell()
    assert len(cells) > 600
    for cell in cells:
        for part in (cell.workload, cell.affinity, cell.scheme, cell.impl):
            assert canonical_token(part) == reference_token(part)
        assert cell.key() == reference_key(cell)
        # the memo answers a second call with the same address
        assert cell.key() == reference_key(cell)


def test_tier_profile_and_fault_variants_key_like_the_reference():
    plan = FaultPlan.from_dict({"seed": 3, "faults": [
        {"kind": "message_faults", "drop_prob": 0.5, "max_retries": 2}]})
    for cell in extensions.requests(["ext_npb"])[:6]:
        for variant in (replace(cell, tier="fast"), replace(cell, tier="auto"),
                        replace(cell, profile=True),
                        replace(cell, faults=plan)):
            assert variant.key() == reference_key(variant)


class Colour(IntEnum):
    RED = 1
    GREEN = 2


class Mode(Enum):
    A = "a"


@dataclass(frozen=True)
class Point:
    x: float
    y: int


@dataclass(frozen=True)
class Point3(Point):
    z: tuple = ()


class Subclassed(Point):
    """A plain subclass of a dataclass: still a dataclass instance."""


class Plain:
    def __init__(self):
        self.visible = [1, 2.5]
        self._private = "never keyed"
        self.nested = {"k": Point(0.1, 2)}


class MyList(list):
    pass


class MyDict(dict):
    pass


AWKWARD = [
    True, False, 0, 1, -7, "", "s", None, 0.1, -0.0, float("inf"),
    [True, 1, 1.0], (False, 0, 0.0),
    Colour.RED, [Colour.GREEN, 2], Mode.A, AffinityScheme.INTERLEAVE,
    {1: "int key", "1": "str key"}, {None: 1, 2.5: [3]},
    {3, 1, 2}, frozenset({"b", "a"}), {(1, 2), (3,)},
    Point(1.5, 2), Point3(1.0, 2, (3, 4)), Subclassed(0.5, 1),
    Plain(), MyList([1, 2]), MyDict(a=1),
    [Point(2.0, 1), {"p": Point3(0.0, 0)}, (Colour.RED, Mode.A)],
]


@pytest.mark.parametrize(
    "value", AWKWARD,
    ids=[f"{i}-{type(v).__name__}" for i, v in enumerate(AWKWARD)])
def test_awkward_inputs_tokenize_like_the_reference(value):
    # twice: the first call may take the general path and register a
    # dataclass, the second takes the per-class fast path
    for _ in range(2):
        token = canonical_token(value)
        assert token == reference_token(value)
        assert json.dumps(token) == json.dumps(reference_token(value))


def test_bool_and_int_stay_distinct():
    assert json.dumps(canonical_token(True)) == "true"
    assert json.dumps(canonical_token(1)) == "1"
    assert json.dumps(canonical_token([True])) \
        != json.dumps(canonical_token([1]))


def test_numpy_scalars_tokenize_like_the_reference():
    np = pytest.importorskip("numpy")
    for value in (np.int64(3), np.float64(0.25), np.bool_(True),
                  [np.int32(1), np.float32(0.5)]):
        assert canonical_token(value) == reference_token(value)


def test_callables_stay_uncacheable():
    def closure():
        return None

    for value in (closure, lambda: 1, print, [1, closure], {"f": closure},
                  Point(1.0, 2).__eq__):
        with pytest.raises(Uncacheable):
            canonical_token(value)
        with pytest.raises(Uncacheable):
            reference_token(value)


def test_key_is_computed_once_per_request(monkeypatch):
    calls = []
    real = parallel.job_key

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "job_key", counting)
    cell = JobRequest(longs(), NasCG(4), AffinityScheme.INTERLEAVE)
    first = cell.key()
    assert cell.key() == first and len(calls) == 1
    # the memo is not a field: equal cells compare and hash equal, and a
    # replaced cell keys itself afresh
    twin = JobRequest(longs(), cell.workload, AffinityScheme.INTERLEAVE)
    assert twin == cell and hash(twin) == hash(cell)
    moved = replace(cell, spec=dmz())
    assert moved.key() != first and len(calls) == 2


def test_session_keys_a_cell_once_from_admission_to_store(monkeypatch,
                                                          tmp_path):
    from repro.backends import ThreadBackend
    from repro.core.cache import ResultCache
    from repro.service import Session

    calls = []
    real = parallel.job_key

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel, "job_key", counting)
    cell = JobRequest(dmz(), NasCG(2), tier="fast")
    with Session(cache=ResultCache(directory=tmp_path),
                 backend=ThreadBackend()) as session:
        assert session.run(cell).ok
    assert len(calls) == 1
    assert job_key(cell.spec, cell.workload, scheme=cell.scheme,
                   impl=OPENMPI, tier="fast") == cell.key()
