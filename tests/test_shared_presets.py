"""Process-wide preset machines and the served content address.

The preset factories return one shared frozen :class:`MachineSpec` per
process, so its memoized ``cache_token`` is computed once per preset
rather than once per served request.  These tests pin the sharing, the
memo's single miss per preset over a served run, that variants stay
distinct, and that no content address moves: a served cell keys
exactly like the same cell on a spec rebuilt field by field.  The last
test pins the process backend's harvest: outcomes come back in batch
order however the cells finish.
"""

import dataclasses
from collections import Counter

import pytest

from repro.backends import ProcessBackend
from repro.bench.chaos import SleeperWorkload
from repro.core.affinity import AffinityScheme
from repro.core.cache import ResultCache
from repro.core.parallel import JobRequest
from repro.machine import all_systems, by_name, chiplet, dmz, longs, tiger
from repro.machine import topology
from repro.service.protocol import cell_from_wire, handle_request
from repro.service.registry import WORKLOADS, resolve_system, resolve_workload
from repro.service.session import Session

PRESETS = {"tiger": tiger, "dmz": dmz, "longs": longs, "chiplet": chiplet}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_lookup_returns_the_one_preset(name):
    spec = PRESETS[name]()
    assert by_name(name) is by_name(name) is spec
    assert by_name(name.upper()) is spec
    assert resolve_system(name) is spec
    assert cell_from_wire({"system": name, "workload": "stream",
                           "ntasks": 2}).cell.spec is spec


def test_all_systems_shares_the_presets():
    assert all_systems() == [tiger(), dmz(), longs()]
    assert all(a is b for a, b in zip(all_systems(), all_systems()))


def test_presets_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        longs().sockets = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        tiger().name = "Puma"


def test_a_variant_is_a_new_instance_with_its_own_token():
    token = longs().cache_token()
    variant = dataclasses.replace(longs(), description="what-if")
    assert variant is not longs()
    assert variant.cache_token() != token
    assert longs().cache_token() == token
    assert dataclasses.replace(longs()).cache_token() == token


def _served_cells():
    cells = []
    for system in sorted(PRESETS):
        for workload in ("stream", "ep", "cg"):
            for scheme in ("default", "interleave"):
                cells.append({"system": system, "workload": workload,
                              "ntasks": 2, "scheme": scheme,
                              "tier": "fast"})
    return cells


def test_served_submits_compute_each_preset_token_once(tmp_path,
                                                       monkeypatch):
    """≥50 served submits over every preset miss the token memo once each."""
    computed = Counter()
    real_asdict = topology.asdict

    def counting_asdict(obj):
        if isinstance(obj, topology.MachineSpec):
            computed[obj.name] += 1
        return real_asdict(obj)

    monkeypatch.setattr(topology, "asdict", counting_asdict)
    for make in PRESETS.values():
        make().__dict__.pop("_cache_token", None)  # start from a miss
    cells = _served_cells()
    with Session(cache=ResultCache(directory=tmp_path), jobs=1,
                 backend="threads", tier="fast") as session:
        submits = 0
        for _ in range(3):
            for cell in cells:
                reply = handle_request(session, {"op": "submit",
                                                 "cell": cell})
                assert reply["status"] == "ok", reply
                submits += 1
    assert submits >= 50
    assert computed == {spec().name: 1 for spec in PRESETS.values()}


def _rebuilt(obj):
    """A fresh copy of a (nested) dataclass, rebuilt field by field."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return type(obj)(**{f.name: _rebuilt(getattr(obj, f.name))
                            for f in dataclasses.fields(obj) if f.init})
    return obj


@pytest.mark.parametrize("system", sorted(PRESETS))
def test_served_keys_match_a_spec_rebuilt_field_by_field(system):
    spec = _rebuilt(PRESETS[system]())
    assert spec is not PRESETS[system]() and spec == PRESETS[system]()
    assert "_cache_token" not in spec.__dict__
    for workload in sorted(WORKLOADS):
        for scheme, alias, tier in (
                (AffinityScheme.DEFAULT, "default", "fast"),
                (AffinityScheme.INTERLEAVE, "interleave", "exact")):
            cell = {"system": system, "workload": workload, "ntasks": 2,
                    "scheme": alias, "tier": tier}
            expected = JobRequest(spec=spec,
                                  workload=resolve_workload(workload, 2),
                                  scheme=scheme, tier=tier).key()
            assert cell_from_wire(cell).key() == expected, cell


def test_process_batch_finishing_out_of_order_keeps_batch_order():
    """A slow first cell finishes last; outcomes still follow the batch."""
    quick = [JobRequest(spec=tiger(), workload=resolve_workload("stream", 2),
                        scheme=scheme)
             for scheme in (AffinityScheme.DEFAULT,
                            AffinityScheme.INTERLEAVE)]
    slow = JobRequest(spec=tiger(), workload=SleeperWorkload(seconds=0.5))
    batch = [slow] + quick
    backend = ProcessBackend(jobs=2)
    try:
        outcomes = [future.result(timeout=120)
                    for future in backend.submit_cells(batch, jobs=2)]
    finally:
        backend.close()
    assert [status for status, _ in outcomes] == ["ok"] * 3
    assert outcomes[0][1].workload == SleeperWorkload.name
    for (_, got), request in zip(outcomes[1:], quick):
        assert got.to_dict() == request.execute().to_dict()


def test_micro_served_key_runs(capsys):
    from repro.bench.micro import SERVED_KEY_CELL, main

    assert main(["--only", "served-key", "--repeat", "1",
                 "--number", "2"]) == 0
    assert "served-key" in capsys.readouterr().out
    assert cell_from_wire(SERVED_KEY_CELL).key() == JobRequest(
        spec=_rebuilt(longs()), workload=resolve_workload("pop", 16),
        scheme=AffinityScheme.DEFAULT, tier="fast").key()
