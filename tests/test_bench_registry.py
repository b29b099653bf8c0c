"""Each bench target declares its cells once; a warm run keys and
dispatches nothing twice.

Every table, figure, ablation and extension reads the rows of its
:class:`~repro.bench.common.Sweep`: the prefetch and the builders hold
the same :class:`JobRequest` instances, so a warm ``repro-bench all``
keys each listed cell once.  Infeasible cells are settled by the
executor before dispatch, so a warm run sends no backend anything and
never imports one.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.backends import ProcessBackend, ThreadBackend
from repro.bench import ablations, cli, extensions, figures, tables
from repro.core import parallel
from repro.core.affinity import (AffinityScheme, InfeasibleSchemeError,
                                 resolve_scheme)
from repro.core.cache import (ResultCache, canonical_token, configure,
                              default_cache)
from repro.core.parallel import JobRequest, run_requests
from repro.machine import tiger
from repro.service.registry import resolve_workload

SRC = Path(__file__).resolve().parents[1] / "src"

#: sha256 of the ordered (label, workload token, affinity token) list of
#: ``sweep_requests() + figure_requests()`` before the registry existed;
#: the e2e ``sweep-exact`` workload samples its cells from this list
ENUMERATOR_DIGEST = \
    "b85300b757d3f349d58d938065675d1f18a07f6264d60e2dd347b65b0c742267"

#: the cells the four enumerators list for ``all`` (with repeats)
LISTED_CELLS = 628


def _all_sweeps():
    return [*tables._SWEEPS.values(), *figures._SWEEPS, *ablations._SWEEPS,
            *extensions._SWEEPS]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache directory a cold ``all --tier fast`` filled, and its stdout."""
    directory = tmp_path_factory.mktemp("registry-cache")
    done = subprocess.run(
        [sys.executable, "-m", "repro.bench.cli", "all", "--tier", "fast"],
        env=dict(os.environ, PYTHONPATH=str(SRC),
                 REPRO_BENCH_CACHE_DIR=str(directory)),
        stdout=subprocess.PIPE, check=True)
    return directory, done.stdout.decode()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_warm_all_keys_each_listed_cell_once_and_dispatches_nothing(
        jobs, warm_cache, monkeypatch):
    directory, cold_stdout = warm_cache
    keys, submits = [], []
    real_key = parallel.job_key

    def counting_key(*args, **kwargs):
        keys.append(1)
        return real_key(*args, **kwargs)

    def refusing_submit(self, batch, *args, **kwargs):
        submits.append(list(batch))
        raise AssertionError("a warm run dispatched cells")

    monkeypatch.setattr(parallel, "job_key", counting_key)
    for backend in (ProcessBackend, ThreadBackend):
        monkeypatch.setattr(backend, "submit_cells", refusing_submit)
    for sweep in _all_sweeps():  # as in a fresh process
        sweep.rows.cache_clear()
    cache = default_cache()
    saved = (cache.enabled, cache.directory, cache.disk)
    configure(enabled=True, directory=directory, disk=True)
    pool0 = parallel.pool_stats().as_dict()
    try:
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(["all", "--tier", "fast", "--jobs", jobs]) == 0
    finally:
        configure(enabled=saved[0], directory=saved[1], disk=saved[2])
    pool = {key: value - pool0[key]
            for key, value in parallel.pool_stats().as_dict().items()}
    assert out.getvalue() == cold_stdout
    assert 0 < len(keys) <= LISTED_CELLS
    assert submits == []
    assert pool["executed_parallel"] == pool["executed_serial"] == 0
    assert pool["infeasible"] == 20


def test_warm_all_imports_no_backend_and_no_evaluator(warm_cache):
    directory, cold_stdout = warm_cache
    probe = ("import io, json, sys\n"
             "from contextlib import redirect_stdout\n"
             "from repro.bench.cli import main\n"
             "with redirect_stdout(io.StringIO()) as out:\n"
             "    code = main(['all', '--tier', 'fast'])\n"
             "print(json.dumps({'code': code, 'stdout': out.getvalue(),\n"
             "    'loaded': [name for name in ('repro.backends',\n"
             "               'repro.surrogate.evaluator') if name in "
             "sys.modules]}))\n")
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC),
                 REPRO_BENCH_CACHE_DIR=str(directory)),
        stdout=subprocess.PIPE, check=True)
    report = json.loads(done.stdout)
    assert report["code"] == 0 and report["stdout"] == cold_stdout
    assert report["loaded"] == []


def test_enumerators_list_the_cells_they_always_did():
    cells = tables.sweep_requests() + figures.figure_requests()
    rows = [(cell.label(), canonical_token(cell.workload),
             canonical_token(cell.affinity)) for cell in cells]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == ENUMERATOR_DIGEST
    assert len(cells + ablations.requests() + extensions.requests()) \
        == LISTED_CELLS


def test_prefetch_and_builders_share_cell_instances():
    """Tables 7 and 9 read one JAC sweep, and Table 4 reads Table 2's
    Default column: the same instances, listed under each target."""
    jac = tables.sweep_requests(["tab07"])
    assert [id(c) for c in jac] == [id(c) for c in
                                   tables.sweep_requests(["tab09"])]
    tab02 = {id(cell) for cell in tables.sweep_requests(["tab02"])}
    tab04 = tables.sweep_requests(["tab04"])
    shared = [cell for cell in tab04 if id(cell) in tab02]
    assert len(shared) == 8  # CG and FT at 2, 4, 8 and 16 tasks on Longs
    assert all(cell.scheme is AffinityScheme.DEFAULT for cell in shared)


class _Recording:
    """Mixin: the cells each ``submit_cells`` call was handed."""

    def submit_cells(self, batch, jobs=None, timeout=None, retries=None):
        self.seen.extend(batch)
        return super().submit_cells(batch, jobs, timeout, retries)


class _RecordingThreads(_Recording, ThreadBackend):
    pass


class _RecordingProcesses(_Recording, ProcessBackend):
    pass


@pytest.mark.parametrize("backend_class",
                         [_RecordingThreads, _RecordingProcesses],
                         ids=["threads", "processes"])
def test_infeasible_cells_are_settled_before_dispatch(backend_class):
    infeasible = JobRequest(spec=tiger(),
                            workload=resolve_workload("stream", 16),
                            scheme=AffinityScheme.ONE_MPI_LOCAL)
    feasible = JobRequest(spec=tiger(),
                          workload=resolve_workload("stream", 2))
    with pytest.raises(InfeasibleSchemeError) as raised:
        resolve_scheme(infeasible.scheme, infeasible.spec, 16)
    backend = backend_class()
    backend.seen = []
    outcomes = []
    before = parallel.pool_stats().infeasible
    try:
        results = run_requests([infeasible, feasible, infeasible],
                               jobs=2, cache=ResultCache(disk=False),
                               backend=backend, outcomes=outcomes)
    finally:
        backend.close()
    assert backend.seen == [feasible]
    assert results[0] is None and results[1] is not None
    assert outcomes[0] == outcomes[2] == ("infeasible", str(raised.value))
    # the duplicate is folded onto its twin, not checked again
    assert parallel.pool_stats().infeasible - before == 1
