"""The ``repro-bench`` prefetch covers every cell its targets read.

``cli._prefetch`` asks each builder module (``tables``, ``figures``,
``ablations``, ``extensions``) for its targets' cells and settles them
as one flight; the serial builders must then read every cell from the
session's outcome table.  A builder that reads a cell its enumerator
forgot would silently fall back to a one-cell flight of its own, so
these tests record every executor flight and require none after the
prefetch.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import pytest

from repro.backends import ThreadBackend
from repro.bench import cli, tables
from repro.core.cache import ResultCache, configure, default_cache
from repro.service import Session
from repro.service import session as session_module
from repro.service.session import set_default_session


@pytest.fixture(scope="module")
def memory_cache():
    """One memory-only cache for the module: each fast cell is
    simulated once however many targets read it."""
    return ResultCache(disk=False)


@pytest.fixture
def flights(monkeypatch):
    """The cell lists of every executor flight a session makes."""
    recorded = []
    real = session_module.run_requests

    def recording(cells, **kwargs):
        recorded.append(list(cells))
        return real(cells, **kwargs)

    monkeypatch.setattr(session_module, "run_requests", recording)
    return recorded


@pytest.mark.parametrize("name", sorted(cli.TARGETS) + ["all"])
def test_prefetch_answers_every_cell_the_target_reads(name, memory_cache,
                                                      flights):
    names = sorted(cli.TARGETS) if name == "all" else [name]
    session = Session(cache=memory_cache, backend=ThreadBackend(),
                      tier="fast", name="coverage")
    previous = set_default_session(session)
    try:
        assert cli._prefetch(session, names) == []
        assert len(flights) <= 1  # one flight, or none for data tables
        prefetched = len(flights)
        for target in names:
            cli.TARGETS[target]()
    finally:
        set_default_session(previous)
        session.close()
    assert flights[prefetched:] == []


def test_warm_run_is_one_flight_and_builds_each_table_once(
        tmp_path, monkeypatch, flights):
    """``fidelity`` scores the tables the ``tabNN`` targets print: in
    one run every table is built once, and a warm run settles all its
    cells in a single flight."""
    built = []
    for number in range(1, 15):
        target = f"tab{number:02d}"
        builder = cli.TARGETS[target]

        def counting(builder=builder, target=target):
            built.append(target)
            return builder()

        monkeypatch.setitem(cli.TARGETS, target, counting)
        monkeypatch.setattr(tables, f"table{number:02d}", counting)
    argv = ["fidelity", "tab02", "tab13", "--tier", "fast",
            "--backend", "threads"]
    cache = default_cache()
    saved = (cache.enabled, cache.directory, cache.disk)
    configure(enabled=True, directory=tmp_path / "cache", disk=True)
    outputs = []
    try:
        for _run in ("cold", "warm"):
            built.clear()
            del flights[:]
            with redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            outputs.append(out.getvalue())
            assert sorted(built) == sorted(set(built))
            assert len(flights) == 1
    finally:
        configure(enabled=saved[0], directory=saved[1], disk=saved[2])
    # the 11 scored tables, once each; tab02 and tab13 print the same
    # objects fidelity scored
    assert sorted(built) == ["tab02", "tab03", "tab04", "tab07", "tab08",
                             "tab09", "tab10", "tab11", "tab12", "tab13",
                             "tab14"]
    assert outputs[0] == outputs[1]
