"""Tests for what-if machines, custom topologies, and the bench layer."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.cli import TARGETS, main
from repro.bench.common import RUNTIME_CONFIGS, bound_spread_affinity
from repro.machine import GB, Machine, MachineSpec, hypothetical
from repro.machine.topology import CoreSpec, SocketSpec, build_socket_graph


# -- custom topologies --------------------------------------------------------

def _spec(topology: str, sockets: int) -> MachineSpec:
    return MachineSpec(
        name=f"t-{topology}", sockets=sockets,
        socket=SocketSpec(cores_per_socket=2,
                          core=CoreSpec(frequency_hz=2e9)),
        topology=topology,
    )


def test_ring_topology_graph():
    g = build_socket_graph(_spec("ring", 6))
    assert g.number_of_edges() == 6
    assert all(len(nbrs) == 2 for nbrs in g.adj.values())
    assert g.is_connected()


def test_crossbar_topology_graph():
    g = build_socket_graph(_spec("crossbar", 5))
    assert g.number_of_edges() == 10  # complete graph K5
    m = Machine(_spec("crossbar", 5))
    assert m.net.max_hops() == 1


def test_ring_crossbar_need_three_sockets():
    with pytest.raises(ValueError):
        _spec("ring", 2)
    with pytest.raises(ValueError):
        _spec("crossbar", 2)


def test_ring_hops():
    m = Machine(_spec("ring", 8))
    assert m.net.hops(0, 4) == 4
    assert m.net.hops(0, 7) == 1


# -- hypothetical builder --------------------------------------------------------

def test_hypothetical_defaults():
    spec = hypothetical("h1", sockets=1)
    assert spec.topology == "single"
    assert hypothetical("h2", sockets=2).topology == "pair"
    assert hypothetical("h4", sockets=4).topology == "ladder"


def test_hypothetical_probe_cost_override():
    free = hypothetical("free", sockets=8, coherence_probe_cost=0.0)
    machine = Machine(free)
    assert machine.mem.coherence_factor == pytest.approx(1.0)
    assert machine.mem.controller_capacity == pytest.approx(
        6.4 * GB * free.params.dram_achievable_fraction)


def test_hypothetical_validation():
    with pytest.raises(ValueError):
        hypothetical("bad", sockets=8, coherence_probe_cost=-0.1)


def test_hypothetical_frequency_and_cores():
    spec = hypothetical("quad", sockets=4, cores_per_socket=4,
                        frequency_ghz=2.6)
    assert spec.total_cores == 16
    assert spec.socket.core.frequency_hz == pytest.approx(2.6e9)


def test_hypothetical_dram_bandwidth_override():
    spec = hypothetical("ddr2", sockets=2, dram_peak_bandwidth=12.8 * GB)
    assert spec.socket.dram_peak_bandwidth == pytest.approx(12.8 * GB)


# -- bench plumbing ----------------------------------------------------------------

def test_runtime_configs_cover_figure8_legend():
    labels = [c[0] for c in RUNTIME_CONFIGS]
    assert labels == ["Default", "LocalAlloc", "Interleave", "SysV",
                      "USysV", "LocalAlloc+USysV"]


def test_bound_spread_affinity_fills_sockets_first():
    from repro.machine import dmz

    aff = bound_spread_affinity(dmz(), 2)
    assert aff.placement.bound
    assert len(aff.placement.sockets_in_use()) == 2


def test_cli_targets_registered():
    # 14 tables + 16 figures + 4 latency panels + 5 ablations
    # + fidelity + 2 extensions
    assert len(TARGETS) == 14 + 16 + 4 + 5 + 1 + 2
    assert "tab02" in TARGETS and "fig08" in TARGETS
    assert "fig14lat" in TARGETS and "abl_hybrid" in TARGETS
    assert "fidelity" in TARGETS and "ext_npb" in TARGETS


def test_cli_list_and_unknown(capsys):
    assert main(["list"]) == 0
    assert "tab02" in capsys.readouterr().out
    assert main(["tab99"]) == 2


def test_cli_renders_data_table(capsys, tmp_path):
    assert main(["tab01", "--csv", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "System Configurations" in out
    assert (tmp_path / "tab01.csv").exists()


def test_cli_import_leaves_scipy_stats_and_sparse_unloaded():
    """Startup weight guard: the CLI, the daemon and the router load no
    numpy, networkx or scipy; only functional kernels (numpy) and the CG
    validator (scipy.sparse) import them, when they run."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import sys, repro.bench.cli, repro.service.daemon, "
             "repro.cluster.router; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.sparse', "
             "'numpy', 'networkx') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert out.strip() == "[]"


#: prefix that makes ``import numpy`` and ``import networkx`` raise
_BLOCK = 'import sys; sys.modules["numpy"] = sys.modules["networkx"] = None; '

_EXACT_CELL = """
import json
from repro.core.affinity import AffinityScheme
from repro.core.parallel import JobRequest
from repro.faults import FaultPlan, LinkOutage
from repro.machine import longs
from repro.workloads import RingExchange
plan = FaultPlan(seed=0, faults=(LinkOutage(src=1, dst=2, start=2e-4),))
cell = JobRequest(longs(), RingExchange(6, 200_000),
                  scheme=AffinityScheme.INTERLEAVE, faults=plan)
print(json.dumps(cell.execute().to_dict(), sort_keys=True))
"""


def test_simulation_runs_without_numpy_and_networkx(tmp_path):
    """Fast-tier targets and an exact cell (a link outage re-routes it)
    give the same answers when numpy and networkx cannot be imported."""
    src = Path(__file__).resolve().parent.parent / "src"

    def run(code, cache):
        env = dict(os.environ, PYTHONPATH=str(src),
                   REPRO_BENCH_CACHE_DIR=str(tmp_path / cache))
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300,
                              check=True).stdout

    bench = ("from repro.bench.cli import main; "
             "sys.exit(main(['tab02', 'fig14', '--tier', 'fast']))")
    blocked = run(_BLOCK + bench, "blocked")
    assert "Table 2" in blocked
    assert blocked == run("import sys; " + bench, "plain")
    cell = run(_BLOCK + _EXACT_CELL, "blocked")
    assert cell == run(_EXACT_CELL, "plain")
