"""Inputs of the end-to-end benchmark.

The serve workloads' request trace is generated here from ``--seed``:
the same seed always gives the same trace, different seeds give
different traces with the same class mix and cost mix.  ``sweep-exact``
and ``bench-all`` do not use the seed.

What the seed may change is limited by one measurement: cell cost is
heavy-tailed.  Exact cells range from milliseconds to 8 s (16-task
POP), fast-tier cells from 0.5 ms to 0.3 s, and on a two-core
virtual machine a seeded choice *of cells* moved p99 by 17% and a
sweep's time by 15% between seeds -- wider than any bound worth
having.  So the cells a run asks for, and the order in
which new ones appear, are fixed; the seed picks which earlier cell
each repeat asks for and where the new cells fall in the trace.

Cell selection never depends on a content address: keys fold in a
hash of the model source, so a selection keyed on them would change
with every model edit.  Cells are sorted by their descriptors (class,
system, task count, scheme, canonical parameters) instead.
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, List, Sequence, Tuple

#: the wire spellings the serve trace draws from: the paper's three
#: systems plus the chiplet preset, with their core counts
SERVE_SYSTEMS: Dict[str, int] = {"chiplet": 16, "dmz": 4, "longs": 16,
                                 "tiger": 2}
SERVE_WORKLOADS: Tuple[str, ...] = ("cg", "chain", "dgemm", "ep", "ft",
                                    "hpcc-stream", "jac", "lj", "mg",
                                    "pop", "stream")
#: one spelling per Table 5 scheme ("localalloc" aliases "two-local")
SERVE_SCHEMES: Tuple[str, ...] = ("default", "one-local", "one-membind",
                                  "two-local", "two-membind", "interleave")
#: share of serve requests that repeat an earlier cell
REPEAT_SHARE = 0.7
#: cells per block of similar cells in the order new cells appear
SERVE_BLOCK = 24

#: ``sweep-exact`` runs every SWEEP_STRIDE-th cell of at most
#: SWEEP_MAX_TASKS tasks of each workload class; a class that runs only
#: on more tasks (the HPCC kernels, ping-pong, ring exchange) gives its
#: middle cell.  The other 16-task cells are left out: they hold 62% of
#: the engine time of the whole set, up to 8 s in one cell, and a pass
#: that waits on one such cell times that cell, not the engine.  With
#: the current model the sample is 37 cells of all 18 classes: a cold
#: pass takes about half a second on two workers, so a 25 s run holds
#: some thirty passes to take the median of.
SWEEP_STRIDE = 16
SWEEP_MAX_TASKS = 8


def _descriptor(request) -> Tuple:
    """A stable, model-independent sort key for one executor cell."""
    from repro.core.cache import canonical_token

    scheme = request.affinity.scheme if request.affinity is not None \
        else request.scheme
    return (type(request.workload).__name__, request.spec.name,
            int(request.workload.ntasks), str(scheme.value),
            json.dumps(canonical_token(request.workload), sort_keys=True),
            json.dumps(canonical_token(request.affinity), sort_keys=True))


def sweep_cells(stride: int = SWEEP_STRIDE,
                max_tasks: int = SWEEP_MAX_TASKS) -> List:
    """The ``sweep-exact`` cells, in the order ``repro-bench all``
    submits them.

    A class-stratified systematic sample of the unique cells behind
    ``repro-bench all`` (``tables.sweep_requests() +
    figures.figure_requests()``): every ``stride``-th cell of at most
    ``max_tasks`` tasks of each workload class in descriptor order, or
    the middle cell of a class that has none that small.
    """
    from repro.bench import figures, tables

    unique: Dict[str, Tuple[int, object]] = {}
    for position, request in enumerate(tables.sweep_requests()
                                       + figures.figure_requests()):
        unique.setdefault(request.key(), (position, request))
    by_class: Dict[str, List] = {}
    for position, request in unique.values():
        by_class.setdefault(type(request.workload).__name__, []).append(
            (_descriptor(request), position, request))
    chosen = []
    for name in sorted(by_class):
        members = sorted(by_class[name])
        small = [m for m in members if int(m[2].workload.ntasks) <= max_tasks]
        chosen.extend(small[::stride] or [members[len(members) // 2]])
    return [request for _, _, request in sorted(chosen,
                                                key=lambda c: c[1])]


def serve_pool() -> List[Dict]:
    """Every wire-expressible fast-tier cell, in descriptor order.

    Cells the service would reject as malformed (FT and MG need a task
    count that divides their grid) are left out, so no request of the
    trace fails; infeasible placements stay in, because an
    ``infeasible_scheme`` reply is a valid answer.
    """
    from repro.errors import ReproError
    from repro.service.protocol import cell_from_wire

    pool = []
    for workload in SERVE_WORKLOADS:
        for system, cores in SERVE_SYSTEMS.items():
            for ntasks in range(1, cores + 1):
                for scheme in SERVE_SCHEMES:
                    cell = {"system": system, "workload": workload,
                            "ntasks": ntasks, "scheme": scheme,
                            "tier": "fast"}
                    try:
                        cell_from_wire(cell)
                    except ReproError:
                        continue
                    pool.append(cell)
    return pool


def serve_blocks(pool: Sequence[Dict]) -> List[List[int]]:
    """Each workload's cells cut into blocks of about
    :data:`SERVE_BLOCK` neighbouring, hence similar, cells."""
    groups: Dict[str, List[int]] = {}
    for index, cell in enumerate(pool):
        groups.setdefault(cell["workload"], []).append(index)
    blocks: List[List[int]] = []
    for name in sorted(groups):
        members = groups[name]
        count = max(1, round(len(members) / SERVE_BLOCK))
        blocks.extend(members[i * len(members) // count:
                              (i + 1) * len(members) // count]
                      for i in range(count))
    return blocks


def new_cell_order(pool: Sequence[Dict]) -> List[int]:
    """The fixed order in which the serve trace first asks for cells.

    Every round takes one cell from each of :func:`serve_blocks`, so
    every prefix of whole rounds is a stratified sample of the pool:
    the same classes, system sizes and task counts in proportion.
    """
    rng = random.Random("new-cell-order")
    blocks = serve_blocks(pool)
    for chunk in blocks:
        rng.shuffle(chunk)
    order: List[int] = []
    for depth in range(max(len(chunk) for chunk in blocks)):
        turn = list(range(len(blocks)))
        rng.shuffle(turn)
        order.extend(blocks[i][depth] for i in turn
                     if depth < len(blocks[i]))
    return order


def serve_trace(pool: Sequence[Dict], seed: int,
                repeat: float = REPEAT_SHARE) -> List[Tuple[int, bool]]:
    """A seeded request trace: ``(pool index, first time asked)`` pairs.

    Exactly a ``1 - repeat`` share of every prefix asks for the next
    cell of :func:`new_cell_order`, at seeded positions; every other
    request repeats a seeded, uniformly chosen earlier cell.  The trace
    ends once every cell has been asked for.
    """
    rng = random.Random(f"trace/{seed}")
    phase = rng.random()
    fresh = new_cell_order(pool)
    share = 1.0 - repeat
    trace: List[Tuple[int, bool]] = []
    asked = 0
    position = 0
    while asked < len(fresh):
        if math.floor((position + 1) * share + phase) \
                > math.floor(position * share + phase) or not asked:
            trace.append((fresh[asked], True))
            asked += 1
        else:
            trace.append((fresh[rng.randrange(asked)], False))
        position += 1
    return trace
