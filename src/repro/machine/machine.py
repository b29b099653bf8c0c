"""The runtime machine object: spec + engine + live subsystems.

A :class:`Machine` is instantiated per simulation run (each run owns a
fresh :class:`~repro.sim.Engine`, so runs are independent and
deterministic).  It wires together the topology, interconnect, memory
system, and cache model, and exposes the NUMA distance matrix in
ACPI-SLIT style (10 = local, +10 per hop).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..sim import Engine, Tracer
from .cache import CacheModel
from .interconnect import Interconnect
from .memory import MemorySystem
from .topology import Core, MachineSpec, Socket

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["Machine"]


class Machine:
    """A live shared-memory node built from a :class:`MachineSpec`."""

    def __init__(self, spec: MachineSpec, engine: Optional[Engine] = None,
                 tracer: Optional[Tracer] = None, perf=None,
                 fault_plan=None):
        self.spec = spec
        self.engine = engine if engine is not None else Engine()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: optional perfctr.PerfSession; None keeps every hook a no-op
        self.perf = perf
        #: optional faults.FaultScheduler (set below); None keeps every
        #: fault hook a single ``is not None`` test on the healthy path
        self.faults = None

        self.sockets: List[Socket] = []
        self.cores: List[Core] = []
        core_id = 0
        for s in range(spec.sockets):
            socket = Socket(socket_id=s, spec=spec.socket)
            for local in range(spec.socket.cores_per_socket):
                core = Core(core_id=core_id, socket_id=s, local_index=local,
                            spec=spec.socket.core)
                socket.cores.append(core)
                self.cores.append(core)
                core_id += 1
            self.sockets.append(socket)

        if perf is not None:
            perf.bind(self.engine, len(self.cores))
        self.net = Interconnect(self.engine, spec, perf=perf)
        self.mem = MemorySystem(self.engine, spec, self.net, perf=perf)
        self.cache = CacheModel.for_socket(
            spec.socket, traffic_floor=spec.params.compulsory_traffic_floor)
        if fault_plan is not None and fault_plan:
            # Lazy import: the faults package is only loaded (and the
            # scheduler's arm/disarm events only scheduled) when a run
            # actually carries a plan.
            from ..faults.scheduler import FaultScheduler

            self.faults = FaultScheduler(self, fault_plan)

    # -- lookups -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def total_cores(self) -> int:
        return len(self.cores)

    @property
    def num_sockets(self) -> int:
        return self.spec.sockets

    def core(self, core_id: int) -> Core:
        """The core with the given global id."""
        return self.cores[core_id]

    def socket_of_core(self, core_id: int) -> int:
        """Socket id housing ``core_id``."""
        return self.cores[core_id].socket_id

    def cores_on_socket(self, socket_id: int) -> List[int]:
        """Global core ids on one socket."""
        return self.sockets[socket_id].core_ids

    def siblings(self, core_id: int) -> List[int]:
        """Other core ids sharing the socket with ``core_id``."""
        return [c for c in self.cores_on_socket(self.socket_of_core(core_id))
                if c != core_id]

    # -- NUMA geometry -------------------------------------------------------

    def distance_matrix(self) -> np.ndarray:
        """ACPI-SLIT-style distances: 10 local, +10 per HT hop."""
        import numpy as np

        n = self.num_sockets
        mat = np.zeros((n, n), dtype=int)
        for s in range(n):
            for d in range(n):
                mat[s, d] = 10 + 10 * self.net.hops(s, d)
        return mat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Machine {self.spec.name}: {self.num_sockets} sockets x "
            f"{self.spec.socket.cores_per_socket} cores, "
            f"topology={self.spec.topology}>"
        )
