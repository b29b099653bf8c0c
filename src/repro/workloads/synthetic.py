"""Declarative synthetic workloads.

The paper's methodology generalizes beyond its benchmark set: any
application expressible as per-step compute slices plus communication
can be placed on the model and swept across affinity schemes.  A
:class:`SyntheticWorkload` builds such a program from a plain data
specification (dict or JSON), so downstream users can characterize
*their* code without writing a Workload subclass::

    spec = {
        "name": "my-solver",
        "ntasks": 8,
        "steps": 50,
        "simulated_steps": 10,
        "ops": [
            {"kind": "compute", "flops": 2e8, "dram_bytes": 1e8,
             "working_set": 5e7, "reuse": 0.4, "phase": "stencil"},
            {"kind": "halo", "nbytes": 65536, "phase": "exchange"},
            {"kind": "allreduce", "nbytes": 8, "phase": "dots"},
        ],
    }
    workload = SyntheticWorkload.from_spec(spec)

Supported op kinds: ``compute``, ``halo`` (ring sendrecv), ``send``
(to a fixed peer offset), ``allreduce``, ``alltoall``, ``allgather``,
``bcast``, ``barrier``.
"""

from __future__ import annotations

import json
from typing import Any, Iterator, Mapping, Sequence

from ..core.ops import (
    Allgather,
    Allreduce,
    Alltoall,
    Barrier,
    Bcast,
    Compute,
    Op,
    SendRecv,
)
from ..core.workload import Workload

__all__ = ["SyntheticWorkload"]

_COMPUTE_FIELDS = ("flops", "dram_bytes", "working_set", "reuse",
                   "flop_efficiency", "random_accesses",
                   "stream_bandwidth", "threads", "phase")


class SyntheticWorkload(Workload):
    """A workload assembled from a declarative op list."""

    def __init__(self, name: str, ntasks: int, ops: Sequence[Mapping[str, Any]],
                 steps: int = 1, simulated_steps: int | None = None):
        if steps < 1:
            raise ValueError("steps must be >= 1")
        simulated = steps if simulated_steps is None else simulated_steps
        if not 1 <= simulated <= steps:
            raise ValueError("need 1 <= simulated_steps <= steps")
        if not ops:
            raise ValueError("the op list may not be empty")
        self.name = name
        self.ntasks = ntasks
        self.ops_spec = [dict(op) for op in ops]
        self.simulated_steps = simulated
        self.time_scale = steps / simulated
        # validate eagerly so bad specs fail at build time, not run time
        for op in self.ops_spec:
            self._build_op(op, rank=0)

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "SyntheticWorkload":
        """Build from a dict with name/ntasks/ops[/steps/simulated_steps]."""
        try:
            return cls(
                name=str(spec["name"]),
                ntasks=int(spec["ntasks"]),
                ops=spec["ops"],
                steps=int(spec.get("steps", 1)),
                simulated_steps=(int(spec["simulated_steps"])
                                 if "simulated_steps" in spec else None),
            )
        except KeyError as missing:
            raise ValueError(f"spec is missing required key {missing}") from None

    @classmethod
    def from_json(cls, text: str) -> "SyntheticWorkload":
        """Build from a JSON document (the CLI-friendly entry point)."""
        return cls.from_spec(json.loads(text))

    # -- op construction -------------------------------------------------------

    def _build_op(self, spec: Mapping[str, Any], rank: int) -> Op:
        kind = spec.get("kind")
        phase = str(spec.get("phase", ""))
        p = self.ntasks
        if kind == "compute":
            kwargs = {k: spec[k] for k in _COMPUTE_FIELDS if k in spec}
            kwargs.pop("phase", None)
            unknown = set(spec) - set(_COMPUTE_FIELDS) - {"kind"}
            if unknown:
                raise ValueError(f"unknown compute fields {sorted(unknown)}")
            return Compute(phase=phase, **kwargs)
        if kind == "halo":
            offset = int(spec.get("offset", 1))
            return SendRecv(send_to=(rank + offset) % p,
                            recv_from=(rank - offset) % p,
                            nbytes=int(spec["nbytes"]), phase=phase)
        if kind == "send":
            return SendRecv(send_to=(rank + int(spec["to_offset"])) % p,
                            recv_from=(rank - int(spec["to_offset"])) % p,
                            nbytes=int(spec["nbytes"]), phase=phase)
        if kind == "allreduce":
            return Allreduce(nbytes=int(spec["nbytes"]), phase=phase)
        if kind == "alltoall":
            return Alltoall(nbytes=int(spec["nbytes"]), phase=phase)
        if kind == "allgather":
            return Allgather(nbytes=int(spec["nbytes"]), phase=phase)
        if kind == "bcast":
            return Bcast(root=int(spec.get("root", 0)),
                         nbytes=int(spec["nbytes"]), phase=phase)
        if kind == "barrier":
            return Barrier(phase=phase)
        raise ValueError(f"unknown op kind {kind!r}")

    def program(self, rank: int) -> Iterator[Op]:
        comm_kinds = {"halo", "send", "allreduce", "alltoall", "allgather",
                      "bcast", "barrier"}
        step = [self._build_op(spec, rank) for spec in self.ops_spec
                if self.ntasks > 1 or spec.get("kind") not in comm_kinds]
        yield Barrier()
        for _ in range(self.simulated_steps):
            yield from step
        yield Barrier()
