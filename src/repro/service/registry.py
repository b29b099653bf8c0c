"""Name registries for the service wire protocol (and the prof CLI).

The service protocol describes cells by *name* — a system from the
paper's three evaluation machines, a workload from the characterization
spectrum, a Table 5 scheme — and this module is the one place those
names resolve.  ``repro-prof`` imports the same tables, so a cell that
profiles from the command line is spelled identically over the socket.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..apps.md.amber import AmberSander
from ..apps.md.lammps import LammpsBench
from ..apps.pop import Pop
from ..core.affinity import AffinityScheme
from ..errors import ProtocolError, UnknownNameError
from ..machine import by_name
from ..machine.topology import MachineSpec
from ..workloads.blas_scaling import DgemmBench
from ..workloads.hpcc import HpccStream
from ..workloads.lmbench import StreamTriad
from ..workloads.nas import NasCG, NasEP, NasFT, NasMG
from ..workloads.synthetic import SyntheticWorkload

__all__ = ["WORKLOADS", "SCHEME_ALIASES", "resolve_scheme_name",
           "resolve_system", "resolve_workload", "wire_cell_for"]

#: name -> factory(ntasks); the paper's workload spectrum
WORKLOADS: Dict[str, Callable[[int], object]] = {
    "stream": StreamTriad,
    "hpcc-stream": lambda n: HpccStream(ntasks=n),
    "dgemm": lambda n: DgemmBench(n, 1000, vendor=True),
    "cg": NasCG,
    "ep": NasEP,
    "ft": NasFT,
    "mg": NasMG,
    "jac": lambda n: AmberSander("jac", n),
    "lj": lambda n: LammpsBench("lj", n),
    "chain": lambda n: LammpsBench("chain", n),
    "pop": Pop,
}

#: CLI/wire spellings of the Table 5 schemes (plus numactl aliases)
SCHEME_ALIASES: Dict[str, AffinityScheme] = {
    "default": AffinityScheme.DEFAULT,
    "one-local": AffinityScheme.ONE_MPI_LOCAL,
    "one-membind": AffinityScheme.ONE_MPI_MEMBIND,
    "two-local": AffinityScheme.TWO_MPI_LOCAL,
    "two-membind": AffinityScheme.TWO_MPI_MEMBIND,
    "interleave": AffinityScheme.INTERLEAVE,
    "localalloc": AffinityScheme.TWO_MPI_LOCAL,
}


def resolve_system(name: str) -> MachineSpec:
    """A machine spec by paper name (tiger/dmz/longs)."""
    try:
        return by_name(name)
    except (KeyError, ValueError) as exc:
        raise UnknownNameError(f"unknown system {name!r}") from exc


def resolve_workload(name: str, ntasks: int, **params) -> object:
    """Instantiate a registered workload for ``ntasks`` MPI tasks.

    ``synthetic`` additionally accepts a declarative spec dict (the
    ``characterize_your_app`` path) via ``spec=``.
    """
    if name == "synthetic":
        spec = params.get("spec")
        if not isinstance(spec, dict):
            raise UnknownNameError("workload 'synthetic' needs a "
                                   "'spec' dict parameter")
        return SyntheticWorkload.from_spec(spec)
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown workload {name!r}; choose from "
            f"{', '.join(sorted(WORKLOADS))} or 'synthetic'") from None
    return factory(ntasks)


def resolve_scheme_name(name: str) -> AffinityScheme:
    """An affinity scheme from its CLI/wire spelling."""
    try:
        return SCHEME_ALIASES[name.lower()]
    except KeyError:
        raise UnknownNameError(
            f"unknown scheme {name!r}; choose from "
            f"{', '.join(sorted(SCHEME_ALIASES))}") from None


def _synthetic_spec(workload: Any) -> Dict[str, Any]:
    """The declarative spec dict of a synthetic workload, verified."""
    from ..core.cache import canonical_token

    spec = {"name": workload.name, "ntasks": workload.ntasks,
            "ops": [dict(op) for op in workload.ops],
            "steps": workload.steps,
            "simulated_steps": workload.simulated_steps}
    if canonical_token(SyntheticWorkload.from_spec(spec)) \
            != canonical_token(workload):
        raise ProtocolError(
            "synthetic workload does not round-trip through its spec")
    return spec


def wire_cell_for(request: Any) -> Dict[str, Any]:
    """The name-based wire cell of one executor request (reverse lookup).

    The wire protocol spells cells by registry *name*; an arbitrary
    :class:`~repro.core.parallel.JobRequest` may carry values that have
    none — an explicit resolved affinity, a fault plan, a non-default
    MPI implementation, an unregistered workload object.  Those raise
    :class:`~repro.errors.ProtocolError`; the remote execution backend
    folds that into a per-cell failure instead of poisoning the batch.

    Every resolution is *verified by canonical token*, never assumed
    from a name attribute: the cell this function emits rebuilds (via
    :func:`~repro.service.protocol.cell_from_wire`) into a request with
    the same content address, so results computed remotely land under
    the same cache key bit for bit.
    """
    from ..core.cache import Uncacheable, canonical_token

    if request.affinity is not None:
        raise ProtocolError(
            "explicit resolved affinity has no wire spelling")
    if request.faults is not None:
        raise ProtocolError("fault plans are not carried on the wire")
    if request.profile:
        raise ProtocolError("profiled cells are not carried on the wire")
    try:
        if request.impl is not None and canonical_token(request.impl) \
                != canonical_token(_default_impl()):
            raise ProtocolError(
                f"MPI implementation {request.impl!r} has no wire "
                f"spelling (the wire always means the default)")

        system_name = str(request.spec.name).lower()
        try:
            candidate = by_name(system_name)
        except (KeyError, ValueError):
            raise ProtocolError(
                f"system {request.spec.name!r} is not in the registry")
        if canonical_token(candidate) != canonical_token(request.spec):
            raise ProtocolError(
                f"system spec differs from the registered "
                f"{system_name!r} machine")

        token = canonical_token(request.workload)
        ntasks = int(request.workload.ntasks)
        workload_name = None
        params: Dict[str, Any] = {}
        for name, factory in WORKLOADS.items():
            try:
                if canonical_token(factory(ntasks)) == token:
                    workload_name = name
                    break
            except Exception:
                continue
        if workload_name is None and isinstance(request.workload,
                                                SyntheticWorkload):
            workload_name = "synthetic"
            params = {"spec": _synthetic_spec(request.workload)}
        if workload_name is None:
            raise ProtocolError(
                f"workload {type(request.workload).__name__} for "
                f"{ntasks} task(s) matches no registry entry")
    except Uncacheable as exc:
        raise ProtocolError(
            f"cell has no canonical form: {exc}") from exc

    scheme_name = None
    for alias, scheme in SCHEME_ALIASES.items():
        if scheme is request.scheme:
            scheme_name = alias  # first alias wins ("two-local", not
            break                # its "localalloc" numactl synonym)
    if scheme_name is None:
        raise ProtocolError(
            f"scheme {request.scheme!r} has no wire spelling")

    cell: Dict[str, Any] = {"system": system_name,
                            "workload": workload_name,
                            "ntasks": ntasks, "scheme": scheme_name,
                            # explicit tier: the remote side must never
                            # substitute its own process-wide default
                            "tier": request.tier or "exact"}
    if params:
        cell["params"] = params
    if request.lock is not None:
        cell["lock"] = request.lock
    if request.parked:
        cell["parked"] = int(request.parked)
    return cell


def _default_impl():
    from ..mpi import OPENMPI

    return OPENMPI
