"""repro: reproduction of "Characterization of Scientific Workloads on
Systems with Multi-Core Processors" (Alam, Barrett, Kuehn, Roth, Vetter;
IISWC 2006).

The package provides:

* :mod:`repro.machine` — parameterized multi-core NUMA machine models of
  the paper's three evaluation systems (Tiger, DMZ, Longs);
* :mod:`repro.numa` / :mod:`repro.osmodel` — `numactl`-style page
  placement policies and a Linux scheduler model;
* :mod:`repro.mpi` — a simulated MPI runtime with implementation
  profiles (MPICH2/LAM/OpenMPI) and locking sub-layers (SysV/USysV);
* :mod:`repro.kernels` / :mod:`repro.workloads` — instrumented
  scientific kernels (STREAM, BLAS, FFT, CG, RandomAccess, PTRANS, HPL)
  and the benchmark suites built on them (lmbench STREAM, HPCC, Intel
  MPI Benchmarks, NAS CG/FT);
* :mod:`repro.apps` — molecular-dynamics (AMBER-like, LAMMPS-like) and
  ocean-model (POP-like) applications;
* :mod:`repro.core` — the characterization toolkit: affinity schemes,
  the cell value and its executor, metrics, reports;
* :mod:`repro.bench` — one generator per paper table and figure.

Every package exports its names lazily (:mod:`repro._lazy`): ``import
repro`` loads no subpackage module, and a name's module loads on its
first access, so a cached ``repro-bench`` run never loads the engine.

Quickstart::

    from repro.machine import longs
    from repro.core import AffinityScheme, run_workload
    from repro.workloads.nas import NasCG

    result = run_workload(longs(), NasCG(ntasks=8),
                          AffinityScheme.ONE_MPI_LOCAL)
    print(result.wall_time)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("AffinityScheme", "JobResult", "run_workload"),
    ".machine": ("by_name", "dmz", "longs", "tiger"),
}, submodules=(
    "core", "machine", "mpi", "numa", "osmodel", "sim",
))
__all__.append("__version__")
