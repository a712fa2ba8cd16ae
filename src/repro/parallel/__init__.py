"""Real-parallel execution backend for the six-step sample sort.

Where :mod:`repro.simnet` runs the paper's algorithm on a deterministic
virtual-time simulator, this package runs it on real hardware: one worker
process per rank, the data plane in shared memory, the control plane over
pipes.  The same step implementations produce bit-identical partitions on
both substrates; only the clock differs (virtual vs wall).

Layout:

* :mod:`repro.parallel.arena` — cross-process shared-memory arena with
  pooled, leased numpy blocks (``ScratchArena`` across processes);
* :mod:`repro.parallel.collectives` — pipe-based barrier / gather /
  bcast / allgather with a liveness-watching driver hub;
* :mod:`repro.parallel.worker` — the persistent per-rank job loop: one
  function per step, the zero-copy shm all-to-all exchange, the warm
  segment cache;
* :mod:`repro.parallel.datapath` — what a job sorts, exchanges and merges
  (packed words / keys + perm), chosen once in step 1;
* :mod:`repro.parallel.splitter_cache` — the splitter-cache protocol:
  the driver's :class:`SplitterCache` and the workers' probe;
* :mod:`repro.parallel.backend` — the backend abstraction
  (:class:`ProcessBackend` — a persistent worker pool — and ambient
  selection by name or instance);
* :mod:`repro.parallel.run` — :class:`BackendRun`, one finished job, and
  its zero-copy assembly from the job's leases;
* :mod:`repro.parallel.retry` — job retry (:class:`RetryPolicy`) and
  survivor-degraded recovery above one attempt;
* :mod:`repro.parallel.chaos` — deterministic process-level fault
  injection (:class:`RealFaultPlan`: seeded kills, hangs, reply delay
  spikes, heartbeat muting, slow ranks) mirroring the simnet
  ``FaultPlan`` grammar;
* :mod:`repro.parallel.errors` — typed failures (worker crash, remote
  exception, control-plane timeout, retry exhaustion) in place of hangs;
* :mod:`repro.parallel.layout` — the counts-matrix exchange layout: the
  single source of every (src, dst) run's offset in the shm stream;
* :mod:`repro.parallel.shmsan` — ShmSan, the happens-before race
  detector for the shm data plane (access recording, barrier-epoch
  analysis via :mod:`repro.checks.hb`, seeded mutations);
* :mod:`repro.parallel.tracing` — cross-process observability: per-worker
  event recording, the clock-offset handshake, parent-side trace merging
  into the :mod:`repro.obs` schema, and the live-progress heartbeat sink.

This package reads the real clock (``time.perf_counter``) on purpose —
measured wall time is its product — but it is *not* exempt from
repro-lint: every legitimate timing site carries a per-line
``# repro: noqa[R002]``, and the parallel-aware rules R009–R012 (lease
scoping, arena-view retention, offsets-through-the-layout-helper, no
ad-hoc multiprocessing primitives outside :mod:`~repro.parallel.collectives`)
apply here like everywhere else in the library.
"""

from .arena import AttachedLease, SharedArena, ShmLease, attach
from .backend import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    default_backend,
    resolve_backend,
    use_backend,
)
from .retry import RetryPolicy
from .run import BackendRun, ProcessRunHandle
from .splitter_cache import SplitterCache
from .layout import ExchangeLayout, exchange_layout
from .shmsan import (
    MUTATIONS,
    ShmSan,
    active_shm_sanitizer,
    shm_sanitize,
)
from .tracing import (
    WorkerTrace,
    WorkerTracer,
    ambient_progress,
    estimate_clock_offset,
    merge_worker_traces,
    peak_rss_bytes,
    use_progress,
)
from .chaos import (
    RealFaultPlan,
    active_real_fault_plan,
    inject_real_faults,
    kill_one_per_job,
)
from .errors import (
    ControlPlaneTimeout,
    JobAbortedError,
    ParallelBackendError,
    PoolClosedError,
    ProtocolError,
    WorkerCrashedError,
    WorkerFailedError,
)
from .worker import JobSpec, SegmentCache, WorkerReport

__all__ = [
    "AttachedLease",
    "BACKENDS",
    "BackendRun",
    "ControlPlaneTimeout",
    "ExchangeLayout",
    "ExecutionBackend",
    "JobAbortedError",
    "JobSpec",
    "MUTATIONS",
    "ParallelBackendError",
    "PoolClosedError",
    "ProcessBackend",
    "ProcessRunHandle",
    "ProtocolError",
    "RealFaultPlan",
    "RetryPolicy",
    "SegmentCache",
    "SharedArena",
    "ShmLease",
    "ShmSan",
    "SplitterCache",
    "WorkerCrashedError",
    "WorkerFailedError",
    "WorkerReport",
    "WorkerTrace",
    "WorkerTracer",
    "active_real_fault_plan",
    "active_shm_sanitizer",
    "ambient_progress",
    "attach",
    "default_backend",
    "estimate_clock_offset",
    "exchange_layout",
    "inject_real_faults",
    "kill_one_per_job",
    "merge_worker_traces",
    "peak_rss_bytes",
    "resolve_backend",
    "shm_sanitize",
    "use_backend",
    "use_progress",
]
