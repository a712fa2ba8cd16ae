"""Real-parallel execution backend for the six-step sample sort.

Where :mod:`repro.simnet` runs the paper's algorithm on a deterministic
virtual-time simulator, this package runs it on real hardware: one worker
process per rank, the data plane in shared memory, the control plane in a
shared-memory control region (pipes carry only job dispatch and reports).  The same step implementations produce bit-identical partitions on
both substrates; only the clock differs (virtual vs wall).

Layout:

* :mod:`repro.parallel.arena` — cross-process shared-memory arena with
  pooled, leased numpy blocks (``ScratchArena`` across processes);
* :mod:`repro.parallel.collectives` — barrier / gather / bcast /
  allgather through a shared-memory control region, heartbeat rows, and
  the driver hub that watches liveness, deadlines and beats;
* :mod:`repro.parallel.worker` — the persistent per-rank job loop: one
  function per step, the zero-copy shm all-to-all exchange, the warm
  segment cache; what a job sorts, exchanges and merges (packed words /
  keys + perm) is :mod:`repro.core.datapath`'s, shared with simnet, over
  views of the job's leases;
* :mod:`repro.parallel.splitter_cache` — the splitter-cache protocol:
  the driver's :class:`SplitterCache` and the workers' probe;
* :mod:`repro.parallel.backend` — the two substrates, each an object with
  one ``sort_blocks`` (:class:`SimnetBackend`; :class:`ProcessBackend`, a
  persistent worker pool), and ambient selection by name or instance;
* :mod:`repro.parallel.run` — :class:`BackendRun`, one finished job, and
  its zero-copy assembly from the job's leases;
* :mod:`repro.parallel.errors` — typed failures (worker crash, remote
  exception, control-plane timeout, retry exhaustion) in place of hangs;
  job retry and survivor-degraded recovery above one attempt are
  :mod:`repro.core.retry`'s, shared with simnet;
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
    SimnetBackend,
    default_backend,
    resolve_backend,
    use_backend,
)
from ..core.retry import RetryPolicy
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
    "RetryPolicy",
    "SegmentCache",
    "SharedArena",
    "ShmLease",
    "ShmSan",
    "SimnetBackend",
    "SplitterCache",
    "WorkerCrashedError",
    "WorkerFailedError",
    "WorkerReport",
    "WorkerTrace",
    "WorkerTracer",
    "active_shm_sanitizer",
    "ambient_progress",
    "attach",
    "default_backend",
    "estimate_clock_offset",
    "exchange_layout",
    "merge_worker_traces",
    "peak_rss_bytes",
    "resolve_backend",
    "shm_sanitize",
    "use_backend",
    "use_progress",
]
