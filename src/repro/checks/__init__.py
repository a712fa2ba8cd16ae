"""repro-lint: repo-specific static analysis guarding reproducibility.

The reproduction's headline guarantee is bit-identical determinism of the
simulated six-step sort.  Two bug classes threaten it and are invisible to
generic linters:

* **nondeterminism leaks** — unseeded RNG, wall-clock/entropy reads, or
  iteration over hash-ordered sets anywhere the result can reach simulated
  event order;
* **comm-API misuse** — the :mod:`repro.simnet` communicator is generator
  based, so a ``comm.isend(...)`` call without ``yield from`` is a silent
  no-op, and a :class:`~repro.simnet.mpi.SimRequest` that is assigned but
  never ``wait()``/``test()``-ed usually marks a lost completion check;
* **shm discipline** (the parallel-aware rules) — in the real-parallel
  backend, a leaked or retained shared-memory lease, exchange offsets
  computed outside the one layout helper, or an ad-hoc ``multiprocessing``
  primitive all undermine the disjoint-write contract the zero-copy
  all-to-all depends on; a thread started outside the run's kernel pool
  could outlive the run.

``repro-lint`` encodes these as AST rules R001–R013 (see
:mod:`repro.checks.rules` for the catalog) with line-level suppression via
``# repro: noqa[Rxxx]`` comments.  Run it as::

    python -m repro.checks src tests            # human-readable report
    python -m repro.checks src tests --json     # machine-readable report

The report's exit code is a bitmask with one bit per firing rule
(R001 -> 1, R002 -> 2, ..., R013 -> 4096; the next bit,
:data:`~repro.checks.runner.PARSE_ERROR_BIT`, marks parse errors); 0
means clean.  The *process* exit status clamps any mask >= 256 to 255
(POSIX statuses are 8-bit; an unclamped 4096 would wrap to "clean") —
the full mask is in the ``--json`` report.  CI gates on it.

The static half cannot see through dynamic dispatch, so it is paired with
two runtime sanitizers catching the same bug classes in executed
programs: **SimSan** (:mod:`repro.simnet.sanitizer`) for the simulated
comm layer, and **ShmSan** (:mod:`repro.parallel.shmsan`, analysis in
:mod:`repro.checks.hb`) — a barrier-epoch happens-before race detector
for the process backend's shared-memory data plane.
"""

from .rules import RULES, Violation
from .runner import lint_file, lint_paths, lint_source, main

__all__ = [
    "RULES",
    "Violation",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
]
