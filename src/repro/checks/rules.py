"""Rule catalog for ``repro-lint``.

Each rule is a function ``rule(tree, ctx) -> Iterator[Violation]`` registered
in :data:`RULES` under its ID.  Rules are purely syntactic (no type
inference): they are tuned to this repository's idioms and err on the side
of silence, with ``# repro: noqa[Rxxx]`` as the escape hatch for the rare
intentional match (the suppression comment must carry a justification —
reviewers treat a bare one as a bug).

Catalog
-------

R001  unseeded RNG: legacy global ``np.random.*`` / stdlib ``random.*``
      calls, or ``default_rng()`` without a seed.
R002  wall-clock or entropy reads (``time.time``, ``datetime.now``,
      ``os.urandom``, ``uuid.uuid1/4``, ``secrets.*``) inside library
      code (``src/repro/``); tests and benchmarks are exempt.  The
      real-parallel backend (``src/repro/parallel/``) is **not** exempt:
      wall-clock timing is its purpose, but every legitimate site must
      carry a per-line ``# repro: noqa[R002]`` with a justification, so
      new parallel code is under the rule by default.  Observability
      code outside ``parallel/`` — all of ``src/repro/obs/`` included —
      must stay on the virtual clock, no escape hatch expected.
R003  iteration over a hash-ordered ``set``/``frozenset`` expression where
      the order can reach simulated event order (``for``/comprehension
      sources and ``list``/``tuple``/``enumerate`` arguments); wrap in
      ``sorted(...)`` to fix.
R004  calling a generator-returning ``SimComm`` method (``send``, ``isend``,
      ``recv``, ``bcast``, ``alltoall``, ...) without driving it via
      ``yield from`` — the call builds a generator and silently discards it.
R005  a ``SimRequest`` assigned from ``yield from <comm>.isend(...)`` that
      is never ``wait()``/``test()``-ed (or otherwise used) in the function.
R006  ``except:`` / ``except Exception`` with no re-raise — swallows
      :mod:`repro.simnet.errors` types (``DeadlockError`` diagnosis,
      ``ProcessFailure``) that must surface.
R007  mutable default argument (``def f(x=[])``) — shared across calls and
      across simulated ranks.
R008  retry loop without a bound: a ``while`` loop in ``src/repro`` that
      increments a retry-flavored counter (``attempt``, ``retries``, ...)
      but never compares it (or a ``max_*`` cap) inside the loop — under
      fault injection such a loop retransmits forever.  Applies to
      ``repro.parallel`` too (its retry machinery spins real processes);
      intentionally counter-free loops there carry ``noqa[R008]``.

Parallel-aware rules (library scope; these replaced the old blanket
``parallel/`` exemption with real analysis):

R009  shm acquisition discarded: an arena ``.lease(...)`` / ``.view(...)``
      or ``attach(...)`` call whose result is thrown away — nobody can
      release, close, or even use the mapping, so the segment leaks until
      arena teardown.
R010  arena ndarray view stored on ``self``: ``self.x = arena.view(...)``
      (or ``attach(...)``) retains a mapping across steps and sorts — the
      lease returns to the pool at ``release_all`` and the stored view
      silently aliases the *next* sort's bytes (ShmSan's ``stale-view``
      finding, caught statically).
R011  hand-rolled exchange offsets: prefix sums over a counts matrix
      (``cumsum`` touching a ``counts``-named value) in the real-parallel
      backend outside :func:`repro.parallel.layout.exchange_layout` — every
      cross-process shm write must derive its offsets from the one layout
      helper ShmSan checks against.
R012  direct multiprocessing coordination primitive (``Lock``, ``Queue``,
      ``Event``, ``Pool``, ``Manager``, ...) outside
      ``parallel/collectives.py`` — ad-hoc synchronization bypasses the
      pipe-star hub, invisible to the barrier-epoch happens-before model
      (and to the crash detector's liveness watch).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Violation:
    """One rule match: where it fired and why."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


@dataclass
class FileContext:
    """Per-file facts rules may consult."""

    path: str
    #: True for library code under ``src/repro`` (not tests/benchmarks):
    #: the scope where wall-clock reads (R002) are banned — in
    #: ``repro.parallel`` each deliberate timing site carries a per-line
    #: ``# repro: noqa[R002]`` instead of a blanket exemption.
    simulated: bool
    #: True for the real-parallel backend (``src/repro/parallel``), whose
    #: collectives are blocking methods rather than SimComm generators and
    #: whose loops are bounded by wall-clock timeouts rather than retry caps.
    realtime: bool = False
    #: True for any ``src/repro`` library file (the R009–R012 scope; unlike
    #: ``simulated`` it never excludes subpackages).
    library: bool = False


RuleFn = Callable[[ast.Module, FileContext], Iterator[Violation]]

RULES: dict[str, RuleFn] = {}

#: One-line summaries, rendered by ``--list-rules`` and the JSON report.
RULE_SUMMARIES: dict[str, str] = {}


def _rule(rule_id: str, summary: str) -> Callable[[RuleFn], RuleFn]:
    def register(fn: RuleFn) -> RuleFn:
        RULES[rule_id] = fn
        RULE_SUMMARIES[rule_id] = summary
        return fn

    return register


def _dotted(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything dynamic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------------- R001

_LEGACY_NP_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "choice", "shuffle", "permutation", "seed", "uniform", "normal",
    "standard_normal", "exponential", "poisson", "binomial", "bytes",
    "integers",
}
_STDLIB_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "seed", "getrandbits", "randbytes",
}


@_rule("R001", "unseeded RNG (np.random.*, random.*, bare default_rng())")
def rule_unseeded_rng(tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
    """Every random draw must flow through ``default_rng(seed)``.

    The legacy global generators (``np.random.rand`` and friends, stdlib
    ``random``) share hidden process-wide state: results depend on call
    order across the whole program, so two runs that interleave work
    differently produce different data.  ``default_rng()`` without a seed
    pulls OS entropy — different on every run by construction.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None:
            continue
        if name in ("default_rng", "np.random.default_rng",
                    "numpy.random.default_rng"):
            if not node.args and not node.keywords:
                yield Violation(
                    "R001", ctx.path, node.lineno, node.col_offset,
                    "default_rng() without a seed draws OS entropy; "
                    "pass an explicit seed",
                )
            continue
        head, _, tail = name.rpartition(".")
        if head in ("np.random", "numpy.random") and tail in _LEGACY_NP_RANDOM:
            yield Violation(
                "R001", ctx.path, node.lineno, node.col_offset,
                f"legacy global-state RNG {name}(); "
                "use np.random.default_rng(seed)",
            )
        elif head == "random" and tail in _STDLIB_RANDOM:
            yield Violation(
                "R001", ctx.path, node.lineno, node.col_offset,
                f"stdlib global-state RNG {name}(); "
                "use np.random.default_rng(seed)",
            )


# --------------------------------------------------------------------- R002

_WALLCLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.clock_gettime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
}


@_rule("R002", "wall-clock/entropy read inside library code")
def rule_wallclock(tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
    """Library code must read only the virtual clock (``yield Now()``).

    A ``time.time`` or ``datetime.now`` read inside ``src/repro/`` leaks host
    scheduling into values that can reach simulated event order or recorded
    results; ``os.urandom``/``uuid4``/``secrets`` are entropy by definition.
    Tests and benchmarks may time themselves; everything else in
    ``src/repro`` is in scope — including ``repro.parallel``, whose
    *measured wall time is the product*: there, every deliberate timing
    site licenses itself with a per-line ``# repro: noqa[R002]`` plus a
    justification, so new parallel code is under the rule by default
    rather than riding a blanket directory exemption.  :mod:`repro.obs`
    consumes measured times but must never *read* the clock itself; no
    suppression is expected outside ``parallel/``.
    """
    if not ctx.simulated:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None:
            continue
        if name in _WALLCLOCK_CALLS or name.startswith("secrets."):
            yield Violation(
                "R002", ctx.path, node.lineno, node.col_offset,
                f"wall-clock/entropy read {name}() in simulated code; "
                "use the virtual clock (yield Now()) or a seeded RNG",
            )


# --------------------------------------------------------------------- R003

_SET_BUILTINS = {"set", "frozenset"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_ORDER_SINKS = {"list", "tuple", "enumerate", "iter", "next"}


def _is_unordered(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in _SET_BUILTINS:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in _SET_METHODS:
            return True
    return False


@_rule("R003", "iteration over a hash-ordered set expression")
def rule_set_iteration(tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
    """Set iteration order is hash order — stable only per process.

    With string or object keys it varies across interpreter invocations
    (PYTHONHASHSEED), so a loop over a ``set`` that issues sends or builds a
    schedule produces a different event order per run.  Wrap the expression
    in ``sorted(...)`` to pin a total order.  Purely syntactic: only literal
    set expressions and ``set(...)``/``.union(...)``-style calls in an
    iteration position are flagged.
    """

    def check(iter_node: ast.expr) -> Iterator[Violation]:
        if _is_unordered(iter_node):
            yield Violation(
                "R003", ctx.path, iter_node.lineno, iter_node.col_offset,
                "iterating a set: hash order can leak into simulated event "
                "order; wrap in sorted(...)",
            )

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from check(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield from check(gen.iter)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _ORDER_SINKS and node.args):
            yield from check(node.args[0])


# --------------------------------------------------------------------- R004

#: SimComm methods that build generators and MUST be driven by yield from.
COMM_GENERATOR_METHODS = {
    "send", "isend", "recv", "recv_message", "probe", "iprobe", "sendrecv",
    "barrier", "bcast", "scatter", "gather", "allgather", "alltoall",
    "alltoallv", "reduce", "allreduce",
}
#: Method names unique enough to flag on ANY receiver; the generic ones
#: (send/recv/gather/...) collide with sockets, generators (gen.send),
#: and concurrent.futures, so those require a comm-ish receiver name.
_UNAMBIGUOUS_COMM_METHODS = {
    "isend", "iprobe", "sendrecv", "recv_message", "bcast", "allgather",
    "alltoall", "alltoallv", "allreduce",
}


def _receiver_is_comm(node: ast.expr) -> bool:
    name = _dotted(node)
    if name is None:
        return False
    return name.split(".")[-1].lower().endswith("comm")


@_rule("R004", "SimComm generator method called without `yield from`")
def rule_undriven_comm_call(tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
    """``comm.isend(...)`` without ``yield from`` is a silent no-op.

    SimComm methods are generator functions: calling one only *builds* the
    generator; nothing reaches the engine until it is driven.  The call must
    be the direct operand of a ``yield from`` (possibly inside
    ``x = yield from ...``).  Receivers are matched by name: any
    ``*comm``-named object, plus unambiguous method names (``isend``,
    ``bcast``, ``alltoall``, ...) on any receiver.  In ``repro.parallel``
    the name-only heuristic is off — its ``WorkerLink`` collectives share
    the SimComm vocabulary but are plain blocking methods — so only
    ``*comm``-named receivers are flagged there.
    """
    driven: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.YieldFrom):
            driven.add(id(node.value))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        method = func.attr
        if method not in COMM_GENERATOR_METHODS:
            continue
        if not _receiver_is_comm(func.value) and (
            ctx.realtime or method not in _UNAMBIGUOUS_COMM_METHODS
        ):
            continue
        if id(node) in driven:
            continue
        yield Violation(
            "R004", ctx.path, node.lineno, node.col_offset,
            f".{method}(...) builds a generator that is never driven; "
            "call it as `yield from ...`",
        )


# --------------------------------------------------------------------- R005


def _assigned_request_names(stmt: ast.stmt) -> list[tuple[str, int]]:
    """Names bound by ``name = yield from <x>.isend(...)`` in ``stmt``."""
    if isinstance(stmt, ast.Assign):
        value, targets = stmt.value, stmt.targets
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        value, targets = stmt.value, [stmt.target]
    else:
        return []
    if not (isinstance(value, ast.YieldFrom)
            and isinstance(value.value, ast.Call)
            and isinstance(value.value.func, ast.Attribute)
            and value.value.func.attr == "isend"):
        return []
    names = []
    for target in targets:
        if isinstance(target, ast.Name) and not target.id.startswith("_"):
            names.append((target.id, stmt.lineno))
    return names


@_rule("R005", "SimRequest assigned from isend() but never wait()/test()-ed")
def rule_unwaited_request(tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
    """An assigned-then-ignored request marks a lost completion check.

    ``req = yield from comm.isend(...)`` promises a later ``req.wait()`` /
    ``req.test()``; if ``req`` is never read again the author either meant
    fire-and-forget (drop the assignment, or bind to ``_``) or forgot the
    wait.  Any later read of the name (a wait, a return, appending to a
    list) counts as a use — escape analysis stops at the function boundary.
    """
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned: dict[str, int] = {}
        for stmt in ast.walk(fn):
            if isinstance(stmt, ast.stmt):
                for name, line in _assigned_request_names(stmt):
                    assigned.setdefault(name, line)
        if not assigned:
            continue
        used = {
            node.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name, line in sorted(assigned.items(), key=lambda kv: kv[1]):
            if name not in used:
                yield Violation(
                    "R005", ctx.path, line, fn.col_offset,
                    f"request {name!r} from isend() is never wait()/test()-ed "
                    "or otherwise used; drop the binding or check completion",
                )


# --------------------------------------------------------------------- R006

_BROAD_EXC_NAMES = {"Exception", "BaseException"}


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for t in types:
        name = _dotted(t)
        if name is not None and name.split(".")[-1] in _BROAD_EXC_NAMES:
            return True
    return False


@_rule("R006", "bare/overbroad except that can swallow simnet errors")
def rule_swallowed_sim_errors(tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
    """``except:`` and ``except Exception:`` catch :class:`SimError` too.

    A swallowed ``DeadlockError`` turns a diagnosable hang into silent
    wrong timing; a swallowed ``ProcessFailure`` hides the failing rank.
    Broad handlers are allowed only when the body re-raises (any ``raise``
    statement) — narrowing the type or re-raising is the fix.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _catches_broadly(node):
            continue
        if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
            continue
        label = "bare except:" if node.type is None else "except Exception"
        yield Violation(
            "R006", ctx.path, node.lineno, node.col_offset,
            f"{label} without re-raise swallows simnet.errors types "
            "(DeadlockError, ProcessFailure); narrow the type or re-raise",
        )


# --------------------------------------------------------------------- R007

_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _dotted(node.func)
        return name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES
    return False


@_rule("R007", "mutable default argument")
def rule_mutable_default(tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
    """Mutable defaults are evaluated once and shared across all calls.

    In this codebase that means shared across simulated *ranks*: one rank's
    append is visible to every other rank, which is both a correctness bug
    and a determinism hazard.  Use ``None`` plus an in-body default.
    """
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            if _is_mutable_default(default):
                yield Violation(
                    "R007", ctx.path, default.lineno, default.col_offset,
                    "mutable default argument is shared across calls (and "
                    "simulated ranks); default to None and build inside",
                )


_RETRY_COUNTERS = {
    "attempt", "attempts", "retry", "retries", "tries",
    "resend", "resends", "retransmit", "retransmits",
}


def _terminal_name(node: ast.expr) -> str | None:
    """``foo`` -> "foo", ``a.b.attempt`` -> "attempt", else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@_rule("R008", "retry loop without a bound (no retry-counter comparison)")
def rule_unbounded_retry(tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
    """A ``while`` loop that counts retries must also *bound* them.

    Under fault injection an unacked message can stay unacked forever; a
    retry loop whose counter is never compared against a cap spins (or
    retransmits) until the virtual clock ages out the whole run.  The rule
    fires on ``while`` loops in library code that increment a retry-flavored
    counter (``attempt``/``retries``/``resend``/...) when no comparison
    anywhere in the loop mentions a retry-flavored name — i.e. nothing like
    ``attempt >= max_retries`` ever breaks the cycle.  Scoped to library
    code (tests may hammer the protocol unboundedly on purpose) —
    *including* ``repro.parallel`` since the backend grew its own retry
    machinery: a real-backend retry loop spins actual OS processes, so an
    unbounded one burns cores, not virtual seconds.  The deliberate
    re-plan loop in ``retry.run_with_retry`` (bounded by the shrinking
    survivor set, not a counter) licenses itself with a per-line
    ``# repro: noqa[R008]``.
    """
    if not ctx.simulated:
        return
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.While):
            continue
        increments = [
            node
            for node in ast.walk(loop)
            if isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and _terminal_name(node.target) in _RETRY_COUNTERS
        ]
        if not increments:
            continue
        compared: set[str] = set()
        for node in ast.walk(loop):
            if isinstance(node, ast.Compare):
                for side in [node.left, *node.comparators]:
                    for sub in ast.walk(side):
                        name = _terminal_name(sub)
                        if name is not None:
                            compared.add(name)
        # `attempt >= cfg.max_retries` satisfies the bound either way: the
        # counter itself or a cap whose name embeds a retry word.
        bounded = any(
            any(word in name for word in _RETRY_COUNTERS) for name in compared
        )
        if not bounded:
            first = min(increments, key=lambda n: (n.lineno, n.col_offset))
            counter = _terminal_name(first.target)
            yield Violation(
                "R008", ctx.path, first.lineno, first.col_offset,
                f"retry counter {counter!r} is incremented but never compared "
                "against a cap in this loop; bound the retries (and back off) "
                "or the loop can spin forever under fault injection",
            )


# --------------------------------------------------------------------- R009

#: Shm-acquiring call shapes: ``<arena-ish>.lease(...)`` / ``.view(...)``
#: methods, and the module-level ``attach(lease)`` helper.
_SHM_ACQUIRE_METHODS = {"lease", "view"}
_SHM_ATTACH_NAMES = {"attach"}


def _shm_acquisition(node: ast.expr) -> str | None:
    """Name of the shm-acquiring call ``node`` is, or None.

    ``.lease``/``.view`` count only on an ``arena``-flavored receiver (so
    numpy's own ``ndarray.view`` never matches); ``attach`` counts as a
    bare name or an ``arena``-module attribute.
    """
    if not isinstance(node, ast.Call):
        return None
    name = _dotted(node.func)
    if name is None:
        return None
    head, _, tail = name.rpartition(".")
    if tail in _SHM_ACQUIRE_METHODS and "arena" in head.lower():
        return name
    if tail in _SHM_ATTACH_NAMES and (not head or "arena" in head.lower()):
        return name
    return None


@_rule("R009", "shm lease/view/attach result discarded (unmanageable segment)")
def rule_discarded_shm_acquisition(
    tree: ast.Module, ctx: FileContext
) -> Iterator[Violation]:
    """An unbound shm acquisition can never be released or closed.

    ``arena.lease(...)``, ``arena.view(...)`` and ``attach(lease)`` hand
    back the only handle to a shared-memory mapping; evaluating one as a
    bare expression statement discards that handle, so the lease escapes
    every scope that could return it to the pool — the segment (or the
    worker-side mapping) leaks until arena teardown.  Bind the result, or
    don't acquire.
    """
    if not ctx.library:
        return
    for stmt in ast.walk(tree):
        if not isinstance(stmt, ast.Expr):
            continue
        name = _shm_acquisition(stmt.value)
        if name is not None:
            yield Violation(
                "R009", ctx.path, stmt.lineno, stmt.col_offset,
                f"result of {name}(...) is discarded: the lease/mapping "
                "escapes every scope that could release it; bind it (and "
                "release/close it) or drop the acquisition",
            )


# --------------------------------------------------------------------- R010


@_rule("R010", "arena ndarray view stored on self (outlives its lease)")
def rule_view_stored_on_self(
    tree: ast.Module, ctx: FileContext
) -> Iterator[Violation]:
    """``self.x = arena.view(...)`` retains a mapping across steps.

    Arena views are valid only while their lease is live; ``release_all``
    returns the lease to the pool and the next sort re-leases the same
    segment, so a view stored on an object silently aliases *different
    data* later — the dynamic ``stale-view`` finding ShmSan reports,
    caught statically.  Keep views in local scope and re-derive them from
    the lease each step.
    """
    if not ctx.library:
        return
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        else:
            continue
        name = _shm_acquisition(value)
        if name is None:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield Violation(
                    "R010", ctx.path, stmt.lineno, stmt.col_offset,
                    f"self.{target.attr} = {name}(...) stores an arena view "
                    "on the instance: it outlives the lease and aliases the "
                    "next sort's bytes after release_all; keep views local "
                    "to the step that derives them",
                )


# --------------------------------------------------------------------- R011


@_rule("R011", "hand-rolled exchange offsets outside the layout helper")
def rule_handrolled_offsets(
    tree: ast.Module, ctx: FileContext
) -> Iterator[Violation]:
    """Counts-matrix prefix sums belong in ``exchange_layout`` alone.

    The disjoint-write contract of the zero-copy all-to-all holds only
    because every rank — and ShmSan's analyzer — derives each (src, dst)
    run's home from the *same* arithmetic.  A ``cumsum`` over a
    ``counts``-named value inside the real-parallel backend (outside
    ``parallel/layout.py`` itself, the helper's one sanctioned home) is a
    second copy of that arithmetic waiting to drift; call the helper and
    take ``run_offset``/``region`` from it.
    """
    if not (ctx.library and ctx.realtime) or ctx.path.replace(
        "\\", "/"
    ).endswith("parallel/layout.py"):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None or name.split(".")[-1] != "cumsum":
            continue
        # Scan the receiver too: ``all_counts.cumsum(axis=0)`` carries the
        # counts value on the method side, not in the arguments.
        mentions_counts = any(
            isinstance(sub, ast.Name) and "counts" in sub.id.lower()
            for root in [node.func, *node.args, *[kw.value for kw in node.keywords]]
            for sub in ast.walk(root)
        )
        if mentions_counts:
            yield Violation(
                "R011", ctx.path, node.lineno, node.col_offset,
                "prefix sum over a counts matrix outside exchange_layout: "
                "shm write offsets must come from "
                "repro.parallel.layout.exchange_layout (run_offset/region), "
                "the arithmetic ShmSan verifies against",
            )


# --------------------------------------------------------------------- R012

#: Coordination primitives that bypass the pipe-star hub.  Deliberately
#: excludes the sanctioned spawn machinery (``get_context``, ``Process``,
#: ``Pipe``) and the data plane (``shared_memory``) — the rule targets
#: *synchronization*, which must flow through the collectives.
_MP_COORDINATION = {
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition", "Event",
    "Barrier", "Queue", "JoinableQueue", "SimpleQueue", "Pool", "Manager",
    "Value", "Array",
}
_MP_RECEIVER_HINTS = ("multiprocessing", "mp", "ctx", "_ctx")


@_rule("R012", "multiprocessing coordination primitive outside collectives.py")
def rule_adhoc_mp_primitive(
    tree: ast.Module, ctx: FileContext
) -> Iterator[Violation]:
    """All cross-process coordination goes through the pipe-star hub.

    A ``multiprocessing.Lock``/``Queue``/``Event`` (or the same off a
    spawn context) creates an ordering edge the barrier-epoch
    happens-before model cannot see — ShmSan would report phantom races
    or, worse, miss real ones — and a blocking primitive the hub's
    liveness watch cannot time out.  ``parallel/collectives.py`` is the
    one sanctioned home for cross-process coordination; everything else
    synchronizes via its gather/bcast/allgather/barrier.
    """
    if not ctx.library or ctx.path.replace("\\", "/").endswith(
        "parallel/collectives.py"
    ):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None:
            continue
        head, _, tail = name.rpartition(".")
        if tail not in _MP_COORDINATION or not head:
            continue
        segments = head.lower().split(".")
        if any(hint in segments for hint in _MP_RECEIVER_HINTS):
            yield Violation(
                "R012", ctx.path, node.lineno, node.col_offset,
                f"{name}() is ad-hoc cross-process coordination: it is "
                "invisible to the barrier-epoch happens-before model and "
                "the hub's liveness watch; synchronize through "
                "repro.parallel.collectives instead",
            )
