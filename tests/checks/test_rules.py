"""Per-rule positive/negative tests for ``repro-lint``.

Every rule R001–R013 has at least one *positive* case (fires on a minimal
bad snippet) and one *negative* case (silent on the fixed version), as the
correctness-tooling acceptance criteria require.  Snippets are linted via
:func:`repro.checks.lint_source` with a path inside ``src/repro`` so the
library-scoped rules (R002, R009–R013) apply; the parallel-aware rules
additionally use a path under ``src/repro/parallel``.
"""

import textwrap

from repro.checks import lint_source

LIB = "src/repro/somemodule.py"  # library scope: all rules apply
TEST = "tests/some_test.py"  # test scope: R002 exempt


def rules_in(source: str, filename: str = LIB) -> list[str]:
    violations, _ = lint_source(textwrap.dedent(source), filename)
    return [v.rule for v in violations]


class TestR001UnseededRng:
    def test_fires_on_legacy_np_random(self):
        assert rules_in("import numpy as np\nx = np.random.rand(4)\n") == ["R001"]

    def test_fires_on_stdlib_random(self):
        assert rules_in("import random\nx = random.randint(0, 9)\n") == ["R001"]

    def test_fires_on_bare_default_rng(self):
        assert rules_in(
            "import numpy as np\nrng = np.random.default_rng()\n"
        ) == ["R001"]

    def test_silent_on_seeded_default_rng(self):
        assert rules_in(
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "x = rng.integers(0, 9, 4)\n"
        ) == []


class TestR002WallClock:
    def test_fires_on_time_time_in_library(self):
        assert rules_in("import time\nt = time.time()\n") == ["R002"]

    def test_fires_on_datetime_now(self):
        assert rules_in(
            "import datetime\nt = datetime.datetime.now()\n"
        ) == ["R002"]

    def test_fires_on_os_urandom(self):
        assert rules_in("import os\nb = os.urandom(8)\n") == ["R002"]

    def test_silent_outside_library_scope(self):
        assert rules_in("import time\nt = time.time()\n", filename=TEST) == []

    def test_silent_on_virtual_clock(self):
        assert rules_in(
            "def program(proc):\n    t = yield Now()\n    return t\n"
        ) == []


class TestR003SetIteration:
    def test_fires_on_for_over_set_literal(self):
        assert rules_in(
            "def f(a, b, c):\n"
            "    for x in {a, b, c}:\n"
            "        print(x)\n"
        ) == ["R003"]

    def test_fires_on_list_of_set_call(self):
        assert rules_in("def f(items):\n    return list(set(items))\n") == ["R003"]

    def test_fires_in_comprehension_source(self):
        assert rules_in(
            "def f(xs):\n    return [x + 1 for x in set(xs)]\n"
        ) == ["R003"]

    def test_silent_when_sorted(self):
        assert rules_in(
            "def f(items):\n"
            "    for x in sorted(set(items)):\n"
            "        print(x)\n"
        ) == []


class TestR004UndrivenCommCall:
    def test_fires_on_isend_without_yield_from(self):
        assert rules_in(
            "def program(comm):\n"
            "    comm.isend([1], dest=1)\n"
            "    yield\n"
        ) == ["R004"]

    def test_fires_on_generic_method_with_comm_receiver(self):
        assert rules_in(
            "def program(comm):\n"
            "    comm.recv(source=0)\n"
            "    yield\n"
        ) == ["R004"]

    def test_silent_when_driven(self):
        assert rules_in(
            "def program(comm):\n"
            "    data = yield from comm.recv(source=0)\n"
            "    yield from comm.isend(data, dest=1)\n"
            "    return data\n"
        ) == []

    def test_silent_on_generator_send(self):
        # gen.send is the generator protocol, not a comm method.
        assert rules_in(
            "def drive(gen):\n    return gen.send(None)\n"
        ) == []


class TestR005UnwaitedRequest:
    def test_fires_on_assigned_never_used_request(self):
        assert rules_in(
            "def program(comm):\n"
            "    req = yield from comm.isend([1], dest=1)\n"
            "    return None\n"
        ) == ["R005"]

    def test_silent_when_waited(self):
        assert rules_in(
            "def program(comm):\n"
            "    req = yield from comm.isend([1], dest=1)\n"
            "    req.wait()\n"
            "    return None\n"
        ) == []

    def test_silent_when_request_escapes(self):
        assert rules_in(
            "def program(comm, pending):\n"
            "    req = yield from comm.isend([1], dest=1)\n"
            "    pending.append(req)\n"
            "    return None\n"
        ) == []

    def test_silent_on_underscore_binding(self):
        assert rules_in(
            "def program(comm):\n"
            "    _ = yield from comm.isend([1], dest=1)\n"
            "    return None\n"
        ) == []


class TestR006SwallowedSimErrors:
    def test_fires_on_bare_except(self):
        assert rules_in(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        pass\n"
        ) == ["R006"]

    def test_fires_on_broad_except_without_reraise(self):
        assert rules_in(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        log()\n"
        ) == ["R006"]

    def test_silent_when_body_reraises(self):
        assert rules_in(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception as exc:\n"
            "        log(exc)\n"
            "        raise\n"
        ) == []

    def test_silent_on_narrow_except(self):
        assert rules_in(
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"
        ) == []


class TestR007MutableDefault:
    def test_fires_on_list_default(self):
        assert rules_in("def f(x, acc=[]):\n    return acc\n") == ["R007"]

    def test_fires_on_dict_call_default(self):
        assert rules_in("def f(x, opts=dict()):\n    return opts\n") == ["R007"]

    def test_silent_on_none_default(self):
        assert rules_in(
            "def f(x, acc=None):\n"
            "    acc = [] if acc is None else acc\n"
            "    return acc\n"
        ) == []

    def test_silent_on_immutable_defaults(self):
        assert rules_in("def f(x=0, y=(), name='n'):\n    return x\n") == []


class TestR008UnboundedRetry:
    def test_fires_on_unbounded_retry_loop(self):
        src = """
        def pump(self):
            while True:
                self.attempt += 1
                resend()
        """
        assert rules_in(src) == ["R008"]

    def test_fires_on_retries_counter_without_cap(self):
        src = """
        def pump(ready):
            retries = 0
            while not ready():
                retries += 1
        """
        assert rules_in(src) == ["R008"]

    def test_silent_when_counter_is_compared(self):
        src = """
        def pump(self, cfg):
            while True:
                if self.attempt >= cfg.max_retries:
                    break
                self.attempt += 1
        """
        assert rules_in(src) == []

    def test_silent_when_cap_name_embeds_retry_word(self):
        src = """
        def pump(sent, max_retries):
            attempt = 0
            while attempt < max_retries:
                attempt += 1
                sent()
        """
        assert rules_in(src) == []

    def test_silent_on_non_retry_counters(self):
        src = """
        def pump(items):
            total = 0
            while items:
                total += 1
                items.pop()
        """
        assert rules_in(src) == []

    def test_silent_outside_library_scope(self):
        src = """
        def hammer(self):
            while True:
                self.attempt += 1
        """
        assert rules_in(src, TEST) == []

    def test_noqa_suppresses(self):
        src = (
            "def pump(self):\n"
            "    while True:\n"
            "        self.attempt += 1  # repro: noqa[R008] — bounded by caller\n"
        )
        violations, suppressed = lint_source(src, LIB)
        assert violations == []
        assert suppressed == 1


PARALLEL = "src/repro/parallel/somemodule.py"  # realtime library scope


class TestParallelScopes:
    """The narrowed exemptions: parallel/ is back under R002/R008 rules."""

    def test_r002_fires_in_parallel_without_noqa(self):
        assert rules_in(
            "import time\nt = time.perf_counter()\n", PARALLEL
        ) == ["R002"]

    def test_r002_noqa_licenses_a_parallel_timing_site(self):
        src = (
            "import time\n"
            "t = time.perf_counter()  # repro: noqa[R002] — measured wall time\n"
        )
        violations, suppressed = lint_source(src, PARALLEL)
        assert violations == []
        assert suppressed == 1

    def test_r008_fires_in_parallel_without_noqa(self):
        # The old blanket skip is gone: since the backend grew retry
        # machinery, an unbounded retry loop in parallel/ spins real OS
        # processes and must be flagged like anywhere else in the library.
        src = """
        def pump(self):
            while True:
                self.attempt += 1
        """
        assert rules_in(src, PARALLEL) == ["R008"]

    def test_r008_noqa_licenses_a_parallel_retry_loop(self):
        src = (
            "def replan(self):\n"
            "    while True:\n"
            "        self.retries += 1  # repro: noqa[R008] — bounded by the shrinking survivor set\n"
        )
        violations, suppressed = lint_source(src, PARALLEL)
        assert violations == []
        assert suppressed == 1

    def test_r008_silent_on_bounded_parallel_retry_loop(self):
        src = """
        def pump(self, policy):
            attempt = 0
            while attempt < policy.max_attempts:
                attempt += 1
        """
        assert rules_in(src, PARALLEL) == []


class TestR009DiscardedShmAcquisition:
    def test_fires_on_discarded_lease(self):
        src = """
        def f(arena):
            arena.lease(64, "int64")
        """
        assert rules_in(src, PARALLEL) == ["R009"]

    def test_fires_on_discarded_view_and_attach(self):
        src = """
        def f(self, lease):
            self.arena.view(lease)
            attach(lease)
        """
        assert rules_in(src, PARALLEL) == ["R009", "R009"]

    def test_silent_when_bound(self):
        src = """
        def f(arena, lease):
            handle = arena.lease(64, "int64")
            mapped = attach(lease)
            return handle, mapped
        """
        assert rules_in(src, PARALLEL) == []

    def test_silent_on_non_arena_view(self):
        # numpy's ndarray.view must not match the arena heuristic.
        src = """
        def f(a):
            a.view("u1")
        """
        assert rules_in(src, LIB) == []

    def test_silent_outside_library_scope(self):
        src = """
        def f(arena, lease):
            arena.view(lease)
        """
        assert rules_in(src, "tests/parallel/test_x.py") == []


class TestR010ViewStoredOnSelf:
    def test_fires_on_view_assigned_to_self(self):
        src = """
        class Backend:
            def prepare(self, lease):
                self.keys = self.arena.view(lease)
        """
        assert rules_in(src, PARALLEL) == ["R010"]

    def test_fires_on_attach_assigned_to_self(self):
        src = """
        class Worker:
            def setup(self, lease):
                self.block = attach(lease)
        """
        assert rules_in(src, PARALLEL) == ["R010"]

    def test_silent_on_local_view(self):
        src = """
        class Backend:
            def prepare(self, lease):
                keys = self.arena.view(lease)
                return keys.sum()
        """
        assert rules_in(src, PARALLEL) == []

    def test_silent_on_numpy_view_on_self(self):
        src = """
        class Packer:
            def pack(self, a):
                self.raw = a.view("u1")
        """
        assert rules_in(src, LIB) == []


class TestR011HandrolledOffsets:
    def test_fires_on_counts_cumsum_in_parallel(self):
        src = """
        import numpy as np

        def offsets(counts_matrix):
            return np.cumsum(counts_matrix.sum(axis=0))
        """
        assert rules_in(src, PARALLEL) == ["R011"]

    def test_fires_on_method_style_cumsum(self):
        src = """
        def offsets(all_counts):
            return all_counts.cumsum(axis=0)
        """
        assert rules_in(src, PARALLEL) == ["R011"]

    def test_silent_inside_layout_module(self):
        src = """
        import numpy as np

        def exchange_layout(counts):
            return np.cumsum(counts)
        """
        assert rules_in(src, "src/repro/parallel/layout.py") == []

    def test_silent_outside_parallel(self):
        # Simulated-path counts arithmetic is not this rule's business.
        src = """
        import numpy as np

        def bounds(counts):
            return np.cumsum(counts)
        """
        assert rules_in(src, LIB) == []

    def test_silent_on_unrelated_cumsum(self):
        src = """
        import numpy as np

        def prefix(lengths):
            return np.cumsum(lengths)
        """
        assert rules_in(src, PARALLEL) == []


class TestR012AdhocMpPrimitive:
    def test_fires_on_multiprocessing_queue(self):
        src = """
        import multiprocessing

        def chan():
            return multiprocessing.Queue()
        """
        assert rules_in(src, LIB) == ["R012"]

    def test_fires_on_context_lock(self):
        src = """
        def guard(self):
            return self._ctx.Lock()
        """
        assert rules_in(src, PARALLEL) == ["R012"]

    def test_silent_in_collectives_module(self):
        src = """
        import multiprocessing

        def chan():
            return multiprocessing.Queue()
        """
        assert rules_in(src, "src/repro/parallel/collectives.py") == []

    def test_silent_on_sanctioned_spawn_machinery(self):
        src = """
        import multiprocessing

        def spawn(self, target):
            ctx = multiprocessing.get_context("fork")
            a, b = ctx.Pipe(duplex=True)
            return ctx.Process(target=target, args=(b,)), a
        """
        assert rules_in(src, PARALLEL) == []

    def test_silent_on_bare_event_without_mp_receiver(self):
        # threading.Event-style locals must not match.
        src = """
        def wait(ev_factory):
            return ev_factory.Event()
        """
        assert rules_in(src, LIB) == []

    def test_fires_on_queue_fed_pool_dispatch_loop(self):
        # The persistent pool's job plane is explicitly in scope: feeding
        # JobSpecs to parked workers through an mp.Queue would create
        # ordering edges the barrier-epoch model (and the hub's liveness
        # watch) cannot see.  Dispatch must stay on the control pipes.
        src = """
        import multiprocessing

        def dispatch_jobs(self, specs):
            jobs = multiprocessing.JoinableQueue()
            for spec in specs:
                jobs.put(spec)
            return jobs
        """
        assert rules_in(src, "src/repro/parallel/backend.py") == ["R012"]

    def test_silent_on_pipe_star_pool_dispatch(self):
        # The sanctioned shape of the same loop: per-rank control pipes
        # from the spawn machinery, job tuples sent through them.
        src = """
        import multiprocessing

        def spawn_and_dispatch(self, specs):
            ctx = multiprocessing.get_context("fork")
            conns = []
            for spec in specs:
                parent, child = ctx.Pipe(duplex=True)
                parent.send(("job", spec))
                conns.append(parent)
            return conns
        """
        assert rules_in(src, "src/repro/parallel/backend.py") == []


class TestR013ThreadOutsideKernelPool:
    def test_fires_on_threading_import(self):
        src = """
        import threading

        def spin(fn):
            threading.Thread(target=fn).start()
        """
        assert rules_in(src, LIB) == ["R013"]

    def test_fires_on_executor_import_in_a_step_module(self):
        src = """
        from concurrent.futures import ThreadPoolExecutor as Pool

        def merge_all(regions, kernel):
            with Pool(2) as pool:
                return list(pool.map(kernel, regions))
        """
        assert rules_in(src, "src/repro/core/sorter.py") == ["R013"]

    def test_fires_on_futures_submodule_import(self):
        assert rules_in("from concurrent import futures\n", PARALLEL) == ["R013"]

    def test_silent_in_the_kernel_pool_module(self):
        src = """
        import os
        from concurrent.futures import ThreadPoolExecutor

        def pool():
            return ThreadPoolExecutor(len(os.sched_getaffinity(0)))
        """
        assert rules_in(src, "src/repro/pgxd/runtime.py") == []

    def test_silent_in_tests_and_on_lookalike_modules(self):
        assert rules_in("import threading\n", TEST) == []
        assert rules_in("import concurrent\nimport threadpoolctl\n", LIB) == []
