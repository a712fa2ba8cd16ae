"""Tests for task/data/communication managers and the PgxdRuntime."""

import dataclasses
import gc
import itertools
import threading
import weakref
from functools import partial

import numpy as np
import pytest

from repro.pgxd import (
    CsrGraph,
    DataManager,
    PgxdConfig,
    PgxdRuntime,
    TaskManager,
    exchange_arrays,
    expected_chunks,
    recv_array,
    send_array,
)
from repro.faults import FaultPlan
from repro.simnet import CostModel, NetworkModel, Simulator
from repro.simnet.metrics import MemoryTracker


class TestTaskManager:
    def tm(self, threads=4):
        return TaskManager(threads, CostModel(thread_degradation=0.0, task_region_overhead=0.0))

    def test_single_task_single_thread(self):
        assert self.tm(1).parallel_time([5.0]) == pytest.approx(5.0)

    def test_fewer_tasks_than_threads_is_max(self):
        assert self.tm(8).parallel_time([1.0, 3.0, 2.0]) == pytest.approx(3.0)

    def test_lpt_packing(self):
        # 4 threads, tasks [5,4,3,3,3]: LPT loads = 5,4,3,3+3 -> makespan 6.
        assert self.tm(4).parallel_time([5, 4, 3, 3, 3]) == pytest.approx(6.0)

    def test_equal_tasks_perfectly_balanced(self):
        assert self.tm(4).parallel_time([1.0] * 8) == pytest.approx(2.0)

    def test_empty_and_zero_tasks_free(self):
        assert self.tm().parallel_time([]) == 0.0
        assert self.tm().parallel_time([0.0, 0.0]) == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            self.tm().parallel_time([-1.0])

    def test_degradation_increases_time(self):
        fast = TaskManager(8, CostModel(thread_degradation=0.0, task_region_overhead=0.0))
        slow = TaskManager(8, CostModel(thread_degradation=0.05, task_region_overhead=0.0))
        assert slow.parallel_time([1.0] * 8) > fast.parallel_time([1.0] * 8)

    def test_chunked_time(self):
        tm = self.tm(2)
        assert tm.chunked_time(total_work=100, unit_cost=0.01, chunks=2) == pytest.approx(0.5)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            TaskManager(0, CostModel())


class TestDataManager:
    def dm(self):
        return DataManager(PgxdConfig(), MemoryTracker())

    def test_store_tracks_resident_memory(self):
        dm = self.dm()
        dm.store("keys", np.zeros(100, dtype=np.int64))
        assert dm.memory.resident == 800
        assert dm.resident_bytes() == 800

    def test_replace_frees_old(self):
        dm = self.dm()
        dm.store("keys", np.zeros(100, dtype=np.int64))
        dm.store("keys", np.zeros(10, dtype=np.int64))
        assert dm.memory.resident == 80
        # The old array is released before the replacement is registered.
        assert dm.memory.peak_resident == 800

    def test_drop(self):
        dm = self.dm()
        dm.store("keys", np.zeros(4, dtype=np.int64))
        dm.drop("keys")
        assert "keys" not in dm
        assert dm.memory.resident == 0
        with pytest.raises(KeyError):
            dm.drop("keys")
        with pytest.raises(KeyError):
            dm.get("keys")

    def test_scratch_scope(self):
        dm = self.dm()
        with dm.scratch(1000):
            assert dm.memory.temporary == 1000
        assert dm.memory.temporary == 0
        assert dm.memory.peak_temporary == 1000

    def test_request_buffers_per_destination(self):
        dm = self.dm()
        assert dm.request_buffer(3) is dm.request_buffer(3)
        assert dm.request_buffer(3) is not dm.request_buffer(4)
        dm.request_buffer(3).append("x", dm.config.read_buffer_bytes)
        assert dm.total_flushes() == 1


class TestCommManager:
    def run_transfer(self, array, config):
        from repro.simnet import Simulator

        sim = Simulator(2, NetworkModel())

        def sender(proc):
            yield from send_array(proc, 1, array, tag=9, config=config)

        def receiver(proc):
            out = yield from recv_array(proc, 0, array.nbytes, array.dtype, 9, config)
            return out

        sim.add_process(sender)
        sim.add_process(receiver)
        metrics = sim.run()
        return sim.result(1), metrics

    def test_roundtrip_small(self):
        cfg = PgxdConfig()
        arr = np.arange(100, dtype=np.int64)
        out, metrics = self.run_transfer(arr, cfg)
        np.testing.assert_array_equal(out, arr)
        assert metrics.messages == 1

    def test_large_array_split_into_buffer_chunks(self):
        cfg = PgxdConfig(read_buffer_bytes=1024)
        arr = np.arange(1000, dtype=np.int64)  # 8000 B -> 8 chunks
        out, metrics = self.run_transfer(arr, cfg)
        np.testing.assert_array_equal(out, arr)
        assert metrics.messages == expected_chunks(arr.nbytes, cfg) == 8

    def test_empty_transfer_sends_nothing(self):
        cfg = PgxdConfig()
        arr = np.empty(0, dtype=np.float64)
        out, metrics = self.run_transfer(arr, cfg)
        assert out.size == 0
        assert metrics.messages == 0

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_exchange_arrays_correctness(self, size):
        from repro.simnet import Simulator
        from repro.simnet.collectives import allgather

        cfg = PgxdConfig(read_buffer_bytes=64)
        sim = Simulator(size, NetworkModel())

        def program(proc):
            rng = np.random.default_rng(proc.rank)
            outgoing = [
                rng.integers(0, 100, int(rng.integers(0, 30))).astype(np.int64)
                for _ in range(proc.size)
            ]
            sizes = [a.nbytes for a in outgoing]
            all_sizes = yield from allgather(proc, sizes)
            announced = [all_sizes[s][proc.rank] for s in range(proc.size)]
            received = yield from exchange_arrays(
                proc, outgoing, announced, np.int64, tag=50, config=cfg
            )
            return [r.copy() for r in received]

        sim.add_program(program)
        sim.run()
        # Verify rank r received exactly what rank s generated for it.
        for r in range(size):
            got = sim.result(r)
            for s in range(size):
                rng = np.random.default_rng(s)
                expected = [
                    rng.integers(0, 100, int(rng.integers(0, 30))).astype(np.int64)
                    for _ in range(size)
                ][r]
                np.testing.assert_array_equal(got[s], expected)

    def test_sync_messaging_still_correct(self):
        cfg = PgxdConfig(async_messaging=False, read_buffer_bytes=256)
        arr = np.arange(500, dtype=np.int64)
        out, _ = self.run_transfer(arr, cfg)
        np.testing.assert_array_equal(out, arr)


class TestPgxdRuntime:
    def test_spmd_program_runs_on_all_machines(self):
        rt = PgxdRuntime(4)

        def program(machine):
            yield machine.compute(0.001, label="warmup")
            return machine.rank * 2

        result = rt.run(program)
        assert result.results == [0, 2, 4, 6]
        assert result.makespan > 0

    def test_machine_facade_wiring(self):
        rt = PgxdRuntime(2, config=PgxdConfig(threads_per_machine=8))

        def program(machine):
            yield machine.compute(0.0)
            return (machine.threads, machine.size, machine.tasks.threads)

        result = rt.run(program)
        assert result.results[0] == (8, 2, 8)

    def test_runtime_reusable_and_deterministic(self):
        rt = PgxdRuntime(3)

        def program(machine):
            yield machine.compute(0.5 * (machine.rank + 1))
            return machine.rank

        r1, r2 = rt.run(program), rt.run(program)
        assert r1.makespan == r2.makespan

    def test_per_rank_programs(self):
        rt = PgxdRuntime(2)

        def driver(machine):
            yield machine.compute(0.0)
            return "driver"

        def executor(machine):
            yield machine.compute(0.0)
            return "executor"

        result = rt.run_per_rank([driver, executor])
        assert result.results == ["driver", "executor"]

    def test_invalid_machine_count(self):
        with pytest.raises(ValueError):
            PgxdRuntime(0)
        with pytest.raises(ValueError):
            PgxdRuntime(2).run_per_rank([lambda m: iter(())])


def _reachable_arrays(obj) -> list[np.ndarray]:
    """Every ndarray reachable from ``obj`` through dataclass fields,
    lists, tuples and dict values."""
    found, stack, seen = [], [obj], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return found


def _pooled_storage() -> list[np.ndarray]:
    from repro.core.scratch import ARENAS

    return [
        block.storage
        for arena in ARENAS.idle
        for blocks in arena._pools.values()
        for block in blocks
    ]


def _recording_batches(monkeypatch) -> list:
    """``(kernels, live threads before, live threads after)`` for every
    kernel batch run from now on."""
    from repro.pgxd.runtime import KernelPool

    batches = []
    batch = KernelPool.batch

    def recording(pool, kernels):
        before = threading.active_count()
        results = batch(pool, kernels)
        batches.append((len(kernels), before, threading.active_count()))
        return results

    monkeypatch.setattr(KernelPool, "batch", recording)
    return batches


def _recording_checkouts(monkeypatch) -> list:
    """``(arena, allocations at checkout)`` for every arena lent from now on."""
    from repro.core.scratch import ArenaPool

    lent = []
    checkout = ArenaPool.checkout

    def recording(pool):
        arena = checkout(pool)
        lent.append((arena, arena.allocations))
        return arena

    monkeypatch.setattr(ArenaPool, "checkout", recording)
    return lent


class TestRunLifetime:
    """A finished run owns nothing: refcount frees it, its arenas go back
    to the process pool, nothing it returned aliases that pool, and no
    kernel thread outlives it."""

    DATA = np.random.default_rng(5).integers(0, 1000, 40_000)

    def test_dropped_result_frees_the_run_without_a_collection(self, monkeypatch):
        from repro import distributed_sort

        sims = []
        run = Simulator.run

        def recording_run(sim):
            sims.append(weakref.ref(sim))
            return run(sim)

        monkeypatch.setattr(Simulator, "run", recording_run)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = distributed_sort(self.DATA, num_processors=4)
            keys = weakref.ref(result.per_processor[1])
            assert keys() is not None
            del result
            assert [ref() for ref in sims] == [None]
            assert keys() is None
        finally:
            if was_enabled:
                gc.enable()

    #: The word path's int64 keys, and full-mantissa float64 keys, which
    #: no key frame fits (keys + perm).
    PATHS = {"words": DATA, "keys+perm": np.random.default_rng(5).random(40_000)}

    @pytest.mark.parametrize("path", PATHS)
    def test_second_identical_sort_allocates_nothing(self, monkeypatch, path):
        from repro import distributed_sort

        data = self.PATHS[path]
        distributed_sort(data, num_processors=16)
        lent = _recording_checkouts(monkeypatch)
        again = distributed_sort(data, num_processors=16)
        assert np.array_equal(again.to_array(), np.sort(data))
        # Arenas hold job storage alone: one on the word path (its step-1
        # words), none on keys + perm, none per machine.
        if path == "words":
            assert len(lent) == 1 and lent[0][0].pooled_bytes()
        assert len(lent) <= 1 and (path == "words" or not lent)
        assert sum(a.allocations - before for a, before in lent) == 0

    #: Float keys whose frame fits, in words of either width.
    FLOAT_WORDS = {
        "int32": (DATA % 50).astype(np.float32),
        "int64": DATA / 4,
    }

    @pytest.mark.parametrize("width", FLOAT_WORDS)
    def test_second_identical_float_sort_allocates_nothing(self, monkeypatch, width):
        from repro import distributed_sort
        from repro.core.api import partition_input
        from repro.core.packsort import block_stats, derive_key_frame

        data = self.FLOAT_WORDS[width]
        blocks = partition_input(data, 16)[0]
        stats = [block_stats(block) for block in blocks]
        frame = derive_key_frame(stats, data.dtype)
        assert frame.word_dtype == width
        distributed_sort(data, num_processors=16)
        lent = _recording_checkouts(monkeypatch)
        again = distributed_sort(data, num_processors=16)
        assert np.array_equal(again.to_array(), np.sort(data))
        # One arena, checked out at the first rank's step-1 sort: the words,
        # coded on the fly (the frame refills nothing: no input copy).
        assert len(lent) == 1 and not frame.refills
        assert sum(a.allocations - before for a, before in lent) == 0

    #: Float64 keys whose frame fits, in words of either width at p = 4.
    FLOAT64_WORDS = {"int32": (DATA % 8).astype(np.float64), "int64": DATA / 4}

    @pytest.mark.parametrize("width", FLOAT64_WORDS)
    def test_each_float_block_is_coded_once(self, monkeypatch, width):
        """A rank reads its block's statistics once, writing no code, and
        codes it once more, on the fly, into its words: one ``block_stats``
        and one ``pack_words`` call per block."""
        import sys

        from repro import distributed_sort
        from repro.core import packsort

        calls = {"block_stats": [], "pack_words": []}
        for name, kernel_calls in calls.items():
            original = getattr(packsort, name)

            def counting(keys, *args, original=original, kernel_calls=kernel_calls):
                kernel_calls.append(len(keys))
                return original(keys, *args)

            for module in list(sys.modules.values()):
                if module is not packsort and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        data = self.FLOAT64_WORDS[width]
        blocks = np.array_split(data, 4)
        stats = [packsort.block_stats(block) for block in blocks]
        assert packsort.derive_key_frame(stats, data.dtype).word_dtype == width
        result = distributed_sort(data, num_processors=4)
        assert np.array_equal(result.to_array(), np.sort(data))
        assert sorted(calls["block_stats"]) == sorted(map(len, blocks))
        assert sorted(calls["pack_words"]) == sorted(map(len, blocks))

    @pytest.mark.parametrize("p", [1, 4])
    def test_sort_many_does_not_grow_the_arenas_per_dataset(self, p):
        """A job's storage goes back once its last step-6 kernel finished,
        before a later job draws its own: twelve datasets pool what three do."""
        from repro import DistributedSorter
        from repro.core.scratch import ARENAS

        datasets = [np.random.default_rng(i).integers(0, 1 << 30, 8_000) for i in range(12)]
        sorter = DistributedSorter(num_processors=p)
        sorter.sort_many(datasets[:3])
        pooled = sum(arena.pooled_bytes() for arena in ARENAS.idle)
        for result, data in zip(sorter.sort_many(datasets), datasets):
            assert np.array_equal(result.to_array(), np.sort(data))
        assert sum(arena.pooled_bytes() for arena in ARENAS.idle) == pooled

    CASES = ["p1", "p2", "p16", "faulted", "sort_many"]

    @pytest.mark.parametrize("case", CASES + [f"{case}-keys+perm" for case in CASES])
    def test_no_result_array_aliases_pooled_storage(self, case):
        from repro import DistributedSorter

        case, _, path = case.partition("-")
        data = self.PATHS[path or "words"]
        DistributedSorter(num_processors=2).sort(self.DATA)  # warm storage to alias
        if case == "faulted":
            sorter = DistributedSorter(
                num_processors=6, faults=FaultPlan(seed=36, drop_prob=0.05)
            )
            results = [sorter.sort(data)]
            assert results[0].survivors is None
        elif case == "sort_many":
            results = DistributedSorter(num_processors=4).sort_many([data, data[::-1]])
        else:
            results = [DistributedSorter(num_processors=int(case[1:])).sort(data)]
        storage = _pooled_storage()
        assert storage, "the run checked its arenas back in"
        for result in results:
            assert np.array_equal(result.to_array(), np.sort(data))
            arrays = _reachable_arrays(result)
            assert len(arrays) >= 2 * result.num_processors
            for array in arrays:
                assert not any(np.shares_memory(array, s) for s in storage)

    def test_nested_run_gets_distinct_arenas(self, monkeypatch):
        from repro import distributed_sort
        from repro.core.scratch import ARENAS, ArenaPool
        from repro.core.sorter import SortJob, SortOptions, sample_sort_program

        inner_data = np.random.default_rng(6).integers(0, 50, 5_000)
        blocks = np.array_split(self.DATA, 2)
        job = SortJob(blocks)
        outer_arenas, inner_arenas, inner, lent = [], [], [], []
        live = {}  # id -> arena, for every arena out of the pool right now
        checkout, checkin = ArenaPool.checkout, ArenaPool.checkin

        def recording_checkout(pool):
            arena = checkout(pool)
            assert id(arena) not in live, "an arena lent twice at once"
            live[id(arena)] = arena
            lent.append(arena)
            return arena

        def recording_checkin(pool, arena):
            del live[id(arena)]
            checkin(pool, arena)

        def program(machine):
            # Each machine holds an arena of the run's for the whole run.
            arena = machine.kernels.checkout()
            outer_arenas.append(arena)
            held = arena.take(4096, np.int64)
            held[:] = machine.rank
            if machine.rank == 0:
                # A whole run while this run's arenas hold live leases.
                before, start = set(live), len(lent)
                inner.append(distributed_sort(inner_data, num_processors=4))
                inner_arenas.extend(lent[start:])
                assert set(live) == before
                assert not set(map(id, outer_arenas)) & set(map(id, ARENAS.idle))
            out = yield sample_sort_program(machine, blocks[machine.rank], SortOptions(), job)
            assert (held == machine.rank).all()
            machine.kernels.checkin(arena)
            return out

        monkeypatch.setattr(ArenaPool, "checkout", recording_checkout)
        monkeypatch.setattr(ArenaPool, "checkin", recording_checkin)
        run = PgxdRuntime(2).run(program)
        # The inner run's job drew an arena of its own, as did the outer's.
        assert len(outer_arenas) == 2 and len(inner_arenas) == 1 and len(lent) == 4
        assert np.array_equal(inner[0].to_array(), np.sort(inner_data))
        merged = np.concatenate([out.keys for out in run.results])
        assert np.array_equal(merged, np.sort(self.DATA))
        # Both runs checked every arena they leased back in.
        assert not live
        assert set(map(id, outer_arenas + inner_arenas)) <= set(map(id, ARENAS.idle))

    @pytest.mark.parametrize("case", ["sort", "sort_many", "faulted"])
    def test_no_kernel_thread_outlives_a_run(self, monkeypatch, case):
        from repro import DistributedSorter
        from repro.pgxd.runtime import KernelPool

        submitted = []
        batch = KernelPool.batch

        def counting(pool, kernels):
            submitted.append(1)
            return batch(pool, kernels)

        monkeypatch.setattr(KernelPool, "batch", counting)
        before = threading.active_count()
        if case == "faulted":
            sorter = DistributedSorter(num_processors=6, faults=FaultPlan(seed=36, drop_prob=0.05))
            results = [sorter.sort(self.DATA)]
        elif case == "sort_many":
            results = DistributedSorter(num_processors=4).sort_many([self.DATA, self.DATA[::3]])
        else:
            results = [DistributedSorter(num_processors=16).sort(self.DATA)]
        assert threading.active_count() == before
        assert all(r.is_globally_sorted() for r in results)
        assert submitted  # a faulted run takes the word path too

    @pytest.mark.parametrize("path", PATHS)
    def test_a_job_is_two_batches_of_one_kernel_per_rank(self, monkeypatch, path):
        """Every rank's step 1, then every rank's step 6: two parallel steps."""
        from repro import distributed_sort

        batches = _recording_batches(monkeypatch)
        result = distributed_sort(self.PATHS[path], num_processors=16)
        assert result.is_globally_sorted()
        assert [kernels for kernels, _, _ in batches] == [16, 16]

    def test_sort_many_runs_two_batches_per_job(self, monkeypatch):
        from repro import DistributedSorter

        batches = _recording_batches(monkeypatch)
        datasets = [self.DATA, self.DATA[::3], self.PATHS["keys+perm"]]
        results = DistributedSorter(num_processors=4).sort_many(datasets)
        assert all(r.is_globally_sorted() for r in results)
        assert [kernels for kernels, _, _ in batches] == [4] * 6

    def test_one_cpu_starts_no_kernel_thread(self, monkeypatch):
        """At one CPU the event-loop thread runs every kernel itself."""
        import os

        from repro import DistributedSorter

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        batches = _recording_batches(monkeypatch)
        start = threading.active_count()
        DistributedSorter(num_processors=16).sort(self.DATA)
        DistributedSorter(num_processors=4).sort_many([self.DATA, self.PATHS["keys+perm"]])
        assert len(batches) == 6
        assert {(before, after) for _, before, after in batches} == {(start, start)}

    def test_a_kernel_exception_leaves_the_run_as_itself(self, monkeypatch):
        from repro import distributed_sort
        from repro.core import datapath
        from repro.core.scratch import ARENAS

        class KernelBug(Exception):
            pass

        calls = itertools.count()
        kernel = datapath.sort_runs_in_place

        def failing_on_one_rank(*args):
            if next(calls) == 2:
                raise KernelBug("step 6 of one rank")
            return kernel(*args)

        monkeypatch.setattr(datapath, "sort_runs_in_place", failing_on_one_rank)
        lent = _recording_checkouts(monkeypatch)
        before = threading.active_count()
        with pytest.raises(KernelBug, match="step 6 of one rank"):
            distributed_sort(self.DATA, num_processors=8)
        assert next(calls) == 8  # every rank's kernel ran, one raised
        assert len(lent) == 1  # the job's storage, the run's one arena
        assert {id(a) for a, _ in lent} <= set(map(id, ARENAS.idle))
        assert threading.active_count() == before

    def test_a_batch_runs_every_kernel_once_in_order(self, monkeypatch):
        """More helpers than cores, switching every few microseconds: each
        kernel runs exactly once, its result lands in its own slot, and
        every kernel runs before the first exception leaves."""
        import os
        import sys

        from repro.pgxd.runtime import KernelPool

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        ran = []

        def kernel(i):
            ran.append(i)  # list.append is atomic; a lost or doubled kernel shows
            if i in (70, 30):
                raise ValueError(i)
            return 2 * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # The join raises the batch's exception again, as a run's exit does.
            with pytest.raises(ValueError, match="30"), KernelPool() as kernels:
                for _ in range(20):
                    results = kernels.batch([partial(kernel, i) for i in range(20)])
                    assert results == [2 * i for i in range(20)]
                ran.clear()
                with pytest.raises(ValueError, match="30"):
                    kernels.batch([partial(kernel, i) for i in range(100)])
                assert sorted(ran) == list(range(100))
        finally:
            sys.setswitchinterval(interval)

    def test_job_storage_goes_back_in_any_order(self):
        from repro.core.scratch import ARENAS
        from repro.pgxd.runtime import KernelPool

        def idle(arena):
            return any(a is arena for a in ARENAS.idle)

        with KernelPool() as kernels:
            first, second = kernels.checkout(), kernels.checkout()
            first.take(64, np.int64)[:] = 1
            second.take(64, np.int64)[:] = 2
            assert kernels.batch([partial(sum, [1, 2])]) == [3]
            kernels.checkin(second)
            assert idle(second) and not idle(first) and second.live_leases == 0
        assert idle(first) and first.live_leases == 0

    def test_a_process_backend_started_after_a_run_sorts_correctly(self):
        from repro import distributed_sort
        from repro.parallel import ProcessBackend

        assert distributed_sort(self.DATA, num_processors=16).is_globally_sorted()
        blocks = np.array_split(self.DATA, 2)
        with ProcessBackend() as backend:
            run = backend.sort_blocks(blocks)
            keys = np.concatenate([out.keys for out in run.outputs])
            assert np.array_equal(keys, np.sort(self.DATA))


class TestGraphLoading:
    def test_load_graph_partitions_all_edges(self):
        rng = np.random.default_rng(7)
        n, m = 40, 300
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        rt = PgxdRuntime(4, config=PgxdConfig(ghost_node_budget=4))
        graphs, ghosts, result = rt.load_graph(src, dst, n)
        assert len(graphs) == 4
        assert sum(g.num_edges for g in graphs) == m
        assert sum(g.num_vertices for g in graphs) == n
        assert all(isinstance(g, CsrGraph) for g in graphs)
        assert ghosts.crossing_edges_after <= ghosts.crossing_edges_before
        assert result.makespan > 0

    def test_loaded_edges_match_input_multiset(self):
        rng = np.random.default_rng(3)
        n, m = 20, 100
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        rt = PgxdRuntime(3)
        graphs, _, _ = rt.load_graph(src, dst, n)
        rebuilt = []
        for g in graphs:
            for v_local in range(g.num_vertices):
                v_global = int(g.global_ids[v_local])
                rebuilt.extend((v_global, int(w)) for w in g.neighbors(v_local))
        assert sorted(rebuilt) == sorted(zip(src.tolist(), dst.tolist()))


class TestHeterogeneousRuntime:
    def test_rank_speed_slows_one_machine(self):
        from repro.simnet import Compute

        def program(machine):
            yield machine.compute(machine.cost.sort_seconds(1 << 20))
            return machine.cost.compare_rate

        fast = PgxdRuntime(2).run(program)
        slow = PgxdRuntime(2, rank_speed=[1.0, 0.5]).run(program)
        assert slow.makespan > fast.makespan
        assert slow.results[1] == fast.results[1] / 2
        assert slow.results[0] == fast.results[0]

    def test_rank_speed_validation(self):
        with pytest.raises(ValueError):
            PgxdRuntime(2, rank_speed=[1.0])
        with pytest.raises(ValueError):
            PgxdRuntime(2, rank_speed=[1.0, 0.0])

    def test_sorter_rank_speed(self):
        import numpy as np

        from repro import DistributedSorter

        data = np.random.default_rng(0).random(20_000)
        even = DistributedSorter(num_processors=4).sort(data)
        slowed = DistributedSorter(
            num_processors=4, rank_speed=[1.0, 1.0, 0.25, 1.0]
        ).sort(data)
        np.testing.assert_array_equal(even.to_array(), slowed.to_array())
        assert slowed.elapsed_seconds > even.elapsed_seconds

    def test_sort_config_rank_speed_validation(self):
        from repro import SortConfig

        with pytest.raises(ValueError):
            SortConfig(num_processors=3, rank_speed=(1.0,))


class TestRequestBufferBulk:
    def test_extend_array_matches_elementwise_append(self):
        import numpy as np

        from repro.pgxd.buffers import RequestBuffer

        array = np.arange(1000, dtype=np.int64)
        ref = RequestBuffer(capacity_bytes=256, watermark=0.75)
        ref_batches = []
        for x in array:
            flushed = ref.append(int(x), array.itemsize)
            if flushed is not None:
                ref_batches.append(flushed)

        bulk = RequestBuffer(capacity_bytes=256, watermark=0.75)
        bulk_batches = bulk.extend_array(array)

        assert bulk.flush_count == ref.flush_count
        assert bulk.pending_bytes == ref.pending_bytes
        flat = [int(v) for batch in bulk_batches for view in batch for v in view]
        ref_flat = [v for batch in ref_batches for v in batch]
        assert flat == ref_flat

    def test_extend_array_with_pending_items_first(self):
        import numpy as np

        from repro.pgxd.buffers import RequestBuffer

        buf = RequestBuffer(capacity_bytes=64, watermark=1.0)
        assert buf.append("header", 16) is None
        batches = buf.extend_array(np.zeros(20, dtype=np.int64))
        # 16 pending bytes + 6 entries (48B) reach 64B -> first flush holds
        # the header plus a 6-element view; then full 8-element buffers.
        first = batches[0]
        assert first[0] == "header"
        assert len(first[1]) == 6
        assert all(len(batch[0]) == 8 for batch in batches[1:])
        assert buf.pending_bytes == (20 - 6 - 8 * (len(batches) - 1)) * 8

    def test_extend_array_rejects_2d(self):
        import numpy as np
        import pytest as _pytest

        from repro.pgxd.buffers import RequestBuffer

        with _pytest.raises(ValueError):
            RequestBuffer(capacity_bytes=64).extend_array(np.zeros((2, 2)))
