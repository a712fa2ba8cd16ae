"""System-level monotonicity properties of the performance model.

These guard the cost model's sanity end to end: making a resource better
must never make the simulated sort slower, and making the problem bigger
must never make it faster.  Violations indicate a mis-wired cost path.
"""

import numpy as np
import pytest

from repro import DistributedSorter
from repro.simnet import CostModel, NetworkModel
from repro.workloads import uniform

DATA = uniform(1 << 15, seed=9, value_range=1 << 20)
SCALE = 1_000_000_000 / len(DATA)


def elapsed(**kwargs):
    kwargs.setdefault("data_scale", SCALE)
    sorter = DistributedSorter(num_processors=8, **kwargs)
    result = sorter.sort(DATA)
    assert result.is_globally_sorted()
    return result.elapsed_seconds


class TestResourceMonotonicity:
    def test_faster_network_not_slower(self):
        slow = elapsed(network=NetworkModel(bandwidth=1e9))
        fast = elapsed(network=NetworkModel(bandwidth=50e9))
        assert fast <= slow

    def test_faster_cpu_not_slower(self):
        slow = elapsed(cost=CostModel(compare_rate=20e6))
        fast = elapsed(cost=CostModel(compare_rate=200e6))
        assert fast < slow

    def test_more_threads_not_slower(self):
        t4 = elapsed(threads_per_machine=4)
        t32 = elapsed(threads_per_machine=32)
        assert t32 < t4

    def test_higher_latency_not_faster(self):
        lo = elapsed(network=NetworkModel(latency=1e-6))
        hi = elapsed(network=NetworkModel(latency=5e-3))
        assert hi >= lo

    def test_bigger_modeled_data_not_faster(self):
        small = elapsed(data_scale=SCALE / 10)
        big = elapsed(data_scale=SCALE)
        assert big > small

    def test_faster_merge_rate_not_slower(self):
        slow = elapsed(cost=CostModel(merge_rate=50e6))
        fast = elapsed(cost=CostModel(merge_rate=500e6))
        assert fast < slow


class TestStragglerMonotonicity:
    def test_slower_straggler_never_faster(self):
        times = []
        for speed in (1.0, 0.5, 0.25, 0.125):
            speeds = [1.0] * 8
            speeds[0] = speed
            times.append(elapsed(rank_speed=speeds))
        assert all(a <= b * 1.001 for a, b in zip(times, times[1:]))

    def test_speeding_up_one_machine_never_hurts(self):
        base = elapsed()
        boosted = elapsed(rank_speed=[2.0] + [1.0] * 7)
        assert boosted <= base * 1.001


class TestTrafficMonotonicity:
    def test_more_processors_more_messages(self):
        def messages(p):
            r = DistributedSorter(num_processors=p, data_scale=SCALE).sort(DATA)
            return r.metrics.messages

        assert messages(16) > messages(4)
