"""The six-step program against a fake substrate, and at p = 1 on simnet.

``six_steps`` is written once and served by two substrates.  Here it is
served by a third, in one thread: every rank's generator advances until
it yields a collective, the collectives resolve in lockstep once every
rank reached the same one, and step 5 writes each run with
``DataPath.write`` at its counts-matrix offset into a ``JobStorage`` of
plain arrays.  Its bytes must equal the ``local_backend`` oracle's.
"""

from types import GeneratorType
from typing import NamedTuple

import numpy as np
import pytest

from repro import distributed_sort
from repro.core.api import partition_input
from repro.core.datapath import THROUGH, lay_out
from repro.core.local_backend import local_sample_sort
from repro.core.packsort import code_and_stats, has_key_codec
from repro.core.program import MASTER, six_steps
from repro.core.sorter import SortOptions
from repro.pgxd.config import PgxdConfig


class _Meet(NamedTuple):
    """A collective every rank must reach before any rank passes it."""

    kind: str
    value: object


class _FakeRank:
    """The program's method set over plain arrays; collectives are meets."""

    cache = None

    def __init__(self, rank, size, storage):
        self.rank, self.size, self.config, self.storage = rank, size, PgxdConfig(), storage
        self.codes = None

    def edge(self, step, rows):
        return None

    def charge(self, step, count):
        return None

    def frame_stats(self, block):
        if not has_key_codec(block.dtype):
            return None
        scratch = np.empty(len(block), np.int64) if block.dtype.kind == "f" else None
        self.codes, stats = code_and_stats(block, scratch)
        return _Meet("allgather", stats)

    def sort(self, kernel, frame, block):
        words = None if frame is None else np.empty(len(block), frame.word_dtype)
        return kernel(frame, self.storage, self.rank, block, words, self.codes)

    def gather(self, value):
        return _Meet("gather", value)

    def bcast(self, value):
        return _Meet("bcast", value)

    def exchange(self, path, part):
        counts = np.stack((yield _Meet("allgather", part.counts)))
        for dst, run in enumerate(part.slices):
            path.write(run, int(counts[:, :dst].sum() + counts[: self.rank, dst].sum()))
        yield _Meet("barrier", None)
        return counts

    def merge(self, path, base, run_lengths):
        path.merge(base, base + sum(run_lengths), run_lengths)


def _resolve(meets):
    kinds = {meet.kind for meet in meets}
    assert len(kinds) == 1, f"ranks disagree on the collective: {kinds}"
    values = [meet.value for meet in meets]
    kind = kinds.pop()
    if kind == "allgather":
        return [values] * len(meets)
    if kind == "gather":
        return [values if rank == MASTER else None for rank in range(len(meets))]
    if kind == "bcast":
        return [values[MASTER]] * len(meets)
    return [None] * len(meets)


def _run_in_lockstep(programs):
    """Drive every rank's program (sub-programs trampolined) to the next
    meet, resolve it, repeat; returns what each program returned."""
    stacks, values, results = [[program] for program in programs], [None] * len(programs), {}
    while len(results) < len(programs):
        meets = []
        for rank, stack in enumerate(stacks):
            while stack:
                try:
                    op = stack[-1].send(values[rank])
                except StopIteration as done:
                    stack.pop()
                    values[rank] = done.value
                    if not stack:
                        results[rank] = done.value
                    continue
                if isinstance(op, GeneratorType):
                    stack.append(op)
                    values[rank] = None
                elif isinstance(op, _Meet):
                    meets.append(op)
                    break
                else:
                    values[rank] = op
        if meets:
            assert len(meets) == len(programs), "a rank left while the others wait"
            values = _resolve(meets)
    return [results[rank] for rank in range(len(programs))]


def _sort_on_the_fake(blocks):
    block_starts = np.cumsum([0, *map(len, blocks)], dtype=np.int64)
    storage = lay_out(block_starts, blocks[0].dtype, lambda _role, n, dtype: np.empty(n, dtype), np.ndarray.view)
    storage.input[:] = np.concatenate(blocks)
    ranks = [_FakeRank(rank, len(blocks), storage) for rank in range(len(blocks))]
    steps = _run_in_lockstep([six_steps(r, b, SortOptions()) for r, b in zip(ranks, blocks)])
    received = np.stack([step.partition.counts for step in steps]).sum(axis=0)
    bounds = np.cumsum([0, *received])
    regions = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return steps, [(storage.keys[r], storage.proc[r], storage.index[r]) for r in regions]


KEYS = {
    "int64 words": lambda n, rng: rng.integers(0, 1 << 40, n),
    "int32 words": lambda n, rng: rng.integers(0, 1000, n),
    "keys + perm": lambda n, rng: rng.random(n),  # a full-mantissa frame miss
}


@pytest.mark.parametrize("p", [1, 2, 3, 16])
@pytest.mark.parametrize("kind", KEYS)
def test_the_program_on_a_fake_substrate_is_the_oracle(kind, p):
    blocks = list(partition_input(KEYS[kind](400 * p + 7, np.random.default_rng(p)), p)[0])
    steps, outputs = _sort_on_the_fake(blocks)
    reference = local_sample_sort(blocks)
    for (keys, proc, index), ref_keys, ref_prov in zip(outputs, reference.per_processor, reference.provenance):
        assert keys.dtype == ref_keys.dtype and keys.tobytes() == ref_keys.tobytes()
        for got, want in ((proc, ref_prov.origin_proc), (index, ref_prov.origin_index)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    paths = {step.path.label for step in steps}
    assert (paths == {THROUGH}) == (kind != "keys + perm")
    if kind == "int32 words":
        assert {step.path.exchanged for step in steps} == {("index",)}
    assert all(step.verdict is None for step in steps)


@pytest.mark.parametrize("p", [1, 2])
def test_step_six_bills_provenance_at_any_p(p):
    """Step 6 drops the permutation and stores the provenance, 6 B/key
    (int32 index + int16 processor), on one machine as on two."""
    data = np.random.default_rng(0).integers(0, 1 << 40, 40_000)
    result = distributed_sort(data, num_processors=p)
    assert np.array_equal(result.to_array(), np.sort(data))
    assert sum(proc.memory.resident for proc in result.metrics.processes) == 6 * len(data)
