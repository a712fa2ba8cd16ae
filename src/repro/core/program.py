"""The paper's sort, written once: six steps over one rank's substrate.

PGX.D runs the sort as one program over its task and communication
managers (paper section I); :func:`six_steps` is that program for one
rank.  It alone says which kernel runs in each step, which collective
follows it, where the step edges are and what each step reads.  The
substrate object it is handed, ``host``, serves the steps through one
method set — ``edge``, ``charge``, ``frame_stats``, ``sort``, ``gather``,
``bcast``, ``exchange``, ``merge`` (DESIGN.md §8) — and names the job's
splitter cache (``host.cache``, ``None`` where there is none).  The
program yields what each method returns: the simulator
(:mod:`repro.core.sorter`) returns calls and sub-programs its engine
trampolines, charging the cost model and recording Figure 11's memory;
a pooled worker (:mod:`repro.parallel.worker`) returns plain values,
which a three-line loop sends straight back.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .datapath import DataPath, local_sort
from .packsort import derive_key_frame
from .steps import BlockPartition, agree_splitters, draw_samples, partition_block

#: Master processor rank (the paper's "Master").
MASTER = 0


class RankSteps(NamedTuple):
    """What the six steps leave on one rank, for its substrate's report."""

    path: DataPath
    #: The splitters every rank cut its block at.
    splitters: np.ndarray
    partition: BlockPartition
    #: The splitter cache's verdict (``None`` without a cache) and, on the
    #: Master, the job's sample fingerprint.
    verdict: str | None
    fingerprint: str | None


def six_steps(host, block: np.ndarray, options):
    """The six steps on one rank: a generator ending in :class:`RankSteps`."""
    rank, size = host.rank, host.size

    # Step 1: the key frame from every rank's statistics picks the data
    # path; sorting the block is choosing it.
    yield host.edge(0, len(block))
    stats = yield host.frame_stats(block)
    frame = None if stats is None else derive_key_frame(stats, block.dtype, size)
    path = yield host.sort(local_sort, frame, block)
    rows = len(path.sorted_block)

    # Step 2: regular samples to the Master, or a cache hit's splitters.
    yield host.edge(1, rows)
    samples = draw_samples(path.sorted_block, host.config, size, options.sample_factor)
    yield host.charge(1, samples.nbytes)
    verdict = splitters = fingerprint = None
    if host.cache is not None:
        verdict, splitters, fingerprint = yield from host.cache.probe_candidates(host, samples)
    if splitters is None:
        gathered = yield host.gather(samples)

    # Step 3: the Master picks the splitters and broadcasts them.
    yield host.edge(2, len(samples))
    if splitters is None:
        if rank == MASTER:
            yield host.charge(2, sum(map(len, gathered)))
            splitters = agree_splitters(gathered, size)
            if verdict == "cold":
                fingerprint = host.cache.fingerprint(gathered, size)
        splitters = yield host.bcast(splitters)  # repro: noqa[R004] — a substrate method, yielded: a value, or a sub-program the engine trampolines

    # Step 4: cut the sorted block at the splitters.
    yield host.edge(3, rows)
    part = partition_block(path.sorted_block, splitters, size, options.investigator)
    yield host.charge(3, part.searches)

    # Step 5: every run lands in its receiver's region.
    yield host.edge(4, rows)
    counts = yield host.exchange(path, part)

    # Step 6: the rank's region holds one sorted run per source.
    run_lengths = counts[:, rank].tolist()
    yield host.edge(5, sum(run_lengths))
    yield host.merge(path, int(counts[:, :rank].sum()), run_lengths)
    yield host.edge(6, 0)
    return RankSteps(path, splitters, part, verdict, fingerprint)
