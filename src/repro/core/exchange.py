"""Step 5: asynchronous all-to-all redistribution of partitioned data.

"After determining ranges for each destination in step (4), these
information are broadcasted to all processors.  So each processor knows how
much data it will receive from the other processors" — which lets receivers
pre-compute write offsets and accept chunks from many senders concurrently.
"Also each processor is able to send data while receiving data, which avoids
the unnecessary synchronizations between these steps."

Concretely: an allgather of the per-destination count vectors announces all
transfer sizes; every processor then posts *all* its outgoing key and
origin-index chunks as non-blocking sends before draining a single receive.
Key chunks and index chunks use distinct tags so the two streams reassemble
independently.

What moves is the job's :class:`~repro.core.datapath.DataPath`: its
payloads ride the key messages (keys, or packed words) and the index
messages (the permutation; on the word path nothing).  Both are charged
as the paper's records (key itemsize + a 4-byte origin index per key)
whichever path runs, so the word path's index messages carry only their
charged size.

Reassembly is offset-addressed, as in the paper's step 5: the counts
matrix fixes each source's region before any data arrives.  Chunks from
one source arrive in FIFO order, so the drain loop only collects them per
source and returns them with the counts matrix (:class:`ExchangeResult`):
the event loop writes no key.  Step 6's kernel lands each stream with one
``np.concatenate(..., out=region)`` (:meth:`ExchangeResult.land`) in the
rank's region of the path's job-wide stream — everything ranks below it
receive comes first — so a key lands once, where the same kernel merges
it.  The runs sit back to back in source order, each a sorted slice of
its sender's block: the layout the merge consumes without another copy.
One stream means one dtype per stream: blocks of different dtypes are
promoted before the sort starts
(:meth:`repro.core.api.DistributedSorter.sort_partitioned`), and a sender
whose dtype still differs is rejected rather than silently cast.
"""

from __future__ import annotations

from typing import Generator, NamedTuple

import numpy as np

from ..pgxd.comm_manager import MAX_CHUNKS_PER_TRANSFER, send_array
from ..pgxd.config import PgxdConfig
from ..simnet.calls import Compute, Isend, Message, Recv, Send, traced_mark
from ..simnet.collectives import allgather
from ..simnet.engine import ProcessHandle
from .datapath import DataPath
from .steps import INDEX_DTYPE, BlockPartition

TAG_KEYS = 201
TAG_INDEX = 202


class ExchangeResult(NamedTuple):
    """What one processor receives, before step 6 lands it."""

    #: counts_matrix[src][dst] = keys sent from src to dst (global view).
    counts_matrix: np.ndarray
    #: The rank's region of every stream: everything lower ranks receive
    #: comes first, and its length is the announced total.
    region: slice
    #: Each carried stream (keys or words, then the permutation) with the
    #: chunks that land in it, in source order (the rank's own run among
    #: them): views of the senders' payloads.
    arrivals: list[tuple[np.ndarray, list[np.ndarray]]]

    def land(self) -> None:
        """Step 6's first move: each stream's chunks back to back in the
        rank's region.  ``concatenate(out=)`` enforces the announced
        totals: a short or long stream is a shape error."""
        for stream, chunks in self.arrivals:
            np.concatenate(chunks, out=stream[self.region])


def _pending_chunks(recv_counts: np.ndarray, rank: int, itemsizes, config: PgxdConfig) -> int:
    """Messages this rank will receive, from the announced counts: every
    stream's per-source :func:`~repro.pgxd.comm_manager.expected_chunks`,
    vectorized (numpy and Python both round half to even, so scaled chunk
    plans match the senders' bit for bit)."""
    remote = np.delete(recv_counts, rank)
    pending = 0
    for itemsize in itemsizes:
        real = remote * itemsize
        virtual = real if config.data_scale == 1.0 else np.round(real * config.data_scale)
        flushes = -(-virtual.astype(np.int64) // config.read_buffer_bytes)
        pending += int(np.minimum(flushes, MAX_CHUNKS_PER_TRANSFER).sum())
    return pending


def exchange_partitions(
    machine_proc: ProcessHandle,
    path: DataPath,
    partition: BlockPartition,
    config: PgxdConfig,
    *,
    copy_seconds_per_byte: float = 0.0,
) -> Generator:
    """Run the step-5 exchange; returns an :class:`ExchangeResult`, whose
    chunks step 6 lands (nothing is written into the job's streams here).

    ``path`` is this rank's step-1 outcome (its sorted payloads and the
    job's streams they land in); ``partition`` is its step-4 outcome
    (slices and counts per destination).  ``copy_seconds_per_byte``
    charges the receiver-side copy of each arriving chunk to its
    precomputed offset (writing "by applying offsets for each received
    data entry") — with asynchronous sends these copies overlap the
    senders' serialization, with blocking sends they queue after it, which
    is the measurable gain of PGX.D's asynchronous task execution.
    Generator — must be driven by the simulator (``yield from``).
    """
    rank, size = machine_proc.rank, machine_proc.size
    key_itemsize, idx_itemsize = path.sorted_block.dtype.itemsize, INDEX_DTYPE.itemsize
    # One (payload, receive stream) per tag, keys then indexes; the word
    # path's index messages are charged, never carried.
    carried = [(payload, stream) for _role, stream, payload in path.streams]
    carried += [(None, None)] * (2 - len(carried))
    out_slices, counts = partition.slices, partition.counts
    # Size announcement: every rank learns the full counts matrix.
    # The Marks trace the exchange's three sub-phases (nested inside the
    # step-5 span), on a traced run only.
    yield from traced_mark(machine_proc, "exchange:announce")
    all_counts = yield allgather(machine_proc, counts)  # engine-trampolined
    yield from traced_mark(machine_proc, "exchange:announce", "end")
    counts_matrix = np.stack(all_counts)
    # Post every outgoing chunk (keys then indexes per destination) before
    # receiving anything: send-while-receive.  Transfers that fit in one
    # read buffer (the common case at paper scale) yield their single send
    # call inline; `send_array` would produce the identical call after a
    # generator construction + delegation per destination, which is pure
    # overhead at thousands of transfers per run.
    send_cls = Isend if config.async_messaging else Send
    rb = config.read_buffer_bytes
    unscaled = config.data_scale == 1.0
    # The engine consumes a yielded send synchronously — every field is
    # copied into the wire Message before this generator resumes — so one
    # mutable call object per stream serves all inline sends, skipping
    # thousands of dataclass constructions per run (the reuse license is
    # spelled out in the calls-module contract).
    streams = [
        (carried[0][0], key_itemsize, send_cls(dst=rank, nbytes=0, tag=TAG_KEYS)),
        (carried[1][0], idx_itemsize, send_cls(dst=rank, nbytes=0, tag=TAG_INDEX)),
    ]
    yield from traced_mark(machine_proc, "exchange:send")
    for offset in range(1, size):
        dst = (rank + offset) % size
        sl = out_slices[dst]
        if sl.stop == sl.start:
            continue
        for array, itemsize, send in streams:
            chunk = None if array is None else array[sl]
            nbytes = (sl.stop - sl.start) * itemsize
            if unscaled and nbytes <= rb:
                send.dst, send.nbytes, send.payload = dst, nbytes, chunk
                yield send
            else:
                yield from send_array(machine_proc, dst, chunk, send.tag, config, nbytes)
    yield from traced_mark(machine_proc, "exchange:send", "end")
    # Offset-addressed reassembly, deferred to step 6: the drain loop only
    # *collects* arriving chunks (one list per source; chunks from one
    # source arrive in FIFO order), and step 6's kernel lands each stream
    # with one ``np.concatenate(..., out=region)`` (:meth:`ExchangeResult.land`)
    # — one C pass, off the event loop, instead of a tiny slice write per
    # message.  The announced counts still fix the region up front, and
    # the per-chunk copy charge on the virtual clock is identical.
    recv_counts = counts_matrix[:, rank]
    key_parts: list[list[np.ndarray]] = [[] for _ in range(size)]
    idx_parts: list[list[np.ndarray]] = [[] for _ in range(size)]
    pending = _pending_chunks(recv_counts, rank, (key_itemsize, idx_itemsize), config)
    # One wildcard spec serves every receive: call objects are read-only
    # value objects and at most one Recv per rank is outstanding, so the
    # engine never sees two live uses of this instance.
    recv_any = Recv()
    charge = copy_seconds_per_byte > 0.0
    # Chunk sizes cluster tightly (near-equal partitions), so the per-chunk
    # copy charge takes only a handful of distinct values — memoize the
    # Compute value objects instead of constructing one per message.
    charge_for: dict[int, Compute] = {}
    yield from traced_mark(machine_proc, "exchange:drain")
    for _ in range(pending):
        msg: Message = yield recv_any
        tag = msg.tag
        if tag == TAG_KEYS:
            key_parts[msg.src].append(msg.payload)
        elif tag == TAG_INDEX:
            idx_parts[msg.src].append(msg.payload)
        else:
            raise ValueError(f"unexpected tag {tag} during exchange")
        if charge:
            # msg.nbytes is already the modeled (data_scale) size.
            nb = msg.nbytes
            comp = charge_for.get(nb)
            if comp is None:
                comp = charge_for[nb] = Compute(nb * copy_seconds_per_byte)
            yield comp
    yield from traced_mark(machine_proc, "exchange:drain", "end")
    base = int(counts_matrix[:, :rank].sum())
    arrivals = []
    for (array, stream), parts in zip(carried, (key_parts, idx_parts)):
        if array is None:  # charged, never carried
            continue
        # The local partition is a run like any other; it skips the network.
        parts[rank].append(array[out_slices[rank]])
        # Every chunk from one source views one sender-side array, so a
        # dtype mismatch with the stream is a whole-source property,
        # visible on the first chunk; ``concatenate(out=)`` would cast it
        # silently.
        for src, chunks in enumerate(parts):
            if chunks and chunks[0].dtype != stream.dtype:
                raise TypeError(
                    f"rank {rank} receives {chunks[0].dtype} from rank {src} "
                    f"into a {stream.dtype} stream; promote the blocks to one dtype "
                    "before sorting (DistributedSorter.sort_partitioned does)"
                )
        arrivals.append((stream, [p for chunks in parts for p in chunks]))
    return ExchangeResult(counts_matrix, slice(base, base + int(recv_counts.sum())), arrivals)
