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

Reassembly is offset-addressed, as in the paper's step 5: the counts matrix
fixes each source's region in one receive buffer per stream (keys, origin
indices) before any data arrives.  Chunks from one source arrive in FIFO
order, so the drain loop only collects them per source and each stream is
assembled with one ``np.concatenate(..., out=buffer)``.  The buffers come
from the machine's scratch arena when one is supplied, so repeated sorts
reuse the same storage.  Each source's region is a sorted slice of the
sender's locally sorted data, and the regions sit back to back in source
order — exactly the layout the step-6 flat merge kernel consumes without any
further copying.  One buffer per stream means one dtype per stream: blocks
of different dtypes are promoted before the sort starts
(:meth:`repro.core.api.DistributedSorter.sort_partitioned`), and a sender
whose dtype still differs is rejected rather than silently cast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..pgxd.comm_manager import expected_chunks, send_array
from ..pgxd.config import PgxdConfig
from ..simnet.calls import Compute, Isend, Mark, Message, Recv, Send
from ..simnet.collectives import allgather
from ..simnet.engine import ProcessHandle
from .scratch import ScratchArena
from .steps import BlockPartition

TAG_KEYS = 201
TAG_INDEX = 202


@dataclass
class ExchangeResult:
    """Outcome of the redistribution on one processor."""

    #: One sorted key run per source processor (possibly empty): views
    #: into ``key_buffer``.
    key_runs: list[np.ndarray]
    #: Origin-index run aligned with each key run (views into
    #: ``index_buffer``).
    index_runs: list[np.ndarray]
    #: counts_matrix[src][dst] = keys sent from src to dst (global view).
    counts_matrix: np.ndarray
    #: All received keys back to back in source order (may be a scratch
    #: lease — valid until the arena is released).
    key_buffer: np.ndarray
    #: Origin indices aligned with ``key_buffer``.
    index_buffer: np.ndarray
    #: Prefix offsets of each source's region: run ``src`` occupies
    #: ``key_buffer[run_offsets[src]:run_offsets[src + 1]]``.
    run_offsets: np.ndarray

    def received_total(self, rank: int) -> int:
        return int(self.counts_matrix[:, rank].sum())


def _pending_chunks(
    recv_counts: np.ndarray,
    rank: int,
    key_itemsize: int,
    idx_itemsize: int,
    config: PgxdConfig,
) -> int:
    """Messages this rank will receive, from the announced counts.

    Vectorized replica of per-source :func:`expected_chunks` sums for the
    unscaled (``data_scale == 1``) configuration; the scaled path keeps the
    scalar calls so rounding matches the senders' chunk plans bit for bit.
    """
    from ..pgxd.comm_manager import MAX_CHUNKS_PER_TRANSFER

    remote = recv_counts.copy()
    remote[rank] = 0
    if config.data_scale == 1.0:
        rb = config.read_buffer_bytes
        pending = 0
        for itemsize in (key_itemsize, idx_itemsize):
            flushes = -(-(remote * itemsize) // rb)
            pending += int(np.minimum(flushes, MAX_CHUNKS_PER_TRANSFER).sum())
        return pending
    pending = 0
    for src, nkeys in enumerate(remote):
        if nkeys == 0:
            continue
        pending += expected_chunks(int(nkeys) * key_itemsize, config)
        pending += expected_chunks(int(nkeys) * idx_itemsize, config)
    return pending


def exchange_partitions(
    machine_proc: ProcessHandle,
    sorted_keys: np.ndarray,
    origin_index: np.ndarray,
    partition: BlockPartition,
    config: PgxdConfig,
    *,
    copy_seconds_per_byte: float = 0.0,
    scratch: ScratchArena | None = None,
) -> Generator:
    """Run the step-5 exchange; returns an :class:`ExchangeResult`.

    ``sorted_keys``/``origin_index`` are this rank's step-1 output;
    ``partition`` is its step-4 outcome (slices and counts per destination).
    ``copy_seconds_per_byte`` charges the receiver-side copy of each
    arriving chunk to its precomputed offset
    (writing "by applying offsets for each received data entry") — with
    asynchronous sends these copies overlap the senders' serialization,
    with blocking sends they queue after it, which is the measurable gain
    of PGX.D's asynchronous task execution.  ``scratch`` supplies the
    receive buffers (the caller releases the arena once the merged result
    no longer references them).  Generator — must be driven by the
    simulator (``yield from``).
    """
    rank, size = machine_proc.rank, machine_proc.size
    # The inline send fast path below hands slices straight to the wire, so
    # normalize layout once here (a no-op for the sorter's own arrays)
    # rather than per destination inside send_array.
    sorted_keys = np.ascontiguousarray(sorted_keys)
    origin_index = np.ascontiguousarray(origin_index)
    out_slices, counts = partition.slices, partition.counts
    # Size announcement: every rank learns the full counts matrix.
    # The Marks trace the exchange's three sub-phases (nested inside the
    # step-5 span); without a tracer they are no-ops.
    yield Mark("exchange:announce")
    all_counts = yield allgather(machine_proc, counts)  # engine-trampolined
    yield Mark("exchange:announce", event="end")
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
        (sorted_keys, send_cls(dst=rank, nbytes=0, tag=TAG_KEYS)),
        (origin_index, send_cls(dst=rank, nbytes=0, tag=TAG_INDEX)),
    ]
    yield Mark("exchange:send")
    for offset in range(1, size):
        dst = (rank + offset) % size
        sl = out_slices[dst]
        if sl.stop == sl.start:
            continue
        for array, send in streams:
            chunk = array[sl]
            if unscaled and chunk.nbytes <= rb:
                send.dst, send.nbytes, send.payload = dst, chunk.nbytes, chunk
                yield send
            else:
                yield from send_array(machine_proc, dst, chunk, send.tag, config)
    yield Mark("exchange:send", event="end")
    key_dtype = sorted_keys.dtype
    idx_dtype = origin_index.dtype
    # Offset-addressed reassembly, deferred: the drain loop only *collects*
    # arriving chunks (one list per source; chunks from one source arrive
    # in FIFO order), then each stream's receive buffer is assembled with a
    # single ``np.concatenate(..., out=buffer)`` — one C pass instead of a
    # tiny slice write per message.  The announced counts still fix every
    # source's region up front (``run_offsets``), and the per-chunk copy
    # charge on the virtual clock is identical.
    recv_counts = counts_matrix[:, rank]
    run_offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(recv_counts, out=run_offsets[1:])
    total = int(run_offsets[-1])
    key_parts: list[list[np.ndarray]] = [[] for _ in range(size)]
    idx_parts: list[list[np.ndarray]] = [[] for _ in range(size)]
    pending = _pending_chunks(
        recv_counts, rank, key_dtype.itemsize, idx_dtype.itemsize, config
    )
    # One wildcard spec serves every receive: call objects are read-only
    # value objects and at most one Recv per rank is outstanding, so the
    # engine never sees two live uses of this instance.
    recv_any = Recv()
    charge = copy_seconds_per_byte > 0.0
    # Chunk sizes cluster tightly (near-equal partitions), so the per-chunk
    # copy charge takes only a handful of distinct values — memoize the
    # Compute value objects instead of constructing one per message.
    charge_for: dict[int, Compute] = {}
    yield Mark("exchange:drain")
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
    yield Mark("exchange:drain", event="end")
    # The local partition is a run like any other; it skips the network.
    sl = out_slices[rank]
    key_parts[rank].append(sorted_keys[sl])
    idx_parts[rank].append(origin_index[sl])
    # Every chunk from one source views one sender-side array, so a dtype
    # mismatch with the receive buffer is a whole-source property, visible
    # on the first chunk; ``concatenate(out=)`` would cast it silently.
    for parts, dtype in ((key_parts, key_dtype), (idx_parts, idx_dtype)):
        for src, chunks in enumerate(parts):
            if chunks and chunks[0].dtype != dtype:
                raise TypeError(
                    f"rank {rank} receives {chunks[0].dtype} from rank {src} "
                    f"into a {dtype} stream; promote the blocks to one dtype "
                    "before sorting (DistributedSorter.sort_partitioned does)"
                )
    # Runs become views into the stream buffers (possibly scratch leases —
    # the caller releases them after the step-6 merge, whose flat kernel
    # always returns fresh arrays).  ``concatenate(out=)`` also enforces the
    # announced totals: a short or long stream is a shape error.
    if scratch is not None:
        key_buf = scratch.take(total, key_dtype)
        idx_buf = scratch.take(total, idx_dtype)
    else:
        key_buf = np.empty(total, dtype=key_dtype)
        idx_buf = np.empty(total, dtype=idx_dtype)
    bounds = run_offsets.tolist()
    np.concatenate([p for parts in key_parts for p in parts], out=key_buf)
    key_runs = [key_buf[bounds[s] : bounds[s + 1]] for s in range(size)]
    np.concatenate([p for parts in idx_parts for p in parts], out=idx_buf)
    index_runs = [idx_buf[bounds[s] : bounds[s + 1]] for s in range(size)]
    return ExchangeResult(
        key_runs, index_runs, counts_matrix, key_buf, idx_buf, run_offsets
    )
