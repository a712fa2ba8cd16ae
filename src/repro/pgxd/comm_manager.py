"""Communication manager: buffered, asynchronous array transfers.

Wraps the simnet point-to-point calls with PGX.D's two distinguishing
behaviours (section III):

* **buffer-granular messaging** — arrays are shipped as a train of
  read-buffer-sized (256 KB) messages, the granularity at which PGX.D's
  request buffers hand data to the wire, and
* **asynchronous execution** — with ``async_messaging`` on (the default),
  every chunk goes out as a non-blocking ``Isend`` so a worker can keep
  receiving while its sends drain; the ablation config flips this to
  blocking sends to quantify the benefit.

Transfers honour the config's ``data_scale``: a real array of ``b`` bytes is
announced (and charged on the network) as ``b * data_scale`` virtual bytes,
and the chunk count follows the *virtual* size — capped at
:data:`MAX_CHUNKS_PER_TRANSFER` so paper-scale runs don't explode the event
queue (the residual per-buffer software overhead is negligible next to the
serialization time the cap preserves exactly).

Both sides derive the same chunk plan from the announced byte count (the
sorting algorithm broadcasts range sizes before exchanging data — step 5 of
the paper).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..simnet.calls import Compute, Isend, Message, Recv, Send, traced_mark
from ..simnet.engine import ProcessHandle
from .buffers import num_flushes
from .config import PgxdConfig

#: Upper bound on messages per logical transfer (event-queue protection).
MAX_CHUNKS_PER_TRANSFER = 32

#: Software cost of one request-buffer hand-off (fill + flush bookkeeping),
#: charged for every buffer-sized flush the modeled transfer performs —
#: including those folded together by the chunk cap.  Matches the network
#: model's default per-message overhead.
BUFFER_FLUSH_OVERHEAD_SECONDS = 2.0e-6


def virtual_nbytes(real_nbytes: int, config: PgxdConfig) -> int:
    """Bytes a transfer occupies on the modeled wire."""
    if real_nbytes < 0:
        raise ValueError("real_nbytes must be >= 0")
    scale = config.data_scale
    if scale == 1.0:
        # round(n * 1.0) recovers n exactly for any buffer that fits in
        # memory; the unscaled default stays on an integer-only path.
        return real_nbytes
    return int(round(real_nbytes * scale))


def expected_chunks(real_nbytes: int, config: PgxdConfig) -> int:
    """Number of messages a transfer of ``real_nbytes`` will arrive in."""
    if real_nbytes == 0:
        return 0
    flushes = num_flushes(virtual_nbytes(real_nbytes, config), config.read_buffer_bytes)
    return min(flushes, MAX_CHUNKS_PER_TRANSFER)


def send_array(
    proc: ProcessHandle,
    dst: int,
    array: np.ndarray | None,
    tag: int,
    config: PgxdConfig,
    real: int | None = None,
) -> Generator:
    """Ship ``array`` to ``dst`` as buffer-granular chunks.

    Zero-length arrays send nothing (the receiver knows the count from the
    announced sizes and will not post a receive).  ``real`` (default
    ``array.nbytes``) is the size charged and planned; ``None`` sends no data.
    """
    array = None if array is None else np.ascontiguousarray(array)
    real = int(array.nbytes) if real is None else real
    if real == 0:
        return
    # One pass over the chunk plan: virtual size and flush count are derived
    # here once instead of through expected_chunks/num_flushes per call.
    vtotal = virtual_nbytes(real, config)
    flushes = -(-vtotal // config.read_buffer_bytes)  # ceil division
    if flushes == 0:
        return
    cls = Isend if config.async_messaging else Send
    if flushes > MAX_CHUNKS_PER_TRANSFER:
        chunks = MAX_CHUNKS_PER_TRANSFER
        # The modeled transfer performs one buffer flush per
        # read_buffer_bytes; the chunk cap folds them into fewer simulated
        # messages, so the folded flushes' software cost is charged
        # explicitly.  This is what makes small request buffers measurably
        # expensive (the buffer-size sweep).
        yield Compute((flushes - chunks) * BUFFER_FLUSH_OVERHEAD_SECONDS)
    else:
        chunks = flushes
    if chunks == 1:
        yield cls(dst=dst, nbytes=vtotal, payload=array, tag=tag)
        return
    n = 0 if array is None else len(array)
    # Even element/byte split with the remainder spread across chunks, as
    # integer prefix bounds (identical to the per-chunk // arithmetic).
    steps = np.arange(chunks + 1)
    bounds = ((n * steps) // chunks).tolist()
    vbounds = ((vtotal * steps) // chunks).tolist()
    for i in range(chunks):
        yield cls(
            dst=dst,
            nbytes=vbounds[i + 1] - vbounds[i],
            payload=None if array is None else array[bounds[i] : bounds[i + 1]],
            tag=tag,
        )


def recv_array(
    proc: ProcessHandle,
    src: int,
    nbytes: int,
    dtype: np.dtype,
    tag: int,
    config: PgxdConfig,
) -> Generator:
    """Receive a transfer announced as ``nbytes`` *real* bytes from ``src``.

    Returns the reassembled array (empty when ``nbytes`` is zero).  Chunks
    from one source arrive in FIFO order, so reassembly is a concatenation.
    """
    dtype = np.dtype(dtype)
    if nbytes == 0:
        return np.empty(0, dtype=dtype)
    total_chunks = expected_chunks(nbytes, config)
    msg: Message = yield Recv(src=src, tag=tag)
    first = msg.payload
    if total_chunks == 1:
        out = first  # single chunk: hand the view through, zero-copy
    elif first.dtype == dtype and nbytes % dtype.itemsize == 0:
        # The announced size fixes the transfer's extent, so the receive
        # buffer is preallocated and every chunk lands at its offset (the
        # paper's step-5 discipline) — no list accumulation, no concatenate.
        out = np.empty(nbytes // dtype.itemsize, dtype=dtype)
        out[: len(first)] = first
        cursor = len(first)
        for _ in range(total_chunks - 1):
            msg = yield Recv(src=src, tag=tag)
            payload = msg.payload
            out[cursor : cursor + len(payload)] = payload
            cursor += len(payload)
        if cursor != len(out):
            raise ValueError(
                f"transfer from {src} announced {nbytes} bytes but delivered "
                f"{cursor * dtype.itemsize}"
            )
    else:
        # Sender dtype differs from the announcement (or does not tile it):
        # legacy path, which propagates the sender's dtype unchanged.
        chunks = [first]
        for _ in range(total_chunks - 1):
            msg = yield Recv(src=src, tag=tag)
            chunks.append(msg.payload)
        out = np.concatenate(chunks)
    if out.nbytes != nbytes:
        raise ValueError(
            f"transfer from {src} announced {nbytes} bytes but delivered {out.nbytes}"
        )
    return out


def exchange_arrays(
    proc: ProcessHandle,
    outgoing: list[np.ndarray],
    announced_nbytes: list[int],
    dtype: np.dtype,
    tag: int,
    config: PgxdConfig,
) -> Generator:
    """Asynchronous personalized all-to-all of arrays (paper step 5).

    ``outgoing[d]`` is the local array destined for rank ``d``;
    ``announced_nbytes[s]`` is the *real* byte count rank ``s`` announced it
    will send to this rank (obtained via the step-4 size exchange).  All
    remote sends are posted before receives are drained, so sending overlaps
    receiving — the paper's "each processor is able to send data while
    receiving data".  Returns the received arrays indexed by source rank
    (the local chunk never touches the network).
    """
    rank, size = proc.rank, proc.size
    if len(outgoing) != size or len(announced_nbytes) != size:
        raise ValueError("need exactly one outgoing array and one announced size per rank")
    dtype = np.dtype(dtype)
    out: list[np.ndarray] = [None] * size  # type: ignore[list-item]
    out[rank] = np.asarray(outgoing[rank], dtype=dtype)
    yield from traced_mark(proc, "exchange:send")
    for offset in range(1, size):
        dst = (rank + offset) % size  # staggered to spread incast
        yield from send_array(proc, dst, np.asarray(outgoing[dst]), tag, config)
    yield from traced_mark(proc, "exchange:send", "end")
    # Announced sizes fix every source's extent up front: preallocate one
    # buffer per remote source and write each chunk at its FIFO cursor.
    # Multi-chunk sources whose payload dtype disagrees with ``dtype``
    # spill to the legacy concatenation path (propagating sender dtype).
    cursors = [0] * size
    spill: dict[int, list[np.ndarray]] = {}
    pending = 0
    for src in range(size):
        if src == rank:
            continue
        nbytes = announced_nbytes[src]
        chunks = expected_chunks(nbytes, config)
        pending += chunks
        if chunks <= 1 or nbytes % dtype.itemsize != 0:
            # Zero/one message: the payload view (or an empty array) is the
            # whole run — nothing to reassemble.
            spill[src] = []
        else:
            out[src] = np.empty(nbytes // dtype.itemsize, dtype=dtype)
    yield from traced_mark(proc, "exchange:drain")
    for _ in range(pending):
        msg: Message = yield Recv(tag=tag)
        src, payload = msg.src, msg.payload
        parts = spill.get(src)
        if parts is None and payload.dtype != dtype:
            # First mismatching chunk: abandon this source's buffer.
            parts = spill[src] = []
            cursors[src] = 0
        if parts is not None:
            parts.append(payload)
        else:
            lo = cursors[src]
            out[src][lo : lo + len(payload)] = payload
            cursors[src] = lo + len(payload)
    yield from traced_mark(proc, "exchange:drain", "end")
    for src in range(size):
        if src == rank:
            continue
        parts = spill.get(src)
        if parts is None:
            if cursors[src] != len(out[src]):
                raise ValueError(
                    f"source {src} announced {announced_nbytes[src]} bytes "
                    f"but delivered {cursors[src] * dtype.itemsize}"
                )
        elif not parts:
            out[src] = np.empty(0, dtype=dtype)
        else:
            out[src] = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return out
