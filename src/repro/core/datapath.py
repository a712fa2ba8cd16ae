"""One data path on both substrates: what a job sorts, exchanges and merges.

Which of two things steps 1, 5 and 6 move is one decision per job, taken
from its key frame (:func:`~repro.core.packsort.derive_key_frame` over
every block's statistics, allgathered in step 1 on both substrates).
Both substrates hand the frame, or ``None`` on a miss, to
:func:`local_sort` with the block and the buffer its words go to, and
carry the :class:`DataPath` it returns:

* the **word path** — the frame fits, and provenance rides inside the
  key: each rank sorts unique ``(code, position)`` words, int32 when the
  frame's code and origin position fit in 30 bits and int64 otherwise.
  Steps 2–4 read them as :class:`~repro.core.packsort.SortedWords`, never
  decoded whole; step 5 moves word slices, 4 or 8 B/key, into the output
  whose itemsize is the word's when there is one (``index`` for int32
  words, ``keys`` for the int64 words of 8-byte keys); step 6 sorts the
  rank's region of the word stream in place
  (:func:`~repro.core.packsort.sort_runs_in_place`: words from different
  ranks compare in the stable merge order, so no permutation exists to
  apply) and unpacks once into the job's outputs, refilling the keys the
  two lossy float codes cannot give back (−0.0, NaN payloads) from the
  job's input when the frame :attr:`~repro.core.packsort.KeyFrame.refills`;
* **keys + perm** — the frame misses, or the codec has no code for the
  dtype: :func:`~repro.core.steps.sort_block` runs, keys and an int32
  permutation cross the exchange as two streams, and
  :func:`~repro.core.steps.merge_received` turns each run's permutation
  into origin positions and merges them.

Either way a job has two outputs, its sorted keys and each key's origin
position in the input (the ``index`` role); the origin processor and its
local index are derived from the position on demand
(:class:`~repro.core.provenance.Provenance`).

Either way each receiver knows every range size up front (the paper's
step 5), so a run lands at its final offset in the job's storage and is
merged there: Axtmann et al.'s move-once rule.  The storage is one
:class:`JobStorage` layout (:func:`lay_out`): the pool maps it from its
job's shared-memory leases, the simulator draws it from the job's arena.
The kernels, :func:`local_sort` and :attr:`DataPath.merge`, are pure: a
pooled worker calls them inline, the simulator runs each step's, every
rank's at once, as one batch on its run's kernel threads.  A path
*declares* what a substrate needs to know — the roles its step 5 wrote,
the bytes each key cost, its label — so nothing downstream re-derives
the decision, and which bytes of the job's storage its kernels touched
(:data:`Access`), which ShmSan (:mod:`repro.parallel.shmsan`) checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .packsort import KeyFrame, SortedWords, has_key_codec
from .packsort import pack_words, sort_runs_in_place, unpack_words
from .steps import INDEX_DTYPE, merge_received, sort_block

#: ``local_sort_path`` of the word path, the fastest of the labels.
THROUGH = "through"
#: The widest packed ``(code, position)`` word: the dtype of the
#: ``words`` stream, which int64 words of keys narrower than 8 bytes use.
WORD_DTYPE = np.dtype(np.int64)
#: The roles a finished job's result is read from.
OUTPUT_ROLES = ("keys", "index")

#: A kernel's access to the job's storage: ``(role, lo, hi, kind, label)``,
#: bytes ``[lo, hi)`` from the role's start, ``kind`` ``"r"`` or ``"w"``.
Access = tuple[str, int, int, str, str]


def surfaced_sort_path(label: str) -> str | None:
    """The label a run report shows: only off the fastest path, so a slow
    job explains itself and fast reports keep their schema."""
    return None if label == THROUGH else label


class JobStorage(NamedTuple):
    """One job's storage, one layout on both substrates.

    Each role is an array, or on the pool's driver the lease it is mapped
    from (:meth:`map`).  Rank ``r``'s region of ``keys``, ``index`` and
    ``words`` follows every lower rank's: step 5 receives into it, step 6
    merges there.
    """

    #: Where each rank's block starts in ``input``, and where the last ends.
    block_starts: np.ndarray
    #: The unsorted input, blocks back to back: a refilling frame's refill
    #: source.  A pooled word-path rank whose frame refills nothing packs
    #: its words over its own block here.
    input: Any
    keys: Any
    #: Origin position of each key in ``input``: int32 while the job holds
    #: fewer than 2^31 keys, int64 beyond.
    index: Any
    #: The step-5 stream of int64 words, one per key (int32 words travel
    #: in ``index``); ``None`` when the codec has no code for the key dtype.
    words: Any

    def map(self, view: Callable[[Any], Any]) -> "JobStorage":
        """The same layout with every role passed through ``view``."""
        roles = [role for role in ("input", *OUTPUT_ROLES, "words") if getattr(self, role) is not None]
        return self._replace(**{role: view(getattr(self, role)) for role in roles})

    def block(self, rank: int) -> tuple[np.ndarray, Access]:
        """Rank ``rank``'s block of the staged ``input``, and the read that
        takes it into step 1."""
        lo, hi = self.block_starts[rank : rank + 2].tolist()
        return self.input[lo:hi], _access("input", self.input, lo, hi, "r", "input-read")


def _access(role: str, array: np.ndarray, lo: int, hi: int, kind: str, label: str) -> Access:
    """Elements ``[lo, hi)`` of ``role``'s ``array`` as an :data:`Access`."""
    return role, lo * array.itemsize, hi * array.itemsize, kind, label


def _merged(streams: list, base: int, stop: int) -> list[Access]:
    """Step 6 reads and rewrites the rank's region ``[base, stop)`` of
    every exchanged stream."""
    return [
        _access(role, stream, base, stop, kind, label)
        for kind, label in (("r", "merge-read"), ("w", "merge-write"))
        for role, stream, _payload in streams
    ]


def _words_alias_keys(dtype: np.dtype) -> bool:
    """8-byte keys decode in place: their word stream *is* the keys."""
    return dtype.itemsize == WORD_DTYPE.itemsize


def lay_out(
    block_starts: np.ndarray,
    dtype,
    take: Callable[[str, int, np.dtype], Any],
    retype: Callable[[Any, np.dtype], Any],
) -> JobStorage:
    """A job's storage, each role allocated by ``take(role, n, dtype)``;
    for 8-byte keys the int64 word stream is ``retype(keys, WORD_DTYPE)``,
    and narrower keys take a stream of their own, which int32 words leave
    unread."""
    n, dtype = int(block_starts[-1]), np.dtype(dtype)
    source, keys = take("input", n, dtype), take("keys", n, dtype)
    index = take("index", n, INDEX_DTYPE if n < 1 << 31 else WORD_DTYPE)
    words = None
    if has_key_codec(dtype):
        alias = _words_alias_keys(dtype)
        words = retype(keys, WORD_DTYPE) if alias else take("words", n, WORD_DTYPE)
    return JobStorage(block_starts, source, keys, index, words)


@dataclass
class DataPath:
    """What one job sorts, exchanges and merges on one rank."""

    #: This rank's ``local_sort_path``: :data:`THROUGH`, or the keys +
    #: perm step-1 kernel that ran (``"packed"``/``"stable"``).
    label: str
    #: What steps 2–4 read (``take``, ``searchsorted``, ``len``, ``dtype``):
    #: the rank's sorted keys or, on the word path, its sorted words.
    sorted_block: np.ndarray | SortedWords
    #: Step 5's streams: ``(role, the job's stream, this rank's sorted
    #: payload)``; one run per (src, dst) lands in each.
    streams: list[tuple[str, np.ndarray, np.ndarray]]
    #: Step 6: ``merge(base, stop, run_lengths)`` merges the rank's region
    #: ``[base, stop)`` of the streams into the job's outputs and returns
    #: its accesses.
    merge: Callable[[int, int, list[int]], list[Access]]
    #: Step 1's writes: the pack over the rank's staged block, if it went there.
    packed: list[Access]

    @property
    def exchanged(self) -> tuple[str, ...]:
        """The storage roles step 5 writes."""
        return tuple(role for role, _stream, _payload in self.streams)

    @property
    def bytes_per_key(self) -> int:
        return sum(payload.dtype.itemsize for _role, _stream, payload in self.streams)

    def write(self, run: slice, at: int) -> list[Access]:
        """Step 5's one data move: the sorted ``run`` lands at ``at`` in
        every stream, one ``exchange-write`` each."""
        end, accesses = at + run.stop - run.start, []
        for role, stream, payload in self.streams:
            stream[at:end] = payload[run]
            accesses.append(_access(role, stream, at, end, "w", "exchange-write"))
        return accesses


def local_sort(
    frame: KeyFrame | None,
    storage: JobStorage,
    rank: int,
    block: np.ndarray,
    words: np.ndarray | None,
) -> DataPath:
    """Step 1 on one rank: sort ``block``, and return the job's data path.

    With a ``frame`` the block's keys are coded and packed into ``words``
    (one word of the frame's dtype per key) and sorted there.  Where the
    words live is the host's to say.  A pooled worker packs them over its
    staged block, the rank's slice of the job's ``input``, whenever a word
    is no wider than a key and the frame does not refill: nothing reads
    that input again.  It says so with ``words=None``, and the path
    declares the pack.  A refilling frame keeps the input as the refill
    source, and its words, like int64 words of narrower keys, take a
    scratch lease.  The simulator never writes the caller's blocks: its
    words take a lease of the job's arena.  Without a frame, keys + perm,
    and the block is only read.
    """
    if frame is None:
        return _keys_perm_path(storage, block)
    start, packed = int(storage.block_starts[rank]), []
    if words is None:
        words = block.view(frame.word_dtype)[: len(block)]
        lo = start * block.itemsize
        packed.append(("input", lo, lo + words.nbytes, "w", "step-1-pack"))
    pack_words(block, frame, start, words).sort()
    return _word_path(frame, storage, words, packed)


def _word_path(frame: KeyFrame, storage: JobStorage, words: np.ndarray, packed: list[Access]) -> DataPath:
    # The stream is the output whose itemsize is the word's: the origins
    # for int32 words, decoded in place last as 8-byte keys are.
    if frame.word_dtype == storage.index.dtype:
        role, stream = "index", storage.index
    else:
        role = "keys" if _words_alias_keys(storage.keys.dtype) else "words"
        stream = storage.words

    def merge(base, stop, run_lengths):
        region = stream[base:stop]
        sort_runs_in_place(region, run_lengths, frame.pos_bits)
        refilled = unpack_words(
            region, frame, storage.input, storage.keys[base:stop], storage.index[base:stop]
        )
        accesses = _merged(streams, base, stop) + [
            _access("index", storage.index, base, stop, "w", "index-write"),
            _access("keys", storage.keys, base, stop, "w", "key-write"),
        ]
        if refilled:
            accesses.append(_access("input", storage.input, 0, len(storage.input), "r", "refill-read"))
        return accesses

    streams = [(role, stream, words)]
    return DataPath(THROUGH, SortedWords(words, frame, storage.input), streams, merge, packed)


def _keys_perm_path(storage: JobStorage, block: np.ndarray) -> DataPath:
    sorted_keys, perm, label = sort_block(block)

    def merge(base, stop, run_lengths):
        merge_received(
            storage.keys[base:stop], storage.index[base:stop], run_lengths, storage.block_starts
        )
        return _merged(streams, base, stop)

    streams = [("keys", storage.keys, sorted_keys), ("index", storage.index, perm)]
    return DataPath(label, sorted_keys, streams, merge, [])
