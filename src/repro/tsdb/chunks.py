"""Sealed columnar chunks: the TSDB's at-rest storage format.

A :class:`Chunk` is an immutable, compressed segment of one series —
the Gorilla/OpenTSDB design (Pelkonen et al., VLDB 2015) adapted to
vectorised NumPy encode/decode:

* **timestamps** — delta-of-delta: monitoring samples arrive on a
  fixed cadence, so the second difference of the timestamp column is
  almost always zero.  Each dod is zigzag-mapped to an unsigned word.
* **values** — XOR with the previous value's IEEE-754 bit pattern:
  repeated values XOR to zero and slowly-moving counters differ only
  in low mantissa bits, so the XOR word is small.

Both columns then go through one *nibble-length* codec: per word a
4-bit byte-count (0–8, two per length byte) plus exactly that many
little-endian payload bytes.  Unlike classic bit-packed Gorilla, every
column decodes with a handful of whole-array NumPy operations — no
per-point Python loop on either side — which is what lets the chunked
store beat the list store on write *and* stay competitive on decode.

Round-tripping is bit-exact for any int64 timestamp and any float64
value (including NaN payloads and infinities): the value transform is
a pure bit permutation, never arithmetic on the floats.

Chunks carry ``(t_min, t_max, count)`` so queries can discard a whole
chunk on its metadata before paying for a decode (predicate pushdown)
and retention can drop expired chunks without decoding them at all.

Two read-path accelerators live here as well:

* **pre-aggregates** — :meth:`Chunk.seal` computes NaN-aware
  count/sum/min/max plus the first/last values once per slab, at seal
  time (:func:`preaggregate`).  A
  windowed scalar aggregate over a chunk that the window fully covers
  is answered from these eight numbers without touching the payload
  (see :func:`repro.tsdb.query.window_stats`); only chunks straddling
  a window edge pay for a decode.  The stored values are exactly what
  ``np.nansum`` / ``np.nanmin`` / ``np.nanmax`` return on the decoded
  columns — decode is bit-exact, so the equality is bit-level.
* **batched decode** — :func:`decode_many` decompresses any number of
  chunks (across any number of series) in one set of whole-array
  NumPy operations.  Per-chunk boundaries are handled with segmented
  prefix sums (integer cumsum minus a per-segment base, exact under
  two's-complement wraparound) and a segmented XOR prefix (the XOR
  accumulate of the concatenation, re-based per chunk — exact because
  XOR is its own inverse).  This is the same job-stacking trick that
  won the batch-ingest speedup, applied to the read path: decoding 64
  chunks costs a handful of array ops, not 64 Python round-trips.

The write path is batched the same way: :func:`seal_many` stacks
columns of equal length into ``(k, n)`` matrices and encodes each
group with one pass of whole-array operations.  The store's head block
is such a group already — K columns over one shared time vector — so
:meth:`repro.tsdb.store.TimeSeriesDB.seal_heads` hands the encoder
(:func:`_seal_group`) the block's ``(K, n)`` slab as it is, and its
timestamp column is encoded once for all K.  :meth:`Chunk.seal` is
:func:`seal_many`'s one-column case, so the codec exists once.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Chunk", "CHUNK_POINTS", "decode_many", "decode_concat", "seal_many",
]

#: chunk ids: process-unique keys for the decoded-buffer cache
#: (:class:`repro.tsdb.cache.BufferCache`); never reused, so a cache
#: entry can outlive a pruned chunk without ever aliasing a new one
_CHUNK_IDS = itertools.count()

#: in-memory cost of the pre-aggregate block (count + sum/min/max +
#: first/last + the id + the cadence step), charged to ``nbytes`` so
#: the compression benchmarks account for what the read path actually
#: keeps resident
_PREAGG_BYTES = 64

#: default seal threshold: points buffered in a series head before
#: they are frozen into one compressed chunk
CHUNK_POINTS = 512

#: byte-count thresholds: word > _THRESH[k] ⇒ needs more than k bytes
_THRESH = (
    np.uint64(1) << (np.uint64(8) * np.arange(8, dtype=np.uint64))
) - np.uint64(1)

_U1 = np.uint64(1)
#: by byte count ``L``: the little-endian word whose low ``L`` bytes are
#: 1, so a row of entries viewed as bools is a row of words' byte mask
_KEEP_BYTES = np.array([(256**L - 1) // 255 for L in range(9)], dtype="<u8")


def _encode_words(words: np.ndarray) -> Tuple[List[bytes], List[bytes]]:
    """``(k, n)`` uint64 rows → per row (packed nibble lengths, payload).

    One pass over the whole matrix: a word's minimal byte count is its
    rank among the byte-width thresholds; lengths pack two 4-bit
    nibbles per byte (0..8 fits; odd rows get a zero pad nibble); the
    payload is each word's low ``len`` bytes (a table lookup, then one
    ``np.compress``) of its little-endian byte view in row-major order —
    the layout :func:`_decode_words_many` addresses with one prefix sum.
    """
    k, n = words.shape
    lens = np.searchsorted(_THRESH, words.ravel()).reshape(k, n)
    payload = np.compress(
        _KEEP_BYTES[lens].view(np.bool_).ravel(),
        words.astype("<u8", copy=False).view(np.uint8).ravel(),
    ).tobytes()
    ends = np.cumsum(lens.sum(axis=1)).tolist()
    nibbles = lens.astype(np.uint8)
    if n % 2:
        nibbles = np.concatenate(
            [nibbles, np.zeros((k, 1), dtype=np.uint8)], axis=1
        )
    packed = (nibbles[:, 0::2] | (nibbles[:, 1::2] << 4)).tobytes()
    m = (n + 1) // 2
    return (
        [packed[i * m:(i + 1) * m] for i in range(k)],
        [payload[a:b] for a, b in zip([0] + ends, ends)],
    )


def _unpack_nibbles_many(
    bufs: List[bytes], counts: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Concatenated per-word byte lengths for many packed-nibble bufs.

    Each buf independently packs two 4-bit lengths per byte with a pad
    nibble when its word count is odd, so the valid slots of buf *i*
    sit at ``2 * ceil(counts/2)`` strides; ``positions`` is the
    concatenated per-chunk 0..n_i-1 ramp used to pick them out.
    """
    joined = np.frombuffer(b"".join(bufs), dtype=np.uint8)
    slots = np.empty(2 * len(joined), dtype=np.int64)
    slots[0::2] = joined & 0x0F
    slots[1::2] = joined >> 4
    slot_counts = 2 * ((counts + 1) // 2)
    slot_offsets = np.concatenate(([0], np.cumsum(slot_counts)[:-1]))
    return slots[np.repeat(slot_offsets, counts) + positions]


def _decode_words_many(lens: np.ndarray, payload_bufs: List[bytes]) -> np.ndarray:
    """Payload bytes → uint64 words for many concatenated columns.

    ``lens`` is the concatenated per-word byte count; payload bufs are
    back-to-back, so one exclusive prefix sum of ``lens`` addresses
    every word's bytes across all chunks at once.  Each word's up-to-8
    bytes gather into one ``(words, 8)`` matrix (the pad keeps the
    tail gather in bounds), the beyond-length slots zero out, and the
    byte rows reinterpret directly as little-endian uint64 — three
    whole-array operations total, no per-byte-position loop.
    """
    n = len(lens)
    starts = np.empty(n, dtype=np.int64)
    if n:
        starts[0] = 0
        np.cumsum(lens[:-1], out=starts[1:])
    words = np.zeros(n, dtype=np.uint64)
    width = int(lens.max()) if n else 0
    if width == 0:
        return words
    # byte-plane occupancy: how many words are at least j+1 bytes wide
    occupancy = np.bincount(lens, minlength=width + 1)[::-1].cumsum()[::-1]
    # planes above this are touched by a vanishing fraction of words
    # (e.g. only the 8-byte-wide first word of each chunk's XOR
    # stream); they are cheaper as an explicit sparse gather than as
    # another full-width pass
    dense = width
    while dense > 1 and occupancy[dense] * 16 < n:
        dense -= 1
    payload = np.frombuffer(b"".join(payload_bufs), dtype=np.uint8)
    payload = np.concatenate([payload, np.zeros(width, dtype=np.uint8)])
    # gather one (dense, n) byte *plane* per significance level —
    # plane-major keeps every NumPy inner loop n elements long (the
    # row-major (n, width) orientation pays per-row iterator overhead
    # on a 1–8 element inner axis, ~5× slower) — and only up to the
    # widest common width: cadenced timestamp dods are 0–2 bytes, the
    # full 8 only shows up for fast-moving value columns
    planes = payload[np.arange(dense, dtype=np.int64)[:, None] + starts]
    planes *= np.arange(dense, dtype=np.int64)[:, None] < lens
    np.copyto(words, planes[0], casting="unsafe")
    tmp = np.empty(n, dtype=np.uint64)
    for j in range(1, dense):
        np.copyto(tmp, planes[j], casting="unsafe")
        tmp <<= np.uint64(8 * j)
        words |= tmp
    for j in range(dense, width):
        wide = np.flatnonzero(lens > j)
        words[wide] |= payload[starts[wide] + j].astype(np.uint64) << np.uint64(
            8 * j
        )
    return words


def _segmented_cumsum(
    x: np.ndarray, offsets: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-segment cumulative sum via one global cumsum.

    Exact for int64 even through wraparound: every term is computed
    modulo 2**64 and the per-segment base is subtracted back out, so
    any value that fits int64 comes out bit-exact.
    """
    cs = np.cumsum(x)
    base = np.zeros(len(counts), dtype=x.dtype)
    base[1:] = cs[offsets[1:] - 1]
    return cs - np.repeat(base, counts)


def _decode_t_stream(chunks: Sequence["Chunk"]) -> np.ndarray:
    """Decode the stored dod streams of irregular chunks to int64 t."""
    counts = np.asarray([c.count for c in chunks], dtype=np.int64)
    total = int(counts.sum())
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    t_lens = _unpack_nibbles_many(
        [c._t_lens for c in chunks], counts, positions
    )
    dod = _unzigzag(
        _decode_words_many(t_lens, [c._t_payload for c in chunks])
    )
    c1 = _segmented_cumsum(dod, offsets, counts)
    return _segmented_cumsum(c1, offsets, counts) - positions * np.repeat(
        dod[offsets], counts
    )


def decode_concat(
    chunks: Sequence["Chunk"],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode many chunks into one concatenated ``(t, v, bounds)``.

    ``bounds`` has ``len(chunks) + 1`` entries; chunk *i* occupies
    ``t[bounds[i]:bounds[i+1]]``.  The concatenated form is what the
    store's scan wants — consecutive chunks of one series come back as
    a single contiguous span, so assembling a cold series is two array
    slices instead of a per-chunk merge loop.
    """
    counts = np.asarray([c.count for c in chunks], dtype=np.int64)
    total = int(counts.sum())
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # concatenated 0..n_i-1 ramps, one per chunk
    positions = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)

    # timestamps: constant-cadence chunks rebuild t0 + k*step directly
    # (the monitoring norm — no stored stream at all); only chunks
    # with an encoded dod stream pay for word decode + two segmented
    # cumsums (t[j] = ccum(ccum(dod))[j] - j * t0), over their rows
    steps = [c.t_step for c in chunks]
    t = np.repeat(
        np.asarray([c.t_min for c in chunks], dtype=np.int64), counts
    )
    t += positions * np.repeat(
        np.asarray([s or 0 for s in steps], dtype=np.int64), counts
    )
    if None in steps:
        irregular = [s is None for s in steps]
        t[np.repeat(irregular, counts)] = _decode_t_stream(
            [c for c, i in zip(chunks, irregular) if i]
        )

    # values: one global XOR prefix, re-based at each chunk start
    v_lens = _unpack_nibbles_many(
        [c._v_lens for c in chunks], counts, positions
    )
    words = _decode_words_many(v_lens, [c._v_payload for c in chunks])
    acc = np.bitwise_xor.accumulate(words)
    base = np.zeros(len(counts), dtype=np.uint64)
    base[1:] = acc[offsets[1:] - 1]
    v = (acc ^ np.repeat(base, counts)).view(np.float64)

    return t, v, np.append(offsets, total)


def decode_many(chunks: Sequence["Chunk"]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Decode any number of chunks in one batch of whole-array ops.

    Returns ``[(times, values), ...]`` aligned with ``chunks``.  The
    output is bit-identical to decoding each chunk on its own — the
    segmented prefix-sum/XOR re-basing is exact — but the cost is a
    fixed set of NumPy kernels over the concatenation instead of a
    Python round-trip per chunk, which is what makes cold multi-series
    scans cheap.
    """
    if not chunks:
        return []
    t, v, bounds = decode_concat(chunks)
    return [
        (t[bounds[i]:bounds[i + 1]], v[bounds[i]:bounds[i + 1]])
        for i in range(len(chunks))
    ]


def _zigzag(v: np.ndarray) -> np.ndarray:
    """int64 → uint64 so small magnitudes get short encodings."""
    v = v.astype(np.int64, copy=False)
    return (np.left_shift(v, 1) ^ np.right_shift(v, 63)).view(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    return ((u >> _U1) ^ (np.uint64(0) - (u & _U1))).view(np.int64)


class Chunk:
    """One sealed, compressed, immutable segment of a series.

    Timestamps inside a chunk are strictly increasing; ``t_min`` /
    ``t_max`` / ``count`` describe the chunk without decoding it, and
    the ``agg_*`` pre-aggregates answer whole-chunk scalar aggregates
    without decoding either.  ``chunk_id`` is a process-unique key
    (never reused) for the decoded-buffer cache.
    """

    __slots__ = (
        "t_min", "t_max", "count", "chunk_id", "t_step",
        "agg_count", "agg_sum", "agg_min", "agg_max",
        "v_first", "v_last",
        "_t_lens", "_t_payload", "_v_lens", "_v_payload",
    )

    def __init__(
        self,
        t_min: int,
        t_max: int,
        count: int,
        t_lens: bytes,
        t_payload: bytes,
        v_lens: bytes,
        v_payload: bytes,
        agg_count: int,
        agg_sum: float,
        agg_min: float,
        agg_max: float,
        v_first: float,
        v_last: float,
        t_step: Optional[int] = None,
    ) -> None:
        self.t_min = t_min
        self.t_max = t_max
        self.count = count
        self.chunk_id = next(_CHUNK_IDS)
        #: constant cadence in seconds when the chunk's timestamps are
        #: perfectly regular (``None`` ⇒ an encoded dod stream exists)
        self.t_step = t_step
        #: non-NaN sample count (the denominator ``mean`` wants)
        self.agg_count = agg_count
        #: ``np.nansum`` of the values (0.0 when every value is NaN,
        #: exactly like ``np.nansum``)
        self.agg_sum = agg_sum
        #: ``np.nanmin`` / ``np.nanmax`` (NaN when every value is NaN)
        self.agg_min = agg_min
        self.agg_max = agg_max
        #: raw first/last values (may be NaN; timestamps are
        #: ``t_min`` / ``t_max``)
        self.v_first = v_first
        self.v_last = v_last
        self._t_lens = t_lens
        self._t_payload = t_payload
        self._v_lens = v_lens
        self._v_payload = v_payload

    # -- construction --------------------------------------------------------
    @classmethod
    def seal(cls, times: np.ndarray, values: np.ndarray) -> "Chunk":
        """Freeze two aligned columns into one compressed chunk.

        ``times`` must be strictly increasing (the store sorts and
        dedupes the head before sealing).  The ``k = 1`` case of
        :func:`seal_many`, which holds the codec.
        """
        return seal_many([(times, values)])[0]

    # -- reading -------------------------------------------------------------
    def decode(self) -> Tuple[np.ndarray, np.ndarray]:
        """Decompress back to ``(times int64, values float64)``."""
        return decode_many([self])[0]

    def overlaps(self, lo: Optional[int], hi: Optional[int]) -> bool:
        """Does [t_min, t_max] intersect the half-open window [lo, hi)?"""
        if lo is not None and self.t_max < lo:
            return False
        if hi is not None and self.t_min >= hi:
            return False
        return True

    @property
    def nbytes(self) -> int:
        """At-rest cost: compressed columns + the pre-aggregate block."""
        return (
            len(self._t_lens) + len(self._t_payload)
            + len(self._v_lens) + len(self._v_payload)
            + _PREAGG_BYTES
        )

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Chunk(n={self.count}, t=[{self.t_min},{self.t_max}], "
            f"{self.nbytes}B)"
        )


def seal_many(
    columns: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> List[Chunk]:
    """Freeze many ``(times, values)`` columns in one batch of array ops.

    The write-side twin of :func:`decode_many`: returns one chunk per
    column, aligned with ``columns`` and bit-identical to sealing each
    on its own.  Columns of equal length are stacked into ``(k, n)``
    matrices, so the cadence check, XOR-with-previous, byte lengths,
    payload gather and pre-aggregates each run once per length group
    instead of once per series.  Every column is validated (non-empty,
    aligned, strictly increasing) before any chunk is built.
    """
    by_len: Dict[int, List[int]] = {}
    cols = []
    for i, (times, values) in enumerate(columns):
        t = np.asarray(times, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if len(t) == 0:
            raise ValueError("cannot seal an empty chunk")
        if len(t) != len(v):
            raise ValueError("time/value columns differ in length")
        cols.append((t, v))
        by_len.setdefault(len(t), []).append(i)
    groups = []
    for idx in by_len.values():
        t = np.stack([cols[i][0] for i in idx])
        if not (t[:, 1:] > t[:, :-1]).all():
            raise ValueError("chunk timestamps must be strictly increasing")
        groups.append((idx, t, np.stack([cols[i][1] for i in idx])))
    out: List[Optional[Chunk]] = [None] * len(cols)
    for idx, t, v in groups:
        for i, chunk in zip(idx, _seal_group(t, v)):
            out[i] = chunk
    return out


def _seal_group(t: np.ndarray, v: np.ndarray) -> List[Chunk]:
    """Encode ``k`` validated columns of one length ``n``: ``v`` is their
    C-contiguous ``(k, n)`` values and ``t`` either their ``(k, n)``
    times or one ``(n,)`` time vector they all share — a head block's
    slab, whose timestamp column is then encoded once for all ``k``."""
    k, n = v.shape
    tt = t.reshape(-1, n)
    kt = len(tt)
    # constant cadence (the monitoring norm: every delta-of-delta past
    # the first is zero) stores no timestamp stream at all — just the
    # step, from which decode rebuilds t0 + k*step bit-exactly in int64
    t_steps: List[Optional[int]] = [0] * kt
    t_lens, t_payload = [b""] * kt, [b""] * kt
    if n > 1:
        d = np.diff(tt, axis=1)
        t_steps = d[:, 0].tolist()
        irregular = np.flatnonzero((d != d[:, :1]).any(axis=1))
        if len(irregular):
            # delta-of-delta stream: [t0, d1, d2-d1, ...]
            di = d[irregular]
            dod = np.empty((len(irregular), n), dtype=np.int64)
            dod[:, 0] = tt[irregular, 0]
            dod[:, 1] = di[:, 0]
            dod[:, 2:] = di[:, 1:] - di[:, :-1]
            for i, lens, payload in zip(
                irregular.tolist(), *_encode_words(_zigzag(dod))
            ):
                t_steps[i], t_lens[i], t_payload[i] = None, lens, payload
    t_min, t_max = tt[:, 0].tolist(), tt[:, -1].tolist()
    if kt < k:  # one shared time column
        t_steps, t_lens, t_payload = t_steps * k, t_lens * k, t_payload * k
        t_min, t_max = t_min * k, t_max * k

    # XOR-with-previous on the raw IEEE-754 bit patterns
    words = v.view(np.uint64)
    xored = words.copy()
    xored[:, 1:] ^= words[:, :-1]
    v_lens, v_payload = _encode_words(xored)
    # pre-aggregates, computed on the exact columns the decode will
    # reproduce (decode is bit-exact, so these ARE the decode-time
    # aggregates)
    return list(map(
        Chunk, t_min, t_max, [n] * k, t_lens, t_payload, v_lens, v_payload,
        *preaggregate(v), t_steps,
    ))


def preaggregate(v: np.ndarray) -> Tuple[list, ...]:
    """Per row of the ``(k, n)`` values ``v`` (``n`` ≥ 1, rows
    contiguous): the non-NaN count, NaN-skipping sum, ``fmin``,
    ``fmax``, first and last value, as six lists — bit for bit the 1-D
    nan-reductions of each row alone (the same inner loops run along
    the row axis; an all-NaN row's extrema are the canonical NaN)."""
    nan = np.isnan(v)
    count = v.shape[1] - nan.sum(axis=1)
    total = np.where(nan, 0.0, v).sum(axis=1)
    with np.errstate(all="ignore"):
        lo = np.where(count, np.fmin.reduce(v, axis=1), np.nan)
        hi = np.where(count, np.fmax.reduce(v, axis=1), np.nan)
    return (
        count.tolist(), total.tolist(), lo.tolist(), hi.tolist(),
        v[:, 0].tolist(), v[:, -1].tolist(),
    )
