"""The columnar chunk codec: exact round-trips, metadata, pushdown."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.tsdb.chunks import CHUNK_POINTS, Chunk, seal_many
from tests.test_tsdb.reference import assert_same_chunk, seal_1d


def seal(times, values):
    return Chunk.seal(
        np.asarray(times, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
    )


def assert_bit_identical(chunk, times, values):
    t, v = chunk.decode()
    assert t.dtype == np.int64 and v.dtype == np.float64
    assert np.array_equal(t, np.asarray(times, dtype=np.int64))
    # bit-level comparison so NaN payloads and -0.0 count too
    assert np.array_equal(
        v.view(np.uint64),
        np.asarray(values, dtype=np.float64).view(np.uint64),
    )


def test_round_trip_regular_cadence():
    t = np.arange(100, dtype=np.int64) * 600 + 1_400_000_000
    v = np.cumsum(np.ones(100)) * 1e6
    assert_bit_identical(seal(t, v), t, v)


def test_round_trip_single_point():
    c = seal([12345], [6.5])
    assert (c.t_min, c.t_max, c.count) == (12345, 12345, 1)
    assert_bit_identical(c, [12345], [6.5])


def test_round_trip_specials():
    t = np.arange(6, dtype=np.int64)
    v = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-308])
    assert_bit_identical(seal(t, v), t, v)


def test_round_trip_negative_and_irregular_timestamps():
    t = np.array([-86400, -600, 0, 7, 86400_000], dtype=np.int64)
    v = np.array([1.0, -2.0, 3.5, -4.25, 5.125])
    c = seal(t, v)
    assert c.t_min == -86400 and c.t_max == 86400_000
    assert_bit_identical(c, t, v)


def test_metadata_and_len():
    t = np.arange(50, dtype=np.int64) * 10
    c = seal(t, np.zeros(50))
    assert len(c) == 50
    assert (c.t_min, c.t_max) == (0, 490)


def test_seal_rejects_bad_input():
    with pytest.raises(ValueError):
        seal([], [])
    with pytest.raises(ValueError):
        seal([1, 2], [1.0])
    with pytest.raises(ValueError):
        seal([2, 1], [1.0, 2.0])  # not increasing
    with pytest.raises(ValueError):
        seal([1, 1], [1.0, 2.0])  # duplicate ts inside a chunk


def test_overlaps_window():
    c = seal([100, 200, 300], [1.0, 2.0, 3.0])
    assert c.overlaps(None, None)
    assert c.overlaps(300, 301)      # touches t_max
    assert c.overlaps(None, 101)     # [.., 101) includes t_min
    assert not c.overlaps(301, None)  # strictly past the chunk
    assert not c.overlaps(None, 100)  # half-open: [.., 100) misses 100


def test_compression_regular_counter_beats_raw():
    """Cadenced counters must compress well below the 16 B/point raw."""
    n = CHUNK_POINTS
    t = np.arange(n, dtype=np.int64) * 600
    v = np.cumsum(np.full(n, 1e5)) + 1e9
    c = seal(t, v)
    assert c.nbytes < 8 * n  # at most half the raw footprint
    constant = seal(t, np.full(n, 42.0))
    assert constant.nbytes < 2 * n  # repeats XOR to zero


@given(
    deltas=st.lists(
        st.integers(min_value=1, max_value=2**40), min_size=1, max_size=200
    ),
    start=st.integers(min_value=-(2**50), max_value=2**50),
)
def test_property_timestamps_round_trip(deltas, start):
    t = start + np.cumsum(np.asarray([0] + deltas[:-1], dtype=np.int64))
    v = np.zeros(len(t))
    assert_bit_identical(seal(t, v), t, v)


@given(
    values=st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        min_size=1,
        max_size=200,
    )
)
def test_property_values_round_trip(values):
    """Arbitrary float64 streams survive encode→decode bit-exactly."""
    t = np.arange(len(values), dtype=np.int64) * 600
    assert_bit_identical(seal(t, values), t, values)


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**9),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
        ),
        min_size=1,
        max_size=150,
    )
)
def test_property_joint_round_trip(pairs):
    """int64/float64 point streams round-trip exactly, jointly."""
    t = np.cumsum(np.asarray([p[0] for p in pairs], dtype=np.int64))
    v = [p[1] for p in pairs]
    assert_bit_identical(seal(t, v), t, v)


# -- cadence elision + batched decode (ISSUE 6) -------------------------------

def test_regular_cadence_elides_timestamp_stream():
    """Perfectly regular series — the monitoring norm — store only the
    cadence, no timestamp stream at all."""
    t = np.arange(64, dtype=np.int64) * 600 + 1_400_000_000
    c = seal(t, np.ones(64))
    assert c.t_step == 600
    assert c._t_lens == b"" and c._t_payload == b""
    assert_bit_identical(c, t, np.ones(64))


def test_single_point_counts_as_regular():
    c = seal([7], [1.0])
    assert c.t_step == 0
    assert c._t_lens == b"" and c._t_payload == b""


def test_irregular_cadence_keeps_encoded_stream():
    t = np.array([0, 600, 1201, 1800], dtype=np.int64)
    c = seal(t, np.zeros(4))
    assert c.t_step is None
    assert len(c._t_lens) > 0
    assert_bit_identical(c, t, np.zeros(4))


def test_decode_concat_bounds_and_mixed_cadence():
    """decode_concat over a regular/irregular mix: bounds partition the
    concatenation and every slice is bit-identical to a solo decode."""
    from repro.tsdb.chunks import decode_concat, decode_many

    rng = np.random.default_rng(7)
    specs = []
    for i in range(6):
        n = int(rng.integers(1, 40))
        if i % 2:
            t = np.arange(n, dtype=np.int64) * 600 + i * 10**6
        else:
            t = np.cumsum(rng.integers(1, 900, n)) + i * 10**6
        specs.append((t.astype(np.int64), rng.normal(size=n)))
    chunks = [seal(t, v) for t, v in specs]
    assert any(c.t_step is not None for c in chunks)
    assert any(c.t_step is None for c in chunks)

    t_all, v_all, bounds = decode_concat(chunks)
    assert bounds[0] == 0 and bounds[-1] == len(t_all) == sum(
        len(t) for t, _ in specs
    )
    for i, (t, v) in enumerate(specs):
        sl = slice(bounds[i], bounds[i + 1])
        assert np.array_equal(t_all[sl], t)
        assert np.array_equal(
            v_all[sl].view(np.uint64), np.asarray(v).view(np.uint64)
        )
    # decode_many agrees with per-chunk decode()
    for (bt, bv), c in zip(decode_many(chunks), chunks):
        st_, sv = c.decode()
        assert np.array_equal(bt, st_)
        assert np.array_equal(bv.view(np.uint64), sv.view(np.uint64))


def test_decode_many_empty():
    from repro.tsdb.chunks import decode_many

    assert decode_many([]) == []


def test_decode_concat_all_regular_and_all_irregular():
    from repro.tsdb.chunks import decode_concat

    reg = [
        seal(np.arange(5, dtype=np.int64) * 60 + k * 1000, np.full(5, k))
        for k in range(3)
    ]
    t, v, bounds = decode_concat(reg)
    assert len(t) == 15 and list(bounds) == [0, 5, 10, 15]
    irr = [
        seal(np.array([0, 1, 3], dtype=np.int64) + k * 1000, np.full(3, k))
        for k in range(3)
    ]
    t2, _, bounds2 = decode_concat(irr)
    assert list(bounds2) == [0, 3, 6, 9]
    assert np.array_equal(t2[:3], [0, 1, 3])


def test_preaggregates_present_on_seal():
    t = np.arange(8, dtype=np.int64)
    v = np.array([1.0, np.nan, 3.0, -2.0, np.inf, 0.5, -0.0, 4.0])
    c = seal(t, v)
    assert c.agg_count == 7
    assert c.agg_sum == np.nansum(v)
    assert c.agg_min == -2.0 and c.agg_max == np.inf
    assert (c.v_first, c.v_last) == (1.0, 4.0)


def test_wide_value_plane_sparse_path():
    """A few full-width words among many narrow ones exercises the
    occupancy-capped sparse plane decode."""
    n = 600
    v = np.full(n, 1.5)
    v[::97] = 1e300  # XOR against neighbours yields 8-byte words
    t = np.arange(n, dtype=np.int64)
    assert_bit_identical(seal(t, v), t, v)


# -- seal_many: the batched encoder against the frozen 1-D oracle ----------

#: lengths the property mixes into one call: the codec's edges (1, 2,
#: odd/even nibble padding), both sides of NumPy's pairwise-sum unroll
#: (8) and block (128), the benchmark's day head (144) and both sides
#: of the default chunk size
_LENGTHS = (1, 2, 3, 7, 8, 9, 127, 128, 129, 144, 511, 512, 513, 600)

_SPECIALS = np.array(
    [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.5, 1e308, -1e308, 5e-324, 0.1]
)
# plus a NaN with a payload and the sign bit set: must survive bit for bit
_SPECIALS = np.append(
    np.array([0xFFF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64),
    _SPECIALS,
)

#: XOR words on both sides of the byte-count edges: 0 and 1 byte,
#: 1 and 2 bytes, 7 and 8 bytes, and the widest word
_EDGE_WORDS = np.array(
    [0, 255, 256, 2**56 - 1, 2**56, 2**64 - 1], dtype=np.uint64
)


def _column(n, t_kind, v_kind, seed):
    rng = np.random.default_rng(seed)
    if t_kind == "regular":
        t = int(rng.integers(-10**9, 2 * 10**9)) + np.arange(
            n, dtype=np.int64
        ) * int(rng.integers(1, 4000))
    elif t_kind == "irregular":
        t = np.cumsum(rng.integers(1, 900, n)).astype(np.int64)
    else:  # strictly increasing over nearly the whole int64 range
        t = np.sort(
            rng.choice(np.arange(-(2**62), 2**62, 2**52), n, replace=False)
        ).astype(np.int64)
    if v_kind == "counter":
        v = np.cumsum(rng.integers(0, 10**6, n)).astype(np.float64)
    elif v_kind == "noisy":  # magnitudes spread so summation order shows
        v = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, n)
    elif v_kind == "bits":
        v = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    elif v_kind == "specials":
        v = rng.choice(_SPECIALS, n)
    elif v_kind == "edge_words":  # the XOR stream is exactly these words
        v = np.bitwise_xor.accumulate(
            rng.choice(_EDGE_WORDS, n)
        ).view(np.float64)
    elif v_kind == "zeros":
        v = rng.choice(np.array([0.0, -0.0, np.nan]), n)
    else:
        v = np.full(n, _SPECIALS[int(rng.integers(0, 2))])  # all-NaN
    return t, v


_columns = st.lists(
    st.tuples(
        st.sampled_from(_LENGTHS) | st.integers(1, 600),
        st.sampled_from(["regular", "irregular", "wide"]),
        st.sampled_from(
            ["counter", "noisy", "bits", "specials", "zeros", "all_nan",
             "edge_words"]
        ),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=12,
)


@given(_columns)
@example([
    (n, t_kind, "edge_words", seed)
    for n, seed in ((1, 0), (2, 1), (7, 2), (8, 3), (143, 4), (144, 5))
    for t_kind in ("regular", "irregular")
])
def test_seal_many_equals_frozen_encoder(specs):
    """Any batch, any mix of lengths: slot for slot the old chunk."""
    cols = [_column(*spec) for spec in specs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf sums
        refs = [seal_1d(t, v) for t, v in cols]
        chunks = seal_many(cols)
        solo = [Chunk.seal(t, v) for t, v in cols]
    assert len(chunks) == len(cols)
    for spec, chunk, one, ref in zip(specs, chunks, solo, refs):
        assert_same_chunk(chunk, ref, spec)
        assert_same_chunk(one, ref, spec)  # Chunk.seal is the k = 1 case
    assert len({c.chunk_id for c in chunks}) == len(chunks)


@pytest.mark.parametrize("v_kind", ["noisy", "specials", "zeros"])
def test_seal_many_row_sums_match_1d_nansum(v_kind):
    """A 2-D row reduction sums in the 1-D pairwise order: many rows
    per length on both sides of the unroll (8) and the block (128)."""
    cols = [
        _column(n, "regular", v_kind, 1000 * n + k)
        for n in (7, 8, 9, 127, 128, 129, 255, 256, 257, 600)
        for k in range(25)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for chunk, (t, v) in zip(seal_many(cols), cols):
            assert_same_chunk(chunk, seal_1d(t, v), len(t))


def test_seal_many_empty_batch():
    assert seal_many([]) == []


def test_seal_many_accepts_lists_and_keeps_order():
    cols = [([3, 4, 9], [1.0, 2.0, 3.0]), ([5], [7.0]), ([0, 10, 20], [0, 0, 0])]
    chunks = seal_many(cols)
    assert [(c.t_min, c.t_max, c.count) for c in chunks] == [
        (3, 9, 3), (5, 5, 1), (0, 20, 3),
    ]
    assert [c.t_step for c in chunks] == [None, 0, 10]
    for c, (t, v) in zip(chunks, cols):
        assert_bit_identical(c, t, v)


@pytest.mark.parametrize(
    "bad, message",
    [
        (([], []), "empty"),
        (([1, 2], [1.0]), "differ in length"),
        (([1, 3, 3], [1.0, 2.0, 3.0]), "strictly increasing"),
        (([5, 4, 6], [1.0, 2.0, 3.0]), "strictly increasing"),
    ],
)
def test_seal_many_validates_every_column_before_encoding(bad, message):
    """One bad column fails the whole batch, whatever its position and
    whichever length group it lands in — nothing is half-built."""
    good = [([1, 2, 3], [1.0, 2.0, 3.0]), ([1, 2], [1.0, 2.0])]
    for batch in ([bad] + good, good + [bad], [good[0], bad, good[1]]):
        with pytest.raises(ValueError, match=message):
            seal_many(batch)
    with pytest.raises(ValueError, match=message):
        Chunk.seal(*bad)
