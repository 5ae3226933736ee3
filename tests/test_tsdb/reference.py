"""Frozen references for the batch-load equivalence tests.

Two pieces of pre-PR-13 production code, kept verbatim in behaviour so
the columnar replacements in ``src/`` have an oracle:

* :func:`seal_1d` — the one-column chunk encoder ``Chunk.seal`` used to
  be (one Python round-trip per series), returning the chunk's slots as
  a dict;
* :func:`ingest_file_reference` — the per-sample loader ``ingest_file``
  used to be (``RawFileParser`` walked sample by sample, every point
  appended to Python lists).

Do not "fix" or speed these up: they are the specification.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.rawfile import RawFileParser

#: every Chunk slot the encoder decides (``chunk_id`` is a process-wide
#: serial number, not a property of the data)
CHUNK_FIELDS = (
    "t_min", "t_max", "count", "t_step",
    "agg_count", "agg_sum", "agg_min", "agg_max", "v_first", "v_last",
    "_t_lens", "_t_payload", "_v_lens", "_v_payload",
)


def assert_same_chunk(chunk, ref, where=None) -> None:
    """``chunk`` equals ``ref`` (a :func:`seal_1d` dict or another
    chunk) on every slot but ``chunk_id``: same types, floats compared
    by their 8 bytes so NaN payloads and signed zeros count."""
    for name in CHUNK_FIELDS:
        new = getattr(chunk, name)
        old = ref[name] if isinstance(ref, dict) else getattr(ref, name)
        if isinstance(old, float):
            same = isinstance(new, float) and (
                struct.pack("<d", new) == struct.pack("<d", old)
            )
        else:
            same = type(new) is type(old) and new == old
        assert same, (where, name, new, old)


_THRESH = (
    np.uint64(1) << (np.uint64(8) * np.arange(8, dtype=np.uint64))
) - np.uint64(1)


def _byte_lengths(words: np.ndarray) -> np.ndarray:
    return (words[:, None] > _THRESH[None, :]).sum(axis=1).astype(np.int64)


def _pack_nibbles(lens: np.ndarray) -> bytes:
    if len(lens) % 2:
        lens = np.append(lens, 0)
    lo = lens[0::2].astype(np.uint8)
    hi = lens[1::2].astype(np.uint8)
    return (lo | (hi << 4)).tobytes()


def _encode_words(words: np.ndarray) -> Tuple[bytes, bytes]:
    lens = _byte_lengths(words)
    starts = np.empty(len(words), dtype=np.int64)
    if len(words):
        starts[0] = 0
        np.cumsum(lens[:-1], out=starts[1:])
    payload = np.zeros(int(lens.sum()), dtype=np.uint8)
    for j in range(8):
        m = lens > j
        if not m.any():
            break
        payload[starts[m] + j] = (
            (words[m] >> np.uint64(8 * j)) & np.uint64(0xFF)
        ).astype(np.uint8)
    return _pack_nibbles(lens), payload.tobytes()


def _zigzag(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64, copy=False)
    return (np.left_shift(v, 1) ^ np.right_shift(v, 63)).view(np.uint64)


def seal_1d(times, values) -> Dict[str, object]:
    """The pre-PR-13 ``Chunk.seal`` body; returns ``CHUNK_FIELDS``."""
    t = np.asarray(times, dtype=np.int64)
    v = np.asarray(values, dtype=np.float64)
    if len(t) == 0:
        raise ValueError("cannot seal an empty chunk")
    if len(t) != len(v):
        raise ValueError("time/value columns differ in length")
    if len(t) > 1 and not (t[1:] > t[:-1]).all():
        raise ValueError("chunk timestamps must be strictly increasing")

    t_step: Optional[int] = None
    if len(t) == 1:
        t_step = 0
        t_lens = t_payload = b""
    else:
        d = np.diff(t)
        if (d == d[0]).all():
            t_step = int(d[0])
            t_lens = t_payload = b""
        else:
            dod = np.empty(len(t), dtype=np.int64)
            dod[0] = t[0]
            dod[1] = d[0]
            dod[2:] = d[1:] - d[:-1]
            t_lens, t_payload = _encode_words(_zigzag(dod))

    words = v.view(np.uint64)
    xored = words.copy()
    xored[1:] ^= words[:-1]
    v_lens, v_payload = _encode_words(xored)

    agg_count = int(np.count_nonzero(~np.isnan(v)))
    agg_sum = float(np.nansum(v))
    if agg_count:
        with np.errstate(all="ignore"):
            agg_min = float(np.nanmin(v))
            agg_max = float(np.nanmax(v))
    else:
        agg_min = agg_max = float("nan")

    return {
        "t_min": int(t[0]), "t_max": int(t[-1]), "count": len(t),
        "t_step": t_step,
        "agg_count": agg_count, "agg_sum": agg_sum,
        "agg_min": agg_min, "agg_max": agg_max,
        "v_first": float(v[0]), "v_last": float(v[-1]),
        "_t_lens": t_lens, "_t_payload": t_payload,
        "_v_lens": v_lens, "_v_payload": v_payload,
    }


def ingest_file_reference(
    tsdb,
    host: str,
    fh,
    types: Optional[Iterable[str]] = None,
    metric: str = "stats",
) -> Tuple[int, int]:
    """The pre-PR-13 ``ingest_file`` body: per-sample gather."""
    wanted = set(types) if types is not None else None
    parser = RawFileParser()
    #: (type, device, event) → ([ts...], [value...])
    columns: Dict[Tuple[str, str, str], Tuple[list, list]] = {}
    samples = 0
    for sample in parser.parse(fh):
        samples += 1
        for type_name, per_inst in sample.data.items():
            if wanted is not None and type_name not in wanted:
                continue
            schema = parser.schemas.get(type_name)
            if schema is None:
                continue
            names = schema.names()
            for device, values in per_inst.items():
                for i, event in enumerate(names):
                    col = columns.get((type_name, device, event))
                    if col is None:
                        col = columns[
                            (type_name, device, event)
                        ] = ([], [])
                    col[0].append(sample.timestamp)
                    col[1].append(float(values[i]))
    n = 0
    for (type_name, device, event), (ts_col, val_col) in columns.items():
        n += tsdb.put_many(
            metric,
            {
                "host": host,
                "type": type_name,
                "device": device,
                "event": event,
            },
            ts_col,
            val_col,
        )
    return n, samples
