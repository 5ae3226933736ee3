"""The one rollover/reset correction policy for event counters.

TACC Stats counters are cumulative hardware registers truncated to a
``W``-bit width, so a later read smaller than an earlier one is
ambiguous: either the register *wrapped* (add ``2**W`` to the naive
delta) or the node *rebooted* and the counter restarted near zero (a
wrap correction would then manufacture ~``2**W`` of phantom traffic).

Production collectors disambiguate with a plausibility bound: if the
wrap-corrected increment exceeds ``RESET_FRACTION`` of the register
range, the drop is classified as a reset, and the best increment
estimate is the later reading itself (the counter restarted from 0).
At the boundary — a wrapped increment of exactly ``width/4`` — the
drop is still treated as a wrap.

Every reader of raw register values MUST delegate here: the
streaming device reader
(:func:`repro.hardware.devices.base.rollover_delta`), the TSDB rate
aggregator (:mod:`repro.tsdb.query`) and the job accumulator
(:func:`repro.pipeline.accum._unwrap` under
:func:`~repro.pipeline.accum.reduce_series`, which both the batch ETL
and the live flag analyzer reduce through).  The device reader and
the accumulator historically disagreed (the reader blindly
wrap-corrected every negative delta), which broke the byte-identical
guarantee between streaming and batch ingest whenever a node rebooted
mid-job; keeping a single implementation is the fix.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["RESET_FRACTION", "correct_rollover"]

#: wrap-corrected increments above this fraction of the register range
#: are classified as counter resets, not wraps
RESET_FRACTION = 0.25

_Width = Union[float, np.ndarray]


def correct_rollover(
    deltas: np.ndarray, later_values: np.ndarray, width: _Width
) -> np.ndarray:
    """Correct negative event-counter deltas: wrap vs reset.

    Parameters
    ----------
    deltas:
        Naive differences ``later - earlier`` of register reads.
    later_values:
        The later register reads, aligned with ``deltas`` — the reset
        branch returns these (counter restarted from ~0).
    width:
        Register modulus ``2**W``; a scalar, or an array broadcastable
        against ``deltas`` for mixed-width counter vectors.

    Returns
    -------
    np.ndarray
        Non-negative corrected increments, same shape as ``deltas``.
    """
    out = np.asarray(deltas, dtype=np.float64).copy()
    neg = out < 0
    if not np.any(neg):
        return out
    wrapped = out + width
    reset = neg & (wrapped > np.asarray(width) * RESET_FRACTION)
    wrap_only = neg & ~reset
    out[wrap_only] = wrapped[wrap_only]
    out[reset] = np.asarray(later_values, dtype=np.float64)[reset]
    return out
