"""Device base class and counter schema machinery.

TACC Stats raw files carry a schema line per device type, e.g.::

    !ib rx_bytes,E,W=64,U=B tx_bytes,E,W=64,U=B rx_packets,E,W=64 ...

where ``E`` marks an event (cumulative) counter, ``W=<bits>`` the
register width (reads roll over modulo ``2**bits``) and ``U=<unit>``
the unit.  Entries without ``E`` are gauges (instantaneous values, e.g.
memory in use).  This module reproduces those semantics: every device
keeps an unbounded *true* accumulation internally, while ``read()``
exposes what the hardware register would show — truncated to the
register width.  Rollover correction is therefore the *reader's*
responsibility, exactly as in the real tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.counters import correct_rollover


@dataclass(frozen=True)
class SchemaEntry:
    """One counter in a device schema."""

    name: str
    event: bool = True  # cumulative event counter vs gauge
    width: int = 64  # register width in bits (events only)
    unit: str = ""

    def spec(self) -> str:
        """Render as a raw-file schema token (``name,E,W=48,U=B``)."""
        parts = [self.name]
        if self.event:
            parts.append("E")
            parts.append(f"W={self.width}")
        if self.unit:
            parts.append(f"U={self.unit}")
        return ",".join(parts)

    @classmethod
    def parse(cls, token: str) -> "SchemaEntry":
        """Parse a schema token produced by :meth:`spec`."""
        fields = token.split(",")
        name = fields[0]
        event = False
        width = 64
        unit = ""
        for f in fields[1:]:
            if f == "E":
                event = True
            elif f.startswith("W="):
                width = int(f[2:])
            elif f.startswith("U="):
                unit = f[2:]
        return cls(name=name, event=event, width=width, unit=unit)


class Schema:
    """Ordered collection of :class:`SchemaEntry` for one device type."""

    def __init__(self, entries: Sequence[SchemaEntry]) -> None:
        self.entries: Tuple[SchemaEntry, ...] = tuple(entries)
        self.index: Dict[str, int] = {
            e.name: i for i, e in enumerate(self.entries)
        }
        if len(self.index) != len(self.entries):
            raise ValueError("duplicate counter names in schema")
        #: per-entry event flag (False → gauge)
        self.events = np.array([e.event for e in self.entries], dtype=bool)
        #: per-entry register modulus ``2**W`` (inf → gauge, no wrap)
        self.mods = np.array(
            [2**e.width if e.event else np.inf for e in self.entries],
            dtype=np.float64,
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def names(self) -> List[str]:
        return [e.name for e in self.entries]

    def columns(self, *names: str) -> np.ndarray:
        """Column indexes of ``names``, in the order given."""
        return np.array([self.index[n] for n in names], dtype=np.intp)

    def spec_line(self, type_name: str) -> str:
        """Render the raw-file schema line (``!<type> <tok> <tok> ...``)."""
        return "!" + type_name + " " + " ".join(e.spec() for e in self.entries)

    @classmethod
    def parse_line(cls, line: str) -> Tuple[str, "Schema"]:
        """Parse a raw-file schema line; returns (type_name, Schema)."""
        if not line.startswith("!"):
            raise ValueError(f"not a schema line: {line!r}")
        parts = line[1:].split()
        return parts[0], cls([SchemaEntry.parse(tok) for tok in parts[1:]])

    def truncate(self, true_values: np.ndarray) -> np.ndarray:
        """Apply register-width truncation to true cumulative values.

        ``true_values`` is one row of counters or an ``(instances,
        counters)`` matrix; each entry truncates as it would alone.
        """
        return np.where(
            self.events, np.mod(np.floor(true_values), self.mods), true_values
        )


class Device:
    """Base class for all synthetic devices.

    Subclasses define ``type_name``, build a :class:`Schema`, and
    implement :meth:`advance` to convert an
    :class:`~repro.hardware.activity.Activity` into counter increments.

    The true counters of all instances are one ``(instances,
    counters)`` float64 matrix, and a tick is one :meth:`step` over it.
    A step draws its noise in the order a loop over the rows, and
    within a row over the columns, would draw it one value at a time;
    :meth:`bump` is the one-row case.

    Parameters
    ----------
    schema:
        Counter layout shared by all instances of this device.
    instances:
        Instance names (core ids, port names, Lustre targets, ...).
    noise:
        Multiplicative jitter applied to increments — real counters
        never advance perfectly smoothly.  0 disables.
    """

    type_name: str = "device"

    def __init__(
        self,
        schema: Schema,
        instances: Iterable[str],
        noise: float = 0.02,
    ) -> None:
        self.schema = schema
        self.noise = float(noise)
        #: instance name → its row of the true-counter matrix
        self.rows: Dict[str, int] = {}
        for name in instances:
            self.rows.setdefault(str(name), len(self.rows))
        if not self.rows:
            raise ValueError(f"{type(self).__name__} needs >=1 instance")
        self._true = np.zeros((len(self.rows), len(schema)))

    # -- reading -----------------------------------------------------------
    @property
    def instances(self) -> List[str]:
        return list(self.rows)

    def read(self) -> Dict[str, np.ndarray]:
        """Return register values per instance (width-truncated).

        The rows are views of one truncated matrix.
        """
        return dict(zip(self.rows, self.schema.truncate(self._true)))

    def read_true(self) -> Dict[str, np.ndarray]:
        """Return the unbounded true accumulations (testing/validation)."""
        return dict(zip(self.rows, self._true.copy()))

    # -- writing -----------------------------------------------------------
    def step(
        self,
        values,
        rng: Optional[np.random.Generator] = None,
        rows=slice(None),
        columns=slice(None),
    ) -> None:
        """Apply one tick's ``values`` to the ``rows`` × ``columns`` block.

        ``rows`` is a slice, one row index, or an index array (then
        ``columns`` is an index array too); ``columns`` may list
        counters in any order.  Event counters accumulate; gauges are
        *set*.  Negative values are clipped to zero — cumulative
        hardware counters never decrease — and a NaN passes through.
        Every positive event increment is jittered by
        ``exp(N(0, noise))``, drawn in row-major order of ``values``.
        """
        v = np.maximum(values, 0.0, dtype=np.float64)
        events = self.schema.events[columns]
        if rng is not None and self.noise > 0:
            jitter = (v > 0.0) & events
            pos = v[jitter]
            if pos.size:
                v[jitter] = pos * np.exp(rng.normal(0.0, self.noise, pos.size))
        at = (rows[:, None] if isinstance(rows, np.ndarray) else rows, columns)
        self._true[at] = np.where(events, self._true[at] + v, v)

    def bump(
        self,
        instance: str,
        increments: Mapping[str, float],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Add ``increments`` (by counter name) to one instance.

        A :meth:`step` of one row; noise is drawn in the mapping's key
        order.
        """
        self.step(
            list(increments.values()),
            rng,
            self.rows[str(instance)],
            self.schema.columns(*increments),
        )

    def reset_instance(self, instance: str) -> None:
        """Zero an instance's counters (device re-enumeration / reboot)."""
        self._true[self.rows[str(instance)]] = 0.0

    def preset(self, instance: str, values: Mapping[str, float]) -> None:
        """Directly set true counter values by name.

        Fault injection uses this to park event counters just below
        their register width so the next increments wrap — exercising
        the reader-side rollover correction with real register
        semantics instead of synthetic arrays.
        """
        row = self._true[self.rows[str(instance)]]
        for name, value in values.items():
            row[self.schema.index[name]] = float(value)

    def near_wrap(self, margin: float = 1000.0) -> None:
        """Park every event counter ``margin`` below its wrap point.

        The margin is widened where float64 cannot represent
        ``2**W - margin`` (wide registers): near ``2**64`` the value
        spacing is ``2**12``, so a too-small margin would round back up
        to the wrap point itself and read as zero.
        """
        events = self.schema.events
        width = self.schema.mods[events]
        park = width - np.maximum(margin, width * 2.0**-44)
        self._true[:, events] = np.maximum(self._true[:, events], park)

    # -- workload coupling ---------------------------------------------------
    def advance(
        self, activity, dt: float, rng: np.random.Generator
    ) -> None:  # pragma: no cover - abstract
        """Advance counters by ``dt`` seconds of ``activity``.

        ``activity`` is already fitted to the node's CPUs and validated
        (:meth:`DeviceTree.advance` does it once per tick).
        """
        raise NotImplementedError


def rollover_delta(
    later: np.ndarray, earlier: np.ndarray, schema: Schema
) -> np.ndarray:
    """Difference of two register reads with rollover correction.

    For event counters, a later read smaller than an earlier one is
    either a wrap of the ``W``-bit register (§IV-A relies on counters
    being cumulative; the reader must unwrap them) or a counter reset
    (node reboot) — disambiguated by the shared
    :func:`~repro.hardware.counters.correct_rollover` policy, the same
    one the batch accumulator applies, so streaming and batch readers
    agree on every sample.  Gauges are returned as plain differences.
    """
    later = np.asarray(later, dtype=np.float64)
    earlier = np.asarray(earlier, dtype=np.float64)
    delta = later - earlier
    event = schema.events
    if event.any():
        delta[event] = correct_rollover(
            delta[event], later[event], schema.mods[event]
        )
    return delta
