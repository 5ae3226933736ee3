"""Xeon Phi (MIC) coprocessor counters, read from the host (§III-B item 2).

The host-side driver exposes cumulative busy/total jiffies for the
card; MIC_Usage in Table I is the average ratio of busy to total time.
Stampede nodes carry one 61-core Knights Corner card.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.activity import Activity
from repro.hardware.devices.base import Device, Schema, SchemaEntry

MIC_JIFFY_HZ = 100

MIC_SCHEMA = Schema(
    [
        SchemaEntry("user_sum", unit="cs"),  # busy jiffies summed over cores
        SchemaEntry("sys_sum", unit="cs"),
        SchemaEntry("idle_sum", unit="cs"),
        SchemaEntry("jiffy_counter", unit="cs"),  # wall jiffies per core
    ]
)


class MicDevice(Device):
    """One instance per coprocessor card (``mic0``, ``mic1``, ...)."""

    type_name = "mic"

    def __init__(self, cards: int = 1, cores: int = 61, noise: float = 0.02) -> None:
        self.cards = cards
        self.cores = cores
        super().__init__(
            MIC_SCHEMA, [f"mic{i}" for i in range(cards)], noise=noise
        )

    def advance(self, activity: Activity, dt: float, rng: np.random.Generator) -> None:
        busy = min(max(activity.mic_busy_frac, 0.0), 1.0)
        wall = MIC_JIFFY_HZ * dt
        row = [
            busy * wall * self.cores * 0.95,  # user_sum
            busy * wall * self.cores * 0.05,  # sys_sum
            (1.0 - busy) * wall * self.cores,  # idle_sum
            wall,  # jiffy_counter
        ]
        self.step([row] * self.cards, rng)
