"""Synthetic Google-cluster-style failure trace.

The paper replays machine-failure events from the 2011 Google cluster
trace [30]: "a 29 day trace of cluster information ... approximately
12500 machines".  The published trace cannot be redistributed here, so
this module generates a synthetic equivalent with the two features that
drive the Figure 8 result:

* a **background** Poisson process of independent machine failures
  (hardware faults, kernel panics), and
* **correlated bursts** — rack/PDU/maintenance events that take out
  tens of machines within a minute.  Burst sizes are heavy-tailed; the
  largest events reach roughly two racks (~80 machines), which is what
  sizes the backup pool: a pool must absorb the coordinators unlucky
  enough to share the biggest burst.

The generator is deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, NamedTuple

__all__ = ["TraceConfig", "FailureEvent", "generate_trace"]

DAY_S = 24 * 3600.0

#: Independent machine failures per hour, cluster-wide.
BACKGROUND_PER_HOUR = 2.0

#: Correlated failure events per hour.
BURST_PER_HOUR = 0.15

#: Lognormal burst-size parameters (median machines per burst).
BURST_MEDIAN = 10.0
BURST_SIGMA = 0.95

#: Cap: roughly two racks.
BURST_MAX = 85

#: Machines within one burst fail within this window.
BURST_SPREAD_S = 45.0


class FailureEvent(NamedTuple):
    """One machine failing at one moment."""

    time_s: float
    machine: int


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the synthetic trace."""

    machines: int = 12_500
    duration_days: float = 29.0

    @property
    def duration_s(self) -> float:
        return self.duration_days * DAY_S


def generate_trace(config: TraceConfig = TraceConfig(), seed: int = 0) -> List[FailureEvent]:
    """Generate a time-sorted failure event list."""
    rng = random.Random(seed)
    events: List[FailureEvent] = []

    # Background: exponential inter-arrival times.
    rate = BACKGROUND_PER_HOUR / 3600.0
    t = rng.expovariate(rate)
    while t < config.duration_s:
        events.append(FailureEvent(t, rng.randrange(config.machines)))
        t += rng.expovariate(rate)

    # Bursts: a lognormal number of machines inside a short window.
    rate = BURST_PER_HOUR / 3600.0
    t = rng.expovariate(rate)
    while t < config.duration_s:
        size = int(round(rng.lognormvariate(math.log(BURST_MEDIAN), BURST_SIGMA)))
        size = max(2, min(size, BURST_MAX))
        victims = rng.sample(range(config.machines), size)
        for machine in victims:
            offset = rng.uniform(0.0, BURST_SPREAD_S)
            events.append(FailureEvent(t + offset, machine))
        t += rng.expovariate(rate)

    events.sort()
    return events
