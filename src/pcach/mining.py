"""Offline trace analyses: traffic split, gap statistics and the
horizon-bounded pre-caching potential.

Every operation expects the normalized timeline (see
:func:`pcach.trace.normalize_timeline`); bytes observed at a sample are
attributed wholly to that sample's active network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, TraceValidationError
from .trace import (
    SECONDS_PER_DAY,
    STATE_CELLULAR,
    STATE_WIFI,
    Trace,
    WiFiGap,
    local_seconds,
)

DEFAULT_HORIZONS_MIN = (15, 30, 60, 120, 240)


@dataclass(frozen=True)
class TrafficSplit:
    """Cellular/WiFi byte totals with per-UTC-day series."""

    cellular_bytes: int
    wifi_bytes: int
    first_day: int                      # UTC day index of per-day series start
    per_day_cellular: tuple[int, ...]
    per_day_wifi: tuple[int, ...]

    def __post_init__(self):
        if sum(self.per_day_cellular) != self.cellular_bytes:
            raise TraceValidationError("per-day cellular series does not sum to total")
        if sum(self.per_day_wifi) != self.wifi_bytes:
            raise TraceValidationError("per-day wifi series does not sum to total")

    @property
    def total_bytes(self) -> int:
        return self.cellular_bytes + self.wifi_bytes

    @property
    def cellular_fraction(self) -> float:
        total = self.total_bytes
        return self.cellular_bytes / total if total else 0.0


@dataclass(frozen=True)
class SlotOfDayHistogram:
    """Counts per fixed-length slot of the 24-hour day."""

    slot_minutes: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) * self.slot_minutes != 1440:
            raise TraceValidationError(
                f"{len(self.counts)} slots of {self.slot_minutes} min do not tile a day"
            )
        if any(c < 0 for c in self.counts):
            raise TraceValidationError("histogram counts must be non-negative")


def slots_per_day(slot_minutes: int) -> int:
    if slot_minutes <= 0 or 1440 % slot_minutes != 0:
        raise ParameterError(f"slot_minutes={slot_minutes} does not divide 1440")
    return 1440 // slot_minutes


def slot_of_day(timestamp: int, slot_minutes: int, utc_offset_s: int = 0) -> int:
    return local_seconds(timestamp, utc_offset_s) // (slot_minutes * 60)


def traffic_split(trace: Trace) -> TrafficSplit:
    """Attribute each sample's app bytes to its active network.

    Off-network (NONE) samples are attributed to neither side. Day series
    are keyed by UTC calendar day and cover the trace's full day span. The
    timestamps are sorted, so each day is one run of rows, summed from
    integer prefix sums.
    """
    if not len(trace):
        return TrafficSplit(0, 0, 0, (), ())
    day = trace.t // SECONDS_PER_DAY
    first_day = int(day[0])
    edges = np.searchsorted(day, np.arange(first_day, int(day[-1]) + 2))
    sample_bytes = trace.sample_bytes()

    def per_day(state: int) -> tuple[int, ...]:
        totals = np.concatenate(([0], np.cumsum(np.where(trace.state == state,
                                                         sample_bytes, 0))))
        return tuple((totals[edges[1:]] - totals[edges[:-1]]).tolist())

    per_day_cell = per_day(STATE_CELLULAR)
    per_day_wifi = per_day(STATE_WIFI)
    return TrafficSplit(
        cellular_bytes=sum(per_day_cell),
        wifi_bytes=sum(per_day_wifi),
        first_day=first_day,
        per_day_cellular=per_day_cell,
        per_day_wifi=per_day_wifi,
    )


def gap_duration_cdf(gaps: Sequence[WiFiGap]) -> list[tuple[int, float]]:
    """Empirical CDF step points over closed, non-excluded gap durations."""
    durations = []
    for g in gaps:
        if g.open or g.excluded:
            raise ParameterError(
                "gap_duration_cdf expects open/excluded gaps to be filtered out"
            )
        durations.append(g.duration_s)
    if not durations:
        return []
    durations.sort()
    n = len(durations)
    points = []
    for i, d in enumerate(durations, start=1):
        if points and points[-1][0] == d:
            points[-1] = (d, i / n)
        else:
            points.append((d, i / n))
    return points


def event_time_histogram(
    gaps: Iterable[WiFiGap],
    slot_minutes: int = 15,
    utc_offset_s: int = 0,
) -> tuple[SlotOfDayHistogram, SlotOfDayHistogram]:
    """Slot-of-day histograms of cut and resume events (local time)."""
    n = slots_per_day(slot_minutes)
    cuts = [0] * n
    resumes = [0] * n
    for g in gaps:
        cuts[slot_of_day(g.cut_time, slot_minutes, utc_offset_s)] += 1
        if g.resume_time is not None:
            resumes[slot_of_day(g.resume_time, slot_minutes, utc_offset_s)] += 1
    return (
        SlotOfDayHistogram(slot_minutes, tuple(cuts)),
        SlotOfDayHistogram(slot_minutes, tuple(resumes)),
    )


def precache_bound(trace: Trace, gaps: Sequence[WiFiGap], horizon_s: int) -> float:
    """Fraction of cellular bytes reachable by pre-caching under a horizon.

    For each gap, bytes accumulate over the contiguous cellular run starting
    at the cut sample, for at most the horizon: the window is
    [cut_time, cut_time + horizon) and ends early at the resume sample, at a
    pairing-breaking off-network sample, or at the trace end. The denominator
    is the trace's total cellular bytes; 0 when there are none.
    """
    return _coverable_fractions(trace, gaps, [horizon_s])[0]


def horizon_sweep(
    trace: Trace,
    gaps: Sequence[WiFiGap],
    horizons_min: Sequence[int] = DEFAULT_HORIZONS_MIN,
) -> list[tuple[int, float]]:
    """(horizon_minutes, coverable fraction) series for report emission."""
    fractions = _coverable_fractions(trace, gaps, [h * 60 for h in horizons_min])
    return list(zip(horizons_min, fractions))


def _coverable_fractions(trace: Trace, gaps: Sequence[WiFiGap],
                         horizons_s: Sequence[int]) -> list[float]:
    """:func:`precache_bound` for every horizon, from one pass.

    Each window is a row range: it starts at the cut's row, and ends at the
    first non-cellular row after it or at the first row past the horizon,
    whichever comes first. Covered bytes are differences of an integer
    prefix sum over the cellular samples, divided by the cellular total as
    Python integers.
    """
    if any(h < 0 for h in horizons_s):
        raise ParameterError("horizon_s must be non-negative")
    t = trace.t
    cellular = trace.state == STATE_CELLULAR
    prefix = np.concatenate(([0], np.cumsum(np.where(cellular, trace.sample_bytes(), 0))))
    total_cellular = int(prefix[-1])
    if total_cellular == 0:
        return [0.0] * len(horizons_s)
    cuts = np.array([g.cut_time for g in gaps], dtype=np.int64)
    if not cuts.size:
        return [0 / total_cellular] * len(horizons_s)
    start = np.searchsorted(t, cuts)
    breaks = np.flatnonzero(~cellular)
    run_end = np.append(breaks, len(t))[np.searchsorted(breaks, start)]
    # a horizon reaching past every sample from the earliest cut ends no window
    reach = int(t[-1]) - min(int(t[0]), int(cuts.min())) + 1
    horizons = np.array([min(h, reach) for h in horizons_s], dtype=np.int64)
    horizon_end = np.searchsorted(t, cuts[:, None] + horizons[None, :])
    end = np.minimum(run_end[:, None], horizon_end)
    covered = (prefix[end] - prefix[start][:, None]).sum(axis=0)
    return [c / total_cellular for c in covered.tolist()]
