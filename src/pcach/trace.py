"""Connectivity trace data model, (de)serialization, timeline normalization
and WiFi gap detection.

A trace is a time-ordered sequence of periodic measurement samples taken on
one phone. Each sample records the active network (WiFi / cellular / none),
the connected SSID when on WiFi, the set of visible WiFi networks and the
per-application traffic counters accumulated since the previous sample.

A :class:`Trace` holds its samples as numpy columns, one row per sample
(struct of arrays, as in Apache Arrow):

* ``t`` int64 timestamp (UTC epoch seconds), strictly increasing;
* ``state`` uint8 active network: ``STATE_WIFI``, ``STATE_CELLULAR`` or
  ``STATE_NONE`` (``STATES[code]`` is the :class:`ActiveNetwork`);
* ``ssid`` int32 index into the ``ssids`` table, -1 when not connected;
* ``visible`` int32 index into ``visible_sets``, a table of interned
  frozensets of SSIDs;
* the app records as CSR: sample ``i`` owns records
  ``app_offsets[i]:app_offsets[i + 1]`` (int64, length n + 1) of ``app``
  (int32 index into the ``app_ids`` table), ``up`` and ``down`` (int64
  bytes) and ``running`` (bool).

The tables are tuples; an entry no row uses is allowed, and two traces are
equal when their rows carry the same values, whatever the table order. The
columns are read-only.

:class:`MeasurementSample` objects live only at the edge of the columns,
with one conversion each way: ``Trace(phone_id, samples)`` turns samples into
columns, and ``Trace.samples`` is a read-only view of the rows as samples,
built once with the ordinary constructors on first access and cached. The
view of a normalized trace reuses its source trace's view: every sample that
was not relabelled is the very same object. Each wire format has one
encoder, which yields the file in blocks of rows: :func:`write_trace`
streams the blocks into the file, and :func:`trace_to_jsonl` and
:func:`trace_to_csv` join them. The trace-level stages (profile,
normalization, gap detection, and in :mod:`pcach.mining` the traffic split
and the pre-cache bound) run as array passes over the columns, and the
history folds of :mod:`pcach.history` and :mod:`pcach.evaluation` read the
columns; none of them builds the view.

Every row enters the columns through one builder, whatever its source:
``Trace(phone_id, samples)``, the JSONL parser and the CSV parser all hand
it their rows, and it checks each row and its app records, interns the
SSIDs, visible sets and app ids and appends the row. The parsers keep only
their format's syntax and line numbers, and read one line at a time:
:func:`read_trace` streams the file, so a read holds the columns it builds
and one line, never the file's bytes.

Two derived notions drive everything downstream:

* the *normalized timeline*: cellular samples taken while a WiFi network the
  user has connected to before was visible are relabeled as WiFi, exposing
  every offloading opportunity;
* *WiFi gaps*: intervals between a cut event (WiFi -> cellular between two
  samples at most 10 minutes apart) and the next resume event
  (cellular -> WiFi between consecutive samples).
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import itertools
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    EmptyTraceError,
    ParameterError,
    PCachError,
    TraceParseError,
    TraceValidationError,
)

CUT_MAX_SPACING_S = 600          # WiFi->cellular counts as a cut only when
                                 # samples are no more than 10 minutes apart
GAP_EXCLUDE_THRESHOLD_S = 86400  # gaps of a day or more are flagged, kept out
                                 # of duration statistics

DEFAULT_PERIOD_S = 300
DEFAULT_NIGHT_WINDOW = (20, 8)   # [20:00, 08:00) local time

SECONDS_PER_DAY = 86400
# 1970-01-01 was a Thursday; offset so that Monday maps to 0.
_EPOCH_WEEKDAY = 3

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
# byte counts of one trace must sum below this, so integer sums stay exact
_BYTES_LIMIT = 2**62


class ActiveNetwork(Enum):
    WIFI = "WIFI"
    CELLULAR = "CELL"
    NONE = "NONE"


# codes of the ``state`` column
STATE_WIFI, STATE_CELLULAR, STATE_NONE = 0, 1, 2
STATES = (ActiveNetwork.WIFI, ActiveNetwork.CELLULAR, ActiveNetwork.NONE)
# an active network's code, by member or by value
_STATE_OF = {key: code for code, a in enumerate(STATES) for key in (a, a.value)}


def _state_code(active) -> int:
    """The ``state`` code of an :class:`ActiveNetwork` or its value."""
    try:
        return _STATE_OF[active]
    except (KeyError, TypeError):
        raise TraceValidationError(f"unknown active network {active!r}") from None


@dataclass(frozen=True, slots=True)
class AppTrafficRecord:
    """Traffic counters of one application within one sampling period."""

    app_id: str
    up_bytes: int
    down_bytes: int
    running: bool

    def __post_init__(self):
        if not self.app_id:
            raise TraceValidationError("app_id must be non-empty")
        if self.up_bytes < 0 or self.down_bytes < 0:
            raise TraceValidationError(_negative_bytes(self.app_id, self.up_bytes,
                                                       self.down_bytes))

    @property
    def total_bytes(self) -> int:
        return self.up_bytes + self.down_bytes


def _negative_bytes(app_id: str, up: int, down: int) -> str:
    return f"negative byte count for app {app_id!r}: up={up} down={down}"


@dataclass(frozen=True, slots=True)
class MeasurementSample:
    """One periodic sensing record."""

    timestamp: int
    active_network: ActiveNetwork
    connected_ssid: Optional[str]
    visible_ssids: frozenset[str]
    apps: tuple[AppTrafficRecord, ...]

    def __post_init__(self):
        active = STATES[_state_code(self.active_network)]
        if active is not self.active_network:
            object.__setattr__(self, "active_network", active)
        if not isinstance(self.visible_ssids, frozenset):
            object.__setattr__(self, "visible_ssids", frozenset(self.visible_ssids))
        if not isinstance(self.apps, tuple):
            object.__setattr__(self, "apps", tuple(self.apps))
        _check_sample(self.timestamp, self.active_network, self.connected_ssid,
                      self.visible_ssids, [rec.app_id for rec in self.apps])

    @property
    def total_bytes(self) -> int:
        return sum(rec.total_bytes for rec in self.apps)


def _check_sample(t: int, active: ActiveNetwork, ssid: Optional[str],
                  visible: frozenset[str], app_ids: Sequence[str]) -> None:
    """The invariants of one sample, whatever holds it."""
    if active is ActiveNetwork.WIFI:
        if not ssid:
            raise TraceValidationError(f"t={t}: WIFI sample without connected_ssid")
    elif ssid is not None:
        raise TraceValidationError(f"t={t}: connected_ssid set on a {active.name} sample")
    if ssid is not None and ssid not in visible:
        raise TraceValidationError(f"t={t}: connected ssid {ssid!r} missing from visible set")
    if len(app_ids) > 1 and len(set(app_ids)) != len(app_ids):
        seen = set()
        for app_id in app_ids:
            if app_id in seen:
                raise TraceValidationError(f"t={t}: duplicate app record {app_id!r}")
            seen.add(app_id)


def used_ids(ids: np.ndarray, size: int) -> list[int]:
    """The ids of a table of ``size`` entries that the id column ``ids``
    names, ascending; -1 (none) is left out. A count, not ``np.unique``,
    whose first call loads ``numpy.ma``."""
    return np.flatnonzero(np.bincount(ids + 1, minlength=size + 1)[1:]).tolist()


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array, ascending, as ``np.unique`` gives
    them for values that hold no NaN, found by sorting without loading
    ``numpy.ma``."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _int64_column(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise TraceValidationError(f"{what} outside the int64 range") from None


class _Columns:
    """The one builder of a trace's columns: every row, whatever its source,
    is checked, interned and appended here.

    A row opens with :meth:`row`, takes its app records through
    :meth:`record` and ends with :meth:`close`, which runs the sample checks
    that need the whole row. ``visible_set`` turns a source's hashable raw
    visible value into its frozenset, once per distinct raw value.
    """

    def __init__(self, visible_set: Callable[[Hashable], frozenset[str]] = frozenset):
        self.t: list[int] = []
        self.state: list[int] = []
        self.ssid: list[int] = []
        self.visible: list[int] = []
        self.n_apps: list[int] = []
        self.app: list[int] = []
        self.up: list[int] = []
        self.down: list[int] = []
        self.running: list[bool] = []
        self.ssid_ids: dict[str, int] = {}
        self.visible_ids: dict[frozenset[str], int] = {}
        self.app_ids: dict[str, int] = {}
        self._visible_set = visible_set
        self._visible_by_raw: dict[Hashable, tuple[int, frozenset[str]]] = {}
        self._valid = True  # the open row's network fields pass the sample checks
        self._first = 0  # the open row's first app record

    def row(self, t: int, active, ssid: Optional[str], visible: Hashable) -> None:
        """Open a row; ``active`` is an :class:`ActiveNetwork` or its value."""
        if not _INT64_MIN <= t <= _INT64_MAX:
            raise TraceValidationError(f"timestamp {t} outside the int64 range")
        state = _state_code(active)
        interned = self._visible_by_raw.get(visible)
        if interned is None:
            ssids = self._visible_set(visible)
            interned = self._visible_by_raw[visible] = (
                self.visible_ids.setdefault(ssids, len(self.visible_ids)), ssids)
        vid, ssids = interned
        if ssid is None:
            self._valid = state != STATE_WIFI
            sid = -1
        else:
            self._valid = state == STATE_WIFI and ssid and ssid in ssids
            sid = self.ssid_ids.setdefault(ssid, len(self.ssid_ids))
        self.t.append(t)
        self.state.append(state)
        self.ssid.append(sid)
        self.visible.append(vid)

    def record(self, app_id: str, up: int, down: int, running: bool) -> None:
        """Append an app record to the open row."""
        if not app_id:
            raise TraceValidationError("app_id must be non-empty")
        if up < 0 or down < 0:
            raise TraceValidationError(_negative_bytes(app_id, up, down))
        if up > _INT64_MAX or down > _INT64_MAX:
            raise TraceValidationError(f"byte count of app {app_id!r} outside the int64 range")
        self.app.append(self.app_ids.setdefault(app_id, len(self.app_ids)))
        self.up.append(up)
        self.down.append(down)
        self.running.append(running)

    def close(self) -> None:
        """End the open row, checking it as a sample unless its network
        fields are valid and its app ids distinct."""
        app, first = self.app, self._first
        n = len(app) - first
        if not self._valid or n > 1 and len(set(app[first:])) < n:
            ssids, names = (*self.ssid_ids, None), tuple(self.app_ids)
            _check_sample(self.t[-1], STATES[self.state[-1]], ssids[self.ssid[-1]],
                          tuple(self.visible_ids)[self.visible[-1]],
                          [names[a] for a in app[first:]])
        self.n_apps.append(n)
        self._first = first + n

    def arrays(self) -> list[np.ndarray]:
        """The t, state, ssid, visible, app_offsets, app, up, down and
        running columns."""
        return [np.array(self.t, dtype=np.int64), np.array(self.state, dtype=np.uint8),
                np.array(self.ssid, dtype=np.int32), np.array(self.visible, dtype=np.int32),
                np.concatenate(([0], np.cumsum(self.n_apps, dtype=np.int64))),
                np.array(self.app, dtype=np.int32), np.array(self.up, dtype=np.int64),
                np.array(self.down, dtype=np.int64), np.array(self.running, dtype=bool)]

    def tables(self) -> tuple[tuple, tuple, tuple]:
        return tuple(self.ssid_ids), tuple(self.visible_ids), tuple(self.app_ids)

    def last_wins(self, phone_id: str, nominal_period_s: int) -> "Trace":
        """The trace of the rows stable-sorted by time, keeping the last row
        of each timestamp."""
        if not self.t:
            raise EmptyTraceError("source contains no samples")
        t, state, ssid, visible, offsets, *app_cols = self.arrays()
        cols = [t, state, ssid, visible]
        if np.any(t[1:] <= t[:-1]):
            order = np.argsort(t, kind="stable")
            ordered = t[order]
            keep = order[np.append(ordered[1:] != ordered[:-1], True)]
            cols = [c[keep] for c in cols]
            counts = np.diff(offsets)[keep]
            new_offsets = np.concatenate(([0], np.cumsum(counts)))
            rows = (np.repeat(offsets[keep] - new_offsets[:-1], counts)
                    + np.arange(new_offsets[-1]))
            offsets, app_cols = new_offsets, [c[rows] for c in app_cols]
        return Trace.from_columns(phone_id, *cols, offsets, *app_cols, *self.tables(),
                                  nominal_period_s=nominal_period_s)


class Trace:
    """Time-ordered samples of one phone, as columns (see the module doc).

    ``Trace(phone_id, samples)`` converts :class:`MeasurementSample` objects
    and keeps them as the trace's view; :meth:`from_columns` takes columns
    directly.
    """

    __slots__ = ("phone_id", "nominal_period_s", "t", "state", "ssid", "visible",
                 "app_offsets", "app", "up", "down", "running",
                 "ssids", "visible_sets", "app_ids", "_samples", "_source")

    def __init__(self, phone_id: str, samples: Iterable[MeasurementSample] = (),
                 nominal_period_s: int = DEFAULT_PERIOD_S):
        samples = tuple(samples)
        cols = _Columns()
        row, record, close = cols.row, cols.record, cols.close
        for s in samples:
            row(s.timestamp, s.active_network, s.connected_ssid, s.visible_ssids)
            for rec in s.apps:
                record(rec.app_id, rec.up_bytes, rec.down_bytes, rec.running)
            close()
        self._set_columns(phone_id, nominal_period_s, *cols.arrays(), *cols.tables())
        self._samples = samples

    @classmethod
    def from_columns(cls, phone_id: str, t, state, ssid, visible, app_offsets, app, up, down,
                     running, ssids: Sequence[str], visible_sets: Sequence[frozenset[str]],
                     app_ids: Sequence[str],
                     nominal_period_s: int = DEFAULT_PERIOD_S) -> "Trace":
        """A trace of ready columns. Their values are trusted: only the
        period, the timestamp order, the sign of every byte count and the
        byte total are checked."""
        trace = object.__new__(cls)
        trace._set_columns(
            phone_id, nominal_period_s, _int64_column(t, "timestamp"),
            np.asarray(state, dtype=np.uint8), np.asarray(ssid, dtype=np.int32),
            np.asarray(visible, dtype=np.int32), np.asarray(app_offsets, dtype=np.int64),
            np.asarray(app, dtype=np.int32), _int64_column(up, "up bytes"),
            _int64_column(down, "down bytes"), np.asarray(running, dtype=bool),
            tuple(ssids), tuple(visible_sets), tuple(app_ids))
        trace._samples = None
        return trace

    def _set_columns(self, phone_id, nominal_period_s, t, state, ssid, visible, app_offsets,
                     app, up, down, running, ssids, visible_sets, app_ids) -> None:
        if nominal_period_s <= 0:
            raise TraceValidationError("nominal_period_s must be positive")
        back = np.flatnonzero(t[1:] <= t[:-1])
        if back.size:
            raise TraceValidationError(
                f"timestamps not strictly increasing at t={int(t[back[0] + 1])}")
        if up.size and min(up.min(), down.min()) < 0:
            raise TraceValidationError(f"negative byte count {min(up.min(), down.min())}")
        if up.size and float(up.sum(dtype=np.float64)) + float(down.sum(dtype=np.float64)) \
                >= _BYTES_LIMIT:
            raise TraceValidationError("the trace's byte counts sum past 2**62")
        for col in (t, state, ssid, visible, app_offsets, app, up, down, running):
            col.flags.writeable = False
        self.phone_id = phone_id
        self.nominal_period_s = nominal_period_s
        self.t, self.state, self.ssid, self.visible = t, state, ssid, visible
        self.app_offsets, self.app, self.up, self.down, self.running = (
            app_offsets, app, up, down, running)
        self.ssids, self.visible_sets, self.app_ids = ssids, visible_sets, app_ids
        self._source = None

    def _replace(self, **columns) -> "Trace":
        """A trace sharing every column and table not given."""
        names = ("t", "state", "ssid", "visible", "app_offsets", "app", "up", "down",
                 "running", "ssids", "visible_sets", "app_ids")
        values = {name: columns.get(name, getattr(self, name)) for name in names}
        return Trace.from_columns(self.phone_id, nominal_period_s=self.nominal_period_s,
                                  **values)

    def rows(self, start: int, stop: int) -> "Trace":
        """The trace of rows ``start:stop`` (column slices, tables shared)."""
        start, stop, _ = slice(start, stop).indices(len(self.t))
        stop = max(start, stop)
        a0, a1 = int(self.app_offsets[start]), int(self.app_offsets[stop])
        return self._replace(
            t=self.t[start:stop], state=self.state[start:stop], ssid=self.ssid[start:stop],
            visible=self.visible[start:stop],
            app_offsets=self.app_offsets[start:stop + 1] - a0, app=self.app[a0:a1],
            up=self.up[a0:a1], down=self.down[a0:a1], running=self.running[a0:a1])

    def index_range(self, start: int, end: int) -> tuple[int, int]:
        """Rows ``lo:hi`` holding the samples with start <= t < end."""
        lo = int(np.searchsorted(self.t, start, side="left"))
        return lo, max(lo, int(np.searchsorted(self.t, end, side="left")))

    def sample_bytes(self) -> np.ndarray:
        """Each sample's up + down bytes over all its app records (int64)."""
        total = np.concatenate(([0], np.cumsum(self.up + self.down)))
        return total[self.app_offsets[1:]] - total[self.app_offsets[:-1]]

    @property
    def samples(self) -> tuple[MeasurementSample, ...]:
        """The rows as samples, built on first access (see the module doc)."""
        if self._samples is None:
            self._samples = _build_samples(self)
        return self._samples

    def __len__(self) -> int:
        return len(self.t)

    @property
    def start_time(self) -> int:
        if not len(self.t):
            raise EmptyTraceError(f"trace {self.phone_id!r} has no samples")
        return int(self.t[0])

    @property
    def end_time(self) -> int:
        if not len(self.t):
            raise EmptyTraceError(f"trace {self.phone_id!r} has no samples")
        return int(self.t[-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        eq = np.array_equal
        return self is other or (
            self.phone_id == other.phone_id
            and self.nominal_period_s == other.nominal_period_s
            and eq(self.t, other.t) and eq(self.state, other.state)
            and eq(self.app_offsets, other.app_offsets) and eq(self.up, other.up)
            and eq(self.down, other.down) and eq(self.running, other.running)
            and _same_labels(self.ssid, self.ssids, other.ssid, other.ssids)
            and _same_labels(self.visible, self.visible_sets, other.visible, other.visible_sets)
            and _same_labels(self.app, self.app_ids, other.app, other.app_ids))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Trace(phone_id={self.phone_id!r}, samples={len(self.t)})"

    def __reduce__(self):
        return (Trace.from_columns, (
            self.phone_id, self.t, self.state, self.ssid, self.visible, self.app_offsets,
            self.app, self.up, self.down, self.running, self.ssids, self.visible_sets,
            self.app_ids, self.nominal_period_s))


def _same_labels(ids_a: np.ndarray, table_a, ids_b: np.ndarray, table_b) -> bool:
    """Whether two id columns name the same values row by row (-1 = none)."""
    index = {value: i for i, value in enumerate(table_b)}
    to_b = np.array([index.get(value, -2) for value in table_a] + [-1], dtype=np.int64)
    return np.array_equal(to_b[ids_a], ids_b)


def _build_samples(trace: Trace) -> tuple[MeasurementSample, ...]:
    """The view of ``trace``'s rows as samples.

    A normalized trace starts from its source trace's view and replaces only
    the relabelled samples.
    """
    if trace._source is not None:
        source, relabelled = trace._source
        samples = list(source.samples)
        wifi, ssids = ActiveNetwork.WIFI, trace.ssids
        for i, code in zip(relabelled.tolist(), trace.ssid[relabelled].tolist()):
            s = samples[i]
            samples[i] = MeasurementSample(s.timestamp, wifi, ssids[code], s.visible_ssids,
                                           s.apps)
        return tuple(samples)
    app_ids = trace.app_ids
    records = list(map(AppTrafficRecord, [app_ids[i] for i in trace.app.tolist()],
                       trace.up.tolist(), trace.down.tolist(), trace.running.tolist()))
    offsets = trace.app_offsets.tolist()
    ssids = trace.ssids + (None,)  # id -1 is no SSID
    visible_sets = trace.visible_sets
    return tuple(map(
        MeasurementSample, trace.t.tolist(), [STATES[c] for c in trace.state.tolist()],
        [ssids[i] for i in trace.ssid.tolist()], [visible_sets[i] for i in trace.visible.tolist()],
        [tuple(records[a:b]) for a, b in zip(offsets, offsets[1:])]))


@dataclass(frozen=True)
class PreferredNetworkProfile:
    """Networks the phone has connected to, plus home/work identification."""

    preferred: frozenset[str]
    top3: tuple[str, ...]
    home_ssid: Optional[str]
    work_ssid: Optional[str]

    def __post_init__(self):
        object.__setattr__(self, "preferred", frozenset(self.preferred))
        object.__setattr__(self, "top3", tuple(self.top3))
        if len(self.top3) > 3:
            raise TraceValidationError("top3 holds at most 3 SSIDs")
        if not set(self.top3) <= self.preferred:
            raise TraceValidationError("top3 must be a subset of preferred")
        for ssid in (self.home_ssid, self.work_ssid):
            if ssid is not None and ssid not in self.preferred:
                raise TraceValidationError(
                    f"{ssid!r} is not a preferred network"
                )

    def to_dict(self) -> dict:
        return {
            "preferred": sorted(self.preferred),
            "top3": list(self.top3),
            "home_ssid": self.home_ssid,
            "work_ssid": self.work_ssid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PreferredNetworkProfile":
        return cls(
            preferred=frozenset(d["preferred"]),
            top3=tuple(d["top3"]),
            home_ssid=d.get("home_ssid"),
            work_ssid=d.get("work_ssid"),
        )


@dataclass(frozen=True)
class WiFiGap:
    """A cut event paired with the next resume event, if any."""

    cut_time: int
    resume_time: Optional[int] = None

    def __post_init__(self):
        if self.resume_time is not None and self.resume_time <= self.cut_time:
            raise TraceValidationError(
                f"resume_time {self.resume_time} not after cut_time {self.cut_time}"
            )

    @property
    def duration_s(self) -> Optional[int]:
        if self.resume_time is None:
            return None
        return self.resume_time - self.cut_time

    @property
    def open(self) -> bool:
        """True when no resume was observed before the trace ended."""
        return self.resume_time is None

    @property
    def excluded(self) -> bool:
        """True for gaps of one day or more, kept out of duration statistics."""
        return self.duration_s is not None and self.duration_s >= GAP_EXCLUDE_THRESHOLD_S


def check_utc_offset(utc_offset_s: int) -> None:
    """Raise :class:`ParameterError` unless ``utc_offset_s`` lies within a
    day either way (real offsets lie within 14 hours)."""
    if not -SECONDS_PER_DAY <= utc_offset_s <= SECONDS_PER_DAY:
        raise ParameterError(f"utc_offset_s={utc_offset_s} outside "
                             f"[{-SECONDS_PER_DAY}, {SECONDS_PER_DAY}]")


def local_seconds(timestamp: int, utc_offset_s: int = 0) -> int:
    """Seconds since local midnight for a UTC epoch timestamp."""
    return (timestamp + utc_offset_s) % SECONDS_PER_DAY


def local_hour(timestamp: int, utc_offset_s: int = 0) -> float:
    return local_seconds(timestamp, utc_offset_s) / 3600.0


def local_day_index(timestamp: int, utc_offset_s: int = 0) -> int:
    return (timestamp + utc_offset_s) // SECONDS_PER_DAY


def is_weekday(timestamp: int, utc_offset_s: int = 0) -> bool:
    """Monday..Friday in local time."""
    return (local_day_index(timestamp, utc_offset_s) + _EPOCH_WEEKDAY) % 7 < 5


def in_hour_window(timestamp, window: tuple[int, int], utc_offset_s: int = 0):
    """True when the local hour falls inside [start, end), wrapping past
    midnight; elementwise for an array of timestamps."""
    start, end = window
    hour = local_hour(timestamp, utc_offset_s)
    if start <= end:
        return (start <= hour) & (hour < end)
    return (hour >= start) | (hour < end)


# ---------------------------------------------------------------------------
# Serialization: JSONL and flat CSV wire formats.
# ---------------------------------------------------------------------------

_CSV_FIELDS = ("phone_id", "t", "active", "ssid", "visible", "app_id", "up", "down", "running")


_BLOCK_ROWS = 1024  # rows the writers encode at a time
_READ_BUFFER = 1 << 16  # bytes the reader takes from a file at a time (io reads 8 KiB)


def _blocks(trace: Trace, encode: Callable[[Trace], str]) -> Iterator[bytes]:
    """The UTF-8 bytes of ``encode`` applied to each run of ``_BLOCK_ROWS``
    rows, as a :meth:`Trace.rows` slice sharing the trace's tables."""
    for start in range(0, len(trace), _BLOCK_ROWS):
        yield encode(trace.rows(start, start + _BLOCK_ROWS)).encode("utf-8")


def _jsonl_blocks(trace: Trace) -> Iterator[bytes]:
    """The JSONL file of ``trace`` in blocks of rows; each SSID, visible set
    and app id of the tables is encoded once, up front."""
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
    active = [f'"{a.value}"' for a in STATES]
    ssid = [encode(name) for name in trace.ssids] + ["null"]
    visible = [encode(sorted(ssids)) for ssids in trace.visible_sets]
    app_head = ['{"id":' + encode(app_id) + ',"up":' for app_id in trace.app_ids]
    flag = ("false", "true")

    def lines(block: Trace) -> str:
        records = [f'{app_head[a]}{up},"down":{down},"running":{flag[r]}}}'
                   for a, up, down, r in zip(block.app.tolist(), block.up.tolist(),
                                             block.down.tolist(), block.running.tolist())]
        offsets = block.app_offsets.tolist()
        return "".join([
            f'{{"t":{t},"active":{active[s]},"ssid":{ssid[i]},"visible":{visible[v]},'
            f'"apps":[{",".join(records[a:b])}]}}\n'
            for t, s, i, v, a, b in zip(block.t.tolist(), block.state.tolist(),
                                        block.ssid.tolist(), block.visible.tolist(),
                                        offsets, offsets[1:])])

    if not len(trace):
        return iter((b"\n",))  # an empty trace is one empty line
    return _blocks(trace, lines)


def trace_to_jsonl(trace: Trace) -> bytes:
    """One line per row: the row's object (``t``, ``active``, ``ssid``, the
    sorted ``visible`` list and its ``apps`` records) as ``json.dumps(obj,
    separators=(",", ":"), ensure_ascii=False)`` writes it. The bytes are
    the blocks :func:`write_trace` streams, joined."""
    return b"".join(_jsonl_blocks(trace))


def _csv_blocks(trace: Trace) -> Iterator[bytes]:
    """The CSV file of ``trace``, header first, in blocks of rows.

    The rows are what ``csv.writer(lineterminator="\\n")`` writes under
    QUOTE_MINIMAL, or under QUOTE_ALL when a string the rows use holds a
    CR: minimal quoting leaves a CR bare, and a reader ends the record
    there. The strings the rows use are the phone id and the table entries
    that the ``ssid``, ``visible`` and ``app`` columns name; an entry only
    other rows of a :meth:`Trace.rows` slice name does not count. Each such
    string is quoted once, up front, and a visible set CSV cannot carry is
    refused here, before any block is encoded.
    """
    ssid_text = [trace.ssids[i] for i in used_ids(trace.ssid, len(trace.ssids))]
    visible_text = _visible_cells(trace)
    app_text = [trace.app_ids[i] for i in used_ids(trace.app, len(trace.app_ids))]
    quote_all = any("\r" in text for text in
                    (trace.phone_id, *ssid_text, *filter(None, visible_text), *app_text))

    def quote(text: str) -> str:
        if quote_all or "," in text or '"' in text or "\n" in text:
            return '"' + text.replace('"', '""') + '"'
        return text

    num = '"' if quote_all else ""  # a number needs quotes only under QUOTE_ALL
    active = [quote(a.value) for a in STATES]
    ssid = [quote(name) for name in trace.ssids] + [quote("")]
    visible = [None if text is None else quote(text) for text in visible_text]
    app = [quote(app_id) for app_id in trace.app_ids]
    flag = (quote("false"), quote("true"))
    phone = quote(trace.phone_id)
    no_apps = [",".join([quote("")] * 4)]

    def lines(block: Trace) -> str:
        records = [f"{app[a]},{num}{up}{num},{num}{down}{num},{flag[r]}"
                   for a, up, down, r in zip(block.app.tolist(), block.up.tolist(),
                                             block.down.tolist(), block.running.tolist())]
        heads = [f"{phone},{num}{t}{num},{active[s]},{ssid[i]},{visible[v]},"
                 for t, s, i, v in zip(block.t.tolist(), block.state.tolist(),
                                       block.ssid.tolist(), block.visible.tolist())]
        offsets = block.app_offsets.tolist()
        return "".join([f"{head}{rec}\n" for head, a, b in zip(heads, offsets, offsets[1:])
                        for rec in (records[a:b] if a < b else no_apps)])

    header = (",".join(map(quote, _CSV_FIELDS)) + "\n").encode("utf-8")
    return itertools.chain((header,), _blocks(trace, lines))


def trace_to_csv(trace: Trace) -> bytes:
    """A header and one row per app record, or one row with blank app cells
    for a row with none, as ``csv.writer(lineterminator="\\n")`` writes
    them: QUOTE_MINIMAL, or QUOTE_ALL when a string the rows use holds a CR
    (see :func:`_csv_blocks`). A visible SSID that is empty or holds ';'
    raises :class:`TraceValidationError`. The bytes are the blocks
    :func:`write_trace` streams, joined."""
    return b"".join(_csv_blocks(trace))


def _visible_cells(trace: Trace) -> list[Optional[str]]:
    """The unquoted CSV ``visible`` field of each visible set the rows use,
    its SSIDs sorted and joined with ';', and None for a set no row uses.

    An empty SSID or one holding ';' would read back changed, so it is
    refused, naming the first sample that holds it, rather than written.
    """
    cells: list[Optional[str]] = [None] * len(trace.visible_sets)
    bad = []
    for vid in used_ids(trace.visible, len(trace.visible_sets)):
        ssids = trace.visible_sets[vid]
        if any(not v or ";" in v for v in ssids):
            bad.append(vid)
        else:
            cells[vid] = ";".join(sorted(ssids))
    if bad:
        row = int(np.flatnonzero(np.isin(trace.visible, bad))[0])
        v = next(v for v in trace.visible_sets[trace.visible[row]] if not v or ";" in v)
        raise TraceValidationError(
            f"t={int(trace.t[row])}: visible SSID {v!r} cannot be written to CSV "
            "(empty or holds ';')")
    return cells


def _utf8_error(exc: UnicodeDecodeError, line_no: int) -> TraceParseError:
    """The parse error of an invalid UTF-8 byte on line ``line_no``."""
    return TraceParseError(
        f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x} ({exc.reason})", line_no)


def _type_error(field: str, expected: str, value) -> TraceValidationError:
    return TraceValidationError(
        f"field {field!r} must be {expected}, got {type(value).__name__}"
    )


def _jsonl_visible(raw: tuple) -> frozenset[str]:
    for v in raw:
        if type(v) is not str:
            raise _type_error("visible[]", "a string", v)
    return frozenset(raw)


_scan_json = json.JSONDecoder().scan_once  # what raw_decode(text) runs at index 0


def _parse_jsonl(lines: Iterator[bytes]) -> _Columns:
    """The rows of a stream of LF-terminated byte lines; the BOM of the
    first line is dropped."""
    cols = _Columns(_jsonl_visible)
    first = next(lines, b"").removeprefix(codecs.BOM_UTF8)
    _jsonl_rows(cols, itertools.chain((first,), lines), 0)
    return cols


def _jsonl_rows(cols: _Columns, lines: Iterable[bytes], line_no: int) -> int:
    """Add the rows of ``lines`` after line ``line_no``; returns the last
    line's number.

    Lines end as bytes.splitlines ends them in the whole file, at CR LF, CR
    or LF. A CR LF pair never straddles two LF-terminated lines, so a line
    holding a CR is split alone, by a call on its parts. They split on
    bytes: the writer keeps U+2028/U+0085 raw inside SSIDs, and
    str.splitlines would break a record there.
    """
    scan = _scan_json
    row, record, close = cols.row, cols.record, cols.close
    for raw in lines:
        if 13 in raw:  # a CR: the parts hold none
            line_no = _jsonl_rows(cols, raw.splitlines(), line_no)
            continue
        line_no += 1
        line = raw.strip()
        if not line:
            continue
        try:
            text = line.decode()
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc, line_no) from None
        try:
            obj, end = scan(text, 0)
        except StopIteration:
            raise TraceParseError("invalid JSON (Expecting value)", line_no) from None
        except (ValueError, RecursionError) as exc:  # also digit limit, nesting depth
            raise TraceParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no) from None
        if end != len(text):
            raise TraceParseError("invalid JSON (Extra data)", line_no)
        try:
            if type(obj) is not dict:
                raise _type_error("line", "an object", obj)
            t, active = obj["t"], obj["active"]
            ssid, visible, apps = obj.get("ssid"), obj.get("visible", []), obj.get("apps", [])
            if type(t) is not int:
                raise _type_error("t", "an integer", t)
            if ssid is not None and type(ssid) is not str:
                raise _type_error("ssid", "a string or null", ssid)
            if type(visible) is not list:
                raise _type_error("visible", "a list", visible)
            row(t, active, ssid, tuple(visible))
            if type(apps) is not list:
                raise _type_error("apps", "a list", apps)
            for rec in apps:
                if type(rec) is not dict:
                    raise _type_error("apps[]", "an object", rec)
                app_id, up, down, running = rec["id"], rec["up"], rec["down"], rec["running"]
                if type(app_id) is not str:
                    raise _type_error("id", "a string", app_id)
                if type(up) is not int:
                    raise _type_error("up", "an integer", up)
                if type(down) is not int:
                    raise _type_error("down", "an integer", down)
                if type(running) is not bool:
                    raise _type_error("running", "a boolean", running)
                record(app_id, up, down, running)
            close()
        except KeyError as exc:
            raise TraceParseError(f"missing field {exc.args[0]!r}", line_no) from None
        except (TypeError, TraceValidationError) as exc:
            raise TraceParseError(str(exc), line_no) from None
    return line_no


_CSV_BOOLS = {"true": True, "1": True, "false": False, "0": False}


def _csv_visible(cell: str) -> frozenset[str]:
    return frozenset(v for v in cell.split(";") if v)


def _parse_csv(lines: Iterator[bytes]) -> tuple[Optional[str], _Columns]:
    """The rows of a stream of LF-terminated byte lines, each decoded alone
    (see :func:`_csv_rows`). An invalid UTF-8 byte anywhere fails before
    any row fault: a row fault first reads the rest of the stream for one."""
    decoded = map(bytes.decode, lines)
    reader = csv.reader(decoded)
    try:
        return _csv_rows(reader)
    except UnicodeDecodeError as exc:
        raise _utf8_error(exc, reader.line_num + 1) from None
    except TraceParseError:
        line_no = reader.line_num
        try:
            for line_no, _ in enumerate(decoded, start=line_no + 1):
                pass
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc, line_no + 1) from None
        raise


def _csv_rows(reader) -> tuple[Optional[str], _Columns]:
    """Rows in one pass; a run of contiguous rows sharing (t, active, ssid,
    visible) forms one sample, one row per app record; a row with an empty
    app id and blank up, down and running cells holds none.

    A repeated timestamp further on starts a new sample, which last-wins
    deduplication collapses like any other duplicate. A record fault is
    reported at its row; a sample fault, found when the sample closes after
    its app rows, at the sample's first row. A row is numbered by the
    physical line it starts on, past any line feeds quoted in earlier rows.
    """
    n_fields = len(_CSV_FIELDS)
    cols = _Columns(_csv_visible)
    row, record, close = cols.row, cols.record, cols.close
    phone_id: Optional[str] = None
    head: Optional[list[str]] = None  # raw (t, active, ssid, visible) of the open sample
    head_line = 0
    next_line = 1  # the physical line the next row starts on
    try:
        for cells in reader:
            line_no, next_line = next_line, reader.line_num + 1
            pid = cells[0] if cells else ""
            if (not pid or pid.isspace()) and not "".join(cells).strip():
                continue  # blank line or only blank cells
            if line_no == 1 and [c.strip() for c in cells[:2]] == ["phone_id", "t"]:
                continue  # header
            if len(cells) != n_fields:
                raise TraceParseError(f"expected {n_fields} columns, got {len(cells)}", line_no)
            if pid != phone_id:
                if phone_id is not None:
                    raise TraceParseError(f"phone_id {pid!r} differs from {phone_id!r}", line_no)
                phone_id = pid
            if cells[1:5] != head:
                if head is not None:
                    close()
                head, head_line = cells[1:5], line_no
                t_raw, active, ssid, visible = head
                try:
                    t = int(t_raw)
                except ValueError:
                    raise TraceParseError(f"invalid timestamp {t_raw!r}", line_no) from None
                row(t, active, ssid if ssid else None, visible)
            app_id, up, down, running = cells[5:]
            if app_id or (up + down + running).strip():
                flag = _CSV_BOOLS.get(running.strip().lower())
                if flag is None:
                    raise TraceParseError(f"invalid boolean {running!r}", line_no)
                try:
                    record(app_id, int(up), int(down), flag)
                except (ValueError, TraceValidationError) as exc:
                    raise TraceParseError(str(exc), line_no) from None
        if head is not None:
            close()
    except csv.Error as exc:
        raise TraceParseError(f"malformed CSV ({exc})", next_line) from None
    except TraceValidationError as exc:  # from row() or close(): a sample fault
        raise TraceParseError(str(exc), head_line) from None
    return phone_id, cols


def ingest_trace(source, fmt: str = "jsonl", phone_id: str = "",
                 nominal_period_s: int = DEFAULT_PERIOD_S) -> Trace:
    """Parse a trace in one of the two wire formats from ``bytes``, a
    ``str`` or a binary or text file object, read one line at a time.

    JSONL holds one object per line; every field must have its JSON type
    (``running`` a boolean, ``visible`` a list of strings, ...). In CSV a
    run of contiguous rows with the same ``t``, ``active``, ``ssid`` and
    ``visible`` forms one sample, one row per app record; a row with an
    empty ``app_id`` and blank ``up``, ``down`` and ``running`` cells holds
    no record, and any other empty ``app_id`` is an error. Samples are sorted
    by timestamp; duplicate timestamps, adjacent or not, collapse to the
    last record seen in input order. Every record, a dropped one included,
    must be a valid sample, and timestamps and byte counts must fit int64.
    ``phone_id`` is taken from the CSV rows when present, otherwise from the
    argument. Malformed input, invalid UTF-8 and a ``str`` holding a lone
    surrogate included, raises :class:`TraceParseError` with the line number.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    if isinstance(source, (bytes, bytearray)):
        lines = io.BytesIO(source)
    elif isinstance(source, io.TextIOBase):
        lines = _encoded(source)
    elif hasattr(source, "read"):
        lines = iter(source)
    else:
        raise TraceParseError(f"unsupported source type {type(source).__name__}")
    fmt = fmt.lower()
    if fmt == "jsonl":
        csv_phone, cols = None, _parse_jsonl(lines)
    elif fmt == "csv":
        csv_phone, cols = _parse_csv(lines)
    else:
        raise TraceParseError(f"unknown trace format {fmt!r}")
    return cols.last_wins(csv_phone if csv_phone else phone_id, nominal_period_s)


def _encoded(lines: Iterable[str]) -> Iterator[bytes]:
    """The UTF-8 bytes of each line of a text stream; a lone surrogate is a
    line-numbered parse error."""
    for line_no, line in enumerate(lines, start=1):
        try:
            data = line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise TraceParseError(
                f"unencodable character U+{ord(line[exc.start]):04X} ({exc.reason})",
                line_no) from None
        yield data


def _file_format(path: Path, fmt: Optional[str]) -> str:
    """``fmt`` in lower case, or by default CSV for a ``.csv`` suffix and
    JSONL otherwise."""
    if fmt is not None:
        return fmt.lower()
    return "csv" if path.suffix.lower() == ".csv" else "jsonl"


def read_trace(path, fmt: Optional[str] = None,
               nominal_period_s: int = DEFAULT_PERIOD_S) -> Trace:
    """Load a trace file; the format defaults from the file suffix.

    The file is parsed one line at a time, so the reader holds the columns
    it builds and one line, not the file's bytes. A package error raised
    while reading keeps its class and line number, and its message starts
    with the path.
    """
    p = Path(path)
    with _naming(p), open(p, "rb", buffering=_READ_BUFFER) as fh:
        return ingest_trace(fh, fmt=_file_format(p, fmt), phone_id=p.stem,
                            nominal_period_s=nominal_period_s)


@contextlib.contextmanager
def _naming(path: Path) -> Iterator[None]:
    """Start the message of a package error raised inside with ``path``."""
    try:
        yield
    except PCachError as exc:
        exc.args = (f"{path}: {exc}", *exc.args[1:])
        raise


_WRITERS = {"jsonl": _jsonl_blocks, "csv": _csv_blocks}


def write_trace(trace: Trace, path, fmt: Optional[str] = None) -> None:
    """Write a trace file; the format defaults from the file suffix, as in
    :func:`read_trace`, and the bytes are :func:`trace_to_jsonl`'s or
    :func:`trace_to_csv`'s.

    The file is written a block of rows at a time, so the writer holds one
    block's text rather than the whole file's. Every check that can refuse
    the write runs before the file is opened: an unknown format raises
    :class:`TraceParseError` as :func:`read_trace` does, and a trace CSV
    cannot carry raises :class:`TraceValidationError`, so a refused write
    neither creates nor truncates ``path``. A package error's message
    starts with the path.
    """
    p = Path(path)
    with _naming(p):
        fmt = _file_format(p, fmt)
        if fmt not in _WRITERS:
            raise TraceParseError(f"unknown trace format {fmt!r}")
        blocks = _WRITERS[fmt](trace)
    with open(p, "wb") as fh:
        fh.writelines(blocks)



# ---------------------------------------------------------------------------
# Preferred-network profile and timeline normalization.
# ---------------------------------------------------------------------------

def derive_preferred_profile(
    trace: Trace,
    night_window: tuple[int, int] = DEFAULT_NIGHT_WINDOW,
    utc_offset_s: int = 0,
) -> PreferredNetworkProfile:
    """Build the preferred-network profile from connection history.

    preferred: every SSID the phone connected to in the trace;
    top3: the three preferred SSIDs seen most often in WiFi scans;
    home/work: the preferred SSID seen most often during the night window
    and its daytime complement. Ties break toward the lexicographically
    smaller SSID.

    Scans are counted once per visible-set id, then credited to the
    preferred SSIDs each set holds.
    """
    if not len(trace):
        raise EmptyTraceError("cannot derive a profile from an empty trace")

    preferred = {trace.ssids[i] for i in used_ids(trace.ssid, len(trace.ssids))}
    if not preferred:
        return PreferredNetworkProfile(frozenset(), (), None, None)

    n_sets = len(trace.visible_sets)
    scans = np.bincount(trace.visible, minlength=n_sets).tolist()
    at_night = in_hour_window(trace.t, night_window, utc_offset_s)
    night_scans = np.bincount(trace.visible[at_night], minlength=n_sets).tolist()
    total = {ssid: 0 for ssid in preferred}
    night = {ssid: 0 for ssid in preferred}
    day = {ssid: 0 for ssid in preferred}
    for vid, n in enumerate(scans):
        if n:
            for ssid in trace.visible_sets[vid] & preferred:
                total[ssid] += n
                night[ssid] += night_scans[vid]
                day[ssid] += n - night_scans[vid]

    def best(counts: dict[str, int]) -> str:
        return min(counts, key=lambda ssid: (-counts[ssid], ssid))

    ranked = sorted(preferred, key=lambda ssid: (-total[ssid], ssid))
    return PreferredNetworkProfile(
        preferred=frozenset(preferred),
        top3=tuple(ranked[:3]),
        home_ssid=best(night),
        work_ssid=best(day),
    )


def normalize_timeline(trace: Trace, profile: PreferredNetworkProfile) -> Trace:
    """Relabel cellular samples that see a preferred WiFi network as WiFi.

    The connected SSID becomes the lexicographically first preferred network
    in the visible set, found once per visible-set id. All other samples
    pass through unchanged, and the trace itself comes back when no sample
    changes; the result is the modified timeline every downstream analysis
    runs on.
    """
    if not profile.preferred:
        return trace
    ssids = list(trace.ssids)
    ssid_ids = {name: i for i, name in enumerate(ssids)}
    relabel = np.full(len(trace.visible_sets), -1, dtype=np.int32)
    for vid, visible in enumerate(trace.visible_sets):
        hits = visible & profile.preferred
        if hits:
            name = min(hits)
            if name not in ssid_ids:
                ssid_ids[name] = len(ssids)
                ssids.append(name)
            relabel[vid] = ssid_ids[name]
    target = relabel[trace.visible]
    rows = np.flatnonzero((trace.state == STATE_CELLULAR) & (target >= 0))
    if not rows.size:
        return trace
    state = trace.state.copy()
    state[rows] = STATE_WIFI
    ssid = trace.ssid.copy()
    ssid[rows] = target[rows]
    norm = trace._replace(state=state, ssid=ssid, ssids=tuple(ssids))
    norm._source = (trace, rows)
    return norm


# ---------------------------------------------------------------------------
# Gap detection.
# ---------------------------------------------------------------------------

def transitions(prev, cur, dt):
    """(cut, resume) of a row in state ``cur`` after a row in state ``prev``
    ``dt`` seconds earlier; elementwise for arrays.

    A cut is WiFi -> cellular with the rows at most ``CUT_MAX_SPACING_S``
    apart; a resume is cellular -> WiFi at any spacing.
    """
    return ((prev == STATE_WIFI) & (cur == STATE_CELLULAR) & (dt <= CUT_MAX_SPACING_S),
            (prev == STATE_CELLULAR) & (cur == STATE_WIFI))


def detect_gaps(trace: Trace) -> list[WiFiGap]:
    """Pair cut events with the first subsequent resume event.

    Off-network samples (state NONE) neither produce events nor let a pending
    cut pair up: a pending gap that meets a NONE sample stays open. A cut that
    never meets a resume before the trace ends is reported as an open gap.

    Each cut pairs with the first later row that is off-network or a resume;
    no second cut can come first, since every sample in between is cellular.
    """
    t, state = trace.t, trace.state
    cut, resume = transitions(state[:-1], state[1:], np.diff(t))
    cuts = np.flatnonzero(cut) + 1
    if not cuts.size:
        return []
    stops = np.flatnonzero((state[1:] == STATE_NONE) | resume) + 1
    stop = np.append(stops, len(t))[np.searchsorted(stops, cuts, side="right")]
    resumed = stop < len(t)
    resumed[resumed] = state[stop[resumed]] == STATE_WIFI
    times = t.tolist()
    return [WiFiGap(times[c], times[s] if r else None)
            for c, s, r in zip(cuts.tolist(), stop.tolist(), resumed.tolist())]


def closed_gaps(gaps: Iterable[WiFiGap]) -> list[WiFiGap]:
    """Gaps admitted to duration statistics: resumed and shorter than a day."""
    return [g for g in gaps if not g.open and not g.excluded]

