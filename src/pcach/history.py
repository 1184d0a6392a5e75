"""On-device usage history and the statistics-driven predictors.

A :class:`HistoryDB` is the rolling per-phone store every prediction reads
from: per-app slot-of-day usage counts (one apps x slots matrix), cut/resume
event histograms, per-slot observation counts, the preferred-network profile
and the newest folded row, which both the event transitions and the features
read. Updates are strictly chronological and single-owner; trained models and
profiles are immutable.

History is folded from columns. :func:`fold_rows` folds a row range of a
:class:`~pcach.trace.Trace` in one pass over its runs, a run being the rows
of one (day, slot): each run hits its observation cell, its cut and resume
cells (from :func:`~pcach.trace.transitions` over the state column, the
range's first row's taken from the newest folded row) and the cells of the
tracked apps that ran, and each cell counts at most once per (day, slot).
The pass yields every run's newly counted cells as (run, cell) hits, which
the fold then adds. Only the (day, slot) of the newest folded row carries
across calls, as the set of count cells it has already counted, and the
newest folded row is a row of the trace it came from.
:func:`update_history`, the on-device step's fold, wraps its batch of sample
objects in a ``Trace`` and folds that. :func:`slot_groups` splits a row range
into its slots.

Every prediction reads history as a :class:`FoldedRuns`: runs of slots,
each seen with its newest row and the counts as of that row. :func:`fold_runs`
folds like :func:`fold_rows` and keeps the hits, so a replay decides all its
slots from one fold; :func:`newest_run` is the database as it stands, runs
with no hits (training's slots on the frozen counts, or the on-device step's
one slot). :meth:`FoldedRuns.features` is the one feature builder, and
:func:`history_rule` takes every target slot's probabilities from one call
and walks the runs only to draw. :meth:`FoldedRuns.usage` reads the usage
counts of many slot windows, each as of its own run, in one call, as one
block; :func:`best_ranks` ranks a block in one sort, marking each window's
selection at every K at once, and :func:`predict_top_k_apps` lists one
window's selection in order. :func:`extract_features` and
:class:`FeatureVector` are a one-row view built by the same helpers.

Slot indices passed between the prediction functions are *absolute* slot
numbers (local time divided by the slot length), so ranges spanning midnight
stay linear; histogram lookups reduce them modulo the slots-per-day count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BOOLEAN,
    DISTINCT_NAMES,
    INTEGER,
    LIST,
    NAMES,
    ConfigError,
    FeatureError,
    ModelError,
    OrderingError,
    ParameterError,
    PCachError,
    TraceValidationError,
    read_fields,
    read_json,
)
from .mining import slots_per_day
from .trace import (
    DEFAULT_NIGHT_WINDOW,
    PreferredNetworkProfile,
    Trace,
    check_utc_offset,
    distinct,
    in_hour_window,
    ingest_trace,
    is_weekday,
    trace_to_jsonl,
    transitions,
)

DEFAULT_SLOT_MINUTES = 15
DEFAULT_N_DRAWS = 10000
DEFAULT_DELTA = 0.1
DEFAULT_MAX_LOOKAHEAD = 96
DEFAULT_GAP_SLOTS = 2


class EventKind(Enum):
    CUT = "cut"
    RESUME = "resume"


class HistoryDB:
    """Rolling slot-indexed usage and event histograms for one phone.

    ``app_counts`` is the (tracked apps x slots) int64 matrix counting, per
    app and slot of day, the distinct (day, slot) pairs in which the app ran;
    ``app_hist`` maps each tracked app to its row (a view). ``cut_hist`` and
    ``resume_hist`` count (day, slot) pairs containing at least one event, so
    they never exceed ``slot_observations``. ``tracked_apps`` must be
    distinct, and ``utc_offset_s`` must lie within a day either way: real
    offsets lie within 14 hours. The database is the store; every prediction
    reads its counts through a :class:`FoldedRuns`.
    """

    def __init__(
        self,
        slot_minutes: int = DEFAULT_SLOT_MINUTES,
        tracked_apps: Sequence[str] = (),
        profile: Optional[PreferredNetworkProfile] = None,
        utc_offset_s: int = 0,
    ):
        check_utc_offset(utc_offset_s)
        self.slot_minutes = slot_minutes
        self.n_slots = slots_per_day(slot_minutes)
        self.tracked_apps = tuple(tracked_apps)
        if len(set(self.tracked_apps)) != len(self.tracked_apps):
            raise ParameterError("tracked_apps contains duplicates")
        self.profile = profile
        self.utc_offset_s = utc_offset_s
        self._app_index = {a: i for i, a in enumerate(self.tracked_apps)}
        n, n_apps = self.n_slots, len(self.tracked_apps)
        # every count in one buffer, so that the fold names each by one index:
        # observations, cuts, resumes, one row of slots per tracked app, and
        # a row of zeros that stands for every untracked app
        self._hist = np.zeros((4 + n_apps) * n, dtype=np.int64)
        self.slot_observations = self._hist[:n]
        self.cut_hist = self._hist[n:2 * n]
        self.resume_hist = self._hist[2 * n:3 * n]
        self.app_counts = self._hist[3 * n:(3 + n_apps) * n].reshape(n_apps, n)
        self.app_hist = MappingProxyType(
            {a: self.app_counts[i] for i, a in enumerate(self.tracked_apps)})
        # the newest folded row, as (fold columns, row)
        self._newest: Optional[tuple] = None
        # the _hist cells the newest row's (day, slot) has counted
        self._counted: set[int] = set()
        self._columns: tuple = (None, None)   # (trace, its fold columns)
        self._flags: dict[frozenset[str], tuple[float, ...]] = {}

    # -- slot arithmetic ---------------------------------------------------

    def abs_slot(self, timestamp):
        """Absolute slot of a time, elementwise for an array of times."""
        return (timestamp + self.utc_offset_s) // (self.slot_minutes * 60)

    def tracked_index(self, names: Sequence[str]) -> np.ndarray:
        """Each name's index in ``tracked_apps`` (int64); an untracked name
        gets ``len(tracked_apps)``, whose usage row is the row of zeros."""
        untracked = len(self.tracked_apps)
        return np.array([self._app_index.get(a, untracked) for a in names], dtype=np.int64)

    @property
    def last_timestamp(self) -> Optional[int]:
        if self._newest is None:
            return None
        cols, i = self._newest
        return int(cols.times[i])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        # the counted cells share one slot, so each one's row of _hist says
        # what it counts: 1 the cut, 2 the resume, 3 + j tracked app j
        counted = {cell // self.n_slots for cell in self._counted}
        latest = open_key = None
        if self._newest is not None:
            cols, i = self._newest
            latest = json.loads(trace_to_jsonl(cols.trace.rows(i, i + 1)))
            open_key = list(divmod(self.abs_slot(self.last_timestamp), self.n_slots))
        return json.dumps({
            "slot_minutes": self.slot_minutes,
            "tracked_apps": list(self.tracked_apps),
            "utc_offset_s": self.utc_offset_s,
            "app_hist": {a: h.tolist() for a, h in self.app_hist.items()},
            "cut_hist": self.cut_hist.tolist(),
            "resume_hist": self.resume_hist.tolist(),
            "slot_observations": self.slot_observations.tolist(),
            "profile": self.profile.to_dict() if self.profile else None,
            "latest": latest,
            "open_key": open_key,
            "open_apps": sorted(self.tracked_apps[row - 3] for row in counted if row >= 3),
            "open_cut": 1 in counted,
            "open_resume": 2 in counted,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "HistoryDB":
        """The database a :meth:`to_json` text holds.

        Invalid JSON, a key missing from or unknown to the key tables below
        (the snapshot's and its profile's) and a value its pair refuses
        raise :class:`ModelError` naming the key, as do these: a
        ``slot_minutes`` not dividing a day, a ``utc_offset_s`` not within
        a day, an invalid profile or ``latest`` sample, ``app_hist`` apps
        other than ``tracked_apps``, a histogram that is not ``n_slots``
        non-negative integers, and an untracked open app. A count counts
        (day, slot) pairs, so no ``cut_hist``, ``resume_hist`` or
        ``app_hist`` entry may exceed ``slot_observations`` for its slot, and
        in the open slot the open (day, slot) counts in ``slot_observations``
        and in the counts its open state names, and in no other. The open
        state is the newest row's: ``open_key`` must be the [day, slot] of
        ``latest``, and a snapshot whose ``latest`` is null must carry no open
        state (a null ``open_key``, no ``open_apps``, false ``open_cut`` and
        ``open_resume``).
        """
        d = read_fields(read_json(text, "history snapshot", ModelError), "history snapshot",
                        _SNAPSHOT, ModelError)
        try:
            slots_per_day(d["slot_minutes"])
        except ParameterError as exc:
            raise ModelError(f"history snapshot key 'slot_minutes': {exc}") from None
        profile = d["profile"]
        if profile is not None:
            read_fields(profile, "history snapshot key 'profile'", _PROFILE, ModelError,
                        optional=("home_ssid", "work_ssid"))
            try:
                profile = PreferredNetworkProfile.from_dict(profile)
            except TraceValidationError as exc:
                raise ModelError(f"history snapshot key 'profile': {exc}") from None
        try:
            db = cls(slot_minutes=d["slot_minutes"], tracked_apps=d["tracked_apps"],
                     profile=profile, utc_offset_s=d["utc_offset_s"])
        except ParameterError as exc:
            raise ModelError(f"history snapshot key 'utc_offset_s': {exc}") from None
        n = db.n_slots
        if set(d["app_hist"]) != set(db.tracked_apps):
            raise ModelError("history snapshot key 'app_hist' must be an object of the "
                             f"tracked_apps {sorted(db.tracked_apps)}")
        # every count in the order of db._hist, named as in errors
        hists = {key: d[key] for key in ("slot_observations", "cut_hist", "resume_hist")}
        hists.update((f"app_hist[{a!r}]", d["app_hist"][a]) for a in db.tracked_apps)
        counts = (lambda v: type(v) is list and len(v) == n
                  and all(type(c) is int and 0 <= c < 2**63 for c in v),
                  f"a list of {n} non-negative integer counts")
        read_fields(hists, "history snapshot", dict.fromkeys(hists, counts), ModelError)
        db._hist[:len(hists) * n] = np.asarray(list(hists.values()), dtype=np.int64).ravel()
        open_key = None
        if d["latest"] is not None:
            try:
                row = ingest_trace(json.dumps(d["latest"]).encode(), fmt="jsonl")
            except PCachError as exc:
                raise ModelError(f"history snapshot key 'latest': {exc}") from None
            db._newest = (_FoldColumns(db, row), 0)
            open_key = list(divmod(db.abs_slot(db.last_timestamp), n))
        if d["open_key"] != open_key:
            raise ModelError(f"history snapshot key 'open_key' must be {json.dumps(open_key)}, "
                             f"the [day, slot] of 'latest', got {d['open_key']!r}")
        untracked = sorted(set(d["open_apps"]) - set(db.tracked_apps))
        if untracked:
            raise ModelError(f"history snapshot key 'open_apps': untracked apps {untracked}")
        for key in ("open_apps", "open_cut", "open_resume"):
            if open_key is None and d[key]:
                raise ModelError(f"history snapshot key {key!r} holds open state, "
                                 "but 'latest' is null")
        if open_key is not None:
            rows = [0, *(3 + db._app_index[a] for a in d["open_apps"])]
            rows += [row for row, key in ((1, "open_cut"), (2, "open_resume")) if d[key]]
            db._counted = {row * n + open_key[1] for row in rows}
        # each closed (day, slot) counts once in slot_observations and at
        # most once in every other count, so no count exceeds them
        closed = db._hist.copy()
        closed[list(db._counted)] -= 1
        closed = closed.reshape(-1, n)
        bad = (closed < 0) | (closed > closed[0])
        if bad.any():
            row, slot = divmod(int(np.argmax(bad)), n)
            raise ModelError(f"history snapshot key {list(hists)[row]!r}: slot {slot} counts "
                             "more (day, slot) pairs than 'slot_observations' or fewer than "
                             "the open state")
        return db

    # -- cached derived tables ---------------------------------------------

    def _visible_flags(self, visible: frozenset[str]) -> tuple[float, ...]:
        """(home seen, work seen, networks seen, top 1/2/3 seen) of a visible
        set under the profile, as floats."""
        flags = self._flags.get(visible)
        if flags is None:
            prof = self.profile
            top = list(prof.top3) + [None, None, None]
            flags = self._flags[visible] = (
                float(prof.home_ssid is not None and prof.home_ssid in visible),
                float(prof.work_ssid is not None and prof.work_ssid in visible),
                float(len(visible)),
                *(float(s is not None and s in visible) for s in top[:3]))
        return flags


def _rates(events: np.ndarray, observations: np.ndarray) -> np.ndarray:
    """Event counts over observation counts, elementwise; 0 where unobserved."""
    p = np.zeros(np.shape(events))
    np.divide(events, observations, out=p, where=observations > 0)
    return p


# the key tables of a history snapshot and of its profile
_NULL_OR_OBJECT = (lambda v: v is None or type(v) is dict, "null or a JSON object")
_NULL_OR_NAME = (lambda v: v is None or type(v) is str, "null or a string")
_SNAPSHOT = {
    "slot_minutes": INTEGER, "utc_offset_s": INTEGER, "tracked_apps": DISTINCT_NAMES,
    "profile": _NULL_OR_OBJECT, "app_hist": (lambda v: type(v) is dict, "a JSON object"),
    "cut_hist": LIST, "resume_hist": LIST, "slot_observations": LIST, "latest": _NULL_OR_OBJECT,
    "open_key": (lambda v: v is None or type(v) is list and all(type(x) is int for x in v),
                 "null or a list of integers"),
    "open_apps": NAMES, "open_cut": BOOLEAN, "open_resume": BOOLEAN}
_PROFILE = {"preferred": NAMES, "top3": NAMES, "home_ssid": _NULL_OR_NAME,
            "work_ssid": _NULL_OR_NAME}


# ---------------------------------------------------------------------------
# the columnar fold
# ---------------------------------------------------------------------------

class _FoldColumns:
    """The columns of a trace that a fold reads, on one database's slot clock.

    Rows are grouped into runs of one absolute slot: run ``g`` holds rows
    ``run_start[g]:run_start[g + 1]`` of absolute slot ``run_key[g]`` (slot of
    day ``run_slot[g]``), and ``gids`` is each row's run. ``cut``/``resume``
    mark each row's transition from the row before it (never on row 0). The
    records of tracked apps that ran are kept as CSR of their runs and usage
    cells in ``db._hist``: row ``i`` owns records ``app_off[i]:app_off[i + 1]``
    of ``app_run`` and ``app_cell``. ``visible`` holds each row's id into
    ``trace.visible_sets``.
    """

    __slots__ = ("trace", "times", "states", "visible", "cut", "resume", "app_run", "app_cell",
                 "app_off", "gids", "run_start", "run_key", "run_slot")

    def __init__(self, db: HistoryDB, trace: Trace):
        n = len(trace)
        t, state = trace.t, trace.state
        tracked = db.tracked_index(trace.app_ids)[trace.app]
        ran = (tracked < len(db.tracked_apps)) & (trace.running | (trace.up + trace.down > 0))
        rec_row = np.repeat(np.arange(n), np.diff(trace.app_offsets))[ran]
        run_key, run_start, run_stop = slot_groups(db, trace, 0, n)
        self.cut, self.resume = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        self.cut[1:], self.resume[1:] = transitions(state[:-1], state[1:], np.diff(t))
        self.trace, self.times, self.states, self.visible = trace, t, state, trace.visible
        self.gids = np.repeat(np.arange(len(run_key)), run_stop - run_start)
        self.run_start = np.append(run_start, n)
        self.run_key, self.run_slot = run_key, run_key % db.n_slots
        self.app_run = self.gids[rec_row]
        self.app_cell = (3 + tracked[ran]) * db.n_slots + self.run_slot[self.app_run]
        self.app_off = np.searchsorted(rec_row, np.arange(n + 1))


def _fold(db: HistoryDB, cols: _FoldColumns, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Fold rows ``lo:hi`` of ``cols`` into ``db``; see :func:`fold_rows`.

    Returns the hits as (runs, cells), ordered by run and then cell: each run
    of the rows with each ``_hist`` cell it newly counted. A run hits its
    slot's observation cell, its event cells and the cells of the tracked
    apps that ran in it, each once, since a run is one (day, slot). Row
    ``lo``'s transitions are from the newest folded row, and a first run
    that shares the newest row's (day, slot) does not hit the cells that
    (day, slot) has counted already.
    """
    last = db.last_timestamp
    if last is not None and cols.times[lo] <= last:
        raise OrderingError(f"sample at t={cols.times[lo]} not after t={last}")
    n, size = db.n_slots, len(db._hist)
    g0, g1 = int(cols.gids[lo]), int(cols.gids[hi - 1]) + 1
    heads = cols.run_start[g0:g1] - lo
    heads[0] = 0
    cut, resume = cols.cut[lo:hi].copy(), cols.resume[lo:hi].copy()
    carried: set[int] = set()
    if last is None:
        cut[0] = resume[0] = False
    else:
        prev, i = db._newest
        cut[0], resume[0] = transitions(prev.states[i], cols.states[lo], cols.times[lo] - last)
        if db.abs_slot(last) == cols.run_key[g0]:
            carried = db._counted
    runs, slot = np.arange(g0, g1), cols.run_slot[g0:g1]
    run_cut = np.logical_or.reduceat(cut, heads)
    run_resume = np.logical_or.reduceat(resume, heads)
    apps = slice(cols.app_off[lo], cols.app_off[hi])
    hits = distinct(np.concatenate((
        runs * size + slot,
        runs[run_cut] * size + n + slot[run_cut],
        runs[run_resume] * size + 2 * n + slot[run_resume],
        cols.app_run[apps] * size + cols.app_cell[apps])))
    if carried:  # a table over one run's cells: np.isin's sorting path loads numpy.ma
        hits = hits[~np.isin(hits, [g0 * size + cell for cell in carried], kind="table")]
    runs, cells = np.divmod(hits, size)
    np.add.at(db._hist, cells, 1)
    counted = set(cells[runs == g1 - 1].tolist())
    db._counted = counted | carried if g1 - 1 == g0 else counted
    db._newest = (cols, hi - 1)
    return runs, cells


def _columns(db: HistoryDB, trace: Trace, lo: int, hi: Optional[int]) -> tuple:
    """(fold columns of the trace, hi): the columns are built on the first
    call and reused while the same trace is folded."""
    hi = len(trace) if hi is None else hi
    if not 0 <= lo <= hi <= len(trace):
        raise ParameterError(f"rows {lo}:{hi} outside the trace's {len(trace)} rows")
    if db._columns[0] is not trace:
        db._columns = (trace, _FoldColumns(db, trace))
    return db._columns[1], hi


def fold_rows(db: HistoryDB, trace: Trace, lo: int = 0, hi: Optional[int] = None) -> HistoryDB:
    """Fold rows ``lo:hi`` of a trace into the histograms (in place; returns db).

    Tracked apps that ran in a (day, slot) increment that slot's usage count
    once; cut/resume transitions increment the event histograms at the
    event row's slot of day, at most once per (day, slot); every (day, slot)
    holding a row counts as observed. The first row's transitions are taken
    from the database's newest row, and rows of the newest row's (day, slot)
    count only the cells it has not counted yet.

    The fold is all-or-nothing: unless the rows start after
    ``db.last_timestamp`` it raises :class:`OrderingError` and leaves the
    database untouched. A range outside the trace raises
    :class:`ParameterError`. The trace's fold columns are built on the first
    call and reused while the same trace is folded.
    """
    cols, hi = _columns(db, trace, lo, hi)
    if lo < hi:
        _fold(db, cols, lo, hi)
    return db


def fold_runs(db: HistoryDB, trace: Trace, lo: int = 0, hi: Optional[int] = None) -> "FoldedRuns":
    """Fold rows ``lo:hi`` as :func:`fold_rows` does and return the fold's
    runs, each with the counts as they stood once its rows were folded."""
    cols, hi = _columns(db, trace, lo, hi)
    if lo >= hi:
        return FoldedRuns(db, cols.run_key[:0], (cols, np.zeros(0, dtype=np.int64)))
    runs, cells = _fold(db, cols, lo, hi)
    g0, g1 = int(cols.gids[lo]), int(cols.gids[hi - 1]) + 1
    newest = cols.run_start[g0 + 1:g1 + 1] - 1
    newest[-1] = hi - 1
    return FoldedRuns(db, cols.run_key[g0:g1], (cols, newest), (runs - g0, cells))


def newest_run(db: HistoryDB, slots, rows: Optional[np.ndarray] = None) -> "FoldedRuns":
    """The database as it stands, as runs in ``slots`` (one slot or an int
    array) with no hits: run ``j``'s newest row is row ``rows[j]`` of the
    trace the database last folded, by default the database's newest row."""
    slots = np.atleast_1d(np.asarray(slots, dtype=np.int64))
    newest = None
    if db._newest is not None:
        cols, i = db._newest
        newest = (cols, np.full(len(slots), i) if rows is None else np.asarray(rows))
    return FoldedRuns(db, slots, newest)


class FoldedRuns:
    """A run of slots to decide in, each seen with the counts as of its own
    newest row.

    Run ``j`` is in absolute slot ``slots[j]``; its newest row gives the time
    ``now[j]`` and the visible set that features read. :meth:`counts` reads
    the database's ``_hist`` cells as they stood once run ``j``'s rows were
    folded: the counts before the fold plus the hits of runs ``0..j``. Only
    the hits are kept, in run order and as keys sorted by (cell, run), so a
    lookup is one binary search and no table of counts per run is built.
    """

    def __init__(self, db: HistoryDB, slots: np.ndarray, newest: Optional[tuple] = None,
                 hits: Optional[tuple] = None):
        self.db = db
        self.slots = slots
        self._newest = newest     # (fold columns, newest row of each run), or None
        self.now = (np.zeros(len(slots), dtype=np.int64) if newest is None
                    else newest[0].times[newest[1]])
        self._width = max(len(slots), 1)
        if hits is None:
            # every run reads the counts as they stand: a copy, since a later
            # fold changes _hist in place
            self._runs = self._cells = self._keys = np.zeros(0, dtype=np.int64)
            self._before = self._base = db._hist.copy()
        else:
            self._runs, self._cells = runs, cells = hits     # the hits, ordered by run
            hit_counts = np.bincount(cells, minlength=len(db._hist))
            self._before = db._hist - hit_counts      # the counts before the fold
            # a cell's count as of run j: _base[cell] + the hits of keys up to
            # cell * width + j, where _base takes back the hits of every lower cell
            self._keys = np.sort(cells * self._width + runs)
            self._base = self._before - (np.cumsum(hit_counts) - hit_counts)

    def __len__(self) -> int:
        return len(self.slots)

    def counts(self, cells: np.ndarray, at) -> np.ndarray:
        """The counts of ``_hist`` cells as of runs ``at`` (elementwise); run
        -1 reads the counts before the fold."""
        return self._base[cells] + np.searchsorted(self._keys, cells * self._width + at,
                                                   side="right")

    def running_counts(self, cells: np.ndarray) -> Callable[[int], list[int]]:
        """A function of a run ``j`` that returns the counts of ``cells`` as
        of run ``j``, as one list it advances in place by the hits of the
        runs since its last call; ``j`` must not decrease between calls."""
        counts = self._before[cells].tolist()
        position = np.full(len(self.db._hist), -1)
        position[cells] = np.arange(len(cells))
        at = position[self._cells]
        runs, at = self._runs[at >= 0].tolist(), at[at >= 0].tolist()
        k = 0

        def as_of(j: int) -> list[int]:
            nonlocal k
            while k < len(runs) and runs[k] <= j:
                counts[at[k]] += 1
                k += 1
            return counts
        return as_of

    def usage(self, s_apps: Sequence[str], first, last, at) -> tuple[np.ndarray, np.ndarray]:
        """Each window's (len(s_apps) x slots) usage counts as of its run, end
        to end in one block from one :meth:`counts` call, and each window's
        first column: window ``i`` spans absolute slots ``first[i]..last[i]``,
        read as of run ``at[i]``. Row ``r`` counts app ``s_apps[r]``; an
        untracked app reads the row of zeros that stands for it. A window whose
        first slot exceeds its last raises :class:`ParameterError`."""
        first, last = np.asarray(first, dtype=np.int64), np.asarray(last, dtype=np.int64)
        if (first > last).any():
            raise ParameterError("first_slot must not exceed last_slot")
        db = self.db
        rows = 3 + db.tracked_index(s_apps)
        lengths = last - first + 1
        starts = np.cumsum(lengths) - lengths
        # the windows' slots end to end
        slots = np.arange(lengths.sum()) + np.repeat(first - starts, lengths)
        return self.counts(rows[:, None] * db.n_slots + slots % db.n_slots,
                           np.repeat(at, lengths)), starts

    def event_probabilities(self, slots: np.ndarray, at, kind: EventKind) -> np.ndarray:
        """The empirical event probability of each of ``slots`` as of runs
        ``at`` (elementwise): its slot of day's event count over its
        observations, 0 where unobserved."""
        n = self.db.n_slots
        s = slots % n
        row = 1 if kind is EventKind.CUT else 2
        events, observations = self.counts(np.stack((row * n + s, s)), at)
        return _rates(events, observations)

    def features(self, slots: np.ndarray, at: np.ndarray, kind: EventKind) -> np.ndarray:
        """The (len(slots) x 9) context features for predicting ``kind`` in
        each of ``slots`` (absolute), in :class:`FeatureVector` order, slot
        ``i`` read from run ``at[i]``'s newest row and counts. The first
        seven depend only on the run's newest row; the slot index and the
        slot probability, the target event's empirical rate, vary by slot."""
        _check_features(self.db)
        return _slot_features(self.db, self._context[at], slots,
                              self.event_probabilities(slots, at, kind))

    @cached_property
    def _context(self) -> np.ndarray:
        """Each run's context features (1-7), from its newest row: the flags
        of each visible set the rows hold, computed once per set."""
        db = self.db
        cols, rows = self._newest
        visible = cols.visible[rows]
        flags = np.empty((len(cols.trace.visible_sets), 6))
        for v in set(visible.tolist()):
            flags[v] = db._visible_flags(cols.trace.visible_sets[v])
        return _context(db, flags[visible], self.now)


def update_history(db: HistoryDB, new_samples: Iterable) -> HistoryDB:
    """Fold a batch of :class:`~pcach.trace.MeasurementSample` objects into
    the histograms (in place; returns db).

    The batch becomes a :class:`~pcach.trace.Trace` and goes through
    :func:`fold_rows`. It is all-or-nothing: unless its timestamps strictly
    increase after ``db.last_timestamp``, it raises :class:`OrderingError`,
    and a batch whose byte counts exceed int64 or sum past 2**62 raises
    :class:`~pcach.errors.TraceValidationError`; either leaves the database
    untouched.
    """
    batch = tuple(new_samples)
    last = db.last_timestamp
    for sample in batch:
        if last is not None and sample.timestamp <= last:
            raise OrderingError(f"sample at t={sample.timestamp} not after t={last}")
        last = sample.timestamp
    if batch:
        fold_rows(db, Trace("", batch))
    return db


def slot_groups(db: HistoryDB, trace: Trace, lo: int, hi: int):
    """The slots of rows ``lo:hi`` on ``db``'s slot clock, in order.

    Returns (slots, starts, stops): the rows of slot ``slots[j]`` are
    ``starts[j]:stops[j]``.
    """
    key = db.abs_slot(trace.t[lo:hi])
    starts = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    stops = np.append(starts[1:], len(key))[:len(starts)]
    return key[starts], starts + lo, stops + lo


# ---------------------------------------------------------------------------
# top-K app selection
# ---------------------------------------------------------------------------

def best_ranks(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(windows x apps): each app's best rank in each usage window, 0 the top.

    ``counts`` and ``starts`` are a :meth:`FoldedRuns.usage` block, ranked in
    one sort. The ranking is :func:`predict_top_k_apps`'s, so row ``i`` below
    ``k`` marks exactly the apps it selects from window ``i`` at ``k``, for
    every ``k`` at once.
    """
    ranks = np.empty(counts.shape, dtype=np.int64)
    order = np.argsort(-counts, axis=0, kind="stable")
    np.put_along_axis(ranks, order, np.arange(len(counts))[:, None], axis=0)
    return np.minimum.reduceat(ranks, starts, axis=1).T


def predict_top_k_apps(counts: np.ndarray, s_apps: Sequence[str], k: int) -> list[str]:
    """Union of the per-slot top-K pre-cachable apps over a usage window.

    ``counts`` is a one-window :meth:`FoldedRuns.usage` block. Within
    each slot, apps rank by usage count descending, ties resolved by their
    order in ``s_apps``; the result preserves the order of first selection
    across the window (slot-major). Empty or duplicate ``s_apps`` raise
    :class:`ConfigError`, and a ``k`` outside [1, len(s_apps)]
    :class:`ParameterError`.
    """
    if not s_apps:
        raise ConfigError("s_apps must not be empty")
    if len(set(s_apps)) != len(s_apps):
        raise ConfigError("s_apps contains duplicates")
    if k < 1 or k > len(counts):
        raise ParameterError(f"k={k} outside [1, {len(counts)}]")
    # column j ranks slot j's apps; the stable sort keeps ties in row order
    ranked = np.argsort(-counts, axis=0, kind="stable")[:k]
    return [s_apps[i] for i in dict.fromkeys(ranked.T.ravel().tolist())]


# ---------------------------------------------------------------------------
# the history event rule
# ---------------------------------------------------------------------------

def _check_rule(n_draws: int, delta: float) -> None:
    if n_draws <= 0:
        raise ParameterError("n_draws must be positive")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta={delta} outside (0, 1)")


def _rule_fires(p: float, n_draws: int, delta: float, rng: np.random.Generator) -> bool:
    """The acceptance test for a probability p > 0: one binomial draw."""
    rate = int(rng.binomial(n_draws, p)) / n_draws
    return (1.0 - delta) * p <= rate <= (1.0 + delta) * p


def history_predict_event(
    p: float,
    n_draws: int,
    delta: float,
    rng: np.random.Generator,
) -> bool:
    """Monte-Carlo acceptance rule on an empirical event probability.

    Draw X ~ Binomial(N, p) with N = ``n_draws``, which is equal in law to
    counting how many of N uniform values in [0, 1) fall below ``p``, and
    predict the event iff the rate X/N falls inside [(1-delta)p, (1+delta)p].
    A probability of exactly zero never fires and draws nothing: an event
    never observed in a slot is never predicted.

    At the defaults (N = 10,000, delta = 0.1) the exact binomial over this
    window, with its edges the floating-point products (1 +- delta)p, gives
    a firing probability of 0.519 at p = 0.005, 0.684 at 0.01, 0.847 at
    0.02, 0.978 at 0.05 and 0.999 at 0.1: close to "predict iff p >~ 0.02".
    (At these p the lower edge lies just above (1-delta)p, so X =
    (1-delta)Np does not fire; the closed real window would give 0.565,
    0.709, 0.857, 0.980 and 0.999.)
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p={p} outside [0, 1]")
    _check_rule(n_draws, delta)
    return p != 0.0 and _rule_fires(p, n_draws, delta, rng)


def history_votes(
    runs: FoldedRuns,
    kind: EventKind,
    n_draws: int,
    delta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """The event rule's verdict on the slot after each run's slot, from the
    counts as of that run, as one :func:`history_predict_event` call per run
    in order would give it: the probabilities come from one call, and only
    runs with p > 0 draw."""
    _check_rule(n_draws, delta)
    p = runs.event_probabilities(runs.slots + 1, np.arange(len(runs)), kind)
    votes = np.zeros(len(p), dtype=bool)
    live = np.flatnonzero(p)
    for i, ps in zip(live.tolist(), p[live].tolist()):
        votes[i] = _rule_fires(ps, n_draws, delta, rng)
    return votes


def predict_resume_slot(
    db: HistoryDB,
    current_slot: int,
    max_lookahead: int = DEFAULT_MAX_LOOKAHEAD,
    n_draws: int = DEFAULT_N_DRAWS,
    delta: float = DEFAULT_DELTA,
    rng: Optional[np.random.Generator] = None,
    default_gap_slots: int = DEFAULT_GAP_SLOTS,
) -> int:
    """First future slot where the resume rule fires, else a fixed fallback.

    Scans current_slot+1 .. current_slot+max_lookahead; when no slot fires,
    assumes a median-length gap of ``default_gap_slots`` slots. The scanned
    slots' probabilities come from one call; only slots with p > 0 draw, in
    order and up to the first that fires, as the rule slot by slot would.
    """
    if rng is None:
        rng = np.random.default_rng()
    if max_lookahead > 0:
        _check_rule(n_draws, delta)
    counts = _scan_counts(newest_run(db, current_slot))(0)
    found = _resume_scan(current_slot + 1, max_lookahead, counts, n_draws, delta, rng)
    return current_slot + 1 + default_gap_slots if found is None else found


def _scan_counts(runs: FoldedRuns) -> Callable[[int], list[int]]:
    """:meth:`FoldedRuns.running_counts` of the cells a resume scan reads:
    the observations of each slot of day, then its resumes."""
    n = runs.db.n_slots
    return runs.running_counts(np.concatenate((np.arange(n), 2 * n + np.arange(n))))


def _resume_scan(first: int, max_lookahead: int, counts: list[int], n_draws: int,
                 delta: float, rng: np.random.Generator) -> Optional[int]:
    """The first of ``max_lookahead`` slots from ``first`` on whose resume
    rule fires, else None. ``counts`` holds the observations of each slot of
    day and then its resumes; only slots with p > 0 draw."""
    n = len(counts) // 2
    for slot in range(first, first + max_lookahead):
        s = slot % n
        if counts[n + s] and counts[s] and _rule_fires(counts[n + s] / counts[s], n_draws,
                                                       delta, rng):
            return slot
    return None


def history_rule(
    runs: FoldedRuns,
    n_draws: int,
    delta: float,
    max_lookahead: int,
    default_gap_slots: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The event rule's verdicts on the slot after each run's slot, from the
    counts as of that run.

    Returns (cut, cut p, resume next, resume slot): whether a cut is
    predicted for the target slot, the probability that verdict tested,
    whether the resume rule fires for the target slot itself, and, where a
    cut is predicted, the :func:`predict_resume_slot` scan from the run's
    slot. Every probability comes from one call, and the runs are walked in
    order only to draw: per run the cut rule, the resume rule for the target
    slot, then, on a cut, the scan, as one call each per slot in that order
    would draw.
    """
    targets = runs.slots + 1
    at = np.arange(len(runs))
    p_cut = runs.event_probabilities(targets, at, EventKind.CUT)
    p_resume = runs.event_probabilities(targets, at, EventKind.RESUME)
    pc, pr, current = p_cut.tolist(), p_resume.tolist(), runs.slots.tolist()
    cut, resume_next = [False] * len(runs), [False] * len(runs)
    resume_slot = (targets + default_gap_slots).tolist()
    scan_counts = _scan_counts(runs)
    for j in np.flatnonzero(p_cut + p_resume).tolist():
        cut[j] = history_predict_event(pc[j], n_draws, delta, rng)
        resume_next[j] = history_predict_event(pr[j], n_draws, delta, rng)
        if cut[j]:
            found = _resume_scan(current[j] + 1, max_lookahead, scan_counts(j), n_draws, delta,
                                 rng)
            if found is not None:
                resume_slot[j] = found
    return np.array(cut, dtype=bool), p_cut, np.array(resume_next, dtype=bool), \
        np.array(resume_slot, dtype=np.int64)


# ---------------------------------------------------------------------------
# context features
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureVector:
    """The nine per-slot context features feeding the boosted classifier:
    one row of :meth:`FoldedRuns.features`."""

    home_wifi_night: bool     # night time and home network in sight
    work_wifi_day: bool       # day time and work network in sight
    weekday: bool
    n_visible: int
    top1_seen: bool
    top2_seen: bool
    top3_seen: bool
    slot_index: int
    slot_event_prob: float

    def __post_init__(self):
        if self.n_visible < 0:
            raise FeatureError("n_visible must be non-negative")
        if not 0.0 <= self.slot_event_prob <= 1.0:
            raise FeatureError("slot_event_prob must lie in [0, 1]")

    @classmethod
    def from_row(cls, x: np.ndarray) -> "FeatureVector":
        v = x.tolist()
        return cls(bool(v[0]), bool(v[1]), bool(v[2]), int(v[3]), bool(v[4]), bool(v[5]),
                   bool(v[6]), int(v[7]), v[8])

    def as_array(self) -> np.ndarray:
        return np.array([
            float(self.home_wifi_night),
            float(self.work_wifi_day),
            float(self.weekday),
            float(self.n_visible),
            float(self.top1_seen),
            float(self.top2_seen),
            float(self.top3_seen),
            float(self.slot_index),
            float(self.slot_event_prob),
        ])


N_FEATURES = 9


def _check_features(db: HistoryDB) -> None:
    if db._newest is None:
        raise FeatureError("no sample to extract features from")
    if db.profile is None:
        raise FeatureError("history database has no preferred-network profile")


def _slot_features(db: HistoryDB, context, slots: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Feature rows of ``slots``: the context features (one row, or one per
    slot), each slot's slot of day and its probability ``p``."""
    X = np.empty((len(slots), N_FEATURES))
    X[:, :7] = context
    X[:, 7] = slots % db.n_slots
    X[:, 8] = p
    return X


def _context(db: HistoryDB, flags: np.ndarray, now) -> np.ndarray:
    """Features 1-7 from :meth:`HistoryDB._visible_flags` rows and the time
    (elementwise for one row and time per slot)."""
    at_night = in_hour_window(now, DEFAULT_NIGHT_WINDOW, db.utc_offset_s)
    out = np.empty(flags.shape[:-1] + (7,))
    out[..., 0] = at_night * flags[..., 0]
    out[..., 1] = np.logical_not(at_night) * flags[..., 1]
    out[..., 2] = is_weekday(now, db.utc_offset_s)
    out[..., 3:] = flags[..., 2:]
    return out


def extract_features(
    db: HistoryDB,
    slot: int,
    now: int,
    target: EventKind,
) -> FeatureVector:
    """Context features for predicting an event in a given slot at time
    ``now``, from the database's newest row and counts: one row of
    :meth:`FoldedRuns.features`."""
    _check_features(db)
    cols, i = db._newest
    context = _context(db, np.array(db._visible_flags(cols.trace.visible_sets[cols.visible[i]])),
                       now)
    slots = np.array([slot])
    p = newest_run(db, slot).event_probabilities(slots, 0, target)
    return FeatureVector.from_row(_slot_features(db, context, slots, p)[0])
