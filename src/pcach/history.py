"""On-device usage history and the statistics-driven predictors.

A :class:`HistoryDB` is the rolling per-phone store every prediction reads
from: per-app slot-of-day usage histograms, cut/resume event histograms,
per-slot observation counts, the preferred-network profile and the newest
raw sample, which both the event transitions and feature extraction read.
Updates are strictly chronological and single-owner; trained models and
profiles are immutable.

Slot indices passed between the prediction functions are *absolute* slot
numbers (local time divided by the slot length), so ranges spanning midnight
stay linear; histogram lookups reduce them modulo the slots-per-day count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    FeatureError,
    ModelError,
    OrderingError,
    ParameterError,
    PCachError,
)
from .mining import slots_per_day
from .trace import (
    MeasurementSample,
    PreferredNetworkProfile,
    _sample_from_obj,
    _sample_to_obj,
    in_hour_window,
    is_cut_transition,
    is_resume_transition,
    is_weekday,
)

DEFAULT_SLOT_MINUTES = 15
DEFAULT_N_DRAWS = 10000
DEFAULT_DELTA = 0.1
DEFAULT_MAX_LOOKAHEAD = 96
DEFAULT_GAP_SLOTS = 2
NIGHT_WINDOW = (20, 8)
DAY_WINDOW = (8, 20)


class EventKind(Enum):
    CUT = "cut"
    RESUME = "resume"


def app_ran(record) -> bool:
    """An app counts as used when it appeared running or moved bytes."""
    return record.running or record.total_bytes > 0


class HistoryDB:
    """Rolling slot-indexed usage and event histograms for one phone.

    ``app_hist`` counts, per tracked app and slot of day, the number of
    distinct (day, slot) pairs in which the app ran; ``cut_hist`` and
    ``resume_hist`` count (day, slot) pairs containing at least one event, so
    they never exceed ``slot_observations``.
    """

    def __init__(
        self,
        slot_minutes: int = DEFAULT_SLOT_MINUTES,
        tracked_apps: Sequence[str] = (),
        profile: Optional[PreferredNetworkProfile] = None,
        utc_offset_s: int = 0,
    ):
        self.slot_minutes = slot_minutes
        self.n_slots = slots_per_day(slot_minutes)
        self.tracked_apps = tuple(tracked_apps)
        self.profile = profile
        self.utc_offset_s = utc_offset_s
        self.app_hist: dict[str, np.ndarray] = {
            a: np.zeros(self.n_slots, dtype=np.int64) for a in self.tracked_apps
        }
        self.cut_hist = np.zeros(self.n_slots, dtype=np.int64)
        self.resume_hist = np.zeros(self.n_slots, dtype=np.int64)
        self.slot_observations = np.zeros(self.n_slots, dtype=np.int64)
        self.latest: Optional[MeasurementSample] = None
        # dedup state for the (day, slot) currently being filled
        self._open_key: Optional[tuple[int, int]] = None
        self._open_apps: set[str] = set()
        self._open_cut = False
        self._open_resume = False

    # -- slot arithmetic ---------------------------------------------------

    def abs_slot(self, timestamp: int) -> int:
        return (timestamp + self.utc_offset_s) // (self.slot_minutes * 60)

    def slot_of_day(self, timestamp: int) -> int:
        return self.abs_slot(timestamp) % self.n_slots

    def event_probability(self, slot: int, kind: EventKind) -> float:
        """Empirical per-slot event probability; 0 for unobserved slots."""
        s = slot % self.n_slots
        obs = int(self.slot_observations[s])
        if obs == 0:
            return 0.0
        hist = self.cut_hist if kind is EventKind.CUT else self.resume_hist
        return float(hist[s]) / obs

    @property
    def last_timestamp(self) -> Optional[int]:
        return None if self.latest is None else self.latest.timestamp

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "slot_minutes": self.slot_minutes,
            "tracked_apps": list(self.tracked_apps),
            "utc_offset_s": self.utc_offset_s,
            "app_hist": {a: h.tolist() for a, h in self.app_hist.items()},
            "cut_hist": self.cut_hist.tolist(),
            "resume_hist": self.resume_hist.tolist(),
            "slot_observations": self.slot_observations.tolist(),
            "profile": self.profile.to_dict() if self.profile else None,
            "latest": None if self.latest is None else _sample_to_obj(self.latest),
            "open_key": list(self._open_key) if self._open_key else None,
            "open_apps": sorted(self._open_apps),
            "open_cut": self._open_cut,
            "open_resume": self._open_resume,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HistoryDB":
        """The database a :meth:`to_json` text holds.

        A missing key, an ``app_hist`` whose apps differ from
        ``tracked_apps``, a histogram whose length is not ``n_slots``, a
        negative or non-integer count and an invalid ``latest`` sample raise
        :class:`ModelError` naming the key.
        """
        d = json.loads(text)
        try:
            db = cls(
                slot_minutes=d["slot_minutes"],
                tracked_apps=d["tracked_apps"],
                profile=PreferredNetworkProfile.from_dict(d["profile"]) if d["profile"] else None,
                utc_offset_s=d["utc_offset_s"],
            )
            app_hist = d["app_hist"]
            if type(app_hist) is not dict or set(app_hist) != set(db.tracked_apps):
                raise ModelError(f"history snapshot key 'app_hist': apps {sorted(app_hist)} "
                                 f"differ from tracked_apps {sorted(db.tracked_apps)}")
            for a, h in app_hist.items():
                db.app_hist[a] = _slot_counts(h, db.n_slots, f"app_hist[{a!r}]")
            db.cut_hist = _slot_counts(d["cut_hist"], db.n_slots, "cut_hist")
            db.resume_hist = _slot_counts(d["resume_hist"], db.n_slots, "resume_hist")
            db.slot_observations = _slot_counts(d["slot_observations"], db.n_slots,
                                                "slot_observations")
            try:
                db.latest = None if d["latest"] is None else _sample_from_obj(d["latest"])
            except PCachError as exc:
                raise ModelError(f"history snapshot key 'latest': {exc}") from None
            db._open_key = tuple(d["open_key"]) if d["open_key"] else None
            db._open_apps = set(d["open_apps"])
            db._open_cut = d["open_cut"]
            db._open_resume = d["open_resume"]
        except KeyError as exc:
            raise ModelError(f"history snapshot lacks key {exc.args[0]!r}") from None
        return db


def _slot_counts(values, n_slots: int, key: str) -> np.ndarray:
    """A snapshot histogram: a list of ``n_slots`` non-negative integers."""
    if type(values) is not list or len(values) != n_slots:
        raise ModelError(f"history snapshot key {key!r} must be a list of {n_slots} counts")
    if not all(type(v) is int and 0 <= v < 2**63 for v in values):
        raise ModelError(f"history snapshot key {key!r} holds a negative or non-integer count")
    return np.asarray(values, dtype=np.int64)


def update_history(db: HistoryDB, new_samples: Iterable[MeasurementSample]) -> HistoryDB:
    """Fold new samples into the histograms (in place; returns db).

    Tracked apps that ran in a (day, slot) increment that slot's usage count
    once; cut/resume transitions increment the event histograms at the
    event sample's slot of day, at most once per (day, slot); every (day,
    slot) containing a sample counts as observed.

    The batch is all-or-nothing: unless its timestamps strictly increase
    after ``db.last_timestamp``, it raises :class:`OrderingError` and leaves
    the database untouched.
    """
    if not isinstance(new_samples, (list, tuple)):
        new_samples = list(new_samples)
    last = db.last_timestamp
    for sample in new_samples:
        if last is not None and sample.timestamp <= last:
            raise OrderingError(f"sample at t={sample.timestamp} not after t={last}")
        last = sample.timestamp

    prev = db.latest
    for sample in new_samples:
        key = divmod(db.abs_slot(sample.timestamp), db.n_slots)
        if key != db._open_key:
            db._open_key = key
            db._open_apps = set()
            db._open_cut = False
            db._open_resume = False
            db.slot_observations[key[1]] += 1
        slot = key[1]

        for rec in sample.apps:
            if rec.app_id in db.app_hist and rec.app_id not in db._open_apps and app_ran(rec):
                db.app_hist[rec.app_id][slot] += 1
                db._open_apps.add(rec.app_id)

        if prev is not None:
            if not db._open_cut and is_cut_transition(prev, sample):
                db.cut_hist[slot] += 1
                db._open_cut = True
            if not db._open_resume and is_resume_transition(prev, sample):
                db.resume_hist[slot] += 1
                db._open_resume = True
        prev = sample
    db.latest = prev
    return db


def rank_slot_apps(
    db: HistoryDB,
    s_apps: Sequence[str],
    k: int,
    first_slot: int,
    last_slot: int,
) -> np.ndarray:
    """The top-K pre-cachable apps of every slot in a range, as indices.

    Returns a (k, slots) array of indices into ``s_apps``: column j ranks
    slot ``first_slot + j`` by historical usage count descending, ties
    resolved by order in ``s_apps``. Rows ``[:k']`` are the ranking for any
    smaller ``k'``, so one call serves every K up to ``k``.
    """
    if not s_apps:
        raise ConfigError("s_apps must not be empty")
    if k < 1 or k > len(s_apps):
        raise ParameterError(f"k={k} outside [1, {len(s_apps)}]")
    if first_slot > last_slot:
        raise ParameterError("first_slot must not exceed last_slot")

    zeros = np.zeros(db.n_slots, dtype=np.int64)
    counts = np.stack([db.app_hist.get(a, zeros) for a in s_apps])
    cols = np.arange(first_slot, last_slot + 1) % db.n_slots
    # the stable sort keeps ties in s_apps order
    return np.argsort(-counts[:, cols], axis=0, kind="stable")[:k]


def selected_apps(s_apps: Sequence[str], ranked: np.ndarray) -> list[str]:
    """Union of a ranking's apps in order of first selection (slot-major)."""
    return list(dict.fromkeys(s_apps[i] for i in ranked.T.ravel().tolist()))


def predict_top_k_apps(
    db: HistoryDB,
    s_apps: Sequence[str],
    k: int,
    first_slot: int,
    last_slot: int,
) -> list[str]:
    """Union of the per-slot top-K pre-cachable apps over a slot range.

    Within each slot of day, apps rank by historical usage count descending,
    ties resolved by their order in ``s_apps``; the result preserves the
    order of first selection across the scan.
    """
    return selected_apps(s_apps, rank_slot_apps(db, s_apps, k, first_slot, last_slot))


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
    A probability of exactly zero never fires: an event never observed in a
    slot is never predicted.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p={p} outside [0, 1]")
    if n_draws <= 0:
        raise ParameterError("n_draws must be positive")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta={delta} outside (0, 1)")
    if p == 0.0:
        return False
    x = int(rng.binomial(n_draws, p))
    rate = x / n_draws
    return (1.0 - delta) * p <= rate <= (1.0 + delta) * p


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
    assumes a median-length gap of ``default_gap_slots`` slots.
    """
    if rng is None:
        rng = np.random.default_rng()
    for s in range(current_slot + 1, current_slot + 1 + max_lookahead):
        p = db.event_probability(s, EventKind.RESUME)
        if history_predict_event(p, n_draws, delta, rng):
            return s
    return current_slot + 1 + default_gap_slots


@dataclass(frozen=True)
class FeatureVector:
    """The nine per-slot context features feeding the boosted classifier."""

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


def extract_features(
    db: HistoryDB,
    slot: int,
    now: int,
    target: EventKind,
) -> FeatureVector:
    """Context features for predicting an event in a given slot of day.

    Visibility features come from the database's newest sample; the slot
    probability is the target event's empirical rate for ``slot``.
    """
    if db.latest is None:
        raise FeatureError("no sample to extract features from")
    if db.profile is None:
        raise FeatureError("history database has no preferred-network profile")
    visible = db.latest.visible_ssids
    prof = db.profile
    top = list(prof.top3) + [None, None, None]
    at_night = in_hour_window(now, NIGHT_WINDOW, db.utc_offset_s)
    return FeatureVector(
        home_wifi_night=at_night and prof.home_ssid is not None
        and prof.home_ssid in visible,
        work_wifi_day=(not at_night) and prof.work_ssid is not None
        and prof.work_ssid in visible,
        weekday=is_weekday(now, db.utc_offset_s),
        n_visible=len(visible),
        top1_seen=top[0] is not None and top[0] in visible,
        top2_seen=top[1] is not None and top[1] in visible,
        top3_seen=top[2] is not None and top[2] in visible,
        slot_index=slot % db.n_slots,
        slot_event_prob=db.event_probability(slot, target),
    )
