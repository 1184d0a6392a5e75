"""Sample-walking and pre-columnar reference implementations.

Each trace-level oracle walks ``trace.samples`` one object at a time, the way
the library computed these stages before its traces became columns; the
history oracles walk sample objects the way the replay folded them, and
``best_stump_oracle`` re-sorts every column every round the way the
boosting search did before it presorted, and ``adaboost_scan_oracle``
scores the whole look-ahead of every predicted cut the way the boosted
predictor did before its scan stopped early. ``rank_slot_apps``,
``selected_apps`` and ``score_app_prediction`` select and score apps as
sets of names, one gap and one K at a time, the way the replays did before
they tallied (gaps x apps) rows, and ``gap_used_apps`` walks one gap's
samples for the apps it used, one gap at a time, as the replays did before
they built their gap table. The columnar, presorted, early-stopping,
row-tallying and gap-table code must agree with them exactly (see the
``hypothesis`` properties in ``test_trace.py``, ``test_mining.py``,
``test_history.py``, ``test_boosting.py``, ``test_pipeline.py`` and
``test_evaluation.py``).
"""

import itertools
import json
from bisect import bisect_left
from dataclasses import replace

import numpy as np

from pcach.errors import OrderingError, ParameterError
from pcach.evaluation import ConfusionCounts
from pcach.history import EventKind
from pcach.trace import (
    CUT_MAX_SPACING_S,
    ActiveNetwork,
    PreferredNetworkProfile,
    WiFiGap,
    ingest_trace,
    local_day_index,
)


def app_ran(record):
    """An app counts as used when it appeared running or moved bytes."""
    return record.running or record.total_bytes > 0


def sample_to_obj(sample):
    """The JSONL object of one sample, built field by field: the writer
    oracle of ``trace_to_jsonl``."""
    return {
        "t": sample.timestamp,
        "active": sample.active_network.value,
        "ssid": sample.connected_ssid,
        "visible": sorted(sample.visible_ssids),
        "apps": [
            {"id": a.app_id, "up": a.up_bytes, "down": a.down_bytes, "running": a.running}
            for a in sample.apps
        ],
    }


def is_cut_transition(prev, cur):
    """WiFi -> cellular between samples no more than 10 minutes apart."""
    return (
        prev.active_network is ActiveNetwork.WIFI
        and cur.active_network is ActiveNetwork.CELLULAR
        and cur.timestamp - prev.timestamp <= CUT_MAX_SPACING_S
    )


def is_resume_transition(prev, cur):
    """Cellular -> WiFi between consecutive samples."""
    return (
        prev.active_network is ActiveNetwork.CELLULAR
        and cur.active_network is ActiveNetwork.WIFI
    )


def samples_in_window(trace, start, end):
    """Samples with start <= timestamp < end, by bisection on the samples."""
    lo = bisect_left(trace.samples, start, key=lambda s: s.timestamp)
    hi = bisect_left(trace.samples, end, lo, key=lambda s: s.timestamp)
    return trace.samples[lo:hi]


def sample_from_obj(obj):
    """The sample one JSONL object holds, checked as ``ingest_trace`` checks
    a line."""
    return ingest_trace(json.dumps(obj).encode(), fmt="jsonl").samples[0]


def group_by_slot(db, samples):
    """Consecutive (absolute_slot, [samples]) groups on ``db``'s slot clock."""
    return [(slot, list(group)) for slot, group in
            itertools.groupby(samples, key=lambda s: db.abs_slot(s.timestamp))]


class HistoryOracle:
    """The sample-walking history fold: per-app and event histograms keyed
    by (day, slot), the open (day, slot)'s dedup state and the newest sample.

    ``to_json`` writes the snapshot ``HistoryDB.to_json`` writes for the
    same state.
    """

    def __init__(self, db):
        self.db = db   # an empty HistoryDB: its clock, apps and profile
        self.app_hist = {a: np.zeros(db.n_slots, dtype=np.int64) for a in db.tracked_apps}
        self.cut_hist = np.zeros(db.n_slots, dtype=np.int64)
        self.resume_hist = np.zeros(db.n_slots, dtype=np.int64)
        self.slot_observations = np.zeros(db.n_slots, dtype=np.int64)
        self.latest = None
        self.open_key = None
        self.open_apps = set()
        self.open_cut = False
        self.open_resume = False

    def update(self, new_samples):
        new_samples = list(new_samples)
        last = None if self.latest is None else self.latest.timestamp
        for sample in new_samples:
            if last is not None and sample.timestamp <= last:
                raise OrderingError(f"sample at t={sample.timestamp} not after t={last}")
            last = sample.timestamp

        prev = self.latest
        for sample in new_samples:
            key = divmod(self.db.abs_slot(sample.timestamp), self.db.n_slots)
            if key != self.open_key:
                self.open_key = key
                self.open_apps = set()
                self.open_cut = False
                self.open_resume = False
                self.slot_observations[key[1]] += 1
            slot = key[1]
            for rec in sample.apps:
                if (rec.app_id in self.app_hist and rec.app_id not in self.open_apps
                        and app_ran(rec)):
                    self.app_hist[rec.app_id][slot] += 1
                    self.open_apps.add(rec.app_id)
            if prev is not None:
                if not self.open_cut and is_cut_transition(prev, sample):
                    self.cut_hist[slot] += 1
                    self.open_cut = True
                if not self.open_resume and is_resume_transition(prev, sample):
                    self.resume_hist[slot] += 1
                    self.open_resume = True
            prev = sample
        self.latest = prev

    def to_json(self):
        db = self.db
        latest = None
        if self.latest is not None:
            s = self.latest
            latest = {"t": s.timestamp, "active": s.active_network.value,
                      "ssid": s.connected_ssid, "visible": sorted(s.visible_ssids),
                      "apps": [{"id": a.app_id, "up": a.up_bytes, "down": a.down_bytes,
                                "running": a.running} for a in s.apps]}
        return json.dumps({
            "slot_minutes": db.slot_minutes,
            "tracked_apps": list(db.tracked_apps),
            "utc_offset_s": db.utc_offset_s,
            "app_hist": {a: h.tolist() for a, h in self.app_hist.items()},
            "cut_hist": self.cut_hist.tolist(),
            "resume_hist": self.resume_hist.tolist(),
            "slot_observations": self.slot_observations.tolist(),
            "profile": db.profile.to_dict() if db.profile else None,
            "latest": latest,
            "open_key": list(self.open_key) if self.open_key else None,
            "open_apps": sorted(self.open_apps),
            "open_cut": self.open_cut,
            "open_resume": self.open_resume,
        }, sort_keys=True)


def best_stump_oracle(X, y, w):
    """The stump search that argsorts every column every round."""
    best = None  # (eps, feature_idx0, threshold, polarity)
    for f in range(X.shape[1]):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        v = col[order]
        boundaries = np.nonzero(v[1:] > v[:-1])[0]
        if boundaries.size == 0:
            continue
        wy_pos = np.cumsum(w[order] * (y[order] > 0))
        wy_neg = np.cumsum(w[order] * (y[order] < 0))
        total_neg = wy_neg[-1]
        eps_pos = wy_pos[boundaries] + (total_neg - wy_neg[boundaries])
        eps_neg = 1.0 - eps_pos
        for eps_arr, polarity in ((eps_pos, 1), (eps_neg, -1)):
            i = int(np.argmin(eps_arr))
            eps = float(eps_arr[i])
            if best is None or eps < best[0] - 1e-15:
                b = boundaries[i]
                threshold = (v[b] + v[b + 1]) / 2.0
                best = (eps, f, threshold, polarity)
    return best


def adaboost_scan_oracle(config, runs, scan_rows=2048):
    """``AdaBoostPredictor.predict`` with the resume scan scoring all
    ``config.max_lookahead_slots`` look-ahead slots of every predicted cut,
    a block of cuts per margins call of about ``scan_rows`` rows."""
    def labels(model, X):
        margins = model.decision_margins(X)
        return margins > model.decision_threshold, margins

    targets = runs.slots + 1
    at = np.arange(len(runs))
    cut, cut_margins = labels(config.cut_model, runs.features(targets, at, EventKind.CUT))
    resume_next, _ = labels(config.resume_model, runs.features(targets, at, EventKind.RESUME))
    resume_slot = targets + config.default_gap_slots
    ahead = np.arange(1, config.max_lookahead_slots + 1)
    # with no slot to scan, every cut takes the fallback
    cuts = np.flatnonzero(cut) if len(ahead) else np.zeros(0, dtype=np.int64)
    block = max(1, scan_rows // max(len(ahead), 1))
    for lo in range(0, len(cuts), block):
        j = cuts[lo:lo + block]
        slots = runs.slots[j, None] + ahead
        fires, _ = labels(config.resume_model, runs.features(
            slots.ravel(), np.repeat(j, len(ahead)), EventKind.RESUME))
        fires = fires.reshape(slots.shape)
        found = fires.any(axis=1)
        resume_slot[j[found]] = slots[found, fires[found].argmax(axis=1)]
    return cut, cut_margins, resume_next, resume_slot


def rank_slot_apps(counts: np.ndarray, k: int) -> np.ndarray:
    """The top-K apps of every slot of a usage window, as row indices.

    ``counts`` is an (apps x slots) window of :meth:`FoldedRuns.usage`.
    Returns a (k, slots) array: column j ranks slot j's apps by usage count
    descending, ties resolved by row order. Rows ``[:k']`` are the ranking
    for any smaller ``k'``, so one call serves every K up to ``k``.
    """
    if k < 1 or k > len(counts):
        raise ParameterError(f"k={k} outside [1, {len(counts)}]")
    # the stable sort keeps ties in row order
    return np.argsort(-counts, axis=0, kind="stable")[:k]


def selected_apps(s_apps, ranked: np.ndarray) -> list[str]:
    """Union of a ranking's apps in order of first selection (slot-major)."""
    return [s_apps[i] for i in dict.fromkeys(ranked.T.ravel().tolist())]


def score_app_prediction(predicted, actually_used, s_apps) -> ConfusionCounts:
    """Set-level confusion of a pre-cache selection against actual gap usage.

    Ground truth is restricted to the pre-cachable universe ``s_apps``;
    predictions outside it are rejected.
    """
    universe = set(s_apps)
    p = set(predicted)
    if not p <= universe:
        raise ParameterError(
            f"predicted apps outside the pre-cachable set: {sorted(p - universe)}"
        )
    u = set(actually_used) & universe
    return ConfusionCounts(
        tp=len(p & u),
        fp=len(p - u),
        fn=len(u - p),
        tn=len(universe - (p | u)),
    )


def gap_used_apps(norm, gap, tracked_apps) -> set[str]:
    """The tracked apps that moved bytes during a closed gap of a normalized
    trace; an open gap has no ground-truth window and yields none.

    Every sample in [cut, resume) of a closed gap is cellular: a WiFi sample
    would have resumed the gap and an off-network one would have left it
    open.
    """
    if gap.resume_time is None:
        return set()
    return {record.app_id for s in samples_in_window(norm, gap.cut_time, gap.resume_time)
            for record in s.apps if record.total_bytes > 0} & set(tracked_apps)


def profile_oracle(trace, night_window=(20, 8), utc_offset_s=0):
    """Preferred SSIDs, top three by scans, home by night scans, work by day."""
    preferred = {s.connected_ssid for s in trace.samples if s.connected_ssid is not None}
    if not preferred:
        return PreferredNetworkProfile(frozenset(), (), None, None)
    total = {ssid: 0 for ssid in preferred}
    night = {ssid: 0 for ssid in preferred}
    day = {ssid: 0 for ssid in preferred}
    start, end = night_window
    for s in trace.samples:
        hour = ((s.timestamp + utc_offset_s) % 86400) / 3600.0
        at_night = start <= hour < end if start <= end else (hour >= start or hour < end)
        for ssid in s.visible_ssids:
            if ssid in total:
                total[ssid] += 1
                if at_night:
                    night[ssid] += 1
                else:
                    day[ssid] += 1

    def best(counts):
        return min(counts, key=lambda ssid: (-counts[ssid], ssid))

    ranked = sorted(preferred, key=lambda ssid: (-total[ssid], ssid))
    return PreferredNetworkProfile(frozenset(preferred), tuple(ranked[:3]),
                                   best(night), best(day))


def normalize_oracle(trace, profile):
    """The normalized samples: cellular ones seeing a preferred network
    become WiFi on the lexicographically first such network."""
    out = []
    for s in trace.samples:
        hits = s.visible_ssids & profile.preferred
        if s.active_network is ActiveNetwork.CELLULAR and hits:
            s = replace(s, active_network=ActiveNetwork.WIFI, connected_ssid=min(hits))
        out.append(s)
    return tuple(out)


def gaps_oracle(trace):
    """Cuts paired with the next resume in one forward scan with a pending cut."""
    gaps = []
    pending = None
    for prev, cur in zip(trace.samples, trace.samples[1:]):
        if cur.active_network is ActiveNetwork.NONE:
            if pending is not None:
                gaps.append(WiFiGap(cut_time=pending))
                pending = None
            continue
        if is_cut_transition(prev, cur):
            pending = cur.timestamp
        elif pending is not None and is_resume_transition(prev, cur):
            gaps.append(WiFiGap(cut_time=pending, resume_time=cur.timestamp))
            pending = None
    if pending is not None:
        gaps.append(WiFiGap(cut_time=pending))
    return gaps


def traffic_split_oracle(trace):
    """(cellular, wifi, first_day, per-day cellular, per-day wifi) byte sums."""
    if not trace.samples:
        return 0, 0, 0, (), ()
    first_day = local_day_index(trace.samples[0].timestamp)
    n_days = local_day_index(trace.samples[-1].timestamp) - first_day + 1
    cell, wifi = [0] * n_days, [0] * n_days
    for s in trace.samples:
        d = local_day_index(s.timestamp) - first_day
        if s.active_network is ActiveNetwork.CELLULAR:
            cell[d] += s.total_bytes
        elif s.active_network is ActiveNetwork.WIFI:
            wifi[d] += s.total_bytes
    return sum(cell), sum(wifi), first_day, tuple(cell), tuple(wifi)


def bound_oracle(trace, gaps, horizon_s):
    """Covered over total cellular bytes, walking each gap's cellular run
    from its cut until the horizon, a non-cellular sample or the end."""
    total = sum(s.total_bytes for s in trace.samples
                if s.active_network is ActiveNetwork.CELLULAR)
    if total == 0:
        return 0.0
    covered = 0
    for g in gaps:
        i = bisect_left(trace.samples, g.cut_time, key=lambda s: s.timestamp)
        while i < len(trace.samples):
            s = trace.samples[i]
            if (s.timestamp >= g.cut_time + horizon_s
                    or s.active_network is not ActiveNetwork.CELLULAR):
                break
            covered += s.total_bytes
            i += 1
    return covered / total
