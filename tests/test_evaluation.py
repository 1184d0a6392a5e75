import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcach.errors import DataError, ParameterError, UndefinedRateError
from pcach.evaluation import (
    PAPER_K_SET,
    RECALL_MARGIN,
    AppPredictionRun,
    ConfusionCounts,
    RocPoint,
    _Replay,
    _select_threshold,
    _train_panel,
    app_prediction_run,
    backtest,
    k_sweep,
    macro_average,
    quality_gap,
    tpr_fpr,
)
from pcach.history import EventKind, FoldedRuns, HistoryDB, fold_rows, slot_groups
from pcach.pipeline import PCachConfig, PredictorKind
from pcach.synth import generate_trace, reference_config
from pcach.trace import (
    ActiveNetwork,
    MeasurementSample,
    Trace,
    derive_preferred_profile,
    detect_gaps,
    normalize_timeline,
)

from helpers import C, N, W, app, sample, seeded_rng, trace_from_states, usage_window
from oracles import gap_used_apps, rank_slot_apps, score_app_prediction, selected_apps


# ---------------------------------------------------------------------------
# confusion counts and rates
# ---------------------------------------------------------------------------

def _app_rows(s_apps, *app_sets):
    """One boolean row per app set, in ``s_apps`` order, as the replays
    tally selections and usage."""
    return [[a in apps for a in s_apps] for apps in app_sets]


def test_score_app_prediction_perfect_and_mixed():
    s_apps = ["a", "b", "c", "d"]
    c = ConfusionCounts.tally(*_app_rows(s_apps, {"a", "b"}, {"a", "b"}))
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 0, 0, 2)
    assert c == score_app_prediction({"a", "b"}, {"a", "b"}, s_apps)
    c = ConfusionCounts.tally(*_app_rows(["a", "b", "c"], {"a"}, {"b"}))
    assert (c.tp, c.fp, c.fn, c.tn) == (0, 1, 1, 1)
    assert c == score_app_prediction({"a"}, {"b"}, ["a", "b", "c"])


def test_score_app_prediction_rejects_foreign_apps():
    # the set-algebra reference refuses a selection outside s_apps, which a
    # row in s_apps order cannot hold
    with pytest.raises(ParameterError):
        score_app_prediction({"zz"}, set(), ["a", "b"])


_APPS = [f"a{i}" for i in range(12)]


@settings(deadline=None)
@given(s_apps=st.lists(st.sampled_from(_APPS), min_size=1, unique=True), data=st.data())
def test_score_app_prediction_random_set_algebra_oracle(s_apps, data):
    """The tally of (gaps x apps) selection rows against used rows is the
    sum of the set-algebra confusions of each gap; used apps outside s_apps
    fall out of both."""
    gaps = data.draw(st.lists(st.tuples(st.sets(st.sampled_from(s_apps)),
                                        st.sets(st.sampled_from(_APPS))), max_size=6))
    predicted = [p for p, _ in gaps]
    used = [u for _, u in gaps]
    c = ConfusionCounts.tally(_app_rows(s_apps, *predicted), _app_rows(s_apps, *used))
    assert c == sum((score_app_prediction(p, u, s_apps) for p, u in gaps), ConfusionCounts())
    u = [x & set(s_apps) for x in used]
    assert c.tp + c.fn == sum(map(len, u))
    assert c.tp + c.fp == sum(map(len, predicted))
    assert c.total == len(gaps) * len(s_apps)


def test_tpr_fpr_formulas():
    assert tpr_fpr(ConfusionCounts(tp=8, fn=2, fp=1, tn=9)) == (0.8, 0.1)
    assert tpr_fpr(ConfusionCounts(tp=1, fn=0, fp=0, tn=10)) == (1.0, 0.0)
    assert tpr_fpr(ConfusionCounts(1, 1, 1, 1)) == (0.5, 0.5)


def test_tpr_fpr_zero_denominators():
    with pytest.raises(UndefinedRateError):
        tpr_fpr(ConfusionCounts(tp=0, fn=0, fp=1, tn=1))
    with pytest.raises(UndefinedRateError):
        tpr_fpr(ConfusionCounts(tp=1, fn=1, fp=0, tn=0))


def test_tpr_fpr_matches_arithmetic_on_random_counts():
    rng = seeded_rng(23)
    for _ in range(500):
        tp, fp, fn, tn = (int(x) for x in rng.integers(0, 50, size=4))
        counts = ConfusionCounts(tp, fp, fn, tn)
        if tp + fn == 0 or fp + tn == 0:
            with pytest.raises(UndefinedRateError):
                tpr_fpr(counts)
            continue
        tpr, fpr = tpr_fpr(counts)
        assert tpr == pytest.approx(tp / (tp + fn))
        assert fpr == pytest.approx(fp / (fp + tn))


def test_quality_gap_anchor_points():
    assert quality_gap(1.0, 0.0) == 0.0
    assert quality_gap(0.0, 1.0) == pytest.approx(1.0)
    assert quality_gap(0.5, 0.5) == pytest.approx(0.5)


def test_quality_gap_monotonicity():
    rng = seeded_rng(29)
    for _ in range(200):
        tpr, fpr = rng.random(), rng.random()
        g = quality_gap(tpr, fpr)
        assert 0.0 <= g <= 1.0
        if fpr < 0.99:
            assert quality_gap(tpr, min(1.0, fpr + 0.01)) > g
        if tpr < 0.99:
            assert quality_gap(min(1.0, tpr + 0.01), fpr) < g
    assert quality_gap(1.0, 0.0) == 0.0


def test_confusion_counts_validation_and_addition():
    with pytest.raises(ParameterError):
        ConfusionCounts(tp=-1)
    total = ConfusionCounts(1, 2, 3, 4) + ConfusionCounts(4, 3, 2, 1)
    assert (total.tp, total.fp, total.fn, total.tn) == (5, 5, 5, 5)


# few distinct values, so scores repeat and thresholds land on them
_SCORES = st.sampled_from([-2.5, -1.0, 0.0, 0.25, 1.0, 3.0])


@settings(deadline=None, max_examples=300)
@given(scored=st.lists(st.tuples(_SCORES, st.booleans()), max_size=30),
       one_class=st.sampled_from([None, False, True]),
       thresholds=st.lists(_SCORES | st.sampled_from([-10.0, 10.0, -math.inf, math.inf])
                           | st.floats(-5, 5), max_size=12))
def test_one_sort_counts_equal_the_tally_at_every_threshold(scored, one_class, thresholds):
    """Ties at a threshold, repeated scores, truths of one class only,
    thresholds past every score and empty inputs."""
    scores = np.array([s for s, _ in scored], dtype=float)
    truth = np.array([t if one_class is None else one_class for _, t in scored], dtype=bool)
    got = ConfusionCounts.tally_above(scores, truth, thresholds)
    assert got == [ConfusionCounts.tally(scores > theta, truth) for theta in thresholds]


def _best_cut(margins, truth, reference):
    """The training confusion of the best cut ``margins >= u`` over every
    distinct margin ``u`` (and the empty cut), by direct tally: the lowest
    (fpr, -tpr) among the cuts whose recall reaches the reference's plus
    ``RECALL_MARGIN``, else the highest (tpr, -fpr); ``margins > 0`` when
    the rates are undefined (one class only)."""
    if truth.all() or not truth.any():
        return ConfusionCounts.tally(margins > 0, truth)
    cuts = [ConfusionCounts.tally(margins >= u, truth) for u in sorted(set(margins.tolist()))]
    cuts.append(ConfusionCounts.tally(np.zeros(len(margins), dtype=bool), truth))
    try:
        target = min(1.0, tpr_fpr(reference)[0] + RECALL_MARGIN)
    except UndefinedRateError:
        target = RECALL_MARGIN
    rated = [(*tpr_fpr(c), c) for c in cuts]
    reach = [(fpr, -tpr, c) for tpr, fpr, c in rated if tpr >= target]
    if reach:
        return min(reach, key=lambda r: r[:2])[2]
    return min(((-tpr, fpr, c) for tpr, fpr, c in rated), key=lambda r: r[:2])[2]


# 60 distinct margins, a clean split between the 30th and 31st: that cut is
# the only one with recall 1 and no false positive
_SIXTY = [(i / 4 - 7, 0, i >= 30) for i in range(60)]


@settings(deadline=None, max_examples=300)
@given(scored=st.lists(st.tuples(st.floats(-8, 8), st.integers(0, 3), st.booleans()),
                       min_size=1, max_size=160),
       reference=st.tuples(st.integers(0, 20), st.integers(0, 20)))
@example(scored=_SIXTY, reference=(1, 1))
def test_the_selected_threshold_is_the_best_cut_of_every_distinct_margin(scored, reference):
    """Margins ``ulps`` floats above a drawn value, so neighbours with no
    float between them occur, and panels past 49 distinct margins."""
    margins = np.array([v for v, _, _ in scored])
    for i, (_, ulps, _) in enumerate(scored):
        for _ in range(ulps):
            margins[i] = np.nextafter(margins[i], np.inf)
    labels = np.array([1 if t else -1 for _, _, t in scored])
    ref = ConfusionCounts(tp=reference[0], fp=0, fn=reference[1], tn=1)
    theta = _select_threshold(*_train_panel(margins, labels), ref)
    assert ConfusionCounts.tally(margins > theta, labels > 0) == \
        _best_cut(margins, labels > 0, ref)


def test_roc_point_validation():
    with pytest.raises(ParameterError):
        RocPoint(tpr=1.2, fpr=0.0)


# ---------------------------------------------------------------------------
# backtest with stub predictors
# ---------------------------------------------------------------------------

class NeverCut:
    def predict(self, runs, rng):
        n = len(runs)
        return np.zeros(n, dtype=bool), np.zeros(n), np.zeros(n, dtype=bool), runs.slots + 1


class OracleFromTruth:
    """Stub fed with ground-truth events (perfect gap knowledge)."""

    def __init__(self, trace, slot_minutes=15):
        self.slot_s = slot_minutes * 60
        self.cut_slots = set()
        self.resume_by_cut_slot = {}
        for g in detect_gaps(trace):
            cs = g.cut_time // self.slot_s
            self.cut_slots.add(cs)
            if g.resume_time is not None and cs not in self.resume_by_cut_slot:
                self.resume_by_cut_slot[cs] = g.resume_time // self.slot_s

    def predict(self, runs, rng):
        n = len(runs)
        current = runs.slots.tolist()
        cut = [slot + 1 in self.cut_slots for slot in current]
        resume = [self.resume_by_cut_slot.get(slot + 1, slot + 3) for slot in current]
        return np.array(cut, dtype=bool), np.zeros(n), np.zeros(n, dtype=bool), np.array(resume)


@pytest.fixture(scope="module")
def medium_trace():
    cfg = dataclasses.replace(reference_config(seed=2718), days=21)
    return generate_trace(cfg, "bt-phone"), cfg


def _config(cfg, kind=PredictorKind.HISTORY, k=5):
    return PCachConfig(k=k, s_apps=cfg.pcachable_apps, predictor_kind=kind)


def test_backtest_with_never_cut_stub(medium_trace):
    trace, cfg = medium_trace
    report = backtest(trace, _config(cfg), predictor_override=NeverCut())
    tpr, fpr = report.rates("cut")
    assert tpr == 0.0 and fpr == 0.0
    assert report.predicted_cut_slots == 0
    assert report.apps.total == 0


def test_backtest_with_oracle_stub_matches_topk_ceiling(medium_trace):
    trace, cfg = medium_trace
    config = _config(cfg, k=5)
    report = backtest(trace, config, predictor_override=OracleFromTruth(trace))
    tpr, fpr = report.rates("cut")
    assert tpr == 1.0 and fpr == 0.0

    # the oracle-driven pipeline must reproduce the gap-oracle app scores
    run = app_prediction_run(trace, config.s_apps, [5])
    assert report.apps == run.counts_by_k[5]
    assert report.scored_gaps == run.scored_gaps
    # perfect resume knowledge scores within tolerance every time
    assert report.resume_within_one == report.resume_evaluated > 0


def test_backtest_trace_too_short():
    cfg = dataclasses.replace(reference_config(seed=1), days=1)
    trace = generate_trace(cfg, "short")
    with pytest.raises(DataError):
        backtest(trace, _config(cfg))


def test_backtest_history_is_deterministic_given_seed(medium_trace):
    trace, cfg = medium_trace
    r1 = backtest(trace, _config(cfg), seed=5)
    r2 = backtest(trace, _config(cfg), seed=5)
    assert r1 == r2
    r3 = backtest(trace, _config(cfg), seed=6)
    assert r1 != r3  # the Monte-Carlo rule actually consumed the seed


def test_backtest_adaboost_produces_models_and_panel(medium_trace):
    trace, cfg = medium_trace
    config = _config(cfg, kind=PredictorKind.ADABOOST)
    report = backtest(trace, config, seed=3)
    assert report.cut_model_json and report.resume_model_json
    assert report.selected_cut_threshold is not None
    assert len(report.cut_panel) > 3
    # panel train counts are consistent: higher thresholds never raise tpr
    panel = sorted(report.cut_panel, key=lambda p: p.threshold)
    tprs = []
    for p in panel:
        try:
            tprs.append(tpr_fpr(p.train)[0])
        except UndefinedRateError:
            tprs.append(None)
    clean = [t for t in tprs if t is not None]
    assert all(a >= b - 1e-12 for a, b in zip(clean, clean[1:]))


def test_backtest_adaboost_panel_row_at_selected_threshold_equals_cut(medium_trace):
    # the test-slot margin that decides each cut also fills the panel
    trace, cfg = medium_trace
    report = backtest(trace, _config(cfg, kind=PredictorKind.ADABOOST), seed=3)
    rows = [p for p in report.cut_panel
            if p.threshold == report.selected_cut_threshold]
    assert len(rows) == 1
    assert rows[0].test == report.cut
    assert report.cut.total == report.test_slots


def test_backtest_adaboost_reads_each_periods_cut_features_once(medium_trace, monkeypatch):
    # the panel's test counts come from the margins that decided each cut
    trace, cfg = medium_trace
    calls = []
    features = FoldedRuns.features

    def spy(runs, slots, at, kind):
        calls.append((kind, len(slots)))
        return features(runs, slots, at, kind)
    monkeypatch.setattr(FoldedRuns, "features", spy)
    report = backtest(trace, _config(cfg, kind=PredictorKind.ADABOOST), seed=3)
    cut_rows = [n for kind, n in calls if kind is EventKind.CUT]
    assert len(cut_rows) == 2 and cut_rows[1] == report.test_slots  # training, then test


def _poison(trace, start_index):
    poisoned = list(trace.samples[:start_index])
    for s in trace.samples[start_index:]:
        poisoned.append(MeasurementSample(
            timestamp=s.timestamp,
            active_network=ActiveNetwork.NONE,
            connected_ssid=None,
            visible_ssids=frozenset(),
            apps=(),
        ))
    return Trace(trace.phone_id, tuple(poisoned), trace.nominal_period_s)


@pytest.mark.parametrize("kind", [PredictorKind.HISTORY, PredictorKind.ADABOOST])
def test_backtest_never_reads_test_period_during_training(medium_trace, kind):
    trace, cfg = medium_trace
    config = _config(cfg, kind=kind)
    clean = backtest(trace, config, seed=11)
    poisoned_trace = _poison(trace, clean.split_index)
    poisoned = backtest(poisoned_trace, config, seed=11)
    assert clean.trained_digest == poisoned.trained_digest
    assert clean.cut_model_json == poisoned.cut_model_json
    assert clean.resume_model_json == poisoned.resume_model_json
    assert clean.selected_cut_threshold == poisoned.selected_cut_threshold


def test_backtest_report_to_dict_round_trips_json(medium_trace):
    import json

    trace, cfg = medium_trace
    report = backtest(trace, _config(cfg), seed=1)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    assert json.loads(blob)["phone_id"] == "bt-phone"


# ---------------------------------------------------------------------------
# K sweeps on oracle gaps
# ---------------------------------------------------------------------------

def test_k_sweep_rejects_bad_k(medium_trace):
    trace, cfg = medium_trace
    with pytest.raises(ParameterError):
        app_prediction_run(trace, cfg.pcachable_apps, [0])
    with pytest.raises(ParameterError):
        app_prediction_run(trace, cfg.pcachable_apps, [len(cfg.pcachable_apps) + 1])


@pytest.mark.parametrize("train_days", [-1.0, 0, float("nan"), float("inf"), 1e-9])
def test_k_sweep_rejects_bad_train_days(medium_trace, train_days):
    trace, cfg = medium_trace
    with pytest.raises(ParameterError, match="train_days"):
        app_prediction_run(trace, cfg.pcachable_apps, [1], train_days=train_days)


def test_full_k_yields_tpr_one(medium_trace):
    trace, cfg = medium_trace
    s_apps = cfg.pcachable_apps
    run = app_prediction_run(trace, s_apps, [len(s_apps)])
    counts = run.counts_by_k[len(s_apps)]
    assert counts.fn == 0
    tpr, fpr = tpr_fpr(counts)
    assert tpr == 1.0
    # every scored gap leaves some pre-cachable app unused, so fp > 0
    assert fpr == 1.0


def test_per_phone_tpr_monotone_in_k(medium_trace):
    trace, cfg = medium_trace
    s_apps = cfg.pcachable_apps
    ks = [1, 2, 4, 8, 16, len(s_apps)]
    run = app_prediction_run(trace, s_apps, ks)
    tprs = [tpr_fpr(run.counts_by_k[k])[0] for k in ks]
    assert all(a <= b + 1e-12 for a, b in zip(tprs, tprs[1:]))
    fps = [run.counts_by_k[k].fp for k in ks]
    assert all(a <= b for a, b in zip(fps, fps[1:]))


def _start(trace, n_train, s_apps, slot_minutes, utc_offset_s):
    """The normalized timeline, an empty history database and the gaps, as
    a replay starts, built without ``_Replay``."""
    profile = derive_preferred_profile(trace.rows(0, n_train), utc_offset_s=utc_offset_s)
    norm = normalize_timeline(trace, profile)
    db = HistoryDB(slot_minutes, tracked_apps=s_apps, profile=profile,
                   utc_offset_s=utc_offset_s)
    return norm, db, detect_gaps(norm)


def _first_gap_by_cut_slot(db, gaps):
    """Each cut slot's first gap, keyed by the slot."""
    by_cut_slot = {}
    for gap in gaps:
        by_cut_slot.setdefault(db.abs_slot(gap.cut_time), gap)
    return by_cut_slot


def _app_prediction_run_fold_by_fold(trace, s_apps, ks, slot_minutes, train_days,
                                     utc_offset_s):
    """The K sweep folding as it goes: before each scored gap, a fold_rows
    of the rows up to the start of its cut slot, then rank_slot_apps."""
    ks = sorted(set(ks))
    boundary = trace.start_time + int(train_days * 86400)
    norm, db, gaps = _start(trace, int(np.searchsorted(trace.t, boundary)), s_apps,
                            slot_minutes, utc_offset_s)
    gap_by_cut_slot = _first_gap_by_cut_slot(db, gaps)
    counts = {k: ConfusionCounts() for k in ks}
    scored = skipped = folded = 0
    slots, starts, _ = slot_groups(db, norm, 0, len(norm))
    for slot, start in zip(slots.tolist(), starts.tolist()):
        gap = gap_by_cut_slot.get(slot)
        if gap is None or gap.cut_time < boundary:
            continue
        used = gap_used_apps(norm, gap, s_apps)
        if not used:
            skipped += 1
            continue
        fold_rows(db, norm, folded, start)
        folded = start
        ranked = rank_slot_apps(usage_window(db, s_apps, slot, db.abs_slot(gap.resume_time)),
                                ks[-1])
        for k in ks:
            counts[k] = counts[k] + score_app_prediction(selected_apps(s_apps, ranked[:k]),
                                                         used, s_apps)
        scored += 1
    return AppPredictionRun(counts_by_k=counts, scored_gaps=scored, skipped_gaps=skipped)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**16), days=st.integers(2, 6), train_days=st.floats(2e-5, 1.9),
       slot_minutes=st.sampled_from([15, 30, 60]),
       utc_offset_s=st.sampled_from([0, 3600, -18000]), data=st.data())
def test_one_fold_k_sweep_is_the_fold_by_fold_sweep(seed, days, train_days, slot_minutes,
                                                    utc_offset_s, data):
    config = reference_config(seed=seed, days=days)
    trace = generate_trace(config, "sweep")
    s_apps = data.draw(st.permutations(config.pcachable_apps + ("ghost",)))[
        :data.draw(st.integers(1, len(config.pcachable_apps) + 1))]
    ks = data.draw(st.lists(st.integers(1, len(s_apps)), min_size=1, max_size=4))
    got = app_prediction_run(trace, s_apps, ks, slot_minutes, train_days, utc_offset_s)
    assert got == _app_prediction_run_fold_by_fold(trace, s_apps, ks, slot_minutes, train_days,
                                                   utc_offset_s)


def _stepped_trace(start, steps):
    """A trace from ``start`` that takes each ``(dt, state, records)`` step
    in turn: ``dt`` seconds on, a sample in ``state`` whose apps move the
    given (app, bytes) records."""
    samples, t = [], start
    for dt, state, records in steps:
        t += dt
        samples.append(sample(t, state, apps=[app(a, down=b) for a, b in records]))
    return Trace("table", samples)


# 700 s is past the cut spacing rule; "c" is never tracked and "ghost" never runs
_TABLE_STEPS = st.lists(st.tuples(
    st.sampled_from([60, 300, 700]), st.sampled_from([W, W, C, C, N]),
    st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([0, 0, 7])),
             max_size=3, unique_by=lambda r: r[0])), min_size=1, max_size=60)
# two gaps in one cut slot, untracked and zero-byte records, a gap left open
# by an off-network sample and one by the trace's end, before the epoch
_TABLE_EXAMPLE = _stepped_trace(-18000, [
    (60, W, []), (60, C, [("a", 7), ("c", 7)]), (60, W, []), (60, C, [("b", 0)]),
    (60, C, [("b", 7), ("c", 0)]), (60, W, []), (300, C, [("a", 7)]), (300, N, [("b", 7)]),
    (300, W, []), (300, C, [("c", 7)]), (300, C, [("a", 0)])])


@settings(deadline=None, max_examples=80)
@given(steps=_TABLE_STEPS, start=st.integers(-10**7, 10**7), data=st.data(),
       slot_minutes=st.sampled_from([15, 60]), utc_offset_s=st.sampled_from([-18000, 0, 19800]))
@example(steps=None, start=None, data=None, slot_minutes=15, utc_offset_s=-18000)
def test_the_gap_table_is_the_per_gap_reference(steps, start, data, slot_minutes,
                                                utc_offset_s):
    """Each row of the replay's gap table is its gap as detect_gaps finds it,
    ``first`` marks each cut slot's first gap, and ``used`` holds the
    tracked apps that moved bytes in each closed gap."""
    if steps is None:
        trace, n_train, s_apps = _TABLE_EXAMPLE, len(_TABLE_EXAMPLE), ("a", "b", "ghost")
    else:
        trace = _stepped_trace(start, steps)
        n_train = data.draw(st.integers(1, len(trace)))
        s_apps = data.draw(st.permutations(("a", "b", "ghost")))[:data.draw(st.integers(1, 3))]
    replay = _Replay.start(trace, n_train, s_apps, slot_minutes, utc_offset_s)
    norm, db, gaps = _start(trace, n_train, s_apps, slot_minutes, utc_offset_s)
    assert replay.norm == norm
    firsts = _first_gap_by_cut_slot(db, gaps)
    assert replay.cut_time.tolist() == [g.cut_time for g in gaps]
    assert replay.cut_slot.tolist() == [db.abs_slot(g.cut_time) for g in gaps]
    assert replay.first.tolist() == [firsts[db.abs_slot(g.cut_time)] is g for g in gaps]
    assert replay.closed.tolist() == [not g.open for g in gaps]
    assert replay.resume_slot[replay.closed].tolist() == [
        db.abs_slot(g.resume_time) for g in gaps if not g.open]
    assert replay.used.shape == (len(gaps), len(s_apps))
    assert [{a for a, moved in zip(s_apps, row) if moved} for row in replay.used.tolist()] == [
        gap_used_apps(norm, g, s_apps) for g in gaps]


def test_k_sweep_macro_averages_over_phones():
    cfg = dataclasses.replace(reference_config(seed=31), days=16)
    traces = [generate_trace(cfg, f"kp{i}") for i in range(3)]
    points = k_sweep(traces, cfg.pcachable_apps, ks=(1, 5, 10))
    assert [p.k for p in points] == [1, 5, 10]
    assert all(p.phones == 3 for p in points)
    tprs = [p.point.tpr for p in points]
    assert tprs == sorted(tprs)
    for p in points:
        assert p.quality_gap == pytest.approx(quality_gap(p.point.tpr, p.point.fpr))


def test_k_sweep_empty_corpus():
    with pytest.raises(DataError):
        k_sweep([], ["a"], ks=(1,))


def test_macro_average_over_reports(medium_trace):
    trace, cfg = medium_trace
    r = backtest(trace, _config(cfg), seed=2)
    pt = macro_average([r, r], "cut")
    t, f = r.rates("cut")
    assert pt.tpr == pytest.approx(t)
    assert pt.fpr == pytest.approx(f)


def test_a_sweep_with_no_scored_gap_counts_nothing_at_every_k():
    trace = trace_from_states([W] * (3 * 288), bytes_per_sample=10)
    run = app_prediction_run(trace, ["a", "b"], [1, 2], train_days=1.0)
    assert run == AppPredictionRun({1: ConfusionCounts(), 2: ConfusionCounts()}, 0, 0)


# seed 1, 240 days, phone-000 at k=7: the verdicts of both predictors and the
# 12-K sweep on a trace four times longer than the corpus the CLI digests pin,
# so an edit that moves verdicts only on long traces shows
_LONG_TRACE_COUNTS = {
    "history": {"cut": (308, 6021, 56, 15982), "resume": (280, 9041, 85, 12961),
                "apps": (707, 947, 1024, 3914)},
    "adaboost": {"cut": (169, 1354, 16, 9980), "resume": (178, 4220, 8, 7113),
                 "apps": (407, 491, 593, 2221)},
}
_LONG_TRACE_GAPS = {  # scored, skipped, true test, predicted cut slots, resume evaluated, within one
    "history": (206, 102, 365, 6329, 308, 194),
    "adaboost": (116, 53, 186, 1523, 169, 109),
}
_GAP_COUNTERS = ("scored_gaps", "skipped_gaps", "true_test_gaps", "predicted_cut_slots",
                 "resume_evaluated", "resume_within_one")
_LONG_TRACE_SWEEP = {
    1: (295, 180, 1822, 5703), 2: (548, 409, 1569, 5474), 3: (724, 675, 1393, 5208),
    4: (854, 924, 1263, 4959), 5: (973, 1167, 1144, 4716), 6: (1184, 1518, 933, 4365),
    7: (1365, 1862, 752, 4021), 10: (1634, 2655, 483, 3228), 15: (1867, 3689, 250, 2194),
    20: (2009, 4486, 108, 1397), 25: (2074, 5107, 43, 776), 30: (2105, 5694, 12, 189),
}


@pytest.fixture(scope="module")
def phone_240_days():
    config = reference_config(seed=1, days=240)
    return generate_trace(config, "phone-000"), config.pcachable_apps


def test_long_trace_verdicts_are_pinned(phone_240_days):
    trace, s_apps = phone_240_days
    for kind in PredictorKind:
        report = backtest(trace, PCachConfig(k=7, s_apps=s_apps, predictor_kind=kind))
        for which, counts in _LONG_TRACE_COUNTS[kind.value].items():
            assert getattr(report, which) == ConfusionCounts(*counts), (kind, which)
        assert tuple(getattr(report, c) for c in _GAP_COUNTERS) == _LONG_TRACE_GAPS[kind.value]
    run = app_prediction_run(trace, s_apps, PAPER_K_SET)
    assert run.counts_by_k == {k: ConfusionCounts(*c) for k, c in _LONG_TRACE_SWEEP.items()}
    assert (run.scored_gaps, run.skipped_gaps) == (250, 114)


# tracemalloc peak per trace row on the 240-day phone (69,120 rows): 142.7
# (history backtest), 186.1 (AdaBoost backtest) and 81.7 (12-K sweep) bytes
# both with a 48-point training panel and with every distinct-margin midpoint;
# 199, 198 and 93 on the 60-day phone, where fixed costs weigh more
_REPLAY_PEAK_BYTES_PER_ROW = {"history": 180, "adaboost": 240, "sweep": 110}


def test_long_trace_replays_hold_a_bounded_number_of_bytes_per_row(phone_240_days):
    trace, s_apps = phone_240_days
    replays = {kind.value: lambda kind=kind: backtest(
        trace, PCachConfig(k=7, s_apps=s_apps, predictor_kind=kind)) for kind in PredictorKind}
    replays["sweep"] = lambda: app_prediction_run(trace, s_apps, PAPER_K_SET)
    for name, replay in replays.items():
        tracemalloc.start()
        try:
            replay()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _REPLAY_PEAK_BYTES_PER_ROW[name] * len(trace), (name, peak / len(trace))
