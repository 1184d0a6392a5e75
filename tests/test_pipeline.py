import copy
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcach.pipeline as pipeline
from pcach.boosting import AdaBoostModel, Stump
from pcach.errors import ConfigError
from pcach.evaluation import backtest
from pcach.history import (
    EventKind,
    HistoryDB,
    fold_rows,
    fold_runs,
    history_predict_event,
    history_rule,
    newest_run,
    predict_resume_slot,
    slot_groups,
    update_history,
)
from pcach.pipeline import (
    AdaBoostPredictor,
    HistoryPredictor,
    PCachConfig,
    PredictorKind,
    StepDecision,
    decide,
    make_predictor,
    pcach_step,
)
from pcach.synth import generate_trace, reference_config
from pcach.trace import (
    PreferredNetworkProfile,
    Trace,
    derive_preferred_profile,
    normalize_timeline,
)

from helpers import W, app, sample, seeded_rng, slot_probability


def _profile():
    return PreferredNetworkProfile(
        frozenset({"home"}), ("home",), "home", "home")


def _db(apps=("a", "b", "c")):
    return HistoryDB(slot_minutes=15, tracked_apps=apps, profile=_profile())


def _config(**kw):
    defaults = dict(k=2, s_apps=("a", "b", "c"), n_draws=200)
    defaults.update(kw)
    return PCachConfig(**defaults)


class ForcedPredictor:
    def __init__(self, cut, resume_slot):
        self.cut = cut
        self.resume_slot = resume_slot

    def predict(self, runs, rng):
        n = len(runs)
        return (np.full(n, self.cut), np.zeros(n), np.zeros(n, dtype=bool),
                np.full(n, self.resume_slot))


def test_config_validation():
    with pytest.raises(ConfigError):
        PCachConfig(k=0, s_apps=("a",))
    with pytest.raises(ConfigError):
        PCachConfig(k=3, s_apps=("a", "b"))
    with pytest.raises(ConfigError):
        PCachConfig(k=1, s_apps=())
    with pytest.raises(ConfigError):
        PCachConfig(k=1, s_apps=("a", "a"))


def test_no_cut_returns_empty_list_for_every_input():
    rng = seeded_rng(0)
    for slot in (0, 10, 95, 200):
        db = _db()
        out = pcach_step(db, _config(), slot, [sample(slot * 900, W)],
                         rng=rng, predictor=ForcedPredictor(False, slot + 2))
        assert out == []


def test_cut_with_single_slot_gap_returns_top_k_of_next_slot():
    db = _db()
    db.app_hist["b"][11] = 9
    db.app_hist["a"][11] = 4
    db.app_hist["c"][11] = 1
    out = pcach_step(db, _config(k=2), 10, [sample(10 * 900, W)],
                     rng=seeded_rng(0), predictor=ForcedPredictor(True, 11))
    assert out == ["b", "a"]


def test_cut_with_three_slot_gap_unions_selections():
    db = _db()
    db.app_hist["a"][11] = 5
    db.app_hist["b"][12] = 5
    db.app_hist["c"][13] = 5
    out = pcach_step(db, _config(k=1), 10, [sample(10 * 900, W)],
                     rng=seeded_rng(0), predictor=ForcedPredictor(True, 13))
    assert out == ["a", "b", "c"]


def test_step_updates_history_before_predicting():
    db = _db()
    ts = 39 * 900 + 100
    pcach_step(db, _config(), 39, [sample(ts, W, apps=(app("a"),))],
               rng=seeded_rng(0), predictor=ForcedPredictor(False, 0))
    assert db.app_hist["a"][39] == 1


def test_resume_slot_clamped_to_target():
    db = _db()
    out = pcach_step(db, _config(k=1), 10, [sample(10 * 900, W)],
                     rng=seeded_rng(0), predictor=ForcedPredictor(True, 3))
    assert len(out) == 1


def test_make_predictor_kinds():
    assert isinstance(make_predictor(_config()), HistoryPredictor)
    with pytest.raises(ConfigError):
        make_predictor(_config(predictor_kind=PredictorKind.ADABOOST))
    stump = Stump(feature_index=9, threshold=0.5, polarity=1, alpha=1.0)
    model = AdaBoostModel(stumps=(stump,), rounds=1)
    cfg = _config(predictor_kind=PredictorKind.ADABOOST,
                  cut_model=model, resume_model=model)
    assert isinstance(make_predictor(cfg), AdaBoostPredictor)


def test_history_predictor_uses_slot_probabilities():
    db = _db()
    db.slot_observations[:] = 10
    db.cut_hist[11] = 10          # certain cut at slot 11
    pred = HistoryPredictor(_config(n_draws=100, delta=0.1))
    rng = seeded_rng(1)
    update = [sample(10 * 900, W)]
    out = pcach_step(db, _config(k=1), 10, update, rng=rng, predictor=pred)
    assert out  # cut probability 1 always fires


def test_adaboost_predictor_scans_for_resume():
    db = _db()
    from pcach.history import update_history
    update_history(db, [sample(10 * 900, W, ssid="home", visible={"home"})])
    # cut model always fires; resume model fires only above slot prob 0.5
    always = AdaBoostModel(stumps=(Stump(4, -1.0, 1, 1.0),), rounds=1)
    resume = AdaBoostModel(stumps=(Stump(9, 0.5, 1, 1.0),), rounds=1)
    db.slot_observations[:] = 10
    db.resume_hist[14] = 8        # probability 0.8 at slot 14
    pred = AdaBoostPredictor(_config(cut_model=always, resume_model=resume))
    cut, _, _, resume_slot = pred.predict(newest_run(db, 10), seeded_rng(0))
    assert cut[0] and resume_slot[0] == 14
    out = pcach_step(db, _config(k=1), 10,
                     [sample(10 * 900 + 300, W, ssid="home", visible={"home"})],
                     rng=seeded_rng(0), predictor=pred)
    assert len(out) >= 1


def test_adaboost_predictor_resume_fallback():
    db = _db()
    from pcach.history import update_history
    update_history(db, [sample(0, W, ssid="home", visible={"home"})])
    always = AdaBoostModel(stumps=(Stump(4, -1.0, 1, 1.0),), rounds=1)
    never = AdaBoostModel(stumps=(Stump(4, 1e9, 1, 1.0),), rounds=1)
    pred = AdaBoostPredictor(_config(cut_model=always, resume_model=never,
                                     max_lookahead_slots=10, default_gap_slots=2))
    cut, _, _, resume_slot = pred.predict(newest_run(db, 5), seeded_rng(0))
    assert cut[0] and resume_slot[0] == 8


def test_predictors_without_lookahead_take_the_fallback():
    db = _db()
    update_history(db, [sample(0, W, ssid="home", visible={"home"})])
    db.slot_observations[:] = 10
    db.cut_hist[:] = db.resume_hist[:] = 10
    always = AdaBoostModel(stumps=(Stump(4, -1.0, 1, 1.0),), rounds=1)
    config = _config(cut_model=always, resume_model=always, max_lookahead_slots=0,
                     default_gap_slots=2)
    for predictor in (AdaBoostPredictor(config), HistoryPredictor(config)):
        cut, _, _, resume_slot = predictor.predict(newest_run(db, 5), seeded_rng(0))
        assert cut[0] and resume_slot[0] == 8


# ---------------------------------------------------------------------------
# the decision engine
# ---------------------------------------------------------------------------

class RecordingPredictor:
    """Stub that logs the slots of every batch it is asked about."""

    def __init__(self, cut):
        self.cut = cut
        self.calls = []

    def predict(self, runs, rng):
        self.calls.append(runs.slots.tolist())
        n = len(runs)
        return np.full(n, self.cut), np.full(n, 0.5), np.ones(n, dtype=bool), runs.slots + 2


def test_decide_asks_the_predictor_once_per_batch():
    db = _db()
    db.app_hist["c"][11] = 3
    pred = RecordingPredictor(cut=True)
    d = decide(newest_run(db, 10), _config(k=1), pred, seeded_rng(0))
    assert pred.calls == [[10]]
    assert d[0] == StepDecision(target_slot=11, cut=True, cut_score=0.5,
                                resume_next=True, resume_slot=12, apps=("c", "a"))


def test_decide_reads_no_resume_slot_and_ranks_no_apps_without_a_cut():
    pred = RecordingPredictor(cut=False)
    runs = newest_run(_db(), 10)
    runs.usage = lambda *args: pytest.fail("a usage window was read without a cut")
    d = decide(runs, _config(), pred, seeded_rng(0))
    assert pred.calls == [[10]]
    assert d[0] == StepDecision(target_slot=11, cut=False, cut_score=0.5,
                                resume_next=True, resume_slot=None, apps=())


@functools.lru_cache(maxsize=None)
def _phone(days=10, seed=4):
    cfg = reference_config(seed=seed, days=days)
    return generate_trace(cfg, "engine-phone"), cfg.pcachable_apps


@functools.lru_cache(maxsize=None)
def _trained_models():
    """Cut and resume models from one AdaBoost backtest of the engine phone."""
    trace, s_apps = _phone()
    report = backtest(trace, PCachConfig(k=5, s_apps=s_apps,
                                         predictor_kind=PredictorKind.ADABOOST))
    return (AdaBoostModel.from_json(report.cut_model_json),
            AdaBoostModel.from_json(report.resume_model_json))


def _replay(train_days=6, kind=PredictorKind.HISTORY):
    """A warmed history DB, a config and the test period's slot groups."""
    trace, s_apps = _phone()
    config = PCachConfig(k=5, s_apps=s_apps, predictor_kind=kind)
    if kind is PredictorKind.ADABOOST:
        cut_model, resume_model = _trained_models()
        config = dataclasses.replace(config, cut_model=cut_model, resume_model=resume_model)
    boundary = trace.start_time + train_days * 86400
    train = [s for s in trace.samples if s.timestamp < boundary]
    profile = derive_preferred_profile(Trace(trace.phone_id, tuple(train)))
    norm = normalize_timeline(trace, profile)
    db = HistoryDB(config.slot_minutes, tracked_apps=s_apps, profile=profile)
    update_history(db, norm.samples[:len(train)])
    slot_s = config.slot_minutes * 60
    groups = [(slot, list(g)) for slot, g in itertools.groupby(
        norm.samples[len(train):], key=lambda s: s.timestamp // slot_s)]
    return db, config, groups


def _decisions(db, config, predictor, groups, rng):
    """One decision per slot group, each folded and decided on its own."""
    out = []
    for slot, samples in groups:
        update_history(db, samples)
        out.append(decide(newest_run(db, slot), config, predictor, rng)[0])
    return out


def test_pcach_step_returns_the_apps_of_decide():
    db_step, config, groups = _replay()
    db_decide = HistoryDB.from_json(db_step.to_json())
    predictor = make_predictor(config)
    rng_step, rng_decide = seeded_rng(9), seeded_rng(9)
    cuts = 0
    for slot, samples in groups:
        out = pcach_step(db_step, config, slot, samples, rng_step, predictor)
        d = _decisions(db_decide, config, predictor, [(slot, samples)], rng_decide)[0]
        assert out == list(d.apps)
        cuts += d.cut
    assert cuts > 0


@settings(deadline=None, max_examples=15)
@given(kind=st.sampled_from(PredictorKind), first=st.integers(0, 95),
       every=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(kind=PredictorKind.HISTORY, first=3, every=7, seed=1)
@example(kind=PredictorKind.ADABOOST, first=3, every=7, seed=1)
def test_snapshot_restored_mid_stream_gives_identical_decisions(kind, first, every, seed):
    db, config, groups = _replay(kind=kind)
    predictor = make_predictor(config)
    straight = _decisions(HistoryDB.from_json(db.to_json()), config, predictor,
                          groups, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    restored, done = [], 0
    for split in [*range(first, len(groups), every), len(groups)]:
        restored += _decisions(db, config, predictor, groups[done:split], rng)
        db, rng, done = HistoryDB.from_json(db.to_json()), copy.deepcopy(rng), split
    assert restored == straight


@pytest.mark.parametrize("kind", list(PredictorKind), ids=lambda k: k.value)
def test_one_batch_decides_as_one_slot_at_a_time(kind, monkeypatch):
    db, config, groups = _replay(kind=kind)
    predictor = make_predictor(config)
    one_at_a_time = _decisions(HistoryDB.from_json(db.to_json()), config, predictor, groups,
                               seeded_rng(5))
    test_rows = Trace("test", [s for _, samples in groups for s in samples])
    assert len(one_at_a_time) == len(groups)
    assert sum(d.cut for d in one_at_a_time) > 0
    # the batch's scans and usage windows in one block, then in blocks of
    # a few rows (windows longer than a block are read alone)
    for scan_rows in (pipeline._SCAN_ROWS, 3):
        monkeypatch.setattr(pipeline, "_SCAN_ROWS", scan_rows)
        runs = fold_runs(HistoryDB.from_json(db.to_json()), test_rows)
        batch = decide(runs, config, predictor, seeded_rng(5))
        assert len(batch) == len(one_at_a_time)
        for got, want in zip(batch, one_at_a_time):
            # a batched margin may differ from a one-row margin in its last bits
            assert got.cut_score == pytest.approx(want.cut_score, rel=1e-12, abs=1e-12)
            assert dataclasses.replace(got, cut_score=want.cut_score) == want


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**16), days=st.integers(2, 4), slot_minutes=st.sampled_from([15, 60]),
       split=st.floats(0.05, 0.95), n_draws=st.sampled_from([5, 10, 10000]),
       max_lookahead=st.sampled_from([0, 5, 96, 300]), rng_seed=st.integers(0, 2**32 - 1))
@example(seed=4, days=14, slot_minutes=15, split=0.5, n_draws=10, max_lookahead=300, rng_seed=6)
@example(seed=5, days=14, slot_minutes=60, split=0.3, n_draws=5, max_lookahead=96, rng_seed=7)
def test_history_rule_draws_cut_then_target_resume_then_scan(seed, days, slot_minutes, split,
                                                             n_draws, max_lookahead, rng_seed):
    """The batched rule draws as per-slot calls on a database folded up to
    each slot would: per slot the cut rule, the resume rule for the target
    slot, then on a cut the scan."""
    config = reference_config(seed=seed, days=days)
    trace = generate_trace(config, "rule")
    lo = int(len(trace) * split)
    db = HistoryDB(slot_minutes, tracked_apps=config.pcachable_apps)
    ref = HistoryDB(slot_minutes, tracked_apps=config.pcachable_apps)
    fold_rows(db, trace, 0, lo)
    fold_rows(ref, trace, 0, lo)
    slots, starts, stops = slot_groups(db, trace, lo, len(trace))
    runs = fold_runs(db, trace, lo)
    delta, gap = 0.25, 2
    batch_rng, rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    cut, p_cut, resume_next, resume_slot = history_rule(runs, n_draws, delta, max_lookahead, gap,
                                                        batch_rng)
    for j, (slot, start, stop) in enumerate(zip(slots.tolist(), starts.tolist(), stops.tolist())):
        fold_rows(ref, trace, start, stop)
        p = slot_probability(ref, slot + 1, EventKind.CUT)
        assert p_cut[j] == p
        assert cut[j] == history_predict_event(p, n_draws, delta, rng)
        assert resume_next[j] == history_predict_event(
            slot_probability(ref, slot + 1, EventKind.RESUME), n_draws, delta, rng)
        if cut[j]:
            assert resume_slot[j] == predict_resume_slot(ref, slot, max_lookahead, n_draws,
                                                         delta, rng, gap)
    assert batch_rng.bit_generator.state == rng.bit_generator.state
    assert ref.to_json() == db.to_json()
