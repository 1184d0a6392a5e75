import copy
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcach.boosting import AdaBoostModel, Stump
from pcach.errors import ConfigError
from pcach.evaluation import backtest
from pcach.history import HistoryDB, update_history
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

from helpers import W, app, sample, seeded_rng


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

    def predict_cut(self, db, target, now, rng):
        return self.cut, 0.0

    def resume_fires(self, db, slot, now, rng):
        return False

    def predict_resume(self, db, current_slot, now, rng):
        return self.resume_slot


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
    assert pred.predict_resume(db, 10, 10 * 900, seeded_rng(0)) == 14
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
    assert pred.predict_resume(db, 5, 0, seeded_rng(0)) == 8


# ---------------------------------------------------------------------------
# the decision engine
# ---------------------------------------------------------------------------

class RecordingPredictor:
    """Stub that logs every protocol call in order."""

    def __init__(self, cut):
        self.cut = cut
        self.calls = []

    def predict_cut(self, db, target, now, rng):
        self.calls.append(("predict_cut", target))
        return self.cut, 0.5

    def resume_fires(self, db, slot, now, rng):
        self.calls.append(("resume_fires", slot))
        return True

    def predict_resume(self, db, current_slot, now, rng):
        self.calls.append(("predict_resume", current_slot))
        return current_slot + 2


def test_decide_calls_cut_then_target_resume_then_scan():
    db = _db()
    db.app_hist["c"][11] = 3
    pred = RecordingPredictor(cut=True)
    d = decide(db, _config(k=1), pred, 10, 10 * 900, seeded_rng(0))
    assert pred.calls == [("predict_cut", 11), ("resume_fires", 11),
                          ("predict_resume", 10)]
    assert d == StepDecision(target_slot=11, cut=True, cut_score=0.5,
                             resume_next=True, resume_slot=12, apps=("c", "a"))


def test_decide_scans_for_resume_only_on_a_cut():
    pred = RecordingPredictor(cut=False)
    d = decide(_db(), _config(), pred, 10, 10 * 900, seeded_rng(0))
    assert pred.calls == [("predict_cut", 11), ("resume_fires", 11)]
    assert d == StepDecision(target_slot=11, cut=False, cut_score=0.5,
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
    out = []
    for slot, samples in groups:
        update_history(db, samples)
        out.append(decide(db, config, predictor, slot, db.last_timestamp, rng))
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
