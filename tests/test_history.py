import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcach.errors import (
    ConfigError,
    FeatureError,
    ModelError,
    OrderingError,
    ParameterError,
)
from pcach.history import (
    EventKind,
    FeatureVector,
    HistoryDB,
    app_ran,
    extract_features,
    history_predict_event,
    predict_resume_slot,
    predict_top_k_apps,
    rank_slot_apps,
    selected_apps,
    update_history,
)
from pcach.synth import generate_trace, reference_config
from pcach.trace import PreferredNetworkProfile, derive_preferred_profile

from helpers import C, W, app, sample, seeded_rng

import dataclasses


def make_db(slot_minutes=15, apps=("facebook", "mail"), profile=None, utc_offset_s=0):
    return HistoryDB(slot_minutes=slot_minutes, tracked_apps=apps,
                     profile=profile, utc_offset_s=utc_offset_s)


# ---------------------------------------------------------------------------
# update_history
# ---------------------------------------------------------------------------

def test_update_with_no_samples_is_identity():
    db = make_db()
    before = db.to_json()
    update_history(db, [])
    assert db.to_json() == before


def test_app_usage_credited_to_the_sample_slot():
    db = make_db()
    # slot 39 covers 09:45-10:00 local; the next algorithm step runs at
    # slot 40 and credits the completed slot
    ts = 39 * 900 + 300
    update_history(db, [sample(ts, W, apps=(app("facebook"),))])
    assert db.app_hist["facebook"][39] == 1
    assert db.app_hist["facebook"].sum() == 1
    assert db.app_hist["mail"].sum() == 0
    assert db.slot_observations[39] == 1


def test_app_counted_once_per_slot_and_event_dedup():
    db = make_db()
    samples = [
        sample(0, W, apps=(app("facebook"),)),
        sample(300, W, apps=(app("facebook"),)),
        sample(600, C, apps=(app("facebook", running=False, down=10),)),
    ]
    update_history(db, samples)
    assert db.app_hist["facebook"][0] == 1      # one (day, slot) pair
    assert db.cut_hist[0] == 1                  # WIFI -> CELLULAR at t=600
    assert db.slot_observations[0] == 1


def test_running_or_traffic_counts_as_ran():
    assert app_ran(app("x", running=True))
    assert app_ran(app("x", running=False, down=1))
    assert not app_ran(app("x", running=False))


def test_out_of_order_samples_rejected():
    db = make_db()
    update_history(db, [sample(600, W)])
    with pytest.raises(OrderingError):
        update_history(db, [sample(600, W)])
    with pytest.raises(OrderingError):
        update_history(db, [sample(300, W)])


def test_out_of_order_batch_leaves_the_db_unchanged():
    db = make_db()
    update_history(db, [sample(0, W, apps=[app("mail")])])
    before = db.to_json()
    batch = [sample(300, C, apps=[app("facebook")]),
             sample(1200, W, apps=[app("mail")]),
             sample(900, C)]
    with pytest.raises(OrderingError):
        update_history(db, batch)
    assert db.to_json() == before
    with pytest.raises(OrderingError):
        update_history(db, iter([sample(300, C), sample(0, C)]))
    assert db.to_json() == before


def test_cut_and_resume_histograms_track_transitions():
    db = make_db(slot_minutes=15)
    update_history(db, [
        sample(0, W),
        sample(300, C),          # cut in slot 0
        sample(1200, W),         # resume in slot 1
    ])
    assert db.cut_hist[0] == 1
    assert db.resume_hist[1] == 1
    assert db.event_probability(0, EventKind.CUT) == 1.0
    assert db.event_probability(1, EventKind.RESUME) == 1.0
    assert db.event_probability(5, EventKind.CUT) == 0.0


def test_ten_minute_rule_respected_in_history():
    db = make_db()
    update_history(db, [sample(0, W), sample(3600, C)])
    assert db.cut_hist.sum() == 0


def test_replay_matches_batch_counting_oracle():
    cfg = dataclasses.replace(reference_config(seed=21), days=12)
    trace = generate_trace(cfg, "px")
    tracked = tuple(cfg.pcachable_apps)
    db = HistoryDB(slot_minutes=15, tracked_apps=tracked)
    # replay in irregular chunks to exercise batch boundaries
    rng = seeded_rng(4)
    i = 0
    while i < len(trace.samples):
        step = int(rng.integers(1, 7))
        update_history(db, trace.samples[i:i + step])
        i += step

    # one-shot batch count over (day, slot) pairs
    n_slots = db.n_slots
    app_counts = {a: np.zeros(n_slots, dtype=int) for a in tracked}
    obs = np.zeros(n_slots, dtype=int)
    cuts = np.zeros(n_slots, dtype=int)
    resumes = np.zeros(n_slots, dtype=int)
    seen_keys = {}
    for idx, s in enumerate(trace.samples):
        key = s.timestamp // 900
        slot = key % n_slots
        if key not in seen_keys:
            seen_keys[key] = {"apps": set(), "cut": False, "resume": False}
            obs[slot] += 1
        state = seen_keys[key]
        for rec in s.apps:
            if rec.app_id in app_counts and rec.app_id not in state["apps"] and app_ran(rec):
                app_counts[rec.app_id][slot] += 1
                state["apps"].add(rec.app_id)
        if idx > 0:
            prev = trace.samples[idx - 1]
            from pcach.trace import is_cut_transition, is_resume_transition
            if is_cut_transition(prev, s) and not state["cut"]:
                cuts[slot] += 1
                state["cut"] = True
            if is_resume_transition(prev, s) and not state["resume"]:
                resumes[slot] += 1
                state["resume"] = True

    assert np.array_equal(db.slot_observations, obs)
    assert np.array_equal(db.cut_hist, cuts)
    assert np.array_equal(db.resume_hist, resumes)
    for a in tracked:
        assert np.array_equal(db.app_hist[a], app_counts[a])
    # invariant from the data model
    assert (db.cut_hist <= db.slot_observations).all()


def test_history_db_json_round_trip():
    db = make_db(profile=PreferredNetworkProfile(
        frozenset({"home"}), ("home",), "home", "home"))
    update_history(db, [sample(0, W), sample(300, C), sample(600, W)])
    clone = HistoryDB.from_json(db.to_json())
    assert clone.to_json() == db.to_json()
    # the clone keeps accepting updates consistently
    update_history(db, [sample(900, C)])
    update_history(clone, [sample(900, C)])
    assert clone.to_json() == db.to_json()


def _snapshot():
    db = make_db(profile=PreferredNetworkProfile(
        frozenset({"home"}), ("home",), "home", "home"))
    update_history(db, [sample(0, W, apps=(app("mail"),)), sample(300, C), sample(600, W)])
    return json.loads(db.to_json())


def _edited(**edits):
    d = _snapshot()
    for key, value in edits.items():
        if key.startswith("app_hist_"):
            d["app_hist"][key.removeprefix("app_hist_")] = value
        else:
            d[key] = value
    return json.dumps(d)


@pytest.mark.parametrize("edits, named", [
    ({"app_hist_spotify": [0] * 96}, "'app_hist'"),
    ({"app_hist": {"mail": [0] * 96}}, "'app_hist'"),
    ({"app_hist_mail": [0, 1]}, "app_hist['mail']"),
    ({"cut_hist": [1]}, "'cut_hist'"),
    ({"resume_hist": [0] * 97}, "'resume_hist'"),
    ({"slot_observations": [0] * 95 + [-1]}, "'slot_observations'"),
    ({"cut_hist": [0] * 95 + [1.5]}, "'cut_hist'"),
    ({"app_hist_facebook": [0] * 95 + [True]}, "app_hist['facebook']"),
    ({"cut_hist": "0" * 96}, "'cut_hist'"),
    ({"latest": {"t": 5, "active": "WIFI"}}, "'latest'"),
], ids=["untracked-app", "missing-app", "short-app-row", "short-cut-hist",
        "long-resume-hist", "negative-count", "float-count", "bool-count",
        "string-hist", "wifi-without-ssid"])
def test_history_snapshot_errors_name_the_key(edits, named):
    with pytest.raises(ModelError) as exc:
        HistoryDB.from_json(_edited(**edits))
    assert named in str(exc.value)


def test_history_snapshot_missing_key_is_a_model_error():
    d = _snapshot()
    del d["slot_observations"]
    with pytest.raises(ModelError) as exc:
        HistoryDB.from_json(json.dumps(d))
    assert "'slot_observations'" in str(exc.value)


# ---------------------------------------------------------------------------
# top-K selection
# ---------------------------------------------------------------------------

def _db_with_counts(counts_by_slot):
    """counts_by_slot: {slot: {app: count}}"""
    apps = sorted({a for d in counts_by_slot.values() for a in d})
    db = HistoryDB(slot_minutes=15, tracked_apps=apps)
    for slot, d in counts_by_slot.items():
        for a, c in d.items():
            db.app_hist[a][slot] = c
    return db


def test_top_k_single_slot_ranking():
    db = _db_with_counts({5: {"a": 5, "b": 3, "c": 1}})
    assert predict_top_k_apps(db, ["a", "b", "c"], 2, 5, 5) == ["a", "b"]


def test_top_k_union_over_disjoint_slots():
    db = _db_with_counts({1: {"a": 9}, 2: {"b": 9}})
    assert predict_top_k_apps(db, ["a", "b"], 1, 1, 2) == ["a", "b"]


def test_top_k_all_zero_histogram_falls_back_to_s_apps_order():
    db = _db_with_counts({0: {"a": 0, "b": 0, "c": 0}})
    assert predict_top_k_apps(db, ["c", "a", "b"], 2, 0, 0) == ["c", "a"]


def test_top_k_wraps_past_midnight():
    db = _db_with_counts({95: {"a": 5}, 0: {"b": 5}})
    out = predict_top_k_apps(db, ["a", "b"], 1, 95, 96)  # slots 95 and 0
    assert out == ["a", "b"]


def test_top_k_selection_nested_in_k():
    rng = seeded_rng(6)
    apps = [f"app{i}" for i in range(8)]
    db = HistoryDB(slot_minutes=60, tracked_apps=apps)
    for a in apps:
        db.app_hist[a][:] = rng.integers(0, 50, size=db.n_slots)
    for slot in range(0, 24, 5):
        prev: set = set()
        for k in range(1, len(apps) + 1):
            cur = set(predict_top_k_apps(db, apps, k, slot, slot))
            assert len(cur) == k
            assert prev <= cur
            prev = cur


def _top_k_reference(db, s_apps, k, first_slot, last_slot):
    """Per-slot sort by (-count, position in s_apps); union in first-selection order."""
    chosen = []
    for slot in range(first_slot, last_slot + 1):
        s = slot % db.n_slots

        def count(i):
            return int(db.app_hist[s_apps[i]][s]) if s_apps[i] in db.app_hist else 0

        for i in sorted(range(len(s_apps)), key=lambda i: (-count(i), i))[:k]:
            if s_apps[i] not in chosen:
                chosen.append(s_apps[i])
    return chosen


@st.composite
def _top_k_cases(draw):
    universe = [f"app{i}" for i in range(7)]
    db = HistoryDB(slot_minutes=draw(st.sampled_from([15, 60, 360])),
                   tracked_apps=draw(st.lists(st.sampled_from(universe), unique=True)))
    for a in db.tracked_apps:
        db.app_hist[a][:] = draw(st.lists(st.integers(0, 3), min_size=db.n_slots,
                                          max_size=db.n_slots))
    # s_apps may hold untracked apps and leave tracked ones out
    s_apps = draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
    first = draw(st.integers(0, 3 * db.n_slots))
    # ranges wrap past midnight and may span more than a day
    last = first + draw(st.integers(0, 2 * db.n_slots + 1))
    return db, s_apps, first, last


@settings(deadline=None)
@given(_top_k_cases())
def test_top_k_matches_brute_force_reference(case):
    db, s_apps, first, last = case
    for k in range(1, len(s_apps) + 1):
        assert (predict_top_k_apps(db, s_apps, k, first, last)
                == _top_k_reference(db, s_apps, k, first, last))


@settings(deadline=None)
@given(_top_k_cases())
def test_one_ranking_at_the_largest_k_serves_every_k(case):
    db, s_apps, first, last = case
    ranked = rank_slot_apps(db, s_apps, len(s_apps), first, last)
    for k in range(1, len(s_apps) + 1):
        assert selected_apps(s_apps, ranked[:k]) == predict_top_k_apps(db, s_apps, k, first, last)


def test_top_k_parameter_errors():
    db = _db_with_counts({0: {"a": 1}})
    with pytest.raises(ConfigError):
        predict_top_k_apps(db, [], 1, 0, 0)
    with pytest.raises(ParameterError):
        predict_top_k_apps(db, ["a"], 2, 0, 0)
    with pytest.raises(ParameterError):
        predict_top_k_apps(db, ["a"], 1, 3, 2)


# ---------------------------------------------------------------------------
# history event rule
# ---------------------------------------------------------------------------

def test_event_rule_degenerate_probabilities():
    for seed in range(200):
        rng = seeded_rng(seed)
        assert history_predict_event(0.0, 1000, 0.1, rng) is False
        assert history_predict_event(1.0, 1000, 0.1, rng) is True


def test_event_rule_parameter_validation():
    rng = seeded_rng(0)
    for bad in (-0.1, 1.1):
        with pytest.raises(ParameterError):
            history_predict_event(bad, 100, 0.1, rng)
    with pytest.raises(ParameterError):
        history_predict_event(0.5, 0, 0.1, rng)
    with pytest.raises(ParameterError):
        history_predict_event(0.5, 100, 0.0, rng)


def test_event_rule_acceptance_rate_matches_exact_binomial():
    from scipy.stats import binom

    p, n, delta = 0.02, 10000, 0.1
    lo = int(np.ceil((1 - delta) * p * n))
    hi = int(np.floor((1 + delta) * p * n))
    exact = binom.cdf(hi, n, p) - binom.cdf(lo - 1, n, p)
    rng = seeded_rng(99)
    trials = 3000
    hits = sum(history_predict_event(p, n, delta, rng) for _ in range(trials))
    assert abs(hits / trials - exact) < 0.03


# ---------------------------------------------------------------------------
# resume-slot prediction
# ---------------------------------------------------------------------------

def test_resume_slot_fires_on_certain_probability():
    db = make_db()
    db.slot_observations[:] = 10
    db.resume_hist[11] = 10   # probability 1 at slot 11
    rng = seeded_rng(1)
    assert predict_resume_slot(db, 10, rng=rng) == 11


def test_resume_slot_fallback_when_nothing_fires():
    db = make_db()
    rng = seeded_rng(1)
    assert predict_resume_slot(db, 10, rng=rng, default_gap_slots=2) == 13


def test_resume_slot_matches_step_through_oracle():
    db = make_db()
    rng_fill = seeded_rng(12)
    db.slot_observations[:] = 20
    db.resume_hist[:] = rng_fill.integers(0, 20, size=db.n_slots)
    for seed in range(10):
        got = predict_resume_slot(db, 40, max_lookahead=20,
                                  n_draws=500, delta=0.1, rng=seeded_rng(seed))
        expect = None
        oracle_rng = seeded_rng(seed)
        for s in range(41, 61):
            p = db.resume_hist[s % 96] / 20
            if history_predict_event(float(p), 500, 0.1, oracle_rng):
                expect = s
                break
        if expect is None:
            expect = 43
        assert got == expect


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------

def _profile_hw():
    return PreferredNetworkProfile(
        preferred=frozenset({"home", "work", "cafe"}),
        top3=("home", "work", "cafe"),
        home_ssid="home",
        work_ssid="work",
    )


def test_features_saturday_evening_home_visible():
    db = make_db(profile=_profile_hw())
    # epoch day 2 is a Saturday; 21:00 local
    ts = 2 * 86400 + 21 * 3600
    update_history(db, [sample(ts, W, ssid="home", visible={"home"})])
    fv = extract_features(db, db.slot_of_day(ts), ts, EventKind.CUT)
    assert fv.home_wifi_night is True
    assert fv.work_wifi_day is False
    assert fv.weekday is False
    assert fv.top1_seen is True and fv.top2_seen is False


def test_features_no_networks_visible():
    db = make_db(profile=_profile_hw())
    ts = 12 * 3600  # Thursday noon (epoch day 0)
    update_history(db, [sample(ts, C, visible=set())])
    fv = extract_features(db, 10, ts, EventKind.CUT)
    assert fv.n_visible == 0
    assert not (fv.top1_seen or fv.top2_seen or fv.top3_seen)
    assert fv.weekday is True


def test_features_slot_probability_matches_target_kind():
    db = make_db(profile=_profile_hw())
    update_history(db, [sample(0, W, ssid="home", visible={"home"})])
    db.slot_observations[7] = 4
    db.cut_hist[7] = 1
    db.resume_hist[7] = 3
    cut_fv = extract_features(db, 7, 0, EventKind.CUT)
    res_fv = extract_features(db, 7, 0, EventKind.RESUME)
    assert cut_fv.slot_event_prob == pytest.approx(0.25)
    assert res_fv.slot_event_prob == pytest.approx(0.75)
    assert cut_fv.slot_index == 7


def test_features_require_recent_samples_and_profile():
    db = make_db(profile=_profile_hw())
    with pytest.raises(FeatureError):
        extract_features(db, 0, 0, EventKind.CUT)
    db2 = make_db(profile=None)
    update_history(db2, [sample(0, W)])
    with pytest.raises(FeatureError):
        extract_features(db2, 0, 0, EventKind.CUT)


def test_feature_probability_matches_batch_oracle_on_synthetic_replay():
    cfg = dataclasses.replace(reference_config(seed=33), days=8)
    trace = generate_trace(cfg, "pf")
    profile = derive_preferred_profile(trace)
    db = HistoryDB(slot_minutes=15, tracked_apps=cfg.pcachable_apps, profile=profile)
    update_history(db, trace.samples)
    for slot in range(0, 96, 9):
        fv = extract_features(db, slot, trace.end_time, EventKind.CUT)
        obs = int(db.slot_observations[slot])
        expect = db.cut_hist[slot] / obs if obs else 0.0
        assert fv.slot_event_prob == pytest.approx(float(expect))


def test_feature_vector_validation_and_array():
    with pytest.raises(FeatureError):
        FeatureVector(False, False, True, -1, False, False, False, 0, 0.0)
    fv = FeatureVector(True, False, True, 3, True, False, False, 12, 0.5)
    arr = fv.as_array()
    assert arr.shape == (9,)
    assert arr[0] == 1.0 and arr[3] == 3.0 and arr[8] == 0.5
