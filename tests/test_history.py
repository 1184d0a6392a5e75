import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcach.errors import (
    ConfigError,
    FeatureError,
    ModelError,
    OrderingError,
    ParameterError,
    TraceValidationError,
)
from pcach.history import (
    DEFAULT_DELTA,
    DEFAULT_N_DRAWS,
    EventKind,
    FeatureVector,
    HistoryDB,
    best_ranks,
    extract_features,
    fold_rows,
    fold_runs,
    history_predict_event,
    history_votes,
    newest_run,
    predict_resume_slot,
    predict_top_k_apps,
    slot_groups,
    update_history,
)
from pcach.pipeline import PCachConfig, pcach_step
from pcach.synth import generate_trace, reference_config
from pcach.trace import (
    MeasurementSample,
    PreferredNetworkProfile,
    Trace,
    derive_preferred_profile,
    normalize_timeline,
)

from helpers import (
    C,
    N,
    W,
    app,
    mutated_json,
    sample,
    seeded_rng,
    slot_probability,
    usage_window,
)
from oracles import HistoryOracle, app_ran, group_by_slot, sample_from_obj

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


@pytest.mark.parametrize("up", [2**63, 2**62], ids=["past-int64", "sum-past-2**62"])
def test_a_batch_whose_bytes_overflow_raises_and_changes_nothing(up):
    db, clean = make_db(), make_db()
    for d in (db, clean):
        update_history(d, [sample(0, W, apps=(app("mail"),))])
    before = db.to_json()
    with pytest.raises(TraceValidationError):
        update_history(db, [sample(300, C, apps=(app("facebook", up=up),)), sample(600, W)])
    assert db.to_json() == before
    # the next batch folds as if the failed one had never come
    for d in (db, clean):
        update_history(d, [sample(300, C, apps=(app("facebook"),)), sample(600, W)])
    assert db.to_json() == clean.to_json()


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
    assert slot_probability(db, 0, EventKind.CUT) == 1.0
    assert slot_probability(db, 1, EventKind.RESUME) == 1.0
    assert slot_probability(db, 5, EventKind.CUT) == 0.0


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
            from oracles import is_cut_transition, is_resume_transition
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


@pytest.mark.parametrize("kwargs", [{"utc_offset_s": 86401}, {"tracked_apps": ["a", "b", "a"]}],
                         ids=["offset-past-a-day", "duplicate-tracked-apps"])
def test_history_db_construction_errors(kwargs):
    # a database with a duplicate tracked app would never count the first
    # one's row, and its snapshot would not load
    with pytest.raises(ParameterError):
        HistoryDB(**kwargs)


def _snapshot():
    db = make_db(profile=PreferredNetworkProfile(
        frozenset({"home"}), ("home",), "home", "home"))
    update_history(db, [sample(0, W, apps=(app("mail"),)), sample(300, C), sample(600, W)])
    return json.loads(db.to_json())


def _counts(key, slot, count):
    """The snapshot's histogram ``key`` (as :func:`_edited` names it) with
    ``count`` in ``slot``."""
    d = _snapshot()
    hist = d["app_hist"][key.removeprefix("app_hist_")] if key.startswith("app_hist_") else d[key]
    hist[slot] = count
    return hist


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
    ({"profile": "x"}, "'profile'"),
    ({"profile": {"preferred": ["home"], "top3": ["cafe"], "home_ssid": "home",
                  "work_ssid": "home"}}, "'profile'"),
    ({"tracked_apps": 5}, "'tracked_apps'"),
    ({"tracked_apps": ["facebook", "mail", "mail"]}, "'tracked_apps'"),
    ({"slot_minutes": "15"}, "'slot_minutes'"),
    ({"slot_minutes": 7}, "'slot_minutes'"),
    ({"utc_offset_s": "x"}, "'utc_offset_s'"),
    ({"utc_offset_s": 2**70}, "'utc_offset_s'"),
    ({"cut_hist": _counts("cut_hist", 11, 5),
      "slot_observations": _counts("slot_observations", 11, 1)}, "'cut_hist'"),
    ({"resume_hist": _counts("resume_hist", 40, 2),
      "slot_observations": _counts("slot_observations", 40, 1)}, "'resume_hist'"),
    ({"app_hist_facebook": _counts("app_hist_facebook", 3, 1)}, "app_hist['facebook']"),
    # the open (day, slot) is slot 0's one observation, and it counted no
    # use of facebook, so facebook's count there must stay 0
    ({"app_hist_facebook": _counts("app_hist_facebook", 0, 1)}, "app_hist['facebook']"),
    ({"open_cut": False}, "'cut_hist'"),
    ({"slot_observations": _counts("slot_observations", 0, 0)}, "'slot_observations'"),
    ({"bogus": 1}, "unknown key 'bogus' in history snapshot"),
    ({"profile": {"preferred": ["home"], "top3": ["home"], "home_ssid": "home",
                  "work_ssid": "home", "bogus": 1}},
     "unknown key 'bogus' in history snapshot key 'profile'"),
], ids=["untracked-app", "missing-app", "short-app-row", "short-cut-hist",
        "long-resume-hist", "negative-count", "float-count", "bool-count",
        "string-hist", "wifi-without-ssid", "string-profile", "top3-not-preferred",
        "int-tracked-apps", "repeated-tracked-app", "string-slot-minutes",
        "slot-minutes-not-dividing-a-day", "string-utc-offset", "huge-utc-offset",
        "cuts-past-observations", "resumes-past-observations", "app-use-past-observations",
        "app-use-the-open-slot-did-not-count", "cut-the-open-slot-did-not-count",
        "open-slot-unobserved", "unknown-snapshot-key", "unknown-profile-key"])
def test_history_snapshot_errors_name_the_key(edits, named):
    with pytest.raises(ModelError) as exc:
        HistoryDB.from_json(_edited(**edits))
    assert named in str(exc.value)


# the snapshot counts three cuts in slot 11 but has observed it once, so
# the next step's cut rule reads p = 3 there
_CUTS_PAST_OBSERVATIONS = _edited(cut_hist=_counts("cut_hist", 11, 3),
                                  slot_observations=_counts("slot_observations", 11, 1))


@settings(deadline=None, max_examples=300)
@given(mutated_json(_snapshot), st.integers(0, 200))
@example(_CUTS_PAST_OBSERVATIONS, 10)
def test_mutated_history_snapshots_raise_model_errors_or_step(text, slot):
    try:
        db = HistoryDB.from_json(text)
    except ModelError:
        return
    assert HistoryDB.from_json(db.to_json()).to_json() == db.to_json()
    pcach_step(db, PCachConfig(k=1, s_apps=("facebook", "mail")), slot, [], seeded_rng(0))


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
    s_apps = ["a", "b", "c"]
    assert predict_top_k_apps(usage_window(db, s_apps, 5, 5), s_apps, 2) == ["a", "b"]


def test_top_k_union_over_disjoint_slots():
    db = _db_with_counts({1: {"a": 9}, 2: {"b": 9}})
    assert predict_top_k_apps(usage_window(db, ["a", "b"], 1, 2), ["a", "b"], 1) == ["a", "b"]


def test_top_k_all_zero_histogram_falls_back_to_s_apps_order():
    db = _db_with_counts({0: {"a": 0, "b": 0, "c": 0}})
    s_apps = ["c", "a", "b"]
    assert predict_top_k_apps(usage_window(db, s_apps, 0, 0), s_apps, 2) == ["c", "a"]


def test_top_k_wraps_past_midnight():
    db = _db_with_counts({95: {"a": 5}, 0: {"b": 5}})
    out = predict_top_k_apps(usage_window(db, ["a", "b"], 95, 96), ["a", "b"], 1)  # slots 95 and 0
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
            cur = set(predict_top_k_apps(usage_window(db, apps, slot, slot), apps, k))
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


def _top_k_case(slot_minutes, counts_by_app, s_apps, first, last):
    db = HistoryDB(slot_minutes=slot_minutes, tracked_apps=list(counts_by_app))
    for a, counts in counts_by_app.items():
        db.app_hist[a][:] = counts
    return db, s_apps, first, last


def _top_k_examples(test):
    """``test`` with the cases a ranking most easily gets wrong as explicit
    inputs: ties, all-zero counts and one-slot windows, each with an
    untracked app, run for every k up to |s_apps|."""
    for case in (
            # ties within each slot, broken by s_apps order, not by row
            _top_k_case(360, {"app0": [2, 2, 1, 0], "app1": [2, 2, 1, 0], "app2": [2, 0, 1, 3]},
                        ["app2", "app1", "app5", "app0"], 0, 3),
            # all-zero counts over a window past midnight
            _top_k_case(360, {"app0": [0] * 4, "app1": [0] * 4}, ["app1", "app3", "app0"], 2, 5),
            # one-slot windows, with and without ties
            _top_k_case(360, {"app0": [1, 3, 0, 2], "app1": [1, 0, 0, 2], "app2": [0, 3, 1, 2]},
                        ["app0", "app1", "app2", "app6"], 1, 1),
            _top_k_case(360, {"app0": [1, 3, 0, 2], "app1": [1, 0, 0, 2], "app2": [0, 3, 1, 2]},
                        ["app2", "app6", "app1", "app0"], 7, 7)):
        test = example(case)(test)
    return test


@settings(deadline=None)
@given(_top_k_cases())
@_top_k_examples
def test_top_k_matches_brute_force_reference(case):
    db, s_apps, first, last = case
    for k in range(1, len(s_apps) + 1):
        assert (predict_top_k_apps(usage_window(db, s_apps, first, last), s_apps, k)
                == _top_k_reference(db, s_apps, k, first, last))


@settings(deadline=None)
@given(_top_k_cases())
@_top_k_examples
def test_one_ranking_at_the_largest_k_serves_every_k(case):
    db, s_apps, first, last = case
    counts = usage_window(db, s_apps, first, last)
    best = best_ranks(counts)
    assert best.shape == (len(s_apps),)
    for k in range(1, len(s_apps) + 1):
        assert ({a for a, rank in zip(s_apps, best) if rank < k}
                == set(predict_top_k_apps(counts, s_apps, k)))


def test_top_k_parameter_errors():
    db = _db_with_counts({0: {"a": 1}})
    with pytest.raises(ConfigError):
        predict_top_k_apps(usage_window(db, [], 0, 0), [], 1)
    with pytest.raises(ParameterError):
        predict_top_k_apps(usage_window(db, ["a"], 0, 0), ["a"], 2)
    with pytest.raises(ParameterError):
        predict_top_k_apps(usage_window(db, ["a"], 3, 2), ["a"], 1)
    with pytest.raises(ConfigError):
        predict_top_k_apps(usage_window(db, ["a", "a"], 0, 0), ["a", "a"], 2)


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


@pytest.mark.parametrize("p, documented", [
    (0.005, "0.519"), (0.01, "0.684"), (0.02, "0.847"), (0.05, "0.978"), (0.1, "0.999"),
])
def test_documented_firing_probabilities_are_the_exact_binomial(p, documented):
    # the window the rule tests, edge products computed as the rule computes them
    from scipy.stats import binom

    n, delta = DEFAULT_N_DRAWS, DEFAULT_DELTA
    x = np.arange(n + 1)
    inside = x[((1.0 - delta) * p <= x / n) & (x / n <= (1.0 + delta) * p)]
    assert f"{binom.pmf(inside, n, p).sum():.3f}" == documented
    assert f"{documented} at" in " ".join(history_predict_event.__doc__.split())


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
    fv = extract_features(db, db.abs_slot(ts) % db.n_slots, ts, EventKind.CUT)
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


# ---------------------------------------------------------------------------
# the columnar fold against the sample-walking oracle
# ---------------------------------------------------------------------------

_APPS = ("app0", "app1", "app2", "app3")
_SSIDS = ("home", "office", "cafe")


@st.composite
def _traces(draw):
    """Traces with several app records a sample, runs of rows in one slot,
    cut spacing on both sides of ten minutes, and optionally relabelled."""
    samples, t = [], draw(st.integers(0, 20_000))
    for _ in range(draw(st.integers(1, 40))):
        t += draw(st.sampled_from([60, 120, 300, 540, 660, 3600]))
        state = draw(st.sampled_from([W, C, N]))
        visible = set(draw(st.lists(st.sampled_from(_SSIDS), unique=True)))
        ssid = draw(st.sampled_from(_SSIDS)) if state is W else None
        apps = tuple(app(a, up=draw(st.integers(0, 3)), down=draw(st.integers(0, 3)),
                         running=draw(st.booleans()))
                     for a in draw(st.lists(st.sampled_from(_APPS), unique=True, max_size=3)))
        samples.append(MeasurementSample(t, state, ssid, frozenset(visible | {ssid} - {None}),
                                         apps))
    trace = Trace("fold", samples)
    if draw(st.booleans()):
        trace = normalize_timeline(trace, derive_preferred_profile(trace))
    return trace


@st.composite
def _fold_plans(draw):
    trace = draw(_traces())
    db = HistoryDB(slot_minutes=draw(st.sampled_from([5, 15, 60])),
                   tracked_apps=draw(st.lists(st.sampled_from(_APPS + ("ghost",)), unique=True)),
                   profile=draw(st.sampled_from([None, derive_preferred_profile(trace)])),
                   utc_offset_s=draw(st.sampled_from([0, 3600, -7200])))
    cuts = sorted(draw(st.lists(st.integers(0, len(trace)), max_size=8)))
    bounds = [0, *cuts, len(trace)]
    # a batch may also be skipped: the next one then starts after a gap
    ways = draw(st.lists(st.sampled_from(["rows", "samples", "snapshot", "copy", "skip"]),
                         min_size=len(bounds) - 1, max_size=len(bounds) - 1))
    return trace, db, list(zip(bounds, bounds[1:], ways))


@settings(deadline=None, max_examples=300)
@given(_fold_plans())
def test_columnar_fold_matches_the_sample_walking_oracle(plan):
    trace, db, batches = plan
    oracle = HistoryOracle(db)
    copy = trace.rows(0, len(trace))   # the same rows in other columns
    for lo, hi, way in batches:
        if way == "skip":
            continue
        if way == "snapshot":
            db = HistoryDB.from_json(db.to_json())
        if way == "samples":
            update_history(db, trace.samples[lo:hi])
        else:
            fold_rows(db, copy if way == "copy" else trace, lo, hi)
        oracle.update(trace.samples[lo:hi])
        assert db.to_json() == oracle.to_json()
        if oracle.latest is not None:
            assert sample_from_obj(json.loads(db.to_json())["latest"]) == oracle.latest


@settings(deadline=None, max_examples=200)
@given(_fold_plans(), st.data())
def test_a_batch_out_of_order_raises_and_changes_nothing(plan, data):
    trace, db, batches = plan
    done = data.draw(st.integers(1, len(trace)))
    fold_rows(db, trace, 0, done)
    before = db.to_json()
    lo = data.draw(st.integers(0, done - 1))
    hi = data.draw(st.integers(lo + 1, len(trace)))
    expected = f"sample at t={trace.t[lo]} not after t={trace.t[done - 1]}"
    with pytest.raises(OrderingError) as rows_error:
        fold_rows(db, trace, lo, hi)
    assert str(rows_error.value) == expected
    assert db.to_json() == before
    # a sample batch fails at its first sample out of order, anywhere in it
    batch = list(trace.samples[done:hi]) + list(trace.samples[lo:hi])
    oracle = HistoryOracle(db)
    oracle.latest = trace.samples[done - 1]
    with pytest.raises(OrderingError) as oracle_error:
        oracle.update(batch)
    with pytest.raises(OrderingError) as samples_error:
        update_history(db, batch)
    assert str(samples_error.value) == str(oracle_error.value)
    assert db.to_json() == before


@settings(deadline=None, max_examples=100)
@given(_fold_plans(), st.data())
def test_slot_groups_are_the_sample_groups(plan, data):
    trace, db, _ = plan
    lo = data.draw(st.integers(0, len(trace)))
    hi = data.draw(st.integers(lo, len(trace)))
    slots, starts, stops = slot_groups(db, trace, lo, hi)
    groups = group_by_slot(db, trace.samples[lo:hi])
    assert slots.tolist() == [slot for slot, _ in groups]
    assert [trace.samples[a:b] for a, b in zip(starts.tolist(), stops.tolist())] == [
        tuple(group) for _, group in groups]


def test_standing_runs_features_are_the_one_row_features():
    db = make_db(profile=_profile_hw())
    ts = 2 * 86400 + 21 * 3600
    update_history(db, [sample(ts, W, ssid="home", visible={"home", "cafe"})])
    db.slot_observations[:] = 4
    db.cut_hist[::3] = 1
    slots = np.arange(80, 180)
    runs = newest_run(db, slots)
    assert runs.now.tolist() == [ts] * len(slots)
    X = runs.features(slots, np.arange(len(slots)), EventKind.CUT)
    for s, row in zip(slots.tolist(), X):
        assert extract_features(db, s, ts, EventKind.CUT).as_array().tobytes() == row.tobytes()


def test_standing_runs_keep_the_counts_a_later_fold_changes():
    db = make_db()
    update_history(db, [sample(0, W, apps=(app("mail"),))])
    runs = newest_run(db, 0)
    cells = np.arange(len(db._hist))
    before = runs.counts(cells, 0)
    update_history(db, [sample(300, C, apps=(app("mail"),)), sample(900, W)])
    assert not np.array_equal(db._hist, before)
    assert np.array_equal(runs.counts(cells, 0), before)
    assert runs.running_counts(cells)(0) == before.tolist()


@pytest.mark.parametrize("kind", list(EventKind), ids=lambda k: k.value)
def test_history_votes_are_one_event_rule_call_per_run(kind):
    config = reference_config(seed=8, days=3)
    trace = generate_trace(config, "votes")
    lo = len(trace) // 3
    db = HistoryDB(15, tracked_apps=config.pcachable_apps)
    ref = HistoryDB(15, tracked_apps=config.pcachable_apps)
    fold_rows(db, trace, 0, lo)
    fold_rows(ref, trace, 0, lo)
    slots, starts, stops = slot_groups(db, trace, lo, len(trace))
    runs = fold_runs(db, trace, lo)
    batch_rng, rng = seeded_rng(3), seeded_rng(3)
    votes = history_votes(runs, kind, 50, 0.25, batch_rng)
    want = []
    for slot, start, stop in zip(slots.tolist(), starts.tolist(), stops.tolist()):
        fold_rows(ref, trace, start, stop)
        want.append(history_predict_event(slot_probability(ref, slot + 1, kind), 50, 0.25, rng))
    assert votes.tolist() == want
    assert 0 < sum(want) < len(want)
    assert batch_rng.bit_generator.state == rng.bit_generator.state


def test_folds_that_start_inside_a_slot_count_from_their_first_row():
    # three rows in slot 0: the first is never folded, and the app it ran
    # counts again at the third row
    trace = Trace("mid", [sample(0, W, apps=(app("facebook"),)), sample(60, C),
                          sample(120, C, apps=(app("facebook"),))])
    db = make_db()
    oracle = HistoryOracle(make_db())
    for lo, hi in ((1, 2), (2, 3)):
        fold_rows(db, trace, lo, hi)
        oracle.update(trace.samples[lo:hi])
    assert db.app_hist["facebook"][0] == 1
    assert db.to_json() == oracle.to_json()


@pytest.mark.parametrize("edits, named", [
    ({"open_key": [0, 1, 2]}, "'open_key'"),
    ({"open_key": [0, 96]}, "'open_key'"),
    ({"open_key": "0,1"}, "'open_key'"),
    ({"open_apps": ["spotify"]}, "'open_apps'"),
    ({"open_apps": "mail"}, "'open_apps'"),
    ({"open_cut": "yes"}, "'open_cut'"),
    ({"open_resume": 1}, "'open_resume'"),
    ({"open_key": [0, 1]}, "'open_key'"),
    ({"open_key": [0, 0.0]}, "'open_key'"),
    ({"latest": None}, "'open_key'"),
    ({"latest": None, "open_key": None}, "'open_apps'"),
    ({"latest": None, "open_key": None, "open_apps": []}, "'open_cut'"),
    ("null", "JSON object"),
    ("[]", "JSON object"),
    ('{"slot_minutes": 15', "not valid JSON"),
    (b"\xff", "not valid JSON"),
], ids=["open-key-triple", "open-key-slot-past-day", "open-key-string", "untracked-open-app",
        "open-apps-string", "string-open-cut", "int-open-resume", "open-key-not-latest-slot",
        "float-open-key", "open-key-without-latest", "open-apps-without-latest",
        "open-cut-without-latest", "null-text", "list-text", "truncated-json", "invalid-utf8"])
def test_history_snapshot_open_state_errors_name_the_key(edits, named):
    text = edits if isinstance(edits, (str, bytes)) else _edited(**edits)
    with pytest.raises(ModelError) as exc:
        HistoryDB.from_json(text)
    assert named in str(exc.value)


@pytest.mark.parametrize("lo, hi", [(-1, 2), (2, 1), (0, 4)])
def test_fold_rows_outside_the_trace_is_a_parameter_error(lo, hi):
    trace = Trace("p", [sample(t, W) for t in (0, 300, 600)])
    db = make_db()
    with pytest.raises(ParameterError):
        fold_rows(db, trace, lo, hi)
    assert db.to_json() == make_db().to_json()


@st.composite
def _as_of_plans(draw):
    """A small generated trace or a drawn one, a database, the split and
    end of the rows that one fold takes past the split, and a usage window:
    apps (some tracked, one not) and a first and last slot, which may wrap
    midnight."""
    if draw(st.booleans()):
        config = reference_config(seed=draw(st.integers(0, 2**16)), days=draw(st.integers(1, 2)))
        trace = generate_trace(config, "as-of")
        apps = config.pcachable_apps[:draw(st.integers(0, len(config.pcachable_apps)))]
        db = HistoryDB(slot_minutes=draw(st.sampled_from([15, 60])), tracked_apps=apps,
                       utc_offset_s=draw(st.sampled_from([0, -18000])))
    else:
        trace, db, _ = draw(_fold_plans())
    split = draw(st.integers(0, len(trace)))
    hi = draw(st.integers(split, len(trace)))
    s_apps = draw(st.permutations(db.tracked_apps + ("untracked-app",)))
    s_apps = s_apps[:draw(st.integers(0, len(db.tracked_apps)))] + ["untracked-app"]
    first = draw(st.integers(0, 3 * db.n_slots))
    return trace, db, split, hi, (s_apps, first, first + draw(st.integers(0, db.n_slots + 1)))


def _usage_of(db, s_apps, first, last):
    """The app_counts columns of slots first..last, a row per app of
    ``s_apps`` (zeros for an untracked one)."""
    cols = np.arange(first, last + 1) % db.n_slots
    zeros = np.zeros(len(cols), dtype=np.int64)
    return [(db.app_hist[a][cols] if a in db.app_hist else zeros).tolist() for a in s_apps]


def _all_counts(db):
    """Observation, cut, resume and app rows, in the order of the cells."""
    return np.concatenate((db.slot_observations, db.cut_hist, db.resume_hist,
                           db.app_counts.ravel())).tolist()


@settings(deadline=None, max_examples=60)
@given(_as_of_plans())
def test_as_of_counts_are_a_fresh_fold_of_every_row_up_to_the_run(plan):
    trace, db, split, hi, (s_apps, first, last) = plan
    fold_rows(db, trace, 0, split)
    before = _all_counts(db)
    # window i is read as of run i - 1, and is i slots longer than window 0
    usage = [_usage_of(db, s_apps, first, last)]
    runs = fold_runs(db, trace, split, hi)
    slots, _, stops = slot_groups(db, trace, split, hi)
    assert runs.slots.tolist() == slots.tolist()
    assert runs.now.tolist() == trace.t[stops - 1].tolist()
    cells = np.arange(len(before))
    assert runs.counts(cells, -1).tolist() == before
    running = runs.running_counts(cells)
    for j, stop in enumerate(stops.tolist()):
        fresh = HistoryDB(db.slot_minutes, db.tracked_apps, db.profile, db.utc_offset_s)
        fold_rows(fresh, trace, 0, stop)
        assert runs.counts(cells, j).tolist() == _all_counts(fresh)
        usage.append(_usage_of(fresh, s_apps, first + j + 1, last + 2 * (j + 1)))
        if j % 3 == 1 or j == len(stops) - 1:   # runs in between are skipped
            assert running(j) == _all_counts(fresh)
    at = np.arange(-1, len(stops))
    windows = runs.usage(s_apps, first + at + 1, last + 2 * (at + 1), at)
    assert [w.tolist() for w in windows] == usage
    # the fold itself leaves the database as fold_rows would
    again = HistoryDB(db.slot_minutes, db.tracked_apps, db.profile, db.utc_offset_s)
    fold_rows(again, trace, 0, split)
    fold_rows(again, trace, split, hi)
    assert again.to_json() == db.to_json()
