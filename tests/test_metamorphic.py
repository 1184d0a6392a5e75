"""Metamorphic relations of the whole pipeline: transformations of a trace
whose effect on every stage's output is known without an oracle.

*Week shift.* Every stage reads time of day, day of week or differences of
timestamps, so adding a whole week to every timestamp shifts each gap by
that week and leaves every count, bound, histogram and backtest as it was.
The one field that hashes absolute times, ``trained_digest``, is left out.

*Clock and offset.* Every stage reads local time, ``t + utc_offset_s``, or
differences of timestamps. So adding h hours to every timestamp and taking
h hours off the offset shifts each gap by h hours and leaves the event
histograms, the bound, the traffic totals, the K sweep and both backtests
as they were. ``traffic_split``'s day series are keyed by UTC day and may
move; ``trained_digest`` hashes the offset and absolute times.

*A relation that must break.* History counts by slot of day only, so a
one-day shift leaves its backtest as it was; AdaBoost's weekday feature
reads the day of week, so the same shift moves that column of its training
features, and no other.

*Renaming.* No stage reads what a name says, only which names are equal
and, where ties are broken, how they sort. So renaming every app id (in the
trace and in ``s_apps``, each app in its place) or every SSID, keeping the
names' order, leaves gaps, K sweep and backtests as they were and renames
the profile. ``trained_digest`` hashes the names and is left out. Phone ids
stay as they are: the replay's random streams are keyed on them.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from pcach.evaluation import (
    PAPER_K_SET,
    _Replay,
    _split_index,
    _train_feature_pass,
    app_prediction_run,
    backtest,
)
from pcach.history import fold_rows
from pcach.mining import event_time_histogram, horizon_sweep, traffic_split
from pcach.pipeline import PCachConfig, PredictorKind
from pcach.synth import generate_trace, reference_config
from pcach.trace import Trace, derive_preferred_profile, detect_gaps, normalize_timeline

HOUR_S = 3600
DAY_S = 86400
WEEK_S = 7 * DAY_S


def shifted(trace, seconds):
    """``trace`` with ``seconds`` added to every timestamp."""
    return Trace.from_columns(
        trace.phone_id, trace.t + seconds, trace.state, trace.ssid, trace.visible,
        trace.app_offsets, trace.app, trace.up, trace.down, trace.running,
        trace.ssids, trace.visible_sets, trace.app_ids,
        nominal_period_s=trace.nominal_period_s)


def renamed(trace, ssid=str, app=str):
    """``trace`` with every SSID renamed by ``ssid`` and every app id by
    ``app``, in the trace's name tables."""
    return Trace.from_columns(
        trace.phone_id, trace.t, trace.state, trace.ssid, trace.visible,
        trace.app_offsets, trace.app, trace.up, trace.down, trace.running,
        [ssid(s) for s in trace.ssids], [frozenset(map(ssid, v)) for v in trace.visible_sets],
        [app(a) for a in trace.app_ids], nominal_period_s=trace.nominal_period_s)


def _gaps_shifted(gaps, seconds):
    """``gaps`` with ``seconds`` added to their cut and resume times."""
    return [dataclasses.replace(
        g, cut_time=g.cut_time + seconds,
        resume_time=None if g.resume_time is None else g.resume_time + seconds)
        for g in gaps]


def _mined(trace, slot_minutes, utc_offset_s):
    norm = normalize_timeline(trace, derive_preferred_profile(trace))
    gaps = detect_gaps(norm)
    return (norm, gaps, event_time_histogram(gaps, slot_minutes, utc_offset_s),
            horizon_sweep(norm, gaps))


def _report(trace, config, utc_offset_s):
    report = backtest(trace, config, seed=3, utc_offset_s=utc_offset_s).to_dict()
    del report["trained_digest"]
    return report


_phones = dict(seed=st.integers(0, 2**16), days=st.integers(10, 16),
               slot_minutes=st.sampled_from([15, 30, 60]),
               utc_offset_s=st.sampled_from([0, 3600, -18000]))


@settings(deadline=None, max_examples=10)
@given(**_phones)
def test_a_week_shift_shifts_the_gaps_and_leaves_the_mining_as_it_was(
        seed, days, slot_minutes, utc_offset_s):
    trace = generate_trace(reference_config(seed=seed, days=days), "week")
    norm, gaps, hists, bound = _mined(trace, slot_minutes, utc_offset_s)
    norm_w, gaps_w, hists_w, bound_w = _mined(shifted(trace, WEEK_S), slot_minutes,
                                              utc_offset_s)
    assert gaps
    assert gaps_w == _gaps_shifted(gaps, WEEK_S)
    split = traffic_split(norm)
    assert traffic_split(norm_w) == dataclasses.replace(split, first_day=split.first_day + 7)
    assert hists_w == hists
    assert bound_w == bound


@settings(deadline=None, max_examples=10)
@given(**_phones)
def test_a_week_shift_leaves_the_k_sweep_and_both_backtests_as_they_were(
        seed, days, slot_minutes, utc_offset_s):
    config = reference_config(seed=seed, days=days)
    trace = generate_trace(config, "week")
    week = shifted(trace, WEEK_S)
    s_apps = config.pcachable_apps
    ks = [k for k in PAPER_K_SET if k <= len(s_apps)]
    assert app_prediction_run(week, s_apps, ks, slot_minutes, 5.0, utc_offset_s) == \
        app_prediction_run(trace, s_apps, ks, slot_minutes, 5.0, utc_offset_s)
    for kind in PredictorKind:
        pcach = PCachConfig(k=7, s_apps=s_apps, slot_minutes=slot_minutes,
                            predictor_kind=kind, adaboost_rounds=15)
        assert _report(week, pcach, utc_offset_s) == _report(trace, pcach, utc_offset_s)


_hours = st.integers(-12, 12).filter(bool)


@settings(deadline=None, max_examples=10)
@given(**_phones, hours=_hours)
def test_a_clock_shift_with_the_offset_taken_back_leaves_the_mining_as_it_was(
        seed, days, slot_minutes, utc_offset_s, hours):
    trace = generate_trace(reference_config(seed=seed, days=days), "clock")
    norm, gaps, hists, bound = _mined(trace, slot_minutes, utc_offset_s)
    norm_h, gaps_h, hists_h, bound_h = _mined(shifted(trace, hours * HOUR_S), slot_minutes,
                                              utc_offset_s - hours * HOUR_S)
    assert gaps
    assert gaps_h == _gaps_shifted(gaps, hours * HOUR_S)  # so every duration is kept
    assert hists_h == hists
    assert bound_h == bound
    split, split_h = traffic_split(norm), traffic_split(norm_h)
    assert (split_h.cellular_bytes, split_h.wifi_bytes) == (split.cellular_bytes,
                                                             split.wifi_bytes)


@settings(deadline=None, max_examples=10)
@given(**_phones, hours=_hours)
def test_a_clock_shift_with_the_offset_taken_back_leaves_the_k_sweep_and_both_backtests(
        seed, days, slot_minutes, utc_offset_s, hours):
    config = reference_config(seed=seed, days=days)
    trace = generate_trace(config, "clock")
    clock, clock_offset_s = shifted(trace, hours * HOUR_S), utc_offset_s - hours * HOUR_S
    s_apps = config.pcachable_apps
    ks = [k for k in PAPER_K_SET if k <= len(s_apps)]
    assert app_prediction_run(clock, s_apps, ks, slot_minutes, 5.0, clock_offset_s) == \
        app_prediction_run(trace, s_apps, ks, slot_minutes, 5.0, utc_offset_s)
    for kind in PredictorKind:
        pcach = PCachConfig(k=7, s_apps=s_apps, slot_minutes=slot_minutes,
                            predictor_kind=kind, adaboost_rounds=15)
        assert _report(clock, pcach, clock_offset_s) == _report(trace, pcach, utc_offset_s)


def _training_features(trace, config, utc_offset_s):
    """AdaBoost's training features of cuts, as the backtest builds them."""
    idx = _split_index(trace, config, None)
    replay = _Replay.start(trace, idx, config.s_apps, config.slot_minutes, utc_offset_s)
    fold_rows(replay.db, replay.norm, 0, idx)
    return _train_feature_pass(replay, idx, replay.db.abs_slot(replay.db.last_timestamp))[0]


WEEKDAY = 2  # the column of the weekday feature


@settings(deadline=None, max_examples=10)
@given(**_phones)
def test_a_day_shift_moves_adaboosts_weekday_feature_and_leaves_history_as_it_was(
        seed, days, slot_minutes, utc_offset_s):
    config = reference_config(seed=seed, days=days)
    trace = generate_trace(config, "day")
    day = shifted(trace, DAY_S)
    pcach = PCachConfig(k=7, s_apps=config.pcachable_apps, slot_minutes=slot_minutes,
                        predictor_kind=PredictorKind.ADABOOST)
    X, X_day = (_training_features(t, pcach, utc_offset_s) for t in (trace, day))
    assert X.shape == X_day.shape
    # at least five training days hold a Friday or a Sunday, whose weekday flag the shift flips
    assert (X[:, WEEKDAY] != X_day[:, WEEKDAY]).any()
    others = [c for c in range(X.shape[1]) if c != WEEKDAY]
    assert (X[:, others] == X_day[:, others]).all()
    history = dataclasses.replace(pcach, predictor_kind=PredictorKind.HISTORY)
    assert _report(day, history, utc_offset_s) == _report(trace, history, utc_offset_s)


def _prefixed(prefix):
    """A renaming that keeps the names' order: every name gets ``prefix``."""
    return lambda name: prefix + name


_prefixes = st.sampled_from(["~", "renamed-", "0"])


@settings(deadline=None, max_examples=10)
@given(**_phones, prefix=_prefixes)
def test_renaming_the_apps_leaves_the_k_sweep_and_both_backtests_as_they_were(
        seed, days, slot_minutes, utc_offset_s, prefix):
    config = reference_config(seed=seed, days=days)
    trace = generate_trace(config, "names")
    rename = _prefixed(prefix)
    apps = renamed(trace, app=rename)
    s_apps = config.pcachable_apps
    s_apps_renamed = tuple(map(rename, s_apps))
    ks = [k for k in PAPER_K_SET if k <= len(s_apps)]
    assert app_prediction_run(apps, s_apps_renamed, ks, slot_minutes, 5.0, utc_offset_s) == \
        app_prediction_run(trace, s_apps, ks, slot_minutes, 5.0, utc_offset_s)
    for kind in PredictorKind:
        pcach = PCachConfig(k=7, s_apps=s_apps, slot_minutes=slot_minutes,
                            predictor_kind=kind, adaboost_rounds=15)
        assert _report(apps, dataclasses.replace(pcach, s_apps=s_apps_renamed),
                       utc_offset_s) == _report(trace, pcach, utc_offset_s)


@settings(deadline=None, max_examples=10)
@given(**_phones, prefix=_prefixes)
def test_renaming_the_ssids_renames_the_profile_and_leaves_gaps_and_backtests_as_they_were(
        seed, days, slot_minutes, utc_offset_s, prefix):
    config = reference_config(seed=seed, days=days)
    trace = generate_trace(config, "names")
    rename = _prefixed(prefix)
    ssids = renamed(trace, ssid=rename)
    profile = derive_preferred_profile(trace, utc_offset_s=utc_offset_s)
    assert derive_preferred_profile(ssids, utc_offset_s=utc_offset_s) == dataclasses.replace(
        profile, preferred=frozenset(map(rename, profile.preferred)),
        top3=tuple(map(rename, profile.top3)),
        home_ssid=None if profile.home_ssid is None else rename(profile.home_ssid),
        work_ssid=None if profile.work_ssid is None else rename(profile.work_ssid))
    assert profile.preferred
    assert detect_gaps(normalize_timeline(ssids, derive_preferred_profile(ssids))) == \
        detect_gaps(normalize_timeline(trace, derive_preferred_profile(trace)))
    for kind in PredictorKind:
        pcach = PCachConfig(k=7, s_apps=config.pcachable_apps, slot_minutes=slot_minutes,
                            predictor_kind=kind, adaboost_rounds=15)
        assert _report(ssids, pcach, utc_offset_s) == _report(trace, pcach, utc_offset_s)
