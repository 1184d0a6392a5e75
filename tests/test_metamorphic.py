"""Metamorphic relations of the whole pipeline: transformations of a trace
whose effect on every stage's output is known without an oracle.

*Week shift.* Every stage reads time of day, day of week or differences of
timestamps, so adding a whole week to every timestamp shifts each gap by
that week and leaves every count, bound, histogram and backtest as it was.
The one field that hashes absolute times, ``trained_digest``, is left out.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from pcach.evaluation import PAPER_K_SET, app_prediction_run, backtest
from pcach.mining import event_time_histogram, horizon_sweep, traffic_split
from pcach.pipeline import PCachConfig, PredictorKind
from pcach.synth import generate_trace, reference_config
from pcach.trace import Trace, derive_preferred_profile, detect_gaps, normalize_timeline

WEEK_S = 7 * 86400


def shifted(trace, seconds):
    """``trace`` with ``seconds`` added to every timestamp."""
    return Trace.from_columns(
        trace.phone_id, trace.t + seconds, trace.state, trace.ssid, trace.visible,
        trace.app_offsets, trace.app, trace.up, trace.down, trace.running,
        trace.ssids, trace.visible_sets, trace.app_ids,
        nominal_period_s=trace.nominal_period_s)


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
    assert gaps_w == [dataclasses.replace(
        g, cut_time=g.cut_time + WEEK_S,
        resume_time=None if g.resume_time is None else g.resume_time + WEEK_S)
        for g in gaps]
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
