import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcach.errors import ParameterError
from pcach.mining import (
    SlotOfDayHistogram,
    event_time_histogram,
    gap_duration_cdf,
    horizon_sweep,
    precache_bound,
    slot_of_day,
    traffic_split,
)
from pcach.synth import generate_trace_with_schedule, reference_config
from pcach.trace import (
    ActiveNetwork,
    Trace,
    WiFiGap,
    derive_preferred_profile,
    detect_gaps,
    normalize_timeline,
)

from helpers import C, N, W, app, cdf_at, random_trace, sample, seeded_rng, trace_from_states
from oracles import bound_oracle, gaps_oracle, normalize_oracle, traffic_split_oracle
from test_trace import _traces


# ---------------------------------------------------------------------------
# traffic split
# ---------------------------------------------------------------------------

def test_all_wifi_split():
    t = trace_from_states([W] * 10, bytes_per_sample=100)
    split = traffic_split(t)
    assert split.wifi_bytes == 1000
    assert split.cellular_bytes == 0
    assert split.cellular_fraction == 0.0


def test_alternating_equal_split():
    t = trace_from_states([W, C] * 5, bytes_per_sample=100)
    split = traffic_split(t)
    assert split.wifi_bytes == split.cellular_bytes == 500
    assert split.cellular_fraction == 0.5


def test_none_samples_attributed_to_neither():
    t = trace_from_states([W, N, C], bytes_per_sample=100)
    split = traffic_split(t)
    assert split.total_bytes == 200


def test_per_day_series_sum_to_totals():
    rng = seeded_rng(3)
    for _ in range(20):
        t = random_trace(rng, with_apps=True)
        split = traffic_split(t)
        assert sum(split.per_day_cellular) == split.cellular_bytes
        assert sum(split.per_day_wifi) == split.wifi_bytes
        observed = sum(
            s.total_bytes for s in t.samples
            if s.active_network is not ActiveNetwork.NONE
        )
        assert split.total_bytes == observed


def test_per_day_series_keyed_by_utc_day():
    t = Trace("p", (
        sample(10, W, apps=(app("a", down=5),)),
        sample(86400 + 10, C, apps=(app("a", down=7),)),
    ))
    split = traffic_split(t)
    assert split.per_day_wifi == (5, 0)
    assert split.per_day_cellular == (0, 7)


# ---------------------------------------------------------------------------
# gap duration CDF
# ---------------------------------------------------------------------------

def _gap(duration, start=0):
    return WiFiGap(cut_time=start, resume_time=start + duration)


def test_cdf_step_points():
    points = gap_duration_cdf([_gap(600), _gap(600, 10000), _gap(1200, 50000)])
    assert points == [(600, pytest.approx(2 / 3)), (1200, pytest.approx(1.0))]
    assert cdf_at(points, 600) == pytest.approx(2 / 3)
    assert cdf_at(points, 599) == 0.0
    assert cdf_at(points, 10_000) == 1.0


def test_cdf_single_gap_jumps_to_one():
    assert gap_duration_cdf([_gap(900)]) == [(900, 1.0)]


def test_cdf_empty_input():
    assert gap_duration_cdf([]) == []


def test_cdf_rejects_open_or_excluded_gaps():
    with pytest.raises(ParameterError):
        gap_duration_cdf([WiFiGap(cut_time=0)])
    with pytest.raises(ParameterError):
        gap_duration_cdf([_gap(90000)])


def test_cdf_non_decreasing_and_ends_at_one():
    rng = seeded_rng(5)
    durations = rng.integers(1, 80000, size=50)
    points = gap_duration_cdf([_gap(int(d), i * 200000) for i, d in enumerate(durations)])
    fracs = [f for _, f in points]
    assert all(a < b for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# event-time histograms
# ---------------------------------------------------------------------------

def test_cut_at_0610_lands_in_slot_24():
    g = WiFiGap(cut_time=6 * 3600 + 10 * 60, resume_time=7 * 3600)
    cuts, resumes = event_time_histogram([g], slot_minutes=15)
    assert cuts.counts[24] == 1
    assert sum(cuts.counts) == 1
    assert resumes.counts[28] == 1  # 07:00


def test_no_gaps_gives_zero_histograms():
    cuts, resumes = event_time_histogram([], slot_minutes=15)
    assert sum(cuts.counts) == 0 and sum(resumes.counts) == 0
    assert len(cuts.counts) == 96


def test_open_gap_counts_cut_only():
    cuts, resumes = event_time_histogram([WiFiGap(cut_time=0)], slot_minutes=60)
    assert sum(cuts.counts) == 1
    assert sum(resumes.counts) == 0


def test_invalid_slot_minutes_rejected():
    with pytest.raises(ParameterError):
        event_time_histogram([], slot_minutes=7)
    with pytest.raises(ParameterError):
        event_time_histogram([], slot_minutes=0)


def test_utc_offset_shifts_slots():
    g = WiFiGap(cut_time=0, resume_time=600)
    cuts, _ = event_time_histogram([g], slot_minutes=60, utc_offset_s=3600)
    assert cuts.counts[1] == 1
    assert slot_of_day(0, 60, utc_offset_s=-3600) == 23


def test_histogram_shape_validated():
    with pytest.raises(Exception):
        SlotOfDayHistogram(15, tuple([0] * 95))


def test_surge_windows_peak_on_reference_corpus():
    cfg = dataclasses.replace(reference_config(seed=31), days=45)
    all_gaps = []
    for p in range(4):
        _, schedule = generate_trace_with_schedule(cfg, f"p{p}")
        all_gaps += schedule
    cuts, resumes = event_time_histogram(all_gaps, slot_minutes=15)
    c = np.array(cuts.counts, dtype=float)

    def window_mean(arr, h0, h1):
        return arr[int(h0 * 4):int(h1 * 4)].mean()

    # cut surges rise above their flanking windows
    assert window_mean(c, 6, 7) > 2 * window_mean(c, 4, 6)
    assert window_mean(c, 6, 7) > 2 * window_mean(c, 7.25, 9)
    assert window_mean(c, 15, 16.5) > 2 * window_mean(c, 13, 15)
    r = np.array(resumes.counts, dtype=float)
    assert window_mean(r, 9, 10) > window_mean(r, 11, 13)


# ---------------------------------------------------------------------------
# pre-cache bound
# ---------------------------------------------------------------------------

def _trace_with_one_gap():
    # 300 s spacing: WIFI x2, CELLULAR x12 (a 1-hour gap), WIFI x2
    states = [W, W] + [C] * 12 + [W, W]
    samples = []
    for i, st in enumerate(states):
        samples.append(sample(i * 300, st, apps=(app("a", down=100 * (i + 1)),)))
    return Trace("p", tuple(samples))


def test_bound_zero_horizon_is_zero():
    t = _trace_with_one_gap()
    gaps = detect_gaps(t)
    assert precache_bound(t, gaps, 0) == 0.0


def test_bound_full_horizon_is_one_when_all_cellular_inside_gaps():
    t = _trace_with_one_gap()
    gaps = detect_gaps(t)
    assert precache_bound(t, gaps, 10 * 3600) == 1.0


def test_bound_half_hour_horizon_matches_hand_count():
    t = _trace_with_one_gap()
    gaps = detect_gaps(t)
    assert len(gaps) == 1
    assert gaps[0].duration_s == 3600
    # cut at sample 2 (t=600); a 30-minute horizon covers the six cellular
    # samples at t = 600..2100, carrying bytes 100*(3+4+5+6+7+8)
    covered = 100 * sum(range(3, 9))
    total = 100 * sum(range(3, 15))
    assert precache_bound(t, gaps, 1800) == pytest.approx(covered / total)


def test_bound_matches_brute_force_enumeration_on_random_traces():
    rng = seeded_rng(7)
    for _ in range(40):
        t = random_trace(rng, with_apps=True)
        gaps = detect_gaps(t)
        for horizon in (0, 600, 1800, 7200):
            total = sum(s.total_bytes for s in t.samples if s.active_network is C)
            covered = 0
            for g in gaps:
                for s in t.samples:
                    if s.timestamp < g.cut_time:
                        continue
                    if s.timestamp >= g.cut_time + horizon:
                        break
                    if s.active_network is not C:
                        break
                    covered += s.total_bytes
            expected = covered / total if total else 0.0
            assert precache_bound(t, gaps, horizon) == pytest.approx(expected)


def test_bound_monotone_in_horizon_and_bounded():
    rng = seeded_rng(9)
    for _ in range(30):
        t = random_trace(rng, with_apps=True)
        gaps = detect_gaps(t)
        values = [precache_bound(t, gaps, h) for h in (0, 300, 900, 3600, 86400)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_horizon_sweep_shape():
    t = _trace_with_one_gap()
    gaps = detect_gaps(t)
    series = horizon_sweep(t, gaps, (15, 30, 60))
    assert [h for h, _ in series] == [15, 30, 60]
    assert series[-1][1] >= series[0][1]


def test_bound_rejects_negative_horizon():
    t = _trace_with_one_gap()
    with pytest.raises(ParameterError):
        precache_bound(t, detect_gaps(t), -1)


# ---------------------------------------------------------------------------
# columnar stages against the sample-walking oracles
# ---------------------------------------------------------------------------

_NETS = st.sampled_from(["home", "office", "cafe"])
_DENSE_TIMES = st.sets(st.integers(0, 100 * 300), min_size=1, max_size=25)
_MINING_TRACES = st.one_of(_traces(ssids=_NETS, times=_DENSE_TIMES), _traces(ssids=_NETS))


@settings(deadline=None)
@given(_MINING_TRACES)
def test_traffic_split_matches_the_sample_walking_oracle(trace):
    split = traffic_split(trace)
    assert (split.cellular_bytes, split.wifi_bytes, split.first_day, split.per_day_cellular,
            split.per_day_wifi) == traffic_split_oracle(trace)


@settings(deadline=None)
@given(_MINING_TRACES, st.lists(st.integers(0, 4 * 3600), max_size=4),
       st.lists(st.integers(-600, 110 * 300), max_size=3))
def test_bound_matches_the_sample_walking_oracle(trace, horizons_s, extra_cuts):
    norm = normalize_timeline(trace, derive_preferred_profile(trace))
    oracle_norm = Trace(trace.phone_id, normalize_oracle(trace, derive_preferred_profile(trace)))
    gaps = detect_gaps(norm)
    assert gaps == gaps_oracle(oracle_norm)
    # the bound takes any gap list, not only detected gaps
    for gap_list in (gaps, [WiFiGap(cut_time=c) for c in sorted(extra_cuts)]):
        for h in horizons_s + [0, 10**12]:
            # one integer numerator and denominator: the floats are equal
            assert precache_bound(norm, gap_list, h) == bound_oracle(oracle_norm, gap_list, h)
        assert horizon_sweep(norm, gap_list, [15, 60]) == [
            (m, bound_oracle(oracle_norm, gap_list, m * 60)) for m in (15, 60)]
