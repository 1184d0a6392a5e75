import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings

from pcach.errors import ConfigError, EmptyTraceError
from pcach.synth import (
    AppSpec,
    GeneratorConfig,
    generate_trace,
    generate_trace_with_schedule,
    reference_config,
)
from pcach.trace import (
    ActiveNetwork,
    closed_gaps,
    derive_preferred_profile,
    detect_gaps,
    ingest_trace,
    normalize_timeline,
    trace_to_csv,
    trace_to_jsonl,
)

from helpers import mutated_json, seeded_rng


def small_config(seed=42, days=10):
    return dataclasses.replace(reference_config(seed=seed), days=days)


# ---------------------------------------------------------------------------
# reference profile constants
# ---------------------------------------------------------------------------

def test_reference_config_carries_published_targets():
    cfg = reference_config()
    assert cfg.cellular_share_target == 0.15
    assert cfg.down_up_ratio == 4.26
    assert cfg.cut_slot_rate_target == 0.02
    assert (6.0, 7.0) == cfg.cut_surges[0][:2]
    assert (15.0, 16.5) == cfg.cut_surges[1][:2]
    assert (9.0, 10.0) == cfg.resume_surges[0][:2]
    assert (16.5, 17.5) == cfg.resume_surges[1][:2]


def test_reference_gap_distribution_hits_anchors():
    dist = reference_config().gap_len_dist
    assert dist.cdf(30 * 60) == pytest.approx(0.65, abs=1e-9)
    assert dist.cdf(90 * 60) == pytest.approx(0.80, abs=1e-9)
    assert dist.cdf(240 * 60) == pytest.approx(0.90, abs=1e-9)
    assert dist.cdf(dist.tail_max_h * 3600) == pytest.approx(1.0)


def test_reference_catalog_contains_published_rows():
    cfg = reference_config()
    by_id = {a.app_id: a for a in cfg.app_catalog}
    fb = by_id["Facebook"]
    assert fb.pcachable
    assert fb.traffic_pct == pytest.approx(14.01)
    assert fb.appearance_pct == pytest.approx(6.148)
    dl = by_id["Downloads"]
    assert not dl.pcachable
    assert dl.traffic_pct == pytest.approx(16.74)
    # K sweeps up to 30 need a pre-cachable set at least that large
    assert len(cfg.pcachable_apps) >= 30


def test_reference_config_is_pure():
    a, b = reference_config(seed=3), reference_config(seed=3)
    assert a == b
    assert a.to_json() == b.to_json()


def test_config_json_round_trip():
    cfg = small_config()
    assert GeneratorConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("key", ["evening_gap_window", "gap_len_dist", "cut_surges",
                                 "byte_unit", "start_epoch"])
def test_config_json_missing_key_takes_the_field_default(key):
    cfg = small_config()
    d = json.loads(cfg.to_json())
    del d[key]
    loaded = GeneratorConfig.from_json(json.dumps(d))
    default = GeneratorConfig(seed=cfg.seed, days=cfg.days)
    assert getattr(loaded, key) == getattr(default, key)
    assert loaded == dataclasses.replace(cfg, **{key: getattr(default, key)})


_CONFIG = json.loads(reference_config(seed=1, days=2).to_json())


@pytest.mark.parametrize("text, named", [
    ('{"days": 2, "bogus": 1}', "'bogus'"),
    ('{"seed": 1, "days": 2', "not valid JSON"),
    ("[1]", "must be a JSON object"),
    ('{"seed": 1, "days": "2"}', "'days'"),
    ('{"days": 2}', "'seed'"),
    ('{"seed": 1}', "'days'"),
    ('{"seed": 1.5, "days": 2}', "'seed'"),
    ('{"seed": 1, "days": true}', "'days'"),
    ('{"seed": 1, "days": 2, "period_s": "300"}', "'period_s'"),
    ('{"seed": 1, "days": 2, "start_epoch": 1.0}', "'start_epoch'"),
    (json.dumps({**_CONFIG, "app_catalog": [{**_CONFIG["app_catalog"][0], "rank": 1}]}),
     "'rank' in app_catalog[0]"),
    (json.dumps({**_CONFIG, "gap_len_dist": {**_CONFIG["gap_len_dist"], "mode": 1}}),
     "'mode' in gap_len_dist"),
    (json.dumps({**_CONFIG, "cut_surges": [[6.0, 7.0]]}), "cut_surges[0]"),
], ids=["unknown-key", "invalid-json", "non-object", "string-days", "no-seed", "no-days",
        "float-seed", "bool-days", "string-period", "float-epoch", "catalog-key", "dist-key",
        "surge-pair"])
def test_config_json_errors_name_the_key(text, named):
    with pytest.raises(ConfigError) as exc:
        GeneratorConfig.from_json(text)
    assert named in str(exc.value)


_DIST = _CONFIG["gap_len_dist"]
# JSON has no NaN or Infinity literal, but json.loads reads both
_RANGE_ERRORS = [
    ({"cut_surges": [[6.0, 7.0, -5.0]]}, "cut_surges intensity"),
    ({"resume_surges": [[9.0, 10.0, float("nan")]]}, "resume_surges intensity"),
    ({"cut_surges": [[6.0, 25.0, 0.9]]}, "cut_surges hours"),
    ({"resume_surges": [[-1.0, 10.0, 0.9]]}, "resume_surges hours"),
    ({"cut_surges": [[float("nan"), 7.0, 0.9]]}, "cut_surges hours"),
    ({"byte_unit": float("nan")}, "byte_unit"),
    ({"byte_unit": -5.0}, "byte_unit"),
    ({"byte_unit": 0}, "byte_unit"),
    ({"byte_unit": float("inf")}, "byte_unit"),
    ({"phone_volume_sigma": -1.0}, "phone_volume_sigma"),
    ({"phone_volume_sigma": float("inf")}, "phone_volume_sigma"),
    ({"gap_len_dist": {**_DIST, "body_weight": 2.0}}, "body_weight"),
    ({"gap_len_dist": {**_DIST, "body_weight": 0.0}}, "body_weight"),
    ({"app_catalog": _CONFIG["app_catalog"][:2] * 2}, "more than once"),
    ({"down_up_ratio": float("nan")}, "down_up_ratio"),
    ({"down_up_ratio": float("inf")}, "down_up_ratio"),
    ({"down_up_ratio": 0}, "down_up_ratio"),
    ({"app_catalog": [{**_CONFIG["app_catalog"][0], "traffic_pct": float("nan")}]},
     "traffic_pct"),
    ({"app_catalog": [{**_CONFIG["app_catalog"][0], "appearance_pct": float("inf")}]},
     "appearance_pct"),
    ({"app_catalog": [{**_CONFIG["app_catalog"][0], "traffic_pct": -1.0}]}, "weights of app"),
    ({"gap_len_dist": {**_DIST, "log_mu": float("nan")}}, "log_mu"),
]
_RANGE_IDS = ["negative-intensity", "nan-intensity", "hour-past-24", "negative-hour",
              "nan-hour", "nan-byte-unit", "negative-byte-unit", "zero-byte-unit",
              "inf-byte-unit", "negative-sigma", "inf-sigma", "body-weight-2",
              "body-weight-0", "duplicate-app", "nan-down-up-ratio", "inf-down-up-ratio",
              "zero-down-up-ratio", "nan-traffic-pct", "inf-appearance-pct",
              "negative-traffic-pct", "nan-log-mu"]


@pytest.mark.parametrize("edit, named", _RANGE_ERRORS, ids=_RANGE_IDS)
def test_config_values_out_of_range_are_config_errors(edit, named):
    with pytest.raises(ConfigError) as exc:
        GeneratorConfig.from_json(json.dumps({**_CONFIG, **edit}))
    assert named in str(exc.value)


_GENERATOR_RANGE_ERRORS = [
    ({"baseline_cuts_per_day": -5.0}, "baseline_cuts_per_day"),
    ({"weekend_surge_scale": -3.0}, "weekend_surge_scale"),
    ({"evening_gap_window": [30.0, 40.0]}, "evening_gap_window"),
    ({"evening_gap_window": [23.0, 21.0]}, "evening_gap_window"),
    ({"pcachable_gap_rate_mean": -1.0}, "pcachable_gap_rate_mean"),
    ({"start_epoch": -10**20}, "start_epoch"),
    ({"start_epoch": 2**63}, "start_epoch"),
    ({"start_epoch": 2**63 - 86400}, "start_epoch"),
]
_GENERATOR_RANGE_IDS = ["negative-baseline-cuts", "negative-weekend-scale",
                        "window-past-24", "window-reversed", "negative-gap-rate",
                        "epoch-below-int64", "epoch-past-int64", "last-day-past-int64"]


@pytest.mark.parametrize("edit, named", _GENERATOR_RANGE_ERRORS, ids=_GENERATOR_RANGE_IDS)
def test_generator_rates_and_windows_out_of_range_are_config_errors(edit, named):
    with pytest.raises(ConfigError) as exc:
        GeneratorConfig.from_json(json.dumps({**_CONFIG, **edit}))
    assert named in str(exc.value)


def test_config_values_near_the_int64_edge_still_generate():
    # start_epoch + days * 86400 is int64's largest value
    edge = GeneratorConfig.from_json(json.dumps({**_CONFIG, "start_epoch": 2**63 - 1 - 2 * 86400}))
    assert int(generate_trace(edge, "p").t[-1]) == 2**63 - 1 - 300


@pytest.mark.parametrize("edit", [
    lambda cfg: dataclasses.replace(cfg, down_up_ratio=float("nan")),
    lambda cfg: dataclasses.replace(cfg.app_catalog[0], traffic_pct=float("nan")),
    lambda cfg: dataclasses.replace(cfg.app_catalog[0], appearance_pct=float("nan")),
], ids=["down-up-ratio", "traffic-pct", "appearance-pct"])
def test_nan_weights_are_refused_on_construction(edit):
    with pytest.raises(ConfigError):
        edit(reference_config())


@settings(deadline=None, max_examples=300)
@given(mutated_json(lambda: json.loads(reference_config(seed=1, days=2).to_json())))
@example(json.dumps({**_CONFIG, "down_up_ratio": float("nan")}))
@example(json.dumps({**_CONFIG, "app_catalog": [{**_CONFIG["app_catalog"][0],
                                                 "traffic_pct": float("nan")}]}))
def test_mutated_config_texts_raise_only_config_errors(text):
    try:
        config = GeneratorConfig.from_json(text)
    except ConfigError:
        return
    # every float it holds is finite: strict JSON has no NaN or Infinity
    json.dumps(dataclasses.asdict(config), allow_nan=False)
    assert GeneratorConfig.from_json(config.to_json()) == config


def test_config_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(reference_config(), cellular_share_target=1.5)
    with pytest.raises(ConfigError):
        dataclasses.replace(reference_config(), down_up_ratio=0.0)
    with pytest.raises(ConfigError):
        dataclasses.replace(reference_config(), period_s=7)
    with pytest.raises(ConfigError):
        AppSpec("x", True, -1.0, 0.5)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_is_deterministic_and_byte_stable():
    cfg = small_config(seed=42, days=5)
    t1 = generate_trace(cfg, "p0")
    t2 = generate_trace(cfg, "p0")
    assert t1.samples == t2.samples
    assert trace_to_jsonl(t1) == trace_to_jsonl(t2)


def test_generate_differs_across_phones_and_seeds():
    cfg = small_config(seed=42, days=5)
    assert generate_trace(cfg, "p0").samples != generate_trace(cfg, "p1").samples
    cfg2 = small_config(seed=43, days=5)
    assert generate_trace(cfg, "p0").samples != generate_trace(cfg2, "p0").samples


def test_generate_zero_days_raises():
    with pytest.raises(EmptyTraceError):
        generate_trace(dataclasses.replace(reference_config(), days=0), "p0")


def test_generated_trace_round_trips_through_ingestion():
    cfg = small_config(seed=1, days=3)
    t = generate_trace(cfg, "p3")
    back = ingest_trace(trace_to_jsonl(t), fmt="jsonl", phone_id="p3")
    assert back.samples == t.samples


def test_detector_recovers_internal_schedule():
    cfg = small_config(seed=11, days=20)
    for phone in ("a", "b", "c"):
        trace, schedule = generate_trace_with_schedule(cfg, phone)
        profile = derive_preferred_profile(trace)
        gaps = detect_gaps(normalize_timeline(trace, profile))
        assert [(g.cut_time, g.resume_time) for g in gaps] == \
            [(g.cut_time, g.resume_time) for g in schedule]


def test_normalization_is_noop_on_generated_traces():
    # cellular samples never see a preferred network, so every generated gap
    # survives normalization untouched
    trace = generate_trace(small_config(seed=5, days=5), "p")
    profile = derive_preferred_profile(trace)
    assert normalize_timeline(trace, profile) is trace


def test_down_up_ratio_matches_target():
    trace = generate_trace(small_config(seed=9, days=10), "p")
    up = sum(a.up_bytes for s in trace.samples for a in s.apps)
    down = sum(a.down_bytes for s in trace.samples for a in s.apps)
    assert down / up == pytest.approx(4.26, rel=0.05)


def test_small_corpus_statistics_near_targets():
    # loose smoke-level tolerances; the full-size corpus is checked in the
    # acceptance suite
    cfg = dataclasses.replace(reference_config(seed=77), days=30)
    durations = []
    cell = total = 0
    for p in range(4):
        trace, schedule = generate_trace_with_schedule(cfg, f"p{p}")
        durations += [g.duration_s for g in closed_gaps(schedule)]
        for s in trace.samples:
            b = s.total_bytes
            total += b
            if s.active_network is ActiveNetwork.CELLULAR:
                cell += b
    durations = np.asarray(durations)
    assert 0.50 <= (durations <= 1800).mean() <= 0.80
    assert 0.70 <= (durations <= 5400).mean() <= 0.92
    assert 0.05 <= cell / total <= 0.30


def test_gap_distribution_sampling_matches_cdf():
    dist = reference_config().gap_len_dist
    rng = seeded_rng(123)
    draws = np.array([dist.sample_hours(rng) for _ in range(20000)]) * 3600
    for q in (1800, 5400, 14400, 7200):
        assert abs((draws <= q).mean() - dist.cdf(q)) < 0.02


# sha256 of trace_to_jsonl / trace_to_csv of generate_trace(reference_config(seed=77,
# days=10), phone): any change to the RNG stream or to either writer moves them
_PINNED_DIGESTS = {
    "phone-000": ("4b297fb1e8c9f30f048d6796cf21a62d24dfea769edd4c4103b876dc77275bab",
                  "90a95bbc991781c5f11f6763e18a73636262c3147a87a721622ae5e333471acf"),
    "phone-001": ("87944d4b542ab677ee75e5e532a5689b0a71f83923689cb5d99b23a09841369e",
                  "d8b6fab6ab1a46c16603c15e1ecb6000e182bcd95b318a81e4e7813019ce9850"),
    "phone-002": ("d5d6532f9fcc31634951b0787607f032d406efe109751eea73293053b2de74be",
                  "826e37789606d834f8b0ec047afeb35af3958fd6a5238d314eed2ef468d1a101"),
}


@pytest.mark.parametrize("phone", sorted(_PINNED_DIGESTS))
def test_generated_bytes_match_the_pinned_digests(phone):
    trace = generate_trace(reference_config(seed=77, days=10), phone)
    jsonl, csv_ = _PINNED_DIGESTS[phone]
    assert hashlib.sha256(trace_to_jsonl(trace)).hexdigest() == jsonl
    assert hashlib.sha256(trace_to_csv(trace)).hexdigest() == csv_
