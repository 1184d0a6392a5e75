"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

The statistical criteria run on the fixed-seed reference corpus (100 phones
x 60 days); the property criteria run on seeded random inputs against
independent oracles.
"""

import dataclasses
import subprocess
import sys
import time

import numpy as np
import pytest

import conftest
from pcach.boosting import AdaBoostModel, train_adaboost_xy
from pcach.evaluation import (
    ConfusionCounts,
    app_prediction_run,
    backtest,
    k_sweep,
    macro_average,
    quality_gap,
    tpr_fpr,
)
from pcach.history import HistoryDB, history_predict_event, predict_top_k_apps
from pcach.mining import precache_bound, traffic_split
from pcach.pipeline import PCachConfig, PredictorKind
from pcach.synth import generate_trace, reference_config
from pcach.trace import (
    ActiveNetwork,
    MeasurementSample,
    Trace,
    closed_gaps,
    derive_preferred_profile,
    detect_gaps,
    normalize_timeline,
)

from helpers import (
    C,
    W,
    app,
    brute_force_gaps,
    cli_env,
    random_trace,
    sample,
    seeded_rng,
    tree_digest,
    usage_window,
)

CORPUS_SEED = 20260808
CORPUS_PHONES = 100
CORPUS_DAYS = 60


def emit(criterion: int, ok: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def corpus_config():
    return dataclasses.replace(reference_config(seed=CORPUS_SEED), days=CORPUS_DAYS)


def corpus_phone_ids():
    return [f"phone-{i:03d}" for i in range(CORPUS_PHONES)]


# ---------------------------------------------------------------------------
# 1. gap detection equals the brute-force scanner
# ---------------------------------------------------------------------------

def test_criterion_1_gap_detection_oracle_equivalence():
    rng = seeded_rng(1001)
    start = time.monotonic()
    checked = 0
    for _ in range(1000):
        trace = random_trace(rng, n_min=5, n_max=140)
        assert detect_gaps(trace) == brute_force_gaps(trace)
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 1000 and elapsed < 30.0
    emit(1, ok, f"{checked} random traces match the quadratic oracle in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. pre-cache bound properties
# ---------------------------------------------------------------------------

def _gap_only_trace(rng):
    """Regular spacing, WiFi first, no off-network samples: every cellular
    sample then belongs to a detected gap."""
    n = int(rng.integers(10, 80))
    states = [W] + [(C if rng.random() < 0.4 else W) for _ in range(n)]
    samples = []
    for i, st in enumerate(states):
        samples.append(sample(i * 300, st,
                              apps=(app("a", down=int(rng.integers(1, 1000))),)))
    return Trace("b", tuple(samples))


def test_criterion_2_bound_monotonicity_and_extremes():
    rng = seeded_rng(2002)
    horizons = [0, 300, 900, 1800, 3600, 7200, 86400]
    mono_ok = True
    for _ in range(200):
        t = random_trace(rng, with_apps=True)
        gaps = detect_gaps(t)
        vals = [precache_bound(t, gaps, h) for h in horizons]
        mono_ok &= all(0.0 <= v <= 1.0 for v in vals)
        mono_ok &= all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        mono_ok &= vals[0] == 0.0

    extreme_ok = True
    tested = 0
    while tested < 50:
        t = _gap_only_trace(rng)
        gaps = detect_gaps(t)
        cellular = sum(s.total_bytes for s in t.samples
                       if s.active_network is ActiveNetwork.CELLULAR)
        if cellular == 0:
            continue
        tested += 1
        longest = max((g.duration_s or 0) for g in gaps) if gaps else 0
        extreme_ok &= precache_bound(t, gaps, longest + 86400) == 1.0
        extreme_ok &= precache_bound(t, gaps, 0) == 0.0
    ok = mono_ok and extreme_ok
    emit(2, ok, "monotone on 200 random traces; exact 0/1 at horizon extremes on 50")
    assert ok


# ---------------------------------------------------------------------------
# 3. corpus-level aggregate reproduction
# ---------------------------------------------------------------------------

def test_criterion_3_reference_corpus_aggregates():
    start = time.monotonic()
    cfg = corpus_config()
    durations = []
    cell_total = wifi_total = 0
    covered_2h = 0.0
    for phone in corpus_phone_ids():
        trace = generate_trace(cfg, phone)
        profile = derive_preferred_profile(trace)
        norm = normalize_timeline(trace, profile)
        gaps = detect_gaps(norm)
        split = traffic_split(norm)
        cell_total += split.cellular_bytes
        wifi_total += split.wifi_bytes
        durations += [g.duration_s for g in closed_gaps(gaps)]
        covered_2h += precache_bound(norm, gaps, 7200) * split.cellular_bytes
    elapsed = time.monotonic() - start

    share = cell_total / (cell_total + wifi_total)
    durations = np.asarray(durations)
    cdf30 = float((durations <= 1800).mean())
    cdf90 = float((durations <= 5400).mean())
    cdf240 = float((durations <= 14400).mean())
    bound2h = covered_2h / cell_total

    ok = (
        0.10 <= share <= 0.20
        and abs(cdf30 - 0.65) <= 0.10
        and abs(cdf90 - 0.80) <= 0.10
        and abs(cdf240 - 0.90) <= 0.10
        and 0.70 <= bound2h <= 0.90
        and elapsed < 300.0
    )
    emit(3, ok, f"share={share:.3f} cdf(30/90/240min)=({cdf30:.3f},{cdf90:.3f},"
                f"{cdf240:.3f}) bound(2h)={bound2h:.3f} in {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 4. top-K selection properties and the quality-gap minimum
# ---------------------------------------------------------------------------

def test_criterion_4_topk_nesting_and_quality_gap_minimum():
    cfg = corpus_config()
    s_apps = cfg.pcachable_apps

    # per-slot selections are nested in K (exact)
    rng = seeded_rng(4004)
    db = HistoryDB(slot_minutes=15, tracked_apps=s_apps)
    for a in s_apps:
        db.app_hist[a][:] = rng.integers(0, 40, size=db.n_slots)
    nested_ok = True
    for slot in range(0, 96, 7):
        prev = set()
        for k in range(1, len(s_apps) + 1):
            cur = set(predict_top_k_apps(usage_window(db, s_apps, slot, slot), s_apps, k))
            nested_ok &= prev <= cur and len(cur) == k
            prev = cur

    # K = |sApps| gives perfect recall on gaps with non-empty ground truth
    full_k_ok = True
    for phone in corpus_phone_ids()[:5]:
        trace = generate_trace(cfg, phone)
        run = app_prediction_run(trace, s_apps, [len(s_apps)])
        counts = run.counts_by_k[len(s_apps)]
        full_k_ok &= counts.fn == 0 and counts.tp > 0

    # the quality-gap curve over the corpus bottoms out inside [5, 20]
    traces = (generate_trace(cfg, p) for p in corpus_phone_ids())
    points = k_sweep(traces, s_apps, ks=(1, 2, 3, 4, 5, 6, 7, 10, 15, 20, 25, 30))
    best = min(points, key=lambda p: p.quality_gap)
    range_ok = 5 <= best.k <= 20

    ok = nested_ok and full_k_ok and range_ok
    curve = " ".join(f"K{p.k}={p.quality_gap:.3f}" for p in points)
    emit(4, ok, f"nested selections, full-K recall=1, K*={best.k} ({curve})")
    assert ok


# ---------------------------------------------------------------------------
# 5. Monte-Carlo event rule against the exact binomial
# ---------------------------------------------------------------------------

def test_criterion_5_history_event_rule():
    from scipy.stats import binom

    degenerate_ok = True
    for seed in range(10000):
        rng = seeded_rng(seed)
        if history_predict_event(0.0, 10000, 0.1, rng) is not False:
            degenerate_ok = False
            break
        if history_predict_event(1.0, 10000, 0.1, rng) is not True:
            degenerate_ok = False
            break

    p, n, delta = 0.02, 10000, 0.1
    lo = int(np.ceil((1 - delta) * p * n))
    hi = int(np.floor((1 + delta) * p * n))
    exact = float(binom.cdf(hi, n, p) - binom.cdf(lo - 1, n, p))
    rng = seeded_rng(50005)
    trials = 10000
    hits = sum(history_predict_event(p, n, delta, rng) for _ in range(trials))
    rate = hits / trials
    rate_ok = abs(rate - exact) <= 0.02

    ok = degenerate_ok and rate_ok
    emit(5, ok, f"p=0/p=1 exact over 10000 seeds; acceptance {rate:.4f} vs "
                f"binomial {exact:.4f} (delta {abs(rate - exact):.4f})")
    assert ok


# ---------------------------------------------------------------------------
# 6. boosting internals
# ---------------------------------------------------------------------------

def test_criterion_6_adaboost_correctness():
    rng = seeded_rng(6006)

    norm_ok = eps_ok = True
    for _ in range(5):
        X = rng.normal(size=(300, 9))
        y = np.where(X[:, 8] + 0.8 * rng.normal(size=300) > 0, 1, -1)
        if (y == y[0]).all():
            continue
        model = train_adaboost_xy(X, y, rounds=40)
        for entry in model.training_log:
            norm_ok &= abs(entry.weight_sum - 1.0) < 1e-9
            eps_ok &= entry.epsilon < 0.5

    separable_ok = True
    for _ in range(10):
        f = int(rng.integers(0, 9))
        theta = float(rng.normal())
        X = rng.normal(size=(100, 9))
        y = np.where(X[:, f] > theta, 1, -1)
        if (y == y[0]).all():
            continue
        # brute-force separability check before asserting on the trainer
        sep = False
        for ff in range(9):
            vals = np.unique(X[:, ff])
            for t in (vals[1:] + vals[:-1]) / 2:
                for pol in (1, -1):
                    pred = np.where(X[:, ff] > t, pol, -pol)
                    if (pred == y).all():
                        sep = True
        separable_ok &= sep
        model = train_adaboost_xy(X, y, rounds=50)
        separable_ok &= len(model.stumps) <= 3
        separable_ok &= bool((np.sign(model.decision_margins(X)) == y).all())

    X = rng.normal(size=(150, 9))
    y = np.where(X[:, 3] > 0.2, 1, -1)
    model = train_adaboost_xy(X, y, rounds=25)
    perm = rng.permutation(len(model.stumps))
    shuffled = AdaBoostModel(stumps=tuple(model.stumps[i] for i in perm),
                             rounds=model.rounds)
    probe = rng.normal(size=(40, 9))
    perm_ok = bool(np.array_equal(
        np.sort([model.decision_margins(probe)], axis=1),
        np.sort([shuffled.decision_margins(probe)], axis=1),
    )) and np.allclose(model.decision_margins(probe),
                       shuffled.decision_margins(probe), atol=1e-12)

    ok = norm_ok and eps_ok and separable_ok and perm_ok
    emit(6, ok, "weight normalization < 1e-9, stump errors < 0.5, separable "
                "data solved in <= 3 rounds, permutation-invariant margins")
    assert ok


# ---------------------------------------------------------------------------
# 7. predictor comparison on the reference corpus
# ---------------------------------------------------------------------------

def test_criterion_7_adaboost_beats_history_without_leakage():
    start = time.monotonic()
    cfg = corpus_config()
    s_apps = cfg.pcachable_apps
    hist_reports, ada_reports = [], []
    for phone in corpus_phone_ids():
        trace = generate_trace(cfg, phone)
        hist_reports.append(backtest(
            trace, PCachConfig(k=7, s_apps=s_apps,
                               predictor_kind=PredictorKind.HISTORY), seed=0))
        ada_reports.append(backtest(
            trace, PCachConfig(k=7, s_apps=s_apps,
                               predictor_kind=PredictorKind.ADABOOST), seed=0))
    hist_pt = macro_average(hist_reports, "cut")
    ada_pt = macro_average(ada_reports, "cut")
    dominance = ada_pt.tpr >= hist_pt.tpr and ada_pt.fpr < hist_pt.fpr

    # leakage check: poisoning the test period leaves trained artifacts intact
    trace = generate_trace(cfg, "phone-000")
    leak_ok = True
    for kind in (PredictorKind.HISTORY, PredictorKind.ADABOOST):
        config = PCachConfig(k=7, s_apps=s_apps, predictor_kind=kind)
        clean = backtest(trace, config, seed=0)
        poisoned_samples = list(trace.samples[:clean.split_index]) + [
            MeasurementSample(s.timestamp, ActiveNetwork.NONE, None,
                              frozenset(), ())
            for s in trace.samples[clean.split_index:]
        ]
        poisoned = backtest(Trace(trace.phone_id, tuple(poisoned_samples),
                                  trace.nominal_period_s), config, seed=0)
        leak_ok &= clean.trained_digest == poisoned.trained_digest

    elapsed = time.monotonic() - start
    ok = dominance and leak_ok and elapsed < 600.0
    emit(7, ok, f"history=({hist_pt.tpr:.3f},{hist_pt.fpr:.3f}) "
                f"adaboost=({ada_pt.tpr:.3f},{ada_pt.fpr:.3f}) "
                f"leak-free={leak_ok} in {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 8. metric anchors
# ---------------------------------------------------------------------------

def test_criterion_8_metric_anchors():
    anchors_ok = (
        quality_gap(1.0, 0.0) == 0.0
        and quality_gap(0.0, 1.0) == pytest.approx(1.0)
        and quality_gap(0.5, 0.5) == pytest.approx(0.5)
    )
    rng = seeded_rng(8008)
    rates_ok = True
    for _ in range(1000):
        tp, fp, fn, tn = (int(x) for x in rng.integers(0, 40, size=4))
        if tp + fn == 0 or fp + tn == 0:
            continue
        tpr, fpr = tpr_fpr(ConfusionCounts(tp, fp, fn, tn))
        rates_ok &= tpr == tp / (tp + fn)
        rates_ok &= fpr == fp / (fp + tn)
    ok = anchors_ok and rates_ok
    emit(8, ok, "quality-gap anchors exact; rates match direct arithmetic")
    assert ok


# ---------------------------------------------------------------------------
# 9. end-to-end determinism through the command line
# ---------------------------------------------------------------------------

def _run_cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "pcach", *args],
                          cwd=cwd, env=cli_env(), capture_output=True, text=True)


def test_criterion_9_end_to_end_determinism(tmp_path):
    digests = []
    for name in ("run1", "run2"):
        root = tmp_path / name
        root.mkdir()
        for args in (
            ["generate", "--phones", "3", "--days", "10", "--seed", "77",
             "--out", "traces"],
            ["mine", "--traces", "traces", "--out", "mined"],
            ["backtest", "--traces", "traces", "--predictor", "history",
             "--k", "7", "--seed", "77", "--out", "bt-history"],
            ["backtest", "--traces", "traces", "--predictor", "adaboost",
             "--k", "7", "--seed", "77", "--split", "0.5", "--out", "bt-ada"],
            ["sweep-k", "--traces", "traces", "--ks", "1,3,7",
             "--train-days", "5", "--out", "sweep"],
        ):
            res = _run_cli(args, cwd=root)
            assert res.returncode == 0, res.stderr
        digests.append(tree_digest(root))
    ok = digests[0] == digests[1] and len(digests[0]) > 10
    emit(9, ok, f"two full pipeline runs produced {len(digests[0])} "
                "byte-identical files")
    assert ok
