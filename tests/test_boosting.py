import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcach import boosting
from pcach.boosting import (
    AdaBoostModel,
    Stump,
    _PresortedColumns,
    adaboost_predict,
    train_adaboost_xy,
)
from pcach.errors import DegenerateDataError, ModelError, ParameterError
from pcach.history import FeatureVector

from helpers import mutated_json, seeded_rng
from oracles import best_stump_oracle


def fv(n_visible=0, slot=0, prob=0.0):
    return FeatureVector(False, False, True, n_visible, False, False, False,
                         slot, prob)


def _pad(rows):
    """Embed a 1-D feature (as n_visible) into full 9-wide feature rows."""
    X = np.zeros((len(rows), 9))
    X[:, 3] = rows
    return X


def brute_force_best_stump(X, y, w):
    """All (feature, midpoint, polarity) combinations, minimum weighted error."""
    best = None
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        mids = (vals[1:] + vals[:-1]) / 2
        for theta, pol in itertools.product(mids, (1, -1)):
            pred = np.where(X[:, f] > theta, pol, -pol)
            eps = w[pred != y].sum()
            if best is None or eps < best[0] - 1e-15:
                best = (eps, f, theta, pol)
    return best


# ---------------------------------------------------------------------------
# training on small constructions
# ---------------------------------------------------------------------------

def test_one_dimensional_split_found_exactly():
    X = _pad([1.0, 3.0])
    y = np.array([-1, 1])
    model = train_adaboost_xy(X, y, rounds=10)
    assert len(model.stumps) == 1
    stump = model.stumps[0]
    assert stump.feature_index == 4          # n_visible is feature 4
    assert stump.threshold == pytest.approx(2.0)
    assert stump.polarity == 1
    # zero training error
    margins = model.decision_margins(X)
    assert (np.sign(margins) == y).all()
    # brute-force oracle agrees the best error is zero at that split
    eps, f, theta, pol = brute_force_best_stump(X, y, np.array([0.5, 0.5]))
    assert eps == 0.0 and f == 3 and theta == pytest.approx(2.0) and pol == 1


def test_each_round_matches_brute_force_stump_search():
    rng = seeded_rng(5)
    X = rng.normal(size=(40, 9)).round(1)
    y = np.where(rng.random(40) < 0.5, 1, -1)
    if (y == y[0]).all():
        y[0] = -y[0]
    w = np.full(40, 1 / 40)
    from pcach.boosting import _PresortedColumns
    columns = _PresortedColumns(X, y)
    for _ in range(5):
        got = columns.best_stump(w)
        want = brute_force_best_stump(X, y, w)
        assert got[0] == pytest.approx(want[0])
        # re-weight with the found stump to follow the boosting trajectory
        eps, f, theta, pol = got
        eps = min(max(eps, 1e-10), 1 - 1e-10)
        alpha = 0.5 * np.log((1 - eps) / eps)
        pred = np.where(X[:, f] > theta, pol, -pol)
        w = w * np.exp(-alpha * y * pred)
        w = w / w.sum()


def test_separable_dataset_reaches_zero_error_quickly():
    rng = seeded_rng(31)
    for trial in range(10):
        f = int(rng.integers(0, 9))
        theta = float(rng.normal())
        X = rng.normal(size=(100, 9))
        y = np.where(X[:, f] > theta, 1, -1)
        if (y == y[0]).all():
            continue
        # verify stump-separability by brute force before asserting on it
        eps, *_ = brute_force_best_stump(X, y, np.full(100, 0.01))
        assert eps == 0.0
        model = train_adaboost_xy(X, y, rounds=50)
        assert len(model.stumps) <= 3
        assert (np.sign(model.decision_margins(X)) == y).all()


def test_no_information_data_stops_without_stumps():
    # identical feature vectors with opposite labels: every stump has
    # weighted error exactly 0.5, so training stops almost immediately
    X = np.zeros((10, 9))
    y = np.array([1, -1] * 5)
    model = train_adaboost_xy(X, y, rounds=20)
    assert len(model.stumps) <= 1


def test_single_label_dataset_rejected():
    X = np.zeros((4, 9))
    with pytest.raises(DegenerateDataError):
        train_adaboost_xy(X, np.ones(4), rounds=5)
    with pytest.raises(DegenerateDataError):
        train_adaboost_xy(np.empty((0, 9)), np.empty(0), rounds=5)


@pytest.mark.parametrize("bad", [0, 2, 0.5])
def test_label_outside_plus_minus_one_rejected(bad):
    X = np.arange(36, dtype=float).reshape(4, 9)
    with pytest.raises(DegenerateDataError, match="labels must be"):
        train_adaboost_xy(X, np.array([1, bad, -1, 1]), rounds=5)


def test_bad_round_count_rejected():
    with pytest.raises(ParameterError):
        train_adaboost_xy(np.zeros((2, 9)), np.array([1, -1]), rounds=0)


# ---------------------------------------------------------------------------
# boosting invariants
# ---------------------------------------------------------------------------

def _noisy_dataset(seed, n=200):
    rng = seeded_rng(seed)
    X = rng.normal(size=(n, 9))
    y = np.where(X[:, 8] + 0.7 * rng.normal(size=n) > 0, 1, -1)
    if (y == y[0]).all():
        y[0] = -y[0]
    return X, y


def test_weights_normalized_every_round_and_errors_below_half():
    for seed in (1, 2, 3):
        X, y = _noisy_dataset(seed)
        model = train_adaboost_xy(X, y, rounds=30)
        assert model.training_log, "expected at least one round"
        for entry in model.training_log:
            assert abs(entry.weight_sum - 1.0) < 1e-9
            assert entry.epsilon < 0.5
            assert entry.alpha > 0


def test_prediction_invariant_to_stump_permutation():
    X, y = _noisy_dataset(7)
    model = train_adaboost_xy(X, y, rounds=15)
    assert len(model.stumps) > 3
    rng = seeded_rng(0)
    perm = list(range(len(model.stumps)))
    rng.shuffle(perm)
    shuffled = AdaBoostModel(
        stumps=tuple(model.stumps[i] for i in perm),
        rounds=model.rounds,
        decision_threshold=model.decision_threshold,
    )
    np.testing.assert_allclose(model.decision_margins(X),
                               shuffled.decision_margins(X), rtol=0, atol=1e-12)


def test_margins_match_per_stump_resummation_oracle():
    X, y = _noisy_dataset(11)
    model = train_adaboost_xy(X, y, rounds=10)
    rng = seeded_rng(2)
    probe = rng.normal(size=(25, 9))
    margins = model.decision_margins(probe)
    for row, margin in zip(probe, margins):
        acc = 0.0
        for s in model.stumps:
            val = row[s.feature_index - 1]
            acc += s.alpha * (s.polarity if val > s.threshold else -s.polarity)
        assert margin == pytest.approx(acc, abs=1e-12)


# ---------------------------------------------------------------------------
# prediction semantics and serialization
# ---------------------------------------------------------------------------

def test_single_stump_prediction_and_tie_rule():
    stump = Stump(feature_index=4, threshold=2.0, polarity=1, alpha=0.8)
    model = AdaBoostModel(stumps=(stump,), rounds=1)
    label, margin = adaboost_predict(model, fv(n_visible=5))
    assert (label, margin) == (1, pytest.approx(0.8))
    label, margin = adaboost_predict(model, fv(n_visible=1))
    assert (label, margin) == (-1, pytest.approx(-0.8))
    # symmetric stumps cancel: zero margin resolves to no-event
    twin = Stump(feature_index=4, threshold=2.0, polarity=-1, alpha=0.8)
    both = AdaBoostModel(stumps=(stump, twin), rounds=2)
    label, margin = adaboost_predict(both, fv(n_visible=5))
    assert margin == pytest.approx(0.0)
    assert label == -1


def test_empty_model_rejected_at_predict_time():
    model = AdaBoostModel(stumps=(), rounds=5)
    with pytest.raises(ModelError):
        adaboost_predict(model, fv())


def test_model_json_round_trip():
    X, y = _noisy_dataset(13)
    model = train_adaboost_xy(X, y, rounds=8, decision_threshold=0.25)
    clone = AdaBoostModel.from_json(model.to_json())
    assert clone.stumps == model.stumps
    assert clone.rounds == model.rounds
    assert clone.decision_threshold == model.decision_threshold
    assert clone.to_json() == model.to_json()


def _model_dict():
    model = AdaBoostModel(stumps=(Stump(4, 2.0, 1, 0.8), Stump(1, 0.5, -1, 0.3)), rounds=3,
                          decision_threshold=0.25)
    return json.loads(model.to_json())


@pytest.mark.parametrize("edit, named", [
    (lambda d: d["stumps"][0].pop("threshold"), "'threshold'"),
    (lambda d: d["stumps"][1].pop("alpha"), "'alpha'"),
    (lambda d: d.pop("decision_threshold"), "'decision_threshold'"),
    (lambda d: d.pop("rounds"), "'rounds'"),
    (lambda d: d.pop("stumps"), "'stumps'"),
    (lambda d: d["stumps"][0].update(threshold="2.0"), "'threshold'"),
    (lambda d: d["stumps"][0].update(threshold=float("nan")), "'threshold'"),
    (lambda d: d["stumps"][0].update(threshold=None), "'threshold'"),
    (lambda d: d["stumps"][1].update(alpha=float("inf")), "'alpha'"),
    (lambda d: d["stumps"][1].update(alpha=True), "'alpha'"),
    (lambda d: d.update(decision_threshold=float("nan")), "'decision_threshold'"),
    (lambda d: d.update(decision_threshold="0"), "'decision_threshold'"),
    (lambda d: d["stumps"].append(1.0), "stumps[2]"),
    ('{"stumps": [', "not valid JSON"),
    ("", "not valid JSON"),
    (b"\xff", "not valid JSON"),
    (lambda d: d.update(stumps=5), "'stumps'"),
    (lambda d: d["stumps"][0].update(feature="4"), "'feature'"),
    (lambda d: d.update(rounds="3"), "'rounds'"),
    (lambda d: d["stumps"][0].update(feature=12), "'feature'"),
    (lambda d: d["stumps"][1].update(polarity=2), "'polarity'"),
    (lambda d: d["stumps"][0].update(feature=True), "'feature'"),
    (lambda d: d.update(rounds=1), "'rounds'"),
    (lambda d: d["stumps"][1].update(alpha=10**400), "'alpha'"),
], ids=["no-threshold", "no-alpha", "no-decision-threshold", "no-rounds", "no-stumps",
        "string-threshold", "nan-threshold", "null-threshold", "inf-alpha", "bool-alpha",
        "nan-decision-threshold", "string-decision-threshold", "non-object-stump",
        "truncated-json", "empty-text", "invalid-utf8", "number-stumps", "string-feature",
        "string-rounds", "feature-past-nine", "polarity-two", "bool-feature",
        "fewer-rounds-than-stumps", "alpha-past-float-range"])
def test_model_json_errors_name_the_key(edit, named):
    if isinstance(edit, (str, bytes)):
        text = edit
    else:
        d = _model_dict()
        edit(d)
        text = json.dumps(d)
    with pytest.raises(ModelError) as exc:
        AdaBoostModel.from_json(text)
    assert named in str(exc.value)


@settings(deadline=None, max_examples=300)
@given(mutated_json(_model_dict))
def test_mutated_model_texts_raise_only_model_errors(text):
    try:
        model = AdaBoostModel.from_json(text)
    except ModelError:
        return
    assert AdaBoostModel.from_json(model.to_json()).to_json() == model.to_json()


def test_stump_validation():
    with pytest.raises(ParameterError):
        Stump(feature_index=0, threshold=0.0, polarity=1, alpha=0.1)
    with pytest.raises(ParameterError):
        Stump(feature_index=1, threshold=0.0, polarity=2, alpha=0.1)
    with pytest.raises(ParameterError):
        Stump(feature_index=1, threshold=0.0, polarity=1, alpha=float("inf"))


# ---------------------------------------------------------------------------
# the presorted stump search against the re-sorting oracle
# ---------------------------------------------------------------------------

@st.composite
def _weighted_data(draw):
    """Feature rows with tied values and constant columns, both labels and
    positive weights summing to one."""
    n = draw(st.integers(2, 40))
    columns = []
    for _ in range(9):
        values = draw(st.sampled_from([[0.0], [0.0, 1.0], [0.5, 1.5, 2.5, 7.0], [-3.0, 0.1]]))
        columns.append([draw(st.sampled_from(values)) for _ in range(n)])
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    labels[0], labels[1] = 1, -1
    weights = np.array(draw(st.lists(st.integers(1, 50), min_size=n, max_size=n)), dtype=float)
    return np.array(columns).T.copy(), np.array(labels), weights / weights.sum()


def _bits(found):
    if found is None:
        return None
    eps, f, threshold, polarity = found
    return np.float64(eps).tobytes(), f, np.float64(threshold).tobytes(), polarity


@settings(deadline=None, max_examples=300)
@given(_weighted_data())
def test_presorted_search_is_bitwise_the_resorting_search(data):
    X, y, w = data
    assert _bits(_PresortedColumns(X, y).best_stump(w)) == _bits(best_stump_oracle(X, y, w))


class _ResortingColumns:
    """The training's column search, re-sorting every round."""

    def __init__(self, X, y):
        self.X, self.y = X, y

    def best_stump(self, w):
        return best_stump_oracle(self.X, self.y, w)


@settings(deadline=None, max_examples=100)
@given(_weighted_data(), st.integers(1, 12))
def test_presorted_training_writes_the_resorting_model(data, rounds):
    X, y, _ = data
    model = train_adaboost_xy(X, y, rounds=rounds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boosting, "_PresortedColumns", _ResortingColumns)
        oracle = train_adaboost_xy(X, y, rounds=rounds)
    assert model.to_json() == oracle.to_json()
    assert model.training_log == oracle.training_log


def test_exact_margins_match_one_row_decisions():
    rng = seeded_rng(8)
    stumps = tuple(Stump(int(f), float(t), int(p), float(a)) for f, t, p, a in zip(
        rng.integers(1, 10, 40), rng.normal(size=40).round(1), rng.choice([-1, 1], 40),
        rng.random(40)))
    X = rng.normal(size=(300, 9)).round(1)
    model = AdaBoostModel(stumps, 40)
    one_row = np.array([model.decision_margins(X[i:i + 1])[0] for i in range(len(X))])
    # thresholds on the one-row margins themselves: the batched sums may
    # land a last bit away from them
    thresholds = [*one_row[::7], -100.0, 100.0]
    for thr in thresholds:
        margins = model.exact_margins(X, [thr])
        assert np.array_equal(margins > thr, one_row > thr)
    # one call serves every compared value at once
    margins = model.exact_margins(X, thresholds)
    for thr in thresholds:
        assert np.array_equal(margins > thr, one_row > thr)
        assert np.array_equal(margins == thr, one_row == thr)
