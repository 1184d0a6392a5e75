"""Boosted decision stumps for cut/resume classification.

Discrete two-class boosting over axis-aligned stumps: each round picks the
(feature, threshold, polarity) stump with the lowest weighted error, weights
it by alpha = 0.5*ln((1-eps)/eps) and re-weights the examples
multiplicatively. Thresholds are midpoints between consecutive distinct
observed feature values, which puts boolean splits at 0.5. Rounds stop early
once no stump beats chance (eps >= 0.5, stump rejected) or a stump is
perfect (eps ~ 0, stump kept); eps is clamped away from 0 and 1 to keep
alpha finite (Freund & Schapire, 1997).

Only the example weights change between rounds, so each feature column is
sorted once per training and every round's exhaustive search reuses the
orders, sorted labels and split boundaries (the pre-sorted column block of
exact greedy split finding). :meth:`AdaBoostModel.exact_margins` scores
many rows with one margins call, such that every comparison with a given
threshold answers as one-row calls would.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    FINITE,
    INTEGER,
    LIST,
    DegenerateDataError,
    ModelError,
    ParameterError,
    read_fields,
    read_json,
)
from .history import N_FEATURES, FeatureVector

EPS_CLAMP = 1e-10
DEFAULT_ROUNDS = 50
# relative bound on how far two summation orders of one margin can drift
_MARGIN_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Stump:
    """One-feature threshold classifier: polarity * sign(x[f] - threshold)."""

    feature_index: int          # 1-based, matching the feature table
    threshold: float
    polarity: int               # +1 or -1
    alpha: float

    def __post_init__(self):
        if not 1 <= self.feature_index <= N_FEATURES:
            raise ParameterError(f"feature_index {self.feature_index} outside 1..{N_FEATURES}")
        if self.polarity not in (-1, 1):
            raise ParameterError("polarity must be +1 or -1")
        if not math.isfinite(self.alpha):
            raise ParameterError("stump weight must be finite")

    def predict(self, X: np.ndarray) -> np.ndarray:
        col = X[:, self.feature_index - 1]
        out = np.where(col > self.threshold, self.polarity, -self.polarity)
        return out.astype(np.int64)


@dataclass(frozen=True)
class RoundLog:
    """Diagnostics of one boosting round, kept for invariant checks."""

    epsilon: float
    alpha: float
    weight_sum: float           # example-weight total after re-normalization


@dataclass(frozen=True)
class AdaBoostModel:
    stumps: tuple[Stump, ...]
    rounds: int                 # configured round budget; len(stumps) <= rounds
    decision_threshold: float = 0.0
    training_log: tuple[RoundLog, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if len(self.stumps) > self.rounds:
            raise ParameterError("more stumps than configured rounds")

    @cached_property
    def _packed(self) -> tuple[np.ndarray, ...]:
        polarities = np.array([s.polarity for s in self.stumps], dtype=float)
        return (
            np.array([s.alpha for s in self.stumps]),
            np.array([s.feature_index - 1 for s in self.stumps]),
            np.array([s.threshold for s in self.stumps]),
            polarities,
            -polarities,
        )

    def decision_margins(self, X: np.ndarray) -> np.ndarray:
        if not self.stumps:
            raise ModelError("model has no stumps")
        if type(X) is not np.ndarray or X.ndim != 2 or X.dtype != float:
            X = np.atleast_2d(np.asarray(X, dtype=float))
        alphas, feats, thresholds, polarities, negated = self._packed
        preds = np.where(X[:, feats] > thresholds, polarities, negated)
        return preds @ alphas

    def exact_margins(self, X: np.ndarray, values) -> np.ndarray:
        """:meth:`decision_margins` of the rows of ``X`` from one batched
        call, such that comparing row ``i``'s margin with any of ``values``
        gives the answer of a one-row call on ``X[i:i + 1]``.

        A batched margin and a one-row margin may differ in the last bits
        (the sums run in another order), so a margin within rounding
        distance of one of ``values`` is replaced by its one-row margin.
        """
        margins = self.decision_margins(X)
        near = np.zeros(len(margins), dtype=bool)
        for value in values:
            near |= np.abs(margins - value) <= _MARGIN_TOLERANCE * (self._alpha_total
                                                                     + abs(value))
        for i in np.flatnonzero(near).tolist():
            margins[i] = self.decision_margins(X[i:i + 1])[0]
        return margins

    @cached_property
    def _alpha_total(self) -> float:
        return float(sum(abs(s.alpha) for s in self.stumps))

    def to_json(self) -> str:
        return json.dumps({
            "rounds": self.rounds,
            "stumps": [
                {"feature": s.feature_index, "threshold": s.threshold,
                 "polarity": s.polarity, "alpha": s.alpha}
                for s in self.stumps
            ],
            "decision_threshold": self.decision_threshold,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "AdaBoostModel":
        """The model a :meth:`to_json` text holds. Invalid JSON, a key
        missing from or unknown to the key tables below, a value its pair
        refuses and a ``rounds`` below the number of stumps raise
        :class:`ModelError` naming the key."""
        d = read_fields(read_json(text, "model", ModelError), "model", _MODEL, ModelError)
        stumps = []
        for i, s in enumerate(d["stumps"]):
            s = read_fields(s, f"stumps[{i}]", _STUMP, ModelError)
            stumps.append(Stump(s["feature"], s["threshold"], s["polarity"], s["alpha"]))
        if not len(stumps) <= d["rounds"] < 2**63:
            raise ModelError(f"model key 'rounds' must be an integer of at least {len(stumps)}, "
                             f"the number of stumps, got {d['rounds']!r}")
        return cls(tuple(stumps), d["rounds"], d["decision_threshold"])


# the key tables of a model text and of each of its stumps
_MODEL = {"rounds": INTEGER, "stumps": LIST, "decision_threshold": FINITE}
_STUMP = {"feature": (lambda v: type(v) is int and 1 <= v <= N_FEATURES,
                      f"an integer in 1..{N_FEATURES}"),
          "threshold": FINITE, "alpha": FINITE,
          "polarity": (lambda v: type(v) is int and v in (-1, 1), "1 or -1")}


class _PresortedColumns:
    """Each feature column of a training matrix sorted once, for every round.

    Only the example weights change between rounds, so each column's stable
    sort order, its sorted label signs and its split boundaries (positions
    between consecutive distinct values, with their midpoint thresholds) are
    computed once per training: the pre-sorted column block of exact greedy
    split finding (Chen & Guestrin, "XGBoost", KDD 2016). The rounds' running
    sums reuse one set of buffers.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        n_features, n = self.order.shape
        v = np.take_along_axis(X, self.order.T, axis=0).T
        ys = y[self.order]
        self.positive, self.negative = ys > 0, ys < 0
        bounds = [np.nonzero(col[1:] > col[:-1])[0] for col in v]
        self.thresholds = [(col[b] + col[b + 1]) / 2.0 for col, b in zip(v, bounds)]
        # every column's boundaries as flat positions into the running sums
        # of the +1 labels (rows :n_features) and the -1 labels (the rest),
        # with the position of each -1 column's total
        none = np.zeros(0, dtype=np.int64)
        self.at_pos = np.concatenate([none, *(f * n + b for f, b in enumerate(bounds))])
        self.at_neg = self.at_pos + n_features * n
        self.at_total = np.concatenate([none, *(np.full(b.size, (n_features + f) * n + n - 1)
                                                for f, b in enumerate(bounds))])
        self.starts = np.cumsum([0] + [b.size for b in bounds]).tolist()
        self._weights = np.empty((n_features, n))
        self._product = np.empty((n_features, n))
        self._sums = np.empty((2 * n_features, n))

    def best_stump(self, w: np.ndarray):
        """Exhaustive weighted-error search over features and midpoint
        thresholds: (eps, feature_idx0, threshold, polarity), None when every
        column is constant. Ties go to the lower feature, then polarity +1,
        then the lower threshold."""
        weights, product, sums = self._weights, self._product, self._sums
        n_features = len(weights)
        np.take(w, self.order, out=weights)
        np.multiply(weights, self.positive, out=product)
        np.cumsum(product, axis=1, out=sums[:n_features])
        np.multiply(weights, self.negative, out=product)
        np.cumsum(product, axis=1, out=sums[n_features:])
        flat = sums.ravel()
        # predicting +1 strictly above the threshold placed after position i
        eps_pos = flat[self.at_pos] + (flat[self.at_total] - flat[self.at_neg])
        eps_neg = 1.0 - eps_pos
        best = None  # (eps, feature_idx0, threshold, polarity)
        starts = self.starts
        for f in range(n_features):
            lo, hi = starts[f], starts[f + 1]
            if lo == hi:
                continue
            for eps_arr, polarity in ((eps_pos[lo:hi], 1), (eps_neg[lo:hi], -1)):
                i = int(np.argmin(eps_arr))
                eps = float(eps_arr[i])
                if best is None or eps < best[0] - 1e-15:
                    best = (eps, f, self.thresholds[f][i], polarity)
        return best


def train_adaboost_xy(X, y, rounds: int = DEFAULT_ROUNDS,
                      decision_threshold: float = 0.0) -> AdaBoostModel:
    """Fit boosted stumps on feature rows X and labels y in {-1, +1}."""
    if rounds < 1:
        raise ParameterError("rounds must be at least 1")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise DegenerateDataError("dataset is empty or malformed")
    if not np.isin(y, (-1, 1)).all():
        raise DegenerateDataError("labels must be +1 or -1")
    y = y.astype(np.int64)
    if not (np.any(y > 0) and np.any(y < 0)):
        raise DegenerateDataError("training data must contain both labels")

    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    columns = _PresortedColumns(X, y)
    stumps: list[Stump] = []
    log: list[RoundLog] = []
    for _ in range(rounds):
        found = columns.best_stump(w)
        if found is None:
            break
        eps, f, threshold, polarity = found
        if eps >= 0.5 - 1e-12:
            break
        eps_c = min(max(eps, EPS_CLAMP), 1.0 - EPS_CLAMP)
        alpha = 0.5 * math.log((1.0 - eps_c) / eps_c)
        stump = Stump(feature_index=f + 1, threshold=float(threshold),
                      polarity=polarity, alpha=alpha)
        stumps.append(stump)
        h = stump.predict(X)
        w = w * np.exp(-alpha * y * h)
        w = w / w.sum()
        log.append(RoundLog(epsilon=eps, alpha=alpha, weight_sum=float(w.sum())))
        if eps <= EPS_CLAMP:
            break  # perfect stump: nothing left to reweight
    return AdaBoostModel(stumps=tuple(stumps), rounds=rounds,
                         decision_threshold=decision_threshold,
                         training_log=tuple(log))


def adaboost_predict(model: AdaBoostModel, fv: FeatureVector) -> tuple[int, float]:
    """(label, margin) for one feature vector; margin ties resolve to -1."""
    margin = float(model.decision_margins(fv.as_array()[None, :])[0])
    label = 1 if margin > model.decision_threshold else -1
    return label, margin
