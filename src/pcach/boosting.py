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
exact greedy split finding). A round sums the weights of each label class
over that class's sorted rows alone; the errors are bit-identical to running
sums over whole columns, whose terms for the other class are +0.0 added to a
non-negative sum.

A row's margin is the same IEEE sum whatever the batch, BLAS library or SIMD
target, so a slot scores the same in a backtest, on a phone and one row at a
time. :meth:`AdaBoostModel.decision_margins` takes each stump's vote as
+-(polarity * alpha), an exact product, and folds the votes with a fixed
halving tree of elementwise adds: while r > 1 votes remain, the last
r // 2 are added onto the first r // 2. There is no ``@``: a BLAS dot
product sums in an order that depends on its kernel and on the batch size.
Training reweights by ``math.exp(+-alpha)``, not ``np.exp``, whose SIMD
paths differ from libm in the last bit on some inputs.
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
        signed = np.array([[s.polarity * s.alpha] for s in self.stumps])
        return (
            np.array([s.feature_index - 1 for s in self.stumps]),
            np.array([[s.threshold] for s in self.stumps]),
            signed,
            -signed,
        )

    def decision_margins(self, X: np.ndarray) -> np.ndarray:
        """The margin of each row of ``X``: the stump votes summed by the
        halving fold of the module docstring, bit for bit the same for a
        row however it is batched."""
        if not self.stumps:
            raise ModelError("model has no stumps")
        if type(X) is not np.ndarray or X.ndim != 2 or X.dtype != float:
            X = np.atleast_2d(np.asarray(X, dtype=float))
        feats, thresholds, signed, negated = self._packed
        votes = np.where(X.T[feats] > thresholds, signed, negated)
        left = len(votes)
        while left > 1:
            half = left // 2
            votes[:half] += votes[left - half:left]
            left -= half
        return votes[0].copy()     # not a view that holds every vote

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
    sort order, its split boundaries (positions between consecutive distinct
    values, with their midpoint thresholds) and the label counts before each
    boundary are computed once per training: the pre-sorted column block of
    exact greedy split finding (Chen & Guestrin, "XGBoost", KDD 2016).

    The sorted rows of each label class are kept apart, in column order, so
    a round sums each class over its own rows alone. A boundary reads the
    sum of its class's rows before it, with a leading zero for none. That is
    the running sum over the whole column in which the rows of the other
    class add +0.0: adding +0.0 to a non-negative sum leaves its bits as
    they were, so every error is bit-identical to the full-length sums.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        order = np.argsort(X, axis=0, kind="stable").T
        n_features, n = order.shape
        v = np.take_along_axis(X, order.T, axis=0).T
        positive = y[order] > 0
        n_pos = int(positive[0].sum())
        # each column's +1 rows, then its -1 rows, in sorted order
        self.pos_order = np.ascontiguousarray(order[positive].reshape(n_features, n_pos))
        self.neg_order = np.ascontiguousarray(order[~positive].reshape(n_features, n - n_pos))
        bounds = [np.nonzero(col[1:] > col[:-1])[0] for col in v]
        self.thresholds = [(col[b] + col[b + 1]) / 2.0 for col, b in zip(v, bounds)]
        # every column's boundaries as flat positions into the class sums,
        # each row led by a zero: the +1 rows up to the boundary, the -1 rows
        # up to it and all of the column's -1 rows
        none = np.zeros(0, dtype=np.int64)
        pos_before = np.cumsum(positive, axis=1)
        self.at_pos = np.concatenate([none, *(f * (n_pos + 1) + pos_before[f, b]
                                              for f, b in enumerate(bounds))])
        self.at_neg = np.concatenate([none, *(f * (n - n_pos + 1) + b + 1 - pos_before[f, b]
                                              for f, b in enumerate(bounds))])
        self.at_total = np.concatenate([none, *(np.full(b.size, f * (n - n_pos + 1) + n - n_pos)
                                                for f, b in enumerate(bounds))])
        starts = np.cumsum([0] + [b.size for b in bounds])
        self.starts = starts.tolist()
        # the columns that are not constant, and where their boundaries start
        self.features = [f for f in range(n_features) if starts[f] < starts[f + 1]]
        self.feature_starts = starts[self.features]
        self._weights = (np.empty((n_features, n_pos)), np.empty((n_features, n - n_pos)))
        self._sums = (np.zeros((n_features, n_pos + 1)), np.zeros((n_features, n - n_pos + 1)))

    def best_stump(self, w: np.ndarray):
        """Exhaustive weighted-error search over features and midpoint
        thresholds: (eps, feature_idx0, threshold, polarity), None when every
        column is constant. Ties go to the lower feature, then polarity +1,
        then the lower threshold."""
        if not self.features:
            return None
        for order, weights, sums in zip((self.pos_order, self.neg_order),
                                        self._weights, self._sums):
            np.take(w, order, out=weights)
            np.cumsum(weights, axis=1, out=sums[:, 1:])
        pos, neg = self._sums[0].ravel(), self._sums[1].ravel()
        # predicting +1 strictly above the threshold placed after position i
        eps_pos = pos[self.at_pos] + (neg[self.at_total] - neg[self.at_neg])
        eps_neg = 1.0 - eps_pos
        # each column's lowest error of either polarity; only the winner's
        # position is looked up
        lowest_pos = np.minimum.reduceat(eps_pos, self.feature_starts).tolist()
        lowest_neg = np.minimum.reduceat(eps_neg, self.feature_starts).tolist()
        best = None  # (eps, feature_idx0, polarity)
        for f, low_pos, low_neg in zip(self.features, lowest_pos, lowest_neg):
            for eps, polarity in ((low_pos, 1), (low_neg, -1)):
                if best is None or eps < best[0] - 1e-15:
                    best = (eps, f, polarity)
        eps, f, polarity = best
        errors = eps_pos if polarity == 1 else eps_neg
        i = int(np.argmin(errors[self.starts[f]:self.starts[f + 1]]))
        return eps, f, self.thresholds[f][i], polarity


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
        w = w * np.where(y * h > 0, math.exp(-alpha), math.exp(alpha))
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
