"""Boosted decision stumps for cut/resume classification.

Discrete two-class boosting over axis-aligned stumps: each round picks the
(feature, threshold, polarity) stump with the lowest weighted error, weights
it by alpha = 0.5*ln((1-eps)/eps) and re-weights the examples
multiplicatively. Thresholds are midpoints between consecutive distinct
observed feature values, which puts boolean splits at 0.5. Rounds stop early
once no stump beats chance (eps >= 0.5, stump rejected) or a stump is
perfect (eps ~ 0, stump kept); eps is clamped away from 0 and 1 to keep
alpha finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateDataError, ModelError, ParameterError
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
    def _packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.array([s.alpha for s in self.stumps]),
            np.array([s.feature_index - 1 for s in self.stumps]),
            np.array([s.threshold for s in self.stumps]),
            np.array([s.polarity for s in self.stumps], dtype=float),
        )

    def decision_margins(self, X: np.ndarray) -> np.ndarray:
        if not self.stumps:
            raise ModelError("model has no stumps")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        alphas, feats, thresholds, polarities = self._packed
        preds = np.where(X[:, feats] > thresholds, polarities, -polarities)
        return preds @ alphas

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
    def from_json(cls, text: str) -> "AdaBoostModel":
        """The model a :meth:`to_json` text holds. A missing key and a
        non-numeric or non-finite threshold, alpha or decision threshold
        raise :class:`ModelError` naming it."""
        d = json.loads(text)
        stumps = tuple(
            Stump(feature_index=_model_field(s, "feature", f"stumps[{i}]"),
                  threshold=_finite_field(s, "threshold", f"stumps[{i}]"),
                  polarity=_model_field(s, "polarity", f"stumps[{i}]"),
                  alpha=_finite_field(s, "alpha", f"stumps[{i}]"))
            for i, s in enumerate(_model_field(d, "stumps", "model"))
        )
        return cls(stumps=stumps, rounds=_model_field(d, "rounds", "model"),
                   decision_threshold=_finite_field(d, "decision_threshold", "model"))


def _model_field(obj, key: str, where: str):
    if type(obj) is not dict:
        raise ModelError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ModelError(f"{where} lacks key {key!r}")
    return obj[key]


def _finite_field(obj, key: str, where: str):
    value = _model_field(obj, key, where)
    if type(value) not in (int, float) or (type(value) is float and not math.isfinite(value)):
        raise ModelError(f"{where} key {key!r} must be a finite number, got {value!r}")
    return value


def _best_stump(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Exhaustive weighted-error search over features and midpoint thresholds."""
    best = None  # (eps, feature_idx0, threshold, polarity)
    for f in range(X.shape[1]):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        v = col[order]
        boundaries = np.nonzero(v[1:] > v[:-1])[0]
        if boundaries.size == 0:
            continue
        wy_pos = np.cumsum(w[order] * (y[order] > 0))
        wy_neg = np.cumsum(w[order] * (y[order] < 0))
        total_neg = wy_neg[-1]
        # predicting +1 strictly above the threshold placed after position i
        eps_pos = wy_pos[boundaries] + (total_neg - wy_neg[boundaries])
        eps_neg = 1.0 - eps_pos
        for eps_arr, polarity in ((eps_pos, 1), (eps_neg, -1)):
            i = int(np.argmin(eps_arr))
            eps = float(eps_arr[i])
            if best is None or eps < best[0] - 1e-15:
                b = boundaries[i]
                threshold = (v[b] + v[b + 1]) / 2.0
                best = (eps, f, threshold, polarity)
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
    stumps: list[Stump] = []
    log: list[RoundLog] = []
    for _ in range(rounds):
        found = _best_stump(X, y, w)
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
