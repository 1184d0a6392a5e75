"""The periodic pre-caching decision step and its pluggable predictors.

Each slot, the pipeline folds the newly collected samples into the history
database, asks a predictor whether a WiFi cut is coming in the next slot and,
if so, for the slot WiFi will resume in, then selects the per-slot top-K
pre-cachable apps over the predicted gap and returns their union as the
pre-cache list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Protocol

import numpy as np

from .boosting import AdaBoostModel, adaboost_predict
from .errors import ConfigError
from .history import (
    EventKind,
    HistoryDB,
    extract_features,
    history_predict_event,
    predict_resume_slot,
    predict_top_k_apps,
    update_history,
)
from .trace import MeasurementSample

DEFAULT_N_DRAWS = 10000
DEFAULT_DELTA = 0.1
DEFAULT_MAX_LOOKAHEAD = 96
DEFAULT_GAP_SLOTS = 2


class PredictorKind(Enum):
    HISTORY = "history"
    ADABOOST = "adaboost"


@dataclass(frozen=True)
class PCachConfig:
    """Parameters of the pre-caching loop."""

    k: int
    s_apps: tuple[str, ...]
    slot_minutes: int = 15
    predictor_kind: PredictorKind = PredictorKind.HISTORY
    n_draws: int = DEFAULT_N_DRAWS
    delta: float = DEFAULT_DELTA
    max_lookahead_slots: int = DEFAULT_MAX_LOOKAHEAD
    default_gap_slots: int = DEFAULT_GAP_SLOTS
    adaboost_rounds: int = 50
    cut_model: Optional[AdaBoostModel] = field(default=None, compare=False)
    resume_model: Optional[AdaBoostModel] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "s_apps", tuple(self.s_apps))
        if not self.s_apps:
            raise ConfigError("s_apps must not be empty")
        if len(set(self.s_apps)) != len(self.s_apps):
            raise ConfigError("s_apps contains duplicates")
        if not 1 <= self.k <= len(self.s_apps):
            raise ConfigError(f"k={self.k} outside [1, {len(self.s_apps)}]")


class Predictor(Protocol):
    """Cut/resume predictor driving the pipeline; implementations must not
    read anything beyond the history database handed to them.

    ``resume_fires`` is the resume decision for one slot; ``predict_resume``
    returns the slot WiFi is predicted to resume in.
    """

    def predict_cut(self, db: HistoryDB, target_slot: int, now: int,
                    rng: np.random.Generator) -> bool: ...

    def resume_fires(self, db: HistoryDB, slot: int, now: int,
                     rng: np.random.Generator) -> bool: ...

    def predict_resume(self, db: HistoryDB, current_slot: int, now: int,
                       rng: np.random.Generator) -> int: ...


class HistoryPredictor:
    """Monte-Carlo acceptance rule on the per-slot event probabilities."""

    def __init__(self, n_draws: int = DEFAULT_N_DRAWS, delta: float = DEFAULT_DELTA,
                 max_lookahead: int = DEFAULT_MAX_LOOKAHEAD,
                 default_gap_slots: int = DEFAULT_GAP_SLOTS):
        self.n_draws = n_draws
        self.delta = delta
        self.max_lookahead = max_lookahead
        self.default_gap_slots = default_gap_slots

    def predict_cut(self, db, target_slot, now, rng):
        p = db.event_probability(target_slot, EventKind.CUT)
        return history_predict_event(p, self.n_draws, self.delta, rng)

    def resume_fires(self, db, slot, now, rng):
        p = db.event_probability(slot, EventKind.RESUME)
        return history_predict_event(p, self.n_draws, self.delta, rng)

    def predict_resume(self, db, current_slot, now, rng):
        return predict_resume_slot(
            db, current_slot,
            max_lookahead=self.max_lookahead,
            n_draws=self.n_draws,
            delta=self.delta,
            rng=rng,
            default_gap_slots=self.default_gap_slots,
        )


class AdaBoostPredictor:
    """Boosted-stump classifiers over the per-slot context features.

    Resume slots are found by applying the resume classifier to each future
    slot in turn and taking the first positive, with the same fixed fallback
    as the history rule.
    """

    def __init__(self, cut_model: AdaBoostModel, resume_model: AdaBoostModel,
                 max_lookahead: int = DEFAULT_MAX_LOOKAHEAD,
                 default_gap_slots: int = DEFAULT_GAP_SLOTS):
        self.cut_model = cut_model
        self.resume_model = resume_model
        self.max_lookahead = max_lookahead
        self.default_gap_slots = default_gap_slots

    def cut_margin(self, db: HistoryDB, slot: int, now: int) -> float:
        """The cut classifier's decision margin for an event in ``slot``."""
        fv = extract_features(db, slot, now, EventKind.CUT)
        return float(self.cut_model.decision_margins(fv.as_array()[None, :])[0])

    def predict_cut(self, db, target_slot, now, rng):
        # adaboost_predict's rule: a margin tied with the threshold is -1
        return self.cut_margin(db, target_slot, now) > self.cut_model.decision_threshold

    def resume_fires(self, db, slot, now, rng):
        fv = extract_features(db, slot, now, EventKind.RESUME)
        label, _ = adaboost_predict(self.resume_model, fv)
        return label > 0

    def predict_resume(self, db, current_slot, now, rng):
        for s in range(current_slot + 1, current_slot + 1 + self.max_lookahead):
            if self.resume_fires(db, s, now, rng):
                return s
        return current_slot + 1 + self.default_gap_slots


def make_predictor(config: PCachConfig) -> Predictor:
    if config.predictor_kind is PredictorKind.HISTORY:
        return HistoryPredictor(
            n_draws=config.n_draws, delta=config.delta,
            max_lookahead=config.max_lookahead_slots,
            default_gap_slots=config.default_gap_slots,
        )
    if config.cut_model is None or config.resume_model is None:
        raise ConfigError("boosted predictor requires trained cut and resume models")
    return AdaBoostPredictor(
        config.cut_model, config.resume_model,
        max_lookahead=config.max_lookahead_slots,
        default_gap_slots=config.default_gap_slots,
    )


def pcach_step(
    db: HistoryDB,
    config: PCachConfig,
    current_slot: int,
    new_samples: Iterable[MeasurementSample],
    rng: Optional[np.random.Generator] = None,
    predictor: Optional[Predictor] = None,
) -> list[str]:
    """One pass of the periodic pre-caching loop.

    Returns the apps to pre-cache now: empty when no cut is predicted for
    the next slot, otherwise the union of per-slot top-K selections over
    [current_slot + 1, predicted resume slot].
    """
    if rng is None:
        rng = np.random.default_rng()
    if predictor is None:
        predictor = make_predictor(config)

    update_history(db, new_samples)
    now = db.last_timestamp if db.last_timestamp is not None else 0

    if not predictor.predict_cut(db, current_slot + 1, now, rng):
        return []
    resume_slot = predictor.predict_resume(db, current_slot, now, rng)
    resume_slot = max(resume_slot, current_slot + 1)
    return predict_top_k_apps(db, config.s_apps, config.k,
                              current_slot + 1, resume_slot)
