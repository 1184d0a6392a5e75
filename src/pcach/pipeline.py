"""The periodic pre-caching decision step and its pluggable predictors.

Each slot, the pipeline folds the newly collected samples into the history
database, asks a predictor whether a WiFi cut is coming in the next slot and,
if so, for the slot WiFi will resume in, then selects the per-slot top-K
pre-cachable apps over the predicted gap and returns their union as the
pre-cache list. :func:`decide` is that per-slot decision; the backtest
replays it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Protocol

import numpy as np

from .boosting import DEFAULT_ROUNDS, AdaBoostModel
from .errors import ConfigError
from .history import (
    DEFAULT_DELTA,
    DEFAULT_GAP_SLOTS,
    DEFAULT_MAX_LOOKAHEAD,
    DEFAULT_N_DRAWS,
    DEFAULT_SLOT_MINUTES,
    EventKind,
    HistoryDB,
    feature_matrix,
    history_predict_event,
    predict_resume_slot,
    predict_top_k_apps,
    update_history,
)
from .trace import MeasurementSample


class PredictorKind(Enum):
    HISTORY = "history"
    ADABOOST = "adaboost"


@dataclass(frozen=True)
class PCachConfig:
    """Parameters of the pre-caching loop."""

    k: int
    s_apps: tuple[str, ...]
    slot_minutes: int = DEFAULT_SLOT_MINUTES
    predictor_kind: PredictorKind = PredictorKind.HISTORY
    n_draws: int = DEFAULT_N_DRAWS
    delta: float = DEFAULT_DELTA
    max_lookahead_slots: int = DEFAULT_MAX_LOOKAHEAD
    default_gap_slots: int = DEFAULT_GAP_SLOTS
    adaboost_rounds: int = DEFAULT_ROUNDS
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

    ``predict_cut`` returns the verdict and the score it thresholds (the
    history rule's p, the boosted margin); ``resume_fires`` is the resume
    decision for one slot; ``predict_resume`` returns the slot WiFi is
    predicted to resume in.
    """

    def predict_cut(self, db: HistoryDB, target_slot: int, now: int,
                    rng: np.random.Generator) -> tuple[bool, float]: ...

    def resume_fires(self, db: HistoryDB, slot: int, now: int,
                     rng: np.random.Generator) -> bool: ...

    def predict_resume(self, db: HistoryDB, current_slot: int, now: int,
                       rng: np.random.Generator) -> int: ...


class HistoryPredictor:
    """Monte-Carlo acceptance rule on the per-slot event probabilities, with
    the draw count, tolerance and resume-scan bounds of a :class:`PCachConfig`.
    """

    def __init__(self, config: PCachConfig):
        self.config = config

    def predict_cut(self, db, target_slot, now, rng):
        p = db.event_probability(target_slot, EventKind.CUT)
        return history_predict_event(p, self.config.n_draws, self.config.delta, rng), p

    def resume_fires(self, db, slot, now, rng):
        p = db.event_probability(slot, EventKind.RESUME)
        return history_predict_event(p, self.config.n_draws, self.config.delta, rng)

    def predict_resume(self, db, current_slot, now, rng):
        c = self.config
        return predict_resume_slot(
            db, current_slot,
            max_lookahead=c.max_lookahead_slots,
            n_draws=c.n_draws,
            delta=c.delta,
            rng=rng,
            default_gap_slots=c.default_gap_slots,
        )


class AdaBoostPredictor:
    """Boosted-stump classifiers over the per-slot context features.

    The two models and the resume-scan bounds come from a
    :class:`PCachConfig`. The resume slot is the first future slot the
    resume classifier labels positive, found from one feature matrix of the
    scanned slots, with the same fixed fallback as the history rule. A
    margin tied with a model's threshold is negative.
    """

    def __init__(self, config: PCachConfig):
        if config.cut_model is None or config.resume_model is None:
            raise ConfigError("boosted predictor requires trained cut and resume models")
        self.config = config

    def predict_cut(self, db, target_slot, now, rng):
        model = self.config.cut_model
        X = feature_matrix(db, [target_slot], now, EventKind.CUT)
        margin = float(model.decision_margins(X)[0])
        return margin > model.decision_threshold, margin

    def resume_fires(self, db, slot, now, rng):
        model = self.config.resume_model
        X = feature_matrix(db, [slot], now, EventKind.RESUME)
        return bool(model.decision_margins(X)[0] > model.decision_threshold)

    def predict_resume(self, db, current_slot, now, rng):
        c = self.config
        slots = np.arange(current_slot + 1, current_slot + 1 + c.max_lookahead_slots)
        i = c.resume_model.first_positive(feature_matrix(db, slots, now, EventKind.RESUME))
        return current_slot + 1 + c.default_gap_slots if i is None else int(slots[i])


def make_predictor(config: PCachConfig) -> Predictor:
    if config.predictor_kind is PredictorKind.HISTORY:
        return HistoryPredictor(config)
    return AdaBoostPredictor(config)


@dataclass(frozen=True)
class StepDecision:
    """What one slot's decision concluded about the next slot.

    ``cut_score`` is what the cut verdict thresholds: the history rule's p
    or the boosted margin. ``resume_next`` is the resume rule's verdict for
    ``target_slot`` itself. Without a cut, ``resume_slot`` is None and
    ``apps`` is empty.
    """

    target_slot: int
    cut: bool
    cut_score: float
    resume_next: bool
    resume_slot: Optional[int]
    apps: tuple[str, ...]


def decide(db: HistoryDB, config: PCachConfig, predictor: Predictor,
           current_slot: int, now: int, rng: np.random.Generator) -> StepDecision:
    """The pre-caching decision for the slot after ``current_slot``.

    Draws from ``rng`` in a fixed order: the cut rule, the resume rule for
    the target slot, then, on a cut, the resume scan. The apps are the
    union of per-slot top-K selections over [target, predicted resume].
    """
    target = current_slot + 1
    cut, cut_score = predictor.predict_cut(db, target, now, rng)
    resume_next = predictor.resume_fires(db, target, now, rng)
    if not cut:
        return StepDecision(target, False, cut_score, resume_next, None, ())
    resume_slot = max(predictor.predict_resume(db, current_slot, now, rng), target)
    apps = predict_top_k_apps(db, config.s_apps, config.k, target, resume_slot)
    return StepDecision(target, True, cut_score, resume_next, resume_slot, tuple(apps))


def pcach_step(
    db: HistoryDB,
    config: PCachConfig,
    current_slot: int,
    new_samples: Iterable[MeasurementSample],
    rng: Optional[np.random.Generator] = None,
    predictor: Optional[Predictor] = None,
) -> list[str]:
    """One pass of the periodic pre-caching loop.

    Folds ``new_samples`` into the history with :func:`update_history` and
    returns the apps of :func:`decide`: empty when no cut is predicted for the
    next slot. A batch out of order raises
    :class:`~pcach.errors.OrderingError`, and one whose byte counts exceed
    int64 or sum past 2**62 raises :class:`~pcach.errors.TraceValidationError`;
    either leaves ``db`` untouched and decides nothing.
    """
    if rng is None:
        rng = np.random.default_rng()
    if predictor is None:
        predictor = make_predictor(config)

    update_history(db, new_samples)
    now = db.last_timestamp if db.last_timestamp is not None else 0
    return list(decide(db, config, predictor, current_slot, now, rng).apps)
