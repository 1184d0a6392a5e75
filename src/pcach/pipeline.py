"""The periodic pre-caching decision and its pluggable predictors.

Each slot, the pipeline folds the newly collected samples into the history
database, asks a predictor whether a WiFi cut is coming in the next slot and,
if so, for the slot WiFi will resume in, then selects the per-slot top-K
pre-cachable apps over the predicted gap and returns their union as the
pre-cache list. :func:`decide` makes that decision for a run of slots at once,
each slot seen with the history as of its own newest row (a
:class:`~pcach.history.FoldedRuns`): the backtest decides its whole test
period in one call, and :func:`pcach_step` is a batch of one. The predicted
cuts' usage windows are read in blocks (:meth:`~pcach.history.FoldedRuns.usage`).
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
    FoldedRuns,
    HistoryDB,
    history_rule,
    newest_run,
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
    read anything beyond the runs handed to them: each run's slot, its
    newest row and the history as of that row.

    ``predict`` returns four arrays, one entry per run, on the slot after the
    run's slot (its target): the cut verdict, the score that verdict
    thresholds (the history rule's p, the boosted margin), the resume
    verdict for the target slot itself and the slot WiFi is predicted to
    resume in, which is read only where a cut is predicted.
    """

    def predict(self, runs: FoldedRuns, rng: np.random.Generator) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray]: ...


class HistoryPredictor:
    """Monte-Carlo acceptance rule on the per-slot event probabilities
    (:func:`~pcach.history.history_rule`), with the draw count, tolerance and
    resume-scan bounds of a :class:`PCachConfig`.
    """

    def __init__(self, config: PCachConfig):
        self.config = config

    def predict(self, runs, rng):
        c = self.config
        return history_rule(runs, c.n_draws, c.delta, c.max_lookahead_slots,
                            c.default_gap_slots, rng)


# rows of resume-scan features scored per margins call, and window slots of
# usage counts read per usage call
_SCAN_ROWS = 2048
# look-ahead slots of the resume scan's first chunk; each later chunk is
# twice as long, up to _SCAN_ROWS
_SCAN_FIRST = 2


class AdaBoostPredictor:
    """Boosted-stump classifiers over the per-slot context features.

    The two models and the resume-scan bounds come from a
    :class:`PCachConfig`. The cut and resume margins of every target slot
    come from one margins call per model. The resume slot is the first
    future slot the resume classifier labels positive, with the same fixed
    fallback as the history rule. The scan reads the look-ahead in chunks,
    each twice as long as the one before, and scores a chunk only for the
    predicted cuts that have found no positive slot yet, a block of cuts
    per margins call of at most ``_SCAN_ROWS`` rows. A margin tied with a
    model's threshold is negative. A row's margin does not depend on its
    batch, so neither does the first positive slot.
    """

    def __init__(self, config: PCachConfig):
        if config.cut_model is None or config.resume_model is None:
            raise ConfigError("boosted predictor requires trained cut and resume models")
        self.config = config

    def predict(self, runs, rng):
        c = self.config
        targets = runs.slots + 1
        at = np.arange(len(runs))
        cut, cut_margins = _labels(c.cut_model, runs.features(targets, at, EventKind.CUT))
        resume_next, _ = _labels(c.resume_model, runs.features(targets, at, EventKind.RESUME))
        resume_slot = targets + c.default_gap_slots
        pending = np.flatnonzero(cut)     # the cuts with no positive slot yet
        first, width = 1, min(_SCAN_FIRST, _SCAN_ROWS)
        while len(pending) and first <= c.max_lookahead_slots:
            ahead = np.arange(first, min(first + width, c.max_lookahead_slots + 1))
            block = _SCAN_ROWS // len(ahead)
            found = np.zeros(len(pending), dtype=bool)
            for lo in range(0, len(pending), block):
                j = pending[lo:lo + block]
                slots = runs.slots[j, None] + ahead
                fires, _ = _labels(c.resume_model, runs.features(
                    slots.ravel(), np.repeat(j, len(ahead)), EventKind.RESUME))
                fires = fires.reshape(slots.shape)
                hit = fires.any(axis=1)
                found[lo:lo + block] = hit
                resume_slot[j[hit]] = slots[hit, fires[hit].argmax(axis=1)]
            pending = pending[~found]
            first, width = first + len(ahead), min(2 * width, _SCAN_ROWS)
        return cut, cut_margins, resume_next, resume_slot


def _labels(model: AdaBoostModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(label is +1, margin) of each row."""
    margins = model.decision_margins(X)
    return margins > model.decision_threshold, margins


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


@dataclass(frozen=True)
class Decisions:
    """The decisions of a run of slots, as columns; ``decisions[i]`` is the
    i-th as a :class:`StepDecision`. ``resume_slot`` is read only where
    ``cut`` holds."""

    target_slot: np.ndarray
    cut: np.ndarray
    cut_score: np.ndarray
    resume_next: np.ndarray
    resume_slot: np.ndarray
    apps: list[tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.target_slot)

    def __getitem__(self, i: int) -> StepDecision:
        cut = bool(self.cut[i])
        return StepDecision(int(self.target_slot[i]), cut, float(self.cut_score[i]),
                            bool(self.resume_next[i]),
                            int(self.resume_slot[i]) if cut else None, self.apps[i])


def decide(runs: FoldedRuns, config: PCachConfig, predictor: Predictor,
           rng: np.random.Generator) -> Decisions:
    """The pre-caching decision for the slot after each run's slot.

    The predictor gives every verdict from the history as of each run (the
    history rule draws from ``rng`` run by run in a fixed order: the cut
    rule, the resume rule for the target slot, then, on a cut, the resume
    scan). On a cut the resume slot is clamped to the target slot, and the
    apps are the union of per-slot top-K selections over [target, resume
    slot], ranked from the usage counts as of the run, read in blocks of at
    most ``_SCAN_ROWS`` window slots (a longer window alone).
    """
    cut, cut_score, resume_next, resume_slot = predictor.predict(runs, rng)
    targets = runs.slots + 1
    cut = np.asarray(cut, dtype=bool)
    resume_slot = np.maximum(np.asarray(resume_slot, dtype=np.int64), targets)
    apps: list[tuple[str, ...]] = [()] * len(runs)
    cuts = np.flatnonzero(cut)
    ends, lo = np.cumsum(resume_slot[cuts] - targets[cuts] + 1), 0
    while lo < len(cuts):
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _SCAN_ROWS, side="right")))
        j = cuts[lo:hi]
        for i, counts in zip(j.tolist(), runs.usage(config.s_apps, targets[j], resume_slot[j], j)):
            apps[i] = tuple(predict_top_k_apps(counts, config.s_apps, config.k))
        lo = hi
    return Decisions(targets, cut, np.asarray(cut_score, dtype=float),
                     np.asarray(resume_next, dtype=bool), resume_slot, apps)


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
    returns the apps :func:`decide` selects for the database as it then
    stands (:func:`~pcach.history.newest_run`): empty when no cut is
    predicted for the next slot. A batch out of order raises
    :class:`~pcach.errors.OrderingError`, and one whose byte counts exceed
    int64 or sum past 2**62 raises :class:`~pcach.errors.TraceValidationError`;
    either leaves ``db`` untouched and decides nothing.
    """
    if rng is None:
        rng = np.random.default_rng()
    if predictor is None:
        predictor = make_predictor(config)

    update_history(db, new_samples)
    return list(decide(newest_run(db, current_slot), config, predictor, rng).apps[0])
