"""Ground-truth scoring, K sweeps and chronological backtests.

All scoring runs on the normalized timeline. Cut and resume prediction are
scored at slot level: a slot is positive when it contains at least one true
event. App prediction is scored per WiFi gap against the pre-cachable apps
that actually moved bytes over cellular during the gap; gaps in which none
did are skipped and counted. Like cut and resume, it is one tally of paired
booleans: a (gaps x apps) selection row per scored gap against its used row,
both in ``s_apps`` order. Rates are macro-averaged across phones.

The backtest and the K sweep start each phone from one replay state: the
training rows' preferred-network profile, the normalized timeline, an empty
history database, and the ground truth as one table of gaps on that
database's slot clock, whose columns both replays score by masks and binary
searches, not gap by gap. Replays read the normalized trace's columns end to
end and never build its sample view.

Both read history as :class:`~pcach.history.FoldedRuns`. The backtest folds
the training prefix with :func:`~pcach.history.fold_rows`; AdaBoost trains on
the features of the training slots as the database then stands
(:func:`~pcach.history.newest_run`, each slot read from its last row). It then
folds the test rows once with :func:`~pcach.history.fold_runs` and decides
every test slot in one :func:`~pcach.pipeline.decide` call, each slot seeing
the history of every row up to its own last one. The K sweep folds the whole
timeline once the same way, reads every scored gap's usage window as of the
run before its cut slot in one :meth:`~pcach.history.FoldedRuns.usage` call
and ranks them in one :func:`~pcach.history.best_ranks` call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .boosting import train_adaboost_xy
from .errors import (
    DataError,
    ParameterError,
    UndefinedRateError,
)
from .history import (
    DEFAULT_SLOT_MINUTES,
    EventKind,
    HistoryDB,
    best_ranks,
    fold_rows,
    fold_runs,
    history_votes,
    newest_run,
    slot_groups,
)
from .pipeline import (
    PCachConfig,
    Predictor,
    PredictorKind,
    decide,
    make_predictor,
)
from .synth import stream_rng
from .trace import (
    Trace,
    derive_preferred_profile,
    distinct,
    gap_rows,
    normalize_timeline,
)

DEFAULT_TRAIN_DAYS = 7.0
PAPER_K_SET = (1, 2, 3, 4, 5, 6, 7, 10, 15, 20, 25, 30)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ParameterError("confusion counts must be non-negative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}

    @classmethod
    def tally(cls, predicted, actual) -> "ConfusionCounts":
        """Counts of paired boolean predictions and truths."""
        pred = np.asarray(predicted, dtype=bool)
        pos = np.asarray(actual, dtype=bool)
        return cls(
            tp=int(np.sum(pred & pos)),
            fp=int(np.sum(pred & ~pos)),
            fn=int(np.sum(~pred & pos)),
            tn=int(np.sum(~pred & ~pos)),
        )

    @classmethod
    def tally_above(cls, scores, actual, thresholds) -> list["ConfusionCounts"]:
        """``tally(scores > theta, actual)`` for each ``theta`` of
        ``thresholds``, from one sort of the positives' scores and one of the
        negatives': the predicted positives of a class are its scores past
        ``theta``'s rightmost insertion point. Scores are not NaN."""
        scores = np.asarray(scores, dtype=float)
        pos = np.asarray(actual, dtype=bool)
        thresholds = np.asarray(thresholds, dtype=float)
        above = []
        for ranked in (np.sort(scores[pos]), np.sort(scores[~pos])):
            above.append((len(ranked) - np.searchsorted(ranked, thresholds, side="right")).tolist())
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        return [cls(tp, fp, n_pos - tp, n_neg - fp) for tp, fp in zip(*above)]


@dataclass(frozen=True)
class RocPoint:
    tpr: float
    fpr: float
    parameter: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.tpr <= 1.0 and 0.0 <= self.fpr <= 1.0):
            raise ParameterError("rates must lie in [0, 1]")


def tpr_fpr(counts: ConfusionCounts) -> tuple[float, float]:
    """(TP/(TP+FN), FP/(FP+TN)); raises when either denominator is zero."""
    if counts.tp + counts.fn == 0 or counts.fp + counts.tn == 0:
        raise UndefinedRateError(
            f"rates undefined for counts {counts.to_dict()}"
        )
    return counts.tp / (counts.tp + counts.fn), counts.fp / (counts.fp + counts.tn)


def quality_gap(tpr: float, fpr: float) -> float:
    """Normalized Euclidean distance to the perfect-prediction corner.

    0 at (tpr=1, fpr=0), 1 at the antipodal corner; strictly better
    predictions score strictly lower.
    """
    if not (0.0 <= tpr <= 1.0 and 0.0 <= fpr <= 1.0):
        raise ParameterError("rates must lie in [0, 1]")
    return math.sqrt(fpr * fpr + (1.0 - tpr) * (1.0 - tpr)) / math.sqrt(2.0)


def rate_record(tpr: float, fpr: float) -> dict:
    """The ``{tpr, fpr, quality_gap}`` record that reports and summaries carry."""
    return {"tpr": tpr, "fpr": fpr, "quality_gap": quality_gap(tpr, fpr)}


# ---------------------------------------------------------------------------
# shared replay machinery
# ---------------------------------------------------------------------------

@dataclass
class _Replay:
    """One phone's replay state: the normalized timeline, its history
    database and its ground truth, a row per gap in cut order on the
    database's slot clock. ``resume_slot`` is read only where ``closed``
    holds; ``first`` marks each cut slot's first gap, the one that slot's
    truth scores. ``used`` (gaps x tracked apps) holds whether each tracked
    app moved bytes during each closed gap, whose rows [cut, resume) are all
    cellular; an open gap has no ground-truth window, and its row is all
    False, like a gap in which no pre-cachable app was used."""

    norm: Trace
    db: HistoryDB
    cut_time: np.ndarray
    cut_slot: np.ndarray
    closed: np.ndarray
    resume_slot: np.ndarray
    first: np.ndarray
    used: np.ndarray

    @classmethod
    def start(cls, trace: Trace, n_train: int, s_apps: Sequence[str],
              slot_minutes: int, utc_offset_s: int) -> "_Replay":
        """The state before any row is folded: the profile comes from the
        first ``n_train`` rows alone, and the history database is empty."""
        profile = derive_preferred_profile(trace.rows(0, n_train), utc_offset_s=utc_offset_s)
        norm = normalize_timeline(trace, profile)
        db = HistoryDB(slot_minutes, tracked_apps=s_apps, profile=profile,
                       utc_offset_s=utc_offset_s)
        cut, stop, closed = gap_rows(norm)
        cut_time = norm.t[cut]
        cut_slot = db.abs_slot(cut_time)
        # the app records of each closed gap's rows cut:stop, end to end
        lo = norm.app_offsets[cut]
        lengths = np.where(closed, norm.app_offsets[stop] - lo, 0)
        gap = np.repeat(np.arange(len(cut)), lengths)
        records = np.arange(len(gap)) + np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
        moved = norm.up[records] + norm.down[records] > 0
        # a last column for every untracked app
        used = np.zeros((len(cut), len(db.tracked_apps) + 1), dtype=bool)
        used[gap[moved], db.tracked_index(norm.app_ids)[norm.app[records[moved]]]] = True
        return cls(norm, db, cut_time, cut_slot, closed,
                   db.abs_slot(norm.t[np.where(closed, stop, cut)]),
                   np.diff(cut_slot, prepend=cut_slot[:1] - 1) != 0, used[:, :-1])


# ---------------------------------------------------------------------------
# oracle-gap app-prediction run (K sweeps)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppPredictionRun:
    counts_by_k: dict[int, ConfusionCounts]
    scored_gaps: int
    skipped_gaps: int


def check_train_days(train_days: float) -> None:
    """Raise :class:`ParameterError` unless ``train_days`` is finite and
    spans at least one whole second (the prefix is ``int(train_days *
    86400)`` seconds long)."""
    if not 0 < train_days < math.inf or int(train_days * 86400) < 1:
        raise ParameterError(f"train_days={train_days} must be finite and span at least "
                             "one second")


def app_prediction_run(
    trace: Trace,
    s_apps: Sequence[str],
    ks: Sequence[int],
    slot_minutes: int = DEFAULT_SLOT_MINUTES,
    train_days: float = DEFAULT_TRAIN_DAYS,
    utc_offset_s: int = 0,
) -> AppPredictionRun:
    """Score top-K app selection on ground-truth gaps (perfect gap oracle).

    The usage histogram warms up on the training prefix and keeps updating
    online; each test-period gap is scored for every K against the apps
    actually used during the gap, from the history of every row before its
    cut slot. Gaps with empty ground truth or no resume are skipped and
    counted. The scored gaps' windows are ranked in one block: an app is
    selected at K iff its :func:`~pcach.history.best_ranks` rank is below K,
    so K's counts are one tally of the (gaps x apps) selection against the
    apps used. A ``train_days`` that :func:`check_train_days` rejects raises
    :class:`ParameterError`.
    """
    ks = sorted(set(ks))
    if not ks:
        raise ParameterError("ks must not be empty")
    if ks[0] < 1 or ks[-1] > len(s_apps):
        raise ParameterError(f"K values must lie in [1, {len(s_apps)}]")
    check_train_days(train_days)

    boundary = trace.start_time + int(train_days * 86400)
    n_train = int(np.searchsorted(trace.t, boundary))
    if not n_train or boundary >= trace.end_time:
        raise DataError(f"trace {trace.phone_id!r}: too short for the training prefix")

    replay = _Replay.start(trace, n_train, s_apps, slot_minutes, utc_offset_s)
    # the first gap of each test-period cut slot, scored unless no
    # pre-cachable app moved bytes in it (as in every open gap)
    gaps = replay.first & (replay.cut_time >= boundary)
    used = replay.used[gaps]
    scored = used.any(axis=1)
    first, last = replay.cut_slot[gaps][scored], replay.resume_slot[gaps][scored]
    # one fold; each scored gap's window [cut slot, resume slot] is read as
    # of the run before its cut slot, and ranked: (gaps x apps) best ranks
    runs = fold_runs(replay.db, replay.norm)
    best = best_ranks(*runs.usage(s_apps, first, last, np.searchsorted(runs.slots, first) - 1))
    counts = {k: ConfusionCounts.tally(best < k, used[scored]) for k in ks}
    return AppPredictionRun(counts_by_k=counts, scored_gaps=len(first),
                            skipped_gaps=len(scored) - len(first))


@dataclass(frozen=True)
class KSweepPoint:
    k: int
    point: RocPoint
    quality_gap: float
    phones: int


def k_sweep(
    traces: Iterable[Trace],
    s_apps: Sequence[str],
    ks: Sequence[int] = PAPER_K_SET,
    slot_minutes: int = DEFAULT_SLOT_MINUTES,
    train_days: float = DEFAULT_TRAIN_DAYS,
    utc_offset_s: int = 0,
) -> list[KSweepPoint]:
    """Macro-averaged (TPR, FPR) and quality gap per K over a corpus.

    See :func:`sweep_points` for the aggregation.
    """
    return sweep_points([
        app_prediction_run(trace, s_apps, ks, slot_minutes=slot_minutes,
                           train_days=train_days, utc_offset_s=utc_offset_s)
        for trace in traces
    ])


def sweep_points(runs: Sequence[AppPredictionRun]) -> list[KSweepPoint]:
    """Macro-averaged (TPR, FPR) and quality gap per K over per-phone runs.

    The runs share one K set. Rates are computed per phone and averaged
    across phones in the order given; the quality gap is measured at the
    averaged point. Phones whose rates are undefined for a K are skipped for
    that K. Points come out in ascending K.
    """
    if not runs:
        raise DataError("empty corpus")
    points = []
    for k in sorted(runs[0].counts_by_k):
        try:
            tpr, fpr, phones = _macro_rates([run.counts_by_k[k] for run in runs], tpr_fpr)
        except UndefinedRateError:
            continue
        points.append(KSweepPoint(
            k=k,
            point=RocPoint(tpr=tpr, fpr=fpr, parameter=float(k)),
            quality_gap=quality_gap(tpr, fpr),
            phones=phones,
        ))
    return points


# ---------------------------------------------------------------------------
# full chronological backtest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdPoint:
    threshold: float
    train: ConfusionCounts
    test: ConfusionCounts


@dataclass(frozen=True)
class BacktestReport:
    """One phone's backtest. Its gap counters, over the test period:
    ``true_test_gaps`` counts the gaps cut in it, open ones included, and
    ``predicted_cut_slots`` the slots with a predicted cut. Each predicted
    cut in a gap's cut slot is scored against that slot's first gap:
    ``scored_gaps`` and ``skipped_gaps`` count those in which a pre-cachable
    app did and did not move bytes (an open gap is skipped; ``apps`` tallies
    the scored), ``resume_evaluated`` those that closed, and
    ``resume_within_one`` those whose resume slot is within one slot of the
    predicted one."""

    phone_id: str
    predictor: str
    k: int
    slot_minutes: int
    split_index: int
    train_slots: int
    test_slots: int
    cut: ConfusionCounts
    resume: ConfusionCounts
    apps: ConfusionCounts
    scored_gaps: int
    skipped_gaps: int
    true_test_gaps: int
    predicted_cut_slots: int
    resume_evaluated: int
    resume_within_one: int
    trained_digest: str
    cut_model_json: Optional[str] = None
    resume_model_json: Optional[str] = None
    selected_cut_threshold: Optional[float] = None
    selected_resume_threshold: Optional[float] = None
    # AdaBoost: every :func:`_train_panel` cut candidate (each distinct-margin midpoint)
    cut_panel: tuple[ThresholdPoint, ...] = ()

    def rates(self, which: str) -> tuple[float, float]:
        return tpr_fpr(getattr(self, which))

    def to_dict(self) -> dict:
        """Every field but the model texts; each confusion with its rates."""
        d = dataclasses.asdict(self)
        del d["cut_model_json"], d["resume_model_json"]
        for which in ("cut", "resume", "apps"):
            try:
                d[which].update(rate_record(*self.rates(which)))
            except UndefinedRateError:
                d[which].update(dict.fromkeys(("tpr", "fpr", "quality_gap")))
        return d


def _split_index(trace: Trace, config: PCachConfig, split: Optional[float]) -> int:
    n = len(trace)
    if split is not None:
        if not 0.0 < split < 1.0:
            raise ParameterError("split ratio must lie in (0, 1)")
        idx = int(n * split)
    elif config.predictor_kind is PredictorKind.HISTORY:
        boundary = trace.start_time + int(DEFAULT_TRAIN_DAYS * 86400)
        idx = int(np.searchsorted(trace.t, boundary))
    else:
        idx = n // 2
    if idx <= 0 or idx >= n:
        raise DataError(
            f"trace {trace.phone_id!r}: split leaves an empty train or test period")
    return idx


def _train_feature_pass(replay: _Replay, idx: int, last_train_slot: int):
    """Per-slot features/labels over the training rows ``replay.norm[:idx]``.

    Each training slot predicts the next one, up to the last training slot.
    Features use the training period's final histograms (frozen), so the
    classifier trains on the probability estimates it will actually see;
    nothing from the test period is touched. Each slot's newest row is its
    last one. Returns the features and labels of both kinds and the runs
    they were read from.
    """
    norm, db = replay.norm, replay.db
    slots, _, stops = slot_groups(db, norm, 0, idx)
    keep = slots < last_train_slot
    runs = newest_run(db, slots[keep], stops[keep] - 1)
    targets, at = runs.slots + 1, np.arange(len(runs))
    X_cut = runs.features(targets, at, EventKind.CUT)
    X_res = runs.features(targets, at, EventKind.RESUME)
    y_cut = np.where(_among(targets, replay.cut_slot), 1, -1)
    y_res = np.where(_among(targets, replay.resume_slot[replay.closed]), 1, -1)
    return X_cut, y_cut, X_res, y_res, runs


def _among(slots: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``slots`` is one of ``keys``, looked up in a table
    over the keys' range (slot ids span one trace), so ``np.isin`` never
    takes its sorting path, which loads ``numpy.ma``."""
    return np.isin(slots, keys, kind="table")


def _train_panel(margins: np.ndarray,
                 labels: np.ndarray) -> tuple[list[float], list[ConfusionCounts]]:
    """The candidate thresholds of a model's training margins and the
    training confusion at each: the lowest distinct margin minus one, every
    distinct-margin midpoint, zero, and the highest distinct margin plus one,
    so every cut of the training ROC is a candidate (Fawcett 2006)."""
    uniq = distinct(margins)
    mids = (uniq[1:] + uniq[:-1]) / 2.0
    mids = np.where(mids < uniq[1:], mids, uniq[:-1])  # no float between them: the lower
    thetas = [float(uniq[0]) - 1.0, *mids.tolist(), 0.0, float(uniq[-1]) + 1.0]
    return thetas, ConfusionCounts.tally_above(margins, labels > 0, thetas)


RECALL_MARGIN = 0.05


def _select_threshold(thetas: list[float], train: list[ConfusionCounts],
                      reference: ConfusionCounts) -> float:
    """Lowest-FPR train threshold that beats the reference recall, from a
    :func:`_train_panel`: every distinct-margin midpoint, zero and the two
    pushed-out extremes, ordered by (fpr, -tpr, threshold).

    The target recall carries a small safety margin so the operating point
    still clears the reference out of sample; when no candidate reaches it,
    the highest-recall threshold wins. Selection uses training data only.
    """
    try:
        ref_tpr, _ = tpr_fpr(reference)
    except UndefinedRateError:
        ref_tpr = 0.0
    target = min(1.0, ref_tpr + RECALL_MARGIN)
    best = None      # (fpr, -tpr, threshold)
    fallback = None  # (-tpr, fpr, threshold)
    for theta, counts in zip(thetas, train):
        try:
            tpr, fpr = tpr_fpr(counts)
        except UndefinedRateError:
            continue
        if tpr >= target and (best is None or (fpr, -tpr, theta) < best):
            best = (fpr, -tpr, theta)
        if fallback is None or (-tpr, fpr, theta) < fallback:
            fallback = (-tpr, fpr, theta)
    if best is not None:
        return best[2]
    if fallback is not None:
        return fallback[2]
    return 0.0


def backtest(
    trace: Trace,
    config: PCachConfig,
    split: Optional[float] = None,
    seed: int = 0,
    utc_offset_s: int = 0,
    predictor_override: Optional[Predictor] = None,
) -> BacktestReport:
    """Chronological train/test replay of the full pre-caching pipeline.

    The preferred-network profile, histograms, boosted models and operating
    thresholds all come from the training period alone; every test slot is
    decided from the history of the rows up to its own last one (online
    updates, no lookahead), in one batch.
    """
    if trace.end_time - trace.start_time < 2 * 86400:
        raise DataError(f"trace {trace.phone_id!r}: shorter than two days")
    idx = _split_index(trace, config, split)

    replay = _Replay.start(trace, idx, config.s_apps, config.slot_minutes, utc_offset_s)
    norm, db = replay.norm, replay.db
    fold_rows(db, norm, 0, idx)
    last_train_slot = db.abs_slot(db.last_timestamp)

    cut_model = resume_model = None
    sel_cut_thr = sel_res_thr = None
    cut_thetas = cut_train = None
    if predictor_override is None and config.predictor_kind is PredictorKind.ADABOOST:
        X_cut, y_cut, X_res, y_res, train_runs = _train_feature_pass(
            replay, idx, last_train_slot)
        cut_model = train_adaboost_xy(X_cut, y_cut, rounds=config.adaboost_rounds)
        resume_model = train_adaboost_xy(X_res, y_res, rounds=config.adaboost_rounds)

        # the history rule's train-period confusion is the recall to beat
        rng_ref = stream_rng(seed, trace.phone_id, 0, "train-reference")
        ref_cut = ConfusionCounts.tally(history_votes(
            train_runs, EventKind.CUT, config.n_draws, config.delta, rng_ref), y_cut > 0)
        ref_res = ConfusionCounts.tally(history_votes(
            train_runs, EventKind.RESUME, config.n_draws, config.delta, rng_ref), y_res > 0)
        cut_thetas, cut_train = _train_panel(cut_model.decision_margins(X_cut), y_cut)
        sel_cut_thr = _select_threshold(cut_thetas, cut_train, ref_cut)
        sel_res_thr = _select_threshold(
            *_train_panel(resume_model.decision_margins(X_res), y_res), ref_res)
        cut_model = dataclasses.replace(cut_model, decision_threshold=sel_cut_thr,
                                        training_log=())
        resume_model = dataclasses.replace(resume_model, decision_threshold=sel_res_thr,
                                           training_log=())
        config = dataclasses.replace(config, cut_model=cut_model,
                                     resume_model=resume_model)
    predictor = predictor_override or make_predictor(config)

    digest_parts = [db.to_json()]
    if cut_model is not None:
        digest_parts += [cut_model.to_json(), resume_model.to_json()]
    trained_digest = hashlib.sha256("\n".join(digest_parts).encode()).hexdigest()

    rng_test = stream_rng(seed, trace.phone_id, 0, "test-replay")
    # the final slot's target lies past the test period: its rows are not folded
    _, starts, _ = slot_groups(db, norm, idx, len(norm))
    runs = fold_runs(db, norm, idx, int(starts[-1]))
    decisions = decide(runs, config, predictor, rng_test)
    targets = decisions.target_slot

    cut_truths = _among(targets, replay.cut_slot)
    # each predicted cut in a gap's cut slot, with that slot's first gap
    hits = np.flatnonzero(decisions.cut & cut_truths)
    gap = np.searchsorted(replay.cut_slot, targets[hits])
    scored = replay.used[gap].any(axis=1)
    used = replay.used[gap[scored]]
    # an open gap's ground-truth window never closed: its resume is not scored
    closed = replay.closed[gap]
    resume_hits = closed & (np.abs(decisions.resume_slot[hits] - replay.resume_slot[gap]) <= 1)

    panel = ()
    if cut_thetas is not None:
        panel = tuple(map(ThresholdPoint, cut_thetas, cut_train, ConfusionCounts.tally_above(
            decisions.cut_score, cut_truths, cut_thetas)))

    return BacktestReport(
        phone_id=trace.phone_id,
        predictor=config.predictor_kind.value if predictor_override is None else "override",
        k=config.k,
        slot_minutes=config.slot_minutes,
        split_index=idx,
        train_slots=len(distinct(db.abs_slot(norm.t[:idx]))),
        test_slots=len(decisions),
        cut=ConfusionCounts.tally(decisions.cut, cut_truths),
        resume=ConfusionCounts.tally(decisions.resume_next,
                                     _among(targets, replay.resume_slot[replay.closed])),
        apps=ConfusionCounts.tally(decisions.selected[hits[scored]], used),
        scored_gaps=len(used),
        skipped_gaps=len(gap) - len(used),
        true_test_gaps=int((replay.cut_time >= norm.t[idx]).sum()),
        predicted_cut_slots=int(decisions.cut.sum()),
        resume_evaluated=int(closed.sum()),
        resume_within_one=int(resume_hits.sum()),
        trained_digest=trained_digest,
        cut_model_json=cut_model.to_json() if cut_model else None,
        resume_model_json=resume_model.to_json() if resume_model else None,
        selected_cut_threshold=sel_cut_thr,
        selected_resume_threshold=sel_res_thr,
        cut_panel=panel,
    )


def macro_average(reports: Sequence[BacktestReport], which: str = "cut") -> RocPoint:
    """Across-phone mean of per-phone rates; phones with undefined rates drop."""
    tpr, fpr, _ = _macro_rates(reports, lambda r: r.rates(which))
    return RocPoint(tpr=tpr, fpr=fpr)


def _macro_rates(phones: Iterable, rates: Callable) -> tuple[float, float, int]:
    """(mean TPR, mean FPR, phones averaged) of ``rates(phone)`` over the
    phones in order, skipping phones whose rates are undefined; raises
    :class:`UndefinedRateError` when no phone's are defined."""
    defined = []
    for phone in phones:
        try:
            defined.append(rates(phone))
        except UndefinedRateError:
            continue
    if not defined:
        raise UndefinedRateError("no phone produced defined rates")
    return (float(np.mean([tpr for tpr, _ in defined])),
            float(np.mean([fpr for _, fpr in defined])), len(defined))
