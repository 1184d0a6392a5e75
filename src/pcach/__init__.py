"""Trace-driven WiFi-gap mining, pre-caching potential analysis and
cut/resume/app prediction for smartphone connectivity traces."""

from .boosting import AdaBoostModel, Stump, adaboost_predict, train_adaboost_xy
from .evaluation import (
    ConfusionCounts,
    RocPoint,
    app_prediction_run,
    backtest,
    k_sweep,
    macro_average,
    quality_gap,
    score_app_prediction,
    tpr_fpr,
)
from .history import (
    EventKind,
    FeatureVector,
    HistoryDB,
    extract_features,
    fold_rows,
    history_predict_event,
    predict_resume_slot,
    predict_top_k_apps,
    update_history,
)
from .mining import (
    SlotOfDayHistogram,
    TrafficSplit,
    event_time_histogram,
    gap_duration_cdf,
    horizon_sweep,
    precache_bound,
    traffic_split,
)
from .pipeline import (
    AdaBoostPredictor,
    HistoryPredictor,
    PCachConfig,
    PredictorKind,
    make_predictor,
    pcach_step,
)
from .synth import (
    AppSpec,
    GapLengthDistribution,
    GeneratorConfig,
    generate_trace,
    generate_trace_with_schedule,
    reference_config,
)
from .trace import (
    ActiveNetwork,
    AppTrafficRecord,
    MeasurementSample,
    PreferredNetworkProfile,
    Trace,
    WiFiGap,
    closed_gaps,
    derive_preferred_profile,
    detect_gaps,
    ingest_trace,
    normalize_timeline,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"
