"""Trace-driven WiFi-gap mining, pre-caching potential analysis and
cut/resume/app prediction for smartphone connectivity traces.

The public names below are imported from their submodule on first use
(PEP 562), so a program, a CLI command or a worker loads only the modules
it runs."""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "boosting": ("AdaBoostModel", "Stump", "adaboost_predict", "train_adaboost_xy"),
    "evaluation": ("ConfusionCounts", "RocPoint", "app_prediction_run", "backtest",
                   "k_sweep", "macro_average", "quality_gap", "tpr_fpr"),
    "history": ("EventKind", "FeatureVector", "HistoryDB", "extract_features", "fold_rows",
                "history_predict_event", "predict_resume_slot", "predict_top_k_apps",
                "update_history"),
    "mining": ("SlotOfDayHistogram", "TrafficSplit", "event_time_histogram",
               "gap_duration_cdf", "horizon_sweep", "precache_bound", "traffic_split"),
    "pipeline": ("AdaBoostPredictor", "HistoryPredictor", "PCachConfig", "PredictorKind",
                 "make_predictor", "pcach_step"),
    "synth": ("AppSpec", "GapLengthDistribution", "GeneratorConfig", "generate_trace",
              "generate_trace_with_schedule", "reference_config"),
    "trace": ("ActiveNetwork", "AppTrafficRecord", "MeasurementSample",
              "PreferredNetworkProfile", "Trace", "WiFiGap", "closed_gaps",
              "derive_preferred_profile", "detect_gaps", "ingest_trace",
              "normalize_timeline", "read_trace", "write_trace"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # an unknown name raises AttributeError, so `from pcach import trace`
    # falls back to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
