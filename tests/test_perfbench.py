"""The traced benchmark run's use of the package, kept under test.

``perfbench/layers.py`` wraps package functions by name and drives
``pcach_step`` the way the CLI workers would; a rename or deletion of a name
it needs fails here rather than only in a benchmark run.
"""

import importlib
import pathlib

import pytest

from pcach import evaluation
from pcach.pipeline import PredictorKind
from pcach.synth import generate_trace, reference_config

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("layers")


@pytest.mark.parametrize("kind", list(PredictorKind), ids=lambda k: k.value)
def test_traced_step_drive_runs_for_each_predictor(layers, kind):
    trace = generate_trace(reference_config(seed=3, days=9), "bench-phone")
    tracer = layers.Tracer()
    with layers.instrument(tracer):
        report = layers._backtest(tracer, trace, kind)
        layers._drive_steps(tracer, trace, report, kind)
    names = [tracer.names[i] for i in tracer.columns()["name"]]
    assert names.count("pipeline.pcach_step") > 0
    assert f"evaluation.backtest.{kind.value}" in names
    assert "history.update_history" in names
    if kind is PredictorKind.ADABOOST:
        assert {"boosting.train_adaboost_xy", "history.extract_features",
                "bench.margins_batch"} <= set(names)
    else:
        assert "history.history_predict_event" in names
    # the package's own bindings come back once the block ends
    assert evaluation.update_history.__module__ == "pcach.history"
