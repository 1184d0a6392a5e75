"""The traced benchmark run's use of the package, kept under test.

``perfbench/layers.py`` wraps package functions by name and drives
``pcach_step`` the way the CLI workers would; a rename or deletion of a name
it needs fails here rather than only in a benchmark run. Its corpus counts
and retained-memory figure are checked against the columnar trace design:
the ingest commands never build the sample view.
"""

import dataclasses
import importlib
import pathlib

import numpy as np
import pytest

from pcach import pipeline
from pcach import trace as trace_mod
from pcach.cli import main
from pcach.pipeline import PredictorKind
from pcach.synth import generate_trace, reference_config
from pcach.trace import (
    ActiveNetwork,
    Trace,
    derive_preferred_profile,
    normalize_timeline,
    read_trace,
    write_trace,
)

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
    assert "history.predict_top_k_apps" in names
    if kind is PredictorKind.ADABOOST:
        assert {"boosting.train_adaboost_xy", "history.extract_features",
                "bench.margins_batch"} <= set(names)
    else:
        assert "history.history_predict_event" in names
    # the package's own bindings come back once the block ends
    assert pipeline.update_history.__module__ == "pcach.history"


PHONES = ("phone-000", "phone-001")


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Two 6-day phones in the benchmark's layout: ``jsonl/`` and ``csv/``.

    The generator's cellular scans never hold a connected network, so every
    third cellular sample is made to see the home network: normalization
    then has samples to relabel.
    """
    root = tmp_path_factory.mktemp("bench-corpus")
    for fmt in ("jsonl", "csv"):
        (root / fmt).mkdir()
    for phone in PHONES:
        generated = generate_trace(reference_config(seed=11, days=6), phone)
        home = f"home-net-{phone}"
        trace = Trace(phone, [
            dataclasses.replace(s, visible_ssids=s.visible_ssids | {home})
            if s.active_network is ActiveNetwork.CELLULAR and i % 3 == 0 else s
            for i, s in enumerate(generated.samples)])
        write_trace(trace, root / "jsonl" / f"{phone}.jsonl")
        write_trace(trace, root / "csv" / f"{phone}.csv")
    return root


def test_corpus_counts_relabelled_samples_from_the_state_columns(layers, small_corpus):
    relabelled = samples = 0
    for phone in PHONES:
        trace = read_trace(small_corpus / "jsonl" / f"{phone}.jsonl")
        norm = normalize_timeline(trace, derive_preferred_profile(trace))
        relabelled += int(np.count_nonzero(norm.state != trace.state))
        samples += len(trace)
    counts = layers.corpus_counts(small_corpus, PHONES)
    assert relabelled > 0
    assert counts["trace.relabelled_samples"] == relabelled
    assert counts["trace.samples"] == samples


def test_retained_bytes_per_sample_stays_within_target(layers, small_corpus):
    assert layers.retained_bytes_per_sample(small_corpus / "jsonl" / "phone-000.jsonl") <= 100


def _no_view(trace):
    raise AssertionError(f"the sample view of {trace.phone_id!r} was built")


@pytest.mark.parametrize("args", [
    ["mine", "--traces", "jsonl"],
    ["mine", "--traces", "csv"],
    ["gaps", "--traces", "csv"],
    ["bound", "--traces", "csv"],
], ids=["mine-jsonl", "mine-csv", "gaps", "bound"])
def test_ingest_workers_never_build_the_sample_view(small_corpus, monkeypatch, tmp_path, args):
    monkeypatch.setattr(trace_mod, "_build_samples", _no_view)
    monkeypatch.setenv("PCACH_THREADS", "1")  # the workers run in this process
    monkeypatch.chdir(small_corpus)
    assert main([*args, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("args", [
    ["backtest", "--predictor", "history", "--split", "0.5"],
    ["backtest", "--predictor", "adaboost", "--split", "0.5"],
    ["sweep-k", "--train-days", "3"],
], ids=["backtest-history", "backtest-adaboost", "sweep-k"])
def test_replay_workers_never_build_the_sample_view(small_corpus, monkeypatch, tmp_path, args):
    monkeypatch.setattr(trace_mod, "_build_samples", _no_view)
    monkeypatch.setenv("PCACH_THREADS", "1")  # the workers run in this process
    monkeypatch.chdir(small_corpus)
    assert main([*args, "--traces", "jsonl", "--out", str(tmp_path / "out")]) == 0
