"""Traced in-process run of the pcach layers, timed from outside the package.

The run calls the package's public functions in the order the CLI workers
call them, one phone at a time in this one process, and records one span per
call into each layer. Calls the package makes internally (``backtest`` into
``history``, ``boosting`` and ``pipeline``) are timed by wrapping those
functions where the package modules look them up, for the length of the run
only; nothing in the package changes.

Spans are kept in memory (parallel int64 arrays) and written once at the
end, as ``.perfbench_out/<workload>.spans.npz`` (schema in ``README.md``).
Layers the workload does not reach are measured by a probe that runs the
other workloads' calls on ``phone-000``; its spans go to
``<workload>.probe-spans.npz``, so the workload's own file shows only
what the workload does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

from pcach import boosting, evaluation, history, mining, pipeline, synth
from pcach import trace as trace_mod

# The corpus length and K of the CLI commands in run.py.
DAYS = 60
K = 7
HORIZONS = mining.DEFAULT_HORIZONS_MIN


class Tracer:
    """Spans as parallel arrays: name, parent, request, start, end, work count.

    ``parent`` is the index of the enclosing span (-1 at the root) and
    ``request`` the interned phone id. ``n`` is a work count recorded at the
    boundary (samples, rows, chosen apps), or -1.
    """

    def __init__(self):
        self.names: list[str] = []
        self.requests: list[str] = []
        self._ids: dict[tuple[int, str], int] = {}
        self.name, self.parent, self.request = array("q"), array("q"), array("q")
        self.start, self.end, self.n = array("q"), array("q"), array("q")
        self._stack = [-1]
        self._request = -1
        self.t0 = time.perf_counter_ns()

    def _intern(self, table: list[str], kind: int, value: str) -> int:
        key = (kind, value)
        if key not in self._ids:
            self._ids[key] = len(table)
            table.append(value)
        return self._ids[key]

    def set_request(self, request_id: str) -> None:
        self._request = self._intern(self.requests, 1, request_id)

    def wrap(self, fn, name: str, count=None):
        """``fn`` with a span around every call; ``count(args, result)`` sets n."""
        nid = self._intern(self.names, 0, name)
        stack, names, parents, requests = self._stack, self.name, self.parent, self.request
        starts, ends, ns = self.start, self.end, self.n
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self._request)
            starts.append(0)
            ends.append(0)
            ns.append(-1)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                ns[idx] = count(args, result)
            return result

        return traced

    def call(self, name: str, fn, *args, count=None, **kwargs):
        return self.wrap(fn, name, count)(*args, **kwargs)

    def __len__(self) -> int:
        return len(self.start)

    def columns(self) -> dict[str, np.ndarray]:
        cols = {k: np.frombuffer(getattr(self, k), dtype=np.int64)
                for k in ("name", "parent", "request", "start", "end", "n")}
        cols["dur"] = cols["end"] - cols["start"]
        return cols

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans as one ``.npz`` of columns (schema in README.md)."""
        cols = self.columns()
        np.savez_compressed(
            path, name=cols["name"], parent=cols["parent"], request=cols["request"],
            start_ns=cols["start"] - self.t0, end_ns=cols["end"] - self.t0, n=cols["n"],
            names=np.array(self.names), requests=np.array(self.requests),
            meta=np.array(json.dumps(meta, sort_keys=True)))


def _n_len0(args, result):
    return len(args[0])


def _n_len1(args, result):
    return len(args[1])


def _n_result(args, result):
    return len(result)


# (module, function, count) wrapped wherever a pcach module binds it.
INSTRUMENTED = (
    (trace_mod, "derive_preferred_profile", None),
    (trace_mod, "normalize_timeline", None),
    (trace_mod, "detect_gaps", _n_result),
    (mining, "traffic_split", None),
    (mining, "event_time_histogram", None),
    (mining, "horizon_sweep", None),
    (history, "update_history", _n_len1),
    (history, "history_predict_event", None),
    (history, "predict_resume_slot", None),
    (history, "predict_top_k_apps", _n_result),
    (history, "extract_features", None),
    (boosting, "train_adaboost_xy", _n_len0),
    (boosting, "adaboost_predict", None),
    (pipeline, "pcach_step", _n_result),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap INSTRUMENTED functions (and the margins method) for the block."""
    layer = {m: m.__name__.rsplit(".", 1)[1] for m, _, _ in INSTRUMENTED}
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "pcach" or name.startswith("pcach."))]
    undo = []
    for mod, attr, count in INSTRUMENTED:
        original = getattr(mod, attr)
        wrapped = tracer.wrap(original, f"{layer[mod]}.{attr}", count)
        for m in modules:
            if getattr(m, attr, None) is original:
                setattr(m, attr, wrapped)
                undo.append((m, attr, original))
    margins = boosting.AdaBoostModel.decision_margins
    boosting.AdaBoostModel.decision_margins = tracer.wrap(
        margins, "boosting.decision_margins", _n_len1)
    undo.append((boosting.AdaBoostModel, "decision_margins", margins))
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-phone calls, mirroring each CLI command's worker
# ---------------------------------------------------------------------------

def _read(tr: Tracer, path: Path):
    fmt = path.suffix.lstrip(".")
    return tr.call(f"trace.read_trace.{fmt}", trace_mod.read_trace, path,
                   count=lambda a, r: len(r.samples))


def _mine_one(tr: Tracer, path: Path) -> None:
    t = _read(tr, path)
    profile = trace_mod.derive_preferred_profile(t)
    norm = trace_mod.normalize_timeline(t, profile)
    gaps = trace_mod.detect_gaps(norm)
    mining.traffic_split(norm)
    trace_mod.closed_gaps(gaps)
    mining.event_time_histogram(gaps, 15, 0)
    mining.horizon_sweep(norm, gaps, HORIZONS)


def _gaps_one(tr: Tracer, path: Path) -> None:
    t = _read(tr, path)
    trace_mod.detect_gaps(trace_mod.normalize_timeline(t, trace_mod.derive_preferred_profile(t)))


def _write(tr: Tracer, t, path: Path) -> None:
    fmt = path.suffix.lstrip(".")
    tr.call(f"trace.write_trace.{fmt}", trace_mod.write_trace, t, path,
            count=lambda a, r: len(a[0].samples))


def _generate(tr: Tracer, config, phone: str):
    return tr.call("synth.generate_trace", synth.generate_trace, config, phone,
                   count=lambda a, r: len(r.samples))


def _config(kind: pipeline.PredictorKind) -> pipeline.PCachConfig:
    return pipeline.PCachConfig(k=K, s_apps=synth.reference_config().pcachable_apps,
                                predictor_kind=kind)


def _backtest(tr: Tracer, t, kind: pipeline.PredictorKind):
    return tr.call(f"evaluation.backtest.{kind.value}", evaluation.backtest, t,
                   _config(kind), seed=0, count=lambda a, r: r.test_slots)


def _drive_steps(tr: Tracer, t, report, kind) -> None:
    """Call ``pcach_step`` once per slot of the report's test period.

    The history database warms on the training prefix under the training
    profile, as in ``backtest``; the AdaBoost predictor uses the models the
    backtest trained. With AdaBoost, the test rows' cut features are kept and
    scored in one ``decision_margins`` call at the end.
    """
    config = _config(kind)
    if kind is pipeline.PredictorKind.ADABOOST:
        config = dataclasses.replace(
            config, cut_model=boosting.AdaBoostModel.from_json(report.cut_model_json),
            resume_model=boosting.AdaBoostModel.from_json(report.resume_model_json))
    predictor = pipeline.make_predictor(config)
    idx = report.split_index
    profile = trace_mod.derive_preferred_profile(
        trace_mod.Trace(t.phone_id, t.samples[:idx], t.nominal_period_s))
    norm = trace_mod.normalize_timeline(t, profile)
    db = history.HistoryDB(config.slot_minutes, tracked_apps=config.s_apps, profile=profile)
    history.update_history(db, norm.samples[:idx])
    rng = synth.stream_rng(0, t.phone_id, 0, "bench-steps")
    slot_s = config.slot_minutes * 60
    groups: list[tuple[int, list]] = []
    for s in norm.samples[idx:]:
        slot = s.timestamp // slot_s
        if groups and groups[-1][0] == slot:
            groups[-1][1].append(s)
        else:
            groups.append((slot, [s]))
    rows = []
    for slot, samples in groups:
        pipeline.pcach_step(db, config, slot, samples, rng, predictor)
        if config.cut_model is not None:
            rows.append(history.extract_features(
                db, slot + 1, db.last_timestamp, history.EventKind.CUT).as_array())
    if rows:
        tr.call("bench.margins_batch", config.cut_model.decision_margins, np.stack(rows),
                count=_n_len0)


def workload_jobs(workload: str, corpus: Path, out: Path, seed: int, counters: dict):
    """The workload's per-phone jobs as (command, fn(tr, phone)), in CLI order.

    A job whose command is None is benchmark-only (the ``pcach_step`` drive).
    """
    def jsonl(p):
        return corpus / "jsonl" / f"{p}.jsonl"

    def csv(p):
        return corpus / "csv" / f"{p}.csv"

    if workload == "ingest":
        return [("mine", lambda tr, p: _mine_one(tr, jsonl(p))),
                ("gaps", lambda tr, p: _gaps_one(tr, csv(p))),
                ("bound", lambda tr, p: _mine_one(tr, csv(p)))]

    if workload == "replay":
        kept: dict = {}
        history_kind, ada_kind = pipeline.PredictorKind.HISTORY, pipeline.PredictorKind.ADABOOST

        def bt_history(tr, p):
            kept[p, history_kind] = _backtest(tr, _read(tr, jsonl(p)), history_kind)

        def bt_adaboost(tr, p):
            t = _read(tr, jsonl(p))
            kept[p] = t
            kept[p, ada_kind] = _backtest(tr, t, ada_kind)

        def sweep(tr, p):
            s_apps = synth.reference_config().pcachable_apps
            run = tr.call("evaluation.app_prediction_run", evaluation.app_prediction_run,
                          _read(tr, jsonl(p)), s_apps,
                          [k for k in evaluation.PAPER_K_SET if k <= len(s_apps)])
            counters["scored_gaps"] = counters.get("scored_gaps", 0) + run.scored_gaps
            counters["skipped_gaps"] = counters.get("skipped_gaps", 0) + run.skipped_gaps

        def steps(tr, p):
            t = kept.pop(p)
            for kind in (history_kind, ada_kind):
                tr.call(f"bench.drive_steps.{kind.value}", _drive_steps, tr, t,
                        kept.pop((p, kind)), kind)

        return [("backtest_history", bt_history), ("backtest_adaboost", bt_adaboost),
                ("sweep_k", sweep), (None, steps)]

    config = synth.reference_config(seed=seed, days=DAYS)

    def generate(fmt, make_config):
        def job(tr, p):
            (out / fmt).mkdir(parents=True, exist_ok=True)
            _write(tr, _generate(tr, make_config(), p), out / fmt / f"{p}.{fmt}")
        return job

    return [("generate_jsonl", generate("jsonl", lambda: config)),
            ("generate_csv", generate("csv", lambda: config)),
            ("generate_config", generate("jsonl", lambda: synth.GeneratorConfig.from_json(
                config.to_json())))]


def run_jobs(tr: Tracer, jobs, phones) -> None:
    for command, fn in jobs:
        for phone in phones:
            tr.set_request(phone)
            if command is None:
                fn(tr, phone)
            else:
                tr.call(f"cli.{command}", fn, tr, phone)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

UNITS = {
    "trace.read_jsonl_samples_per_s": "samples/s",
    "trace.read_csv_samples_per_s": "samples/s",
    "trace.write_jsonl_samples_per_s": "samples/s",
    "trace.write_csv_samples_per_s": "samples/s",
    "trace.profile_s": "s",
    "trace.normalize_s": "s",
    "trace.detect_gaps_s": "s",
    "trace.retained_bytes_per_sample": "B/sample",
    "trace.samples": "count",
    "trace.relabelled_samples": "count",
    "trace.gaps": "count",
    "trace.open_gaps": "count",
    "synth.generate_samples_per_s": "samples/s",
    "mining.traffic_split_s": "s",
    "mining.horizon_sweep_s": "s",
    "mining.event_hist_s": "s",
    "history.event_rule_us": "us",
    "history.top_k_us": "us",
    "history.update_samples_per_s": "samples/s",
    "history.extract_features_us": "us",
    "boosting.train_s": "s",
    "boosting.margins_call_us": "us",
    "boosting.margins_rows_per_s": "rows/s",
    "pipeline.step_us_p50": "us",
    "pipeline.step_us_p99": "us",
    "pipeline.steps": "count",
    "pipeline.cut_fire_ratio": "ratio",
    "evaluation.backtest_history_s": "s",
    "evaluation.backtest_adaboost_s": "s",
    "evaluation.app_prediction_run_s": "s",
    "evaluation.test_slots": "count",
    "evaluation.scored_gap_ratio": "ratio",
    "cli.startup_s": "s",
    "cli.cmd1.fanout_efficiency": "ratio",
    "cli.cmd2.fanout_efficiency": "ratio",
    "cli.cmd3.fanout_efficiency": "ratio",
    "bench.tracing_overhead_share": "ratio",
}


def span_metrics(tr: Tracer, counters: dict) -> dict[str, float | None]:
    """Per-layer metrics from one tracer's spans; None where no span exists."""
    c = tr.columns()
    ids = {name: i for i, name in enumerate(tr.names)}

    def sel(name, where=None):
        mask = c["name"] == ids.get(name, -2)
        return mask if where is None else mask & where

    def per_call(name, scale, where=None):
        d = c["dur"][sel(name, where)]
        return float(d.mean()) * scale if d.size else None

    def percentile(name, scale, q):
        d = c["dur"][sel(name)]
        return float(np.percentile(d, q)) * scale if d.size else None

    def rate(name):
        m = sel(name)
        return float(c["n"][m].sum() / (c["dur"][m].sum() / 1e9)) if m.any() else None

    def total(name):
        m = sel(name)
        return int(c["n"][m].sum()) if m.any() else None

    steps = sel("pipeline.pcach_step")
    scored, skipped = counters.get("scored_gaps"), counters.get("skipped_gaps")
    test_slots = [v for v in (total("evaluation.backtest.history"),
                              total("evaluation.backtest.adaboost")) if v is not None]
    return {
        "trace.read_jsonl_samples_per_s": rate("trace.read_trace.jsonl"),
        "trace.read_csv_samples_per_s": rate("trace.read_trace.csv"),
        "trace.write_jsonl_samples_per_s": rate("trace.write_trace.jsonl"),
        "trace.write_csv_samples_per_s": rate("trace.write_trace.csv"),
        "trace.profile_s": per_call("trace.derive_preferred_profile", 1e-9),
        "trace.normalize_s": per_call("trace.normalize_timeline", 1e-9),
        "trace.detect_gaps_s": per_call("trace.detect_gaps", 1e-9),
        "synth.generate_samples_per_s": rate("synth.generate_trace"),
        "mining.traffic_split_s": per_call("mining.traffic_split", 1e-9),
        "mining.horizon_sweep_s": per_call("mining.horizon_sweep", 1e-9),
        "mining.event_hist_s": per_call("mining.event_time_histogram", 1e-9),
        "history.event_rule_us": per_call("history.history_predict_event", 1e-3),
        "history.top_k_us": per_call("history.predict_top_k_apps", 1e-3),
        "history.update_samples_per_s": rate("history.update_history"),
        "history.extract_features_us": per_call("history.extract_features", 1e-3),
        "boosting.train_s": per_call("boosting.train_adaboost_xy", 1e-9),
        "boosting.margins_call_us": per_call("boosting.decision_margins", 1e-3, c["n"] == 1),
        "boosting.margins_rows_per_s": rate("bench.margins_batch"),
        "pipeline.step_us_p50": percentile("pipeline.pcach_step", 1e-3, 50),
        "pipeline.step_us_p99": percentile("pipeline.pcach_step", 1e-3, 99),
        "pipeline.steps": int(steps.sum()) if steps.any() else None,
        "pipeline.cut_fire_ratio": float((c["n"][steps] > 0).mean()) if steps.any() else None,
        "evaluation.backtest_history_s": per_call("evaluation.backtest.history", 1e-9),
        "evaluation.backtest_adaboost_s": per_call("evaluation.backtest.adaboost", 1e-9),
        "evaluation.app_prediction_run_s": per_call("evaluation.app_prediction_run", 1e-9),
        "evaluation.test_slots": sum(test_slots) if test_slots else None,
        "evaluation.scored_gap_ratio": (scored / (scored + skipped)
                                        if scored is not None and scored + skipped else None),
    }


def corpus_counts(corpus: Path, phones) -> dict[str, int]:
    """Samples, relabelled samples and gaps of the corpus, as ``mine`` sees it."""
    counts = {"trace.samples": 0, "trace.relabelled_samples": 0,
              "trace.gaps": 0, "trace.open_gaps": 0}
    for phone in phones:
        t = trace_mod.read_trace(corpus / "jsonl" / f"{phone}.jsonl")
        norm = trace_mod.normalize_timeline(t, trace_mod.derive_preferred_profile(t))
        gaps = trace_mod.detect_gaps(norm)
        counts["trace.samples"] += len(t.samples)
        counts["trace.relabelled_samples"] += sum(
            a is not b for a, b in zip(t.samples, norm.samples))
        counts["trace.gaps"] += len(gaps)
        counts["trace.open_gaps"] += sum(g.open for g in gaps)
    return counts


def retained_bytes_per_sample(path: Path) -> float:
    """Bytes still allocated after ``read_trace``, per sample (tracemalloc)."""
    tracemalloc.start()
    try:
        t = trace_mod.read_trace(path)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / len(t.samples)


def _noop():
    return None


def span_cost_ns(calls: int = 20000) -> float:
    """Added cost of one span, from wrapped against plain calls of a no-op."""
    wrapped = Tracer().wrap(_noop, "noop")
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        _noop()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter_ns()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def traced_metrics(workload, seed, corpus: Path, phones, cli_walls, work: Path,
                   out_dir: Path, threads: int):
    """Run the traced pass and the probe; return (metrics, spans files, phase s).

    ``cli_walls`` holds (command, wall s) of the untraced CLI pass of the same
    run, for each command's fan-out efficiency.
    """
    phases: dict[str, float] = {}
    clock = time.perf_counter

    counters: dict = {}
    tr = Tracer()
    t0 = clock()
    with instrument(tr):
        run_jobs(tr, workload_jobs(workload, corpus, work / "traced", seed, counters), phones)
    phases["traced_pass"] = clock() - t0

    t0 = clock()
    probe_counters: dict = {}
    probe = Tracer()
    with instrument(probe):
        for other in ("ingest", "replay", "generate"):
            if other != workload:
                run_jobs(probe, workload_jobs(other, corpus, work / "probe", seed,
                                              probe_counters), phones[:1])
    phases["probe"] = clock() - t0

    t0 = clock()
    found = span_metrics(tr, counters)
    fallback = span_metrics(probe, probe_counters)
    values = {k: v if v is not None else fallback[k] for k, v in found.items()}
    values.update(corpus_counts(corpus, phones))
    values["trace.retained_bytes_per_sample"] = retained_bytes_per_sample(
        corpus / "jsonl" / f"{phones[0]}.jsonl")
    cols = tr.columns()
    for i, (command, wall) in enumerate(cli_walls):
        busy = cols["dur"][cols["name"] == tr.names.index(f"cli.{command}")].sum() / 1e9
        values[f"cli.cmd{i + 1}.fanout_efficiency"] = busy / (threads * wall)
    values["bench.tracing_overhead_share"] = (
        len(tr) * span_cost_ns() / 1e9 / phases["traced_pass"])
    phases["counts"] = clock() - t0

    t0 = clock()
    files = []
    for tracer, kind, traced_phones in ((tr, "spans", phones), (probe, "probe-spans", phones[:1])):
        path = out_dir / f"{workload}.{kind}.npz"
        tracer.dump(path, {"schema": 1, "workload": workload, "seed": seed,
                           "phones": list(traced_phones)})
        files.append(str(path.relative_to(out_dir.parent)))
    phases["write_spans"] = clock() - t0

    missing = [k for k in UNITS if k != "cli.startup_s" and values.get(k) is None]
    if missing:
        raise RuntimeError(f"per-layer metrics without a value: {missing}")
    return {k: (values[k], UNITS[k]) for k in UNITS if k in values}, files, phases
