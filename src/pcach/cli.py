"""Command-line front end: generation, mining, backtesting, report emission.

Every command writes its outputs plus a ``manifest.json`` recording the
command, the fully resolved parameter set and the file names produced, so a
run can be reproduced by re-invocation. Outputs are deterministic given
(inputs, flags, seed), on any machine: no output depends on the BLAS kernel
or the SIMD target numpy runs (see :mod:`pcach.boosting`). Per-phone work fans out to a process pool capped by
the ``PCACH_THREADS`` environment variable. A module that only some
commands run is imported inside those commands, before the pool starts, so
``mine``, ``gaps`` and ``bound`` never load the generator or the predictors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DISTINCT_NAMES, ParameterError, PCachError, UndefinedRateError, read_json
from .mining import (
    DEFAULT_HORIZONS_MIN,
    event_time_histogram,
    gap_duration_cdf,
    horizon_sweep,
    slots_per_day,
    traffic_split,
)
from .trace import (
    check_utc_offset,
    closed_gaps,
    derive_preferred_profile,
    detect_gaps,
    normalize_timeline,
    read_trace,
    write_trace,
)


def _worker_count() -> int:
    env = os.environ.get("PCACH_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise PCachError(f"PCACH_THREADS must be an integer, got {env!r}") from None


def _parallel_map(fn, items):
    """Order-preserving map over a process pool (sequential when capped)."""
    items = list(items)
    workers = min(_worker_count(), max(1, len(items)))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_dir(path: str) -> Path:
    """Create the output directory; commands call it once their inputs have
    been read and checked, so a rejected run leaves no directory behind."""
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_manifest(out_dir: Path, command: str, params: dict, outputs: list[str]):
    _write_json(out_dir / "manifest.json", {
        "command": command,
        "version": __version__,
        "parameters": params,
        "outputs": sorted(outputs),
    })


def _trace_paths(traces_dir: str) -> list[Path]:
    root = Path(traces_dir)
    if not root.is_dir():
        raise PCachError(f"trace directory not found: {traces_dir}")
    paths = sorted(p for p in root.iterdir()
                   if p.suffix.lower() in (".jsonl", ".csv"))
    if not paths:
        raise PCachError(f"no trace files (*.jsonl, *.csv) in {traces_dir}")
    return paths


def _run_phone(fn, path: Path):
    trace = read_trace(path)
    return trace.phone_id, fn(trace)


def _per_phone(fn, paths: list[Path], **params) -> list:
    """``fn(trace, **params)`` for every trace file, on the process pool.

    Each file is read once, in the worker that handles it; the results come
    back sorted by phone id, so aggregates sum in a fixed order.
    """
    job = functools.partial(_run_phone, functools.partial(fn, **params))
    results = _parallel_map(job, paths)
    return [result for _, result in sorted(results, key=lambda pair: pair[0])]


def _checked(flag: str, check, value):
    """``value`` once ``check(value)`` has passed; the ParameterError it
    raises is reported under ``flag``. Commands check their flags before any
    worker runs, so a rejected run creates no ``--out`` directory."""
    try:
        check(value)
    except ParameterError as exc:
        raise PCachError(f"{flag}: {exc}") from None
    return value


def _checked_utc_offset(args) -> int:
    """``--local-utc-offset``, in the range the history database accepts."""
    return _checked("--local-utc-offset", check_utc_offset, args.local_utc_offset)


def _checked_slot_minutes(args) -> int:
    """``--slot-minutes``, a slot length that divides a day."""
    return _checked("--slot-minutes", slots_per_day, args.slot_minutes)


def _normalized(trace):
    """The trace's normalized timeline and gaps. Normalization reads only the
    preferred SSIDs, which no time-of-day setting changes."""
    norm = normalize_timeline(trace, derive_preferred_profile(trace))
    return norm, detect_gaps(norm)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _generate_one(job):
    from .synth import GeneratorConfig, generate_trace

    config_json, phone_id, out_dir, fmt = job
    config = GeneratorConfig.from_json(config_json)
    trace = generate_trace(config, phone_id)
    name = f"{phone_id}.{fmt}"
    write_trace(trace, Path(out_dir) / name, fmt=fmt)
    return name


def cmd_generate(args) -> int:
    from .synth import GeneratorConfig, reference_config

    if args.phones < 1:
        raise PCachError(f"--phones must be at least 1, got {args.phones}")
    if args.config:
        config = GeneratorConfig.from_json(Path(args.config).read_bytes())
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.days is not None:
            config = dataclasses.replace(config, days=args.days)
    else:
        config = reference_config(seed=args.seed if args.seed is not None else 0,
                                  days=args.days if args.days is not None else 60)
    if config.days < 1:
        raise PCachError(f"days must be positive, got {config.days}")
    phone_ids = [f"phone-{i:03d}" for i in range(args.phones)]
    traces = [f"{phone_id}.{args.format}" for phone_id in phone_ids]
    created = not Path(args.out).exists()
    out_dir = _out_dir(args.out)
    before = _file_stamps(out_dir, traces)
    try:
        names = _parallel_map(_generate_one, [(config.to_json(), phone_id, str(out_dir),
                                               args.format) for phone_id in phone_ids])
        (out_dir / "generator_config.json").write_text(config.to_json() + "\n")
        _write_manifest(out_dir, "generate", {
            "phones": args.phones,
            "days": config.days,
            "seed": config.seed,
            "format": args.format,
            "config_file": args.config,
            "out": args.out,
        }, names + ["generator_config.json"])
    except BaseException:
        # a failed run takes back what it wrote: the directory it created,
        # or else the traces it wrote into one that was there before
        if created:
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            for name, stamp in _file_stamps(out_dir, traces).items():
                if before.get(name) != stamp:
                    (out_dir / name).unlink(missing_ok=True)
        raise
    print(f"wrote {len(names)} traces to {out_dir}")
    return 0


def _file_stamps(out_dir: Path, names: list[str]) -> dict[str, tuple[int, int, int]]:
    """(inode, modification time in ns, size) of each of ``names`` that is
    a file in ``out_dir``."""
    stamps = {}
    for name in names:
        try:
            st = (out_dir / name).stat()
        except FileNotFoundError:
            continue
        stamps[name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return stamps


# ---------------------------------------------------------------------------
# mine / gaps / bound
# ---------------------------------------------------------------------------

def _mine_phone(trace, *, horizons, slot_minutes, local_utc_offset):
    norm, gaps = _normalized(trace)
    split = traffic_split(norm)
    closed = closed_gaps(gaps)
    cuts, resumes = event_time_histogram(gaps, slot_minutes, local_utc_offset)
    return {
        "phone_id": norm.phone_id,
        "cellular_bytes": split.cellular_bytes,
        "wifi_bytes": split.wifi_bytes,
        "cellular_fraction": split.cellular_fraction,
        "closed_gaps": closed,
        "n_gaps": len(gaps),
        "n_open": sum(1 for g in gaps if g.open),
        "n_excluded": sum(1 for g in gaps if g.excluded),
        "cut_hist": list(cuts.counts),
        "resume_hist": list(resumes.counts),
        "bound": horizon_sweep(norm, gaps, horizons),
    }


def _bound_phone(trace, *, horizons):
    norm, gaps = _normalized(trace)
    return {"phone_id": norm.phone_id, "bound": horizon_sweep(norm, gaps, horizons)}


def _run_mining(args, command: str, worker, emit: set[str], **flags) -> int:
    """Run ``worker`` per phone and write the ``emit`` outputs; ``flags`` are
    the command's own flags, passed to the worker and recorded."""
    horizons = _parse_int_list(args.horizons, "--horizons")
    if min(horizons) < 0:
        raise PCachError(f"--horizons: horizons must be non-negative, got {min(horizons)}")
    results = _per_phone(worker, _trace_paths(args.traces), horizons=horizons, **flags)
    out_dir = _out_dir(args.out)

    outputs = []
    summary: dict = {"phones": len(results)}

    if "traffic" in emit:
        import statistics
        _write_csv(out_dir / "traffic_split.csv",
                   ["phone_id", "cellular_bytes", "wifi_bytes", "cellular_fraction"],
                   [[r["phone_id"], r["cellular_bytes"], r["wifi_bytes"],
                     f"{r['cellular_fraction']:.6f}"] for r in results])
        outputs.append("traffic_split.csv")
        total_cell = sum(r["cellular_bytes"] for r in results)
        total = total_cell + sum(r["wifi_bytes"] for r in results)
        fractions = [r["cellular_fraction"] for r in results]
        summary["cellular_share"] = total_cell / total if total else 0.0
        # statistics.median, not np.median, which loads numpy.ma
        summary["cellular_share_median_phone"] = (
            float(statistics.median(fractions)) if fractions else None)

    if "gap_cdf" in emit:
        closed = [g for r in results for g in r["closed_gaps"]]
        _write_csv(out_dir / "gap_cdf.csv", ["duration_s", "fraction"],
                   [[d, f"{f:.6f}"] for d, f in gap_duration_cdf(closed)])
        outputs.append("gap_cdf.csv")
        summary["gaps_in_cdf"] = len(closed)

    if "histogram" in emit:
        n = len(results[0]["cut_hist"])
        cut_total = [sum(r["cut_hist"][i] for r in results) for i in range(n)]
        res_total = [sum(r["resume_hist"][i] for r in results) for i in range(n)]
        _write_csv(out_dir / "event_histogram.csv",
                   ["slot_index", "slot_start_min", "cut_count", "resume_count"],
                   [[i, i * args.slot_minutes, cut_total[i], res_total[i]]
                    for i in range(n)])
        outputs.append("event_histogram.csv")
        summary["total_cut_events"] = sum(cut_total)
        summary["total_resume_events"] = sum(res_total)

    if "bound" in emit:
        _write_csv(out_dir / "bound_vs_horizon.csv",
                   ["phone_id", "horizon_min", "fraction"],
                   [[r["phone_id"], h, f"{frac:.6f}"]
                    for r in results for h, frac in r["bound"]])
        outputs.append("bound_vs_horizon.csv")
        summary["mean_bound_by_horizon"] = {
            str(h): float(np.mean([dict(r["bound"])[h] for r in results]))
            for h in horizons
        }

    if "gaps" in emit:
        summary["total_gaps"] = sum(r["n_gaps"] for r in results)
        summary["open_gaps"] = sum(r["n_open"] for r in results)
        summary["excluded_gaps"] = sum(r["n_excluded"] for r in results)

    _write_json(out_dir / "summary.json", summary)
    outputs.append("summary.json")
    _write_manifest(out_dir, command, {
        "traces": args.traces,
        "out": args.out,
        "horizons": horizons,
        **flags,
    }, outputs)
    print(f"{command}: {len(results)} phones -> {out_dir}")
    return 0


def cmd_mine(args) -> int:
    return _run_mining(args, "mine", _mine_phone,
                       {"traffic", "gap_cdf", "histogram", "bound", "gaps"},
                       slot_minutes=_checked_slot_minutes(args),
                       local_utc_offset=_checked_utc_offset(args))


def cmd_bound(args) -> int:
    return _run_mining(args, "bound", _bound_phone, {"bound"})


def _gaps_phone(trace):
    norm, gaps = _normalized(trace)
    return {
        "phone_id": norm.phone_id,
        "rows": [[norm.phone_id, g.cut_time,
                  g.resume_time if g.resume_time is not None else "",
                  g.duration_s if g.duration_s is not None else "",
                  int(g.open), int(g.excluded)] for g in gaps],
    }


def cmd_gaps(args) -> int:
    results = _per_phone(_gaps_phone, _trace_paths(args.traces))
    out_dir = _out_dir(args.out)
    rows = [row for r in results for row in r["rows"]]
    _write_csv(out_dir / "gaps.csv",
               ["phone_id", "cut_time", "resume_time", "duration_s", "open", "excluded"],
               rows)
    _write_json(out_dir / "summary.json",
                {"phones": len(results), "total_gaps": len(rows)})
    _write_manifest(out_dir, "gaps", {"traces": args.traces, "out": args.out},
                    ["gaps.csv", "summary.json"])
    print(f"gaps: {len(rows)} gaps from {len(results)} phones -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# backtest / sweep-k
# ---------------------------------------------------------------------------

def _default_s_apps(args) -> tuple[str, ...]:
    from .synth import reference_config

    if not args.s_apps:
        return reference_config().pcachable_apps
    apps = read_json(Path(args.s_apps).read_bytes(), f"--s-apps {args.s_apps}", PCachError)
    if not (DISTINCT_NAMES[0](apps) and apps and all(apps)):
        raise PCachError(f"--s-apps {args.s_apps} must be a non-empty list of distinct app ids")
    return tuple(apps)


def cmd_backtest(args) -> int:
    from .evaluation import backtest, macro_average, rate_record
    from .pipeline import PCachConfig, PredictorKind

    s_apps = _default_s_apps(args)
    if not 1 <= args.k <= len(s_apps):
        raise PCachError(f"--k {args.k} outside [1, {len(s_apps)}]: "
                         f"the pre-cachable app list has {len(s_apps)} apps")
    if args.split is not None and not 0.0 < args.split < 1.0:
        raise PCachError(f"--split: split ratio must lie in (0, 1), got {args.split}")
    if args.rounds < 1:
        raise PCachError(f"--rounds: rounds must be at least 1, got {args.rounds}")
    paths = _trace_paths(args.traces)
    config = PCachConfig(
        k=args.k, s_apps=s_apps, slot_minutes=_checked_slot_minutes(args),
        predictor_kind=PredictorKind(args.predictor), adaboost_rounds=args.rounds,
    )
    reports = _per_phone(backtest, paths, config=config, split=args.split,
                         seed=args.seed if args.seed is not None else 0,
                         utc_offset_s=_checked_utc_offset(args))
    out_dir = _out_dir(args.out)

    outputs = []
    if args.predictor == "adaboost":
        model_dir = out_dir / "models"
        model_dir.mkdir(exist_ok=True)
        for r in reports:
            for kind, blob in (("cut", r.cut_model_json), ("resume", r.resume_model_json)):
                if blob:
                    name = f"models/{r.phone_id}.{kind}.json"
                    (out_dir / name).write_text(blob + "\n")
                    outputs.append(name)

    def macro(which):
        try:
            point = macro_average(reports, which)
        except UndefinedRateError:
            return None
        return rate_record(point.tpr, point.fpr)

    summary = {
        "predictor": args.predictor,
        "k": args.k,
        "phones": len(reports),
        "macro_cut": macro("cut"),
        "macro_resume": macro("resume"),
        "macro_apps": macro("apps"),
    }
    _write_json(out_dir / "reports.json", [r.to_dict() for r in reports])
    _write_json(out_dir / "summary.json", summary)
    outputs += ["reports.json", "summary.json"]
    _write_manifest(out_dir, "backtest", {
        "traces": args.traces,
        "out": args.out,
        "predictor": args.predictor,
        "k": args.k,
        "rounds": args.rounds,
        "split": args.split,
        "seed": args.seed if args.seed is not None else 0,
        "slot_minutes": args.slot_minutes,
        "local_utc_offset": args.local_utc_offset,
        "s_apps_file": args.s_apps,
    }, outputs)
    print(f"backtest[{args.predictor}]: {len(reports)} phones -> {out_dir}")
    return 0


def cmd_sweep_k(args) -> int:
    from .evaluation import PAPER_K_SET, app_prediction_run, check_train_days, sweep_points

    s_apps = _default_s_apps(args)
    ks = _parse_int_list(args.ks, "--ks") if args.ks is not None else list(PAPER_K_SET)
    feasible = [k for k in ks if 1 <= k <= len(s_apps)]
    skipped_ks = [k for k in ks if k not in feasible]
    if not feasible:
        raise PCachError(f"no feasible K values in {ks} for {len(s_apps)} apps")
    runs = _per_phone(app_prediction_run, _trace_paths(args.traces),
                      s_apps=s_apps, ks=feasible, slot_minutes=_checked_slot_minutes(args),
                      train_days=_checked("--train-days", check_train_days, args.train_days),
                      utc_offset_s=_checked_utc_offset(args))
    out_dir = _out_dir(args.out)
    rows = [[p.k, f"{p.point.tpr:.6f}", f"{p.point.fpr:.6f}",
             f"{p.quality_gap:.6f}", p.phones] for p in sweep_points(runs)]
    _write_csv(out_dir / "sweep_k.csv",
               ["k", "mean_tpr", "mean_fpr", "quality_gap", "phones"], rows)
    best = min(rows, key=lambda row: float(row[3])) if rows else None
    _write_json(out_dir / "summary.json", {
        "phones": len(runs),
        "ks": feasible,
        "infeasible_ks": skipped_ks,
        "best_k": int(best[0]) if best else None,
        "best_quality_gap": float(best[3]) if best else None,
        "scored_gaps": sum(r.scored_gaps for r in runs),
        "skipped_gaps": sum(r.skipped_gaps for r in runs),
    })
    _write_manifest(out_dir, "sweep-k", {
        "traces": args.traces,
        "out": args.out,
        "ks": ks,
        "slot_minutes": args.slot_minutes,
        "train_days": args.train_days,
        "local_utc_offset": args.local_utc_offset,
        "s_apps_file": args.s_apps,
    }, ["sweep_k.csv", "summary.json"])
    print(f"sweep-k: {len(rows)} K values over {len(runs)} phones -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _parse_int_list(text: str, flag: str) -> list[int]:
    """A comma-separated list of distinct integers, blank entries skipped; a
    list with no integer or with an integer twice is an error."""
    values = []
    for entry in text.split(","):
        if not entry.strip():
            continue
        try:
            values.append(int(entry))
        except ValueError:
            raise PCachError(f"{flag}: entry {entry!r} is not an integer") from None
        if values[-1] in values[:-1]:
            raise PCachError(f"{flag}: {values[-1]} appears more than once in {text!r}")
    if not values:
        raise PCachError(f"{flag}: no values in {text!r}")
    return values


def _add_common(p):
    p.add_argument("--slot-minutes", type=int, default=15,
                   help="slot-of-day length (default 15)")
    p.add_argument("--local-utc-offset", type=int, default=0, metavar="SECONDS",
                   help="fixed local-time offset applied to all traces")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcach",
        description="WiFi-gap mining and pre-caching prediction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic trace corpus")
    g.add_argument("--phones", type=int, default=10)
    g.add_argument("--days", type=int, default=None)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--config", default=None, help="generator config JSON file")
    g.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    for name, fn, help_text in (
        ("mine", cmd_mine, "traffic split, gap CDF, event histograms, bound"),
        ("bound", cmd_bound, "pre-cache bound vs horizon only"),
    ):
        m = sub.add_parser(name, help=help_text)
        m.add_argument("--traces", required=True)
        m.add_argument("--out", required=True)
        m.add_argument("--horizons", default=",".join(str(h) for h in DEFAULT_HORIZONS_MIN),
                       help="comma-separated horizon minutes")
        if name == "mine":
            _add_common(m)
        m.set_defaults(fn=fn)

    gp = sub.add_parser("gaps", help="per-phone WiFi gap listings")
    gp.add_argument("--traces", required=True)
    gp.add_argument("--out", required=True)
    gp.set_defaults(fn=cmd_gaps)

    b = sub.add_parser("backtest", help="chronological train/test evaluation")
    b.add_argument("--traces", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--predictor", choices=("history", "adaboost"), required=True)
    b.add_argument("--k", type=int, default=10)
    b.add_argument("--rounds", type=int, default=50, help="boosting rounds")
    b.add_argument("--split", type=float, default=None,
                   help="train fraction (defaults: history 7 days, adaboost 0.5)")
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--s-apps", default=None,
                   help="JSON file with the pre-cachable app list")
    _add_common(b)
    b.set_defaults(fn=cmd_backtest)

    s = sub.add_parser("sweep-k", help="quality-gap vs K sweep on true gaps")
    s.add_argument("--traces", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--ks", default=None,
                   help="comma-separated K values (default: the paper's K set)")
    s.add_argument("--train-days", type=float, default=7.0)
    s.add_argument("--s-apps", default=None,
                   help="JSON file with the pre-cachable app list")
    _add_common(s)
    s.set_defaults(fn=cmd_sweep_k)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PCachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
