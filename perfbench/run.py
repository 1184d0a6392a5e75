#!/usr/bin/env python3
"""pcach benchmark: the ``pcach`` CLI over a seeded synthetic corpus.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0

Each run builds a seeded 60-day ``reference_config()`` corpus (JSONL and CSV)
in ``.perfbench_work/`` inside the checkout, then runs the workload's three
CLI commands as subprocesses of this one process, with ``PCACH_THREADS=2``
and an absolute ``PYTHONPATH`` to the checkout's ``src``. Every command's
output is checked against references that do not come from the code under
test (see ``README.md`` next to this file).

``--trace 0`` sets up the corpus ``SETUP_REPEATS`` times, then repeats passes
over the commands until ``--seconds`` have elapsed, and reports the
end-to-end metrics as medians. ``--trace 1`` runs one untraced CLI pass and
then the traced in-process run of ``layers.py``, and reports the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a
``{"value", "unit"}`` pair). The lines before it repeat the metrics for
people, with the command behind each ``cmdN_s`` and the error rate. The full
record, with the environment, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import json
import math
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

PHONES = 4
DAYS = 60
THREADS = 2
K = 7
SETUP_REPEATS = 3
# Medians need at least three passes; replay's pass is about 10 s.
MIN_PASSES = 3
# A run must end within 180 s; commands still running at this point are killed.
DEADLINE_S = 165.0
PR_SET_CHILD_SUBREAPER = 36

WORKLOADS = ("ingest", "replay", "generate")

# Calibration targets of reference_config() (the published aggregates).
CELL_SHARE_RANGE = (0.10, 0.20)
GAP_CDF_ANCHORS = ((1800, 0.65), (5400, 0.80), (14400, 0.90))
GAP_CDF_TOLERANCE = 0.10
BOUND_120_RANGE = (0.70, 0.90)
BEST_K_RANGE = (5, 20)


def phone_ids() -> list[str]:
    return [f"phone-{i:03d}" for i in range(PHONES)]


# ---------------------------------------------------------------------------
# set-up: the seeded corpus, written by the library in a process pool
# ---------------------------------------------------------------------------

def _write_phone(job):
    seed, phone_id, corpus = job
    from pcach.synth import generate_trace, reference_config
    from pcach.trace import write_trace

    trace = generate_trace(reference_config(seed=seed, days=DAYS), phone_id)
    write_trace(trace, Path(corpus, "jsonl", f"{phone_id}.jsonl"))
    write_trace(trace, Path(corpus, "csv", f"{phone_id}.csv"))


def build_corpus(corpus: Path, seed: int) -> None:
    """Write every phone of the corpus as JSONL and as CSV."""
    for fmt in ("jsonl", "csv"):
        (corpus / fmt).mkdir(parents=True)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=THREADS, mp_context=ctx) as pool:
        for _ in pool.map(_write_phone, [(seed, p, str(corpus)) for p in phone_ids()]):
            pass


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def setup(work: Path, seed: int, repeats: int) -> tuple[Path, list[float], int]:
    """Build the corpus ``repeats`` times; keep the last, return set-up times.

    Returns the corpus directory, the time of each build and how many builds
    differed from the first (the generator must be deterministic).
    """
    times, first, mismatches, corpus = [], None, 0, None
    for i in range(repeats):
        if corpus is not None:
            shutil.rmtree(corpus)
        corpus = work / f"corpus-{i}"
        t0 = time.perf_counter()
        build_corpus(corpus, seed)
        times.append(time.perf_counter() - t0)
        digests = tree_digests(corpus)
        if first is None:
            first = digests
        elif digests != first:
            mismatches += 1
    return corpus, times, mismatches


# ---------------------------------------------------------------------------
# the CLI under test
# ---------------------------------------------------------------------------

def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PCACH_THREADS"] = str(THREADS)
    return env


def commands(workload: str, corpus: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's three commands as (name, pcach arguments), in run order."""
    jsonl, csv_dir = str(corpus / "jsonl"), str(corpus / "csv")
    if workload == "ingest":
        return [
            ("mine", ["mine", "--traces", jsonl, "--out", str(out / "mine")]),
            ("gaps", ["gaps", "--traces", csv_dir, "--out", str(out / "gaps")]),
            ("bound", ["bound", "--traces", csv_dir, "--out", str(out / "bound")]),
        ]
    if workload == "replay":
        return [
            ("backtest_history", ["backtest", "--predictor", "history", "--k", str(K),
                                  "--traces", jsonl, "--out", str(out / "backtest_history")]),
            ("backtest_adaboost", ["backtest", "--predictor", "adaboost", "--k", str(K),
                                   "--traces", jsonl, "--out", str(out / "backtest_adaboost")]),
            ("sweep_k", ["sweep-k", "--traces", jsonl, "--out", str(out / "sweep_k")]),
        ]
    gen = ["generate", "--phones", str(PHONES)]
    return [
        ("generate_jsonl", gen + ["--days", str(DAYS), "--seed", str(seed), "--format", "jsonl",
                                  "--out", str(out / "generate_jsonl")]),
        ("generate_csv", gen + ["--days", str(DAYS), "--seed", str(seed), "--format", "csv",
                                "--out", str(out / "generate_csv")]),
        ("generate_config", gen + ["--config", str(out / "generate_jsonl" / "generator_config.json"),
                                   "--format", "jsonl", "--out", str(out / "generate_config")]),
    ]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _end_group(pgid: int) -> None:
    """Kill what is left of a command's process group and reap it.

    Its members are children of this process once the command has ended,
    because this process is their subreaper (see ``adopt_orphans``).
    """
    _kill_group(pgid)
    with contextlib.suppress(ChildProcessError):
        while True:
            os.waitpid(-pgid, 0)


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux)."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    me, kids = os.getpid(), []
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            with contextlib.suppress(OSError, ValueError, IndexError):
                # after the parenthesised command name: state, then the parent pid
                stat = Path(entry.path, "stat").read_text()
                if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                    kids.append(int(entry.name))
    return kids


def stop_children() -> None:
    """Stop the set-up pool's resource tracker, which would otherwise outlive
    this process, then kill and reap every process still below this one."""
    from multiprocessing import resource_tracker

    with contextlib.suppress(AttributeError, OSError, ChildProcessError):
        resource_tracker._resource_tracker._stop()
    while kids := _children():
        for pid in kids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def run_cli(argv: list[str], env: dict, log: Path, timeout: float) -> tuple[float, int, int]:
    """Run ``python -m pcach ARGV``; return (wall s, exit code, peak RSS KiB).

    The peak RSS comes from ``wait4`` on the command's own pid, so it covers
    the command and the pool workers it reaped, and no earlier command.
    """
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pcach", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        killer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        _end_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cdf_at(points, x):
    """Empirical CDF at ``x``, computed here rather than by the code under check."""
    value = 0.0
    for d, frac in points:
        if d > x:
            break
        value = frac
    return value


def _quality_gap(tpr: float, fpr: float) -> float:
    """Distance to the perfect corner (TPR 1, FPR 0), normalized to [0, 1]."""
    return math.hypot(fpr, 1.0 - tpr) / math.sqrt(2.0)


def _macro_cut(reports_path: Path) -> tuple[float, float]:
    """Macro-averaged cut (TPR, FPR) from per-phone confusion counts."""
    rates = []
    for r in json.loads(reports_path.read_text()):
        c = r["cut"]
        if c["tp"] + c["fn"] and c["fp"] + c["tn"]:
            rates.append((c["tp"] / (c["tp"] + c["fn"]), c["fp"] / (c["fp"] + c["tn"])))
    if not rates:
        return math.nan, math.nan
    return (statistics.fmean(t for t, _ in rates), statistics.fmean(f for _, f in rates))


def check_ingest(out: Path, corpus: Path, first: dict) -> dict[int, list[str]]:
    fails: dict[int, list[str]] = {0: [], 1: [], 2: []}
    mine, gaps, bound = out / "mine", out / "gaps", out / "bound"
    split = {r["phone_id"]: r for r in _rows(mine / "traffic_split.csv")}
    cell = {p: int(r["cellular_bytes"]) for p, r in split.items()}
    total = sum(cell.values()) + sum(int(r["wifi_bytes"]) for r in split.values())
    share = sum(cell.values()) / total if total else math.nan
    if not CELL_SHARE_RANGE[0] <= share <= CELL_SHARE_RANGE[1]:
        fails[0].append(f"cellular share {share:.3f} outside {CELL_SHARE_RANGE}")
    points = [(int(r["duration_s"]), float(r["fraction"])) for r in _rows(mine / "gap_cdf.csv")]
    for x, target in GAP_CDF_ANCHORS:
        got = _cdf_at(points, x)
        if abs(got - target) > GAP_CDF_TOLERANCE:
            fails[0].append(f"gap CDF at {x // 60} min is {got:.3f}, target {target}")
    # bound at 120 min, weighted by each phone's cellular bytes
    covered = sum(float(r["fraction"]) * cell[r["phone_id"]]
                  for r in _rows(mine / "bound_vs_horizon.csv") if r["horizon_min"] == "120")
    bound120 = covered / sum(cell.values()) if cell else math.nan
    if not BOUND_120_RANGE[0] <= bound120 <= BOUND_120_RANGE[1]:
        fails[0].append(f"120-min bound {bound120:.3f} outside {BOUND_120_RANGE}")
    mine_gaps = json.loads((mine / "summary.json").read_text())["total_gaps"]
    csv_gaps = len(_rows(gaps / "gaps.csv"))
    if mine_gaps != csv_gaps:
        fails[1].append(f"gap total {csv_gaps} from CSV gaps != {mine_gaps} from JSONL mine")
    # the two wire formats carry the same samples, so the bound series must match
    if (bound / "bound_vs_horizon.csv").read_bytes() != (mine / "bound_vs_horizon.csv").read_bytes():
        fails[2].append("bound over CSV differs from mine over JSONL")
    return fails


def check_replay(out: Path, corpus: Path, first: dict) -> dict[int, list[str]]:
    fails: dict[int, list[str]] = {0: [], 1: [], 2: []}
    history = _macro_cut(out / "backtest_history" / "reports.json")
    adaboost = _macro_cut(out / "backtest_adaboost" / "reports.json")
    # The paper's claim, scored by its own quality gap: AdaBoost lies closer to
    # the perfect corner and fires falsely less often. (Its TPR alone is
    # within sampling noise of history's on a corpus this small.)
    if not (_quality_gap(*adaboost) < _quality_gap(*history) and adaboost[1] < history[1]):
        fails[1].append(f"adaboost cut (TPR, FPR) = ({adaboost[0]:.3f}, {adaboost[1]:.3f}) "
                        f"does not beat history ({history[0]:.3f}, {history[1]:.3f})")
    rows = _rows(out / "sweep_k" / "sweep_k.csv")
    best = min(rows, key=lambda r: _quality_gap(float(r["mean_tpr"]), float(r["mean_fpr"])),
               default=None)
    if best is None or not BEST_K_RANGE[0] <= int(best["k"]) <= BEST_K_RANGE[1]:
        fails[2].append(f"best K {best and best['k']} outside {BEST_K_RANGE}")
    return fails


def check_generate(out: Path, corpus: Path, first: dict) -> dict[int, list[str]]:
    """Trees must repeat byte for byte across passes, and the trace files
    must equal the corpus the library wrote in set-up."""
    fails: dict[int, list[str]] = {0: [], 1: [], 2: []}
    ref = {fmt: tree_digests(corpus / fmt) for fmt in ("jsonl", "csv")}
    for i, (name, fmt) in enumerate((("generate_jsonl", "jsonl"), ("generate_csv", "csv"),
                                     ("generate_config", "jsonl"))):
        tree = tree_digests(out / name)
        traces = {p: d for p, d in tree.items() if p.startswith("phone-")}
        if traces != ref[fmt]:
            fails[i].append(f"{name} traces differ from the set-up corpus")
        if first.setdefault(name, tree) != tree:
            fails[i].append(f"{name} output tree differs from the first pass")
    return fails


CHECKS = {"ingest": check_ingest, "replay": check_replay, "generate": check_generate}


def run_pass(workload, corpus, work, seed, env, first, deadline):
    """One pass over the workload's commands; returns per-command results."""
    out = work / "pass"
    out.mkdir()
    results = []
    for name, argv in commands(workload, corpus, out, seed):
        wall, rc, rss = run_cli(argv, env, work / "cli.log", deadline - time.monotonic())
        results.append({"name": name, "wall_s": wall, "rc": rc, "rss_kb": rss, "errors": []})
        if rc != 0:
            results[-1]["errors"].append(f"{name} exited with {rc}")
    if all(r["rc"] == 0 for r in results):
        try:
            fails = CHECKS[workload](out, corpus, first)
        except (OSError, KeyError, ValueError) as exc:
            fails = {len(results) - 1: [f"output check failed: {exc!r}"]}
        for i, msgs in fails.items():
            results[i]["errors"] += msgs
    shutil.rmtree(out)
    return results


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git(*args) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def environment(args, env) -> dict:
    import numpy

    pcach_file = subprocess.run(
        [sys.executable, "-c", "import pcach; print(pcach.__file__)"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60).stdout.strip()
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_sha": sha,
        "git_dirty": None if dirty is None else bool(dirty),
        "pcach_file": pcach_file,
        "workload": args.workload,
        "corpus_seed": args.seed,
        "phones": PHONES,
        "days": DAYS,
        "pcach_threads": THREADS,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _count(passes) -> tuple[int, int, list[str]]:
    results = [r for p in passes for r in p]
    errors = [e for r in results for e in r["errors"]]
    return len(results), sum(1 for r in results if r["errors"]), errors


def e2e_run(args, work, env, t_start) -> dict:
    corpus, setup_times, mismatches = setup(work, args.seed, SETUP_REPEATS)
    deadline = t_start + DEADLINE_S
    first: dict = {}
    passes, pass_walls = [], []
    t0 = time.monotonic()
    # Make MIN_PASSES passes, then more while the next one's expected
    # midpoint falls within --seconds.
    while len(passes) < MIN_PASSES or (
            time.monotonic() - t0 + statistics.fmean(pass_walls) / 2 < args.seconds):
        if passes and time.monotonic() + max(pass_walls) > deadline:
            break
        p0 = time.perf_counter()
        passes.append(run_pass(args.workload, corpus, work, args.seed, env, first, deadline))
        pass_walls.append(time.perf_counter() - p0)
    attempted, failed, errors = _count(passes)
    attempted += SETUP_REPEATS - 1
    failed += mismatches
    if mismatches:
        errors.append(f"{mismatches} set-up corpora differ from the first")
    names = [r["name"] for r in passes[0]]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "phone_days_per_s": (PHONES * DAYS / statistics.median(pass_walls), "phone-days/s"),
        "peak_rss_mb": (statistics.median(max(r["rss_kb"] for r in p) for p in passes) / 1024,
                        "MB"),
    }
    for i, name in enumerate(names):
        metrics[f"cmd{i + 1}_s"] = (statistics.median(p[i]["wall_s"] for p in passes), "s")
    return {
        "attempted": attempted, "failed": failed, "errors": errors, "metrics": metrics,
        "commands": names,
        "detail": {"setup_s": setup_times, "pass_s": pass_walls,
                   "commands": [[{k: r[k] for k in ("name", "wall_s", "rc", "rss_kb")}
                                 for r in p] for p in passes]},
    }


def traced_run(args, work, env, t_start) -> dict:
    import layers

    corpus, _, _ = setup(work, args.seed, 1)
    deadline = t_start + DEADLINE_S
    startup = []
    for _ in range(3):
        wall, rc, rss = run_cli(["--version"], env, work / "cli.log", deadline - time.monotonic())
        startup.append({"name": "version", "wall_s": wall, "rc": rc, "rss_kb": rss,
                        "errors": [f"--version exited with {rc}"] if rc else []})
    cli_pass = run_pass(args.workload, corpus, work, args.seed, env, {}, deadline)
    attempted, failed, errors = _count([startup, cli_pass])
    walls = [(r["name"], r["wall_s"]) for r in cli_pass]
    metrics, spans_files, phases = layers.traced_metrics(
        args.workload, args.seed, corpus, phone_ids(), walls, work, OUT, THREADS)
    metrics["cli.startup_s"] = (statistics.median(r["wall_s"] for r in startup), "s")
    return {"attempted": attempted, "failed": failed, "errors": errors, "metrics": metrics,
            "commands": [n for n, _ in walls],
            "detail": {"spans_files": spans_files, "phases_s": phases,
                       "cli_walls_s": dict(walls),
                       "startup_s": [r["wall_s"] for r in startup]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pcach" / "__init__.py").is_file():
        print(f"error: no pcach package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    t_start = time.monotonic()
    # Unwind on SIGTERM too, so the running command is killed and reaped.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    adopt_orphans()
    try:
        return _main(args, t_start)
    finally:
        stop_children()


def _main(args, t_start) -> int:
    sys.path.insert(0, str(SRC))
    env = cli_env()
    info = environment(args, env)
    if not info["pcach_file"] or not Path(info["pcach_file"]).resolve().is_relative_to(SRC):
        print(f"error: the CLI imports pcach from {info['pcach_file']!r}, not {SRC}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        run = (traced_run if args.trace else e2e_run)(args, work, env, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in run["metrics"].items()}
    record = {"environment": info, "commands": run["commands"], "errors": run["errors"],
              "detail": run["detail"], "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics, "elapsed_s": time.monotonic() - t_start}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for err in run["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print("environment " + json.dumps(info, sort_keys=True))
    print("commands: " + ", ".join(f"cmd{i + 1}={n}" for i, n in enumerate(run["commands"])))
    print(f"error_rate {run['failed'] / run['attempted']:.4f} ({run['failed']} of "
          f"{run['attempted']} commands or set-up repeats failed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
