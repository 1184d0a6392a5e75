"""Properties every command run keeps: a failed run takes back what it
wrote, the worker count never changes an output, numbers a run states twice
agree, and a command either succeeds or fails with one ``error:`` line."""

import contextlib
import csv
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcach.cli as cli
from pcach.cli import main
from pcach.evaluation import quality_gap

from helpers import cli_env, tree_digest


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    out = tmp_path_factory.mktemp("runner") / "traces"
    with mock.patch.dict(os.environ, PCACH_THREADS="1"):
        assert main(["generate", "--phones", "3", "--days", "9", "--seed", "5",
                     "--out", str(out)]) == 0
    return str(out)


def _snapshot(root: Path) -> dict:
    """The bytes of every file under ``root`` and None for every directory,
    keyed by relative path."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


_FAILING_WRITES = {
    "mine": ["mine"],
    "gaps": ["gaps"],
    "bound": ["bound"],
    "backtest-adaboost": ["backtest", "--predictor", "adaboost", "--k", "3", "--rounds", "5"],
    "sweep-k": ["sweep-k", "--ks", "1,3", "--train-days", "5"],
}


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("args", list(_FAILING_WRITES.values()), ids=list(_FAILING_WRITES))
def test_failed_write_takes_back_what_the_run_wrote(traces, tmp_path, monkeypatch, capsys,
                                                    args, existing):
    """``summary.json``'s write fails on a full disk after the run has
    written its other files (the AdaBoost backtest its ``models/`` too). A
    new nested ``--out`` goes with every parent the run created; an
    ``--out`` that was there before keeps exactly its old files and bytes and
    gains no directory."""
    monkeypatch.setenv("PCACH_THREADS", "1")
    write_json = cli._write_json

    def full_disk(path, payload):
        if path.name == "summary.json":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        write_json(path, payload)
    monkeypatch.setattr(cli, "_write_json", full_disk)
    if existing:
        out = tmp_path / "out"
        (out / "old").mkdir(parents=True)
        (out / "notes.txt").write_text("kept")
        (out / "old" / "summary.json").write_text("{}\n")
    else:
        out = tmp_path / "a" / "b" / "out"
    before = _snapshot(tmp_path)
    assert main([*args, "--traces", traces, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.ENOSPC}]")
    assert _snapshot(tmp_path) == before


_EVERY_FORM = (
    ["generate", "--phones", "3", "--days", "8", "--seed", "21", "--out", "traces"],
    ["generate", "--phones", "2", "--days", "4", "--seed", "3", "--format", "csv",
     "--out", "traces-csv"],
    ["generate", "--phones", "2", "--config", "traces/generator_config.json", "--days", "4",
     "--out", "traces-config"],
    ["mine", "--traces", "traces", "--out", "mined", "--local-utc-offset", "3600"],
    ["gaps", "--traces", "traces-csv", "--out", "gaps"],
    ["bound", "--traces", "traces", "--out", "bound", "--horizons", "15,60"],
    ["backtest", "--traces", "traces", "--predictor", "history", "--k", "5", "--seed", "2",
     "--out", "bt-history"],
    ["backtest", "--traces", "traces", "--predictor", "adaboost", "--k", "5", "--seed", "2",
     "--rounds", "10", "--out", "bt-ada"],
    ["sweep-k", "--traces", "traces", "--ks", "1,3,5", "--train-days", "4", "--out", "sweep"],
)


def test_one_and_two_workers_write_the_same_trees(tmp_path):
    """Every command form writes the same bytes and prints the same lines
    with one worker as with a pool of two. Each run works from the same
    relative paths in its own directory, so even the manifests match."""
    trees, lines = [], []
    for threads in ("1", "2"):
        root = tmp_path / f"threads-{threads}"
        root.mkdir()
        stdout = []
        for args in _EVERY_FORM:
            res = subprocess.run([sys.executable, "-m", "pcach", *args], cwd=root,
                                 env=cli_env(PCACH_THREADS=threads), capture_output=True,
                                 text=True)
            assert res.returncode == 0, res.stderr
            stdout.append(res.stdout)
        trees.append(tree_digest(root))
        lines.append(stdout)
    assert len(trees[0]) == 40
    assert trees[0] == trees[1]
    assert lines[0] == lines[1]


def _rates(counts):
    """(TPR, FPR) of one confusion, or None where either is undefined."""
    if counts["tp"] + counts["fn"] == 0 or counts["fp"] + counts["tn"] == 0:
        return None
    return (counts["tp"] / (counts["tp"] + counts["fn"]),
            counts["fp"] / (counts["fp"] + counts["tn"]))


def test_numbers_stated_twice_agree(traces, tmp_path, monkeypatch):
    """A total in one output equals what another output of the same corpus
    lists row by row."""
    monkeypatch.setenv("PCACH_THREADS", "1")
    for out, args in (
        ("mine", ["mine"]),
        ("gaps", ["gaps"]),
        ("bt-history", ["backtest", "--predictor", "history", "--k", "5", "--seed", "4"]),
        ("bt-ada", ["backtest", "--predictor", "adaboost", "--k", "5", "--seed", "4",
                    "--rounds", "10"]),
        ("sweep", ["sweep-k", "--ks", "1,3,5,10", "--train-days", "5"]),
    ):
        assert main([*args, "--traces", traces, "--out", str(tmp_path / out)]) == 0

    def summary(out):
        return json.loads((tmp_path / out / "summary.json").read_text())

    def csv_rows(path):
        with open(tmp_path / path) as fh:
            return list(csv.DictReader(fh))

    # mine's gap totals are gaps.csv's row count and column sums
    mined, gaps = summary("mine"), csv_rows("gaps/gaps.csv")
    assert mined["total_gaps"] == len(gaps) > 0
    assert mined["open_gaps"] == sum(int(row["open"]) for row in gaps)
    assert mined["excluded_gaps"] == sum(int(row["excluded"]) for row in gaps)

    # the macro rates are the phone-order means of the rates of each
    # phone's confusion counts, phones with undefined rates skipped
    for out in ("bt-history", "bt-ada"):
        reports = json.loads((tmp_path / out / "reports.json").read_text())
        phone_ids = [r["phone_id"] for r in reports]
        assert phone_ids == sorted(phone_ids) and len(phone_ids) == 3
        for which in ("cut", "resume", "apps"):
            rates = [r for r in (_rates(report[which]) for report in reports) if r]
            expected = None
            if rates:
                tpr = float(np.mean([tpr for tpr, _ in rates]))
                fpr = float(np.mean([fpr for _, fpr in rates]))
                expected = {"tpr": tpr, "fpr": fpr, "quality_gap": quality_gap(tpr, fpr)}
            assert summary(out)[f"macro_{which}"] == expected, (out, which)

    # the best K is the first row of least quality gap
    rows = csv_rows("sweep/sweep_k.csv")
    best = min(rows, key=lambda row: float(row["quality_gap"]))
    assert summary("sweep")["best_k"] == int(best["k"])
    assert summary("sweep")["best_quality_gap"] == float(best["quality_gap"])


_COMMANDS = (
    ["mine"],
    ["gaps"],
    ["bound"],
    ["backtest", "--predictor", "history"],
    ["backtest", "--predictor", "adaboost", "--rounds", "10"],
    ["sweep-k"],
)


@settings(max_examples=10, deadline=None)
@given(phones=st.integers(1, 3), days=st.integers(3, 20), seed=st.integers(0, 2**31 - 1))
def test_every_command_exits_0_or_2_with_one_error_line(phones, days, seed):
    """Over small reference corpora, each command exits 0 with its ``--out``
    written, or 2 with one ``error:`` line, no traceback and no ``--out``
    left behind (a 3-day corpus is too short for the history backtest's
    7 training days)."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, PCACH_THREADS="1"):
        root = Path(tmp)
        traces = str(root / "traces")
        for i, args in enumerate([["generate", "--phones", str(phones), "--days", str(days),
                                   "--seed", str(seed)]]
                                 + [[*command, "--traces", traces] for command in _COMMANDS]):
            out = root / "traces" if i == 0 else root / f"out-{i}"
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                rc = main([*args, "--out", str(out)])
            err = stderr.getvalue()
            if rc == 0:
                assert err == "" and (out / "manifest.json").is_file(), args
            else:
                assert rc == 2, args
                assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
                assert "Traceback" not in err and not out.exists(), args
