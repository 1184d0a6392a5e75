import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import pcach
from pcach.cli import main
from pcach.errors import UndefinedRateError
from pcach.evaluation import backtest, k_sweep, macro_average, quality_gap
from pcach.mining import horizon_sweep, traffic_split
from pcach.pipeline import PCachConfig
from pcach.synth import reference_config
from pcach.trace import derive_preferred_profile, detect_gaps, normalize_timeline, read_trace

from helpers import cli_env, tree_digest


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "pcach", *args],
        cwd=cwd, env=cli_env(PCACH_THREADS="2"), capture_output=True, text=True,
    )


def test_child_imports_the_package_under_test(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", "import pcach; print(pcach.__file__)"],
        cwd=tmp_path, env=cli_env(PCACH_THREADS="2"), capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == pcach.__file__


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    res = run_cli(["generate", "--phones", "3", "--days", "9", "--seed", "5",
                   "--out", "traces"], cwd=base)
    assert res.returncode == 0, res.stderr
    return base


def test_generate_writes_traces_and_manifest(corpus):
    traces = corpus / "traces"
    files = sorted(p.name for p in traces.iterdir())
    assert "manifest.json" in files
    assert "generator_config.json" in files
    assert sum(1 for f in files if f.endswith(".jsonl")) == 3
    manifest = json.loads((traces / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["parameters"]["seed"] == 5
    assert "phone-000.jsonl" in manifest["outputs"]


def test_generate_twice_is_byte_identical(tmp_path):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        res = run_cli(["generate", "--phones", "2", "--days", "4", "--seed", "11",
                       "--out", "traces"], cwd=tmp_path / d)
        assert res.returncode == 0, res.stderr
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_generate_honors_custom_config(tmp_path):
    res = run_cli(["generate", "--phones", "1", "--days", "3", "--seed", "2",
                   "--out", "base"], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    cfg = json.loads((tmp_path / "base" / "generator_config.json").read_text())
    cfg["app_catalog"] = [
        {"app_id": "solo", "pcachable": True, "traffic_pct": 100.0,
         "appearance_pct": 30.0},
    ]
    (tmp_path / "custom.json").write_text(json.dumps(cfg))
    res = run_cli(["generate", "--phones", "1", "--config", "custom.json",
                   "--out", "custom"], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    trace = read_trace(tmp_path / "custom" / "phone-000.jsonl")
    seen = {a.app_id for s in trace.samples for a in s.apps}
    assert seen == {"solo"}


def test_mine_outputs_and_library_equivalence(corpus):
    res = run_cli(["mine", "--traces", "traces", "--out", "mined",
                   "--horizons", "30,60,120"], cwd=corpus)
    assert res.returncode == 0, res.stderr
    mined = corpus / "mined"
    for name in ("traffic_split.csv", "gap_cdf.csv", "event_histogram.csv",
                 "bound_vs_horizon.csv", "summary.json", "manifest.json"):
        assert (mined / name).exists()

    with open(mined / "bound_vs_horizon.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 3  # three horizons per phone

    # CLI values equal direct library calls
    trace = read_trace(corpus / "traces" / "phone-000.jsonl")
    norm = normalize_timeline(trace, derive_preferred_profile(trace))
    gaps = detect_gaps(norm)
    expected = dict(horizon_sweep(norm, gaps, [30, 60, 120]))
    got = {int(r["horizon_min"]): float(r["fraction"])
           for r in rows if r["phone_id"] == "phone-000"}
    for h, frac in expected.items():
        assert got[h] == pytest.approx(frac, abs=1e-6)

    split = traffic_split(norm)
    with open(mined / "traffic_split.csv") as fh:
        srow = next(r for r in csv.DictReader(fh) if r["phone_id"] == "phone-000")
    assert int(srow["cellular_bytes"]) == split.cellular_bytes
    assert int(srow["wifi_bytes"]) == split.wifi_bytes


def test_gaps_and_bound_subcommands(corpus):
    res = run_cli(["gaps", "--traces", "traces", "--out", "gaps"], cwd=corpus)
    assert res.returncode == 0, res.stderr
    with open(corpus / "gaps" / "gaps.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {"phone_id", "cut_time", "resume_time", "duration_s",
                     "open", "excluded"} <= set(rows[0])

    res = run_cli(["bound", "--traces", "traces", "--out", "bound",
                   "--horizons", "15,120"], cwd=corpus)
    assert res.returncode == 0, res.stderr
    summary = json.loads((corpus / "bound" / "summary.json").read_text())
    assert set(summary["mean_bound_by_horizon"]) == {"15", "120"}
    # longer horizons never reduce the coverable fraction
    assert summary["mean_bound_by_horizon"]["120"] >= summary["mean_bound_by_horizon"]["15"]


def test_gaps_and_bound_take_only_the_flags_they_read(corpus, tmp_path, monkeypatch):
    monkeypatch.setenv("PCACH_THREADS", "1")
    traces = str(corpus / "traces")
    assert main(["gaps", "--traces", traces, "--out", str(tmp_path / "gaps")]) == 0
    assert main(["bound", "--traces", traces, "--out", str(tmp_path / "bound")]) == 0
    assert main(["mine", "--traces", traces, "--out", str(tmp_path / "mine")]) == 0

    def params(name):
        return json.loads((tmp_path / name / "manifest.json").read_text())["parameters"]

    assert set(params("gaps")) == {"traces", "out"}
    assert set(params("bound")) == {"traces", "out", "horizons"}
    assert {"slot_minutes", "local_utc_offset"} <= set(params("mine"))
    # bound computes only the horizon sweep, and gets mine's series
    assert ((tmp_path / "bound" / "bound_vs_horizon.csv").read_bytes()
            == (tmp_path / "mine" / "bound_vs_horizon.csv").read_bytes())
    for command in ("gaps", "bound"):
        for flag in ("--slot-minutes", "--local-utc-offset"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--traces", traces, "--out", str(tmp_path / "x"), flag, "7"])
            assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_backtest_k_beyond_the_app_list_names_the_flag(corpus, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PCACH_THREADS", "1")
    n_apps = len(reference_config().pcachable_apps)
    out = tmp_path / "bt"
    rc = main(["backtest", "--traces", str(corpus / "traces"), "--predictor", "history",
               "--k", str(n_apps + 1), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --k {n_apps + 1} outside [1, {n_apps}]")
    assert f"{n_apps} apps" in err
    assert not out.exists()


def test_utc_offset_beyond_a_day_names_the_flag(corpus, tmp_path, capsys):
    for command in (["mine"], ["backtest", "--predictor", "history"], ["sweep-k"]):
        out = tmp_path / command[0]
        rc = main([*command, "--traces", str(corpus / "traces"), "--out", str(out),
                   "--local-utc-offset", "99999999999999999999"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: --local-utc-offset: utc_offset_s=99999999999999999999 outside")
        assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    (["sweep-k"], "--train-days", "-1"),
    (["sweep-k"], "--train-days", "0"),
    (["sweep-k"], "--train-days", "nan"),
    (["sweep-k"], "--train-days", "inf"),
    (["mine"], "--slot-minutes", "7"),
    (["backtest", "--predictor", "history"], "--slot-minutes", "7"),
    (["sweep-k"], "--slot-minutes", "0"),
    (["backtest", "--predictor", "history"], "--split", "1.5"),
    (["backtest", "--predictor", "adaboost"], "--rounds", "0"),
    (["mine"], "--horizons", ","),
    (["bound"], "--horizons", "-5"),
    (["sweep-k"], "--train-days", "1e-9"),
])
def test_bad_flag_value_names_the_flag(corpus, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    rc = main([*command, "--traces", str(corpus / "traces"), "--out", str(out),
               f"{flag}={value}"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


def test_mine_empty_dir_fails_with_nonzero_exit(tmp_path):
    (tmp_path / "empty").mkdir()
    res = run_cli(["mine", "--traces", "empty", "--out", "out"], cwd=tmp_path)
    assert res.returncode == 2
    assert "no trace files" in res.stderr


def test_unknown_predictor_rejected(corpus):
    res = run_cli(["backtest", "--traces", "traces", "--out", "x",
                   "--predictor", "magic"], cwd=corpus)
    assert res.returncode == 2
    assert "invalid choice" in res.stderr


def test_backtest_history_reports(corpus):
    res = run_cli(["backtest", "--traces", "traces", "--predictor", "history",
                   "--k", "10", "--slot-minutes", "15", "--seed", "3",
                   "--out", "bt"], cwd=corpus)
    assert res.returncode == 0, res.stderr
    reports = json.loads((corpus / "bt" / "reports.json").read_text())
    assert len(reports) == 3
    assert all(r["predictor"] == "history" for r in reports)
    summary = json.loads((corpus / "bt" / "summary.json").read_text())
    assert summary["macro_cut"]["tpr"] is not None


def test_backtest_summary_equals_library_macro_average(corpus):
    res = run_cli(["backtest", "--traces", "traces", "--predictor", "history",
                   "--k", "6", "--seed", "4", "--out", "bt-macro"], cwd=corpus)
    assert res.returncode == 0, res.stderr
    summary = json.loads((corpus / "bt-macro" / "summary.json").read_text())
    config = PCachConfig(k=6, s_apps=reference_config().pcachable_apps)
    reports = [backtest(read_trace(p), config, seed=4)
               for p in sorted((corpus / "traces").glob("*.jsonl"))]
    for which in ("cut", "resume", "apps"):
        try:
            point = macro_average(reports, which)
        except UndefinedRateError:
            assert summary[f"macro_{which}"] is None
            continue
        assert summary[f"macro_{which}"] == {
            "tpr": point.tpr, "fpr": point.fpr,
            "quality_gap": quality_gap(point.tpr, point.fpr)}


def test_backtest_short_trace_error_names_the_phone(tmp_path):
    res = run_cli(["generate", "--phones", "1", "--days", "1", "--seed", "0",
                   "--out", "short"], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli(["backtest", "--traces", "short", "--predictor", "history",
                   "--out", "bt"], cwd=tmp_path)
    assert res.returncode == 2
    assert "phone-000" in res.stderr
    assert "shorter than two days" in res.stderr


def test_backtest_adaboost_writes_model_files(corpus):
    res = run_cli(["backtest", "--traces", "traces", "--predictor", "adaboost",
                   "--rounds", "25", "--k", "7", "--out", "bt-ada"], cwd=corpus)
    assert res.returncode == 0, res.stderr
    models = sorted(p.name for p in (corpus / "bt-ada" / "models").iterdir())
    assert "phone-000.cut.json" in models
    assert "phone-000.resume.json" in models
    blob = json.loads((corpus / "bt-ada" / "models" / "phone-000.cut.json").read_text())
    assert blob["stumps"] and "decision_threshold" in blob


def test_sweep_k_rows_monotone_tpr(corpus):
    res = run_cli(["sweep-k", "--traces", "traces", "--ks", "1,2,4,8,16",
                   "--train-days", "5", "--out", "sweep"], cwd=corpus)
    assert res.returncode == 0, res.stderr
    with open(corpus / "sweep" / "sweep_k.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["k"]) for r in rows] == [1, 2, 4, 8, 16]
    tprs = [float(r["mean_tpr"]) for r in rows]
    assert all(a <= b + 1e-9 for a, b in zip(tprs, tprs[1:]))
    summary = json.loads((corpus / "sweep" / "summary.json").read_text())
    assert summary["best_k"] in (1, 2, 4, 8, 16)


def _sweep_rows(path):
    with open(path) as fh:
        return [[int(r["k"]), r["mean_tpr"], r["mean_fpr"], r["quality_gap"],
                 int(r["phones"])] for r in csv.DictReader(fh)]


def _library_sweep_rows(corpus, ks, train_days):
    traces = [read_trace(p) for p in sorted((corpus / "traces").glob("*.jsonl"))]
    points = k_sweep(traces, reference_config().pcachable_apps, ks, train_days=train_days)
    return [[p.k, f"{p.point.tpr:.6f}", f"{p.point.fpr:.6f}", f"{p.quality_gap:.6f}",
             p.phones] for p in points]


def test_sweep_k_rows_equal_library_k_sweep(corpus):
    res = run_cli(["sweep-k", "--traces", "traces", "--ks", "1,3,5,10",
                   "--train-days", "5", "--out", "sweep-lib"], cwd=corpus)
    assert res.returncode == 0, res.stderr
    rows = _sweep_rows(corpus / "sweep-lib" / "sweep_k.csv")
    assert [r[0] for r in rows] == [1, 3, 5, 10]
    assert rows == _library_sweep_rows(corpus, [1, 3, 5, 10], train_days=5)


def test_sweep_k_rows_sorted_and_deduplicated(corpus):
    res = run_cli(["sweep-k", "--traces", "traces", "--ks", "10,1,5,1,3",
                   "--train-days", "5", "--out", "sweep-unsorted"], cwd=corpus)
    assert res.returncode == 0, res.stderr
    rows = _sweep_rows(corpus / "sweep-unsorted" / "sweep_k.csv")
    assert [r[0] for r in rows] == [1, 3, 5, 10]
    assert rows == _library_sweep_rows(corpus, [1, 3, 5, 10], train_days=5)


def test_sweep_k_skips_infeasible_k(corpus):
    (corpus / "small_apps.json").write_text(json.dumps(["Facebook", "Maps"]))
    res = run_cli(["sweep-k", "--traces", "traces", "--ks", "1,2,30",
                   "--train-days", "5", "--s-apps", "small_apps.json",
                   "--out", "sweep-small"], cwd=corpus)
    assert res.returncode == 0, res.stderr
    summary = json.loads((corpus / "sweep-small" / "summary.json").read_text())
    assert summary["infeasible_ks"] == [30]


def test_sweep_k_non_integer_ks_is_a_clean_error(corpus):
    res = run_cli(["sweep-k", "--traces", "traces", "--ks", "1,x",
                   "--out", "sweep-bad"], cwd=corpus)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "--ks" in res.stderr and "'x'" in res.stderr


def test_mine_non_integer_horizons_is_a_clean_error(corpus):
    res = run_cli(["mine", "--traces", "traces", "--horizons", "5,ten",
                   "--out", "mined-bad"], cwd=corpus)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "--horizons" in res.stderr and "'ten'" in res.stderr


def test_end_to_end_determinism_small(tmp_path):
    # full pipeline twice from identical relative inputs: byte-identical trees
    digests = []
    for run in ("r1", "r2"):
        root = tmp_path / run
        root.mkdir()
        for args in (
            ["generate", "--phones", "2", "--days", "5", "--seed", "9", "--out", "traces"],
            ["mine", "--traces", "traces", "--out", "mined"],
            ["backtest", "--traces", "traces", "--predictor", "history",
             "--k", "5", "--seed", "1", "--split", "0.6", "--out", "bt"],
            ["sweep-k", "--traces", "traces", "--ks", "1,3", "--train-days", "3",
             "--out", "sweep"],
        ):
            res = run_cli(args, cwd=root)
            assert res.returncode == 0, res.stderr
        digests.append(tree_digest(root))
    assert digests[0] == digests[1]


def test_main_entry_callable_in_process(tmp_path):
    # the console entry point is importable and returns exit codes directly
    rc = main(["generate", "--phones", "1", "--days", "3", "--seed", "0",
               "--out", str(tmp_path / "t")])
    assert rc == 0
    rc = main(["mine", "--traces", str(tmp_path / "missing"), "--out",
               str(tmp_path / "m")])
    assert rc == 2


def test_non_integer_pcach_threads_is_a_clean_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PCACH_THREADS", "abc")
    rc = main(["generate", "--phones", "1", "--days", "3", "--seed", "0",
               "--out", str(tmp_path / "t")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "PCACH_THREADS" in err and "'abc'" in err


def test_gaps_over_invalid_utf8_csv_is_a_clean_error(tmp_path):
    (tmp_path / "traces").mkdir()
    (tmp_path / "traces" / "phone-000.csv").write_bytes(
        b"phone_id,t,active,ssid,visible,app_id,up,down,running\n"
        b"phone-000,0,NONE,,caf\xff,,,,\n")
    res = run_cli(["gaps", "--traces", "traces", "--out", "out"], cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "line 2" in res.stderr and "UTF-8" in res.stderr
    assert "Traceback" not in res.stderr


def test_trace_parse_error_names_the_file(tmp_path):
    (tmp_path / "traces").mkdir()
    (tmp_path / "traces" / "phone-000.csv").write_bytes(
        b"phone_id,t,active,ssid,visible,app_id,up,down,running\n"
        b"phone-000,0,NONE,,caf\xff,,,,\n")
    res = run_cli(["gaps", "--traces", "traces", "--out", "out"], cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {Path('traces') / 'phone-000.csv'}: line 2: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["sweep-k", "--traces", "traces", "--ks", "1,x"],
    ["sweep-k", "--traces", "traces", "--s-apps", "bad-apps.json"],
    ["mine", "--traces", "nowhere"],
    ["mine", "--traces", "traces", "--horizons", "5,ten"],
    ["gaps", "--traces", "bad-traces"],
    ["backtest", "--traces", "traces", "--predictor", "history", "--s-apps", "bad-apps.json"],
    ["generate", "--config", "missing.json"],
    ["sweep-k", "--traces", "traces", "--s-apps", "twice-apps.json"],
], ids=["ks", "s-apps-sweep", "traces", "horizons", "bad-trace", "s-apps-backtest", "config",
        "duplicate-s-apps-sweep"])
def test_rejected_run_creates_no_output_directory(corpus, args, monkeypatch, capsys):
    monkeypatch.chdir(corpus)
    monkeypatch.setenv("PCACH_THREADS", "1")
    (corpus / "bad-apps.json").write_text('"mail"\n')
    (corpus / "twice-apps.json").write_text('["mail", "news", "mail"]\n')
    (corpus / "bad-traces").mkdir(exist_ok=True)
    (corpus / "bad-traces" / "phone-000.jsonl").write_text('{"t": 1}\n')
    out = corpus / "rejected-out"
    assert main([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("config, named", [
    ('{"days": 2, "bogus": 1}', "'bogus'"),
    ('{"seed": 1, "days": ', "not valid JSON"),
    ("[1]", "JSON object"),
    ('{"seed": 1, "days": "2"}', "'days'"),
], ids=["unknown-key", "invalid-json", "non-object", "string-days"])
def test_generate_bad_config_is_a_clean_error(tmp_path, config, named):
    (tmp_path / "bad.json").write_text(config)
    res = run_cli(["generate", "--config", "bad.json", "--phones", "1", "--out", "g"],
                  cwd=tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert named in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "g").exists()


_CONFIG = json.loads(reference_config(seed=1, days=2).to_json())


@pytest.mark.parametrize("edit, named", [
    ({"cut_surges": [[6.0, 7.0, -5.0]]}, "cut_surges intensity"),
    ({"byte_unit": float("nan")}, "byte_unit"),
    ({"byte_unit": -5.0}, "byte_unit"),
    ({"phone_volume_sigma": -1.0}, "phone_volume_sigma"),
    ({"gap_len_dist": {**_CONFIG["gap_len_dist"], "body_weight": 2.0}}, "body_weight"),
], ids=["negative-surge", "nan-byte-unit", "negative-byte-unit", "negative-sigma",
        "body-weight"])
def test_generate_config_out_of_range_is_a_clean_error(tmp_path, monkeypatch, capsys,
                                                       edit, named):
    (tmp_path / "bad.json").write_text(json.dumps({**_CONFIG, **edit}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PCACH_THREADS", "1")
    assert main(["generate", "--config", "bad.json", "--phones", "1", "--out", "g"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("edit, named", [
    ({"baseline_cuts_per_day": -5.0}, "baseline_cuts_per_day"),
    ({"weekend_surge_scale": -3.0}, "weekend_surge_scale"),
    ({"evening_gap_window": [30.0, 40.0]}, "evening_gap_window"),
    ({"pcachable_gap_rate_mean": -1.0}, "pcachable_gap_rate_mean"),
], ids=["negative-baseline-cuts", "negative-weekend-scale", "window-past-24",
        "negative-gap-rate"])
def test_generate_config_rate_or_window_out_of_range_is_a_clean_error(
        tmp_path, monkeypatch, capsys, edit, named):
    (tmp_path / "bad.json").write_text(json.dumps({**_CONFIG, **edit}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PCACH_THREADS", "1")
    assert main(["generate", "--config", "bad.json", "--phones", "1", "--out", "g"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("flags, named", [
    (["--days", "0", "--phones", "2"], "days"),
    (["--days", "-1", "--phones", "2"], "days"),
    (["--days", "2", "--phones", "0"], "--phones"),
    (["--days", "2", "--phones", "-3"], "--phones"),
], ids=["zero-days", "negative-days", "zero-phones", "negative-phones"])
def test_generate_rejects_an_empty_corpus(tmp_path, monkeypatch, capsys, flags, named):
    monkeypatch.setenv("PCACH_THREADS", "1")
    out = tmp_path / "x"
    assert main(["generate", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


# sha256 of the replay outputs of a seeded 2-phone x 10-day corpus: the
# backtest reports, summaries and model files and the K sweep, also at a
# non-zero local offset (where it reads the same bytes). Any change to
# the history fold, the predictors, the boosting search or the RNG draws
# moves them.
_REPLAY_COMMANDS = (
    ("bt-history", ["backtest", "--predictor", "history", "--k", "7", "--seed", "3"]),
    ("bt-ada", ["backtest", "--predictor", "adaboost", "--k", "7", "--seed", "3",
                "--split", "0.5", "--rounds", "30", "--local-utc-offset", "3600"]),
    ("sweep", ["sweep-k", "--ks", "1,3,7,12", "--train-days", "5"]),
    ("sweep-utc", ["sweep-k", "--ks", "1,3,7,12", "--train-days", "5",
                   "--local-utc-offset", "-18000"]),
)
_PINNED_REPLAY_DIGESTS = {
    "bt-ada/models/phone-000.cut.json":
        "9affce5c2fc038aad978294cd0b4d8ca319bfdac947271ea78fdab71a2669c3b",
    "bt-ada/models/phone-000.resume.json":
        "3fc5a795f50bf7be4f44a4f3472b58cd24a30348ebfd4a32a7caaefdc0f0a190",
    "bt-ada/models/phone-001.cut.json":
        "039bceb07f483d01bfb0e9ffa57b88717407b3aa53c84c9bfba5db9cf9a1f06b",
    "bt-ada/models/phone-001.resume.json":
        "d6215d7889cc8f8de3724ab459b5f6c830f8efea9b21e4caa04df52d78ace5e2",
    "bt-ada/reports.json": "8239c6bfab20e2df156e2018a9c80dc6b25067277a073cbf8165c834bb755cf4",
    "bt-ada/summary.json": "efa5c2f155016375367a25634e71edb256ab0815e69a40f8d9fc6cd9c556429a",
    "bt-history/reports.json": "9b83f913ac227e221c6cb46ec4f80a2d8070bdf68c0bbdaf00ef2f7c9cdaa6f3",
    "bt-history/summary.json": "daa449a3adc038c37ac9a577eec71628efa6bcac8a93c9a5c9639d776f0c5972",
    "sweep/summary.json": "2319471617c408066af81be9d0f41a9135ac76f9baf285f38864f3706dd215cf",
    "sweep/sweep_k.csv": "4b7e9a153b715f19d22a6c58eccd9f090384f6fed67ae31c6c362503a1d54a4a",
    "sweep-utc/summary.json": "2319471617c408066af81be9d0f41a9135ac76f9baf285f38864f3706dd215cf",
    "sweep-utc/sweep_k.csv": "4b7e9a153b715f19d22a6c58eccd9f090384f6fed67ae31c6c362503a1d54a4a",
}


def _replay_digests(root):
    assert main(["generate", "--phones", "2", "--days", "10", "--seed", "29",
                 "--out", str(root / "traces")]) == 0
    for out, args in _REPLAY_COMMANDS:
        assert main([*args, "--traces", str(root / "traces"), "--out", str(root / out)]) == 0
    files = [p for p in sorted(root.rglob("*")) if p.is_file() and (
        p.name in ("reports.json", "summary.json", "sweep_k.csv") or p.parent.name == "models")]
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


def test_replay_outputs_match_the_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.setenv("PCACH_THREADS", "1")
    assert _replay_digests(tmp_path) == _PINNED_REPLAY_DIGESTS
