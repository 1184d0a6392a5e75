import codecs
import csv
import io
import itertools
import json
import os
import pickle
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcach.errors import (
    EmptyTraceError,
    PCachError,
    TraceParseError,
    TraceValidationError,
)
from pcach import trace as trace_module
from pcach.synth import generate_trace, reference_config
from pcach.trace import (
    ActiveNetwork,
    AppTrafficRecord,
    MeasurementSample,
    Trace,
    WiFiGap,
    closed_gaps,
    derive_preferred_profile,
    detect_gaps,
    distinct,
    ingest_trace,
    normalize_timeline,
    read_trace,
    trace_to_csv,
    trace_to_jsonl,
    used_ids,
    write_trace,
)

from helpers import C, N, W, app, brute_force_gaps, random_trace, sample, seeded_rng, trace_from_states
from oracles import (
    gaps_oracle,
    normalize_oracle,
    profile_oracle,
    sample_to_obj,
    samples_in_window,
    window_oracle,
)


# ---------------------------------------------------------------------------
# domain type invariants
# ---------------------------------------------------------------------------

def test_app_record_rejects_negative_bytes():
    with pytest.raises(TraceValidationError):
        AppTrafficRecord("a", up_bytes=-1, down_bytes=0, running=True)
    with pytest.raises(TraceValidationError):
        AppTrafficRecord("", up_bytes=0, down_bytes=0, running=True)


def test_sample_requires_ssid_iff_wifi():
    with pytest.raises(TraceValidationError):
        MeasurementSample(0, ActiveNetwork.WIFI, None, frozenset(), ())
    with pytest.raises(TraceValidationError):
        MeasurementSample(0, ActiveNetwork.CELLULAR, "home", frozenset({"home"}), ())


def test_sample_takes_an_active_network_member_or_its_value():
    s = MeasurementSample(0, "CELL", None, frozenset(), ())
    assert s.active_network is ActiveNetwork.CELLULAR
    assert s == MeasurementSample(0, ActiveNetwork.CELLULAR, None, frozenset(), ())
    for bad in ("X", "CELLULAR", ["WIFI"], None):
        with pytest.raises(TraceValidationError) as exc:
            MeasurementSample(0, bad, None, frozenset(), ())
        assert str(exc.value) == f"unknown active network {bad!r}"
    # a value is held to the rules of its member
    with pytest.raises(TraceValidationError) as exc:
        MeasurementSample(0, "WIFI", None, frozenset(), ())
    assert str(exc.value) == "t=0: WIFI sample without connected_ssid"


def test_sample_connected_must_be_visible():
    with pytest.raises(TraceValidationError):
        MeasurementSample(0, ActiveNetwork.WIFI, "home", frozenset({"other"}), ())


def test_sample_rejects_duplicate_app_ids():
    with pytest.raises(TraceValidationError):
        MeasurementSample(0, ActiveNetwork.NONE, None, frozenset(),
                          (app("a"), app("a")))


def test_trace_requires_increasing_timestamps():
    s0, s1 = sample(100, W), sample(100, C)
    with pytest.raises(TraceValidationError):
        Trace("p", (s0, s1))
    with pytest.raises(TraceValidationError):
        Trace("p", (sample(0, W),), nominal_period_s=0)


def test_gap_invariants():
    with pytest.raises(TraceValidationError):
        WiFiGap(cut_time=100, resume_time=100)
    g = WiFiGap(cut_time=0, resume_time=90000)
    assert g.excluded and not g.open
    assert WiFiGap(cut_time=0).open


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_ingest_single_jsonl_line():
    line = ('{"t": 1000, "active": "WIFI", "ssid": "home", "visible": ["home"], '
            '"apps": [{"id": "mail", "up": 10, "down": 40, "running": true}]}\n')
    trace = ingest_trace(io.BytesIO(line.encode()), fmt="jsonl", phone_id="p1")
    assert len(trace) == 1
    s = trace.samples[0]
    assert s.active_network is ActiveNetwork.WIFI
    assert s.connected_ssid == "home"
    assert s.apps[0].down_bytes == 40
    assert trace.phone_id == "p1"


def test_ingest_rejects_negative_bytes_with_line_number():
    lines = (
        '{"t": 1, "active": "NONE", "ssid": null, "visible": [], "apps": []}\n'
        '{"t": 2, "active": "NONE", "ssid": null, "visible": [], '
        '"apps": [{"id": "x", "up": 0, "down": -5, "running": false}]}\n'
    )
    with pytest.raises(TraceParseError) as exc:
        ingest_trace(lines.encode(), fmt="jsonl")
    assert exc.value.line_no == 2


@pytest.mark.parametrize("column", ["up", "down"])
def test_from_columns_rejects_a_negative_byte_count(column):
    trace = generate_trace(reference_config(seed=1, days=1), "p")
    counts = {"up": trace.up.copy(), "down": trace.down.copy()}
    counts[column][len(counts[column]) // 2] = -1
    with pytest.raises(TraceValidationError, match="negative byte count"):
        Trace.from_columns(trace.phone_id, trace.t, trace.state, trace.ssid, trace.visible,
                           trace.app_offsets, trace.app, counts["up"], counts["down"],
                           trace.running, trace.ssids, trace.visible_sets, trace.app_ids,
                           nominal_period_s=trace.nominal_period_s)


def test_ingest_rejects_malformed_json_with_line_number():
    with pytest.raises(TraceParseError) as exc:
        ingest_trace(b'{"t": 1, "active": "NONE", "ssid": null, "visible": [], "apps": []}\nnot json\n')
    assert exc.value.line_no == 2


def test_ingest_empty_source_raises():
    with pytest.raises(EmptyTraceError):
        ingest_trace(b"", fmt="jsonl")
    with pytest.raises(EmptyTraceError):
        ingest_trace(b"\n\n", fmt="csv")


def test_ingest_sorts_and_collapses_duplicates():
    lines = "\n".join([
        json.dumps({"t": 600, "active": "CELL", "ssid": None, "visible": [], "apps": []}),
        json.dumps({"t": 300, "active": "NONE", "ssid": None, "visible": [], "apps": []}),
        json.dumps({"t": 600, "active": "NONE", "ssid": None, "visible": ["x"], "apps": []}),
    ])
    trace = ingest_trace(lines.encode(), fmt="jsonl")
    assert [s.timestamp for s in trace.samples] == [300, 600]
    # the later record in input order wins
    assert trace.samples[1].active_network is ActiveNetwork.NONE
    assert trace.samples[1].visible_ssids == frozenset({"x"})


def test_csv_round_trip_with_and_without_apps():
    t = Trace("p7", (
        sample(0, W, ssid="home", visible={"home", "cafe"},
               apps=(app("mail", up=3, down=12), app("news", running=False, down=7))),
        sample(300, C, visible={"cafe"}),
        sample(900, N),
    ))
    data = trace_to_csv(t)
    back = ingest_trace(data, fmt="csv")
    assert back.phone_id == "p7"
    assert back.samples == t.samples


def test_jsonl_round_trip_field_by_field():
    rng = seeded_rng(7)
    for _ in range(20):
        t = random_trace(rng, with_apps=True)
        back = ingest_trace(trace_to_jsonl(t), fmt="jsonl", phone_id=t.phone_id)
        assert back.samples == t.samples
        assert back.phone_id == t.phone_id


def test_csv_round_trip_random_traces():
    rng = seeded_rng(8)
    for _ in range(20):
        t = random_trace(rng, with_apps=True)
        back = ingest_trace(trace_to_csv(t), fmt="csv")
        assert back.samples == t.samples


_CSV_HEADER = "phone_id,t,active,ssid,visible,app_id,up,down,running\n"


def test_csv_repeated_timestamp_collapses_last_wins_like_jsonl():
    # t=100 comes back after t=200: the later record replaces the first one
    csv_rows = _CSV_HEADER + (
        "p,100,WIFI,home,home,a,1,2,true\n"
        "p,200,CELL,,,a,3,4,false\n"
        "p,100,CELL,,cafe,a,5,6,true\n"
    )
    jsonl = "\n".join(json.dumps(o) for o in (
        {"t": 100, "active": "WIFI", "ssid": "home", "visible": ["home"],
         "apps": [{"id": "a", "up": 1, "down": 2, "running": True}]},
        {"t": 200, "active": "CELL", "ssid": None, "visible": [],
         "apps": [{"id": "a", "up": 3, "down": 4, "running": False}]},
        {"t": 100, "active": "CELL", "ssid": None, "visible": ["cafe"],
         "apps": [{"id": "a", "up": 5, "down": 6, "running": True}]},
    ))
    from_csv = ingest_trace(csv_rows.encode(), fmt="csv")
    from_jsonl = ingest_trace(jsonl.encode(), fmt="jsonl", phone_id="p")
    assert from_csv == from_jsonl
    assert from_csv.samples[0] == sample(100, C, visible={"cafe"}, apps=(app("a", 5, 6),))


@pytest.mark.parametrize("fmt, payload, line_no", [
    ("jsonl", b'{"t": 1, "active": "NONE", "ssid": null, "visible": [], "apps": []}\n'
              b'{"t": 2, "active": "NONE", "ssid": null, "visible": ["caf\xff"], "apps": []}\n',
     2),
    ("csv", (_CSV_HEADER + "p,1,NONE,,,,,,\n").encode() + b"p,2,NONE,,caf\xff,,,,\n", 3),
], ids=["jsonl", "csv"])
def test_invalid_utf8_is_a_parse_error_with_line_number(fmt, payload, line_no):
    with pytest.raises(TraceParseError) as exc:
        ingest_trace(payload, fmt=fmt)
    assert exc.value.line_no == line_no
    assert "UTF-8" in str(exc.value)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r", b"\n\r"], ids=["crlf", "cr", "lfcr"])
def test_jsonl_lines_end_at_cr_as_at_lf(newline):
    lines = [_jsonl_line(t=t) for t in (1, 2)]
    data = newline.join(line.rstrip(b"\n") for line in lines)
    assert ingest_trace(data, fmt="jsonl") == ingest_trace(b"".join(lines), fmt="jsonl")
    with pytest.raises(TraceParseError) as exc:
        ingest_trace(data + newline + b"{bad" + newline, fmt="jsonl")
    # LF then CR is two line ends, as bytes.splitlines counts them
    assert exc.value.line_no == (5 if newline == b"\n\r" else 3)


def test_str_source_with_lone_surrogate_is_a_parse_error():
    text = ('{"t": 1, "active": "NONE", "ssid": null, "visible": [], "apps": []}\n'
            '{"t": 2, "active": "NONE", "ssid": null, "visible": ["\ud800"], "apps": []}\n')
    with pytest.raises(TraceParseError) as exc:
        ingest_trace(text, fmt="jsonl")
    assert exc.value.line_no == 2
    assert "U+D800" in str(exc.value)


@pytest.mark.parametrize("payload, error, line_no", [
    ((_CSV_HEADER + "p,1,NONE,,,,,,\n").encode() + b"p,2,NONE,,caf\xff,,,,\n",
     TraceParseError, 3),
    (_CSV_HEADER.encode(), EmptyTraceError, None),
], ids=["bad-utf8", "empty"])
def test_read_trace_errors_start_with_the_path(tmp_path, payload, error, line_no):
    path = tmp_path / "phone-007.csv"
    path.write_bytes(payload)
    with pytest.raises(error) as exc:
        read_trace(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert getattr(exc.value, "line_no", None) == line_no


@pytest.mark.parametrize("ssid", ["a;b", ";", ""])
def test_csv_refuses_a_visible_ssid_it_cannot_carry(ssid):
    trace = Trace("p", (sample(0, C, visible={"ok"}), sample(300, C, visible={"ok", ssid})))
    with pytest.raises(PCachError) as exc:
        trace_to_csv(trace)
    assert "t=300" in str(exc.value) and repr(ssid) in str(exc.value)


_EDGE_SAMPLE = {"t": 200, "active": "WIFI", "ssid": "home", "visible": ["home"],
                "apps": [("a", 1, 2, True), ("b", 3, 4, False)]}


@pytest.mark.parametrize("fault, record, message", [
    ({"apps": [("a", 1, 2, True), ("b", -1, 4, False)]}, 1,
     "negative byte count for app 'b': up=-1 down=4"),
    ({"apps": [("a", 1, 2, True), ("b", 3, 2**63, False)]}, 1,
     "byte count of app 'b' outside the int64 range"),
    ({"t": 2**63}, None, "timestamp 9223372036854775808 outside the int64 range"),
    ({"active": "X"}, None, "unknown active network 'X'"),
    ({"ssid": None}, None, "t=200: WIFI sample without connected_ssid"),
    ({"active": "CELL"}, None, "t=200: connected_ssid set on a CELLULAR sample"),
    ({"visible": ["cafe"]}, None, "t=200: connected ssid 'home' missing from visible set"),
    ({"apps": [("a", 1, 2, True), ("a", 3, 4, False)]}, None, "t=200: duplicate app record 'a'"),
    ({"apps": [("a", 1, 2, True), ("", 5000, 7000, True)]}, 1, "app_id must be non-empty"),
], ids=["negative-up", "bytes-past-int64", "t-past-int64", "unknown-active", "wifi-without-ssid",
        "ssid-on-cell", "ssid-not-visible", "duplicate-app", "empty-app-id"])
def test_both_formats_report_a_fault_alike(fault, record, message):
    """A fault in the middle sample: JSONL reports its line; CSV reports the
    faulty record's row (``record`` counts the sample's rows from 0), or the
    sample's first row for a sample fault."""
    samples = [{"t": 100, "active": "NONE", "ssid": None, "visible": [], "apps": []},
               {**_EDGE_SAMPLE, **fault},
               {"t": 300, "active": "CELL", "ssid": None, "visible": ["cafe"],
                "apps": [("a", 5, 6, True)]}]
    jsonl = "".join(json.dumps({**s, "apps": [{"id": i, "up": u, "down": d, "running": r}
                                              for i, u, d, r in s["apps"]]}) + "\n"
                    for s in samples)
    rows, first_rows = [_CSV_HEADER], []
    for s in samples:
        first_rows.append(len(rows) + 1)
        head = f"p,{s['t']},{s['active']},{s['ssid'] or ''},{';'.join(s['visible'])},"
        rows += [head + f"{i},{u},{d},{str(r).lower()}\n" for i, u, d, r in s["apps"]] or [
            head + ",,,\n"]
    for fmt, data, line_no in (("jsonl", jsonl, 2), ("csv", "".join(rows),
                                                     first_rows[1] + (record or 0))):
        with pytest.raises(TraceParseError) as exc:
            ingest_trace(data.encode(), fmt=fmt)
        assert (str(exc.value), exc.value.line_no) == (f"line {line_no}: {message}", line_no)


def test_csv_row_with_blank_app_cells_holds_no_record():
    trace = ingest_trace((_CSV_HEADER + "p,100,WIFI,home,home,,,,\np,400,NONE,,,, , ,\n").encode(),
                         fmt="csv")
    assert trace.samples == (sample(100, W, ssid="home"), sample(400, N))


def test_trace_of_samples_reports_int64_overflow_as_the_parsers_do():
    with pytest.raises(TraceValidationError) as exc:
        Trace("p", (sample(0, N, apps=(app("fb", up=2**63),)),))
    assert str(exc.value) == "byte count of app 'fb' outside the int64 range"
    with pytest.raises(TraceValidationError) as exc:
        Trace("p", (sample(2**63, N),))
    assert str(exc.value) == "timestamp 9223372036854775808 outside the int64 range"


@pytest.mark.parametrize("name, fmt", [("t.CSV", None), ("t.jsonl", "CSV"), ("t.csv", "jsonl"),
                                       ("t.txt", None)])
def test_read_and_write_take_the_format_by_one_rule(tmp_path, name, fmt):
    trace = Trace("t", (sample(0, W, ssid="home", apps=(app("a", 1, 2),)),))
    path = tmp_path / name
    write_trace(trace, path, fmt=fmt)
    wire = "csv" if (fmt or path.suffix).lower().lstrip(".") == "csv" else "jsonl"
    assert path.read_bytes() == (trace_to_csv(trace) if wire == "csv" else trace_to_jsonl(trace))
    assert read_trace(path, fmt=fmt) == trace


def test_write_trace_refuses_an_unknown_format_as_read_trace_does(tmp_path):
    trace = Trace("t", (sample(0, W, ssid="home"),))
    path = tmp_path / "x.out"
    with pytest.raises(TraceParseError) as written:
        write_trace(trace, path, fmt="xml")
    assert not path.exists()
    path.write_bytes(trace_to_jsonl(trace))
    with pytest.raises(TraceParseError) as read:
        read_trace(path, fmt="xml")
    assert str(written.value) == str(read.value) == f"{path}: unknown trace format 'xml'"


def test_a_trace_csv_cannot_carry_leaves_the_target_as_it_was(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"phone_id,t\nkept,0\n")
    trace = Trace("t", (sample(0, N), sample(300, C, visible={"a;b"})))
    with pytest.raises(TraceValidationError) as exc:
        write_trace(trace, path)
    assert str(exc.value).startswith(f"{path}: t=300: visible SSID 'a;b'")
    assert path.read_bytes() == b"phone_id,t\nkept,0\n"
    with pytest.raises(TraceValidationError):
        write_trace(trace, tmp_path / "new.csv")
    assert not (tmp_path / "new.csv").exists()


@pytest.fixture(scope="module")
def phone_60_days():
    return generate_trace(reference_config(seed=1, days=60), "phone-000")


def test_write_trace_holds_about_a_block_not_the_file(tmp_path, phone_60_days):
    trace = phone_60_days
    for fmt in ("jsonl", "csv"):
        path = tmp_path / f"phone-000.{fmt}"
        tracemalloc.start()
        try:
            write_trace(trace, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2, (fmt, peak, path.stat().st_size)


# The reader streams the file, so its peak is the columns it builds: about
# 186 bytes per row (the row builder's int lists) in both formats on this
# 17,280-row phone, against 363 (JSONL) and 322 (CSV) when the whole file
# was read into one buffer first.
_READ_PEAK_BYTES_PER_ROW = 250


def test_read_trace_holds_the_columns_not_the_file(tmp_path, phone_60_days):
    trace = phone_60_days
    for fmt in ("jsonl", "csv"):
        path = tmp_path / f"phone-000.{fmt}"
        write_trace(trace, path)
        tracemalloc.start()
        try:
            back = read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == trace
        assert peak < _READ_PEAK_BYTES_PER_ROW * len(trace), (fmt, peak / len(trace))


@pytest.mark.parametrize("newline", [b"\r\n", b"\r", b"\n\r"], ids=["crlf", "cr", "lfcr"])
def test_read_trace_ends_jsonl_lines_at_cr_and_drops_a_bom(tmp_path, newline):
    lines = [_jsonl_line(t=t) for t in (1, 2)]
    path = tmp_path / "p.jsonl"
    path.write_bytes(codecs.BOM_UTF8 + newline.join(line.rstrip(b"\n") for line in lines))
    assert read_trace(path) == ingest_trace(b"".join(lines), fmt="jsonl", phone_id="p")
    path.write_bytes(path.read_bytes() + newline + b"{bad" + newline)
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert exc.value.line_no == (5 if newline == b"\n\r" else 3)
    # a BOM after the first line is not dropped
    path.write_bytes(b"".join(lines) + codecs.BOM_UTF8 + _jsonl_line(t=3))
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert exc.value.line_no == 3


def test_read_trace_reports_an_invalid_byte_after_a_row_fault(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes((_CSV_HEADER + "p,1,NONE,,,,,,\np,x,NONE,,,,,,\np,3,NONE,,,,,,\n").encode()
                     + b"p,4,NONE,,caf\xff,,,,\n")
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert (exc.value.line_no, "invalid UTF-8 byte 0xff" in str(exc.value)) == (5, True)
    path.write_bytes((_CSV_HEADER + "p,1,NONE,,,,,,\np,x,NONE,,,,,,\n").encode())
    with pytest.raises(TraceParseError) as exc:
        read_trace(path)
    assert (exc.value.line_no, str(exc.value)) == (3, f"{path}: line 3: invalid timestamp 'x'")


@pytest.mark.parametrize("row, message", [
    ("p,x,NONE,,,,,,", "invalid timestamp 'x'"),
    ("p,1,NONE,,,a,1,2,maybe", "invalid boolean 'maybe'"),
    ("p,1,NONE,,,,,,,", "expected 9 columns, got 10"),
    ("p,1,NONE,s,s,,,,", "connected_ssid set on a NONE sample"),
    (f'p,1,NONE,"{"s" * 200_000}",,,,,', "malformed CSV"),
], ids=["timestamp", "boolean", "columns", "sample", "csv-error"])
def test_csv_faults_name_the_physical_line_past_quoted_line_feeds(row, message):
    # the first record's quoted cells hold line feeds: it spans lines 2-4
    text = _CSV_HEADER + 'p,0,WIFI,"ho\nme","ho\nme;x",,,,\n' + row + "\n"
    with pytest.raises(TraceParseError) as exc:
        ingest_trace(text, fmt="csv")
    assert exc.value.line_no == 5 and message in str(exc.value)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_ingest_reads_unseekable_and_text_mode_files(tmp_path, fmt):
    trace = Trace("p", _SPECIAL_CELLS.samples)  # CR, LF, quotes and commas in the cells
    path = tmp_path / f"p.{fmt}"
    write_trace(trace, path)
    data = path.read_bytes()
    read, write = os.pipe()
    os.write(write, data)  # a few hundred bytes: the pipe holds them all
    os.close(write)
    with open(read, "rb") as pipe:
        assert not pipe.seekable()
        assert ingest_trace(pipe, fmt=fmt, phone_id="p") == trace
    with open(path, encoding="utf-8", newline="") as text:
        assert ingest_trace(text, fmt=fmt, phone_id="p") == trace
    assert ingest_trace(io.StringIO(data.decode()), fmt=fmt, phone_id="p") == trace


def test_a_text_file_with_a_lone_surrogate_is_a_parse_error(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_bytes(_jsonl_line(t=1) + _jsonl_line(t=2, visible=["caf\udcff"]).replace(
        b"\\udcff", b"\xff"))
    with open(path, encoding="utf-8", errors="surrogateescape") as text:
        with pytest.raises(TraceParseError) as exc:
            ingest_trace(text, fmt="jsonl")
    assert exc.value.line_no == 2
    assert "U+DCFF" in str(exc.value)


_LINE_ENDS = st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\r", b"\n\n"])


@settings(deadline=None, max_examples=60)
@given(fmt=st.sampled_from(["jsonl", "csv"]), ends=st.lists(_LINE_ENDS, min_size=8, max_size=8),
       bom=st.booleans())
def test_read_trace_reads_what_ingest_reads_from_the_files_bytes(fmt, ends, bom):
    lines = _VALID_PAYLOADS[fmt].splitlines()
    data = codecs.BOM_UTF8 * bom + b"".join(
        line + end for line, end in zip(lines, itertools.cycle(ends)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, f"p.{fmt}")
        path.write_bytes(data)
        outcomes = []
        for read in (lambda: read_trace(path),
                     lambda: ingest_trace(path.read_bytes(), fmt=fmt, phone_id="p")):
            try:
                outcomes.append(read())
            except PCachError as exc:
                outcomes.append((type(exc), str(exc).removeprefix(f"{path}: "),
                                 getattr(exc, "line_no", None)))
    assert outcomes[0] == outcomes[1]


def _jsonl_line(**fields):
    obj = {"t": 1, "active": "WIFI", "ssid": "home", "visible": ["home"], "apps": []}
    obj.update(fields)
    return (json.dumps(obj) + "\n").encode()


def test_jsonl_running_must_be_a_boolean():
    line = _jsonl_line(apps=[{"id": "a", "up": 0, "down": 0, "running": "false"}])
    with pytest.raises(TraceParseError) as exc:
        ingest_trace(_jsonl_line() + line, fmt="jsonl")
    assert exc.value.line_no == 2
    assert "'running'" in str(exc.value)


def test_jsonl_visible_must_be_a_list():
    with pytest.raises(TraceParseError) as exc:
        ingest_trace(_jsonl_line(t=0) + _jsonl_line(active="CELL", ssid=None, visible="abc"),
                     fmt="jsonl")
    assert exc.value.line_no == 2
    assert "'visible'" in str(exc.value)


@pytest.mark.parametrize("fields, named", [
    ({"t": "1"}, "'t'"),
    ({"t": 1.0}, "'t'"),
    ({"apps": [{"id": "a", "up": 1.5, "down": 0, "running": True}]}, "'up'"),
    ({"apps": [{"id": 7, "up": 0, "down": 0, "running": True}]}, "'id'"),
    ({"apps": {"id": "a"}}, "'apps'"),
    ({"visible": ["home", 5]}, "'visible[]'"),
    ({"ssid": 5}, "'ssid'"),
    ({"active": ["WIFI"]}, "unknown active network"),
], ids=["t-str", "t-float", "up-float", "id-int", "apps-object", "visible-int", "ssid-int",
        "active-list"])
def test_jsonl_fields_must_have_their_json_type(fields, named):
    with pytest.raises(TraceParseError) as exc:
        ingest_trace(_jsonl_line(**fields), fmt="jsonl")
    assert exc.value.line_no == 1
    assert named in str(exc.value)


_SSID = st.text(min_size=1, max_size=6)


@st.composite
def _traces(draw, ssids=_SSID, visible_ssids=None, times=None):
    """Random valid traces; SSIDs and app ids may hold any non-surrogate text.

    Visible-only SSIDs come from ``visible_ssids`` and the timestamp set
    from ``times`` when given.
    """
    times = sorted(draw(st.sets(st.integers(0, 10**10), min_size=1, max_size=25)
                        if times is None else times))
    samples = []
    for t in times:
        state = draw(st.sampled_from([W, C, N]))
        visible = draw(st.frozensets(ssids if visible_ssids is None else visible_ssids,
                                     max_size=3))
        ssid = None
        if state is W:
            ssid = draw(ssids)
            visible |= {ssid}
        apps = tuple(
            AppTrafficRecord(a, draw(st.integers(0, 10**12)), draw(st.integers(0, 10**12)),
                             draw(st.booleans()))
            for a in draw(st.lists(st.text(min_size=1, max_size=6), unique=True, max_size=3))
        )
        samples.append(MeasurementSample(t, state, ssid, visible, apps))
    return Trace("phone-x", tuple(samples))


@settings(deadline=None)
@given(_traces())
def test_jsonl_write_read_identity(trace):
    back = ingest_trace(trace_to_jsonl(trace), fmt="jsonl", phone_id=trace.phone_id)
    assert back == trace
    assert pickle.loads(pickle.dumps(back)) == trace


# about 4 in 10 drawn traces hold no empty SSID and none with ';'
@settings(deadline=None, max_examples=250)
@given(_traces(visible_ssids=st.text(max_size=6)))
def test_csv_write_read_identity(trace):
    # CSV joins the visible set with ';': a trace it cannot carry is refused
    unwritable = [(s.timestamp, v) for s in trace.samples for v in s.visible_ssids
                  if not v or ";" in v]
    if not unwritable:
        assert ingest_trace(trace_to_csv(trace), fmt="csv") == trace
        return
    with pytest.raises(PCachError) as exc:
        trace_to_csv(trace)
    assert any(f"t={t}:" in str(exc.value) and repr(v) in str(exc.value)
               for t, v in unwritable)


_SPECIAL_CELLS = Trace("a,\"b\"", (
    sample(0, W, ssid="x\ny", visible={"q\"r", "s,t"}, apps=(app("u\rv", 1, 2),)),
    sample(300, C, visible={" "}, apps=(app("w", running=False),)),
))


@settings(deadline=None)
@given(_traces())
@example(_SPECIAL_CELLS)
def test_jsonl_writer_matches_per_sample_json_dumps(trace):
    objs = [sample_to_obj(s) for s in trace.samples]
    assert [json.loads(trace_to_jsonl(trace.rows(i, i + 1))) for i in range(len(trace))] == objs
    lines = [json.dumps(obj, separators=(",", ":"), ensure_ascii=False) for obj in objs]
    assert trace_to_jsonl(trace) == ("\n".join(lines) + "\n").encode("utf-8")


def _csv_writer_oracle(trace: Trace, quoting: int) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=quoting)
    writer.writerow(["phone_id", "t", "active", "ssid", "visible", "app_id", "up", "down",
                     "running"])
    for s in trace.samples:
        base = [trace.phone_id, s.timestamp, s.active_network.value, s.connected_ssid or "",
                ";".join(sorted(s.visible_ssids))]
        for a in s.apps:
            writer.writerow(base + [a.app_id, a.up_bytes, a.down_bytes,
                                    "true" if a.running else "false"])
        if not s.apps:
            writer.writerow(base + ["", "", "", ""])
    return out.getvalue()


_CSV_SSID = _SSID.filter(lambda v: ";" not in v)


@settings(deadline=None, max_examples=200)
@given(_traces(ssids=_CSV_SSID))
@example(_SPECIAL_CELLS)
@example(Trace("p", (sample(0, N, visible={"a", "b"}, apps=(app("m,n", 5, 6),)),)))
def test_csv_writer_matches_row_by_row_csv_writer(trace):
    text = _csv_writer_oracle(trace, csv.QUOTE_MINIMAL)
    if "\r" in text:
        text = _csv_writer_oracle(trace, csv.QUOTE_ALL)
    assert trace_to_csv(trace) == text.encode("utf-8")


_ROWS_WITHOUT_APPS = Trace("p", (
    sample(0, N), sample(300, C, apps=(app("a", 1, 2),)), sample(600, N), sample(900, N),
    sample(1200, W, ssid="h", apps=(app("a", 3, 4), app("b", running=False))), sample(1500, N),
))

# the shared tables hold CR strings that only the row outside the slice uses
_CR_OUTSIDE_THE_SLICE = Trace("p", (
    sample(0, W, ssid="a\rb", visible={"c"}, apps=(app("x\ry", 1, 2),)),
    sample(300, C, visible={"c"}, apps=(app("m", 3, 4),)),
    sample(600, N),
)).rows(1, 3)


@pytest.mark.parametrize("block_rows", [1, 2, 3])
@settings(deadline=None, max_examples=40)
@given(trace=_traces(ssids=_CSV_SSID))
@example(trace=_ROWS_WITHOUT_APPS)
@example(trace=_CR_OUTSIDE_THE_SLICE)
@example(trace=_SPECIAL_CELLS)
def test_writers_stream_the_oracles_bytes_in_blocks_of_any_size(block_rows, trace):
    jsonl = "".join(json.dumps(sample_to_obj(s), separators=(",", ":"), ensure_ascii=False)
                    + "\n" for s in trace.samples).encode("utf-8")
    text = _csv_writer_oracle(trace, csv.QUOTE_MINIMAL)
    if "\r" in text:
        text = _csv_writer_oracle(trace, csv.QUOTE_ALL)
    n_blocks = -(-len(trace) // block_rows)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(trace_module, "_BLOCK_ROWS", block_rows)
        for fmt, expected, joined, blocks in (
                ("jsonl", jsonl, trace_to_jsonl, trace_module._jsonl_blocks),
                ("csv", text.encode("utf-8"), trace_to_csv, trace_module._csv_blocks)):
            path = Path(tmp, f"t.{fmt}")
            write_trace(trace, path)
            assert path.read_bytes() == joined(trace) == expected
            assert len(list(blocks(trace))) == n_blocks + (fmt == "csv")  # CSV has a header


_FUZZ_SEED_TRACE = Trace("p", (
    sample(0, W, visible={"cafe"}, apps=(app("a", 1, 2),)),
    sample(300, C, apps=(app("a", 3, 4), app("b", running=False))),
))
_VALID_PAYLOADS = {"jsonl": trace_to_jsonl(_FUZZ_SEED_TRACE), "csv": trace_to_csv(_FUZZ_SEED_TRACE)}


@st.composite
def _fuzzed_payloads(draw):
    fmt = draw(st.sampled_from(sorted(_VALID_PAYLOADS)))
    data = bytearray(draw(st.one_of(st.just(_VALID_PAYLOADS[fmt]), st.binary(max_size=200))))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        data[at:at + draw(st.integers(0, 3))] = draw(st.binary(max_size=4))
    return fmt, bytes(data)


@settings(deadline=None, max_examples=300)
@given(_fuzzed_payloads())
def test_ingest_fuzzed_bytes_raise_only_package_errors(case):
    fmt, data = case
    try:
        trace = ingest_trace(data, fmt=fmt)
    except PCachError:
        return
    assert len(trace) >= 1


@settings(deadline=None)
@given(ints=st.lists(st.integers(-1, 40), max_size=60),
       floats=st.lists(st.floats(allow_nan=False, width=64), max_size=60))
def test_distinct_and_used_ids_give_what_np_unique_gives(ints, floats):
    for values in (np.array(ints, dtype=np.int32), np.array(floats, dtype=float)):
        got, want = distinct(values), np.unique(values)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    ids = np.array(ints, dtype=np.int32)
    assert used_ids(ids, 41) == [i for i in np.unique(ids).tolist() if i >= 0]


# ---------------------------------------------------------------------------
# preferred-network profile
# ---------------------------------------------------------------------------

def test_profile_always_home():
    t = trace_from_states([W] * 10)
    prof = derive_preferred_profile(t)
    assert prof.preferred == frozenset({"home"})
    assert prof.top3 == ("home",)
    assert prof.home_ssid == "home"
    assert prof.work_ssid == "home"


def test_profile_home_night_office_day():
    # office visible (and connected) 09:00-17:00, home visible 21:00-07:00
    samples = []
    t0 = 0
    for hour in range(0, 24):
        ts = t0 + hour * 3600
        if 9 <= hour < 17:
            samples.append(sample(ts, W, ssid="office", visible={"office"}))
        elif hour >= 21 or hour < 7:
            samples.append(sample(ts, W, ssid="home", visible={"home"}))
        else:
            samples.append(sample(ts, C))
    prof = derive_preferred_profile(Trace("p", tuple(samples)))
    assert prof.home_ssid == "home"
    assert prof.work_ssid == "office"


def test_profile_no_wifi_is_empty_not_error():
    t = trace_from_states([C, C, N])
    prof = derive_preferred_profile(t)
    assert prof.preferred == frozenset()
    assert prof.top3 == ()
    assert prof.home_ssid is None and prof.work_ssid is None


def test_profile_matches_exhaustive_counting_oracle():
    rng = seeded_rng(11)
    for _ in range(30):
        t = random_trace(rng)
        prof = derive_preferred_profile(t)
        preferred = {s.connected_ssid for s in t.samples if s.connected_ssid}
        assert prof.preferred == frozenset(preferred)
        if not preferred:
            continue
        total, night, day = {}, {}, {}
        for s in t.samples:
            hour = (s.timestamp % 86400) / 3600
            for ssid in s.visible_ssids:
                if ssid not in preferred:
                    continue
                total[ssid] = total.get(ssid, 0) + 1
                if hour >= 20 or hour < 8:
                    night[ssid] = night.get(ssid, 0) + 1
                else:
                    day[ssid] = day.get(ssid, 0) + 1
        ranked = sorted(preferred, key=lambda ss: (-total.get(ss, 0), ss))
        assert prof.top3 == tuple(ranked[:3])
        assert prof.home_ssid == min(preferred, key=lambda ss: (-night.get(ss, 0), ss))
        assert prof.work_ssid == min(preferred, key=lambda ss: (-day.get(ss, 0), ss))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _profile(*ssids):
    from pcach.trace import PreferredNetworkProfile
    return PreferredNetworkProfile(frozenset(ssids), tuple(sorted(ssids))[:3], None, None)


def test_normalize_relabels_cellular_with_preferred_visible():
    t = Trace("p", (sample(0, C, visible={"home", "zz"}),))
    out = normalize_timeline(t, _profile("home"))
    s = out.samples[0]
    assert s.active_network is ActiveNetwork.WIFI
    assert s.connected_ssid == "home"


def test_normalize_picks_lexicographic_first_preferred():
    t = Trace("p", (sample(0, C, visible={"beta", "alpha", "other"}),))
    out = normalize_timeline(t, _profile("beta", "alpha"))
    assert out.samples[0].connected_ssid == "alpha"


def test_normalize_leaves_disjoint_and_wifi_untouched():
    t = Trace("p", (
        sample(0, C, visible={"stranger"}),
        sample(300, W, ssid="home"),
        sample(600, N),
    ))
    out = normalize_timeline(t, _profile("home"))
    assert out.samples[0] == t.samples[0]
    assert out.samples[1] == t.samples[1]
    assert out.samples[2] == t.samples[2]


def test_normalize_identity_on_all_wifi_trace():
    t = trace_from_states([W] * 5)
    assert normalize_timeline(t, _profile("home")) is t


def test_normalize_idempotent_and_monotone_in_wifi_count():
    rng = seeded_rng(13)
    for _ in range(30):
        t = random_trace(rng)
        try:
            prof = derive_preferred_profile(t)
        except EmptyTraceError:
            continue
        once = normalize_timeline(t, prof)
        twice = normalize_timeline(once, prof)
        assert once.samples == twice.samples
        n_wifi = sum(1 for s in t.samples if s.active_network is W)
        n_wifi_after = sum(1 for s in once.samples if s.active_network is W)
        assert n_wifi_after >= n_wifi


# ---------------------------------------------------------------------------
# gap detection
# ---------------------------------------------------------------------------

def test_basic_gap_wifi_cell_cell_wifi():
    t = trace_from_states([W, C, C, W], spacing=300)
    gaps = detect_gaps(t)
    assert len(gaps) == 1
    g = gaps[0]
    assert g.cut_time == 300
    assert g.resume_time == 900
    assert g.duration_s == 600


def test_ten_minute_rule_suppresses_cut():
    t = Trace("p", (sample(0, W), sample(3600, C)))
    assert detect_gaps(t) == []
    # at exactly 600 s the cut still counts
    t2 = Trace("p", (sample(0, W), sample(600, C), sample(900, W)))
    assert len(detect_gaps(t2)) == 1


def test_none_breaks_pairing():
    # WIFI -> NONE -> CELLULAR yields no cut event
    assert detect_gaps(trace_from_states([W, N, C, C])) == []
    # a pending gap hitting NONE stays open; the later resume is unmatched
    gaps = detect_gaps(trace_from_states([W, C, N, C, W]))
    assert len(gaps) == 1
    assert gaps[0].open


def test_cut_at_trace_end_is_open_gap():
    gaps = detect_gaps(trace_from_states([W, C, C]))
    assert len(gaps) == 1
    assert gaps[0].open
    assert gaps[0].cut_time == 300


def test_all_wifi_and_all_cellular_have_no_gaps():
    assert detect_gaps(trace_from_states([W] * 8)) == []
    assert detect_gaps(trace_from_states([C] * 8)) == []


def test_long_gap_flagged_excluded():
    samples = [sample(0, W), sample(300, C), sample(300 + 86400 + 300, W)]
    # spacing beyond 10 minutes between last two samples is irrelevant to resume
    gaps = detect_gaps(Trace("p", tuple(samples)))
    assert len(gaps) == 1
    assert gaps[0].excluded
    assert closed_gaps(gaps) == []


def test_gaps_match_brute_force_oracle_on_random_traces():
    rng = seeded_rng(17)
    for _ in range(300):
        t = random_trace(rng)
        assert detect_gaps(t) == brute_force_gaps(t)


def test_gaps_disjoint_and_ordered():
    rng = seeded_rng(19)
    for _ in range(100):
        t = random_trace(rng)
        gaps = detect_gaps(t)
        for g1, g2 in zip(gaps, gaps[1:]):
            assert g1.cut_time < g2.cut_time
            if g1.resume_time is not None:
                assert g1.resume_time <= g2.cut_time


@given(st.lists(st.tuples(st.sampled_from([W, C, N]), st.sampled_from([120, 300, 660])),
                max_size=60))
def test_closed_gap_windows_are_all_cellular(steps):
    # 660 s spacing exceeds the 10-minute cut rule, so some W->C steps are no cut
    samples, t = [], 0
    for state, spacing in steps:
        t += spacing
        samples.append(sample(t, state))
    trace = Trace("prop", tuple(samples))
    for g in detect_gaps(trace):
        if g.resume_time is not None:
            window = samples_in_window(trace, g.cut_time, g.resume_time)
            assert window
            assert all(s.active_network is C for s in window)


def test_every_reported_cut_satisfies_definition_by_replay():
    rng = seeded_rng(23)
    for _ in range(50):
        t = random_trace(rng)
        by_time = {s.timestamp: i for i, s in enumerate(t.samples)}
        for g in detect_gaps(t):
            x = by_time[g.cut_time]
            prev, cur = t.samples[x - 1], t.samples[x]
            assert prev.active_network is W
            assert cur.active_network is C
            assert cur.timestamp - prev.timestamp <= 600


# ---------------------------------------------------------------------------
# columnar stages against the sample-walking oracles
# ---------------------------------------------------------------------------

# few network names, so scans see connected networks; dense timestamps put
# neighbours within the 10-minute cut rule
_NETS = st.sampled_from(["home", "office", "cafe", "street"])
_DENSE_TIMES = st.sets(st.integers(0, 30 * 300), min_size=1, max_size=25)
_STAGE_TRACES = st.one_of(_traces(ssids=_NETS), _traces(ssids=_NETS, times=_DENSE_TIMES))


def _parsed(trace):
    """The trace as the JSONL parser fills its columns: no view built yet."""
    return ingest_trace(trace_to_jsonl(trace), fmt="jsonl", phone_id=trace.phone_id)


@settings(deadline=None)
@given(_traces())
def test_trace_rebuilt_from_its_view_is_equal(trace):
    parsed = _parsed(trace)
    assert parsed.samples == trace.samples
    assert Trace(parsed.phone_id, parsed.samples) == parsed
    assert parsed.samples is parsed.samples  # built once


@settings(deadline=None)
@given(_STAGE_TRACES, st.sampled_from([(20, 8), (8, 20), (0, 24), (6, 6)]),
       st.sampled_from([0, 3600, -7200]))
def test_profile_matches_the_sample_walking_oracle(trace, window, offset):
    assert (derive_preferred_profile(_parsed(trace), window, offset)
            == profile_oracle(trace, window, offset))


@settings(deadline=None)
@given(_STAGE_TRACES)
def test_normalize_and_gaps_match_the_sample_walking_oracles(trace):
    parsed = _parsed(trace)
    profile = derive_preferred_profile(parsed)
    norm = normalize_timeline(parsed, profile)
    expected = normalize_oracle(trace, profile)
    assert norm.samples == expected
    assert norm == Trace(trace.phone_id, expected)
    # a sample that was not relabelled is the source view's own object
    for before, after in zip(parsed.samples, norm.samples):
        assert (after is before) == (after.active_network is before.active_network)
    assert detect_gaps(parsed) == gaps_oracle(trace)
    assert detect_gaps(norm) == gaps_oracle(Trace(trace.phone_id, expected))


@settings(deadline=None)
@given(_STAGE_TRACES, st.integers(-600, 32 * 300), st.integers(-600, 32 * 300))
def test_samples_in_window_matches_the_bisection_oracle(trace, start, end):
    assert samples_in_window(_parsed(trace), start, end) == window_oracle(trace, start, end)
