"""Connectivity trace data model, (de)serialization, timeline normalization
and WiFi gap detection.

A trace is a time-ordered sequence of periodic measurement samples taken on
one phone. Each sample records the active network (WiFi / cellular / none),
the connected SSID when on WiFi, the set of visible WiFi networks and the
per-application traffic counters accumulated since the previous sample.

Two derived notions drive everything downstream:

* the *normalized timeline*: cellular samples taken while a WiFi network the
  user has connected to before was visible are relabeled as WiFi, exposing
  every offloading opportunity;
* *WiFi gaps*: intervals between a cut event (WiFi -> cellular between two
  samples at most 10 minutes apart) and the next resume event
  (cellular -> WiFi between consecutive samples).
"""

from __future__ import annotations

import codecs
import csv
import io
import json
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import (
    EmptyTraceError,
    PCachError,
    TraceParseError,
    TraceValidationError,
)

CUT_MAX_SPACING_S = 600          # WiFi->cellular counts as a cut only when
                                 # samples are no more than 10 minutes apart
GAP_EXCLUDE_THRESHOLD_S = 86400  # gaps of a day or more are flagged, kept out
                                 # of duration statistics

DEFAULT_PERIOD_S = 300
DEFAULT_NIGHT_WINDOW = (20, 8)   # [20:00, 08:00) local time

SECONDS_PER_DAY = 86400
# 1970-01-01 was a Thursday; offset so that Monday maps to 0.
_EPOCH_WEEKDAY = 3


class ActiveNetwork(Enum):
    WIFI = "WIFI"
    CELLULAR = "CELL"
    NONE = "NONE"


_ACTIVE_BY_VALUE = {a.value: a for a in ActiveNetwork}


@dataclass(frozen=True, slots=True)
class AppTrafficRecord:
    """Traffic counters of one application within one sampling period."""

    app_id: str
    up_bytes: int
    down_bytes: int
    running: bool

    def __post_init__(self):
        if not self.app_id:
            raise TraceValidationError("app_id must be non-empty")
        if self.up_bytes < 0 or self.down_bytes < 0:
            raise TraceValidationError(
                f"negative byte count for app {self.app_id!r}: "
                f"up={self.up_bytes} down={self.down_bytes}"
            )

    @property
    def total_bytes(self) -> int:
        return self.up_bytes + self.down_bytes


@dataclass(frozen=True, slots=True)
class MeasurementSample:
    """One periodic sensing record."""

    timestamp: int
    active_network: ActiveNetwork
    connected_ssid: Optional[str]
    visible_ssids: frozenset[str]
    apps: tuple[AppTrafficRecord, ...]

    def __post_init__(self):
        if not isinstance(self.visible_ssids, frozenset):
            object.__setattr__(self, "visible_ssids", frozenset(self.visible_ssids))
        if not isinstance(self.apps, tuple):
            object.__setattr__(self, "apps", tuple(self.apps))
        if self.active_network is ActiveNetwork.WIFI:
            if not self.connected_ssid:
                raise TraceValidationError(
                    f"t={self.timestamp}: WIFI sample without connected_ssid"
                )
        elif self.connected_ssid is not None:
            raise TraceValidationError(
                f"t={self.timestamp}: connected_ssid set on a "
                f"{self.active_network.name} sample"
            )
        if self.connected_ssid is not None and self.connected_ssid not in self.visible_ssids:
            raise TraceValidationError(
                f"t={self.timestamp}: connected ssid {self.connected_ssid!r} "
                "missing from visible set"
            )
        if len(self.apps) > 1:
            seen = set()
            for rec in self.apps:
                if rec.app_id in seen:
                    raise TraceValidationError(
                        f"t={self.timestamp}: duplicate app record {rec.app_id!r}"
                    )
                seen.add(rec.app_id)

    @property
    def total_bytes(self) -> int:
        return sum(rec.total_bytes for rec in self.apps)


@dataclass(frozen=True)
class Trace:
    """Time-ordered samples of one phone."""

    phone_id: str
    samples: tuple[MeasurementSample, ...]
    nominal_period_s: int = DEFAULT_PERIOD_S

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if self.nominal_period_s <= 0:
            raise TraceValidationError("nominal_period_s must be positive")
        prev = None
        for s in self.samples:
            if prev is not None and s.timestamp <= prev:
                raise TraceValidationError(
                    f"timestamps not strictly increasing at t={s.timestamp}"
                )
            prev = s.timestamp

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def start_time(self) -> int:
        if not self.samples:
            raise EmptyTraceError(f"trace {self.phone_id!r} has no samples")
        return self.samples[0].timestamp

    @property
    def end_time(self) -> int:
        if not self.samples:
            raise EmptyTraceError(f"trace {self.phone_id!r} has no samples")
        return self.samples[-1].timestamp


@dataclass(frozen=True)
class PreferredNetworkProfile:
    """Networks the phone has connected to, plus home/work identification."""

    preferred: frozenset[str]
    top3: tuple[str, ...]
    home_ssid: Optional[str]
    work_ssid: Optional[str]

    def __post_init__(self):
        object.__setattr__(self, "preferred", frozenset(self.preferred))
        object.__setattr__(self, "top3", tuple(self.top3))
        if len(self.top3) > 3:
            raise TraceValidationError("top3 holds at most 3 SSIDs")
        if not set(self.top3) <= self.preferred:
            raise TraceValidationError("top3 must be a subset of preferred")
        for ssid in (self.home_ssid, self.work_ssid):
            if ssid is not None and ssid not in self.preferred:
                raise TraceValidationError(
                    f"{ssid!r} is not a preferred network"
                )

    def to_dict(self) -> dict:
        return {
            "preferred": sorted(self.preferred),
            "top3": list(self.top3),
            "home_ssid": self.home_ssid,
            "work_ssid": self.work_ssid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PreferredNetworkProfile":
        return cls(
            preferred=frozenset(d["preferred"]),
            top3=tuple(d["top3"]),
            home_ssid=d.get("home_ssid"),
            work_ssid=d.get("work_ssid"),
        )


@dataclass(frozen=True)
class WiFiGap:
    """A cut event paired with the next resume event, if any."""

    cut_time: int
    resume_time: Optional[int] = None

    def __post_init__(self):
        if self.resume_time is not None and self.resume_time <= self.cut_time:
            raise TraceValidationError(
                f"resume_time {self.resume_time} not after cut_time {self.cut_time}"
            )

    @property
    def duration_s(self) -> Optional[int]:
        if self.resume_time is None:
            return None
        return self.resume_time - self.cut_time

    @property
    def open(self) -> bool:
        """True when no resume was observed before the trace ended."""
        return self.resume_time is None

    @property
    def excluded(self) -> bool:
        """True for gaps of one day or more, kept out of duration statistics."""
        return self.duration_s is not None and self.duration_s >= GAP_EXCLUDE_THRESHOLD_S


def local_seconds(timestamp: int, utc_offset_s: int = 0) -> int:
    """Seconds since local midnight for a UTC epoch timestamp."""
    return (timestamp + utc_offset_s) % SECONDS_PER_DAY


def local_hour(timestamp: int, utc_offset_s: int = 0) -> float:
    return local_seconds(timestamp, utc_offset_s) / 3600.0


def local_day_index(timestamp: int, utc_offset_s: int = 0) -> int:
    return (timestamp + utc_offset_s) // SECONDS_PER_DAY


def is_weekday(timestamp: int, utc_offset_s: int = 0) -> bool:
    """Monday..Friday in local time."""
    return (local_day_index(timestamp, utc_offset_s) + _EPOCH_WEEKDAY) % 7 < 5


def in_hour_window(timestamp: int, window: tuple[int, int], utc_offset_s: int = 0) -> bool:
    """True when the local hour falls inside [start, end), wrapping past midnight."""
    start, end = window
    hour = local_hour(timestamp, utc_offset_s)
    if start <= end:
        return start <= hour < end
    return hour >= start or hour < end


# ---------------------------------------------------------------------------
# Serialization: JSONL and flat CSV wire formats.
# ---------------------------------------------------------------------------

_CSV_FIELDS = ("phone_id", "t", "active", "ssid", "visible", "app_id", "up", "down", "running")


def _sample_to_obj(sample: MeasurementSample) -> dict:
    return {
        "t": sample.timestamp,
        "active": sample.active_network.value,
        "ssid": sample.connected_ssid,
        "visible": sorted(sample.visible_ssids),
        "apps": [
            {"id": a.app_id, "up": a.up_bytes, "down": a.down_bytes, "running": a.running}
            for a in sample.apps
        ],
    }


class _Fragments(dict):
    """Each distinct key's encoded text, computed on first lookup."""

    __slots__ = ("_encode",)

    def __init__(self, encode):
        super().__init__()
        self._encode = encode

    def __missing__(self, key):
        text = self[key] = self._encode(key)
        return text


def trace_to_jsonl(trace: Trace) -> bytes:
    """One line per sample, as ``json.dumps(_sample_to_obj(sample),
    separators=(",", ":"), ensure_ascii=False)`` writes it; each distinct
    SSID, visible set and app id is encoded once."""
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
    ssid = _Fragments(encode)
    visible = _Fragments(lambda ssids: encode(sorted(ssids)))
    app_head = _Fragments(lambda app_id: '{"id":' + encode(app_id) + ',"up":')
    lines = []
    for s in trace.samples:
        apps = ",".join([
            f'{app_head[a.app_id]}{a.up_bytes},"down":{a.down_bytes},'
            f'"running":{"true" if a.running else "false"}}}'
            for a in s.apps
        ])
        lines.append(f'{{"t":{s.timestamp},"active":"{s.active_network.value}",'
                     f'"ssid":{ssid[s.connected_ssid]},"visible":{visible[s.visible_ssids]},'
                     f'"apps":[{apps}]}}')
    return ("\n".join(lines) + "\n").encode("utf-8")


def trace_to_csv(trace: Trace) -> bytes:
    text = _csv_text(trace, quote_all=False)
    if "\r" in text:
        # minimal quoting leaves a CR bare, and a reader ends the record there
        text = _csv_text(trace, quote_all=True)
    return text.encode("utf-8")


def _csv_text(trace: Trace, quote_all: bool) -> str:
    """The rows ``csv.writer(lineterminator="\\n")`` writes under QUOTE_ALL
    or QUOTE_MINIMAL; each distinct string cell is quoted once."""

    def quote(text: str) -> str:
        if quote_all or "," in text or '"' in text or "\n" in text:
            return '"' + text.replace('"', '""') + '"'
        return text

    cell = _Fragments(quote)
    num = '"' if quote_all else ""  # a number needs quotes only under QUOTE_ALL
    visible: dict[frozenset[str], str] = {}
    phone = quote(trace.phone_id)
    no_apps = ",".join([cell[""]] * 4)
    lines = [",".join(map(quote, _CSV_FIELDS))]
    for s in trace.samples:
        vis = visible.get(s.visible_ssids)
        if vis is None:
            vis = visible[s.visible_ssids] = quote(_visible_cell(s))
        head = (f"{phone},{num}{s.timestamp}{num},{cell[s.active_network.value]},"
                f"{cell[s.connected_ssid or '']},{vis},")
        if s.apps:
            lines += [f"{head}{cell[a.app_id]},{num}{a.up_bytes}{num},{num}{a.down_bytes}{num},"
                      f"{cell['true' if a.running else 'false']}"
                      for a in s.apps]
        else:
            lines.append(head + no_apps)
    lines.append("")
    return "\n".join(lines)


def _visible_cell(sample: MeasurementSample) -> str:
    """The CSV ``visible`` field: SSIDs joined with ';'.

    An empty SSID or one holding ';' would read back changed, so it is
    refused rather than written.
    """
    for v in sample.visible_ssids:
        if not v or ";" in v:
            raise TraceValidationError(
                f"t={sample.timestamp}: visible SSID {v!r} cannot be written to CSV "
                "(empty or holds ';')")
    return ";".join(sorted(sample.visible_ssids))


def _decode_utf8(data: bytes, line_no: Optional[int] = None) -> str:
    """UTF-8 text of ``data``; invalid bytes are a line-numbered parse error.

    Without ``line_no`` the line is counted from the offending byte offset.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        if line_no is None:
            line_no = data.count(b"\n", 0, exc.start) + 1
        raise TraceParseError(
            f"invalid UTF-8 byte 0x{data[exc.start]:02x} ({exc.reason})", line_no
        ) from None


def _type_error(field: str, expected: str, value) -> TraceValidationError:
    return TraceValidationError(
        f"field {field!r} must be {expected}, got {type(value).__name__}"
    )


def _build_sample(t, active, ssid, visible, apps, line_no) -> MeasurementSample:
    try:
        return MeasurementSample(t, active, ssid, visible, apps)
    except TraceValidationError as exc:
        raise TraceParseError(str(exc), line_no) from None


def _jsonl_app(obj) -> AppTrafficRecord:
    if type(obj) is not dict:
        raise _type_error("apps[]", "an object", obj)
    app_id, up, down, running = obj["id"], obj["up"], obj["down"], obj["running"]
    if type(app_id) is not str:
        raise _type_error("id", "a string", app_id)
    if type(up) is not int:
        raise _type_error("up", "an integer", up)
    if type(down) is not int:
        raise _type_error("down", "an integer", down)
    if type(running) is not bool:
        raise _type_error("running", "a boolean", running)
    return AppTrafficRecord(app_id, up, down, running)


def _jsonl_sample(obj, visible_sets: dict) -> MeasurementSample:
    """One decoded JSONL object as a sample; every field is type-checked.

    ``visible_sets`` interns the visible-SSID sets of one file, keyed by the
    raw list, so repeated scans share one frozenset.
    """
    if type(obj) is not dict:
        raise _type_error("line", "an object", obj)
    t, active_raw = obj["t"], obj["active"]
    ssid, visible_raw, apps_raw = obj.get("ssid"), obj.get("visible", []), obj.get("apps", [])
    if type(t) is not int:
        raise _type_error("t", "an integer", t)
    active = _ACTIVE_BY_VALUE.get(active_raw) if type(active_raw) is str else None
    if active is None:
        raise TraceValidationError(f"unknown active network {active_raw!r}")
    if ssid is not None and type(ssid) is not str:
        raise _type_error("ssid", "a string or null", ssid)
    if type(visible_raw) is not list:
        raise _type_error("visible", "a list", visible_raw)
    key = tuple(visible_raw)
    visible = visible_sets.get(key)
    if visible is None:
        for v in key:
            if type(v) is not str:
                raise _type_error("visible[]", "a string", v)
        visible = visible_sets[key] = frozenset(key)
    if type(apps_raw) is not list:
        raise _type_error("apps", "a list", apps_raw)
    apps = tuple(map(_jsonl_app, apps_raw)) if apps_raw else ()
    return MeasurementSample(t, active, ssid, visible, apps)


def _parse_jsonl(data: bytes) -> list[MeasurementSample]:
    # Lines split on bytes: the writer keeps U+2028/U+0085 raw inside SSIDs,
    # and str.splitlines would break a record there.
    raw_decode = json.JSONDecoder().raw_decode
    visible_sets: dict[tuple, frozenset[str]] = {}
    samples = []
    for line_no, raw in enumerate(data.removeprefix(codecs.BOM_UTF8).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        text = _decode_utf8(line, line_no)
        try:
            obj, end = raw_decode(text)
        except (ValueError, RecursionError) as exc:  # also digit limit, nesting depth
            raise TraceParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no) from None
        if end != len(text):
            raise TraceParseError("invalid JSON (Extra data)", line_no)
        try:
            samples.append(_jsonl_sample(obj, visible_sets))
        except KeyError as exc:
            raise TraceParseError(f"missing field {exc.args[0]!r}", line_no) from None
        except (TypeError, TraceValidationError) as exc:
            raise TraceParseError(str(exc), line_no) from None
    return samples


def _parse_bool(raw: str, line_no: int) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1"):
        return True
    if low in ("false", "0"):
        return False
    raise TraceParseError(f"invalid boolean {raw!r}", line_no)


def _parse_csv(data: bytes) -> tuple[Optional[str], list[MeasurementSample]]:
    """Rows in one pass; a run of contiguous rows sharing (t, active, ssid,
    visible) forms one sample, one row per app record.

    A repeated timestamp further on starts a new sample, which the caller
    collapses last-wins like any other duplicate.
    """
    reader = csv.reader(io.StringIO(_decode_utf8(data)))
    n_fields = len(_CSV_FIELDS)
    phone_id: Optional[str] = None
    visible_sets: dict[str, frozenset[str]] = {}
    samples: list[MeasurementSample] = []
    head: Optional[list[str]] = None  # raw (t, active, ssid, visible) of the open sample
    head_line = 0
    t = active = ssid = visible = None
    apps: list[AppTrafficRecord] = []
    line_no = 0
    try:
        for line_no, row in enumerate(reader, start=1):
            if not "".join(row).strip():
                continue  # blank line or only blank cells
            if line_no == 1 and [c.strip() for c in row[:2]] == ["phone_id", "t"]:
                continue  # header
            if len(row) != n_fields:
                raise TraceParseError(f"expected {n_fields} columns, got {len(row)}", line_no)
            pid = row[0]
            if phone_id is None:
                phone_id = pid
            elif pid != phone_id:
                raise TraceParseError(f"phone_id {pid!r} differs from {phone_id!r}", line_no)
            if row[1:5] != head:
                if head is not None:
                    samples.append(_build_sample(t, active, ssid, visible, tuple(apps), head_line))
                head, head_line, apps = row[1:5], line_no, []
                t_raw, active_raw, ssid_raw, visible_raw = head
                try:
                    t = int(t_raw)
                except ValueError:
                    raise TraceParseError(f"invalid timestamp {t_raw!r}", line_no) from None
                active = _ACTIVE_BY_VALUE.get(active_raw)
                if active is None:
                    raise TraceParseError(f"unknown active network {active_raw!r}", line_no)
                ssid = ssid_raw if ssid_raw else None
                visible = visible_sets.get(visible_raw)
                if visible is None:
                    visible = visible_sets[visible_raw] = frozenset(
                        v for v in visible_raw.split(";") if v)
            app_id, up, down, running = row[5:]
            if app_id:
                running = _parse_bool(running, line_no)
                try:
                    apps.append(AppTrafficRecord(app_id, int(up), int(down), running))
                except (ValueError, TraceValidationError) as exc:
                    raise TraceParseError(str(exc), line_no) from None
    except csv.Error as exc:
        raise TraceParseError(f"malformed CSV ({exc})", line_no + 1) from None
    if head is not None:
        samples.append(_build_sample(t, active, ssid, visible, tuple(apps), head_line))
    return phone_id, samples


def ingest_trace(source, fmt: str = "jsonl", phone_id: str = "",
                 nominal_period_s: int = DEFAULT_PERIOD_S) -> Trace:
    """Parse a byte stream in one of the two wire formats into a Trace.

    JSONL holds one object per line; every field must have its JSON type
    (``running`` a boolean, ``visible`` a list of strings, ...). In CSV a
    run of contiguous rows with the same ``t``, ``active``, ``ssid`` and
    ``visible`` forms one sample, one row per app record. Samples are sorted
    by timestamp; duplicate timestamps, adjacent or not, collapse to the
    last record seen in input order. ``phone_id`` is taken from the CSV rows
    when present, otherwise from the argument. Malformed input, invalid
    UTF-8 and a ``str`` holding a lone surrogate included, raises
    :class:`TraceParseError` with the line number.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise TraceParseError(
                f"unencodable character U+{ord(data[exc.start]):04X} ({exc.reason})",
                data.count("\n", 0, exc.start) + 1) from None
    if not isinstance(data, (bytes, bytearray)):
        raise TraceParseError(f"unsupported source type {type(source).__name__}")

    fmt = fmt.lower()
    if fmt == "jsonl":
        csv_phone, samples = None, _parse_jsonl(bytes(data))
    elif fmt == "csv":
        csv_phone, samples = _parse_csv(bytes(data))
    else:
        raise TraceParseError(f"unknown trace format {fmt!r}")

    if not samples:
        raise EmptyTraceError("source contains no samples")

    # stable sort, then collapse duplicate timestamps keeping the last record
    samples.sort(key=lambda s: s.timestamp)
    collapsed = [s for s, nxt in zip(samples, samples[1:]) if s.timestamp != nxt.timestamp]
    collapsed.append(samples[-1])

    return Trace(
        phone_id=csv_phone if csv_phone else phone_id,
        samples=tuple(collapsed),
        nominal_period_s=nominal_period_s,
    )


def read_trace(path, fmt: Optional[str] = None,
               nominal_period_s: int = DEFAULT_PERIOD_S) -> Trace:
    """Load a trace file; the format defaults from the file suffix.

    A package error raised while reading keeps its class and line number,
    and its message starts with the path.
    """
    from pathlib import Path

    p = Path(path)
    if fmt is None:
        fmt = "csv" if p.suffix.lower() == ".csv" else "jsonl"
    try:
        with open(p, "rb") as fh:
            return ingest_trace(fh, fmt=fmt, phone_id=p.stem,
                                nominal_period_s=nominal_period_s)
    except PCachError as exc:
        exc.args = (f"{p}: {exc}", *exc.args[1:])
        raise


def write_trace(trace: Trace, path, fmt: Optional[str] = None) -> None:
    from pathlib import Path

    p = Path(path)
    if fmt is None:
        fmt = "csv" if p.suffix.lower() == ".csv" else "jsonl"
    payload = trace_to_csv(trace) if fmt == "csv" else trace_to_jsonl(trace)
    p.write_bytes(payload)


# ---------------------------------------------------------------------------
# Preferred-network profile and timeline normalization.
# ---------------------------------------------------------------------------

def derive_preferred_profile(
    trace: Trace,
    night_window: tuple[int, int] = DEFAULT_NIGHT_WINDOW,
    utc_offset_s: int = 0,
) -> PreferredNetworkProfile:
    """Build the preferred-network profile from connection history.

    preferred: every SSID the phone connected to in the trace;
    top3: the three preferred SSIDs seen most often in WiFi scans;
    home/work: the preferred SSID seen most often during the night window
    and its daytime complement. Ties break toward the lexicographically
    smaller SSID.
    """
    if not trace.samples:
        raise EmptyTraceError("cannot derive a profile from an empty trace")

    preferred = {s.connected_ssid for s in trace.samples if s.connected_ssid is not None}
    if not preferred:
        return PreferredNetworkProfile(frozenset(), (), None, None)

    total = {ssid: 0 for ssid in preferred}
    night = {ssid: 0 for ssid in preferred}
    day = {ssid: 0 for ssid in preferred}
    for s in trace.samples:
        at_night = in_hour_window(s.timestamp, night_window, utc_offset_s)
        for ssid in s.visible_ssids:
            if ssid in total:
                total[ssid] += 1
                if at_night:
                    night[ssid] += 1
                else:
                    day[ssid] += 1

    def best(counts: dict[str, int]) -> str:
        return min(counts, key=lambda ssid: (-counts[ssid], ssid))

    ranked = sorted(preferred, key=lambda ssid: (-total[ssid], ssid))
    return PreferredNetworkProfile(
        preferred=frozenset(preferred),
        top3=tuple(ranked[:3]),
        home_ssid=best(night),
        work_ssid=best(day),
    )


def normalize_timeline(trace: Trace, profile: PreferredNetworkProfile) -> Trace:
    """Relabel cellular samples that see a preferred WiFi network as WiFi.

    The connected SSID becomes the lexicographically first preferred network
    in the visible set. All other samples pass through unchanged; the result
    is the modified timeline every downstream analysis runs on.
    """
    if not profile.preferred:
        return trace
    changed = False
    new_samples = []
    for s in trace.samples:
        if s.active_network is ActiveNetwork.CELLULAR:
            hits = s.visible_ssids & profile.preferred
            if hits:
                new_samples.append(replace(
                    s, active_network=ActiveNetwork.WIFI, connected_ssid=min(hits)
                ))
                changed = True
                continue
        new_samples.append(s)
    if not changed:
        return trace
    return Trace(trace.phone_id, tuple(new_samples), trace.nominal_period_s)


# ---------------------------------------------------------------------------
# Gap detection.
# ---------------------------------------------------------------------------

def is_cut_transition(prev: MeasurementSample, cur: MeasurementSample) -> bool:
    """WiFi -> cellular between samples no more than 10 minutes apart."""
    return (
        prev.active_network is ActiveNetwork.WIFI
        and cur.active_network is ActiveNetwork.CELLULAR
        and cur.timestamp - prev.timestamp <= CUT_MAX_SPACING_S
    )


def is_resume_transition(prev: MeasurementSample, cur: MeasurementSample) -> bool:
    """Cellular -> WiFi between consecutive samples."""
    return (
        prev.active_network is ActiveNetwork.CELLULAR
        and cur.active_network is ActiveNetwork.WIFI
    )


def detect_gaps(trace: Trace) -> list[WiFiGap]:
    """Pair cut events with the first subsequent resume event.

    Off-network samples (state NONE) neither produce events nor let a pending
    cut pair up: a pending gap that meets a NONE sample stays open. A cut that
    never meets a resume before the trace ends is reported as an open gap.
    """
    gaps: list[WiFiGap] = []
    pending_cut: Optional[int] = None
    for prev, cur in zip(trace.samples, trace.samples[1:]):
        if cur.active_network is ActiveNetwork.NONE:
            if pending_cut is not None:
                gaps.append(WiFiGap(cut_time=pending_cut))
                pending_cut = None
            continue
        if is_cut_transition(prev, cur):
            pending_cut = cur.timestamp
        elif pending_cut is not None and is_resume_transition(prev, cur):
            gaps.append(WiFiGap(cut_time=pending_cut, resume_time=cur.timestamp))
            pending_cut = None
    if pending_cut is not None:
        gaps.append(WiFiGap(cut_time=pending_cut))
    return gaps


def closed_gaps(gaps: Iterable[WiFiGap]) -> list[WiFiGap]:
    """Gaps admitted to duration statistics: resumed and shorter than a day."""
    return [g for g in gaps if not g.open and not g.excluded]


def samples_in_window(trace: Trace, start: int, end: int) -> Sequence[MeasurementSample]:
    """Samples with start <= timestamp < end (binary search on timestamps)."""
    lo = bisect_left(trace.samples, start, key=lambda s: s.timestamp)
    hi = bisect_left(trace.samples, end, lo, key=lambda s: s.timestamp)
    return trace.samples[lo:hi]
