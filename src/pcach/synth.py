"""Seeded synthetic connectivity-trace generator.

The real measurement corpus behind the published aggregate statistics is
private, so experiments run on synthetic traces calibrated to those
aggregates instead: the gap-length distribution anchors (65% of gaps within
30 minutes, 80% within 90 minutes, 90% within 4 hours), commute-time surges
of cut and resume events, a 15% cellular share of total traffic, a 4.26
download/upload ratio, roughly 2% of 15-minute slots containing a cut event,
and an application mix seeded from the published top-app table.

Generation is deterministic: every stream of randomness comes from a
counter-based generator keyed by (seed, phone_id, day, stream name), so
phones and days are independent and reproducible in isolation. The draw
order is part of that contract, and the written traces are pinned by
digest in the tests:

* one ``phone`` stream (day -1) draws the phone's volume scale;
* each day's ``schedule`` stream draws the day's cut events;
* each day's ``traffic`` stream draws, in this order, ``running`` (one
  uniform per (sample, app) of the day, compared with the app's rate),
  ``scan_u`` (two uniforms per sample: the WiFi scan) and ``byte_z`` (one
  normal per running (sample, app), taken row-major over ``running``: by
  sample, then by catalog order).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import (
    BOOLEAN,
    FINITE,
    INTEGER,
    LIST,
    STRING,
    ConfigError,
    EmptyTraceError,
    read_fields,
    read_json,
)
from .trace import (
    DEFAULT_NIGHT_WINDOW,
    STATE_CELLULAR,
    STATE_WIFI,
    Trace,
    WiFiGap,
    in_hour_window,
    is_weekday,
)

# Trace time base: a fixed Monday 00:00:00 UTC so weekday structure is stable.
DEFAULT_EPOCH = 1430697600  # 2015-05-04

_NORMAL = NormalDist()

# Relative app-activity level by local hour: quiet nights, busy days.
_DIURNAL_BREAKS = ((0, 7, 0.08), (7, 22, 1.0), (22, 24, 0.5))


def diurnal_weight(hour: float) -> float:
    for start, end, w in _DIURNAL_BREAKS:
        if start <= hour < end:
            return w
    return 1.0


@dataclass(frozen=True)
class AppSpec:
    """One catalog entry: identity, pre-cachability and calibration weights."""

    app_id: str
    pcachable: bool
    traffic_pct: float
    appearance_pct: float

    def __post_init__(self):
        if not self.app_id:
            raise ConfigError("app_id must be non-empty")
        if not (0.0 <= self.traffic_pct < math.inf and 0.0 <= self.appearance_pct < math.inf):
            raise ConfigError(f"weights of app {self.app_id!r} must be finite and >= 0")


@dataclass(frozen=True)
class GapLengthDistribution:
    """Mixture of a truncated log-normal body and a uniform tail.

    The log-normal body (in hours, truncated at ``body_cap_h``) carries
    ``body_weight`` of the mass and is fitted so the mixture CDF passes
    exactly through the configured quantile anchors; the remaining mass is
    uniform on (body_cap_h, tail_max_h).
    """

    log_mu: float
    log_sigma: float
    body_cap_h: float
    body_cap_cdf: float   # lognormal CDF at body_cap_h, pre-computed
    body_weight: float
    tail_max_h: float

    def __post_init__(self):
        if not 0.0 < self.body_weight <= 1.0:
            raise ConfigError(f"gap_len_dist body_weight must lie in (0, 1], "
                              f"got {self.body_weight!r}")

    @classmethod
    def fit_anchors(cls, cdf_30min: float = 0.65, cdf_90min: float = 0.80,
                    cdf_4h: float = 0.90, tail_max_h: float = 10.0) -> "GapLengthDistribution":
        """Fit the body to pass through the three CDF anchor points.

        The body holds exactly ``cdf_4h`` of the mass below 4 hours, with
        internal quantiles cdf_30min/cdf_4h at 0.5 h and cdf_90min/cdf_4h at
        1.5 h; solved by fixed-point iteration on the truncation mass.
        """
        if not 0 < cdf_30min < cdf_90min < cdf_4h < 1:
            raise ConfigError("anchor quantiles must be increasing in (0, 1)")
        g1 = cdf_30min / cdf_4h
        g2 = cdf_90min / cdf_4h
        cap = 4.0
        a = 0.95
        mu = sigma = 0.0
        for _ in range(500):
            z1 = _NORMAL.inv_cdf(g1 * a)
            z2 = _NORMAL.inv_cdf(g2 * a)
            sigma = math.log(1.5 / 0.5) / (z2 - z1)
            mu = math.log(0.5) - sigma * z1
            a_new = _NORMAL.cdf((math.log(cap) - mu) / sigma)
            if abs(a_new - a) < 1e-15:
                a = a_new
                break
            a = a_new
        return cls(log_mu=mu, log_sigma=sigma, body_cap_h=cap, body_cap_cdf=a,
                   body_weight=cdf_4h, tail_max_h=tail_max_h)

    def sample_hours(self, rng: np.random.Generator) -> float:
        v = rng.random()
        if v < self.body_weight:
            u = max(1e-12, (v / self.body_weight) * self.body_cap_cdf)
            return math.exp(self.log_mu + self.log_sigma * _NORMAL.inv_cdf(u))
        return float(rng.uniform(self.body_cap_h, self.tail_max_h))

    def cdf(self, seconds: float) -> float:
        h = seconds / 3600.0
        if h <= 0:
            return 0.0
        if h <= self.body_cap_h:
            body = _NORMAL.cdf((math.log(h) - self.log_mu) / self.log_sigma)
            return self.body_weight * min(1.0, body / self.body_cap_cdf)
        if h >= self.tail_max_h:
            return 1.0
        tail_frac = (h - self.body_cap_h) / (self.tail_max_h - self.body_cap_h)
        return self.body_weight + (1 - self.body_weight) * tail_frac


@dataclass(frozen=True)
class GeneratorConfig:
    """Full parameter set of the synthetic generator.

    ``cut_surges`` / ``resume_surges`` are (start_hour, end_hour, expected
    weekday events) triples. Cuts drawn inside a cut surge whose gap would
    plausibly end inside the paired resume surge are re-timed so resume
    events also cluster where published. Gap durations beyond the body cap
    model overnight WiFi-off periods and are re-anchored into the evening.
    """

    seed: int
    days: int
    period_s: int = 300
    cut_surges: tuple[tuple[float, float, float], ...] = ()
    resume_surges: tuple[tuple[float, float, float], ...] = ()
    gap_len_dist: GapLengthDistribution = field(
        default_factory=GapLengthDistribution.fit_anchors)
    app_catalog: tuple[AppSpec, ...] = ()
    cellular_share_target: float = 0.15
    down_up_ratio: float = 4.26
    cut_slot_rate_target: float = 0.02
    baseline_cuts_per_day: float = 0.35
    weekend_surge_scale: float = 0.30
    evening_gap_window: tuple[float, float] = (21.5, 23.2)
    # app-behaviour shaping during gaps: feed apps are checked more often on
    # the move while large transfers wait for WiFi, hence the sub-unit byte
    # boost; the combination lands the published cellular traffic share.
    pcachable_gap_rate_mean: float = 0.050
    gap_usage_flatten: float = 0.45
    nonpcachable_gap_boost: float = 1.5
    byte_gap_boost: float = 0.70
    byte_unit: float = 20000.0
    phone_volume_sigma: float = 0.5
    start_epoch: int = DEFAULT_EPOCH

    def __post_init__(self):
        if not (0.0 <= self.cellular_share_target <= 1.0):
            raise ConfigError("cellular_share_target must lie in [0, 1]")
        if not 0.0 < self.down_up_ratio < math.inf:
            raise ConfigError(f"down_up_ratio must be finite and > 0, got {self.down_up_ratio!r}")
        if self.period_s <= 0 or 86400 % self.period_s != 0:
            raise ConfigError("period_s must be a positive divisor of 86400")
        if not -2**63 <= self.start_epoch < 2**63 - max(self.days, 0) * 86400:
            raise ConfigError(f"start_epoch must keep the {self.days} days of timestamps within "
                              f"int64, got {self.start_epoch!r}")
        if self.app_catalog:
            weights = [a.appearance_pct for a in self.app_catalog]
            if all(w <= 0 for w in weights):
                raise ConfigError("at least one appearance weight must be positive")
            app_ids = [a.app_id for a in self.app_catalog]
            if len(set(app_ids)) != len(app_ids):
                raise ConfigError("app_catalog holds an app id more than once")
        for key in ("cut_surges", "resume_surges"):
            for start, end, intensity in getattr(self, key):
                if not (0.0 <= start <= 24.0 and 0.0 <= end <= 24.0):
                    raise ConfigError(f"{key} hours must be finite and lie in [0, 24], "
                                      f"got {start!r}, {end!r}")
                if not 0.0 <= intensity < math.inf:
                    raise ConfigError(f"{key} intensity must be finite and >= 0, "
                                      f"got {intensity!r}")
        for key in ("baseline_cuts_per_day", "weekend_surge_scale", "pcachable_gap_rate_mean"):
            value = getattr(self, key)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {value!r}")
        lo, hi = self.evening_gap_window
        if not 0.0 <= lo <= hi <= 24.0:
            raise ConfigError("evening_gap_window must hold finite hours in [0, 24] with "
                              f"start <= end, got {lo!r}, {hi!r}")
        if not 0.0 < self.byte_unit < math.inf:
            raise ConfigError(f"byte_unit must be finite and > 0, got {self.byte_unit!r}")
        if not 0.0 <= self.phone_volume_sigma < math.inf:
            raise ConfigError("phone_volume_sigma must be finite and >= 0, "
                              f"got {self.phone_volume_sigma!r}")

    @property
    def pcachable_apps(self) -> tuple[str, ...]:
        return tuple(a.app_id for a in self.app_catalog if a.pcachable)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "GeneratorConfig":
        """The config a :meth:`to_json` text holds; absent keys take the
        field defaults. Invalid JSON, an unknown or missing key and a value
        of the wrong type (a float field takes a finite number), nested ones
        included, raise :class:`ConfigError` naming it."""
        d = _fields(cls, read_json(text, "generator config", ConfigError), "generator config")
        decode = {
            "cut_surges": _surges, "resume_surges": _surges,
            "evening_gap_window": lambda v, key: _numbers(v, 2, key),
            "gap_len_dist": lambda v, key: GapLengthDistribution(
                **_fields(GapLengthDistribution, v, key)),
            "app_catalog": lambda v, key: tuple(
                AppSpec(**_fields(AppSpec, a, f"{key}[{i}]")) for i, a in enumerate(v)),
        }
        return cls(**{k: decode[k](v, k) if k in decode else v for k, v in d.items()})


# the JSON reading of each field type of a config; a tuple is a JSON list
_FIELD_TYPES = {"int": INTEGER, "float": FINITE, "str": STRING, "bool": BOOLEAN,
                "GapLengthDistribution": (lambda v: type(v) is dict, "a JSON object")}


def _fields(cls, obj, where: str) -> dict:
    """``obj`` read as keyword arguments of the dataclass ``cls``."""
    spec = {f.name: _FIELD_TYPES.get(f.type, LIST) for f in fields(cls)}
    optional = [f.name for f in fields(cls)
                if f.default is not MISSING or f.default_factory is not MISSING]
    return read_fields(obj, where, spec, ConfigError, optional)


def _surges(value: list, where: str) -> tuple:
    """(start_hour, end_hour, expected events) triples."""
    return tuple(_numbers(s, 3, f"{where}[{i}]") for i, s in enumerate(value))


def _numbers(value, n: int, where: str) -> tuple:
    """A JSON list of ``n`` numbers as a tuple."""
    if (type(value) is not list or len(value) != n
            or any(type(v) not in (int, float) for v in value)):
        raise ConfigError(f"{where} must be a list of {n} numbers, got {value!r}")
    return tuple(value)


# Published top-20 application mix: (name, pre-cachable, % of total traffic,
# % of measurements the app appears in).
_TOP_APP_TABLE = (
    ("Other apps", False, 7.84, 35.073),
    ("Google + Phone services", False, 2.15, 31.882),
    ("WhatsApp", False, 1.69, 7.791),
    ("Internet browser", False, 9.21, 7.749),
    ("Facebook", True, 14.01, 6.148),
    ("E-mail", True, 0.76, 3.294),
    ("Maps", True, 1.28, 2.182),
    ("Instagram", True, 4.79, 1.994),
    ("News apps", True, 0.40, 1.478),
    ("YouTube", True, 2.80, 0.649),
    ("Downloads", False, 16.74, 0.356),
    ("Sports apps", True, 1.29, 0.295),
    ("Spotify", False, 0.75, 0.242),
    ("9GAG", True, 1.42, 0.200),
    ("Twitter", True, 0.41, 0.199),
    ("Snapchat", False, 2.06, 0.166),
    ("Netflix", False, 1.27, 0.132),
    ("Deezer", False, 1.16, 0.089),
    ("Twitch", True, 1.83, 0.065),
    ("TuneIn Radio", False, 0.40, 0.040),
    ("TRENDnetVIEW", False, 0.34, 0.002),
)

# Long tail of small pre-cachable feed apps (regional news/sport/weather
# feeds). They widen the pre-cachable set so selection sweeps up to K=30 are
# meaningful; individually they are tiny.
_FEED_TAIL_COUNT = 22


def _feed_tail() -> tuple[AppSpec, ...]:
    tail = []
    for i in range(_FEED_TAIL_COUNT):
        decay = 0.88 ** i
        tail.append(AppSpec(
            app_id=f"Local feed {i + 1:02d}",
            pcachable=True,
            traffic_pct=round(0.25 * decay, 4),
            appearance_pct=round(0.50 * decay, 4),
        ))
    return tuple(tail)


def reference_config(seed: int = 0, days: int = 60) -> GeneratorConfig:
    """The generator profile calibrated to the published aggregates.

    Targets: gap-length CDF of 0.65 / 0.80 / 0.90 at 30 / 90 / 240 minutes;
    cut surges 06:00-07:00 and 15:00-16:30 answered by resume surges
    09:00-10:00 and 16:30-17:30; a 15% cellular share of total traffic; a
    4.26 download/upload ratio; about 2% of 15-minute slots holding a cut.
    """
    return GeneratorConfig(
        seed=seed,
        days=days,
        period_s=300,
        cut_surges=((6.0, 7.0, 0.90), (15.0, 16.5, 0.95)),
        resume_surges=((9.0, 10.0, 0.90), (16.5, 17.5, 0.95)),
        gap_len_dist=GapLengthDistribution.fit_anchors(0.65, 0.80, 0.90, tail_max_h=8.5),
        app_catalog=tuple(AppSpec(*row) for row in _TOP_APP_TABLE) + _feed_tail(),
        cellular_share_target=0.15,
        down_up_ratio=4.26,
        cut_slot_rate_target=0.02,
    )


def stream_rng(seed: int, phone_id: str, day: int, stream: str) -> np.random.Generator:
    """Independent, reproducible stream keyed by (seed, phone, day, stream)."""
    material = f"{seed}|{phone_id}|{day}|{stream}".encode("utf-8")
    key = int.from_bytes(hashlib.blake2b(material, digest_size=16).digest(), "big")
    return np.random.Generator(np.random.Philox(key=key))


def _duration_band(dist: GapLengthDistribution, hours: float) -> int:
    """Index of the CDF anchor band a duration falls in: the anchors stay
    exact as long as re-timed durations never change band."""
    if hours <= 0.5:
        return 0
    if hours <= 1.5:
        return 1
    if hours <= dist.body_cap_h:
        return 2
    return 3


def _draw_day_schedule(config: GeneratorConfig, rng: np.random.Generator,
                       weekday: bool) -> list[tuple[float, float]]:
    """Cut times (seconds within the day) and gap durations (hours)."""
    surge_scale = 1.0 if weekday else config.weekend_surge_scale
    components = [(0.0, 24.0, config.baseline_cuts_per_day)]
    components += [(s, e, inten * surge_scale) for s, e, inten in config.cut_surges]
    weights = np.array([c[2] for c in components], dtype=float)
    lam = float(weights.sum())
    n = int(rng.poisson(lam))
    if n == 0:
        return []
    probs = weights / lam
    events = []
    for _ in range(n):
        idx = int(rng.choice(len(components), p=probs))
        start_h, end_h, _ = components[idx]
        cut_sec = float(rng.uniform(start_h, end_h)) * 3600.0
        dur_h = config.gap_len_dist.sample_hours(rng)
        if dur_h > config.gap_len_dist.body_cap_h:
            # overnight WiFi-off gap: anchor the cut in the evening window
            lo, hi = config.evening_gap_window
            cut_sec = float(rng.uniform(lo, hi)) * 3600.0
        else:
            # pull commute gaps toward the published resume surges when the
            # re-timed duration stays within the same CDF anchor band
            for (cs, ce, _i), (rs, re_, _j) in zip(config.cut_surges,
                                                   config.resume_surges):
                if cs * 3600 <= cut_sec < ce * 3600:
                    target = float(rng.uniform(rs, re_)) * 3600.0
                    new_h = (target - cut_sec) / 3600.0
                    if new_h > 0 and (_duration_band(config.gap_len_dist, new_h)
                                      == _duration_band(config.gap_len_dist, dur_h)):
                        dur_h = new_h
                    break
        events.append((cut_sec, dur_h))
    events.sort()
    return events


def _merge_schedule(config: GeneratorConfig,
                    per_day: list[list[tuple[float, float]]],
                    n_samples: int) -> list[tuple[int, int]]:
    """Global (cut_index, resume_index) pairs; overlapping gaps are dropped.

    resume_index may point one past the trace end, leaving the gap open.
    """
    period = config.period_s
    merged: list[tuple[int, int]] = []
    last_resume = 0
    for day, events in enumerate(per_day):
        day_base = day * 86400
        for cut_sec, dur_h in events:
            cut_idx = int(round((day_base + cut_sec) / period))
            cut_idx = max(cut_idx, 1)
            if cut_idx <= last_resume or cut_idx >= n_samples:
                continue  # overlaps the previous gap (or falls off the trace)
            resume_idx = cut_idx + max(1, int(round(dur_h * 3600.0 / period)))
            merged.append((cut_idx, min(resume_idx, n_samples)))
            last_resume = resume_idx
    return merged


def _gap_rates(config: GeneratorConfig) -> np.ndarray:
    """Per-app appearance probability on cellular samples (before diurnal)."""
    base = np.array([a.appearance_pct / 100.0 for a in config.app_catalog])
    pc = np.array([a.pcachable for a in config.app_catalog], dtype=bool)
    rates = base * config.nonpcachable_gap_boost
    if pc.any():
        flattened = np.power(np.maximum(base[pc], 1e-9), config.gap_usage_flatten)
        flattened *= config.pcachable_gap_rate_mean / flattened.mean()
        rates[pc] = flattened
    return np.minimum(rates, 0.95)


def _app_bytes(config: GeneratorConfig, rows: np.ndarray, cols: np.ndarray,
               byte_z: np.ndarray, scaled_bytes: np.ndarray,
               byte_boost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Up and down bytes of each running (sample, app) cell.

    ``rows``/``cols`` list the running cells in row-major order, ``byte_z``
    holds one normal draw per cell, ``scaled_bytes`` each app's mean volume
    on this phone and ``byte_boost`` each sample's volume factor.
    """
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    noise = np.array(list(map(math.exp, (1.2 * byte_z - 0.72).tolist())))
    # rint rounds half to even like round(); the products keep the order
    # (mean * scale) * boost * noise, so every byte count is bit-exact
    totals = np.maximum(np.rint(scaled_bytes[cols] * byte_boost[rows] * noise), 1.0)
    ratio = config.down_up_ratio
    # a total past int64 casts to a count that Trace.from_columns refuses
    with np.errstate(invalid="ignore"):
        downs = np.rint(totals * ratio / (1.0 + ratio)).astype(np.int64)
        return totals.astype(np.int64) - downs, downs


_TRANSIT_NETS = 10


def _scans(phone_id: str, cellular: np.ndarray, pre_cut: np.ndarray, arrival: np.ndarray,
           night: np.ndarray, scan_u: np.ndarray
           ) -> tuple[list[tuple[int, int, frozenset[str]]], tuple[str, ...], np.ndarray]:
    """The distinct (state, SSID id, visible set) triples of one phone, the
    SSID table the ids index, and the index of each sample's triple.

    A cellular sample arriving back in coverage sees street network a, and b
    too when its first scan draw is below 0.8; any other cellular sample
    sees one of ten transit networks, chosen by the second draw, when the
    first is below 0.3. A WiFi sample is on the home network at night and
    the office network by day; outside the three samples before a cut it
    also sees neighbor network a (first draw below 0.7) and b (second draw
    below 0.4).
    """
    cell, wifi = STATE_CELLULAR, STATE_WIFI
    street_a, street_b = f"street-net-a-{phone_id}", f"street-net-b-{phone_id}"
    neighbor_a, neighbor_b = f"neighbor-net-a-{phone_id}", f"neighbor-net-b-{phone_id}"
    ssids = (f"office-net-{phone_id}", f"home-net-{phone_id}")
    table = [(cell, -1, frozenset()),
             (cell, -1, frozenset([street_a])),
             (cell, -1, frozenset([street_a, street_b]))]
    table += [(cell, -1, frozenset([f"transit-net-{i}"])) for i in range(_TRANSIT_NETS)]
    for sid, ssid in enumerate(ssids):
        table += [(wifi, sid, frozenset([ssid])),
                  (wifi, sid, frozenset([ssid, neighbor_b])),
                  (wifi, sid, frozenset([ssid, neighbor_a])),
                  (wifi, sid, frozenset([ssid, neighbor_a, neighbor_b]))]

    u0, u1 = scan_u[:, 0], scan_u[:, 1]
    cell_code = np.where(arrival, 1 + (u0 < 0.8),
                         np.where(u0 < 0.3, 3 + (u1 * _TRANSIT_NETS).astype(np.int64), 0))
    settled = ~pre_cut
    wifi_code = (3 + _TRANSIT_NETS + 4 * night
                 + 2 * (settled & (u0 < 0.7)) + (settled & (u1 < 0.4)))
    return table, ssids, np.where(cellular, cell_code, wifi_code)


def generate_trace(config: GeneratorConfig, phone_id: str) -> Trace:
    trace, _ = generate_trace_with_schedule(config, phone_id)
    return trace


def generate_trace_with_schedule(config: GeneratorConfig,
                                 phone_id: str) -> tuple[Trace, list[WiFiGap]]:
    """Simulate one phone; also return the gap schedule actually laid down.

    The returned schedule is what a detector must recover from the trace,
    which the tests use as a self-consistency oracle.
    """
    if config.days <= 0:
        raise EmptyTraceError("config.days must be positive")
    if not config.app_catalog:
        raise ConfigError("app catalog is empty")

    period = config.period_s
    spd = 86400 // period
    n_samples = config.days * spd
    base_ts = config.start_epoch

    per_day = []
    for day in range(config.days):
        rng = stream_rng(config.seed, phone_id, day, "schedule")
        weekday = is_weekday(base_ts + day * 86400)
        per_day.append(_draw_day_schedule(config, rng, weekday))
    schedule = _merge_schedule(config, per_day, n_samples)

    cellular = np.zeros(n_samples, dtype=bool)
    for cut_idx, resume_idx in schedule:
        cellular[cut_idx:resume_idx] = True

    # WiFi scans change as the user moves: settled periods see neighbor
    # networks, the last samples before a departure see a bare scan, and the
    # approach back to coverage picks up street networks. None of these are
    # ever connected to, so they stay out of the preferred set.
    pre_cut = np.zeros(n_samples, dtype=bool)
    arrival = np.zeros(n_samples, dtype=bool)
    for cut_idx, resume_idx in schedule:
        pre_cut[max(0, cut_idx - 3):cut_idx] = True
        if resume_idx < n_samples:
            arrival[max(cut_idx, resume_idx - 3):resume_idx] = True

    rng_phone = stream_rng(config.seed, phone_id, -1, "phone")
    sig = config.phone_volume_sigma
    phone_scale = math.exp(sig * rng_phone.standard_normal() - 0.5 * sig * sig)

    base_rates = np.array([a.appearance_pct / 100.0 for a in config.app_catalog])
    gap_rates = _gap_rates(config)
    traffic_pct = np.array([a.traffic_pct for a in config.app_catalog])
    mean_bytes = config.byte_unit * traffic_pct / np.maximum(base_rates * 100.0, 1e-6)
    n_apps = len(config.app_catalog)

    hours = (np.arange(spd) * period) / 3600.0
    diurnal = np.array([diurnal_weight(h) for h in hours])
    night_mask = in_hour_window(np.arange(spd) * period, DEFAULT_NIGHT_WINDOW)

    running = np.empty((n_samples, n_apps), dtype=bool)
    scan_u = np.empty((n_samples, 2))
    byte_z = []
    for day in range(config.days):
        rng = stream_rng(config.seed, phone_id, day, "traffic")
        rows = slice(day * spd, (day + 1) * spd)
        rate_matrix = np.where(cellular[rows, None],
                               gap_rates[None, :],
                               base_rates[None, :])
        rate_matrix = np.minimum(rate_matrix * diurnal[:, None], 0.95)
        running[rows] = rng.random((spd, n_apps)) < rate_matrix
        scan_u[rows] = rng.random((spd, 2))
        byte_z.append(rng.standard_normal(int(running[rows].sum())))

    rows, cols = np.nonzero(running)
    up, down = _app_bytes(config, rows, cols, np.concatenate(byte_z),
                          mean_bytes * phone_scale,
                          np.where(cellular, config.byte_gap_boost, 1.0))
    table, ssids, codes = _scans(phone_id, cellular, pre_cut, arrival,
                                 np.tile(night_mask, config.days), scan_u)
    states, ssid_ids, visible_sets = zip(*table)
    trace = Trace.from_columns(
        phone_id,
        t=base_ts + np.arange(n_samples, dtype=np.int64) * period,
        state=np.array(states, dtype=np.uint8)[codes],
        ssid=np.array(ssid_ids, dtype=np.int32)[codes],
        visible=codes,
        app_offsets=np.concatenate(([0], np.cumsum(running.sum(axis=1)))),
        app=cols, up=up, down=down, running=np.ones(len(cols), dtype=bool),
        ssids=ssids, visible_sets=visible_sets,
        app_ids=[a.app_id for a in config.app_catalog],
        nominal_period_s=period)
    gaps = []
    for cut_idx, resume_idx in schedule:
        resume_ts: Optional[int] = None
        if resume_idx < n_samples:
            resume_ts = base_ts + resume_idx * period
        gaps.append(WiFiGap(cut_time=base_ts + cut_idx * period,
                            resume_time=resume_ts))
    return trace, gaps
