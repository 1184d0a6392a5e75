"""Shared test fixtures: hand-rolled trace builders and independent oracles.

The oracles here deliberately re-derive results with naive algorithms
(quadratic scans, exhaustive counting) so the tests stay independent of the
library's implementation paths.
"""

import hashlib
import json
import os

import numpy as np
from hypothesis import strategies as st

import pcach
from pcach.history import newest_run
from pcach.trace import (
    ActiveNetwork,
    AppTrafficRecord,
    MeasurementSample,
    Trace,
    WiFiGap,
)

from oracles import is_cut_transition, is_resume_transition

W, C, N = ActiveNetwork.WIFI, ActiveNetwork.CELLULAR, ActiveNetwork.NONE


def sample(t, state, ssid=None, visible=(), apps=()):
    if state is W and ssid is None:
        ssid = "home"
    vis = set(visible)
    if ssid is not None:
        vis.add(ssid)
    return MeasurementSample(
        timestamp=t,
        active_network=state,
        connected_ssid=ssid if state is W else None,
        visible_ssids=frozenset(vis),
        apps=tuple(apps),
    )


def app(app_id, up=0, down=0, running=True):
    return AppTrafficRecord(app_id=app_id, up_bytes=up, down_bytes=down, running=running)


def usage_window(db, s_apps, first, last):
    """The usage counts of ``s_apps`` over slots ``first..last`` of a
    database as it stands, as the rankers read them."""
    counts, starts = newest_run(db, first).usage(s_apps, [first], [last], [0])
    return counts[:, starts[0]:]


def slot_probability(db, slot, kind):
    """The empirical event probability of a slot, from a database as it stands."""
    return float(newest_run(db, slot).event_probabilities(np.array([slot]), 0, kind)[0])


def cdf_at(points, duration_s):
    """Evaluate an empirical CDF (as returned by ``gap_duration_cdf``)."""
    value = 0.0
    for d, frac in points:
        if d <= duration_s:
            value = frac
        else:
            break
    return value


def trace_from_states(states, spacing=300, start=0, phone_id="phone", bytes_per_sample=0):
    """Build a trace from a list of ActiveNetwork states at fixed spacing."""
    samples = []
    for i, st in enumerate(states):
        apps = ()
        if bytes_per_sample:
            apps = (app("a", up=0, down=bytes_per_sample),)
        samples.append(sample(start + i * spacing, st, apps=apps))
    return Trace(phone_id=phone_id, samples=tuple(samples))


def random_trace(rng, n_min=5, n_max=120, phone_id="rand", with_apps=False,
                 regular=False):
    """Random mixed-state trace with irregular spacing and occasional scans."""
    n = int(rng.integers(n_min, n_max + 1))
    t = int(rng.integers(0, 10_000))
    samples = []
    ssids = ["home", "office", "cafe"]
    for _ in range(n):
        state = [W, C, N][int(rng.integers(0, 3))]
        visible = {s for s in ssids if rng.random() < 0.4}
        ssid = None
        if state is W:
            ssid = ssids[int(rng.integers(0, len(ssids)))]
            visible.add(ssid)
        apps = ()
        if with_apps and rng.random() < 0.7:
            apps = (AppTrafficRecord(
                "app%d" % rng.integers(0, 4),
                up_bytes=int(rng.integers(0, 5000)),
                down_bytes=int(rng.integers(0, 20000)),
                running=bool(rng.random() < 0.8),
            ),)
        samples.append(MeasurementSample(
            timestamp=t,
            active_network=state,
            connected_ssid=ssid,
            visible_ssids=frozenset(visible),
            apps=apps,
        ))
        if regular:
            t += 300
        else:
            # mostly nominal spacing, sometimes far beyond the 10-minute rule
            t += int(rng.choice([120, 300, 300, 300, 540, 660, 3600]))
    return Trace(phone_id=phone_id, samples=tuple(samples))


def brute_force_gaps(trace):
    """Quadratic reference scanner for gap detection.

    Finds every cut event by checking the three-clause definition at each
    sample, then walks forward sample by sample until the first resume event
    or an off-network (NONE) sample, which leaves the gap open.
    """
    samples = trace.samples
    gaps = []
    for x in range(1, len(samples)):
        if not is_cut_transition(samples[x - 1], samples[x]):
            continue
        resume_time = None
        for y in range(x + 1, len(samples)):
            if samples[y].active_network is N:
                break
            if is_resume_transition(samples[y - 1], samples[y]):
                resume_time = samples[y].timestamp
                break
        gaps.append(WiFiGap(cut_time=samples[x].timestamp, resume_time=resume_time))
    return gaps


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.sampled_from([10**400, -10**400])
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6)


def _places(value):
    """Every (container, key) inside a JSON value, depth first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    out = []
    for key, inner in list(items):
        out += [(value, key), *_places(inner)]
    return out


@st.composite
def mutated_json(draw, make):
    """The JSON text of ``make()`` after one to three mutations (a value
    deleted or replaced by any JSON value), sometimes truncated."""
    d = make()
    for _ in range(draw(st.integers(1, 3))):
        places = _places(d)
        if not places:
            break
        container, key = draw(st.sampled_from(places))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    text = json.dumps(d)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


def seeded_rng(seed):
    return np.random.default_rng(seed)


def cli_env(**extra):
    """Environment for a child `python -m pcach` started from any cwd.

    Puts the absolute directory that holds the `pcach` this process imported
    first on PYTHONPATH, so the child runs the same package even when the
    suite's PYTHONPATH is relative (as in `PYTHONPATH=src pytest`) or the
    package is not installed, and never a stale installed copy. Entries
    already on PYTHONPATH are kept, made absolute so that they still mean
    what they meant here. `extra` adds or overrides variables.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(pcach.__file__)))
    kept = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([root, *kept]), **extra)


def tree_digest(root):
    """sha256 of every file under a directory, keyed by its relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }
