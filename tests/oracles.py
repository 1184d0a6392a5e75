"""Sample-walking reference implementations of the trace-level stages.

Each function walks ``trace.samples`` one object at a time, the way the
library computed these stages before its traces became columns. The
columnar stages must agree with them exactly (see the ``hypothesis``
properties in ``test_trace.py`` and ``test_mining.py``).
"""

from bisect import bisect_left
from dataclasses import replace

from pcach.trace import (
    ActiveNetwork,
    PreferredNetworkProfile,
    WiFiGap,
    is_cut_transition,
    is_resume_transition,
    local_day_index,
)


def profile_oracle(trace, night_window=(20, 8), utc_offset_s=0):
    """Preferred SSIDs, top three by scans, home by night scans, work by day."""
    preferred = {s.connected_ssid for s in trace.samples if s.connected_ssid is not None}
    if not preferred:
        return PreferredNetworkProfile(frozenset(), (), None, None)
    total = {ssid: 0 for ssid in preferred}
    night = {ssid: 0 for ssid in preferred}
    day = {ssid: 0 for ssid in preferred}
    start, end = night_window
    for s in trace.samples:
        hour = ((s.timestamp + utc_offset_s) % 86400) / 3600.0
        at_night = start <= hour < end if start <= end else (hour >= start or hour < end)
        for ssid in s.visible_ssids:
            if ssid in total:
                total[ssid] += 1
                if at_night:
                    night[ssid] += 1
                else:
                    day[ssid] += 1

    def best(counts):
        return min(counts, key=lambda ssid: (-counts[ssid], ssid))

    ranked = sorted(preferred, key=lambda ssid: (-total[ssid], ssid))
    return PreferredNetworkProfile(frozenset(preferred), tuple(ranked[:3]),
                                   best(night), best(day))


def normalize_oracle(trace, profile):
    """The normalized samples: cellular ones seeing a preferred network
    become WiFi on the lexicographically first such network."""
    out = []
    for s in trace.samples:
        hits = s.visible_ssids & profile.preferred
        if s.active_network is ActiveNetwork.CELLULAR and hits:
            s = replace(s, active_network=ActiveNetwork.WIFI, connected_ssid=min(hits))
        out.append(s)
    return tuple(out)


def gaps_oracle(trace):
    """Cuts paired with the next resume in one forward scan with a pending cut."""
    gaps = []
    pending = None
    for prev, cur in zip(trace.samples, trace.samples[1:]):
        if cur.active_network is ActiveNetwork.NONE:
            if pending is not None:
                gaps.append(WiFiGap(cut_time=pending))
                pending = None
            continue
        if is_cut_transition(prev, cur):
            pending = cur.timestamp
        elif pending is not None and is_resume_transition(prev, cur):
            gaps.append(WiFiGap(cut_time=pending, resume_time=cur.timestamp))
            pending = None
    if pending is not None:
        gaps.append(WiFiGap(cut_time=pending))
    return gaps


def traffic_split_oracle(trace):
    """(cellular, wifi, first_day, per-day cellular, per-day wifi) byte sums."""
    if not trace.samples:
        return 0, 0, 0, (), ()
    first_day = local_day_index(trace.samples[0].timestamp)
    n_days = local_day_index(trace.samples[-1].timestamp) - first_day + 1
    cell, wifi = [0] * n_days, [0] * n_days
    for s in trace.samples:
        d = local_day_index(s.timestamp) - first_day
        if s.active_network is ActiveNetwork.CELLULAR:
            cell[d] += s.total_bytes
        elif s.active_network is ActiveNetwork.WIFI:
            wifi[d] += s.total_bytes
    return sum(cell), sum(wifi), first_day, tuple(cell), tuple(wifi)


def bound_oracle(trace, gaps, horizon_s):
    """Covered over total cellular bytes, walking each gap's cellular run
    from its cut until the horizon, a non-cellular sample or the end."""
    total = sum(s.total_bytes for s in trace.samples
                if s.active_network is ActiveNetwork.CELLULAR)
    if total == 0:
        return 0.0
    covered = 0
    for g in gaps:
        i = bisect_left(trace.samples, g.cut_time, key=lambda s: s.timestamp)
        while i < len(trace.samples):
            s = trace.samples[i]
            if (s.timestamp >= g.cut_time + horizon_s
                    or s.active_network is not ActiveNetwork.CELLULAR):
                break
            covered += s.total_bytes
            i += 1
    return covered / total


def window_oracle(trace, start, end):
    """Samples with start <= timestamp < end, by bisection on the samples."""
    lo = bisect_left(trace.samples, start, key=lambda s: s.timestamp)
    hi = bisect_left(trace.samples, end, lo, key=lambda s: s.timestamp)
    return trace.samples[lo:hi]
