"""Run metrics: train usage, waiting time, per-section aggregation, travel
times, and deterministic CSV reports.

Usage of a train over a window is occupied-seat-time divided by available
seat-time; with capacity changes inside the window the denominator is the
time-weighted capacity. Waiting time over a window divides the summed
in-window waits by the whole population, not just the people who waited.
Each line splits into five consecutive station sections (r0..r4, earlier
sections absorb remainders); a section's usage is the occupied fraction of
the seat-time trains spent inside it (the stretch from docking at a station
to docking at the next one counts toward the first station's section), its
wait averages the in-window waits of the humans standing at its stations.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from .city import TransitLine, TransitNetwork
from .engine import SECONDS_PER_HOUR, SimTime

SECTIONS_PER_LINE = 5


def overlap(a0: SimTime, a1: SimTime, b0: SimTime, b1: SimTime) -> int:
    return max(0, min(a1, b1) - max(a0, b0))


@dataclass(frozen=True)
class WaitRecord:
    human: int
    station: int
    start: SimTime
    end: SimTime

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError("wait ends before it starts")


@dataclass(frozen=True)
class TripRecord:
    human: int
    start: SimTime
    end: SimTime

    @property
    def total_seconds(self) -> int:
        return self.end - self.start


class OccupancySeries:
    """Step function of (onboard, capacity) over time for one train."""

    def __init__(self):
        self.times: list[SimTime] = []
        self.onboard: list[int] = []
        self.capacity: list[int] = []

    def record(self, t: SimTime, onboard: int, capacity: int) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("occupancy records must be time-ordered")
        if onboard < 0 or onboard > capacity:
            raise ValueError("onboard count outside [0, capacity]")
        if self.times and self.times[-1] == t:
            self.onboard[-1] = onboard
            self.capacity[-1] = capacity
        else:
            self.times.append(t)
            self.onboard.append(onboard)
            self.capacity.append(capacity)

    def integrate(self, t0: SimTime, t1: SimTime) -> tuple[float, float]:
        """(occupied seat-seconds, available seat-seconds) over [t0, t1).

        Only the segments that overlap the window are visited: the scan
        starts at the last record at or before t0 and stops at t1.
        """
        times = self.times
        if t1 <= t0 or not times:
            return 0.0, 0.0
        seat_s = 0.0
        cap_s = 0.0
        n = len(times)
        # before the first record the train does not exist for the metric
        i = max(0, bisect_right(times, t0) - 1)
        while i < n and times[i] < t1:
            seg_end = times[i + 1] if i + 1 < n else t1
            d = overlap(times[i], seg_end, t0, t1)
            if d > 0:
                seat_s += self.onboard[i] * d
                cap_s += self.capacity[i] * d
            i += 1
        return seat_s, cap_s


def line_sections(line: TransitLine) -> list[list[int]]:
    """Five consecutive station groups; earlier groups take any remainder."""
    n = line.n
    base, extra = divmod(n, SECTIONS_PER_LINE)
    out = []
    i = 0
    for s in range(SECTIONS_PER_LINE):
        size = base + (1 if s < extra else 0)
        out.append(line.station_ids[i:i + size])
        i += size
    return out


def station_section_map(line: TransitLine) -> dict[int, int]:
    return {sid: s for s, group in enumerate(line_sections(line)) for sid in group}


class MetricsLedger:
    """Everything the reports need, appended as the run unfolds."""

    def __init__(self):
        self.occupancy: dict[int, OccupancySeries] = {}
        self.visits: list[tuple[SimTime, int, str, int]] = []  # t, train, line, station
        self.waits: list[WaitRecord] = []
        self.trips: list[TripRecord] = []
        self.alt_considered = 0
        self.alt_adopted = 0

    def record_occupancy(self, t: SimTime, train_id: int, onboard: int, capacity: int) -> None:
        self.occupancy.setdefault(train_id, OccupancySeries()).record(t, onboard, capacity)

    def record_visit(self, t: SimTime, train_id: int, line: str, station: int) -> None:
        self.visits.append((t, train_id, line, station))

    def record_wait(self, human: int, station: int, start: SimTime, end: SimTime) -> None:
        self.waits.append(WaitRecord(human, station, start, end))

    def record_trip(self, rec: TripRecord) -> None:
        self.trips.append(rec)

    def close(self, t_end: SimTime) -> None:
        """Pin every series so integrals over [0, t_end) are well defined."""
        for series in self.occupancy.values():
            if series.times and series.times[-1] < t_end:
                series.record(t_end, series.onboard[-1], series.capacity[-1])


def avg_wait(ledger: MetricsLedger, t0: SimTime, t1: SimTime, population: int) -> float:
    if population <= 0:
        raise ValueError("population must be positive")
    total = sum(overlap(w.start, w.end, t0, t1) for w in ledger.waits)
    return total / population


def section_usage(ledger: MetricsLedger, line: TransitLine,
                  t0: SimTime, t1: SimTime) -> list[float]:
    """Occupied seat-time fraction per section over [t0, t1).

    The interval between consecutive dockings of a train is spent dwelling at
    the first station and running to the second, so it is charged to the
    first station's section. A pair of dockings at the same station is a
    train idling between runs and charges nothing.
    """
    sec_of = station_section_map(line)
    seat = [0.0] * SECTIONS_PER_LINE
    cap = [0.0] * SECTIONS_PER_LINE
    by_train: dict[int, list[tuple[SimTime, int]]] = {}
    for t, train, ln, sid in ledger.visits:
        if ln == line.name:
            by_train.setdefault(train, []).append((t, sid))
    for train, seq in by_train.items():
        series = ledger.occupancy.get(train)
        if series is None:
            continue
        seq.sort()
        for (ta, sa), (tb, sb) in zip(seq, seq[1:]):
            if sa == sb or tb <= t0 or ta >= t1:
                continue
            s, c = series.integrate(max(ta, t0), min(tb, t1))
            k = sec_of[sa]
            seat[k] += s
            cap[k] += c
    return [min(1.0, seat[k] / cap[k]) if cap[k] > 0 else 0.0
            for k in range(SECTIONS_PER_LINE)]


def section_wait(ledger: MetricsLedger, line: TransitLine,
                 t0: SimTime, t1: SimTime) -> list[float]:
    out = []
    for group in line_sections(line):
        members = set(group)
        durs = [overlap(w.start, w.end, t0, t1) for w in ledger.waits
                if w.station in members]
        durs = [d for d in durs if d > 0]
        out.append(sum(durs) / len(durs) if durs else 0.0)
    return out


def avg_total_travel(ledger: MetricsLedger, t0: SimTime, t1: SimTime) -> Optional[float]:
    done = [tr.total_seconds for tr in ledger.trips if t0 <= tr.end < t1]
    if not done:
        return None
    return sum(done) / len(done)


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def emit_report(ledger: MetricsLedger, network: TransitNetwork, out_dir: str,
                hours: int, population: int) -> None:
    """usage.csv and wait.csv per hour/line/section, one-row summary.csv."""
    os.makedirs(out_dir, exist_ok=True)
    lines = sorted(network.lines)
    with open(os.path.join(out_dir, "usage.csv"), "w", encoding="utf-8") as f:
        f.write("hour,line,section,usage\n")
        for hour in range(hours):
            t0, t1 = hour * SECONDS_PER_HOUR, (hour + 1) * SECONDS_PER_HOUR
            for name in lines:
                for s, u in enumerate(section_usage(ledger, network.lines[name], t0, t1)):
                    f.write(f"{hour},{name},r{s},{_fmt(u)}\n")
    with open(os.path.join(out_dir, "wait.csv"), "w", encoding="utf-8") as f:
        f.write("hour,line,section,avg_wait_s\n")
        for hour in range(hours):
            t0, t1 = hour * SECONDS_PER_HOUR, (hour + 1) * SECONDS_PER_HOUR
            for name in lines:
                for s, w in enumerate(section_wait(ledger, network.lines[name], t0, t1)):
                    f.write(f"{hour},{name},r{s},{_fmt(w)}\n")
    horizon = hours * SECONDS_PER_HOUR
    w_all = avg_wait(ledger, 0, horizon, population)
    travel = avg_total_travel(ledger, 0, horizon)
    frac = (ledger.alt_adopted / ledger.alt_considered) if ledger.alt_considered else 0.0
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as f:
        f.write("avg_wait_s,avg_travel_s,alt_route_fraction\n")
        travel_s = _fmt(travel) if travel is not None else ""
        f.write(f"{_fmt(w_all)},{travel_s},{_fmt(frac)}\n")
