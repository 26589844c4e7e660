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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .city import TransitLine, TransitNetwork
from .engine import SECONDS_PER_HOUR, SimTime

SECTIONS_PER_LINE = 5


def overlap(a0: SimTime, a1: SimTime, b0: SimTime, b1: SimTime) -> int:
    return max(0, min(a1, b1) - max(a0, b0))


@dataclass(frozen=True, slots=True)
class WaitRecord:
    human: int
    station: int
    start: SimTime
    end: SimTime

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError("wait ends before it starts")


@dataclass(frozen=True, slots=True)
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
    base, extra = divmod(line.n, SECTIONS_PER_LINE)
    cuts = [s * base + min(s, extra) for s in range(SECTIONS_PER_LINE + 1)]
    return [line.station_ids[a:b] for a, b in zip(cuts, cuts[1:])]


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


def _windows(edges: list[SimTime], a: SimTime, b: SimTime):
    """(w, lo, hi): [a, b) clipped to each window [edges[w], edges[w + 1]) it overlaps."""
    for w in range(max(0, bisect_right(edges, a) - 1),
                   min(bisect_left(edges, b), len(edges) - 1)):
        lo, hi = max(a, edges[w]), min(b, edges[w + 1])
        if hi > lo:
            yield w, lo, hi


def section_tables(ledger: MetricsLedger, lines: list[TransitLine],
                   edges: list[SimTime]) -> tuple[list[float], list[float]]:
    """Usage and mean wait of every (window, line, section) cell, in that
    order, where window w is [edges[w], edges[w + 1]), from one walk of the
    visits and one of the waits. A pair of dockings at the same station is a
    train idling between runs and charges nothing. A wait counts in each
    window it overlaps by a positive span, at every section of its station.
    """
    width = len(lines) * SECTIONS_PER_LINE
    seat, cap, total, count = ([0] * ((len(edges) - 1) * width) for _ in range(4))
    cell = {(line.name, sid): i * SECTIONS_PER_LINE + s for i, line in enumerate(lines)
            for s, group in enumerate(line_sections(line)) for sid in group}
    runs: dict[tuple[int, str], list[tuple[SimTime, int]]] = {}
    for t, train, ln, sid in ledger.visits:
        if (ln, sid) in cell and train in ledger.occupancy:
            runs.setdefault((train, ln), []).append((t, sid))
    for (train, ln), seq in runs.items():
        series = ledger.occupancy[train]
        seq.sort()
        for (ta, sa), (tb, sb) in zip(seq, seq[1:]):
            if sa != sb:
                for w, lo, hi in _windows(edges, ta, tb):
                    s, c = series.integrate(lo, hi)
                    seat[w * width + cell[ln, sa]] += s
                    cap[w * width + cell[ln, sa]] += c
    for rec in ledger.waits:
        at = [cell[line.name, rec.station] for line in lines if (line.name, rec.station) in cell]
        for w, lo, hi in _windows(edges, rec.start, rec.end):
            for k in at:
                total[w * width + k] += hi - lo
                count[w * width + k] += 1
    return ([min(1.0, s / c) if c > 0 else 0.0 for s, c in zip(seat, cap)],
            [t / n if n else 0.0 for t, n in zip(total, count)])


def section_usage(ledger: MetricsLedger, line: TransitLine,
                  t0: SimTime, t1: SimTime) -> list[float]:
    """Occupied seat-time fraction per section over [t0, t1)."""
    return section_tables(ledger, [line], [t0, t1])[0]


def section_wait(ledger: MetricsLedger, line: TransitLine,
                 t0: SimTime, t1: SimTime) -> list[float]:
    """Mean in-window wait per section over [t0, t1)."""
    return section_tables(ledger, [line], [t0, t1])[1]


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
    lines = [network.lines[name] for name in sorted(network.lines)]
    tables = section_tables(ledger, lines, [h * SECONDS_PER_HOUR for h in range(hours + 1)])
    for fname, column, table in zip(("usage.csv", "wait.csv"), ("usage", "avg_wait_s"), tables):
        cells = product(range(hours), lines, range(SECTIONS_PER_LINE))
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as f:
            f.write(f"hour,line,section,{column}\n")
            for (hour, line, s), x in zip(cells, table):
                f.write(f"{hour},{line.name},r{s},{_fmt(x)}\n")
    horizon = hours * SECONDS_PER_HOUR
    w_all = avg_wait(ledger, 0, horizon, population)
    travel = avg_total_travel(ledger, 0, horizon)
    frac = (ledger.alt_adopted / ledger.alt_considered) if ledger.alt_considered else 0.0
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as f:
        f.write("avg_wait_s,avg_travel_s,alt_route_fraction\n")
        travel_s = _fmt(travel) if travel is not None else ""
        f.write(f"{_fmt(w_all)},{travel_s},{_fmt(frac)}\n")
