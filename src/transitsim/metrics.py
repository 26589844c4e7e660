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

The report reads each train's series once: integer prefix sums of onboard
x seconds and capacity x seconds give the integral up to any instant by one
array lookup, so a piece of a docking interval inside one window costs two
lookups and a subtraction. Docking intervals and waits are split at the
window edges in array passes and summed per cell in whole seconds, so every
figure is exact while the sums stay below 2**53.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product, repeat
from operator import itemgetter
from typing import Optional

import numpy as np

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

    def cumulative(self, at: np.ndarray | list[SimTime]) -> np.ndarray:
        """Seat-seconds (row 0) and capacity-seconds (row 1) from the first
        record up to each instant of ``at``, as int64. An instant at or
        before the first record reads 0, and the last record holds past its
        time. Needs at least one record."""
        times = np.array(self.times, dtype=np.int64)
        values = np.array((self.onboard, self.capacity), dtype=np.int64)
        prefix = np.zeros_like(values)
        np.cumsum(values[:, :-1] * np.diff(times), axis=1, out=prefix[:, 1:])
        at = np.asarray(at, dtype=np.int64)
        i = np.maximum(np.searchsorted(times, at, side="right") - 1, 0)
        return prefix[:, i] + values[:, i] * np.maximum(at - times[i], 0)

    def integrate(self, t0: SimTime, t1: SimTime) -> tuple[float, float]:
        """(occupied seat-seconds, available seat-seconds) over [t0, t1),
        the difference of two ``cumulative`` reads."""
        if t1 <= t0 or not self.times:
            return 0.0, 0.0
        (s0, s1), (c0, c1) = self.cumulative([t0, t1]).tolist()
        return float(s1 - s0), float(c1 - c0)


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


def _pieces(edges: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(j, w, lo, hi) arrays: each [a[j], b[j]) clipped to every window
    [edges[w], edges[w + 1]) it overlaps by a positive span, in order."""
    first = np.maximum(np.searchsorted(edges, a, side="right") - 1, 0)
    n = np.maximum(np.minimum(np.searchsorted(edges, b), len(edges) - 1) - first, 0)
    j = np.repeat(np.arange(len(a)), n)
    w = first[j] + np.arange(len(j)) - np.repeat(np.cumsum(n) - n, n)
    lo, hi = np.maximum(a[j], edges[w]), np.minimum(b[j], edges[w + 1])
    keep = hi > lo
    return j[keep], w[keep], lo[keep], hi[keep]


def section_tables(ledger: MetricsLedger, lines: list[TransitLine],
                   edges: list[SimTime]) -> tuple[list[float], list[float]]:
    """Usage and mean wait of every (window, line, section) cell, in that
    order, where window w is [edges[w], edges[w + 1])."""
    width = len(lines) * SECTIONS_PER_LINE
    cell = {(line.name, sid): i * SECTIONS_PER_LINE + s for i, line in enumerate(lines)
            for s, group in enumerate(line_sections(line)) for sid in group}
    edges = np.asarray(edges, dtype=np.int64)
    seat, cap = _seat_time(ledger, cell, edges, width)
    total, count = _wait_time(ledger, cell, edges, width)
    empty = np.zeros(len(seat))
    usage = np.minimum(1.0, np.divide(seat, cap, out=empty.copy(), where=cap > 0))
    wait = np.divide(total, count, out=empty, where=count > 0)
    return usage.tolist(), wait.tolist()


def _seat_time(ledger: MetricsLedger, cell: dict[tuple[str, int], int],
               edges: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Seat-seconds and capacity-seconds per cell. Each (train, line) run's
    dockings are taken in time order, ties by station, and each stretch
    from one docking to the next is split at the edges and charged to the
    first station's cell; a train's pieces are priced by one
    ``cumulative`` read of its series. A pair of dockings at the same
    station is a train idling between runs and charges nothing."""
    size = (len(edges) - 1) * width
    visits, n = ledger.visits, len(ledger.visits)
    k = np.fromiter(map(cell.get, map(itemgetter(2, 3), visits), repeat(-1)), np.int64, n)
    held = np.fromiter(map(ledger.occupancy.__contains__, map(itemgetter(1), visits)), bool, n)
    t, train, sid = (np.fromiter(map(itemgetter(i), visits), np.int64, n) for i in (0, 1, 3))
    order = np.lexsort((sid, t, k // SECTIONS_PER_LINE, train))
    order = order[(held & (k >= 0))[order]]
    t, train, sid, k = t[order], train[order], sid[order], k[order]
    line = k // SECTIONS_PER_LINE
    # where one train docks on one line twice in a row, at two stations
    moved = np.flatnonzero((train[:-1] == train[1:]) & (line[:-1] == line[1:])
                           & (sid[:-1] != sid[1:]))
    seat, cap = np.zeros(size), np.zeros(size)
    owner = train[moved]
    for run in np.split(moved, np.flatnonzero(owner[1:] != owner[:-1]) + 1):
        if not len(run):
            continue
        j, w, lo, hi = _pieces(edges, t[run], t[run + 1])
        ends = ledger.occupancy[int(train[run[0]])].cumulative(np.concatenate((lo, hi)))
        piece_seat, piece_cap = ends[:, len(lo):] - ends[:, :len(lo)]
        into = w * width + k[run[j]]
        seat += np.bincount(into, piece_seat, size)
        cap += np.bincount(into, piece_cap, size)
    return seat, cap


def _wait_time(ledger: MetricsLedger, cell: dict[tuple[str, int], int],
               edges: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Summed in-window wait seconds and wait counts per cell: a wait counts
    in each window it overlaps by a positive span, at every section of its
    station."""
    size = (len(edges) - 1) * width
    at_station: dict[int, list[int]] = {}
    for (_, sid), k in cell.items():
        at_station.setdefault(sid, []).append(k)
    cells, start, end = np.array([(c, rec.start, rec.end) for rec in ledger.waits
                                  for c in at_station.get(rec.station, ())],
                                 dtype=np.int64).reshape(-1, 3).T
    j, w, lo, hi = _pieces(edges, start, end)
    into = w * width + cells[j]
    return np.bincount(into, hi - lo, size), np.bincount(into, minlength=size)


def section_usage(ledger: MetricsLedger, line: TransitLine,
                  t0: SimTime, t1: SimTime) -> list[float]:
    """Occupied seat-time fraction per section over [t0, t1)."""
    return section_tables(ledger, [line], [t0, t1])[0]


def section_wait(ledger: MetricsLedger, line: TransitLine,
                 t0: SimTime, t1: SimTime) -> list[float]:
    """Mean in-window wait per section over [t0, t1)."""
    return section_tables(ledger, [line], [t0, t1])[1]


def avg_total_travel(ledger: MetricsLedger, t0: SimTime, t1: SimTime) -> Optional[float]:
    done = [tr.end - tr.start for tr in ledger.trips if t0 <= tr.end < t1]
    if not done:
        return None
    return sum(done) / len(done)


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def emit_report(ledger: MetricsLedger, network: TransitNetwork, out_dir: str,
                hours: int, population: int) -> tuple[float, Optional[float]]:
    """usage.csv and wait.csv per hour/line/section, one-row summary.csv;
    returns the summary's whole-horizon average wait and travel time."""
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
    return w_all, travel
