"""Congestion-control strategies.

A strategy sees an hourly snapshot (fleet state plus the demand estimate) and
returns a decision: compartment moves between trains and the shared pool.
The baseline never moves anything. The greedy strategy tops up trains whose
per-departure demand estimate exceeds their capacity, drawing first on the
pool and then on trains whose demand is falling and that have seats to spare.

Alternative routing is a separate human-side behavior: with ``alt_routing``
on, when a full train leaves riders on the platform, the world offers each
of them a fresh route from where they stand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .transit import SEATS_PER_COMPARTMENT, RidershipEstimate, TransportManager


@dataclass(frozen=True)
class StrategyDecision:
    moves: tuple[tuple[object, object, int], ...]


@dataclass(frozen=True)
class TrainView:
    id: int
    line: str
    direction: int
    compartments: int
    onboard: int

    @property
    def capacity(self) -> int:
        return self.compartments * SEATS_PER_COMPARTMENT


@dataclass(frozen=True)
class ManagerView:
    """Read-only hourly snapshot handed to strategies."""

    hour: int
    trains: tuple[TrainView, ...]
    pool: int  # unattached compartments
    estimate: RidershipEstimate


def snapshot(manager: TransportManager, estimate: RidershipEstimate,
             hour: int) -> ManagerView:
    trains = tuple(
        TrainView(tr.id, tr.line, tr.direction, tr.compartments, len(tr.onboard))
        for tr in manager.trains.values())
    return ManagerView(hour, trains, manager.unattached, estimate)


def greedy_reallocate(view: ManagerView) -> StrategyDecision:
    """One compartment to each over-demand train, busiest first.

    Per-train demand is the route estimate spread over that hour's
    departures. Pool compartments go first; after that, donors are trains
    whose demand fell since the previous hour and still leaves a compartment
    of slack, largest fall first. Requests with no source stay unmet.
    """
    est = view.estimate
    hour = view.hour

    def per_train(tv: TrainView, h: int) -> float:
        return est.per_departure(tv.line, tv.direction, h)

    requests = [tv for tv in view.trains if per_train(tv, hour) > tv.capacity]
    requests.sort(key=lambda tv: (-per_train(tv, hour), tv.id))
    overloaded = {tv.id for tv in requests}
    moves: list[tuple[object, object, int]] = []
    pool_left = view.pool
    donated: dict[int, int] = {}
    for tv in requests:
        if pool_left > 0:
            pool_left -= 1
            moves.append(("pool", tv.id, 1))
            continue
        donor = None
        donor_drop = 0.0
        for cand in view.trains:
            if cand.id in overloaded or cand.id == tv.id:
                continue
            given = donated.get(cand.id, 0)
            if cand.compartments - given <= 1:
                continue
            if hour == 0:
                continue
            cur = per_train(cand, hour)
            prev = per_train(cand, hour - 1)
            slack_cap = (cand.compartments - given) * SEATS_PER_COMPARTMENT
            if cur < prev and cur < slack_cap - SEATS_PER_COMPARTMENT:
                drop = prev - cur
                if donor is None or drop > donor_drop or (drop == donor_drop and cand.id < donor):
                    donor, donor_drop = cand.id, drop
        if donor is None:
            continue
        donated[donor] = donated.get(donor, 0) + 1
        moves.append((donor, tv.id, 1))
    return StrategyDecision(tuple(moves))


class Strategy:
    """Hourly hook plus the alternative-routing switch; the base class is
    the baseline and never moves anything."""

    name = "none"

    def __init__(self, alt_routing: bool = False):
        self.alt_routing = alt_routing

    def on_hour(self, view: ManagerView) -> StrategyDecision:
        return StrategyDecision(())


class GreedyReallocation(Strategy):
    name = "greedy"

    def on_hour(self, view: ManagerView) -> StrategyDecision:
        return greedy_reallocate(view)


def make_strategy(name: str, alt_routing: bool = False) -> Strategy:
    if name == "none":
        return Strategy(alt_routing)
    if name == "greedy":
        return GreedyReallocation(alt_routing)
    raise ValueError(f"unknown strategy {name!r}")
