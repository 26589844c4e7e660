"""Congestion-control strategies.

Every hour the world hands a strategy the live fleet (the manager's trains
and its pool of unattached compartments) and that day's demand estimate; the
strategy reads them, changes nothing, and returns a decision: compartment
moves between trains and the pool. The baseline never moves anything. The
greedy strategy tops up trains whose per-departure demand estimate exceeds
their capacity, drawing first on the pool and then on trains whose demand is
falling and that have seats to spare.

Alternative routing is a separate human-side behavior, switched on the
world: when a full train leaves riders on the platform, the world offers
each of them a fresh route from where they stand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from .transit import SEATS_PER_COMPARTMENT, RidershipEstimate, Train


@dataclass(frozen=True)
class StrategyDecision:
    moves: tuple[tuple[object, object, int], ...]


class Strategy:
    """The hourly hook; the base class is the baseline and never moves
    anything."""

    def on_hour(self, trains: Collection[Train], pool: int, estimate: RidershipEstimate,
                hour: int) -> StrategyDecision:
        return StrategyDecision(())


class GreedyReallocation(Strategy):
    def on_hour(self, trains: Collection[Train], pool: int, estimate: RidershipEstimate,
                hour: int) -> StrategyDecision:
        """One compartment to each over-demand train, busiest first.

        Per-train demand is the route estimate spread over that hour's
        departures. Pool compartments go first; after that, donors are
        trains whose demand fell since the previous hour and still leaves a
        compartment of slack once their queued detaches are done, largest
        fall first. Requests with no source stay unmet.
        """

        def per_train(tr: Train, h: int) -> float:
            return estimate.per_departure(tr.line, tr.direction, h)

        requests = [tr for tr in trains if per_train(tr, hour) > tr.capacity]
        requests.sort(key=lambda tr: (-per_train(tr, hour), tr.id))
        overloaded = {tr.id for tr in requests}
        moves: list[tuple[object, object, int]] = []
        pool_left = pool
        donated: dict[int, int] = {}
        for tr in requests:
            if pool_left > 0:
                pool_left -= 1
                moves.append(("pool", tr.id, 1))
                continue
            donor = None
            donor_drop = 0.0
            for cand in trains:
                if cand.id in overloaded or cand.id == tr.id:
                    continue
                given = donated.get(cand.id, 0) + cand.pending_detach
                if cand.compartments - given <= 1:
                    continue
                if hour == 0:
                    continue
                cur = per_train(cand, hour)
                prev = per_train(cand, hour - 1)
                slack_cap = (cand.compartments - given) * SEATS_PER_COMPARTMENT
                if cur < prev and cur < slack_cap - SEATS_PER_COMPARTMENT:
                    drop = prev - cur
                    if (donor is None or drop > donor_drop
                            or (drop == donor_drop and cand.id < donor)):
                        donor, donor_drop = cand.id, drop
            if donor is None:
                continue
            donated[donor] = donated.get(donor, 0) + 1
            moves.append((donor, tr.id, 1))
        return StrategyDecision(tuple(moves))
