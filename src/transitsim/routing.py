"""Trip routing: minimum-time rail paths with transfers, the pure-road
fallback, and the re-route decision taken when a full train shows up.

Planning rides on estimates: expected boarding wait is half the line headway
(random incidence), rides use scheduled run and dwell times. The re-route
path swaps in live waits from the train inquiry for the first boarding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from .city import GeoPoint, RoadRouter, Station, TransitNetwork
from .engine import SimTime

@dataclass(frozen=True)
class TrainLeg:
    line: str
    direction: int
    board: int   # station id
    alight: int


@dataclass(frozen=True)
class Route:
    legs: tuple[TrainLeg, ...]
    access_seconds: int   # road: origin -> boarding station (or full trip if road-only)
    wait_seconds: int     # estimated platform waits, first boarding + transfers
    ride_seconds: int
    egress_seconds: int
    total_seconds: int

    @property
    def road_only(self) -> bool:
        return not self.legs


def _road_route(seconds: int) -> Route:
    return Route((), seconds, 0, 0, 0, seconds)


class RoutePlanner:
    def __init__(self, network: TransitNetwork, road: RoadRouter):
        self.network = network
        self.road = road
        # _rail_path results, keyed (board, alight) for plan and (board,
        # alight, sorted first waits) for alternative
        self._rail_paths: dict[tuple, Optional[tuple]] = {}

    def plan(self, origin: GeoPoint, dest: GeoPoint) -> Route:
        """Fastest route from origin to dest, rail if it beats the road.

        Boarding happens at the station nearest the origin and alighting at
        the station nearest the destination; the search is over train legs
        between those two. A strictly faster pure-road trip wins.

        Planning uses scheduled figures only and asks no schedule inquiry:
        every route a station lists has a next departure on any timetable
        ``network_from_dict`` accepts. The rail search is therefore
        time-independent and cached per (board station, alight station).
        The network must not change after the planner is built.
        """
        return self._fastest(origin, dest, self.network.nearest_station(origin))

    def alternative(self, station_id: int, dest: GeoPoint, current_first: tuple[str, int],
                    inquiry, t: SimTime, exclude_train: Optional[int] = None) -> Route:
        """Best onward route for a human stuck at a station.

        The train serving ``current_first`` arrived full; waiting for the one
        after it is a valid option and is priced with its real departure
        time, as is the first boarding on every other line here. Road travel
        straight from the station is the fallback, so something feasible
        always comes back. The rail search is cached per (station, alight
        station, first waits): riders left behind by the same train see the
        same live waits.
        """
        first_waits: dict[tuple[str, int], int] = {}
        for route in self.network.routes_at(station_id):
            skip = exclude_train if route == current_first else None
            dep = inquiry.next_departure(route[0], station_id, route[1], t, exclude_train=skip)
            if dep is not None:
                first_waits[route] = dep - t
        board = self.network.station(station_id)
        return self._fastest(board.point, dest, board, first_waits)

    def _fastest(self, here: GeoPoint, dest: GeoPoint, board: Station,
                 first_waits: Optional[dict[tuple[str, int], int]] = None) -> Route:
        """Rail from ``board`` to the station nearest ``dest``, reached from
        ``here`` by road, or the road all the way if that is strictly
        faster or no rail path exists. ``first_waits`` prices the first
        boarding as in ``_rail_path`` and joins the memo key; left empty,
        it leaves only the road."""
        road_total = self.road.travel_seconds(here, dest)
        alight = self.network.nearest_station(dest)
        rail = None
        if alight.id != board.id and first_waits != {}:
            key = (board.id, alight.id)
            if first_waits is not None:
                key += (tuple(sorted(first_waits.items())),)
            if key not in self._rail_paths:
                self._rail_paths[key] = self._rail_path(board.id, alight.id, first_waits)
            rail = self._rail_paths[key]
        if rail is None:
            return _road_route(road_total)
        legs, wait_s, ride_s = rail
        access = self.road.travel_seconds(here, board.point)
        egress = self.road.travel_seconds(alight.point, dest)
        total = access + wait_s + ride_s + egress
        if road_total < total:
            return _road_route(road_total)
        return Route(legs, access, wait_s, ride_s, egress, total)

    def _rail_path(self, src: int, dst: int,
                   first_waits: Optional[dict[tuple[str, int], int]] = None):
        """Dijkstra from station src to dst over (station, line, direction)
        states. Returns (legs, wait_seconds, ride_seconds) or None.

        States: ("hub", s) = standing at station s; ("on", s, line, d) =
        onboard, doors just opened at s. Boarding jumps straight to the next
        station (wait + run); continuing costs dwell + run; alighting is free.
        With ``first_waits`` the first boarding may only take the routes
        listed there, at the given waits.
        """
        net = self.network
        start = ("hub", src)
        goal = ("hub", dst)
        dist: dict = {start: 0.0}
        parent: dict = {}
        heap = [(0.0, 0, start)]
        tiebreak = itertools.count(1)
        done = set()
        while heap:
            cost, _, state = heappop(heap)
            if state in done:
                continue
            done.add(state)
            if state == goal:
                break

            def relax(nstate, ncost, edge):
                if ncost < dist.get(nstate, math.inf):
                    dist[nstate] = ncost
                    parent[nstate] = (state, edge)
                    heappush(heap, (ncost, next(tiebreak), nstate))

            if state[0] == "hub":
                s = state[1]
                for line_name, d in net.routes_at(s):
                    line = net.lines[line_name]
                    if s == src and first_waits is not None:
                        if (line_name, d) not in first_waits:
                            continue
                        w = first_waits[(line_name, d)]
                    else:
                        w = line.service.headway_seconds / 2.0
                    relax(("on", line.next_station(s, d), line_name, d),
                          cost + w + line.service.run_seconds,
                          ("board", line_name, d, s, w))
            else:
                _, s, line_name, d = state
                line = net.lines[line_name]
                relax(("hub", s), cost, ("alight", s))
                s2 = line.next_station(s, d)
                if s2 is not None:
                    relax(("on", s2, line_name, d), cost + line.service.dwell_seconds + line.service.run_seconds,
                          ("ride",))
        if goal not in parent and goal != start:
            return None
        # walk back and stitch board..alight pairs into legs
        legs: list[TrainLeg] = []
        wait_s = 0.0
        state = goal
        alight_at = None
        while state != start:
            prev, edge = parent[state]
            if edge[0] == "alight":
                alight_at = edge[1]
            elif edge[0] == "board":
                _, line_name, d, board_at, w = edge
                legs.append(TrainLeg(line_name, d, board_at, alight_at))
                wait_s += w
            state = prev
        legs.reverse()
        ride_s = sum(net.lines[leg.line].ride_seconds(leg.board, leg.alight, leg.direction)
                     for leg in legs)
        return tuple(legs), int(round(wait_s)), ride_s
