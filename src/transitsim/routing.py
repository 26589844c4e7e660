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

from .city import GeoPoint, RoadRouter, Station, TransitLine, TransitNetwork
from .engine import SECONDS_PER_DAY, SimTime

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
        # shortest-path trees, keyed board for plan and (board, sorted first
        # waits) for alternative
        self._trees: dict = {}
        self._ids = sorted(network.stations)
        self._ordinal = {sid: i for i, sid in enumerate(self._ids)}
        self._boards, self._rides = _state_graph(network, self._ordinal)

    def plan(self, origin: GeoPoint, dest: GeoPoint, t: SimTime) -> Route:
        """Fastest route from origin to dest, rail if it beats the road.

        Boarding happens at the station nearest the origin and alighting at
        the station nearest the destination; the search is over train legs
        between those two. A strictly faster pure-road trip wins, as does
        the road if a rider setting out at t would, on the planned figures,
        reach a leg's board station no earlier than that route's last pass
        there that day.

        Planning uses scheduled figures only and asks no schedule inquiry:
        every route a station lists has a next departure on any timetable
        ``network_from_dict`` accepts. The rail search is therefore
        time-independent: one shortest-path tree per board station answers
        every alight station, and each (board, alight) answer is memoised.
        The network must not change after the planner is built.
        """
        return self._fastest(origin, dest, self.network.nearest_station(origin), t)

    def alternative(self, station_id: int, dest: GeoPoint,
                    first_waits: dict[tuple[str, int], int], t: SimTime) -> Route:
        """Best onward route for a human a full train left at a station.

        ``first_waits`` is ``TransportManager.live_waits`` here: waiting for
        the train after the full one is a valid option, and a route not
        listed cannot be boarded. Road travel straight from the station is
        the fallback, so something feasible always comes back. The rail
        search is cached per (station, first waits) and its answers per
        (station, alight station, first waits).
        """
        board = self.network.station(station_id)
        return self._fastest(board.point, dest, board, t, first_waits)

    def _fastest(self, here: GeoPoint, dest: GeoPoint, board: Station, t: SimTime,
                 first_waits: Optional[dict[tuple[str, int], int]] = None) -> Route:
        """Rail from ``board`` to the station nearest ``dest``, reached from
        ``here`` by road, or the road all the way if that is strictly
        faster, no rail path exists or the rail trip misses a last pass (see
        ``plan``). ``first_waits`` prices the first boarding as in
        ``_rail_path``; left empty, it leaves only the road.

        Rail answers are memoised in ``_rail_paths`` under (board, alight),
        plus the sorted first waits when given; a miss calls ``_rail_path``.
        """
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
        # the road if a board station is reached at or after its last pass that day
        at = t + access
        for leg, (wait, ride) in zip(legs, leg_times(self.network.lines, legs, first_waits)):
            line = self.network.lines[leg.line]
            svc = line.service
            if at >= (at // SECONDS_PER_DAY * SECONDS_PER_DAY + svc.last_departure
                      + line.position(leg.board, leg.direction)
                      * (svc.run_seconds + svc.dwell_seconds)):
                return _road_route(road_total)
            at += wait + ride
        return Route(legs, access, wait_s, ride_s, egress, total)

    def _rail_path(self, src: int, dst: int,
                   first_waits: Optional[dict[tuple[str, int], int]] = None):
        """Minimum-time train legs from station src to dst, as
        (legs, wait_seconds, ride_seconds), or None if dst is out of reach.

        Read back from the shortest-path tree of src, which ``_search``
        builds on the first query from src (per first waits when given) and
        ``_trees`` keeps. The tree holds per station only the hub it was
        boarded from and the route taken; the legs are priced by
        ``leg_times``.
        """
        key = src if first_waits is None else (src, tuple(sorted(first_waits.items())))
        tree = self._trees.get(key)
        if tree is None:
            tree = self._trees[key] = self._search(src, first_waits)
        came_from, via = tree
        root, i = self._ordinal[src], self._ordinal[dst]
        if i != root and via[i] is None:
            return None
        legs: list[TrainLeg] = []
        while i != root:
            b = came_from[i]
            legs.append(TrainLeg(*via[i], self._ids[b], self._ids[i]))
            i = b
        legs.reverse()
        times = list(leg_times(self.network.lines, legs, first_waits))
        return tuple(legs), int(round(sum(w for w, _ in times))), sum(r for _, r in times)

    def _search(self, src: int, first_waits: Optional[dict[tuple[str, int], int]] = None):
        """Dijkstra from station src over the whole state graph.

        States: a hub, standing at a station; onboard, on a (line,
        direction) with the doors just opened at a station. Boarding jumps
        straight to the next station (wait + run); continuing costs dwell +
        run; alighting is free. The wait is half the headway, except that
        with ``first_waits`` the boarding at src may only take the routes
        listed there, at the given waits. Ties pop in insertion order.

        Costs are never negative, so each station's path is the one a search
        stopped at that station would find. Returns, per station ordinal,
        the hub ordinal of the last boarding on its path and the (line,
        direction) ridden from there, or (-1, None) if out of reach.
        """
        n = len(self._ids)
        boards, rides = self._boards, self._rides
        root = self._ordinal[src]
        first = boards[root]
        if first_waits is not None:
            first = [(route, nxt, first_waits[route], run)
                     for route, nxt, _, run in first if route in first_waits]
        dist = [math.inf] * (n + len(rides))
        dist[root] = 0.0
        # hub: previous hub on its path; onboard state: the hub boarded at
        came_from = [-1] * len(dist)
        via: list[Optional[tuple[str, int]]] = [None] * n
        heap = [(0.0, 0, root)]
        tiebreak = itertools.count(1)
        while heap:
            cost, _, s = heappop(heap)
            if cost > dist[s]:
                continue   # superseded by a cheaper push of the same state
            if s < n:
                for route, nxt, w, run in (first if s == root else boards[s]):
                    ncost = cost + w + run
                    if ncost < dist[nxt]:
                        dist[nxt] = ncost
                        came_from[nxt] = s
                        heappush(heap, (ncost, next(tiebreak), nxt))
                continue
            hub, nxt, route, dwell, run = rides[s - n]
            if cost < dist[hub]:
                dist[hub] = cost
                came_from[hub] = came_from[s]
                via[hub] = route
                heappush(heap, (cost, next(tiebreak), hub))
            if nxt is not None:
                ncost = cost + dwell + run
                if ncost < dist[nxt]:
                    dist[nxt] = ncost
                    came_from[nxt] = came_from[s]
                    heappush(heap, (ncost, next(tiebreak), nxt))
        return came_from[:n], via


def leg_times(lines: dict[str, TransitLine], legs,
              first_waits: Optional[dict[tuple[str, int], int]] = None):
    """(wait, ride) of each leg in turn: the wait is ``first_waits``' figure
    for the first leg's route when given, else half the headway, and the
    ride is scheduled. Waits are whole or half seconds, so their sums are
    exact in any order."""
    for k, leg in enumerate(legs):
        line = lines[leg.line]
        wait = (first_waits[(leg.line, leg.direction)] if k == 0 and first_waits is not None
                else line.service.headway_seconds / 2.0)
        yield wait, line.ride_seconds(leg.board, leg.alight, leg.direction)


def _state_graph(network: TransitNetwork, ordinal: dict[int, int]):
    """Successor table of the planner's state graph, built once.

    Hubs are numbered by station ``ordinal``, followed by one onboard state
    per (line, direction, station). Returns per hub its boardings in
    ``routes_at`` order as (route, onboard state at the next stop, half the
    headway, run), and per onboard state (hub, next onboard state or None,
    route, dwell, run). A run ends at its terminal, so the onboard state
    there has no next one: a trip across a loop's anchor changes trains.
    """
    keys = [(sid, name, d) for name, line in network.lines.items()
            for d in (+1, -1) for sid in line.station_ids]
    onboard = {key: len(ordinal) + k for k, key in enumerate(keys)}
    rides = []
    for sid, name, d in keys:
        line = network.lines[name]
        nxt = None if sid == line.terminal(d) else line.next_station(sid, d)
        rides.append((ordinal[sid], onboard.get((nxt, name, d)),
                      (name, d), line.service.dwell_seconds, line.service.run_seconds))
    boards = []
    for sid in ordinal:
        moves = []
        for name, d in network.routes_at(sid):
            line = network.lines[name]
            moves.append(((name, d), onboard[(line.next_station(sid, d), name, d)],
                          line.service.headway_seconds / 2.0, line.service.run_seconds))
        boards.append(moves)
    return boards, rides
