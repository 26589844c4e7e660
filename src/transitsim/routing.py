"""Trip routing: minimum-time rail paths with transfers, the pure-road
fallback, and the re-route decision taken when a full train shows up.

Planning rides on estimates: expected boarding wait is half the line headway
(random incidence), rides use scheduled run and dwell times. A re-route is
the same rail query as a plan, with live waits from the train inquiry for
the first boarding in place of the timetable's.
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


class _RailQuery:
    """Rail answers from one board station under one table of first waits,
    per alight station, read from the shortest-path tree the first builds."""

    def __init__(self, first_waits: dict[tuple[str, int], float]):
        self.first_waits, self.tree, self.answers = first_waits, None, {}


class RoutePlanner:
    def __init__(self, network: TransitNetwork, road: RoadRouter):
        self.network = network
        self.road = road
        self._ids = sorted(network.stations)
        self._ordinal = {sid: i for i, sid in enumerate(self._ids)}
        self._boards, self._rides = _state_graph(network, self._ordinal)
        # (board, sorted first waits) -> rail query; a plan asks the one with
        # the timetable's first waits, half each listed route's headway
        self._rail: dict[tuple, _RailQuery] = {}
        self._timetable = {sid: self._query(sid, {route: w for route, _, w, _ in moves})
                           for sid, moves in zip(self._ids, self._boards)}
        # the last detour's board, first waits (a copy) and query: every
        # rider one full train leaves behind brings the same waits
        self._detour: tuple = (None, None, None)

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
        ``network_from_dict`` accepts. A plan is a detour's rail query with
        the timetable's first waits, so it is time-independent: one tree per
        board station answers every alight station, and each answer is
        kept. The network must not change after the planner is built.
        """
        board, access_km = self.network.nearest_station(origin)
        return self._fastest(origin, dest, board, access_km, t, self._timetable[board.id])

    def alternative(self, station_id: int, dest: GeoPoint,
                    first_waits: dict[tuple[str, int], int], t: SimTime) -> Route:
        """Best onward route for a human a full train left at a station.

        ``first_waits`` is ``TransportManager.live_waits`` here: waiting for
        the train after the full one is a valid option, and a route not
        listed cannot be boarded. Road travel straight from the station is
        the fallback, so something feasible always comes back. The rail
        query is kept per (station, first waits), as a plan's is.
        """
        board = self.network.station(station_id)
        if (station_id, first_waits) != self._detour[:2]:
            self._detour = (station_id, dict(first_waits), self._query(station_id, first_waits))
        return self._fastest(board.point, dest, board, 0.0, t, self._detour[2])

    def _query(self, board: int, first_waits: dict[tuple[str, int], float]) -> _RailQuery:
        """The rail query from ``board`` under ``first_waits``, kept from its first use."""
        key = (board, tuple(sorted(first_waits.items())))
        return self._rail.setdefault(key, _RailQuery(first_waits))

    def _fastest(self, here: GeoPoint, dest: GeoPoint, board: Station, access_km: float,
                 t: SimTime, query: _RailQuery) -> Route:
        """Rail from ``board`` to the station nearest ``dest``, reached from
        ``here`` by ``access_km`` of road, or the road all the way if that is
        strictly faster, no rail path exists or the rail trip misses a last
        pass (see ``plan``). A query's answer is kept from its ``_rail_path``
        call. Egress is the destination's km to its station, which
        haversine_km's symmetry makes the km back from it."""
        road_total = self.road.travel_seconds(here, dest)
        alight, egress_km = self.network.nearest_station(dest)
        if alight.id == board.id:
            return _road_route(road_total)
        answers = query.answers
        if alight.id not in answers:
            answers[alight.id] = self._rail_path(board.id, alight.id, query)
        rail = answers[alight.id]
        if rail is None:
            return _road_route(road_total)
        legs, wait_s, ride_s, steps = rail
        access = self.road.seconds(access_km)
        egress = self.road.seconds(egress_km)
        total = access + wait_s + ride_s + egress
        if road_total < total:
            return _road_route(road_total)
        # the road if a board station is reached at or after its last pass that day
        at = t + access
        lines = self.network.lines
        for leg, step in zip(legs, steps):
            if at >= lines[leg.line].last_pass(leg.board, leg.direction, at // SECONDS_PER_DAY):
                return _road_route(road_total)
            at += step
        return Route(legs, access, wait_s, ride_s, egress, total)

    def _rail_path(self, src: int, dst: int, query: _RailQuery):
        """Minimum-time train legs from station src to dst, as (legs, wait_seconds,
        ride_seconds, per-leg wait + ride), or None if dst is out of reach.

        Read back from the query's shortest-path tree, which ``_search``
        builds from src under the query's first waits on its first answer.
        The tree holds per station only the hub it was boarded from and the
        route taken; the legs are priced by ``leg_times``.
        """
        if query.tree is None:
            query.tree = self._search(src, query.first_waits)
        came_from, via = query.tree
        root, i = self._ordinal[src], self._ordinal[dst]
        if i != root and via[i] is None:
            return None
        legs: list[TrainLeg] = []
        while i != root:
            b = came_from[i]
            legs.append(TrainLeg(*via[i], self._ids[b], self._ids[i]))
            i = b
        legs.reverse()
        times = list(leg_times(self.network.lines, legs, query.first_waits))
        return (tuple(legs), round(sum(w for w, _ in times)), sum(r for _, r in times),
                tuple(w + r for w, r in times))

    def _search(self, src: int, first_waits: dict[tuple[str, int], float]):
        """Dijkstra from station src over the whole state graph.

        States: a hub, standing at a station; onboard, on a (line,
        direction) with the doors just opened at a station. Boarding jumps
        straight to the next station (wait + run); continuing costs dwell +
        run; alighting is free. The boarding at src may only take the routes
        listed in ``first_waits``, at the given waits; every later one waits
        half the headway. Ties pop in insertion order.

        Costs are never negative, so each station's path is the one a search
        stopped at that station would find. Returns, per station ordinal,
        the hub ordinal of the last boarding on its path and the (line,
        direction) ridden from there, or (-1, None) if out of reach.
        """
        n = len(self._ids)
        boards, rides = self._boards, self._rides
        root = self._ordinal[src]
        first = [(route, nxt, first_waits[route], run)
                 for route, nxt, _, run in boards[root] if route in first_waits]
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


def leg_times(lines: dict[str, TransitLine], legs, first_waits: dict[tuple[str, int], float]):
    """(wait, ride) of each leg in turn: the wait is ``first_waits``' figure
    for the first leg's route and half the headway after, and the ride is
    scheduled. Waits are whole or half seconds, so their sums are exact in
    any order."""
    for k, leg in enumerate(legs):
        line = lines[leg.line]
        wait = (first_waits[(leg.line, leg.direction)] if k == 0
                else line.service.headway_seconds / 2.0)
        yield wait, line.ride_seconds(leg.board, leg.alight, leg.direction)


def _state_graph(network: TransitNetwork, ordinal: dict[int, int]):
    """Successor table of the planner's state graph, built once.

    Hubs are numbered by station ``ordinal``, followed by one onboard state
    per stop of each (line, direction) run after its first. Returns per hub
    its boardings in ``routes_at`` order as (route, onboard state at the next
    stop, half the headway, run), and per onboard state (hub, onboard state
    at the run's next stop or None, route, dwell, run). A run's last stop
    continues nowhere: a trip across a loop's anchor changes trains.
    """
    runs = [(name, d, line.path(d)[1:]) for name, line in network.lines.items()
            for d in (+1, -1)]
    onboard = {}
    for name, d, stops in runs:
        for sid in stops:
            onboard[(sid, name, d)] = len(ordinal) + len(onboard)
    rides = []
    for name, d, stops in runs:
        svc = network.lines[name].service
        for sid, nxt in zip(stops, stops[1:] + [None]):
            rides.append((ordinal[sid], onboard.get((nxt, name, d)),
                          (name, d), svc.dwell_seconds, svc.run_seconds))
    boards = []
    for sid in ordinal:
        moves = []
        for name, d in network.routes_at(sid):
            line = network.lines[name]
            moves.append(((name, d), onboard[(line.next_station(sid, d), name, d)],
                          line.service.headway_seconds / 2.0, line.service.run_seconds))
        boards.append(moves)
    return boards, rides
