import itertools
import math
from heapq import heappop, heappush
from pathlib import Path

import numpy as np
import pytest

from transitsim.city import (
    GeoPoint,
    LineService,
    RoadRouter,
    Station,
    TransitLine,
    TransitNetwork,
    haversine_km,
)
from transitsim.cli import build_world
from transitsim.config import load_scenario
from transitsim.routing import RoutePlanner, TrainLeg
from transitsim.transit import TransportManager

ROAD = RoadRouter(35.0)
T = 8 * 3600   # planning time, inside svc()'s service day
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def svc(run=120, dwell=30, headway=600):
    return LineService(run, dwell, headway, 5 * 3600, 23 * 3600)


def cross_network(service=None):
    """20 unique stations: line H (10, west-east) and line V (11, south-north)
    sharing station 5 at the crossing."""
    service = service or svc()
    stations = [Station(i, f"H{i}", GeoPoint(1.30, 103.70 + 0.015 * i)) for i in range(10)]
    v_lats = [1.30 + 0.015 * k for k in range(-5, 6)]  # station 5 sits at k=0
    v_ids = [10, 11, 12, 13, 14, 5, 15, 16, 17, 18, 19]
    for sid, lat in zip(v_ids, v_lats):
        if sid != 5:
            stations.append(Station(sid, f"V{sid}", GeoPoint(lat, 103.775)))
    lines = [TransitLine("H", list(range(10)), service), TransitLine("V", v_ids, service)]
    return TransitNetwork(stations, lines)


def rail_path(p, src, dst, first_waits=None):
    """The planner's rail answer from src to dst: a plan's, under the
    timetable's first waits, or a detour's under the given ones."""
    query = p._timetable[src] if first_waits is None else p._query(src, first_waits)
    return p._rail_path(src, dst, query)


def enumerate_best_total(net, origin, dest, max_legs=3):
    """Brute-force minimum total: road, or every rail itinerary with up to
    max_legs boardings, each leg alighting anywhere downstream."""
    totals = [ROAD.travel_seconds(origin, dest)]
    b = min(net.stations.values(), key=lambda s: (haversine_km(origin, s.point), s.id))
    a = min(net.stations.values(), key=lambda s: (haversine_km(dest, s.point), s.id))
    if b.id == a.id:
        return min(totals)
    access = ROAD.travel_seconds(origin, b.point)
    egress = ROAD.travel_seconds(a.point, dest)

    def rec(s, cost, nlegs, seen):
        if nlegs > max_legs:
            return
        for line in net.lines.values():
            if s not in line.station_ids:
                continue
            for d in (+1, -1):
                path = line.path(d)
                i = path.index(s)
                hops = 0
                for s2 in path[i + 1:]:
                    hops += 1
                    leg = line.service.headway_seconds // 2 \
                        + hops * line.service.run_seconds \
                        + (hops - 1) * line.service.dwell_seconds
                    if s2 == a.id:
                        totals.append(access + cost + leg + egress)
                    elif s2 not in seen:
                        rec(s2, cost + leg, nlegs + 1, seen | {s2})

    rec(b.id, 0, 1, {b.id})
    return min(totals)


def test_same_nearest_station_is_road_only():
    net = cross_network()
    p = RoutePlanner(net, ROAD)
    origin = GeoPoint(1.301, 103.701)
    dest = GeoPoint(1.299, 103.699)
    r = p.plan(origin, dest, T)
    assert r.road_only
    assert r.total_seconds == ROAD.travel_seconds(origin, dest)


def test_two_station_line_hand_computed():
    stations = [Station(0, "A", GeoPoint(1.30, 103.70)), Station(1, "B", GeoPoint(1.30, 103.80))]
    net = TransitNetwork(stations, [TransitLine("L", [0, 1], svc(run=120, headway=600))])
    p = RoutePlanner(net, ROAD)
    r = p.plan(stations[0].point, stations[1].point, T)
    assert not r.road_only
    assert [(l.line, l.direction, l.board, l.alight) for l in r.legs] == [("L", 1, 0, 1)]
    assert r.access_seconds == 0 and r.egress_seconds == 0
    assert r.wait_seconds == 300 and r.ride_seconds == 120
    assert r.total_seconds == 420
    # same trip by road: 11.1 km at 35 km/h is slower, so rail it is
    assert ROAD.travel_seconds(stations[0].point, stations[1].point) > 420


def test_planner_matches_exhaustive_enumeration():
    net = cross_network()
    p = RoutePlanner(net, ROAD)
    rng = np.random.default_rng(404)
    for _ in range(120):
        origin = GeoPoint(float(rng.uniform(1.22, 1.38)), float(rng.uniform(103.69, 103.85)))
        dest = GeoPoint(float(rng.uniform(1.22, 1.38)), float(rng.uniform(103.69, 103.85)))
        r = p.plan(origin, dest, T)
        best = enumerate_best_total(net, origin, dest)
        assert r.total_seconds == best
        if not r.road_only:
            b = min(net.stations.values(), key=lambda s: (haversine_km(origin, s.point), s.id))
            a = min(net.stations.values(), key=lambda s: (haversine_km(dest, s.point), s.id))
            assert r.legs[0].board == b.id and r.legs[-1].alight == a.id
            for prev, nxt in zip(r.legs, r.legs[1:]):
                assert prev.alight == nxt.board


@pytest.mark.parametrize("headway,wait", [(301, 150), (303, 152)])
def test_rail_path_rounds_a_half_second_wait_to_even(headway, wait):
    # an odd headway makes the estimated wait x.5 s; the total is rounded
    # half to even, as Python's round does
    stations = [Station(i, f"s{i}", GeoPoint(1.30, 103.70 + 0.05 * i)) for i in range(3)]
    net = TransitNetwork(stations, [TransitLine("L", [0, 1, 2], svc(headway=headway))])
    p = RoutePlanner(net, ROAD)
    assert rail_path(p, 0, 2) == ((TrainLeg("L", +1, 0, 2),), wait, 2 * 120 + 30,
                                  (headway / 2 + 2 * 120 + 30,))
    assert rail_path(p, 0, 0) == ((), 0, 0, ())


def test_transfer_route():
    net = cross_network(svc(run=60, dwell=15, headway=180))
    p = RoutePlanner(net, ROAD)
    origin = net.station(0).point   # H west end
    dest = net.station(19).point    # V north end
    r = p.plan(origin, dest, T)
    assert [l.line for l in r.legs] == ["H", "V"]
    assert r.legs[0].alight == 5 and r.legs[1].board == 5
    assert r.legs[1].direction == +1


def test_rail_only_until_a_board_station_sees_its_last_pass():
    # svc() passes station 0 on H for the last time at 23:00 and station 5
    # on V northbound five stops out, at 23:00 + 5 * 75 s; the H leg from 0
    # takes a 90 s wait and 360 s aboard to reach 5
    net = cross_network(svc(run=60, dwell=15, headway=180))
    p = RoutePlanner(net, ROAD)
    origin, dest = net.station(0).point, net.station(19).point
    last = 23 * 3600
    assert [l.line for l in p.plan(origin, dest, last - 76).legs] == ["H", "V"]
    assert p.plan(origin, dest, last - 75).road_only
    h_only = net.station(9).point
    assert not p.plan(origin, h_only, last - 1).road_only
    assert p.plan(origin, h_only, last).road_only
    # the next day's service is planned again
    assert not p.plan(origin, h_only, 86400 + T).road_only


def test_road_wins_when_rail_is_slow():
    stations = [Station(0, "A", GeoPoint(1.30, 103.70)), Station(1, "B", GeoPoint(1.30, 103.72))]
    net = TransitNetwork(stations, [TransitLine("L", [0, 1], svc(run=1200, headway=3600))])
    p = RoutePlanner(net, ROAD)
    r = p.plan(stations[0].point, stations[1].point, T)
    assert r.road_only


def test_plan_makes_no_schedule_inquiry(monkeypatch):
    # a desk-sized day with an event: every plan the world makes, for trips,
    # seeding and attendance, must come back without asking the schedule
    inside = []
    real_plan = RoutePlanner.plan
    real_departure = TransportManager.next_departure

    def plan(self, *args, **kwargs):
        inside.append(True)
        try:
            return real_plan(self, *args, **kwargs)
        finally:
            inside.pop()

    def next_departure(self, *args, **kwargs):
        if inside:
            raise AssertionError("plan asked the schedule")
        return real_departure(self, *args, **kwargs)

    monkeypatch.setattr(RoutePlanner, "plan", plan)
    monkeypatch.setattr(TransportManager, "next_departure", next_departure)
    cfg = load_scenario(str(SCENARIOS / "desk.yaml"))
    cfg.population["size"] = 600
    cfg.horizon_hours = 12
    cfg.strategy["alt_routing"] = True
    w = build_world(cfg)
    calls = []
    monkeypatch.setattr(w.planner, "_rail_path",
                        lambda *a, real=w.planner._rail_path: calls.append(a) or real(*a))
    w.run()
    assert w.trips_started > 500 and w.attendees[0]
    # one _rail_path call per station pair under the timetable's first
    # waits; alternative calls carry their own
    plan_keys = [a[:2] for a in calls if a[2] is w.planner._timetable[a[0]]]
    assert plan_keys and len(plan_keys) == len(set(plan_keys))


def reference_rail_path(net, src, dst, first_waits=None):
    """The per-pair search the planner's trees replace: Dijkstra from src
    over (station, line, direction) states, stopped when dst is settled."""
    start = ("hub", src)
    goal = ("hub", dst)
    dist = {start: 0.0}
    parent = {}
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
            # a run ends at its terminal, which on a loop is the anchor
            s2 = None if s == line.terminal(d) else line.next_station(s, d)
            if s2 is not None:
                relax(("on", s2, line_name, d),
                      cost + line.service.dwell_seconds + line.service.run_seconds, ("ride",))
    if goal not in parent and goal != start:
        return None
    legs = []
    waits = []
    state = goal
    alight_at = None
    while state != start:
        prev, edge = parent[state]
        if edge[0] == "alight":
            alight_at = edge[1]
        elif edge[0] == "board":
            _, line_name, d, board_at, w = edge
            legs.append(TrainLeg(line_name, d, board_at, alight_at))
            waits.append(w)
        state = prev
    legs.reverse()
    waits.reverse()
    rides = [net.lines[leg.line].ride_seconds(leg.board, leg.alight, leg.direction)
             for leg in legs]
    return (tuple(legs), int(round(sum(waits))), sum(rides),
            tuple(w + r for w, r in zip(waits, rides)))


@pytest.mark.parametrize("scenario", ["desk", "singapore-like"])
def test_tree_answers_match_per_pair_search(scenario):
    from transitsim.city import network_from_dict
    net = network_from_dict(load_scenario(str(SCENARIOS / f"{scenario}.yaml")).network)
    p = RoutePlanner(net, ROAD)
    ids = sorted(net.stations)
    transfers = 0
    for src in ids:
        for dst in ids:
            got = rail_path(p, src, dst)
            assert got == reference_rail_path(net, src, dst), (src, dst)
            transfers += len(got[0]) > 1
    assert tree_boards(p) == ids and transfers > 0


def island_cross_network(service):
    """cross_network plus a two-station line that no other line reaches."""
    net = cross_network(service)
    stations = list(net.stations.values()) + [
        Station(30, "I0", GeoPoint(1.45, 103.90)), Station(31, "I1", GeoPoint(1.46, 103.90))]
    return TransitNetwork(stations, list(net.lines.values())
                          + [TransitLine("I", [30, 31], service)])


# the second service's dwell is half its headway, so staying aboard ties
# with alighting and boarding the next train at every stop
@pytest.mark.parametrize("service", [svc(run=60, dwell=15, headway=180),
                                     svc(run=60, dwell=90, headway=180)],
                         ids=["fast", "dwell_ties_reboarding"])
def test_tree_answers_match_per_pair_search_with_first_waits(service):
    # a few wait values make ties between routes likely; routes left out of
    # the first waits, and the island line, leave stations out of reach
    net = island_cross_network(service)
    p = RoutePlanner(net, ROAD)
    rng = np.random.default_rng(11)
    ids = sorted(net.stations)
    unreachable = 0
    for _ in range(300):
        src = int(rng.choice(ids))
        first_waits = {route: int(rng.choice([0, 30, 90, 240]))
                       for route in net.routes_at(src) if rng.random() < 0.7}
        for dst in ids:
            want = reference_rail_path(net, src, dst, first_waits)
            assert rail_path(p, src, dst, first_waits) == want, (src, dst, first_waits)
            unreachable += want is None
        assert rail_path(p, src, 30) == reference_rail_path(net, src, 30)
    assert unreachable > 1000


def random_network(rng, n=8):
    """Three lines over random runs of n stations, some circular, with
    services drawn from a few values so that equal-cost paths are common."""
    stations = [Station(i, f"S{i}", GeoPoint(1.30 + 0.01 * i, 103.70)) for i in range(n)]
    lines = []
    for k in range(3):
        size = int(rng.integers(2, n + 1))
        service = LineService(int(rng.choice([60, 120])), int(rng.choice([0, 30, 60])),
                              int(rng.choice([60, 120, 240])), 0, 3600)
        lines.append(TransitLine(f"L{k}", [int(x) for x in rng.permutation(n)[:size]],
                                 service, circular=size > 2 and rng.random() < 0.3))
    return TransitNetwork(stations, lines)


def test_tree_answers_match_per_pair_search_on_random_networks():
    rng = np.random.default_rng(5)
    for _ in range(100):
        net = random_network(rng)
        p = RoutePlanner(net, ROAD)
        for src in net.stations:
            for first_waits in [None] + [
                    {route: int(rng.choice([0, 30, 60]))
                     for route in net.routes_at(src) if rng.random() < 0.8} for _ in range(2)]:
                for dst in net.stations:
                    assert (rail_path(p, src, dst, first_waits)
                            == reference_rail_path(net, src, dst, first_waits))


def test_one_tree_search_per_board_station(monkeypatch):
    cfg = load_scenario(str(SCENARIOS / "singapore-like.yaml"))
    cfg.horizon_hours = 12
    w = build_world(cfg)
    planner = w.planner
    misses, searches = [], []
    monkeypatch.setattr(planner, "_rail_path",
                        lambda *a, real=planner._rail_path: misses.append(a[:2]) or real(*a))
    monkeypatch.setattr(planner, "_search",
                        lambda *a, real=planner._search: searches.append(a) or real(*a))
    w.run()
    assert len(misses) > 1000
    # one _rail_path call per (board, alight) answer kept, one search per
    # board station, under the timetable's first waits
    assert len(misses) == len(set(misses)) == len(kept_answers(planner))
    assert sorted(src for src, _ in searches) == sorted({src for src, _ in misses})
    assert all(waits is planner._timetable[src].first_waits for src, waits in searches)


def kept_answers(p):
    """(board, alight) of every rail answer the planner keeps."""
    return [(board, alight) for (board, _), query in p._rail.items() for alight in query.answers]


def tree_boards(p):
    """The board stations whose shortest-path tree the planner keeps."""
    return [board for (board, _), query in p._rail.items() if query.tree is not None]


def test_rail_path_memo_keyed_on_station_pair():
    stations = [Station(0, "A", GeoPoint(1.30, 103.70)), Station(1, "B", GeoPoint(1.30, 103.80)),
                Station(2, "C", GeoPoint(1.30, 103.90))]
    net = TransitNetwork(stations, [TransitLine("L", [0, 1, 2], svc())])
    a, b, c = (s.point for s in stations)
    p = RoutePlanner(net, ROAD)
    first = p.plan(a, b, T)
    assert not first.road_only
    # nearby points board and alight at the same stations and reuse the search
    assert p.plan(GeoPoint(1.3001, 103.7001), b, T).legs == first.legs
    assert kept_answers(p) == [(0, 1)]
    assert tree_boards(p) == [0]
    # another alight station reads the same board station's tree
    assert p.plan(a, c, T).legs[0].alight == 2
    assert kept_answers(p) == [(0, 1), (0, 2)]
    assert tree_boards(p) == [0]
    assert p.plan(b, a, T).legs[0].direction == -1
    assert kept_answers(p) == [(0, 1), (0, 2), (1, 0)]
    assert tree_boards(p) == [0, 1]
    # the tree keeps per station the hub it was boarded from and the route
    came_from, via = p._timetable[0].tree
    assert came_from == [-1, 0, 0] and via == [None, ("L", 1), ("L", 1)]


def test_warm_planner_matches_fresh_planner():
    fast = svc(run=60, dwell=15, headway=180)
    warm = RoutePlanner(cross_network(fast), ROAD)
    rng = np.random.default_rng(909)
    pairs = [(GeoPoint(float(rng.uniform(1.22, 1.38)), float(rng.uniform(103.69, 103.85))),
              GeoPoint(float(rng.uniform(1.22, 1.38)), float(rng.uniform(103.69, 103.85))))
             for _ in range(40)]
    rail = 0
    for _ in range(3):
        for i in rng.permutation(len(pairs)):
            origin, dest = pairs[i]
            fresh = RoutePlanner(cross_network(fast), ROAD).plan(origin, dest, T)
            assert warm.plan(origin, dest, T) == fresh
            rail += not fresh.road_only
    assert rail > 20


def alt_fixture(p2_run):
    stations = [
        Station(50, "S", GeoPoint(1.30, 103.70)),
        Station(51, "D", GeoPoint(1.42, 103.70)),
        Station(52, "M", GeoPoint(1.36, 103.71)),
    ]
    lines = [
        TransitLine("P1", [50, 51], svc(run=600, headway=1200)),
        TransitLine("P2", [50, 52, 51], svc(run=p2_run, dwell=30, headway=1200)),
    ]
    return TransitNetwork(stations, lines)


def test_alternative_switches_when_parallel_line_wins():
    # staying costs 900 wait + 600 ride; P2 costs 180 wait + 900 ride
    net = alt_fixture(p2_run=435)
    p = RoutePlanner(net, ROAD)
    t = 10_000
    # the full train on P1 leaves at once; the next one in 900
    dest = net.station(51).point
    r = p.alternative(50, dest, {("P1", +1): 900, ("P2", +1): 180}, t)
    assert [l.line for l in r.legs] == ["P2"]
    assert r.wait_seconds == 180
    assert r.total_seconds == 180 + 435 * 2 + 30


def test_alternative_stays_when_waiting_is_cheapest():
    # staying costs 600 wait + 600 ride; P2 costs 180 + 1530
    net = alt_fixture(p2_run=750)
    p = RoutePlanner(net, ROAD)
    t = 10_000
    dest = net.station(51).point
    r = p.alternative(50, dest, {("P1", +1): 600, ("P2", +1): 180}, t)
    assert [(l.line, l.direction) for l in r.legs] == [("P1", +1)]
    assert r.wait_seconds == 600
    assert r.total_seconds == 1200


def test_alternative_sole_option_waits():
    stations = [Station(50, "S", GeoPoint(1.30, 103.70)), Station(51, "D", GeoPoint(1.42, 103.70))]
    net = TransitNetwork(stations, [TransitLine("P1", [50, 51], svc(run=600, headway=1200))])
    p = RoutePlanner(net, ROAD)
    t = 5000
    r = p.alternative(50, net.station(51).point, {("P1", +1): 700}, t)
    assert [(l.line, l.direction) for l in r.legs] == [("P1", +1)]
    assert r.wait_seconds == 700


def test_alternative_falls_back_to_road_without_service():
    stations = [Station(50, "S", GeoPoint(1.30, 103.70)), Station(51, "D", GeoPoint(1.32, 103.70))]
    net = TransitNetwork(stations, [TransitLine("P1", [50, 51], svc())])
    p = RoutePlanner(net, ROAD)
    dest = net.station(51).point
    r = p.alternative(50, dest, {}, 1000)
    assert r.road_only
    assert r.total_seconds == ROAD.travel_seconds(net.station(50).point, dest)


def test_warm_alternative_matches_fresh_planner():
    # every query draws its own waits at the station from a few values, with
    # some routes without a departure, so the same (station, alight) pair
    # meets different first waits, often with the same values
    net = cross_network(svc(run=60, dwell=15, headway=180))
    warm = RoutePlanner(net, ROAD)
    rng = np.random.default_rng(404)
    t = 20_000
    dests = [GeoPoint(float(rng.uniform(1.22, 1.38)), float(rng.uniform(103.69, 103.85)))
             for _ in range(8)]
    rail = 0
    for _ in range(800):
        sid = int(rng.choice([0, 3, 5, 5, 5, 8, 12, 17]))
        waits = {route: int(rng.choice([0, 30, 60, 240])) for route in net.routes_at(sid)
                 if rng.random() >= 0.4}
        dest = dests[int(rng.integers(len(dests)))]
        if rng.random() < 0.3:
            warm.plan(net.station(sid).point, dest, T)
        fresh = RoutePlanner(net, ROAD).alternative(sid, dest, waits, t)
        assert warm.alternative(sid, dest, waits, t) == fresh
        rail += not fresh.road_only
    assert rail > 200
