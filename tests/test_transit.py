"""Rail operations layer: tokens, platforms, fleets, inquiry arithmetic,
compartment moves, and the ridership forecast, counted as attendees commit
and read each hour (checked against an independent re-implementation of the
counting procedure and against a whole-day rebuild)."""

import itertools
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transitsim.city import (
    GeoPoint,
    LineService,
    Station,
    TransitLine,
    TransitNetwork,
    network_from_dict,
)
from transitsim.config import ConfigError, load_scenario
from transitsim.engine import RngStreams
from transitsim.population import (
    HOME_MAKER,
    SENIOR_CITIZEN,
    STUDENT,
    WORKING_PROFESSIONAL,
    Human,
)
from transitsim.events import SocialEvent
from transitsim.simulation import World
from transitsim.social import SocialGraph
from transitsim.strategies import Strategy
from transitsim.transit import (
    DuplicatePresenceError,
    InvalidMoveError,
    SEATS_PER_COMPARTMENT,
    StationMaster,
    TransportManager,
    UnknownTokenError,
    attendee_source_point,
    initial_capacity,
)

from oracles import rebuild_estimate

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def empty_graph():
    """A SocialGraph of nobody: CSR arrays with no nodes and no edges."""
    return SocialGraph(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))


def linear_net(n=4, run=120, dwell=30, headway=300, platforms=2,
               first=18000, last=82800, circular=False, spacing=0.01):
    doc = {
        "stations": [
            {"id": i, "name": f"s{i}", "lat": 1.0 + spacing * i, "lon": 103.0,
             "platforms": platforms}
            for i in range(n)
        ],
        "lines": [{
            "name": "A",
            "stations": list(range(n)),
            "circular": circular,
            "service": {"run_seconds": run, "dwell_seconds": dwell,
                        "headway_seconds": headway,
                        "first_departure": first, "last_departure": last},
        }],
    }
    return network_from_dict(doc)


# sizing


def test_initial_capacity_reference_values():
    assert initial_capacity(370_000, 2_300_000, 1920) == 310
    assert initial_capacity(1, 2_300_000, 1920) == SEATS_PER_COMPARTMENT
    # same ridership keeps the capacity, rounded up to whole compartments
    assert initial_capacity(2_300_000, 2_300_000, 1920) == math.ceil(1920 / 31) * 31
    with pytest.raises(ValueError):
        initial_capacity(0, 1, 1)
    with pytest.raises(ValueError):
        initial_capacity(10, -1, 5)


def test_fleet_capacity_and_pool_split():
    net = linear_net()
    m = TransportManager(net, compartments_per_train=10, pool_compartments=3)
    # a run and a dwell, 3*120 + 2*30 + 30 = 450s, at 300s headway: two
    # trains at each run's terminal, dealt alternately
    assert len(m.trains) == 4
    assert all(tr.capacity == 310 for tr in m.trains.values())
    assert {key: list(q) for key, q in m.pools.items()} == {("A", 0): [0, 2], ("A", 3): [1, 3]}
    assert m.total_compartments() == 4 * 10 + 3


def test_circular_fleet_pools_at_anchor():
    net = linear_net(n=6, circular=True)
    m = TransportManager(net, compartments_per_train=2)
    # each run's train is back after the loop and a dwell at the anchor
    loop = 6 * 150
    assert len(m.trains) == 2 * math.ceil((loop + 30) / 300)
    assert list(m.pools) == [("A", 0)]
    assert len(m.pools[("A", 0)]) == len(m.trains)


# tokens


def test_token_ledger_counts_presence():
    net = linear_net()
    m = TransportManager(net, 2)
    for h in range(50):
        m.issue_token(1, human=h, now=100 + h)
    for h in range(20):
        m.return_token(1, h)
    master = m.masters[1]
    assert len(master.waiting) == 30
    assert master.issue_count == 50 and master.return_count == 20
    # queue preserves issue order across the gaps
    assert list(master.waiting) == list(range(20, 50))
    # a human who hands a token back and takes a new one rejoins at the back
    m.return_token(1, 25)
    m.issue_token(1, human=25, now=610)
    assert list(master.waiting) == [h for h in range(20, 50) if h != 25] + [25]
    assert master.waiting[25] == 610
    assert master.issue_count == 51 and master.return_count == 21


def test_token_errors():
    net = linear_net()
    m = TransportManager(net, 2)
    m.issue_token(0, human=7, now=10)
    with pytest.raises(DuplicatePresenceError):
        m.issue_token(0, human=7, now=12)
    with pytest.raises(UnknownTokenError):
        m.return_token(0, 999)
    # the token is held at station 0, not at station 1
    with pytest.raises(UnknownTokenError):
        m.return_token(1, 7)


def test_wait_is_recorded_on_return():
    net = linear_net()
    m = TransportManager(net, 2)
    m.issue_token(2, human=1, now=1000)
    assert m.return_token(2, 1) == 1000
    assert not m.masters[2].waiting


# platforms


def test_platform_arbitration_longest_halt_wins():
    st = linear_net(platforms=1).stations[0]
    master = StationMaster(st)
    assert master.request_arrival(7, now=50) is True
    assert master.request_arrival(3, now=100) is False
    assert master.request_arrival(9, now=200) is False
    assert master.release_platform(7) == 3
    assert master.platforms == {3}


def test_platform_tie_breaks_to_lower_train_id():
    st = linear_net(platforms=1).stations[0]
    master = StationMaster(st)
    master.request_arrival(4, now=0)
    master.request_arrival(8, now=60)
    master.request_arrival(2, now=60)
    assert master.release_platform(4) == 2
    assert master.release_platform(2) == 8
    assert master.release_platform(8) is None


def test_two_platforms_admit_two_trains():
    st = linear_net(platforms=2).stations[1]
    master = StationMaster(st)
    assert master.request_arrival(0, now=10)
    assert master.request_arrival(1, now=11)
    assert not master.request_arrival(2, now=12)


# inquiry


def test_next_departure_from_schedule_only():
    net = linear_net()
    m = TransportManager(net, 2)
    # station 1 sits one run+dwell past the terminal
    assert m.next_departure("A", 1, +1, t=18000) == 18150
    assert m.next_departure("A", 1, +1, t=18200) == 18450
    # opposite direction measures from the other terminal
    assert m.next_departure("A", 1, -1, t=18000) == 18000 + 2 * 150
    # no onward travel from the end of the line
    assert m.next_departure("A", 3, +1, t=18000) is None


def test_next_departure_prefers_live_delayed_train():
    net = linear_net()
    m = TransportManager(net, 2)
    tr = m.trains[0]
    tr.direction = +1
    tr.slot_time = 18000
    tr.delay = 180
    tr.path_pos = 1
    m.active[("A", +1)].add(0)
    m.dispatched_upto[("A", +1)] = 18000
    # live prediction 18000+150+180 beats the next fresh slot 18300+150
    assert m.next_departure("A", 1, +1, t=18100) == 18330
    # excluding it falls back to the fresh slot
    assert m.next_departure("A", 1, +1, t=18100, exclude_train=0) == 18450
    # once the train is past the station it no longer counts
    tr.path_pos = 2
    assert m.next_departure("A", 1, +1, t=18100) == 18450


def test_next_departure_circular_counts_hops_from_the_anchor():
    # a -1 run leaves the anchor 0 for 5, 4, 3, ... and ends back at 0
    net = linear_net(n=6, circular=True)
    m = TransportManager(net, 2)
    assert m.next_departure("A", 0, -1, t=18000) == 18000
    assert m.next_departure("A", 5, -1, t=18000) == 18000 + 150
    assert m.next_departure("A", 1, -1, t=18000) == 18000 + 5 * 150
    tr = m.trains[0]
    tr.direction = -1
    tr.slot_time = 18000
    tr.delay = 60
    tr.path_pos = 2
    m.active[("A", -1)].add(0)
    m.dispatched_upto[("A", -1)] = 18000
    # two hops out the live train is past 5, not yet past 4
    assert m.next_departure("A", 4, -1, t=18100) == 18000 + 2 * 150 + 60
    assert m.next_departure("A", 5, -1, t=18100) == 18300 + 150


def test_live_waits_exclude_the_full_train_on_its_own_route_only():
    net = linear_net()
    m = TransportManager(net, 2)
    # train 0 is full at station 1 on +1; train 1 runs -1 toward station 1,
    # 90 s late, and is due there at 18000 + 2 * 150 + 90
    for tid, d, pos, delay in ((0, +1, 1, 0), (1, -1, 1, 90)):
        tr = m.trains[tid]
        tr.direction, tr.slot_time, tr.path_pos, tr.delay = d, 18000, pos, delay
        m.active[("A", d)].add(tid)
        m.dispatched_upto[("A", d)] = 18000
    t = 18150
    waits = m.live_waits(1, t, full_train=0)
    assert waits == {("A", +1): 18450 - t, ("A", -1): 18390 - t}
    for (line, d), wait in waits.items():
        exclude = 0 if d == +1 else None
        assert wait == m.next_departure(line, 1, d, t, exclude_train=exclude) - t
    # the same train's own departure is what the route would offer without it
    assert m.next_departure("A", 1, +1, t) == t


def test_live_waits_leave_out_a_route_without_a_next_departure():
    # two lines cross at station 0; line B's timetable runs no slot at all
    stations = [Station(i, f"s{i}", GeoPoint(1.0 + 0.01 * i, 103.0)) for i in range(3)]
    service = LineService(120, 30, 300, 18000, 82800)
    dead = LineService(120, 30, 300, 82800, 18000)
    net = TransitNetwork(stations, [TransitLine("A", [0, 1], service),
                                    TransitLine("B", [0, 2], dead)])
    m = TransportManager(net, 2)
    assert ("B", +1) in net.routes_at(0)
    assert m.live_waits(0, 18000, full_train=0) == {("A", +1): 0}


def test_live_waits_at_a_loop_anchor():
    # the anchor 0 is where a run starts and where it ends: train 0 is full
    # at the start of its +1 run; train 1 has just ended its +1 run there
    # and does not leave again, so the next +1 departure is the next slot
    net = linear_net(n=6, circular=True)
    m = TransportManager(net, 2)
    for tid, slot, pos in ((0, 18300, 0), (1, 18300 - 6 * 150, 6)):
        tr = m.trains[tid]
        tr.direction, tr.slot_time, tr.path_pos = +1, slot, pos
        m.active[("A", +1)].add(tid)
    m.dispatched_upto[("A", +1)] = 18300
    m.dispatched_upto[("A", -1)] = 18000
    assert sorted(net.routes_at(0)) == [("A", -1), ("A", +1)]
    assert m.live_waits(0, 18300, full_train=0) == {("A", +1): 300, ("A", -1): 0}


def scan_next_departure(m, line_name, station_id, direction, t, exclude_train=None):
    """The inquiry by list scans: the station's index in the direction's
    path, then every slot of today and tomorrow listed in order."""
    line = m.network.lines[line_name]
    svc = line.service
    path = line.path(direction)
    p = path.index(station_id)
    if p == len(path) - 1:
        return None
    offset = p * (svc.run_seconds + svc.dwell_seconds)
    best = None
    for tid in sorted(m.active[(line_name, direction)]):
        if tid == exclude_train:
            continue
        train = m.trains[tid]
        if train.path_pos > p:
            continue
        pred = max(train.slot_time + offset + train.delay, t)
        if best is None or pred < best:
            best = pred
    upto = m.dispatched_upto[(line_name, direction)]
    for day in (t // 86400, t // 86400 + 1):
        slots = list(range(day * 86400 + svc.first_departure,
                           day * 86400 + svc.last_departure + 1, svc.headway_seconds))
        for slot in slots:
            if slot > upto and slot + offset >= t:
                if best is None or slot + offset < best:
                    best = slot + offset
                break
        if best is not None:
            break
    return best


@pytest.mark.parametrize("circular,first,last,dwell", [
    (False, 18000, 82800, 30),
    (True, 18000, 82800, 30),
    (False, 25000, 25000, 30),      # one slot a day
    (True, 25000, 25000, 30),
    (False, 10, 86000, 30),         # first departure inside the first dwell
    (True, 10, 86000, 30),
    (False, 80000, 86399, 45),      # service runs up to midnight
])
def test_next_departure_matches_list_scan(circular, first, last, dwell):
    net = linear_net(n=5, circular=circular, first=first, last=last, dwell=dwell,
                     headway=420)
    m = TransportManager(net, 2)
    rng = random.Random(f"{circular}-{first}-{last}")
    slots = [day * 86400 + s for day in (0, 1, 2)
             for s in range(first, last + 1, 420)]
    probes = [0, first, last, 86399 - 200, 86399, 86400, 86400 + first, 2 * 86400 - 1]
    probes += [rng.randrange(0, 2 * 86400) for _ in range(60)]
    compared = 0
    for t in probes:
        for d in (+1, -1):
            m.active[("A", d)] = set()
            m.dispatched_upto[("A", d)] = rng.choice([-1] + [s for s in slots if s <= t + 3600])
            for tid in rng.sample(sorted(m.trains), k=rng.randrange(0, len(m.trains) + 1)):
                train = m.trains[tid]
                train.slot_time = rng.choice(slots)
                train.delay = rng.randrange(0, 600)
                train.path_pos = rng.randrange(0, net.lines["A"].n)
                m.active[("A", d)].add(tid)
            live = sorted(m.active[("A", d)])
            for station in range(5):
                for exclude in [None] + live[:2]:
                    want = scan_next_departure(m, "A", station, d, t, exclude)
                    assert m.next_departure("A", station, d, t, exclude_train=exclude) == want
                    compared += want is not None
            for tid in live:
                m.active[("A", d)].discard(tid)
    assert compared > 100


def departures_seen_by_a_run(net, hours):
    """Run the trains alone and, after every dispatched action, ask the
    inquiry about every route each station lists. Returns the number of
    questions and the answers that were None."""
    w = World(net, [], empty_graph(), [], RngStreams(1), horizon_hours=hours,
              compartments_per_train=1, pool_compartments=0, strategy=Strategy(),
              alt_routing=False, poll_interval=3600, poll_probability=0.25,
              road_speed_kmh=35.0, alt_margin_seconds=300)
    asked, missing = 0, []

    def handle(action):
        nonlocal asked
        w._handle(action)
        now = w.scheduler.now
        for sid in net.stations:
            for line, d in net.routes_at(sid):
                asked += 1
                if w.manager.next_departure(line, sid, d, now) is None:
                    missing.append((now, line, sid, d))

    w.scheduler.run_until(w.horizon, handle)
    return asked, missing


def singapore_like_net():
    return network_from_dict(load_scenario(str(SCENARIOS / "singapore-like.yaml")).network)


@pytest.mark.parametrize("build", [lambda: linear_net(n=6, circular=True),
                                   lambda: linear_net(n=6), singapore_like_net],
                         ids=["ring", "linear", "singapore-like"])
def test_inquiry_names_every_departure_as_it_happens(build):
    # trains alone for a day: each time a train leaves a station, the
    # inquiry for that route and station answers now
    net = build()
    w = World(net, [], empty_graph(), [], RngStreams(1), horizon_hours=24,
              compartments_per_train=1, pool_compartments=0, strategy=Strategy(),
              alt_routing=False, poll_interval=3600, poll_probability=0.25,
              road_speed_kmh=35.0, alt_margin_seconds=300)
    departures, missed = 0, []

    def handle(action):
        nonlocal departures
        if action.kind == "train-depart":
            now = w.scheduler.now
            train = w.manager.trains[action.payload]
            got = w.manager.next_departure(train.line, train.at_station, train.direction, now)
            departures += 1
            if got != now:
                missed.append((now, train.line, train.at_station, train.direction, got))
        w._handle(action)

    w.scheduler.run_until(w.horizon, handle)
    assert departures > 2000
    assert missed == []


@st.composite
def timetables(draw):
    """A valid line: linear or circular, 1- or 2-platform stations, and a
    service day of one slot (sometimes inside the first dwell) or many."""
    n = draw(st.integers(2, 5))
    circular = draw(st.booleans()) and n >= 3
    dwell = draw(st.integers(0, 60))
    headway = draw(st.sampled_from([900, 1800, 3600, 7200]))
    if draw(st.booleans()):
        first = draw(st.integers(0, dwell + 5) | st.integers(0, 86399))
        last = first
    else:
        first = draw(st.integers(0, 80000))
        last = draw(st.integers(first, 86399))
    doc = {
        "stations": [{"id": i, "name": f"s{i}", "lat": 1.0, "lon": 103.0 + 0.01 * i,
                      "platforms": draw(st.sampled_from([1, 2]))} for i in range(n)],
        "lines": [{"name": "A", "stations": list(range(n)), "circular": circular,
                   "service": {"run_seconds": draw(st.integers(30, 300)),
                               "dwell_seconds": dwell, "headway_seconds": headway,
                               "first_departure": first, "last_departure": last}}],
    }
    return doc, draw(st.sampled_from([12, 30, 50]))


@settings(max_examples=30, deadline=None)
@given(timetables())
def test_listed_routes_always_have_a_next_departure(case):
    # plan asks no schedule inquiry on the strength of this: under any
    # timetable network_from_dict accepts, a running world never leaves a
    # route that routes_at lists without a predicted departure
    doc, hours = case
    asked, missing = departures_seen_by_a_run(network_from_dict(doc), hours)
    assert asked > 0
    assert missing == []


def test_timetables_without_departures_are_config_errors():
    def doc(**service):
        svc = {"run_seconds": 120, "dwell_seconds": 30, "headway_seconds": 600,
               "first_departure": 3600, "last_departure": 7200}
        svc.update(service)
        return {"stations": [{"id": 0, "lat": 1.0, "lon": 103.0},
                             {"id": 1, "lat": 1.0, "lon": 103.01}],
                "lines": [{"name": "A", "stations": [0, 1], "service": svc}]}

    network_from_dict(doc(first_departure=0, last_departure=0))
    network_from_dict(doc(first_departure=10, last_departure=10))  # inside the dwell
    for bad in ({"first_departure": 7300}, {"first_departure": -1000},
                {"headway_seconds": 0}):
        with pytest.raises(ConfigError, match="line 'A'"):
            network_from_dict(doc(**bad))


def test_slot_before_midnight_can_leave_a_route_without_departures():
    # why a negative first departure is refused: tomorrow's only slot is
    # dispatched and gone past the stations before today ends
    stations = [Station(i, f"s{i}", GeoPoint(1.0, 103.0 + 0.01 * i)) for i in range(4)]
    line = TransitLine("A", [0, 1, 2, 3], LineService(120, 30, 600, -1000, -1000))
    asked, missing = departures_seen_by_a_run(TransitNetwork(stations, [line]), 30)
    assert missing and all(now % 86400 > 86400 - 1000 for now, *_ in missing)


@settings(max_examples=200, deadline=None)
@given(first=st.integers(0, 86399), span=st.integers(0, 86400),
       headway=st.one_of(st.integers(1, 120), st.integers(121, 100000)),
       day=st.integers(0, 2))
def test_departures_table_counts_the_listed_slots(first, span, headway, day):
    m = TransportManager(linear_net(n=2, run=60, dwell=30, headway=headway,
                                    first=first, last=first + span), 1)
    # the slots listed one by one; they leave at the same clock times each day
    listed = Counter()
    t = first
    while t <= first + span:
        listed[t // 3600] += 1
        t += headway
    slots = m.network.lines["A"].slots(day)
    assert Counter((slot - day * 86400) // 3600 for slot in slots) == listed
    for hour in range(24):
        for d in (+1, -1):
            assert m.departures[("A", d, hour)] == listed[hour], hour


# compartment moves


def test_moves_between_pool_and_trains_conserve_compartments():
    net = linear_net()
    m = TransportManager(net, compartments_per_train=4, pool_compartments=2)
    total = m.total_compartments()
    m.queue_moves([("pool", 1, 2), (0, "pool", 1)])
    assert m.total_compartments() == total
    d, a = m.terminal_service(m.trains[0])
    assert (d, a) == (1, 0)
    assert m.trains[0].compartments == 3 and m.unattached == 3
    d, a = m.terminal_service(m.trains[1])
    assert (d, a) == (0, 2)
    assert m.trains[1].compartments == 6 and m.unattached == 1
    assert m.total_compartments() == total


def test_train_to_train_move_waits_for_the_donated_compartment():
    net = linear_net()
    m = TransportManager(net, compartments_per_train=2, pool_compartments=0)
    m.queue_moves([(0, 1, 1)])
    # receiver reaches a terminal first but the pool is still empty
    assert m.terminal_service(m.trains[1]) == (0, 0)
    assert m.trains[1].pending_attach == 1
    assert m.terminal_service(m.trains[0]) == (1, 0)
    assert m.terminal_service(m.trains[1]) == (0, 1)
    assert m.trains[0].compartments == 1 and m.trains[1].compartments == 3
    assert m.total_compartments() == 2 * len(m.trains)


def test_detach_never_displaces_riders():
    net = linear_net()
    m = TransportManager(net, compartments_per_train=2)
    tr = m.trains[0]
    for h in range(40):  # above one compartment's 31 seats
        tr.onboard[h] = 3
    m.queue_moves([(0, "pool", 1)])
    assert m.terminal_service(tr) == (0, 0)
    assert tr.compartments == 2 and tr.pending_detach == 1
    tr.onboard.clear()
    assert m.terminal_service(tr) == (1, 0)
    assert tr.compartments == 1


def test_invalid_moves_rejected():
    net = linear_net()
    m = TransportManager(net, compartments_per_train=1, pool_compartments=1)
    with pytest.raises(InvalidMoveError):
        m.queue_moves([(0, "pool", 1)])  # would leave zero compartments
    with pytest.raises(InvalidMoveError):
        m.queue_moves([("pool", 99, 1)])
    with pytest.raises(InvalidMoveError):
        m.queue_moves([("pool", "pool", 1)])
    with pytest.raises(InvalidMoveError):
        m.queue_moves([("pool", 0, 0)])
    assert m.total_compartments() == len(m.trains) + 1


# ridership estimation


def test_attendee_source_point_rules():
    home, office, school = GeoPoint(1.0, 103.0), GeoPoint(1.1, 103.1), GeoPoint(1.2, 103.2)
    wp = Human(0, WORKING_PROFESSIONAL, 3, home, office=office)
    st = Human(1, STUDENT, 1, home, school=school)
    hm = Human(2, HOME_MAKER, 4, home)
    sc = Human(3, SENIOR_CITIZEN, 6, home)
    assert attendee_source_point(wp, 8) == home
    assert attendee_source_point(wp, 9) == office
    assert attendee_source_point(wp, 17) == office
    assert attendee_source_point(wp, 18) == home
    assert attendee_source_point(st, 7) == home
    assert attendee_source_point(st, 8) == school
    assert attendee_source_point(st, 13) == school
    assert attendee_source_point(st, 14) == home
    for hour in (0, 10, 23):
        assert attendee_source_point(hm, hour) == home
        assert attendee_source_point(sc, hour) == home


def cross_net():
    """Two lines sharing station 2: A along latitude, B along longitude."""
    doc = {
        "stations": (
            [{"id": i, "name": f"a{i}", "lat": 1.0 + 0.01 * i, "lon": 103.0}
             for i in range(5)]
            + [{"id": 5 + j, "name": f"b{j}", "lat": 1.02, "lon": 103.01 + 0.01 * j}
               for j in range(4)]
        ),
        "lines": [
            {"name": "A", "stations": [0, 1, 2, 3, 4],
             "service": {"run_seconds": 120, "dwell_seconds": 30,
                         "headway_seconds": 300, "first_departure": 18000,
                         "last_departure": 82800}},
            {"name": "B", "stations": [2, 5, 6, 7, 8],
             "service": {"run_seconds": 100, "dwell_seconds": 20,
                         "headway_seconds": 600, "first_departure": 21600,
                         "last_departure": 79200}},
        ],
    }
    return network_from_dict(doc)


def oracle_estimate(net, day, attendee_sets, humans, issue_history, slots_in_hour):
    """Independent transcription of the estimation procedure: previous-day
    issues split across serving routes, plus per-hour counts of attendee
    sources from which one run's stop list reaches the event's station."""
    baseline = {}
    for (sid, abs_hour), cnt in issue_history.items():
        if abs_hour // 24 != day - 1:
            continue
        hour = abs_hour % 24
        serving = []
        for name, line in net.lines.items():
            for d in (1, -1):
                seq = line.path(d)
                if sid not in seq:
                    continue
                if not line.circular and seq.index(sid) == len(seq) - 1:
                    continue
                serving.append((name, d))
        for key in serving:
            k = (key[0], key[1], hour)
            baseline[k] = baseline.get(k, 0.0) + cnt / len(serving)
    delta = {}
    for hour in range(24):
        lo = day * 86400 + hour * 3600
        for event, attendees in attendee_sets:
            if event.end <= lo or event.start >= lo + 3600:
                continue
            dest_sid = net.nearest_station(event.location)[0].id
            for name, line in net.lines.items():
                for d in (1, -1):
                    seq = line.path(d)
                    if dest_sid not in seq:
                        continue
                    n = 0
                    for hid in attendees:
                        src = net.nearest_station(
                            attendee_source_point(humans[hid], hour))[0].id
                        # the venue's station comes later in the same run's
                        # stop list; a loop's anchor is its first and last stop
                        after = seq[seq.index(src) + 1:] if src in seq else []
                        if src != dest_sid and dest_sid in after:
                            n += 1
                    if n:
                        k = (name, d, hour)
                        delta[k] = delta.get(k, 0) + n
    return baseline, delta


def count_all(manager, attendee_sets, humans):
    """Count every attendee into the manager's forecast, lowest id first."""
    for event, attendees in attendee_sets:
        for hid in sorted(attendees):
            manager.count_attendee(event, humans[hid])


def test_estimate_matches_independent_oracle():
    net = cross_net()
    m = TransportManager(net, 2)
    humans = [
        Human(0, WORKING_PROFESSIONAL, 3, home=GeoPoint(1.0, 103.0),
              office=GeoPoint(1.02, 103.03)),           # home s0, office s7
        Human(1, STUDENT, 2, home=GeoPoint(1.04, 103.0),
              school=GeoPoint(1.01, 103.0)),            # home s4, school s1
        Human(2, HOME_MAKER, 4, home=GeoPoint(1.02, 103.01)),   # home s5
        Human(3, SENIOR_CITIZEN, 6, home=GeoPoint(1.03, 103.0)),  # home s3
    ]
    ev = SocialEvent(0, GeoPoint(1.02, 103.0), start=10 * 3600, end=13 * 3600,
                     age_range=frozenset(range(1, 7)), broadcast_from=8 * 3600)
    sets = [(ev, {0, 1, 2, 3})]
    # seed yesterday-equivalent history: estimate for day 1 uses day-0 issues
    ids = itertools.count(1000)
    for h, c in ((9, 4), (10, 6)):
        for _ in range(c):
            m.issue_token(2, human=next(ids), now=h * 3600)
    m.issue_token(4, human=1, now=9 * 3600 + 30)
    count_all(m, sets, humans)
    for day in (0, 1):
        est = m.estimate_ridership(day)
        base, delta = oracle_estimate(net, day, sets, humans, m.issue_history, None)
        for key in set(base) | set(est.baseline):
            assert est.baseline.get(key, 0.0) == pytest.approx(base.get(key, 0.0))
        assert est.delta == delta
    # day 0 carries the event but no history yet
    est0 = m.estimate_ridership(0)
    assert est0.baseline == {}
    # student comes up the A line from school s1; senior rides down from s3;
    # home-maker and the office worker approach along B
    assert est0.delta[("A", 1, 10)] == 1
    assert est0.delta[("A", -1, 10)] == 1
    assert est0.delta[("B", -1, 10)] == 2
    # the event contributes to every hour it spans, none outside
    assert sorted({k[2] for k in est0.delta}) == [10, 11, 12]
    # day 1 sees yesterday's issues but the event is over
    est1 = m.estimate_ridership(1)
    assert est1.delta == {}
    assert sum(est1.baseline.values()) == pytest.approx(11.0)


@pytest.mark.parametrize("circular", [False, True], ids=["linear", "loop"])
def test_estimate_on_one_line_matches_independent_oracle(circular):
    net = linear_net(n=6, circular=circular)
    m = TransportManager(net, 2)
    at = [net.stations[i].point for i in range(6)]
    humans = [Human(i, HOME_MAKER, 4, home=at[i]) for i in range(6)]
    # at the anchor until 09:00, then at station 4 until 18:00
    humans.append(Human(6, WORKING_PROFESSIONAL, 3, home=at[0], office=at[4]))
    events = [SocialEvent(0, at[0], start=8 * 3600, end=11 * 3600,
                          age_range=frozenset(range(1, 7)), broadcast_from=0),
              SocialEvent(1, at[3], start=10 * 3600, end=12 * 3600,
                          age_range=frozenset(range(1, 7)), broadcast_from=0)]
    sets = [(events[0], {1, 2, 3, 5, 6}), (events[1], {0, 3, 4, 6})]
    ids = itertools.count(1000)
    for sid, hour in ((0, 8), (3, 9), (5, 9), (5, 10)):
        m.issue_token(sid, human=next(ids), now=hour * 3600)
    count_all(m, sets, humans)
    deltas = []
    for day in (0, 1):
        est = m.estimate_ridership(day)
        base, delta = oracle_estimate(net, day, sets, humans, m.issue_history, None)
        for key in set(base) | set(est.baseline):
            assert est.baseline.get(key, 0.0) == pytest.approx(base.get(key, 0.0))
        assert est.delta == delta
        deltas.append(delta)
    assert sum(base.values()) == pytest.approx(4.0)
    # the anchor event draws every rider bound for it in both directions of
    # a loop, but only from upstream on a linear line
    a_riders = {d: deltas[0].get(("A", d, 8), 0) for d in (1, -1)}
    assert a_riders == ({1: 4, -1: 4} if circular else {1: 0, -1: 4})


def test_estimate_counts_a_loop_toward_its_anchor():
    # a run leaves the anchor 0 and ends there, so from station 3 both
    # directions reach an event at the anchor within one run
    net = linear_net(n=6, circular=True)
    m = TransportManager(net, 2)
    humans = [Human(0, HOME_MAKER, 4, home=net.stations[3].point)]
    ev = SocialEvent(0, net.stations[0].point, start=10 * 3600, end=12 * 3600,
                     age_range=frozenset(range(1, 7)), broadcast_from=0)
    m.count_attendee(ev, humans[0])
    est = m.estimate_ridership(0)
    assert est.delta == {("A", d, hour): 1 for d in (1, -1) for hour in (10, 11)}


def test_estimate_departure_counts_follow_headway():
    net = cross_net()
    m = TransportManager(net, 2)
    est = m.estimate_ridership(0)
    assert est.departures[("A", 1, 10)] == 12   # 300s headway
    assert est.departures[("B", 1, 10)] == 6    # 600s headway
    assert est.departures[("A", 1, 2)] == 0     # before first departure
    assert est.per_departure("A", 1, 2) == 0.0


def test_per_departure_spreads_total():
    net = cross_net()
    m = TransportManager(net, 2)
    humans = [Human(0, HOME_MAKER, 4, home=GeoPoint(1.0, 103.0))]
    ev = SocialEvent(0, GeoPoint(1.04, 103.0), start=10 * 3600, end=11 * 3600,
                     age_range=frozenset(range(1, 7)), broadcast_from=0)
    m.count_attendee(ev, humans[0])
    est = m.estimate_ridership(0)
    assert est.total("A", 1, 10) == 1
    assert est.per_departure("A", 1, 10) == pytest.approx(1 / 12)


def test_cached_estimate_equals_fresh_rebuild():
    # one manager counts attendees as the sets grow and answers every hour of
    # two days while tokens are issued; each answer must equal a fresh
    # manager's count of the whole sets and the whole-day rebuild. A human's
    # places never change during a run, so the places read when an attendee
    # commits are the ones a later rebuild would read.
    net = cross_net()
    rng = random.Random(77)
    cats = (WORKING_PROFESSIONAL, STUDENT, HOME_MAKER, SENIOR_CITIZEN)

    def place():
        return GeoPoint(1.0 + rng.uniform(0, 0.05), 103.0 + rng.uniform(0, 0.05))

    humans = [Human(i, cats[i % 4], 3, place(), office=place() if i % 4 == 0 else None,
                    school=place() if i % 4 == 1 else None) for i in range(60)]
    events = [SocialEvent(0, GeoPoint(1.02, 103.0), start=8 * 3600, end=11 * 3600 + 900,
                          age_range=frozenset(range(1, 7)), broadcast_from=0),
              SocialEvent(1, GeoPoint(1.02, 103.04), start=86400 + 13 * 3600,
                          end=86400 + 19 * 3600, age_range=frozenset(range(1, 7)),
                          broadcast_from=0)]
    attendees = {0: set(), 1: set()}
    warm = TransportManager(net, 2)
    ids = itertools.count(1000)
    compared = 0
    for now in range(0, 2 * 86400, 3600):
        day = now // 86400
        for ev in events:
            for hid in rng.sample(range(60), rng.randrange(0, 6)):
                if hid not in attendees[ev.id]:
                    attendees[ev.id].add(hid)
                    warm.count_attendee(ev, humans[hid])
        for _ in range(rng.randrange(0, 4)):
            warm.issue_token(rng.randrange(9), next(ids), now)
        sets = [(ev, set(attendees[ev.id])) for ev in events]
        fresh = TransportManager(net, 2)
        fresh.issue_history = dict(warm.issue_history)
        count_all(fresh, sets, humans)
        got = warm.estimate_ridership(day)
        assert got == fresh.estimate_ridership(day)
        assert got == rebuild_estimate(fresh, day, sets, humans)
        compared += bool(got.delta)
    assert compared > 10


def test_an_attendee_counts_in_every_clock_hour_its_event_overlaps():
    # home at the anchor, office at station 5, the venue at station 3
    net = linear_net(n=6)
    at = [net.stations[i].point for i in range(6)]
    everyone = frozenset(range(1, 7))
    homebody = Human(0, HOME_MAKER, 4, home=at[0])
    worker = Human(1, WORKING_PROFESSIONAL, 3, home=at[0], office=at[5])

    def counted(human, start, end):
        m = TransportManager(net, 2)
        m.count_attendee(SocialEvent(0, at[3], start=start, end=end, age_range=everyone,
                                     broadcast_from=0), human)
        return m.event_riders

    # an event ending on the hour does not reach into the next one
    assert counted(homebody, 10 * 3600, 11 * 3600) == {0: {("A", 1, 10): 1}}
    # across midnight: the last hour of one day, the first of the next
    riders = counted(homebody, 23 * 3600 + 1800, 86400 + 1800)
    assert riders == {0: {("A", 1, 23): 1}, 1: {("A", 1, 0): 1}}
    m = TransportManager(net, 2)
    m.event_riders = riders
    assert m.estimate_ridership(0).delta == {("A", 1, 23): 1}
    assert m.estimate_ridership(1).delta == {("A", 1, 0): 1}
    # the worker sets out from home before 09:00 and from 18:00, and from the
    # office, down the line, in between
    assert counted(worker, 8 * 3600, 19 * 3600) == {0: {
        **{("A", 1, hour): 1 for hour in (8, 18)},
        **{("A", -1, hour): 1 for hour in range(9, 18)}}}
