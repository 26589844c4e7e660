"""World-level behavior: schedule coverage, on-time slot starts and runs
that leave within a dwell of their slots, conservation sweeps, keyed-stream
run pairing, diffusion pacing, the cascade as the world runs it, full-train
rerouting, a change of trains at a loop's anchor, the road after the last
pass, busy-human deferral, the hourly demand estimate against a whole-day
rebuild, the turn back from an event that has ended, the sweep's refusal of
a token on a route that does not leave its station or of a train out of
place, and a day's plans read from the nearest-station cache the day's
start fills."""

import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
import yaml

from transitsim.city import GeoPoint, TransitNetwork, bounding_box_around, network_from_dict
from transitsim.cli import build_world
from transitsim.config import load_scenario, scenario_from_dict
from transitsim.engine import RngStreams, hms
from transitsim.events import SocialEvent
from transitsim.population import Human, Trip, daily_trips, generate_population
from transitsim.routing import TrainLeg
from transitsim.simulation import RETRY_SECONDS, ActiveTrip, ConservationError, World
import transitsim.social as social
from transitsim.social import SocialGraph, generate_graph
from transitsim.strategies import GreedyReallocation, Strategy

from oracles import rebuild_estimate


def line4(first=3600, last=18000, headway=600):
    doc = {
        "stations": [{"id": i, "name": f"s{i}", "lat": 1.0, "lon": 103.0 + 0.01 * i}
                     for i in range(4)],
        "lines": [{"name": "L", "stations": [0, 1, 2, 3],
                   "service": {"run_seconds": 120, "dwell_seconds": 30,
                               "headway_seconds": headway, "first_departure": first,
                               "last_departure": last}}],
    }
    return network_from_dict(doc)


def ring(n, first=3600, last=18000, headway=600):
    """A circular line R over stations 0..n-1, anchored at 0."""
    doc = {
        "stations": [{"id": i, "name": f"s{i}", "lat": 1.0, "lon": 103.0 + 0.01 * i}
                     for i in range(n)],
        "lines": [{"name": "R", "stations": list(range(n)), "circular": True,
                   "service": {"run_seconds": 120, "dwell_seconds": 30,
                               "headway_seconds": headway, "first_departure": first,
                               "last_departure": last}}],
    }
    return network_from_dict(doc)


def slot_starts(w):
    """Record every run the world starts as (line, direction, slot) -> how
    long after its slot time the run was dispatched."""
    starts = {}
    pair = w.manager._pair

    def spy(key):
        tid = pair(key)
        if tid is not None:
            train = w.manager.trains[tid]
            starts[(train.line, train.direction, train.slot_time)] = (
                w.scheduler.now - train.slot_time)
        return tid

    w.manager._pair = spy
    return starts


def terminal_departures(w):
    """Record how long after its slot each run the world starts leaves its
    terminal, as (line, direction, slot) -> seconds."""
    late = {}
    depart = w._handlers["train-depart"]

    def spy(tid, now):
        train = w.manager.trains[tid]
        if train.path_pos == 0:
            late[(train.line, train.direction, train.slot_time)] = now - train.slot_time
        depart(tid, now)

    w._handlers["train-depart"] = spy
    return late


def due_slots(w):
    """Every (line, direction, slot) whose dispatch falls within the horizon."""
    return {(name, d, slot) for name, line in w.network.lines.items()
            for day in range(w.horizon // 86400 + 1)
            for slot in line.slots(day)
            if slot - line.service.dwell_seconds <= w.horizon for d in (+1, -1)}


def csr_graph(following, probs):
    """A SocialGraph from per-follower lists of posters and probabilities."""
    out_ptr = np.cumsum([0] + [len(t) for t in following])
    posters = np.array([y for t in following for y in t], dtype=np.int64)
    return SocialGraph(out_ptr, posters, np.array([p for ps in probs for p in ps]))


def empty_graph(n):
    return csr_graph([[] for _ in range(n)], [[] for _ in range(n)])


def make_world(net, humans, graph, events, seed=1, horizon=6, **kw):
    kw.setdefault("compartments_per_train", 1)
    kw.setdefault("pool_compartments", 0)
    kw.setdefault("strategy", Strategy())
    kw.setdefault("alt_routing", False)
    kw.setdefault("poll_interval", 3600)
    kw.setdefault("poll_probability", 1.0)
    kw.setdefault("road_speed_kmh", 5.0)
    kw.setdefault("alt_margin_seconds", 300)
    return World(net, humans, graph, events, RngStreams(seed),
                 horizon_hours=horizon, **kw)


def test_every_slot_runs_and_sweeps_stay_clean():
    # 25 slots per direction; a one-way run docks at 4 stations, a loop's
    # at the anchor, the 4 other stations and the anchor again
    for net, dockings in ((line4(), 4), (ring(5), 6)):
        w = make_world(net, [], empty_graph(0), [])
        starts = slot_starts(w)
        w.run()
        slots = len(next(iter(net.lines.values())).slots(0))
        assert slots == 25
        assert set(starts) == due_slots(w)
        assert max(starts.values()) <= 0
        assert len(w.metrics.visits) == 2 * slots * dockings
        # hour ticks 0..6 plus the closing sweep, none raised
        assert w.sweeps >= 7
        assert w.manager.total_compartments() == len(w.manager.trains)


def test_singapore_like_slots_start_on_time():
    # trains alone for a day on the shipped network, circular CC included
    path = Path(__file__).resolve().parents[1] / "scenarios" / "singapore-like.yaml"
    net = network_from_dict(load_scenario(str(path)).network)
    w = make_world(net, [], empty_graph(0), [], horizon=24)
    starts = slot_starts(w)
    w.run()
    assert set(starts) == due_slots(w)
    assert max(starts.values()) <= 60
    assert not any(w.manager.waiting_slots.values())


def test_singapore_like_runs_leave_within_a_dwell():
    # each run's terminal holds the trains its slots need, so no run waits
    # for a train: it leaves at most one dwell after its slot
    path = Path(__file__).resolve().parents[1] / "scenarios" / "singapore-like.yaml"
    net = network_from_dict(load_scenario(str(path)).network)
    w = make_world(net, [], empty_graph(0), [], horizon=24)
    late = terminal_departures(w)
    w.run()
    assert set(late) == due_slots(w)
    for (name, _, _), seconds in late.items():
        assert seconds <= net.lines[name].service.dwell_seconds


@st.composite
def one_line_services(draw):
    """One line of 2-8 stations with 2-3 platforms each, linear or a loop,
    a run of 0-400 s, a dwell of 0-300 s, a headway no shorter than the
    dwell, and 1-30 slots from a first one in the first hour."""
    n = draw(st.integers(2, 8))
    dwell = draw(st.integers(0, 300))
    headway = draw(st.integers(max(1, dwell), 1800))
    first = draw(st.integers(0, 3600))
    return {"n": n, "circular": draw(st.booleans()),
            "platforms": draw(st.lists(st.integers(2, 3), min_size=n, max_size=n)),
            "run": draw(st.integers(0, 400)), "dwell": dwell, "headway": headway,
            "first": first, "last": first + headway * draw(st.integers(0, 29))}


@settings(max_examples=100, deadline=None)
@given(one_line_services())
# a line with no length still needs a train at each end
@example({"n": 3, "circular": False, "platforms": [2, 2, 2], "run": 0, "dwell": 0,
          "headway": 600, "first": 3600, "last": 18000})
@example({"n": 3, "circular": True, "platforms": [2, 2, 2], "run": 0, "dwell": 0,
          "headway": 600, "first": 3600, "last": 18000})
# the first runs leave at t = 0 on their slot, not a dwell late, so they do
# not bunch with the next runs and crowd the platforms
@example({"n": 8, "circular": False, "platforms": [2] * 8, "run": 0, "dwell": 224,
          "headway": 224, "first": 0, "last": 3360})
def test_every_run_leaves_within_a_dwell_of_its_slot(case):
    doc = {
        "stations": [{"id": i, "name": f"s{i}", "lat": 1.0, "lon": 103.0 + 0.01 * i,
                      "platforms": p} for i, p in enumerate(case["platforms"])],
        "lines": [{"name": "A", "stations": list(range(case["n"])), "circular": case["circular"],
                   "service": {"run_seconds": case["run"], "dwell_seconds": case["dwell"],
                               "headway_seconds": case["headway"],
                               "first_departure": case["first"],
                               "last_departure": case["last"]}}],
    }
    w = make_world(network_from_dict(doc), [], empty_graph(0), [], horizon=20)
    late = terminal_departures(w)
    w.run()
    assert set(late) == due_slots(w)
    assert max(late.values()) <= case["dwell"]
    assert not any(w.manager.waiting_slots.values())


def test_runs_identical_before_broadcast_with_and_without_event():
    net = line4(first=3600, last=82800)
    streams = RngStreams(5)
    bbox = bounding_box_around([s.point for s in net.stations.values()], margin_km=1.0)
    humans = generate_population(250, bbox, streams)
    graph = generate_graph(humans, streams, degree_params=(1, 10, 3.0))
    ev = SocialEvent(id=0, location=net.stations[2].point,
                     start=hms(8, 30), end=hms(9, 30),
                     age_range=frozenset(range(1, 7)),
                     broadcast_from=hms(7, 30))
    results = {}
    for label, events in (("event", [ev]), ("plain", [])):
        w = World(net, humans, graph, events, RngStreams(5), horizon_hours=10,
                  compartments_per_train=2, pool_compartments=0,
                  strategy=Strategy(), alt_routing=False, poll_interval=3600,
                  poll_probability=1.0, road_speed_kmh=5.0, alt_margin_seconds=300)
        w.run()
        results[label] = w
    cut = hms(8, 0)  # first poll tick that can see the 07:30 broadcast
    for attr in ("waits", "trips"):
        a = [r for r in getattr(results["event"].metrics, attr) if r.end < cut]
        b = [r for r in getattr(results["plain"].metrics, attr) if r.end < cut]
        assert a == b
    va = [v for v in results["event"].metrics.visits if v[0] < cut]
    vb = [v for v in results["plain"].metrics.visits if v[0] < cut]
    assert va == vb
    assert len(results["event"].attendees[0]) > 0
    assert results["plain"].attendees == {}


def test_diffusion_advances_one_round_per_poll_cycle():
    net = line4()
    at0 = net.stations[0].point
    humans = [Human(0, "senior-citizen", 6, at0),
              Human(1, "home-maker", 5, at0),
              Human(2, "home-maker", 5, at0)]
    # 1 follows 0, 2 follows 1, sure-thing edges
    graph = csr_graph([[], [0], [1]], [[], [1.0], [1.0]])
    ev = SocialEvent(id=0, location=net.stations[3].point,
                     start=14400, end=18000,
                     age_range=frozenset({6}), broadcast_from=7200)
    w = make_world(net, humans, graph, [ev])
    # only the senior can seed; the chain must wait one feed cycle per hop
    w.scheduler.run_until(9000, w._handle)
    assert w.attendees[0] == {0}
    w.scheduler.run_until(12000, w._handle)
    assert w.attendees[0] == {0, 1}
    w.scheduler.run_until(16000, w._handle)
    # 2 was offered too late to arrive within tolerance and declined
    assert w.attendees[0] == {0, 1}
    assert w.spread_frontier[0] == []
    assert w.state[1].at_event == 0
    assert w.state[1].point == ev.location
    w.run()
    assert w.attendees[0] == {0, 1}


def test_simulated_cascade_posts_each_attendee_once(monkeypatch):
    """The cascade the world runs: seeds come in over several feed cycles,
    each (event, poster, follower) coin is drawn at most once, and the
    posters are exactly the attendees, each posting to all of its
    followers."""
    coins = []
    real = social.keyed_uniform_batch

    def counting(streams, name, prefix, varying, suffix=()):
        coins.extend(prefix + tuple(key) + suffix for key in np.atleast_2d(varying).T.tolist())
        return real(streams, name, prefix, varying, suffix)

    monkeypatch.setattr(social, "keyed_uniform_batch", counting)
    net = line4()
    at0 = net.stations[0].point
    humans = [Human(i, "senior-citizen", 6, at0) for i in range(4)]
    # a ring of sure-thing edges: i follows i - 1
    graph = csr_graph([[3], [0], [1], [2]], [[1.0]] * 4)
    ev = SocialEvent(id=0, location=net.stations[3].point, start=hms(8, 0), end=hms(9, 0),
                     age_range=frozenset({6}), broadcast_from=3600)
    w = make_world(net, humans, graph, [ev], horizon=10, poll_probability=0.5)
    w.run()
    assert len(w.attendees[0]) > 1
    assert len(coins) == len(set(coins))
    assert sorted(coins) == sorted((0, y, (y + 1) % 4) for y in w.attendees[0])


def test_trip_across_the_anchor_changes_trains_there():
    """A run ends at the loop's anchor, so a ride from 6 over the anchor 0
    to 1 is two legs: the rider alights at 0 and takes the next run."""
    net = ring(8, first=3600, last=7200, headway=300)
    at6, at1 = net.stations[6].point, net.stations[1].point
    w = make_world(net, [Human(0, "senior-citizen", 6, at6)], empty_graph(1), [], horizon=3)
    assert w.planner.plan(at6, at1, 4000).legs == (
        TrainLeg("R", +1, 6, 0), TrainLeg("R", +1, 0, 1))
    w.scheduler.schedule(4000, "human", "trip-start", Trip(0, "home", "other", 0, 0, 4000, at6, at1))
    runs = []
    board = w._board

    def spy(train, station, now):
        aboard = len(train.onboard)
        board(train, station, now)
        if len(train.onboard) > aboard:
            runs.append((train.slot_time, station, now))

    w._board = spy
    w.run()
    # the 3600 run passes 6 at 4500 and reaches 0 at 4770, where idle
    # trains for the two 4800 runs hold both platforms; it docks as they
    # leave at 4800, so the rider takes the 5100 run
    assert runs == [(3600, 6, 4500), (5100, 0, 5100)]
    assert [(r.station, r.start, r.end) for r in w.metrics.waits] == [
        (6, 4000, 4500), (0, 4800, 5100)]
    assert [(r.start, r.end) for r in w.metrics.trips] == [(4000, 5220)]
    assert w.state[0].point == at1 and w.state[0].trip is None
    # hour ticks 0..3 plus the closing sweep, none raised
    assert w.sweeps == 5


def seniors_at_a_full_train(**kw):
    """40 seniors bound for one event: one 31-seat train serves the rush.
    The road is slower than the planned rail trip but beats waiting out a
    missed train, so it only wins after a full-train denial."""
    net = line4()
    at0 = net.stations[0].point
    humans = [Human(i, "senior-citizen", 6, at0) for i in range(40)]
    ev = SocialEvent(id=0, location=net.stations[3].point,
                     start=14400, end=18000,
                     age_range=frozenset({6}), broadcast_from=7200)
    return make_world(net, humans, empty_graph(40), [ev], alt_routing=True,
                      road_speed_kmh=13.0, alt_margin_seconds=0, **kw)


def test_only_a_strategy_that_plans_counts_attendees():
    # all 40 commit under either strategy; the forecast that only greedy
    # reads counts them, in the event's one hour, from s0 up the line
    for strategy, want in ((Strategy(), {}), (GreedyReallocation(), {0: {("L", 1, 4): 40}})):
        w = seniors_at_a_full_train(strategy=strategy)
        w.run()
        assert w.attendees[0] == set(range(40))
        assert w.manager.event_riders == want


def test_full_train_spills_to_road_when_margin_met():
    w = seniors_at_a_full_train()
    ev = w.events[0]
    w.run()
    assert w.attendees[0] == set(range(40))
    # one 31-seat train serves the synchronized rush; the rest drive
    assert w.boardings == 31
    assert w.full_train_denials == 9
    assert w.metrics.alt_considered == 9
    assert w.metrics.alt_adopted == 9
    late = ev.start + ev.tau
    # everyone made it to the venue within the lateness tolerance
    arrived = {t.human for t in w.metrics.trips if t.end <= late}
    assert arrived == set(range(40))


def test_full_train_asks_the_schedule_once_per_denying_departure(monkeypatch):
    # the nine riders one train leaves behind are all priced on one live
    # inquiry: one next_departure per route leaving the station
    w = seniors_at_a_full_train()
    calls = []
    real = w.manager.next_departure
    monkeypatch.setattr(w.manager, "next_departure",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    w.run()
    assert w.full_train_denials == 9
    assert w.metrics.alt_considered == w.full_train_denials
    assert len(calls) == len(w.network.routes_at(0)) == 1


def test_return_after_the_last_pass_drives():
    # the event ends at 05:00, the line's last pass at the venue's station:
    # every return trip drives and nobody is left queueing at the horizon
    w = seniors_at_a_full_train()
    ev = w.events[0]
    w.run()
    road = w.planner.road.travel_seconds(ev.location, w.humans[0].home)
    returns = [t for t in w.metrics.trips if t.start == ev.end]
    assert len(returns) == 40
    assert all(t.end == ev.end + road for t in returns)
    assert not any(master.waiting for master in w.manager.masters.values())


def greedy_town():
    """250 humans on a 4-station line, greedy with alternative routing that
    switches at no margin."""
    net = line4(first=3600, last=82800)
    streams = RngStreams(5)
    bbox = bounding_box_around([s.point for s in net.stations.values()], margin_km=1.0)
    humans = generate_population(250, bbox, streams)
    graph = generate_graph(humans, streams, degree_params=(1, 10, 3.0))
    ev = SocialEvent(id=0, location=net.stations[2].point, start=hms(8, 30), end=hms(9, 30),
                     age_range=frozenset(range(1, 7)), broadcast_from=hms(7, 30))
    return World(net, humans, graph, [ev], RngStreams(5), horizon_hours=12,
                 compartments_per_train=1, pool_compartments=2,
                 strategy=GreedyReallocation(), alt_routing=True, poll_interval=3600,
                 poll_probability=1.0, road_speed_kmh=5.0, alt_margin_seconds=0)


@pytest.mark.parametrize("build", [seniors_at_a_full_train, greedy_town])
def test_tokens_left_belong_to_queueing_riders(build):
    w = build()
    w.run()
    assert w.metrics.trips and w.metrics.alt_adopted > 0
    # every token left belongs to a rider still queueing for the leg it
    # boards here: none to a trip that has finished, by rail or by road
    for sid, master in w.manager.masters.items():
        for human in master.waiting:
            leg = w.state[human].trip.current_leg()
            assert leg is not None and leg.board == sid
    for rec in w.metrics.trips:
        for master in w.manager.masters.values():
            assert master.waiting.get(rec.human, rec.end) >= rec.end


def test_full_train_keeps_queue_without_alt_routing():
    net = line4()
    at0 = net.stations[0].point
    humans = [Human(i, "senior-citizen", 6, at0) for i in range(40)]
    ev = SocialEvent(id=0, location=net.stations[3].point,
                     start=14400, end=18000,
                     age_range=frozenset({6}), broadcast_from=7200)
    w = make_world(net, humans, empty_graph(40), [ev], road_speed_kmh=13.0)
    w.run()
    assert w.full_train_denials >= 9
    assert w.metrics.alt_considered == 0
    assert w.metrics.alt_adopted == 0
    # the denied riders caught the next departure instead
    assert w.boardings == 40


def test_busy_human_defers_pending_trip():
    net = line4()
    at0 = net.stations[0].point
    far = net.stations[3].point
    humans = [Human(0, "senior-citizen", 6, at0)]
    w = make_world(net, humans, empty_graph(1), [])
    w.scheduler.schedule(5000, "human", "trip-start",
                         Trip(0, "home", "other", 0, 0, 5000, at0, far))
    w.scheduler.schedule(5100, "human", "trip-start",
                         Trip(0, "other", "home", 0, 0, 5100, far, at0))
    w.run()
    assert w.deferrals >= 1
    assert len(w.metrics.trips) == 2
    assert w.state[0].point == at0
    assert w.state[0].trip is None


def queue_kinds(path):
    """(t, kind) of every trip-start and attend-depart dispatch in a log."""
    out = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["kind"] in ("trip-start", "attend-depart"):
            out.append((rec["t"], rec["kind"]))
    return out


def test_pending_actions_start_on_their_grid_once_freed(tmp_path):
    net = line4()
    home = net.stations[0].point
    north = GeoPoint(1.009, 103.0)   # 1 km: 720 s by road at 5 km/h
    west = GeoPoint(1.0, 102.995)
    humans = [Human(0, "senior-citizen", 6, home)]
    # nobody seeds this event (age group 1 only); the attend-depart is ours
    ev = SocialEvent(id=0, location=net.stations[3].point, start=9000, end=12000,
                     age_range=frozenset({1}), broadcast_from=7200)
    w = make_world(net, humans, empty_graph(1), [ev], log_path=str(tmp_path / "event.log"))
    w.attendees[0].add(0)
    w.scheduler.schedule(1000, "human", "trip-start", Trip(0, "home", "other", 0, 0, 1000, home, north))
    # two trips and an attend-depart find the human busy, each on its own grid
    w.scheduler.schedule(1100, "human", "trip-start", Trip(0, "other", "other", 0, 0, 1100, north, west))
    w.scheduler.schedule(1250, "human", "trip-start", Trip(0, "other", "home", 0, 0, 1250, west, home))
    w.scheduler.schedule(1390, "human", "attend-depart", (0, 0))
    w.run()
    trips = sorted(w.metrics.trips, key=lambda r: r.start)
    # the busy trip, the three put off in the order they were put off, and
    # the way home from the event
    assert len(trips) == 5 and trips[0].start == 1000 and trips[4].start == ev.end
    for prev, rec, grid in zip(trips, trips[1:4], (1100, 1250, 1390)):
        # the first instant on its grid after the trip before it ended
        assert (rec.start - grid) % RETRY_SECONDS == 0 and rec.start > grid
        assert prev.end <= rec.start < prev.end + RETRY_SECONDS
    assert w.state[0].point == home and w.deferrals == 2 and not w.pending
    # each put-off action fires once more, when its turn comes, where a
    # 300 s retry loop would make dozens of dispatches
    assert len(queue_kinds(tmp_path / "event.log")) == 4 + 3


def test_pending_trip_past_the_horizon_never_starts(tmp_path):
    net = line4()
    home = net.stations[0].point
    north = GeoPoint(1.009, 103.0)
    humans = [Human(0, "senior-citizen", 6, home)]
    ev = SocialEvent(id=0, location=net.stations[3].point, start=3300, end=3450,
                     age_range=frozenset({1}), broadcast_from=3000)
    w = make_world(net, humans, empty_graph(1), [ev], horizon=1,
                   log_path=str(tmp_path / "event.log"))
    # busy from 2700 to 3421; the pending trip's grid is 3100, 3400, 3700
    # (past the 3600 horizon), the attend-depart's 3150, 3450 (the event's end)
    w.scheduler.schedule(2700, "human", "trip-start", Trip(0, "home", "other", 0, 0, 2700, home, north))
    w.scheduler.schedule(3100, "human", "trip-start", Trip(0, "other", "home", 0, 0, 3100, north, home))
    w.scheduler.schedule(3150, "human", "attend-depart", (0, 0))
    w.run()
    assert [(r.start, r.end) for r in w.metrics.trips] == [(2700, 3421)]
    assert w.state[0].point == north and w.state[0].trip is None and not w.pending
    assert queue_kinds(tmp_path / "event.log") == [
        (2700, "trip-start"), (3100, "trip-start"), (3150, "attend-depart")]


def test_sweep_refuses_a_token_on_a_route_that_does_not_leave_its_station():
    net = line4()
    humans = [Human(0, "senior-citizen", 6, GeoPoint(1.0, 103.0))]
    w = make_world(net, humans, empty_graph(1), [])
    w.scheduler.run_until(9000, w._handle)
    # a leg pointing past the end of the line can never board
    trip = ActiveTrip(net.stations[0].point, [TrainLeg("L", +1, 3, 0)], 0, started=9000)
    w.manager.issue_token(3, 0, 9000)
    w.state[0].trip = trip
    with pytest.raises(ConservationError, match="human 0 waits at station 3 for a route "
                                                "that does not leave it"):
        w.run()
    # the first sweep after the token was issued is the 10800 hour tick
    assert w.scheduler.now == 10800


def test_late_attendee_turns_back_at_once_and_then_takes_up_what_it_put_off():
    net = line4()
    home, venue = net.stations[0].point, net.stations[3].point
    north = GeoPoint(1.009, 103.0)
    humans = [Human(0, "senior-citizen", 6, home)]
    # nobody seeds this event (age group 1 only); the attend-depart is ours,
    # and the 9600 train reaches the venue at 10020, after the event's end
    ev = SocialEvent(id=0, location=venue, start=9000, end=9600,
                     age_range=frozenset({1}), broadcast_from=7200)
    w = make_world(net, humans, empty_graph(1), [ev])
    w.attendees[0].add(0)
    w.scheduler.schedule(9300, "human", "attend-depart", (0, 0))
    # set while the human is on the way: put off until it is home again
    w.scheduler.schedule(9400, "human", "trip-start",
                         Trip(0, "home", "other", 0, 0, 9400, home, north))
    at_event = set()
    handle = w._handle

    def spy(action):
        handle(action)
        at_event.add(w.state[0].at_event)

    w.scheduler.run_until(w.horizon, spy)
    out, back, put_off = sorted(w.metrics.trips, key=lambda r: r.start)
    assert (out.start, out.end) == (9300, 10020)
    # home from the venue at the very second it arrived
    assert back.start == out.end
    assert at_event == {None}
    # the put-off trip starts on its own grid once the human is home
    assert (put_off.start - 9400) % RETRY_SECONDS == 0
    assert back.end <= put_off.start < back.end + RETRY_SECONDS
    assert w.deferrals == 1 and w.state[0].point == north


def rider_from_1_to_3():
    net = line4()
    w = make_world(net, [Human(0, "senior-citizen", 6, net.stations[0].point)],
                   empty_graph(1), [])
    w.state[0].trip = ActiveTrip(net.stations[3].point, [TrainLeg("L", +1, 1, 3)], 0,
                                 started=0)
    return w


def test_sweep_refuses_a_token_off_the_holders_leg():
    w = rider_from_1_to_3()
    w.manager.issue_token(1, 0, 0)
    w._sweep(0)
    w.manager.return_token(1, 0)
    w.manager.issue_token(2, 0, 0)
    with pytest.raises(ConservationError, match="human 0 waits at station 2 off its leg"):
        w._sweep(0)
    # a token without a trip is off any leg
    w.state[0].trip = None
    with pytest.raises(ConservationError, match="off its leg"):
        w._sweep(0)


@pytest.mark.parametrize("direction, alight, clean", [
    (+1, 3, True), (-1, 3, False), (+1, 2, False)])
def test_sweep_refuses_a_seat_off_the_riders_leg(direction, alight, clean):
    w = rider_from_1_to_3()
    train = w.manager.trains[0]
    train.direction = direction
    train.onboard[0] = alight
    if clean:
        w._sweep(0)
    else:
        with pytest.raises(ConservationError, match="human 0 rides train 0 off its leg"):
            w._sweep(0)


@pytest.mark.parametrize("breaks, msg", [
    (lambda m: m.active[("L", +1)].add(m.pools[("L", 0)][0]),
     r"not once .*: \[\('running', \('L', 1\)\), \('idle', 'L'\)\]"),
    (lambda m: m.pools[("L", 0)].popleft(), r"not once .*: \[\]"),
    (lambda m: m.active[("L", -1)].add(m.pools[("L", 0)].popleft()),
     r"not once .*: \[\('running', \('L', -1\)\)\]"),
    (lambda m: m.waiting_slots[("L", 0)].append((3600, +1)), "an idle train and a waiting slot"),
], ids=["running_and_idle", "neither", "off_its_route", "idle_train_and_waiting_slot"])
def test_sweep_refuses_a_train_out_of_place(breaks, msg):
    # the trains at the 0 end are idle and face +1; the first sweep is at 0
    w = make_world(line4(), [], empty_graph(0), [])
    breaks(w.manager)
    with pytest.raises(ConservationError, match=msg):
        w.run()
    assert w.sweeps == 0


def test_attendee_arrives_within_tolerance_and_returns_after_end():
    net = line4(first=3600, last=82800)
    at0 = net.stations[0].point
    humans = [Human(0, "senior-citizen", 6, at0)]
    ev = SocialEvent(id=0, location=net.stations[3].point,
                     start=14400, end=16200,
                     age_range=frozenset({6}), broadcast_from=7200)
    w = make_world(net, humans, empty_graph(1), [ev], horizon=8)
    w.run()
    arrive = [t for t in w.metrics.trips if t.end <= ev.start + ev.tau]
    assert arrive and arrive[0].end <= ev.start + ev.tau
    # went home afterwards: one trip leaves at the end and lands at home
    back = [t for t in w.metrics.trips if t.start == ev.end]
    assert len(back) == 1
    assert w.state[0].at_event is None
    assert w.state[0].point == at0
    # only the day's own plans may have set out again since
    trip = w.state[0].trip
    assert trip is None or (trip.event_id is None and trip.started > back[0].end)


def test_event_log_lines_equal_json_dumps(tmp_path):
    # a run that dispatches every action kind; each line must be the bytes
    # json.dumps writes for its record
    net = line4(first=3600, last=82800)
    streams = RngStreams(5)
    bbox = bounding_box_around([s.point for s in net.stations.values()], margin_km=1.0)
    humans = generate_population(250, bbox, streams)
    graph = generate_graph(humans, streams, degree_params=(1, 10, 3.0))
    ev = SocialEvent(id=0, location=net.stations[2].point, start=hms(8, 30), end=hms(9, 30),
                     age_range=frozenset(range(1, 7)), broadcast_from=hms(7, 30))
    path = tmp_path / "event.log"
    w = World(net, humans, graph, [ev], RngStreams(5), horizon_hours=12,
              compartments_per_train=1, pool_compartments=2,
              strategy=GreedyReallocation(), alt_routing=True, poll_interval=3600,
              poll_probability=1.0, road_speed_kmh=5.0, alt_margin_seconds=300,
              log_path=str(path))
    w.run()
    kinds = set()
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        assert json.dumps(rec, separators=(",", ":")) == line
        kinds.add((rec["actor"], rec["kind"]))
    assert kinds == {
        ("world", "new-day"), ("world", "hour"), ("feed", "poll"), ("world", "event-return"),
        ("manager", "slot"), ("human", "trip-start"), ("human", "walk-arrive"),
        ("human", "trip-arrive"), ("human", "attend-depart"), ("social", "diffuse"),
        ("train", "train-arrive"), ("train", "train-depart")}


def test_hourly_demand_view_only_for_strategies_that_plan():
    calls = []
    for name, strategy in (("none", Strategy()), ("greedy", GreedyReallocation())):
        w = make_world(line4(), [], empty_graph(0), [], strategy=strategy)
        estimate = w.manager.estimate_ridership
        w.manager.estimate_ridership = lambda *a, name=name: calls.append(name) or estimate(*a)
        w.run()
    assert calls == ["greedy"] * 7


def test_hourly_estimate_equals_a_whole_day_rebuild():
    """Over two days of desk under greedy, with the event held again on day
    1, every hour's estimate, counted as attendees commit, equals the
    whole-day rebuild from that moment's attendee sets and token issues."""
    path = Path(__file__).resolve().parents[1] / "scenarios" / "desk.yaml"
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    doc["horizon_hours"] = 48
    doc["strategy"]["name"] = "greedy"
    event = doc["events"]["events"][0]
    doc["events"]["events"].append(dict(event, start=event["start"] + 86400,
                                        end=event["end"] + 86400))
    w = build_world(scenario_from_dict(doc))
    read = w.manager.estimate_ridership
    seen = []

    def checked(day):
        est = read(day)
        sets = [(ev, w.attendees[ev.id]) for ev in w.events]
        assert est == rebuild_estimate(w.manager, day, sets, w.humans)
        seen.append((day, bool(est.baseline), bool(est.delta)))
        return est

    w.manager.estimate_ridership = checked
    w.run()
    assert len(seen) == 49
    assert (1, True, True) in seen


def test_a_days_trips_plan_with_no_scan(monkeypatch):
    # the day's start looks up every trip end, every human's place and every
    # venue in one bulk pass; planning the day's trips then reads each from
    # the cache
    path = Path(__file__).resolve().parents[1] / "scenarios" / "desk.yaml"
    w = build_world(load_scenario(str(path)))
    net = w.network
    passes = []
    monkeypatch.setattr(net, "_look_up",
                        lambda points, real=net._look_up: passes.append(len(points))
                        or real(points))
    w._on_new_day(0, 0)
    trips = daily_trips(w.humans, 0, w.streams, until=w.horizon)
    bulk = [2 * len(trips) + len(w.humans) + len(w.events)]
    assert len(trips) > 5000 and passes == bulk
    for trip in trips:
        net.nearest_station(trip.origin)
        net.nearest_station(trip.dest)
        w.planner.plan(trip.origin, trip.dest, trip.chosen_start)
    assert passes == bulk


def test_a_day_start_caches_every_place_and_venue():
    """An attendance choice plans from its human's place to the venue, so
    the day's bulk pass holds both, with the answers a single lookup gives:
    a human with no trip that day costs no lookup of its own."""
    path = Path(__file__).resolve().parents[1] / "scenarios" / "desk.yaml"
    w = build_world(load_scenario(str(path)))
    w._on_new_day(0, 0)
    held = dict(w.network._nearest)
    places = [s.point for s in w.state] + [ev.location for ev in w.events]
    assert w.events and all(p in held for p in places)
    w.network._nearest = {}
    assert all(w.network.nearest_station(p) == held[p] for p in places)


def test_nearest_cache_holds_one_days_places(monkeypatch):
    """Each day begins with the cache set to the day's trip ends; through
    the day only the points looked up and missed join it, so places drawn
    on earlier days do not pile up."""
    path = Path(__file__).resolve().parents[1] / "scenarios" / "desk.yaml"
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    doc["population"]["size"] = 1000
    doc["horizon_hours"] = 96
    w = build_world(scenario_from_dict(doc))
    net = w.network
    days = []  # per day: distinct trip ends, misses, entries as the next day begins

    def bulk(points, real=net.cache_nearest):
        if days:
            days[-1].append(len(net._nearest))
        real(points)
        days.append([len(set(points)), 0])

    def nearest_station(self, point, real=TransitNetwork.nearest_station):
        days[-1][1] += point not in self._nearest
        return real(self, point)

    monkeypatch.setattr(net, "cache_nearest", bulk)
    monkeypatch.setattr(TransitNetwork, "nearest_station", nearest_station)
    w.run()
    days[-1].append(len(net._nearest))
    assert len(days) == 5  # the last begins at the horizon, with no trips
    for ends, misses, held in days:
        assert held <= ends + misses
