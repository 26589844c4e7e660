import numpy as np
import pytest

from transitsim.city import (
    GeoPoint,
    LineService,
    RoadRouter,
    Station,
    TransitLine,
    TransitNetwork,
)
from transitsim.config import ConfigError
from transitsim.engine import RngStreams, hms
from transitsim.events import (
    BroadcastFeed,
    EventEndedError,
    SocialEvent,
    decide_attendance,
    generate_events,
    wants_to_seed,
)
from transitsim.population import Human
from transitsim.routing import RoutePlanner

from oracles import keyed_uniform


def ev(start=hms(8, 30), end=hms(11, 30), lead=7200, ages=(1, 2, 3, 4, 5, 6)):
    return SocialEvent(0, GeoPoint(1.33, 103.85), start, end,
                       frozenset(ages), start - lead)


def test_event_invariants():
    e = ev()
    assert e.tau == (e.end - e.start) // 10 == 1080
    with pytest.raises(ConfigError):
        ev(start=hms(12), end=hms(11))
    with pytest.raises(ConfigError):
        SocialEvent(0, GeoPoint(1, 103), 100, 200, frozenset([2]), 150)
    with pytest.raises(ConfigError):
        ev(ages=())
    with pytest.raises(ConfigError):
        ev(ages=(0, 1))


def test_generate_fixed_event():
    cfg = {"events": [{"lat": 1.33, "lon": 103.85, "start": hms(8, 30),
                       "end": hms(11, 30), "age_groups": [1, 2], "lead_seconds": 3600}]}
    events = generate_events(cfg, RngStreams(1))
    assert len(events) == 1
    e = events[0]
    assert (e.start, e.end) == (hms(8, 30), hms(11, 30))
    assert e.age_range == frozenset({1, 2})
    assert e.broadcast_from == hms(7, 30)
    assert generate_events({}, RngStreams(1)) == []
    with pytest.raises(ConfigError):
        generate_events({"events": [{"lat": 1.0}]}, RngStreams(1))


def test_generated_events_satisfy_invariants():
    cfg = {"generator": {"count": 100, "bounds": [1.24, 103.6, 1.46, 103.99],
                         "duration_min": 1800, "duration_max": 4 * 3600,
                         "lead_min": 1800, "lead_max": 3 * 3600}}
    streams = RngStreams(11)
    events = generate_events(cfg, streams)
    assert len(events) == 100
    for e in events:
        assert e.start < e.end
        assert e.broadcast_from <= e.start
        assert e.age_range
        groups = sorted(e.age_range)
        assert groups == list(range(groups[0], groups[-1] + 1))  # contiguous block
    assert generate_events({"generator": dict(cfg["generator"], count=0)}, RngStreams(2)) == []
    # same seed, same events
    again = generate_events(cfg, RngStreams(11))
    assert again == events


def student(i=0, home=(1.30, 103.80)):
    return Human(i, "student", 2, GeoPoint(*home), school=GeoPoint(1.31, 103.81))


def test_poll_visibility_and_dedup():
    e = ev(start=hms(9), lead=3600)
    feed = BroadcastFeed([e], poll_interval=3600, poll_probability=1.0)
    streams = RngStreams(4)
    h = student()
    assert feed.polls_succeed(np.arange(3, dtype=np.uint64), hms(8), streams).all()
    assert feed.poll(h, hms(7, 59)) == []      # before broadcast
    assert feed.poll(h, hms(8)) == [e]         # visible
    assert feed.poll(h, hms(9)) == []          # dedup
    h2 = student(1)
    assert feed.poll(h2, hms(11, 29)) == [e]   # still on until end
    h3 = student(2)
    assert feed.poll(h3, hms(11, 30)) == []    # ended


def test_poll_probability_frequency():
    feed = BroadcastFeed([], poll_interval=3600, poll_probability=0.3)
    streams = RngStreams(8)
    h = student()
    hits = sum(
        1 for tick in range(10_000)
        if keyed_uniform(streams, "polls", h.id, tick) < feed.poll_probability
    )
    assert abs(hits / 10_000 - 0.3) < 0.02
    # polls_succeed flips the same coin: human t at tick t
    feed2 = BroadcastFeed([], poll_interval=1, poll_probability=0.3)
    got = sum(1 for t in range(10_000)
              if feed2.polls_succeed(np.array([t], dtype=np.uint64), t, streams)[0])
    assert abs(got / 10_000 - 0.3) < 0.02


def test_batched_poll_matches_scalar_coin():
    streams = RngStreams(8)
    ids = np.array([0, 1, 2, 7, 99, 1234, 19_999], dtype=np.uint64)
    for p in (0.0, 0.25, 0.5, 1.0):
        feed = BroadcastFeed([], poll_interval=900, poll_probability=p)
        for t in (0, 899, 900, hms(7, 30), hms(8, 0, 1), 86_400):
            got = feed.polls_succeed(ids, t, streams)
            want = [keyed_uniform(streams, "polls", int(i), t // 900) < p for i in ids]
            assert got.tolist() == want


def test_feed_validation():
    with pytest.raises(ConfigError):
        BroadcastFeed([], poll_interval=0, poll_probability=0.25)
    with pytest.raises(ConfigError):
        BroadcastFeed([], poll_interval=3600, poll_probability=1.5)


def rail_fixture():
    stations = [
        Station(0, "A", GeoPoint(1.30, 103.70)),
        Station(1, "B", GeoPoint(1.30, 103.80)),
        Station(2, "C", GeoPoint(1.30, 103.90)),
    ]
    svc = LineService(120, 30, 600, 5 * 3600, 23 * 3600)
    net = TransitNetwork(stations, [TransitLine("L", [0, 1, 2], svc)])
    return net, RoutePlanner(net, RoadRouter(35.0))


def test_seeding_filters():
    net, planner = rail_fixture()
    e = SocialEvent(0, net.station(2).point, hms(10), hms(13), frozenset([1, 2]), hms(6))
    h = student(home=(1.30, 103.70))
    # matching age, hours of lead, station adjacent to event
    assert wants_to_seed(h, e, planner, hms(7), h.home)
    # age group outside the target range
    older = Human(1, "working-professional", 4, GeoPoint(1.30, 103.70),
                  office=GeoPoint(1.31, 103.71))
    assert not wants_to_seed(older, e, planner, hms(7), older.home)
    # 5 minutes to start, over an hour of travel
    assert not wants_to_seed(h, e, planner, e.start - 300, h.home)


def test_attendance_tau_boundaries():
    net, planner = rail_fixture()
    h = student(home=(1.30, 103.70))
    # 180-minute event: tau = 18 min
    e = SocialEvent(0, net.station(2).point, hms(10), hms(13), frozenset([2]), hms(6))
    route = planner.plan(h.home, e.location, e.start)
    total = route.total_seconds
    tau = e.tau
    assert tau == 18 * 60
    # decision such that arrival = start + tau exactly -> attend
    t_edge = e.start + tau - total
    assert decide_attendance(h, e, planner, t_edge, h.home) is not None
    # one second later -> decline
    assert decide_attendance(h, e, planner, t_edge + 1, h.home) is None
    # arrival exactly at start -> attend
    assert decide_attendance(h, e, planner, e.start - total, h.home) is not None
    with pytest.raises(EventEndedError):
        decide_attendance(h, e, planner, e.end, h.home)


def test_attendance_monotone_in_decision_time():
    net, planner = rail_fixture()
    h = student(home=(1.30, 103.70))
    e = SocialEvent(0, net.station(2).point, hms(10), hms(13), frozenset([2]), hms(6))
    route = planner.plan(h.home, e.location, e.start)
    t_latest = e.start + e.tau - route.total_seconds
    attended = [decide_attendance(h, e, planner, t, h.home) is not None
                for t in range(t_latest - 600, t_latest + 600, 60)]
    # once a decision time is too late, every later one is too late
    first_decline = attended.index(False) if False in attended else len(attended)
    assert all(attended[:first_decline])
    assert not any(attended[first_decline:])
