import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from transitsim.city import (
    NEAREST_BLOCK,
    DanglingReferenceError,
    GeoPoint,
    InvariantViolationError,
    LineService,
    RoadRouter,
    Station,
    TransitLine,
    TransitNetwork,
    UnknownStationError,
    bounding_box_around,
    haversine_km,
    haversine_km_array,
    network_from_dict,
    radians_and_cos,
)
from transitsim.config import ConfigError

ROOT = Path(__file__).resolve().parents[1]

SVC = LineService(run_seconds=120, dwell_seconds=30, headway_seconds=300,
                  first_departure=5 * 3600, last_departure=23 * 3600)


def grid_network():
    # 3 stations on a west-east line, 1 extra off-line station
    stations = [
        Station(0, "W", GeoPoint(1.30, 103.70)),
        Station(1, "C", GeoPoint(1.30, 103.80)),
        Station(2, "E", GeoPoint(1.30, 103.90)),
        Station(3, "N", GeoPoint(1.40, 103.80)),
    ]
    lines = [
        TransitLine("EW", [0, 1, 2], SVC),
        TransitLine("NS", [3, 1], SVC),
    ]
    return TransitNetwork(stations, lines)


def test_haversine_known_distance():
    # One degree of latitude is ~111.19 km on a 6371 km sphere
    a = GeoPoint(0.0, 0.0)
    b = GeoPoint(1.0, 0.0)
    assert haversine_km(a, b) == pytest.approx(6371.0 * math.pi / 180.0, rel=1e-9)
    assert haversine_km(a, a) == 0.0


def test_haversine_symmetry_property():
    @settings(max_examples=100, deadline=None)
    @given(
        lat1=st.floats(-80, 80), lon1=st.floats(-180, 180),
        lat2=st.floats(-80, 80), lon2=st.floats(-180, 180),
    )
    def inner(lat1, lon1, lat2, lon2):
        a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-9)
        assert haversine_km(a, b) >= 0

    inner()


def test_haversine_array_matches_scalar_bit_for_bit():
    # numpy's square and arcsin differ from libm's pow(x, 2.0) and asin in
    # the last bit for some arguments in these ranges, so a near match would
    # not do: the rejection test and the graph's influence compare exactly.
    # 100k pairs up to 10 km apart (trip discs), 100k up to 100 km (a city)
    rng = np.random.default_rng(2015)
    n = 200_000
    lat = rng.uniform(-60, 60, n)
    lon = rng.uniform(-180, 180, n)
    km = np.concatenate([rng.uniform(0, 10, n // 2), rng.uniform(0, 100, n // 2)])
    bearing = rng.uniform(0, 2 * np.pi, n)
    deg = 180.0 / (6371.0 * np.pi)
    lat2 = lat + km * np.cos(bearing) * deg
    lon2 = lon + km * np.sin(bearing) * deg / np.cos(np.radians(lat))
    # identical points too
    lat2[:1000], lon2[:1000] = lat[:1000], lon[:1000]
    got = haversine_km_array(radians_and_cos(lat, lon), radians_and_cos(lat2, lon2))
    want = np.array([haversine_km(GeoPoint(a, b), GeoPoint(c, d))
                     for a, b, c, d in zip(lat.tolist(), lon.tolist(),
                                           lat2.tolist(), lon2.tolist())])
    assert np.all(want[:1000] == 0.0) and want[:n // 2].max() < 10.01
    bad = int(np.count_nonzero(got != want))
    assert bad == 0, f"{bad} of {n} pairs differ"


def test_road_travel_seconds():
    r = RoadRouter(35.0)
    a, b = GeoPoint(1.30, 103.70), GeoPoint(1.30, 103.80)
    d = haversine_km(a, b)
    assert r.travel_seconds(a, b) == int(round(d / 35.0 * 3600))
    assert r.travel_seconds(a, a) == 0
    with pytest.raises(ValueError):
        RoadRouter(0.0)


def test_nearest_station_brute_force_and_ties():
    net = grid_network()
    # brute force cross-check on a lattice of probe points
    for lat in [1.28, 1.31, 1.35, 1.39]:
        for lon in [103.72, 103.79, 103.84, 103.88]:
            p = GeoPoint(lat, lon)
            got = net.nearest_station(p)[0]
            best = min(net.stations.values(), key=lambda s: (haversine_km(p, s.point), s.id))
            assert got.id == best.id
    # exact tie between station 0 and 2: equidistant point picks lower id
    tie = GeoPoint(1.30, 103.80)  # station 1 sits here, distance 0
    assert net.nearest_station(tie)[0].id == 1


def scenario_stations(name):
    with open(ROOT / "scenarios" / name, encoding="utf-8") as f:
        doc = yaml.safe_load(f)
    return [Station(int(s["id"]), s["name"], GeoPoint(float(s["lat"]), float(s["lon"])))
            for s in doc["network"]["stations"]]


def singapore_like_stations():
    return scenario_stations("singapore-like.yaml")


def brute_nearest(net, p):
    return min(net.stations.values(), key=lambda s: (haversine_km(p, s.point), s.id)).id


def test_nearest_station_matches_full_scan_on_singapore_like():
    stations = singapore_like_stations()
    assert len(stations) == 87
    net = TransitNetwork(stations, [])
    rng = np.random.default_rng(87)
    bbox = bounding_box_around([s.point for s in stations], margin_km=2.0)
    points = [bbox.sample(rng) for _ in range(3000)]
    points += [s.point for s in stations[::10]]   # on a station
    for p in points:
        assert net.nearest_station(p)[0].id == brute_nearest(net, p)


def test_nearest_station_ties_on_singapore_like():
    stations = singapore_like_stations()
    extra = max(s.id for s in stations) + 1

    def copies():
        return [Station(s.id, s.name, s.point) for s in stations]

    # two stations at the same coordinates: the lower id wins
    south = min(stations, key=lambda s: (s.point.lat, s.id))
    net = TransitNetwork(copies() + [Station(extra, "X", south.point)], [])
    for p in (south.point, GeoPoint(south.point.lat - 0.001, south.point.lon)):
        assert net.nearest_station(p)[0].id == brute_nearest(net, p) == south.id
    # a point on the equator is exactly as far from a station as from its
    # mirror image; nudged toward the equator by an ulp or two, the mirror
    # can lie closer in the haversine term yet at the same rounded distance,
    # a tie the full scan gives to the lower id
    near_ties = 0
    for s in stations:
        p = GeoPoint(0.0, s.point.lon)
        lat = -s.point.lat
        for nudge in range(4):
            mirror = Station(extra, "M", GeoPoint(lat, s.point.lon))
            net = TransitNetwork([Station(s.id, s.name, s.point), mirror], [])
            assert net.nearest_station(p)[0].id == brute_nearest(net, p)
            near_ties += nudge > 0 and haversine_km(p, mirror.point) == haversine_km(p, s.point)
            lat = math.nextafter(lat, 0.0)
    assert near_ties > 10
    # a point halfway between two stations on a meridian
    a, b = stations[0], stations[1]
    assert a.point.lon == b.point.lon
    net = TransitNetwork(copies(), [])
    mid = GeoPoint((a.point.lat + b.point.lat) / 2, a.point.lon)
    assert net.nearest_station(mid)[0].id == brute_nearest(net, mid)


def full_scan(net, p):
    """The station nearest ``p`` and its km, as a scan of every station in
    id order with haversine_km and a strict ``<`` finds them."""
    best, best_km = None, math.inf
    for sid in sorted(net.stations):
        km = haversine_km(p, net.stations[sid].point)
        if km < best_km:
            best, best_km = net.stations[sid], km
    return best, best_km


@pytest.mark.parametrize("scenario", ["desk.yaml", "singapore-like.yaml"])
def test_bulk_lookup_matches_a_full_scan(scenario):
    stations = scenario_stations(scenario)
    # a second station on the first one's spot: an exact tie, to the lower id
    twin = Station(max(s.id for s in stations) + 1, "T", stations[0].point)
    net = TransitNetwork(stations + [twin], [])
    rng = np.random.default_rng(26)
    bbox = bounding_box_around([s.point for s in stations], margin_km=2.0)
    points = [bbox.sample(rng) for _ in range(2 * NEAREST_BLOCK + 7)]
    points += [s.point for s in stations]
    # halfway between each station and the next in id order
    points += [GeoPoint((a.point.lat + b.point.lat) / 2, (a.point.lon + b.point.lon) / 2)
               for a, b in zip(stations, stations[1:])]
    # the same places again, as equal points and as the same objects
    points += [GeoPoint(p.lat, p.lon) for p in points[:300]] + points[-300:]
    assert len(set(points)) > NEAREST_BLOCK
    net.cache_nearest(points)
    tied = set()
    for p in points:
        station, km = net.nearest_station(p)
        want_station, want_km = full_scan(net, p)
        assert station is want_station
        assert km.hex() == want_km.hex() == haversine_km(p, station.point).hex()
        if sum(haversine_km(p, s.point) == km for s in net.stations.values()) > 1:
            tied.add(p)
    # the twin's spot and some midpoints are exact ties
    assert stations[0].point in tied and len(tied) > 4


def test_haversine_is_symmetric_bit_for_bit():
    # egress reads the destination's km to its station as the km back from it
    rng = np.random.default_rng(2026)
    n = 200_000
    lat = rng.uniform(-60, 60, n)
    lon = rng.uniform(-180, 180, n)
    # half of them 0-10 km apart, the rest anywhere
    km = rng.uniform(0, 10, n // 2)
    bearing = rng.uniform(0, 2 * np.pi, n // 2)
    deg = 180.0 / (6371.0 * np.pi)
    lat2 = np.concatenate([lat[:n // 2] + km * np.cos(bearing) * deg,
                           rng.uniform(-60, 60, n // 2)])
    lon2 = np.concatenate([lon[:n // 2] + km * np.sin(bearing) * deg
                           / np.cos(np.radians(lat[:n // 2])),
                           rng.uniform(-180, 180, n // 2)])
    road = RoadRouter(35.0)
    asymmetric = slower = 0
    for a, b, c, d in zip(lat.tolist(), lon.tolist(), lat2.tolist(), lon2.tolist()):
        p, q = GeoPoint(a, b), GeoPoint(c, d)
        there = haversine_km(p, q)
        asymmetric += there != haversine_km(q, p)
        slower += road.seconds(there) != road.travel_seconds(p, q)
    assert asymmetric == 0 and slower == 0


def test_line_geometry_and_direction():
    net = grid_network()
    ew = net.lines["EW"]
    assert ew.path(+1) == [0, 1, 2]
    assert ew.path(-1) == [2, 1, 0]
    assert ew.terminal(+1) == 0 and ew.terminal(-1) == 2
    assert ew.run_hops == 2
    assert [ew.position(s, -1) for s in ew.path(-1)] == [0, 1, 2]
    assert ew.one_way_seconds() == 2 * 120 + 1 * 30


def test_station_line_memberships():
    net = grid_network()
    assert sorted(net.memberships[1]) == ["EW", "NS"]
    assert net.memberships[0] == ["EW"]
    with pytest.raises(UnknownStationError):
        net.station(99)


def test_network_validation():
    stations = [Station(0, "A", GeoPoint(0, 0)), Station(1, "B", GeoPoint(0, 1))]
    with pytest.raises(InvariantViolationError):
        TransitLine("L", [0], SVC)  # too short
    with pytest.raises(InvariantViolationError):
        TransitLine("L", [0, 1, 0], SVC)  # repeat visit
    with pytest.raises(DanglingReferenceError):
        TransitNetwork(stations, [TransitLine("L", [0, 5], SVC)])
    dup = [Station(0, "A", GeoPoint(0, 0)), Station(0, "B", GeoPoint(0, 1))]
    with pytest.raises(InvariantViolationError):
        TransitNetwork(dup, [])
    with pytest.raises(InvariantViolationError):
        Station(0, "A", GeoPoint(0, 0), platform_count=0)


def test_circular_line_geometry():
    ring = TransitLine("CC", [10, 11, 12, 13], SVC, circular=True)
    assert ring.next_station(13, +1) == 10
    assert ring.next_station(10, -1) == 13
    assert ring.hops(10, 13, +1) == 3
    assert ring.hops(10, 13, -1) == 1
    assert ring.hops(12, 12, +1) == 0
    # full loop time from any station back to itself
    assert ring.one_way_seconds() == 4 * (120 + 30)
    assert ring.terminal(+1) == 10 and ring.terminal(-1) == 10
    # a run is one circuit from the anchor back to it, either way round
    assert ring.run_hops == 4
    assert ring.path(+1) == [10, 11, 12, 13, 10]
    assert ring.path(-1) == [10, 13, 12, 11, 10]
    for d in (+1, -1):
        assert [ring.position(s, d) for s in ring.path(d)[:-1]] == [0, 1, 2, 3]


@pytest.mark.parametrize("circular", [False, True])
def test_ride_seconds_equals_a_walk_along_the_path(circular):
    svc = LineService(run_seconds=100, dwell_seconds=7, headway_seconds=300,
                      first_departure=0, last_departure=3600)
    line = TransitLine("R", [5, 2, 9, 7, 4], svc, circular=circular)
    for d in (+1, -1):
        path = line.path(d)
        for i, a in enumerate(path):
            assert line.ride_seconds(a, a, d) == 0
            # walk on from a to the end of the run, back at the anchor on a
            # loop, adding a dwell at every stop passed and a run per hop
            seconds = 0
            for hop, b in enumerate(path[i + 1:], 1):
                seconds += (svc.dwell_seconds if hop > 1 else 0) + svc.run_seconds
                if b != a:   # no leg rides a whole loop
                    assert line.ride_seconds(a, b, d) == seconds


def run_walk(ids: list[int], circular: bool, direction: int) -> list[int]:
    """The stations a run passes, walked along ``ids`` from its terminal:
    end to end on a linear line, once round back to the anchor on a loop."""
    n = len(ids)
    start = 0 if circular or direction == +1 else n - 1
    return [ids[(start + direction * k) % n] for k in range(n + 1 if circular else n)]


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(st.integers(0, 60), min_size=2, max_size=9, unique=True),
       circular=st.booleans(), run=st.integers(1, 400), dwell=st.integers(0, 90))
def test_run_table_matches_a_walk_of_the_stations(ids, circular, run, dwell):
    svc = LineService(run_seconds=run, dwell_seconds=dwell, headway_seconds=300,
                      first_departure=0, last_departure=3600)
    line = TransitLine("P", list(ids), svc, circular=circular)
    off_line = max(ids) + 1
    for d in (+1, -1):
        walk = run_walk(ids, circular, d)
        run_hops = len(walk) - 1
        assert line.path(d) == walk and line.run_hops == run_hops
        assert line.terminal(d) == walk[0]
        with pytest.raises(ValueError):
            line.position(off_line, d)
        for a in ids:
            i = walk.index(a)
            assert line.position(a, d) == i
            assert line.next_station(a, d) == (walk[i + 1] if i < run_hops else None)
            for b in ids:
                # stops from a to b, going round the loop again if need be
                if circular:
                    want = (walk[:-1] * 2).index(b, i) - i
                else:
                    want = walk.index(b) - i if b in walk[i:] else None
                assert line.hops(a, b, d) == want
                if want is not None:
                    assert line.ride_seconds(a, b, d) == sum(
                        run + (dwell if hop else 0) for hop in range(want))
                # one run leaves a and stops at b later: the rule the ridership
                # estimate used before the line answered it
                k = line.hops(a, b, d)
                assert line.reaches(a, b, d) == (bool(k) and line.position(a, d) + k <= run_hops)
                assert line.reaches(a, b, d) == (a != b and b in walk[i + 1:])
            assert not line.reaches(a, off_line, d) and not line.reaches(off_line, a, d)


def test_linear_line_hops_and_next():
    line = TransitLine("EW", [0, 1, 2], SVC)
    assert line.next_station(2, +1) is None
    assert line.next_station(0, -1) is None
    assert line.hops(0, 2, +1) == 2
    assert line.hops(0, 2, -1) is None
    assert line.hops(2, 0, -1) == 2


def test_network_from_dict_roundtrip():
    doc = {
        "stations": [
            {"id": 0, "name": "W", "lat": 1.30, "lon": 103.70},
            {"id": 1, "name": "C", "lat": 1.30, "lon": 103.80, "platforms": 3},
            {"id": 2, "name": "E", "lat": 1.30, "lon": 103.90},
        ],
        "lines": [
            {"name": "EW", "stations": [0, 1, 2],
             "service": {"run_seconds": 100, "dwell_seconds": 20, "headway_seconds": 240}},
        ],
    }
    net = network_from_dict(doc)
    assert net.station(1).platform_count == 3
    assert net.lines["EW"].service.run_seconds == 100
    assert not net.lines["EW"].circular
    with pytest.raises(ConfigError):
        network_from_dict({"stations": []})
    bad = dict(doc, lines=[{"name": "EW", "stations": [0, 9]}])
    with pytest.raises(DanglingReferenceError):
        network_from_dict(bad)
