"""Usage and wait metrics against hand-computed fixtures, section rules, and
byte-determinism of the CSV reports."""

import os
import random

import pytest

from transitsim.city import network_from_dict
from transitsim.metrics import (
    MetricsLedger,
    OccupancySeries,
    TripRecord,
    WaitRecord,
    avg_total_travel,
    avg_wait,
    emit_report,
    line_sections,
    overlap,
    section_usage,
    section_wait,
    station_section_map,
)


def net10():
    doc = {
        "stations": [{"id": i, "name": f"s{i}", "lat": 1.0 + 0.01 * i, "lon": 103.0}
                     for i in range(10)],
        "lines": [{"name": "L", "stations": list(range(10)),
                   "service": {"run_seconds": 120, "dwell_seconds": 30,
                               "headway_seconds": 300, "first_departure": 0,
                               "last_departure": 86100}}],
    }
    return network_from_dict(doc)


def test_overlap_basics():
    assert overlap(0, 10, 5, 20) == 5
    assert overlap(0, 10, 10, 20) == 0
    assert overlap(5, 6, 0, 100) == 1


def usage(s, t0, t1):
    """Occupied over available seat-time, the ratio the report takes."""
    seat_s, cap_s = s.integrate(t0, t1)
    return seat_s / cap_s


def test_train_usage_hand_values():
    s = OccupancySeries()
    s.record(0, 0, 62)
    s.record(100, 31, 62)     # half full for 100 s
    s.record(200, 62, 62)     # full for 100 s
    s.record(300, 0, 62)
    s.record(400, 0, 62)
    # over [0,400): (0*100 + 31*100 + 62*100 + 0*100) / (62*400)
    assert usage(s, 0, 400) == pytest.approx((31 * 100 + 62 * 100) / (62 * 400))
    assert usage(s, 200, 300) == 1.0
    assert usage(s, 0, 100) == 0.0


def test_usage_with_capacity_change_weights_time():
    s = OccupancySeries()
    s.record(0, 31, 31)       # one compartment, full
    s.record(600, 31, 62)     # second compartment attached at a terminal
    s.record(1200, 31, 62)
    # [0,1200): seats 31*1200; capacity 31*600 + 62*600
    assert usage(s, 0, 1200) == pytest.approx(31 * 1200 / (31 * 600 + 62 * 600))


def per_second_integral(s, t0, t1):
    """Seat- and capacity-seconds summed one second at a time."""
    seat = cap = 0
    for sec in range(t0, t1):
        if not s.times or sec < s.times[0]:
            continue
        i = max(k for k, t in enumerate(s.times) if t <= sec)
        seat += s.onboard[i]
        cap += s.capacity[i]
    return seat, cap


def test_integrate_matches_per_second_sum():
    rng = random.Random(31)
    for _ in range(40):
        s = OccupancySeries()
        t = rng.randrange(0, 50)
        for _ in range(rng.randrange(0, 12)):
            cap = 31 * rng.randrange(1, 4)
            s.record(t, rng.randrange(0, cap + 1), cap)
            t += rng.randrange(1, 40)
        edges = s.times + [0, t + 60]
        windows = [(rng.randrange(-20, t + 60), rng.randrange(-20, t + 60)) for _ in range(20)]
        windows += [(a, b) for a in edges for b in edges]
        if s.times:
            windows += [(-30, s.times[0]), (s.times[-1], s.times[-1] + 50),
                        (s.times[-1] + 5, s.times[-1] + 90), (s.times[0], s.times[0])]
        for t0, t1 in windows:
            want = per_second_integral(s, t0, t1) if t1 > t0 else (0, 0)
            assert s.integrate(t0, t1) == want


def test_usage_requires_ordered_and_bounded_records():
    s = OccupancySeries()
    s.record(10, 5, 62)
    with pytest.raises(ValueError):
        s.record(5, 5, 62)
    with pytest.raises(ValueError):
        s.record(20, 63, 62)
    assert s.integrate(0, 10) == (0.0, 0.0)  # before first record: no train
    assert OccupancySeries().integrate(0, 100) == (0.0, 0.0)


def test_avg_wait_divides_by_population():
    led = MetricsLedger()
    led.record_wait(1, 0, 1000, 1600)
    assert avg_wait(led, 0, 3600, population=100) == pytest.approx(6.0)
    # boundary-spanning wait counts only its in-window part
    led2 = MetricsLedger()
    led2.record_wait(1, 0, 3000, 4200)
    assert avg_wait(led2, 0, 3600, population=10) == pytest.approx(60.0)
    assert avg_wait(led2, 3600, 7200, population=10) == pytest.approx(60.0)
    assert avg_wait(MetricsLedger(), 0, 3600, population=50) == 0.0
    with pytest.raises(ValueError):
        avg_wait(led, 0, 3600, population=0)
    with pytest.raises(ValueError):
        WaitRecord(0, 0, 100, 50)


def test_sections_partition_balanced():
    net = net10()
    line = net.lines["L"]
    groups = line_sections(line)
    assert [len(g) for g in groups] == [2, 2, 2, 2, 2]
    assert [sid for g in groups for sid in g] == list(range(10))
    smap = station_section_map(line)
    assert smap[0] == 0 and smap[9] == 4
    # 26 stations: earlier sections absorb the remainder
    doc = {
        "stations": [{"id": i, "name": f"s{i}", "lat": 1.0 + 0.005 * i, "lon": 103.0}
                     for i in range(26)],
        "lines": [{"name": "M", "stations": list(range(26)),
                   "service": {"run_seconds": 120, "dwell_seconds": 30,
                               "headway_seconds": 300, "first_departure": 0,
                               "last_departure": 86100}}],
    }
    m = network_from_dict(doc).lines["M"]
    assert [len(g) for g in line_sections(m)] == [6, 5, 5, 5, 5]
    # tiny line still yields five groups, some empty
    doc["lines"][0]["stations"] = [0, 1]
    doc["lines"][0]["name"] = "T"
    t = network_from_dict(doc).lines["T"]
    assert [len(g) for g in line_sections(t)] == [1, 1, 0, 0, 0]


def test_section_aggregates_match_manual_ledger_replay():
    net = net10()
    line = net.lines["L"]
    led = MetricsLedger()
    # train 0 docks at station i at i*300, half full until 1500, then full
    led.record_occupancy(0, 0, 31, 62)
    led.record_occupancy(1500, 0, 62, 62)
    led.record_occupancy(3600, 0, 62, 62)
    for i in range(10):
        led.record_visit(i * 300, 0, "L", i)
    # train 1 idles empty at station 0 between runs, then hops to station 1
    led.record_occupancy(0, 1, 0, 62)
    led.record_occupancy(3600, 1, 0, 62)
    led.record_visit(0, 1, "L", 0)
    led.record_visit(3000, 1, "L", 0)
    led.record_visit(3300, 1, "L", 1)
    usage = section_usage(led, line, 0, 3600)
    # r0: train 0 half full for [0,600) plus train 1 empty for [3000,3300);
    # the [0,3000) idle pair at station 0 charges nothing
    assert usage == pytest.approx([
        (31 * 600) / (62 * 900),           # r0 = {0,1}
        0.5,                               # r1 = {2,3}, half full throughout
        (31 * 300 + 62 * 300) / (62 * 600),  # r2 = {4,5}, fills up at 1500
        1.0,                               # r3 = {6,7}
        1.0,                               # r4: only [2400,2700), station 8
    ])
    # clipping at 1350 cuts the station-4 stretch short
    assert section_usage(led, line, 0, 1350) == pytest.approx(
        [0.5, 0.5, 0.5, 0.0, 0.0])
    # waits at stations 0 (r0) and 5 (r2)
    led.record_wait(7, 0, 0, 600)
    led.record_wait(8, 0, 0, 300)
    led.record_wait(9, 5, 100, 400)
    waits = section_wait(led, line, 0, 3600)
    assert waits == pytest.approx([450.0, 0.0, 300.0, 0.0, 0.0])
    # a no-visit window scores zero usage everywhere
    assert section_usage(led, line, 7200, 10800) == [0.0] * 5


def test_avg_total_travel_absent_without_trips():
    led = MetricsLedger()
    assert avg_total_travel(led, 0, 3600) is None
    led.record_trip(TripRecord(0, 100, 3100))
    led.record_trip(TripRecord(1, 200, 5200))
    assert avg_total_travel(led, 0, 3600) == pytest.approx(3000.0)
    assert avg_total_travel(led, 0, 7200) == pytest.approx(4000.0)


def test_ledger_close_pins_open_series():
    led = MetricsLedger()
    led.record_occupancy(0, 0, 62, 62)
    led.close(3600)
    assert usage(led.occupancy[0], 0, 3600) == 1.0


def write_report(tmpdir, name):
    net = net10()
    led = MetricsLedger()
    led.record_occupancy(0, 0, 31, 62)
    for i in range(10):
        led.record_visit(i * 300, 0, "L", i)
    led.record_wait(3, 4, 120, 480)
    led.record_trip(TripRecord(3, 0, 2400))
    led.alt_considered, led.alt_adopted = 4, 1
    led.close(2 * 3600)
    out = os.path.join(tmpdir, name)
    emit_report(led, net, out, hours=2, population=50)
    return {fn: open(os.path.join(out, fn), "rb").read()
            for fn in ("usage.csv", "wait.csv", "summary.csv")}


def test_reports_are_byte_deterministic(tmp_path):
    a = write_report(str(tmp_path), "a")
    b = write_report(str(tmp_path), "b")
    assert a == b
    usage_lines = a["usage.csv"].decode().strip().split("\n")
    assert usage_lines[0] == "hour,line,section,usage"
    assert len(usage_lines) == 1 + 2 * 1 * 5  # hours x lines x sections
    summary = a["summary.csv"].decode().strip().split("\n")
    assert summary[0] == "avg_wait_s,avg_travel_s,alt_route_fraction"
    w, travel, frac = summary[1].split(",")
    assert w == f"{360 / 50:.4f}"
    assert travel == f"{2400:.4f}"
    assert frac == f"{0.25:.4f}"


def test_empty_run_emits_headers(tmp_path):
    net = net10()
    led = MetricsLedger()
    emit_report(led, net, str(tmp_path / "r"), hours=0, population=1)
    for fn, header in (("usage.csv", "hour,line,section,usage"),
                       ("wait.csv", "hour,line,section,avg_wait_s")):
        body = (tmp_path / "r" / fn).read_text().strip().split("\n")
        assert body == [header]
    summary = (tmp_path / "r" / "summary.csv").read_text().strip().split("\n")
    assert summary[1] == "0.0000,,0.0000"
