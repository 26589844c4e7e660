"""Usage and wait metrics against hand-computed fixtures and a per-second
reference, section rules, and byte-determinism of the CSV reports."""

import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transitsim.city import network_from_dict
from transitsim.cli import build_world
from transitsim.config import load_scenario
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
    section_tables,
    section_usage,
    section_wait,
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


def test_integrate_is_exact_over_a_week_at_twenty_compartments():
    """The prefix sums are whole seat-seconds: over a week of records at
    620 seats, each window's integral equals the closed-form sum of onboard
    times the seconds it holds, exactly, as a float."""
    rng = random.Random(7)
    cap = 20 * 31
    s = OccupancySeries()
    t = 0
    while t < 7 * 86400:
        s.record(t, rng.randrange(0, cap + 1), cap)
        t += rng.randrange(1, 600)
    last = s.times[-1]

    def closed_form(t0, t1):
        ends = s.times[1:] + [max(t1, last)]
        d = [overlap(a, b, t0, t1) for a, b in zip(s.times, ends)]
        return (sum(o * x for o, x in zip(s.onboard, d)),
                sum(c * x for c, x in zip(s.capacity, d)))

    windows = [(0, last), (0, 7 * 86400), (-500, last + 3600), (last, last + 90)]
    windows += [sorted(rng.sample(range(-100, last + 1000), 2)) for _ in range(20)]
    for t0, t1 in windows:
        seat_s, cap_s = s.integrate(t0, t1)
        assert (seat_s, cap_s) == closed_form(t0, t1)
        assert type(seat_s) is float and seat_s.is_integer() and cap_s.is_integer()
    seat_s, cap_s = s.integrate(0, last)
    d = [b - a for a, b in zip(s.times, s.times[1:])]
    assert seat_s == sum(o * x for o, x in zip(s.onboard, d))
    assert cap_s == cap * last


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


# the hour x line x section tables against a per-second reference


SERVICE = {"run_seconds": 120, "dwell_seconds": 30, "headway_seconds": 300,
           "first_departure": 0, "last_departure": 86100}


def two_line_net(n_a, n_b, hub):
    """Line A over stations 0..n_a-1, and line B from A's station ``hub``
    out over n_b - 1 stations of its own."""
    others = list(range(n_a, n_a + n_b - 1))
    doc = {
        "stations": [{"id": i, "name": f"s{i}", "lat": 1.0 + 0.01 * i,
                      "lon": 103.0 if i < n_a else 103.01}
                     for i in range(n_a + n_b - 1)],
        "lines": [{"name": "A", "stations": list(range(n_a)), "service": SERVICE},
                  {"name": "B", "stations": [hub] + others, "service": SERVICE}],
    }
    return network_from_dict(doc)


def reference_tables(led, lines, edges):
    """Usage and mean wait per (window, line, section), one second at a time:
    each second of a docking interval at a train's occupancy then, and each
    second of a wait that falls inside the window."""
    usage, wait = [], []
    for t0, t1 in zip(edges, edges[1:]):
        for line in lines:
            for group in line_sections(line):
                seat = cap = 0
                for train, series in led.occupancy.items():
                    seq = sorted((t, sid) for t, tr, ln, sid in led.visits
                                 if tr == train and ln == line.name)
                    for (ta, sa), (tb, sb) in zip(seq, seq[1:]):
                        if sa != sb and sa in group:
                            s, c = per_second_integral(series, max(ta, t0), min(tb, t1))
                            seat, cap = seat + s, cap + c
                usage.append(min(1.0, seat / cap) if cap > 0 else 0.0)
                durs = [sum(1 for sec in range(w.start, w.end) if t0 <= sec < t1)
                        for w in led.waits if w.station in group]
                durs = [d for d in durs if d > 0]
                wait.append(sum(durs) / len(durs) if durs else 0.0)
    return usage, wait


def mixed_case():
    """Every case at once: an idle pair, an interval and a wait across the
    hour, a zero-length wait, a wait at the interchange station 2 of lines A
    and B, a 4-station line (an empty section) and a train that docks but
    has no occupancy series."""
    net = two_line_net(4, 3, hub=2)
    led = MetricsLedger()
    for t, train, line, sid in ((0, 0, "A", 0), (600, 0, "A", 0), (3000, 0, "A", 1),
                                (4000, 0, "A", 2), (100, 1, "B", 2), (3700, 1, "B", 4),
                                (200, 2, "B", 2), (3500, 2, "B", 4), (5000, 2, "B", 5)):
        led.record_visit(t, train, line, sid)
    for t, train, onboard in ((0, 0, 10), (3500, 0, 31), (200, 2, 62), (4000, 2, 5)):
        led.record_occupancy(t, train, onboard, 62)
    for human, (sid, start, end) in enumerate(((2, 3500, 3700), (0, 1000, 1000), (5, 10, 7000))):
        led.record_wait(human, sid, start, end)
    return net, 2, led, [0, 1800, 3600, 7200], (3000, 4000)


def example_case(visits=(), occupancy=(), waits=(), edges=(0, 3600, 7200),
                 window=(0, 3600), hours=2):
    """A fixed case on lines A (stations 0-3) and B (2, 4, 5): visits as
    (t, train, line, station), occupancy as (t, train, onboard) on 62 seats,
    waits as (station, start, end)."""
    led = MetricsLedger()
    for v in visits:
        led.record_visit(*v)
    for t, train, onboard in occupancy:
        led.record_occupancy(t, train, onboard, 62)
    for human, (sid, start, end) in enumerate(waits):
        led.record_wait(human, sid, start, end)
    return two_line_net(4, 3, hub=2), hours, led, list(edges), window


# a docking interval over four windows, and one that ends past the horizon
ACROSS_WINDOWS = example_case(
    visits=((100, 0, "A", 0), (9000, 0, "A", 1), (11000, 0, "A", 3)),
    occupancy=((0, 0, 20), (2000, 0, 40), (5000, 0, 62), (9500, 0, 7)),
    edges=(0, 1800, 3600, 5400, 7200, 10800), window=(500, 8000), hours=3)
# the edges start after the first record and end before the last one
INSIDE_THE_SERIES = example_case(
    visits=((0, 0, "A", 0), (2000, 0, "A", 1), (4000, 0, "A", 2), (7000, 0, "A", 3),
            (300, 1, "B", 2), (6500, 1, "B", 5)),
    occupancy=((0, 0, 10), (3000, 0, 50), (10000, 0, 50), (0, 1, 31), (7000, 1, 0)),
    edges=(1000, 2500, 6000), window=(1500, 5000), hours=3)
# a train with a single record, which docks before and after it
ONE_RECORD = example_case(
    visits=((0, 0, "A", 0), (4000, 0, "A", 1), (5000, 0, "A", 3)),
    occupancy=((300, 0, 31),), window=(200, 4500))
# a wait at the interchange station 2 of lines A and B, over an hour edge
INTERCHANGE_WAIT = example_case(
    visits=((0, 0, "A", 2), (3000, 0, "A", 3), (100, 1, "B", 2), (4000, 1, "B", 4)),
    occupancy=((0, 0, 12), (0, 1, 40)),
    waits=((2, 3000, 4500), (4, 3500, 3700)), window=(3500, 5000))
EMPTY_LEDGER = example_case()


@st.composite
def ledger_cases(draw):
    n_a = draw(st.integers(2, 8))
    net = two_line_net(n_a, draw(st.integers(2, 7)), hub=draw(st.integers(0, n_a - 1)))
    hours = draw(st.integers(2, 3))
    times = st.integers(0, hours * 3600)
    led = MetricsLedger()
    visits = []
    trains = [line for line in net.lines.values() for _ in range(draw(st.integers(0, 3)))]
    for train, line in enumerate(trains):
        stops = draw(st.lists(st.tuples(times, st.sampled_from(line.station_ids)),
                              max_size=6))
        visits += [(t, train, line.name, sid) for t, sid in stops]
        for t in sorted(draw(st.sets(times, max_size=4))):
            cap = 31 * draw(st.integers(1, 3))
            led.record_occupancy(t, train, draw(st.integers(0, cap)), cap)
    for v in draw(st.permutations(visits)):
        led.record_visit(*v)
    waits = st.tuples(st.sampled_from(sorted(net.stations)), times, st.integers(0, 4000))
    for human, (sid, start, dur) in enumerate(draw(st.lists(waits, max_size=8))):
        led.record_wait(human, sid, start, start + dur)
    edges = sorted(draw(st.sets(st.integers(-100, hours * 3600 + 100), min_size=1, max_size=5)))
    window = (draw(st.integers(-100, hours * 3600 + 100)),
              draw(st.integers(-100, hours * 3600 + 100)))
    return net, hours, led, edges, window


def csv_rows(path):
    return Path(path).read_text(encoding="utf-8").splitlines()[1:]


@settings(max_examples=40, deadline=None)
@given(case=ledger_cases())
@example(case=mixed_case())
@example(case=ACROSS_WINDOWS)
@example(case=INSIDE_THE_SERIES)
@example(case=ONE_RECORD)
@example(case=INTERCHANGE_WAIT)
@example(case=EMPTY_LEDGER)
def test_tables_match_per_second_reference(case):
    net, hours, led, edges, (t0, t1) = case
    lines = [net.lines[name] for name in sorted(net.lines)]
    assert section_tables(led, lines, edges) == reference_tables(led, lines, edges)
    for line in lines:
        usage, wait = reference_tables(led, [line], [t0, t1])
        assert section_usage(led, line, t0, t1) == usage
        assert section_wait(led, line, t0, t1) == wait
    usage, wait = reference_tables(led, lines, [h * 3600 for h in range(hours + 1)])
    cells = [(h, line.name, s) for h in range(hours) for line in lines for s in range(5)]
    with tempfile.TemporaryDirectory() as out:
        emit_report(led, net, out, hours=hours, population=1)
        for name, table in (("usage.csv", usage), ("wait.csv", wait)):
            assert csv_rows(os.path.join(out, name)) == [
                f"{h},{line},r{s},{x:.4f}" for (h, line, s), x in zip(cells, table)]


def ledger_snapshot(led):
    """Copies of every record the report reads from a ledger."""
    return (list(led.visits), list(led.waits),
            {train: (list(s.times), list(s.onboard), list(s.capacity))
             for train, s in led.occupancy.items()})


@pytest.fixture(scope="module")
def desk_run():
    """The shipped desk scenario's config, its world run to the horizon, and
    the ledger's snapshot taken before any test writes a report of it."""
    cfg = load_scenario(str(Path(__file__).resolve().parents[1] / "scenarios" / "desk.yaml"))
    world = build_world(cfg)
    world.run()
    return cfg, world, ledger_snapshot(world.metrics)


def test_report_integrates_no_interval_on_its_own(desk_run, tmp_path, monkeypatch):
    """The report reads each train's series once, by its prefix sums; it
    makes no per-interval ``integrate`` call."""
    cfg, world, _ = desk_run
    calls = []
    real = OccupancySeries.integrate
    monkeypatch.setattr(OccupancySeries, "integrate",
                        lambda self, t0, t1: calls.append((t0, t1)) or real(self, t0, t1))
    emit_report(world.metrics, world.network, str(tmp_path),
                hours=cfg.horizon_hours, population=len(world.humans))
    assert len(world.metrics.visits) > 1000 and calls == []


def test_report_is_a_pure_read(desk_run, tmp_path):
    """Writing the report leaves the ledger as it found it, so a second
    report of the same run writes the same bytes."""
    cfg, world, before = desk_run
    led = world.metrics
    files = []
    for name in ("a", "b"):
        emit_report(led, world.network, str(tmp_path / name),
                    hours=cfg.horizon_hours, population=len(world.humans))
        files.append({fn: (tmp_path / name / fn).read_bytes()
                      for fn in ("usage.csv", "wait.csv", "summary.csv")})
        assert ledger_snapshot(led) == before
    assert files[0] == files[1]
