"""Scenario loading, config hashing, and the command line surface."""

import itertools
import json
import math
import os

import numpy as np
import pytest
import yaml

from transitsim.cli import _parse_event_flag, compare, main
from transitsim.config import (ConfigError, config_hash, load_scenario,
                               scenario_from_dict)


def doc4(**over):
    doc = {
        "seed": 7,
        "horizon_hours": 6,
        "network": {
            "stations": [{"id": i, "name": f"s{i}", "lat": 1.0,
                          "lon": 103.0 + 0.01 * i} for i in range(4)],
            "lines": [{"name": "L", "stations": [0, 1, 2, 3],
                       "service": {"run_seconds": 120, "dwell_seconds": 30,
                                   "headway_seconds": 600,
                                   "first_departure": 3600,
                                   "last_departure": 18000}}],
        },
        "population": {"size": 60, "margin_km": 1.0},
        "social": {"degree_min": 1, "degree_max": 8, "degree_mean": 2.5},
        "events": {
            "poll_interval": 3600,
            "poll_probability": 1.0,
            "events": [{"lat": 1.0, "lon": 103.03, "start": 10800,
                        "end": 14400, "age_groups": [1, 2, 3, 4, 5, 6],
                        "lead_seconds": 3600}],
        },
        "transit": {"compartments": 1, "road_speed_kmh": 10.0},
        "strategy": {"name": "none", "alt_routing": False, "pool": 2},
    }
    doc.update(over)
    return doc


def test_defaults_fill_missing_sections():
    cfg = scenario_from_dict({"seed": 1, "network": doc4()["network"]})
    assert cfg.horizon_hours == 24
    assert cfg.population["size"] == 1000
    assert cfg.social["degree_mean"] == 3.0
    assert cfg.transit["compartments"] == 2
    assert cfg.strategy == {"name": "none", "alt_routing": False, "pool": 10,
                            "alt_margin_seconds": 300}


@pytest.mark.parametrize("broken,msg", [
    ({"network": {"stations": [], "lines": []}}, "seed"),
    ({"seed": "abc", "network": {}}, "integer"),
    ({"seed": 1}, "network"),
    ({"seed": 1, "network": {}, "horizon_hours": 0}, "positive"),
    ({"seed": 1, "network": {}, "population": {"size": 0}}, "positive"),
    ({"seed": 1, "network": {}, "strategy": {"name": "psychic"}}, "strategy"),
    ({"seed": 1, "network": {}, "social": 3}, "mapping"),
])
def test_rejects_malformed_scenarios(broken, msg):
    with pytest.raises(ConfigError, match=msg):
        scenario_from_dict(broken)


def test_hash_ignores_formatting_but_not_values(tmp_path):
    a = tmp_path / "a.yaml"
    b = tmp_path / "b.yaml"
    a.write_text(yaml.safe_dump(doc4(), sort_keys=True))
    b.write_text("# padded variant\n" + yaml.safe_dump(doc4(), sort_keys=False,
                                                       default_flow_style=False))
    assert config_hash(load_scenario(str(a))) == config_hash(load_scenario(str(b)))
    c = tmp_path / "c.yaml"
    c.write_text(yaml.safe_dump(doc4(seed=8)))
    assert config_hash(load_scenario(str(c))) != config_hash(load_scenario(str(a)))


def test_load_names_missing_file():
    with pytest.raises(ConfigError, match="no/such/place.yaml"):
        load_scenario("no/such/place.yaml")


def test_event_flag_parses_clock_times():
    ev = _parse_event_flag("1.25,103.5,08:30,11:00")
    assert ev == {"lat": 1.25, "lon": 103.5, "start": 30600, "end": 39600}


def scenario_file(tmp_path, **over):
    p = tmp_path / "scn.yaml"
    p.write_text(yaml.safe_dump(doc4(**over)))
    return str(p)


def read_outputs(run_dir):
    out = {}
    for name in ("usage.csv", "wait.csv", "summary.csv", "event.log"):
        with open(os.path.join(run_dir, name), "rb") as f:
            out[name] = f.read()
    return out


def test_cli_reruns_are_byte_identical(tmp_path, capsys):
    scn = scenario_file(tmp_path)
    rc1 = main(["--scenario", scn, "--out", str(tmp_path / "o1")])
    rc2 = main(["--scenario", scn, "--out", str(tmp_path / "o2")])
    assert rc1 == 0 and rc2 == 0
    first = read_outputs(str(tmp_path / "o1" / "run"))
    second = read_outputs(str(tmp_path / "o2" / "run"))
    assert first == second
    with open(tmp_path / "o1" / "run" / "manifest.json") as f:
        manifest = json.load(f)
    assert manifest["config_hash"] == config_hash(load_scenario(scn))
    assert manifest["label"] == "run"
    assert manifest["end"] == 6 * 3600


def test_cli_compare_writes_matching_delta(tmp_path):
    scn = scenario_file(tmp_path)
    rc = main(["--scenario", scn, "--compare", "event",
               "--out", str(tmp_path / "cmp")])
    assert rc == 0
    with open(tmp_path / "cmp" / "event" / "delta.csv", "rb") as f:
        one = f.read()
    with open(tmp_path / "cmp" / "no-event" / "delta.csv", "rb") as f:
        two = f.read()
    assert one == two
    header = one.decode().splitlines()[0]
    assert header == "kind,hour,line,section,delta"


def test_compare_event_arms_match_up_to_the_first_broadcast_poll(tmp_path):
    # README: a no-event day inside an event comparison is identical to the
    # event day right up to the first broadcast poll
    root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    cfg = load_scenario(os.path.join(root, "desk.yaml"))
    cfg.horizon_hours = 12
    event, no_event = compare(cfg, "event", str(tmp_path))
    logs = []
    for res in (event, no_event):
        with open(os.path.join(res["dir"], "event.log"), encoding="utf-8") as f:
            logs.append(f.read().splitlines())
    world = event["world"]
    ids = np.array([h.id for h in world.humans], dtype=np.uint64)

    def hands_out_an_event(rec):
        # nobody has seen an event before the first poll that shows one, so
        # any successful poll coin while one is on air shows it
        return (rec["kind"] == "poll" and world.feed.on_air(rec["t"])
                and world.feed.polls_succeed(ids, rec["t"], world.streams).any())

    first = next(i for i, line in enumerate(logs[0]) if hands_out_an_event(json.loads(line)))
    assert logs[0][:first + 1] == logs[1][:first + 1]
    assert logs[0][first + 1:] != logs[1][first + 1:]


def test_cli_reports_missing_scenario(tmp_path, capsys):
    missing = str(tmp_path / "gone.yaml")
    rc = main(["--scenario", missing, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "gone.yaml" in err


def test_cli_rejects_bad_override(tmp_path, capsys):
    scn = scenario_file(tmp_path)
    rc = main(["--scenario", scn, "--until", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: config:" in capsys.readouterr().err


def one_station_line(doc):
    doc["network"]["lines"][0]["stations"] = [0]


def no_platforms(doc):
    doc["network"]["stations"][2]["platforms"] = 0


def duplicate_station(doc):
    doc["network"]["stations"][3]["id"] = 2


def negative_run_seconds(doc):
    doc["network"]["lines"][0]["service"]["run_seconds"] = -120


def negative_dwell_seconds(doc):
    doc["network"]["lines"][0]["service"]["dwell_seconds"] = -1


@pytest.mark.parametrize("breaks", [one_station_line, no_platforms, duplicate_station,
                                    negative_run_seconds, negative_dwell_seconds])
def test_cli_reports_broken_network_as_config_error(tmp_path, capsys, breaks):
    doc = doc4()
    breaks(doc)
    scn = tmp_path / "scn.yaml"
    scn.write_text(yaml.safe_dump(doc))
    rc = main(["--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("social", [
    {"degree_mean": 100, "degree_max": 30},  # mean above the largest degree
    {"degree_mean": -3},                      # mean below the smallest degree
    {"constant_probability": 1.5},            # not a probability
], ids=["mean_above_max", "negative_mean", "probability_above_one"])
def test_cli_reports_bad_social_config_as_config_error(tmp_path, capsys, social):
    doc = doc4()
    doc["social"].update(social)
    scn = tmp_path / "scn.yaml"
    scn.write_text(yaml.safe_dump(doc))
    rc = main(["--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("social", [{"degree_mean": 100}, {"degree_max": 60}],
                         ids=["mean_above_max", "max_not_below_population"])
def test_cli_refuses_misfit_degrees_before_writing(tmp_path, capsys, social):
    # each degree is valid alone, but together they do not fit doc4's 60
    # humans; the graph refuses them while the world is built, before the
    # run writes anything
    doc = doc4()
    doc["social"].update(social)
    scn = tmp_path / "scn.yaml"
    scn.write_text(yaml.safe_dump(doc))
    rc = main(["--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not (tmp_path / "o" / "run").exists()


def set_horizon(value):
    return lambda doc: doc.update(horizon_hours=value)


def set_in(section, key, value):
    return lambda doc: doc[section].update({key: value})


def set_top(key, value):
    return lambda doc: doc.update({key: value})


def event_generator(**over):
    block = {"count": 2, "bounds": [1.0, 103.0, 1.01, 103.03], "duration_min": 600,
             "duration_max": 1200, "lead_min": 0, "lead_max": 600, **over}
    return set_in("events", "generator", block)


def capacity(spec):
    return set_in("transit", "initial_capacity", spec)


@pytest.mark.parametrize("breaks,flags", [
    (set_horizon("abc"), []),
    (set_horizon(1.5), []),
    (set_in("population", "size", "abc"), []),
    (set_in("transit", "compartments", 0), []),
    (set_in("transit", "road_speed_kmh", 0), []),
    (set_in("strategy", "alt_margin_seconds", "x"), []),
    (set_in("strategy", "pool", -3), []),
    (set_in("strategy", "alt_routing", "yes"), []),
    (set_in("events", "poll_interval", "hourly"), []),
    (set_in("social", "degree_min", "abc"), []),
    (set_in("population", "bbox", "abc"), []),
    (None, ["--pool", "-3"]),
    (None, ["--until", "0"]),
    (set_top("network", {"stations": [], "lines": []}), []),
    (lambda doc: doc["network"]["lines"].append("M"), []),
    (lambda doc: doc["network"]["lines"][0].update(service=[120, 30]), []),
    (lambda doc: doc["events"]["events"].append(5), []),
    (set_top("seed", -5), []),
    (set_top("seed", 1.5), []),
    (set_top("seed", True), []),
    (None, ["--seed", "-5"]),
    (set_in("population", "bbox", [1.1, 103.0, 1.0, 103.1]), []),
    (event_generator(bounds=[1.0]), []),
    (event_generator(bounds=[1.01, 103.0, 1.0, 103.03]), []),
    (event_generator(start_min=72000, start_max=28800), []),
    (capacity(5), []),
    (capacity({"sim_daily_ridership": 5000}), []),
    (capacity({"sim_daily_ridership": 5000, "real_daily_ridership": -1,
               "real_capacity": 1000}), []),
    (capacity({"sim_daily_ridership": 1e308, "real_daily_ridership": 1e-300,
               "real_capacity": 1e308}), []),
    (capacity({"sim_daily_ridership": 10 ** 400, "real_daily_ridership": 1,
               "real_capacity": 1}), []),
    (None, ["--event", "abc,103.0,08:00,09:00"]),
    (None, ["--event", "1.0,103,8h,09:00"]),
    (None, ["--event", "nan,103.0,08:00,09:00"]),
], ids=["horizon_text", "horizon_fraction", "size_text", "no_compartments", "no_road_speed",
        "margin_text", "negative_pool", "alt_routing_text", "poll_interval_text",
        "degree_text", "bbox_text", "negative_pool_flag", "zero_until_flag",
        "no_stations", "line_not_mapping", "service_not_mapping", "event_not_mapping",
        "negative_seed", "seed_fraction", "seed_bool", "negative_seed_flag", "bbox_inverted",
        "bounds_one_value", "bounds_inverted", "start_inverted", "capacity_not_mapping",
        "capacity_missing_key", "capacity_negative", "capacity_overflow",
        "capacity_huge_integer", "event_flag_text", "event_flag_clock",
        "event_flag_nan"])
def test_cli_reports_bad_scalar_config_as_config_error(tmp_path, capsys, breaks, flags):
    doc = doc4()
    if breaks is not None:
        breaks(doc)
    scn = tmp_path / "scn.yaml"
    scn.write_text(yaml.safe_dump(doc))
    rc = main(["--scenario", str(scn), "--out", str(tmp_path / "o"), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,want", [
    ("desk.yaml", "4b8c4406c8fe439d9ae81b742d648b8a97e87389f199ef5349df2e65f15d1081"),
    ("singapore-like.yaml", "87a62f6eaff9d8d9395ebe60e604432555e843de0dc994e6f5d71ff56d1097dc"),
])
def test_settings_check_rewrites_no_value(name, want):
    # the shipped scenarios keep the config hash their manifests carry
    root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    assert config_hash(load_scenario(os.path.join(root, name))) == want


def test_bundled_scenarios_load_and_build():
    from transitsim.city import network_from_dict
    root = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    desk = load_scenario(os.path.join(root, "desk.yaml"))
    net = network_from_dict(desk.network)
    assert len(net.stations) == 20 and set(net.lines) == {"H", "V"}
    big = load_scenario(os.path.join(root, "singapore-like.yaml"))
    net = network_from_dict(big.network)
    assert len(net.stations) == 87
    assert set(net.lines) == {"NS", "EW", "CC", "NE"}
    assert net.lines["CC"].circular and not net.lines["NS"].circular
    # the two trunk lines meet the circle and each other
    shared = [sid for sid, m in net.memberships.items() if len(m) >= 2]
    assert len(shared) == 6


def test_cli_event_override_changes_the_run(tmp_path):
    scn = scenario_file(tmp_path)
    assert main(["--scenario", scn, "--out", str(tmp_path / "base")]) == 0
    assert main(["--scenario", scn, "--event", "1.0,103.01,03:10,04:10",
                 "--out", str(tmp_path / "extra")]) == 0
    with open(tmp_path / "base" / "run" / "event.log", "rb") as f:
        base = f.read()
    with open(tmp_path / "extra" / "run" / "event.log", "rb") as f:
        extra = f.read()
    assert base != extra
    rec = json.loads(extra.splitlines()[0])
    assert {"t", "actor", "kind"} <= set(rec)


# what the one-leaf sweep writes in place of each leaf of doc4
BAD_VALUES = (math.nan, math.inf, -math.inf, -7, 2.5, True, "x", None, [], {})

# the one-leaf edits that are valid as written, so the run goes ahead:
# (leaf, repr of the value)
RUNS_AS_WRITTEN = {
    ("network.stations[0].name", "'x'"),
    ("network.stations[0].lat", "-7"), ("network.stations[0].lat", "2.5"),
    ("network.stations[0].lon", "-7"), ("network.stations[0].lon", "2.5"),
    ("network.lines[0].name", "'x'"),
    ("population.margin_km", "2.5"),
    ("social.degree_mean", "2.5"),
    ("events.events[0].lat", "-7"), ("events.events[0].lat", "2.5"),
    ("events.events[0].lon", "-7"), ("events.events[0].lon", "2.5"),
    ("transit.road_speed_kmh", "2.5"),
    ("strategy.alt_routing", "True"),
}


def leaf_paths(node, path=()):
    """The key path of every leaf, taking the first entry of each list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        yield from leaf_paths(node[0], path + (0,))
    else:
        yield path


def leaf_name(path):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def test_every_one_leaf_edit_runs_as_written_or_is_a_config_error(tmp_path, capsys):
    # each leaf of doc4 set to each bad value in turn, run past the event's
    # end: the run either goes ahead on a value valid as written, with every
    # hourly audit clean (a broken one raises out of main), or is refused
    # with error: config before anything is written
    offenders = []
    paths = list(leaf_paths(doc4()))
    for n, (path, value) in enumerate(itertools.product(paths, BAD_VALUES)):
        doc = doc4()
        *parents, last = path
        block = doc
        for key in parents:
            block = block[key]
        block[last] = value
        scn, out = tmp_path / f"scn{n}.yaml", tmp_path / f"o{n}"
        scn.write_text(yaml.safe_dump(doc))
        case = f"{leaf_name(path)} = {value!r}"
        try:
            rc = main(["--scenario", str(scn), "--out", str(out)])
        except Exception as e:
            offenders.append(f"{case}: traceback, {type(e).__name__}: {e}")
            continue
        err = capsys.readouterr().err
        if (leaf_name(path), repr(value)) in RUNS_AS_WRITTEN:
            if rc != 0:
                offenders.append(f"{case}: refused though valid as written: {err.strip()}")
        elif rc == 0:
            offenders.append(f"{case}: ran on a value nobody wrote")
        elif rc != 2 or not err.startswith("error: config:") or out.exists():
            offenders.append(f"{case}: exit {rc}, {err.strip()!r}, wrote output: {out.exists()}")
    assert len(paths) * len(BAD_VALUES) == 310
    assert not offenders, f"{len(offenders)} one-leaf edits misbehave:\n" + "\n".join(offenders)
