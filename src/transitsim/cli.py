"""Command line entry point: single runs and paired comparison runs.

A run loads a scenario, builds the city, population, graph, and events from
the seed, simulates the horizon, and writes usage.csv, wait.csv, summary.csv,
manifest.json, and event.log under `<out>/<label>/`. A compare executes the
same scenario twice, varied along one axis (event, strategy, or alt-routing)
with the same seed, and adds a delta.csv of metric differences.
"""

from __future__ import annotations

import argparse
import copy
import gc
import os
import sys
from typing import Optional

from .city import BoundingBox, bounding_box_around, network_from_dict
from .config import (EVENTS, INITIAL_CAPACITY, ConfigError, RunManifest, ScenarioConfig,
                     check_settings, config_hash, load_scenario, read_block)
from .engine import RngStreams, parse_clock
from .events import generate_events
from .metrics import emit_report
from .population import generate_population
from .simulation import World
from .social import generate_graph
from .strategies import GreedyReallocation, Strategy
from .transit import initial_capacity, SEATS_PER_COMPARTMENT


def build_world(cfg: ScenarioConfig, log_path: Optional[str] = None) -> World:
    network = network_from_dict(cfg.network)
    streams = RngStreams(cfg.seed)
    pop_cfg = cfg.population
    if "bbox" in pop_cfg:
        bbox = BoundingBox(*pop_cfg["bbox"])
    else:
        bbox = bounding_box_around([s.point for s in network.stations.values()],
                                   margin_km=pop_cfg["margin_km"])
    humans = generate_population(pop_cfg["size"], bbox, streams)
    soc = cfg.social
    graph = generate_graph(
        humans, streams,
        degree_params=(soc["degree_min"], soc["degree_max"], soc["degree_mean"]),
        constant_probability=soc["constant_probability"])
    events = generate_events(cfg.events, streams)
    feed_cfg = read_block("events", cfg.events, EVENTS)
    strat_cfg = cfg.strategy
    strategy = GreedyReallocation() if strat_cfg["name"] == "greedy" else Strategy()
    return World(
        network, humans, graph, events, streams,
        horizon_hours=cfg.horizon_hours,
        compartments_per_train=compartments_per_train(cfg.transit),
        pool_compartments=strat_cfg["pool"],
        strategy=strategy,
        alt_routing=strat_cfg["alt_routing"],
        poll_interval=feed_cfg["poll_interval"],
        poll_probability=feed_cfg["poll_probability"],
        road_speed_kmh=cfg.transit["road_speed_kmh"],
        alt_margin_seconds=strat_cfg["alt_margin_seconds"],
        log_path=log_path)


def compartments_per_train(transit_cfg: dict) -> int:
    """Given outright, or scaled from the ``initial_capacity`` ridership
    figures."""
    if "initial_capacity" not in transit_cfg:
        return transit_cfg["compartments"]
    spec = read_block("transit.initial_capacity", transit_cfg["initial_capacity"],
                      INITIAL_CAPACITY)
    seats = initial_capacity(spec["sim_daily_ridership"], spec["real_daily_ridership"],
                             spec["real_capacity"])
    return seats // SEATS_PER_COMPARTMENT


def run_one(cfg: ScenarioConfig, out_dir: str, label: str) -> dict:
    """Simulate one scenario variant and write its report set; a bad block is
    refused while the world is built, before its log makes ``run_dir``."""
    run_dir = os.path.join(out_dir, label)
    world = build_world(cfg, log_path=os.path.join(run_dir, "event.log"))
    # the world's set-up objects live for the whole run: keep the cyclic
    # collector from walking them over and over while it runs
    gc.freeze()
    try:
        world.run()
    finally:
        gc.unfreeze()
    avg_wait, avg_travel = emit_report(world.metrics, world.network, run_dir,
                                       hours=cfg.horizon_hours, population=len(world.humans))
    outputs = ["usage.csv", "wait.csv", "summary.csv", "event.log"]
    manifest = RunManifest(config_hash(cfg), cfg.seed, label, 0,
                           cfg.horizon_hours * 3600, outputs)
    manifest.write(os.path.join(run_dir, "manifest.json"))
    return {"dir": run_dir, "world": world, "avg_wait": avg_wait, "avg_travel": avg_travel}


def _read_series(run_dir: str, name: str) -> dict[tuple[str, str, str], float]:
    out = {}
    with open(os.path.join(run_dir, name), "r", encoding="utf-8") as f:
        f.readline()
        for line in f:
            cells = line.strip().split(",")
            out[(cells[0], cells[1], cells[2])] = float(cells[3])
    return out


def write_delta(first: dict, second: dict) -> None:
    """delta.csv rows are first-minus-second; a copy lands in each run dir."""
    rows = ["kind,hour,line,section,delta"]
    for kind, fname in (("usage", "usage.csv"), ("wait", "wait.csv")):
        a = _read_series(first["dir"], fname)
        b = _read_series(second["dir"], fname)
        for key in sorted(a, key=lambda k: (int(k[0]), k[1], k[2])):
            rows.append(f"{kind},{key[0]},{key[1]},{key[2]},{a[key] - b[key]:.4f}")
    rows.append(f"summary,,,avg_wait_s,{first['avg_wait'] - second['avg_wait']:.4f}")
    ta, tb = first["avg_travel"], second["avg_travel"]
    travel_delta = "" if ta is None or tb is None else f"{ta - tb:.4f}"
    rows.append(f"summary,,,avg_travel_s,{travel_delta}")
    body = "\n".join(rows) + "\n"
    for run in (first, second):
        with open(os.path.join(run["dir"], "delta.csv"), "w", encoding="utf-8") as f:
            f.write(body)


def _strip_events(cfg: ScenarioConfig) -> ScenarioConfig:
    other = copy.deepcopy(cfg)
    other.events = {k: v for k, v in cfg.events.items()
                    if k in ("poll_interval", "poll_probability")}
    return other


def _with_strategy(cfg: ScenarioConfig, name: str) -> ScenarioConfig:
    other = copy.deepcopy(cfg)
    other.strategy["name"] = name
    return other


def _with_alt(cfg: ScenarioConfig, on: bool) -> ScenarioConfig:
    other = copy.deepcopy(cfg)
    other.strategy["alt_routing"] = on
    return other


def compare(cfg: ScenarioConfig, axis: str, out_dir: str) -> tuple[dict, dict]:
    if axis == "event":
        pairs = [(cfg, "event"), (_strip_events(cfg), "no-event")]
    elif axis == "strategy":
        pairs = [(_with_strategy(cfg, "greedy"), "greedy"),
                 (_with_strategy(cfg, "none"), "none")]
    elif axis == "alt-routing":
        pairs = [(_with_alt(cfg, True), "alt-on"), (_with_alt(cfg, False), "alt-off")]
    else:
        raise ConfigError(f"unknown compare axis {axis!r}")
    first = run_one(pairs[0][0], out_dir, pairs[0][1])
    second = run_one(pairs[1][0], out_dir, pairs[1][1])
    write_delta(first, second)
    return first, second


def _parse_event_flag(text: str) -> dict:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("--event needs lat,lon,start,end")
    try:
        return {"lat": float(parts[0]), "lon": float(parts[1]),
                "start": parse_clock(parts[2]), "end": parse_clock(parts[3])}
    except ValueError as e:
        raise ConfigError(f"--event {text!r}: {e}") from None


def apply_flags(cfg: ScenarioConfig, args) -> ScenarioConfig:
    cfg = copy.deepcopy(cfg)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.until is not None:
        cfg.horizon_hours = args.until
    if args.strategy is not None:
        cfg.strategy["name"] = args.strategy
    if args.alt_routing is not None:
        cfg.strategy["alt_routing"] = args.alt_routing == "on"
    if args.pool is not None:
        cfg.strategy["pool"] = args.pool
    if args.event is not None:
        fixed = list(cfg.events.get("events", []))
        fixed.append(_parse_event_flag(args.event))
        cfg.events["events"] = fixed
    check_settings(cfg)
    return cfg


def _result_line(res: dict) -> str:
    travel = f"{res['avg_travel']:.1f}" if res["avg_travel"] is not None else "n/a"
    return (f"{os.path.basename(res['dir'])}: avg wait {res['avg_wait']:.1f} s, "
            f"avg travel {travel} s -> {res['dir']}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="transitsim",
        description="Agent-based rail transit simulator with social-event demand")
    parser.add_argument("--scenario", required=True, help="scenario YAML path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--until", type=int, default=None, metavar="HOURS")
    parser.add_argument("--strategy", choices=["none", "greedy"], default=None)
    parser.add_argument("--alt-routing", choices=["on", "off"], default=None)
    parser.add_argument("--pool", type=int, default=None)
    parser.add_argument("--event", default=None, metavar="LAT,LON,START,END")
    parser.add_argument("--out", default="out")
    parser.add_argument("--compare", choices=["event", "strategy", "alt-routing"],
                        default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_scenario(args.scenario)
        cfg = apply_flags(cfg, args)
        if args.compare:
            first, second = compare(cfg, args.compare, args.out)
            for res in (first, second):
                print(_result_line(res))
            print(f"delta: {os.path.join(first['dir'], 'delta.csv')}")
        else:
            print(_result_line(run_one(cfg, args.out, "run")))
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: io: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
