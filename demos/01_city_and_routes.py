#!/usr/bin/env python3
"""Tour of the city model: lines, schedules, nearest stations, route plans.

Loads the bundled two-line desk scenario, prints what the network looks like,
then plans a few door-to-door trips with the static headway/2 wait estimate.
"""

import os

from transitsim.city import GeoPoint, RoadRouter, network_from_dict
from transitsim.config import load_scenario
from transitsim.routing import RoutePlanner
from transitsim.transit import TransportManager

ROOT = os.path.join(os.path.dirname(__file__), "..")


def clock(seconds: int) -> str:
    return f"{seconds // 3600:02d}:{seconds % 3600 // 60:02d}"


def main() -> None:
    cfg = load_scenario(os.path.join(ROOT, "scenarios", "desk.yaml"))
    net = network_from_dict(cfg.network)

    print("== lines ==")
    for name in sorted(net.lines):
        line = net.lines[name]
        svc = line.service
        ends = (net.stations[line.station_ids[0]].name,
                net.stations[line.station_ids[-1]].name)
        print(f"  {name}: {line.n} stations {ends[0]} .. {ends[1]}, "
              f"one-way {line.one_way_seconds() // 60} min, "
              f"headway {svc.headway_seconds // 60} min, "
              f"service {clock(svc.first_departure)}-{clock(svc.last_departure)}")

    interchanges = [sid for sid, m in net.memberships.items() if len(m) > 1]
    print("interchanges:", ", ".join(net.stations[s].name for s in interchanges))

    manager = TransportManager(net, compartments_per_train=int(cfg.transit["compartments"]))
    print("\n== fleet and first departures ==")
    for name in sorted(net.lines):
        slots = net.lines[name].slots(day=0)
        trains = [t for t in manager.trains.values() if t.line == name]
        print(f"  {name}: {len(trains)} trains, {len(slots)} departures per "
              f"direction per day, first three: "
              f"{', '.join(clock(s) for s in slots[:3])}")

    print("\n== nearest stations ==")
    for pt in (GeoPoint(1.301, 103.772), GeoPoint(1.352, 103.761)):
        st, km = net.nearest_station(pt)
        print(f"  ({pt.lat:.3f}, {pt.lon:.3f}) -> {st.name} (id {st.id}), {km:.2f} km")

    print("\n== route plans at 08:00 (static wait estimate) ==")
    planner = RoutePlanner(net, RoadRouter(float(cfg.transit["road_speed_kmh"])))
    trips = [
        (GeoPoint(1.302, 103.702), GeoPoint(1.299, 103.833), "west end to east end"),
        (GeoPoint(1.228, 103.758), GeoPoint(1.341, 103.778), "south V to upper H"),
        (GeoPoint(1.300, 103.774), GeoPoint(1.302, 103.777), "around the corner"),
    ]
    for origin, dest, label in trips:
        r = planner.plan(origin, dest, 8 * 3600)
        if r.road_only:
            print(f"  {label}: road only, {r.total_seconds // 60} min")
            continue
        legs = " + ".join(f"{leg.line}[{net.stations[leg.board].name}->"
                          f"{net.stations[leg.alight].name}]" for leg in r.legs)
        print(f"  {label}: {legs}; access {r.access_seconds}s, wait ~{r.wait_seconds}s, "
              f"ride {r.ride_seconds}s, total ~{r.total_seconds // 60} min")


if __name__ == "__main__":
    main()
