"""Per-layer tracing from outside the program.

Each traced function is replaced, on its module or class, by a wrapper that
counts calls and accumulates self time: the wrapper's duration minus the time
spent in traced functions it called. Optional hooks record distinct call keys
and a tally of outcomes, from which the distinct and hit ratios are derived.
Nothing under ``src/`` knows about the tracer.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

ACTION_KINDS = ("trip-start", "walk-arrive", "trip-arrive", "train-arrive",
                "train-depart", "slot", "poll", "diffuse", "attend-depart",
                "event-return", "new-day", "hour")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.tally: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self._stack: list[float] = []

    def wrap(self, owner: Any, attr: str, name: str,
             label: Optional[Callable[[tuple], str]] = None,
             key: Optional[Callable[[tuple], Any]] = None,
             outcome: Optional[Callable[[Any], int]] = None) -> None:
        """Trace ``owner.attr`` under ``name`` (or ``label(args)`` per call)."""
        fn = getattr(owner, attr)
        stack = self._stack
        calls, self_s, tally, keys = self.calls, self.self_s, self.tally, self.keys

        def traced(*args, **kwargs):
            span = label(args) if label else name
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[span] += dt - stack.pop()
                calls[span] += 1
                if stack:
                    stack[-1] += dt
            if key is not None:
                keys[span].add(key(args))
            if outcome is not None:
                tally[span] += outcome(result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the public entry points of each transitsim module."""
        from transitsim import city, cli, engine, events, metrics, routing
        from transitsim import simulation, strategies, transit

        w = self.wrap
        # set-up: names as cli.build_world looks them up
        w(cli, "generate_population", "population.generate_population")
        w(cli, "generate_graph", "social.generate_graph")
        w(simulation.World, "__init__", "simulation.bootstrap")
        # dispatch, one span per action kind
        w(simulation.World, "_handle", "",
          label=lambda a: "simulation." + a[1].kind)
        w(engine.EventLog, "append", "engine.EventLog.append")
        w(routing.RoutePlanner, "plan", "routing.plan",
          outcome=lambda r: 1 if r.legs else 0)
        w(routing.RoutePlanner, "_rail_path", "routing.rail_path",
          key=lambda a: (a[1], a[2]))
        w(routing.RoutePlanner, "alternative", "routing.alternative")
        w(city.TransitNetwork, "nearest_station", "city.nearest_station",
          key=lambda a: a[1])
        w(transit.TransportManager, "next_departure", "transit.next_departure")
        w(transit.TransportManager, "estimate_ridership", "transit.estimate_ridership")
        w(transit.TransportManager, "issue_token", "transit.issue_token")
        w(events.BroadcastFeed, "poll", "events.poll",
          outcome=lambda r: 1 if r else 0)
        # names as simulation.World looks them up
        w(simulation, "wants_to_seed", "events.wants_to_seed")
        w(simulation, "decide_attendance", "events.decide_attendance")
        for cls in (strategies.Strategy, strategies.GreedyReallocation):
            w(cls, "on_hour", "strategies.on_hour", outcome=lambda r: len(r.moves))
        # report: names as metrics.emit_report looks them up
        w(metrics, "section_usage", "metrics.section_usage")
        w(metrics, "section_wait", "metrics.section_wait")
        w(metrics.OccupancySeries, "integrate", "metrics.OccupancySeries.integrate")

    def layer_metrics(self, world) -> dict[str, float]:
        """Per-layer counts and self seconds, plus the world's own counters."""
        out: dict[str, float] = {}

        def timed(name: str) -> None:
            out[name + ".calls"] = self.calls[name]
            out[name + ".s"] = self.self_s[name]

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        out["population.generate_population.s"] = self.self_s["population.generate_population"]
        out["social.generate_graph.s"] = self.self_s["social.generate_graph"]
        out["social.edges"] = world.graph.edge_count()
        out["simulation.bootstrap.s"] = self.self_s["simulation.bootstrap"]
        out["engine.actions"] = world.scheduler.dispatched
        for kind in ACTION_KINDS:
            timed("simulation." + kind)
        out["simulation.deferrals"] = world.deferrals
        out["simulation.deferral_ratio"] = ratio(world.deferrals,
                                                 self.calls["simulation.trip-start"])
        timed("engine.EventLog.append")
        timed("routing.plan")
        out["routing.plan.rail_ratio"] = ratio(self.tally["routing.plan"],
                                               self.calls["routing.plan"])
        timed("routing.rail_path")
        out["routing.rail_path.distinct_ratio"] = ratio(
            len(self.keys["routing.rail_path"]), self.calls["routing.rail_path"])
        timed("routing.alternative")
        timed("city.nearest_station")
        out["city.nearest_station.distinct_ratio"] = ratio(
            len(self.keys["city.nearest_station"]), self.calls["city.nearest_station"])
        timed("transit.next_departure")
        timed("transit.estimate_ridership")
        out["transit.issue_token.calls"] = self.calls["transit.issue_token"]
        out["simulation.boardings"] = world.boardings
        out["simulation.full_train_denials"] = world.full_train_denials
        timed("events.poll")
        out["events.poll.hit_ratio"] = ratio(self.tally["events.poll"],
                                             self.calls["events.poll"])
        timed("events.wants_to_seed")
        timed("events.decide_attendance")
        timed("strategies.on_hour")
        out["strategies.moves"] = self.tally["strategies.on_hour"]
        timed("metrics.section_usage")
        timed("metrics.OccupancySeries.integrate")
        timed("metrics.section_wait")
        out["metrics.visits"] = len(world.metrics.visits)
        out["metrics.waits"] = len(world.metrics.waits)
        out["metrics.trips"] = len(world.metrics.trips)
        return out
