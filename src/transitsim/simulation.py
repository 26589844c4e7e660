"""The world: wires humans, the social layer, events, and rail operations
into one dispatch loop.

Daily activity plans become timed trips; event broadcasts spread over the
social graph, gated by each human's attendance decision, and attendees travel
to the venue and back. The transport manager runs each train from slot to
pool and, for a strategy that plans, counts each attendee into its demand
forecast as it commits and reads that forecast out every hour; station
masters arbitrate platforms and hold the boarding queues.
Conservation checks run at every hourly checkpoint and raise on violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .city import GeoPoint, RoadRouter, TransitNetwork
from .engine import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    EventLog,
    RngStreams,
    Scheduler,
    SimTime,
    TimedAction,
)
from .events import BroadcastFeed, EventEndedError, SocialEvent, decide_attendance, wants_to_seed
from .metrics import MetricsLedger, TripRecord
from .population import Human, Trip, daily_trips
from .routing import RoutePlanner, TrainLeg, leg_times
from .social import SocialGraph, spread
from .strategies import Strategy
from .transit import ConservationError, Train, TransportManager

RETRY_SECONDS = 300  # put-off plans start on this grid once their human is free


@dataclass
class ActiveTrip:
    dest: GeoPoint
    legs: list[TrainLeg]
    egress_seconds: int
    started: SimTime
    event_id: Optional[int] = None     # set on the way to an event only
    leg_index: int = 0

    def current_leg(self) -> Optional[TrainLeg]:
        if self.leg_index < len(self.legs):
            return self.legs[self.leg_index]
        return None


@dataclass
class HumanState:
    point: GeoPoint
    trip: Optional[ActiveTrip] = None
    at_event: Optional[int] = None

    @property
    def busy(self) -> bool:
        return self.trip is not None or self.at_event is not None


class World:
    def __init__(self, network: TransitNetwork, humans: list[Human],
                 graph: SocialGraph, events: list[SocialEvent],
                 streams: RngStreams, horizon_hours: int,
                 compartments_per_train: int, pool_compartments: int,
                 strategy: Strategy, alt_routing: bool, poll_interval: int,
                 poll_probability: float, road_speed_kmh: float, alt_margin_seconds: int,
                 log_path: Optional[str] = None):
        self.network = network
        self.humans = humans
        self.graph = graph
        self.events = sorted(events, key=lambda e: e.id)
        self.streams = streams
        self.horizon = horizon_hours * SECONDS_PER_HOUR
        self.strategy = strategy
        self.alt_routing = alt_routing
        self.alt_margin = alt_margin_seconds
        self.log = EventLog(log_path) if log_path else None
        self.scheduler = Scheduler(log=self.log)
        self.manager = TransportManager(network, compartments_per_train, pool_compartments)
        self.planner = RoutePlanner(network, RoadRouter(road_speed_kmh))
        self.feed = BroadcastFeed(self.events, poll_interval, poll_probability)
        self.metrics = MetricsLedger()
        self.state = [HumanState(h.home) for h in humans]
        self._human_ids = np.array([h.id for h in humans], dtype=np.uint64)
        # the base strategy ignores the fleet and the demand estimate, so the
        # estimate is only built for a strategy that overrides on_hour
        self._hourly_view = type(strategy).on_hour is not Strategy.on_hour
        self.attendees: dict[int, set[int]] = {ev.id: set() for ev in self.events}
        self.spread_frontier: dict[int, list[int]] = {ev.id: [] for ev in self.events}
        self._initial_compartments = self.manager.total_compartments()
        # human -> trip-starts and attend-departs it put off, in that order,
        # as (time put off, kind, payload); while the human is free the first
        # of them is scheduled
        self.pending: dict[int, list[tuple[SimTime, str, object]]] = {}
        self.sweeps = 0
        self.deferrals = 0  # trip-start dispatches that had to wait their turn
        self.trips_started = 0
        self.boardings = 0
        self.full_train_denials = 0
        # action kind -> its handler, each taking (payload, now)
        self._handlers = {
            "trip-start": self._on_trip_start,
            "walk-arrive": self._on_walk_arrive,
            "trip-arrive": self._on_trip_arrive,
            "train-arrive": self._on_train_arrive,
            "train-depart": self._on_train_depart,
            "slot": self._on_slot,
            "poll": self._on_poll,
            "diffuse": self._on_diffuse,
            "attend-depart": self._on_attend_depart,
            "event-return": self._on_event_return,
            "new-day": self._on_new_day,
            "hour": self._on_hour,
        }
        self._bootstrap()

    # setup

    def _bootstrap(self) -> None:
        sched = self.scheduler
        days = self.horizon // SECONDS_PER_DAY + 1
        for day in range(days):
            sched.schedule(day * SECONDS_PER_DAY, "world", "new-day", day)
        for h in range(0, self.horizon + 1, SECONDS_PER_HOUR):
            sched.schedule(h, "world", "hour", h // SECONDS_PER_HOUR)
        t = 0
        while t <= self.horizon:
            sched.schedule(t, "feed", "poll", None)
            t += self.feed.poll_interval
        for ev in self.events:
            if ev.end <= self.horizon:
                sched.schedule(ev.end, "world", "event-return", ev.id)
        for line in self.network.lines.values():
            dwell = line.service.dwell_seconds
            for day in range(days):
                for slot in line.slots(day):
                    at = slot - dwell
                    if at > self.horizon:
                        continue
                    for d in (+1, -1):
                        sched.schedule(max(at, 0), "manager", "slot",
                                       (line.name, d, slot))

    # main loop

    def run(self) -> None:
        self.scheduler.run_until(self.horizon, self._handle)
        self._finalize()

    def _finalize(self) -> None:
        now = self.horizon
        for sid, master in self.manager.masters.items():
            for human, issued in master.waiting.items():
                self.metrics.record_wait(human, sid, issued, now)
        self.metrics.close(now)
        self._sweep(now)
        if self.log is not None:
            self.log.close()

    def _handle(self, action: TimedAction) -> None:
        handler = self._handlers.get(action.kind)
        if handler is None:
            raise ValueError(f"unknown action kind {action.kind!r}")
        handler(action.payload, self.scheduler.now)

    # humans

    def _on_new_day(self, day: int, now: SimTime) -> None:
        trips = daily_trips(self.humans, day, self.streams, until=self.horizon)
        # the day's plans then read each trip end's station from the cache,
        # and an attendance plan its human's place and the venue
        self.network.cache_nearest([p for trip in trips for p in (trip.origin, trip.dest)]
                                   + [s.point for s in self.state]
                                   + [ev.location for ev in self.events])
        for trip in trips:
            self.scheduler.schedule(max(trip.chosen_start, now), "human", "trip-start", trip)

    def _on_trip_start(self, trip: Trip, now: SimTime) -> None:
        human = trip.human_id
        if self._wait_turn(human, "trip-start", trip, now):
            self.deferrals += 1
            return
        self._go(human, trip.dest, now)

    def _wait_turn(self, human: int, kind: str, payload, now: SimTime) -> bool:
        """Whether a trip-start or attend-depart has to wait: while its human
        is busy, or behind actions the human put off before it. A waiting
        action joins the end of the human's queue. One that matches the head
        is the released head and goes ahead: from its release on, only its
        human's own actions, which wait behind it, could make the human busy."""
        queue = self.pending.get(human)
        if queue and queue[0][1] == kind and queue[0][2] == payload:
            del queue[0]
            if not queue:
                del self.pending[human]
            return False
        if not queue and not self.state[human].busy:
            return False
        self.pending.setdefault(human, []).append((now, kind, payload))
        return True

    def _release_pending(self, human: int, now: SimTime) -> None:
        """Once the human is free, schedule the first action it put off at
        the first instant from now on of that action's own RETRY_SECONDS grid
        (counted from when it was put off). An action whose instant
        falls past the horizon, or for an attend-depart not before the
        event's end, is dropped and the next one tried. The rest wait their
        turn, so a human works through put-off plans in order: an outbound
        leg before its return. Called only as the human comes free or takes
        up its head, so no head is scheduled twice."""
        if self.state[human].busy:
            return
        queue = self.pending.get(human)
        while queue:
            since, kind, payload = queue[0]
            at = since + RETRY_SECONDS * max(1, -((since - now) // RETRY_SECONDS))
            if at <= self.horizon and (kind != "attend-depart"
                                       or at < self.events[payload[1]].end):
                self.scheduler.schedule(at, "human", kind, payload)
                return
            del queue[0]
        self.pending.pop(human, None)

    def _go(self, human: int, dest: GeoPoint, now: SimTime,
            event_id: Optional[int] = None) -> None:
        """Set out from where the human is for ``dest``, unless it is already
        there, then take up what it put off once it is free."""
        state = self.state[human]
        if state.point != dest:
            route = self.planner.plan(state.point, dest, now)
            state.trip = ActiveTrip(dest, list(route.legs), route.egress_seconds,
                                    now, event_id)
            self.trips_started += 1
            if route.road_only:
                self.scheduler.schedule(now + route.total_seconds, "human", "trip-arrive", human)
            else:
                self.scheduler.schedule(now + route.access_seconds, "human", "walk-arrive", human)
        self._release_pending(human, now)

    def _on_walk_arrive(self, human: int, now: SimTime) -> None:
        trip = self.state[human].trip
        leg = trip.current_leg()
        self.manager.issue_token(leg.board, human, now)

    def _on_trip_arrive(self, human: int, now: SimTime) -> None:
        state = self.state[human]
        trip = state.trip
        state.trip = None
        state.point = trip.dest
        self.metrics.record_trip(TripRecord(human, trip.started, now))
        if trip.event_id is None:
            self._release_pending(human, now)
        elif now < self.events[trip.event_id].end:
            state.at_event = trip.event_id
        else:
            # arrived after it wrapped up; turn straight back
            self._go(human, self.humans[human].home, now)

    # events and diffusion

    def _on_poll(self, _payload: None, now: SimTime) -> None:
        fresh: dict[int, list[int]] = {}
        # with nothing on air every poll comes back empty; the poll coins are
        # keyed and stateless, so skipping them shifts no other draw
        if self.feed.on_air(now):
            hits = self.feed.polls_succeed(self._human_ids, now, self.streams)
            for i in np.flatnonzero(hits):
                h = self.humans[i]
                for ev in self.feed.poll(h, now):
                    if wants_to_seed(h, ev, self.planner, now,
                                     origin=self.state[h.id].point):
                        fresh.setdefault(ev.id, []).append(h.id)
        live = fresh or any(self.spread_frontier.values())
        if live and now + 1 <= self.horizon:
            self.scheduler.schedule(now + 1, "social", "diffuse", fresh)

    def _on_diffuse(self, fresh: dict[int, list[int]], now: SimTime) -> None:
        """One cascade round per feed cycle: last round's affirmers post,
        their followers flip coins now, and anyone who affirms (plus today's
        new broadcast seeds) posts in the next round. A declined influence
        attempt still spends its edge: a node posts only in the round after
        it first activates."""
        for ev in self.events:
            if now >= ev.end:
                self.spread_frontier[ev.id] = []
                continue
            active = self.attendees[ev.id]
            nxt = spread(self.graph, active, self.spread_frontier[ev.id], ev.id,
                         self.streams, accept=lambda h: self._affirm(h, ev, now))
            for h in sorted(fresh.get(ev.id, [])):
                if h not in active and self._affirm(h, ev, now):
                    active.add(h)
                    nxt.append(h)
            self.spread_frontier[ev.id] = nxt

    def _affirm(self, human: int, ev: SocialEvent, now: SimTime) -> bool:
        """Whether the human commits to the event, scheduling its departure
        and counting it in the demand forecast if so; the caller then adds
        it to the event's attendees."""
        state = self.state[human]
        if state.at_event is not None:
            return False
        try:
            route = decide_attendance(self.humans[human], ev, self.planner, now,
                                      origin=state.point)
        except EventEndedError:
            return False
        if route is None:
            return False
        depart = max(now, ev.start - route.total_seconds)
        if depart <= self.horizon:
            self.scheduler.schedule(depart, "human", "attend-depart", (human, ev.id))
        if self._hourly_view:
            self.manager.count_attendee(ev, self.humans[human])
        return True

    def _on_attend_depart(self, payload: tuple[int, int], now: SimTime) -> None:
        human, ev_id = payload
        if self._wait_turn(human, "attend-depart", payload, now):
            return
        ev = self.events[ev_id]
        if now < ev.end:
            self._go(human, ev.location, now, event_id=ev_id)
        else:
            self._release_pending(human, now)

    def _on_event_return(self, ev_id: int, now: SimTime) -> None:
        for human in sorted(self.attendees[ev_id]):
            state = self.state[human]
            if state.at_event != ev_id:
                continue
            state.at_event = None
            self._go(human, self.humans[human].home, now)

    # trains

    def _on_slot(self, payload: tuple[str, int, SimTime], now: SimTime) -> None:
        started = self.manager.slot_due(*payload)
        if started is not None:
            self._request_platform(started, now)

    def _on_train_arrive(self, payload: tuple[int, int], now: SimTime) -> None:
        tid, station = payload
        train = self.manager.trains[tid]
        train.at_station = station
        train.path_pos += 1
        self._request_platform(tid, now)

    def _request_platform(self, tid: int, now: SimTime) -> None:
        """Ask for a platform where the train stands; dock if admitted, else it holds."""
        if self.manager.masters[self.manager.trains[tid].at_station].request_arrival(tid, now):
            self._train_docked(tid, now)

    def _train_docked(self, tid: int, now: SimTime) -> None:
        """On a platform: let riders off, then either turn around at the end
        of the run or set a departure after the dwell, not before the slot."""
        train = self.manager.trains[tid]
        line = self.network.lines[train.line]
        s = train.at_station
        self._alight(train, s, now)
        self.metrics.record_visit(now, tid, train.line, s)
        self.metrics.record_occupancy(now, tid, len(train.onboard), train.capacity)
        if train.path_pos == line.run_hops:
            self._turnaround(tid, now)
            return
        # a run whose slot falls within the first dwell of the simulation
        # starts from a train taken to have docked before t = 0
        ready = now + line.service.dwell_seconds if now or train.path_pos else 0
        self.scheduler.schedule(max(ready, train.slot_time), "train", "train-depart", tid)

    def _on_train_depart(self, tid: int, now: SimTime) -> None:
        train = self.manager.trains[tid]
        line = self.network.lines[train.line]
        s = train.at_station
        svc = line.service
        self._board(train, s, now)
        train.delay = max(0, now - train.slot_time - line.pass_offset(s, train.direction))
        self.metrics.record_occupancy(now, tid, len(train.onboard), train.capacity)
        ns = line.next_station(s, train.direction)
        self.scheduler.schedule(now + svc.run_seconds, "train", "train-arrive", (tid, ns))
        admitted = self.manager.masters[s].release_platform(tid)
        if admitted is not None:
            self._train_docked(admitted, now)

    def _turnaround(self, tid: int, now: SimTime) -> None:
        """End the run, let a held follower dock (it may end its own run here
        and take a waiting slot first, or draw on compartments this train
        just detached), then pool this train."""
        train = self.manager.trains[tid]
        s = train.at_station
        if train.onboard:
            raise ConservationError(f"train {tid} ends its run at station {s} with riders aboard")
        detached, attached = self.manager.end_run(train)
        if detached != attached:
            self.metrics.record_occupancy(now, tid, len(train.onboard), train.capacity)
        follow = self.manager.masters[s].release_platform(tid)
        if follow is not None:
            self._train_docked(follow, now)
        started = self.manager.pool(train)
        if started is not None:
            self._request_platform(started, now)

    def _alight(self, train: Train, station: int, now: SimTime) -> None:
        leaving = [h for h, alight in train.onboard.items() if alight == station]
        for human in leaving:
            del train.onboard[human]
            trip = self.state[human].trip
            trip.leg_index += 1
            leg = trip.current_leg()
            if leg is None:
                self.scheduler.schedule(now + trip.egress_seconds, "human",
                                        "trip-arrive", human)
            else:
                self.manager.issue_token(leg.board, human, now)

    def _board(self, train: Train, station: int, now: SimTime) -> None:
        master = self.manager.masters[station]
        denied = []
        for human in list(master.waiting):
            trip = self.state[human].trip
            leg = trip.current_leg() if trip else None
            if (leg is None or leg.line != train.line
                    or leg.direction != train.direction or leg.board != station):
                continue
            if train.free_seats() > 0:
                self._retire_token(human, station, now)
                train.onboard[human] = leg.alight
                self.boardings += 1
            else:
                denied.append(human)
        self.full_train_denials += len(denied)
        if denied and self.alt_routing:
            waits = self.manager.live_waits(station, now, train.id)
            for human in denied:
                self._handle_full(human, station, waits, now)

    def _handle_full(self, human: int, station: int,
                     waits: dict[tuple[str, int], int], now: SimTime) -> None:
        """Offer a rider the full train left behind a detour; the detour and
        staying are both priced on the live ``waits`` at the station."""
        self.metrics.alt_considered += 1
        trip = self.state[human].trip
        alt = self.planner.alternative(station, trip.dest, waits, now)
        stay = self._stay_cost(trip, waits)
        # switching has friction: the detour must beat staying by a margin
        if alt.total_seconds + self.alt_margin >= stay:
            return
        self.metrics.alt_adopted += 1
        trip.legs = trip.legs[:trip.leg_index] + list(alt.legs)
        if alt.road_only:
            # drive the rest of the way
            self._retire_token(human, station, now)
            self.scheduler.schedule(now + alt.total_seconds, "human", "trip-arrive", human)
        else:
            trip.egress_seconds = alt.egress_seconds

    def _retire_token(self, human: int, station: int, now: SimTime) -> None:
        """Take the human's token back at the station and book the wait it
        covered in the ledger."""
        issued = self.manager.return_token(station, human)
        self.metrics.record_wait(human, station, issued, now)

    def _stay_cost(self, trip: ActiveTrip, waits: dict[tuple[str, int], int]) -> float:
        """Seconds to destination if the human keeps waiting here: the live
        wait on its own route, the rest of its legs, and egress."""
        legs = trip.legs[trip.leg_index:]
        if (legs[0].line, legs[0].direction) not in waits:
            return float("inf")
        rest = sum(w + r for w, r in leg_times(self.network.lines, legs, waits))
        return rest + trip.egress_seconds

    # hourly work

    def _on_hour(self, _hour: int, now: SimTime) -> None:
        self._sweep(now)
        if self._hourly_view:
            day = now // SECONDS_PER_DAY
            hour_of_day = (now % SECONDS_PER_DAY) // SECONDS_PER_HOUR
            estimate = self.manager.estimate_ridership(day)
            decision = self.strategy.on_hour(self.manager.trains.values(),
                                             self.manager.unattached, estimate, hour_of_day)
            if decision.moves:
                self.manager.queue_moves(decision.moves)
                if self.log is not None:
                    self.log.append(now, "strategy", "decision", moves=len(decision.moves))

    def _sweep(self, now: SimTime) -> None:
        """Besides the platform, ledger, seat and compartment bounds, every
        token and seat belongs to one human's current leg: a token at the
        leg's board station, on a route that leaves that station, and a seat
        on a train of its line and direction, bound for its alight station."""
        seen: set[int] = set()

        def place(human: int) -> Optional[TrainLeg]:
            """Place the human once; returns the leg it is on."""
            if human in seen:
                raise ConservationError(f"human {human} present twice")
            seen.add(human)
            trip = self.state[human].trip
            return trip.current_leg() if trip else None

        for sid, master in self.manager.masters.items():
            if len(master.platforms) > master.station.platform_count:
                raise ConservationError(f"platform bound broken at station {sid}")
            if master.issue_count - master.return_count != len(master.waiting):
                raise ConservationError(f"token ledger unbalanced at station {sid}")
            routes = self.network.routes_at(sid)
            for human in master.waiting:
                leg = place(human)
                if leg is None or leg.board != sid:
                    raise ConservationError(f"human {human} waits at station {sid} off its leg")
                if (leg.line, leg.direction) not in routes:
                    raise ConservationError(f"human {human} waits at station {sid} "
                                            f"for a route that does not leave it")
        for tid, train in self.manager.trains.items():
            if len(train.onboard) > train.capacity:
                raise ConservationError(f"train {tid} over capacity")
            for human, alight in train.onboard.items():
                leg = place(human)
                if (leg is None or (leg.line, leg.direction, leg.alight)
                        != (train.line, train.direction, alight)):
                    raise ConservationError(f"human {human} rides train {tid} off its leg")
        if self.manager.total_compartments() != self._initial_compartments:
            raise ConservationError("compartments not conserved")
        self.manager.audit_runs()
        self.sweeps += 1
