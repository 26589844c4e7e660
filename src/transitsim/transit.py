"""Rail operations: station masters with token-based occupancy tracking and
platform arbitration, trains and terminal pools, schedule arithmetic, the
train inquiry, and the ridership forecast.

A route here means one direction of one line. Scheduled terminal departures
("slots") repeat daily per the line's service block; each slot is one run
from a terminal pool to the end of the line, once round on a loop, and into
the pool there. Each run's terminal starts with
``max(1, ceil((one_way_seconds + dwell) / headway))`` trains: a train that
leaves on a slot can start another run one run and a dwell later. With at
least two platforms per station and a headway no shorter than the dwell,
every run then leaves its terminal within one dwell of its slot. A slot
whose terminal pool is empty waits for the next returning train, oldest
slot first, which starts it late. No log record marks such a wait;
the late start shows only in that train's delay.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .city import GeoPoint, Station, TransitNetwork, UnknownStationError
from .config import ConfigError
from .engine import SECONDS_PER_DAY, SECONDS_PER_HOUR, SimTime
from .events import SocialEvent
from .population import STUDENT, WORKING_PROFESSIONAL, Human

SEATS_PER_COMPARTMENT = 31


class ConservationError(RuntimeError):
    pass


class DuplicatePresenceError(RuntimeError):
    pass


class UnknownTokenError(KeyError):
    pass


class InvalidMoveError(ValueError):
    pass


def initial_capacity(sim_daily_ridership: float, real_daily_ridership: float,
                     real_capacity: float) -> int:
    """Scale a real train capacity down to the simulated ridership, rounded
    up to whole compartments."""
    if sim_daily_ridership <= 0 or real_daily_ridership <= 0 or real_capacity <= 0:
        raise ConfigError("ridership and capacity inputs must be positive")
    raw = sim_daily_ridership * real_capacity / real_daily_ridership
    if not math.isfinite(raw):
        raise ConfigError(f"scaled capacity {raw} is not a finite number")
    compartments = max(1, math.ceil(raw / SEATS_PER_COMPARTMENT))
    return compartments * SEATS_PER_COMPARTMENT


class StationMaster:
    """Tracks who is at the station via tokens and who may use a platform.

    ``waiting`` maps each human holding a token here to its issue time, in
    issue order: it is the boarding queue and the open waits at once."""

    def __init__(self, station: Station):
        self.station = station
        self.waiting: dict[int, SimTime] = {}
        self.platforms: set[int] = set()
        self.hold_queue: list[tuple[SimTime, int]] = []  # (time it began holding, train)
        self.issue_count = 0
        self.return_count = 0

    def issue(self, human: int, now: SimTime) -> None:
        if human in self.waiting:
            raise DuplicatePresenceError(
                f"human {human} already holds a token at station {self.station.id}")
        self.waiting[human] = now
        self.issue_count += 1

    def retire(self, human: int) -> SimTime:
        """Take the human's token back; returns its issue time."""
        issued = self.waiting.pop(human, None)
        if issued is None:
            raise UnknownTokenError(f"human {human} holds no token at station {self.station.id}")
        self.return_count += 1
        return issued

    def request_arrival(self, train_id: int, now: SimTime) -> bool:
        """True = admitted to a platform; False = holds on the approach."""
        if len(self.platforms) < self.station.platform_count:
            self.platforms.add(train_id)
            return True
        self.hold_queue.append((now, train_id))
        return False

    def release_platform(self, train_id: int) -> Optional[int]:
        """Free the departing train's platform; admit the longest-halted
        holder (ties to the lower train id) and return its id."""
        self.platforms.discard(train_id)
        if not self.hold_queue:
            return None
        winner = min(self.hold_queue)
        self.hold_queue.remove(winner)
        self.platforms.add(winner[1])
        return winner[1]


@dataclass
class Train:
    id: int
    line: str
    compartments: int
    direction: int = +1
    slot_time: SimTime = 0      # scheduled terminal departure of current run
    delay: int = 0              # seconds behind that schedule
    path_pos: int = 0           # hops made in the current run
    at_station: Optional[int] = None
    onboard: dict[int, int] = field(default_factory=dict)  # human -> alight station
    pending_detach: int = 0
    pending_attach: int = 0

    @property
    def capacity(self) -> int:
        return self.compartments * SEATS_PER_COMPARTMENT

    def free_seats(self) -> int:
        return self.capacity - len(self.onboard)


@dataclass
class RidershipEstimate:
    """Per-route hourly demand for one day: station-history baseline plus the
    event-attendee delta from the route-traversal count."""

    baseline: dict[tuple[str, int, int], float] = field(default_factory=dict)
    delta: dict[tuple[str, int, int], int] = field(default_factory=dict)
    departures: dict[tuple[str, int, int], int] = field(default_factory=dict)

    def total(self, line: str, direction: int, hour: int) -> float:
        key = (line, direction, hour)
        return self.baseline.get(key, 0.0) + self.delta.get(key, 0)

    def per_departure(self, line: str, direction: int, hour: int) -> float:
        deps = self.departures.get((line, direction, hour), 0)
        if deps <= 0:
            return 0.0
        return self.total(line, direction, hour) / deps


def attendee_source_point(h: Human, hour_of_day: int) -> GeoPoint:
    """Where an attendee sets out from, judged by category and clock hour."""
    if h.category == WORKING_PROFESSIONAL and 9 <= hour_of_day < 18 and h.office is not None:
        return h.office
    if h.category == STUDENT and 8 <= hour_of_day < 14 and h.school is not None:
        return h.school
    return h.home


class TransportManager:
    """System-wide agent owning trains and their runs from slot to pool,
    schedules, the compartment pool, the token ledger and ridership history."""

    def __init__(self, network: TransitNetwork, compartments_per_train: int,
                 pool_compartments: int = 0):
        if compartments_per_train < 1:
            raise ValueError("trains need at least one compartment")
        self.network = network
        self.masters = {sid: StationMaster(st) for sid, st in network.stations.items()}
        self.trains: dict[int, Train] = {}
        self.pools: dict[tuple[str, int], deque[int]] = {}   # (line, terminal) -> idle trains
        # (line, terminal) -> (slot, direction) waiting there for a train
        self.waiting_slots: dict[tuple[str, int], deque[tuple[SimTime, int]]] = {}
        self.active: dict[tuple[str, int], set[int]] = {}    # (line, direction) -> running trains
        self.dispatched_upto: dict[tuple[str, int], SimTime] = {}
        self.unattached = pool_compartments
        self.issue_history: dict[tuple[int, int], int] = {}  # (station, abs hour) -> count
        # day -> (line, direction, clock hour) -> committed event attendees
        self.event_riders: dict[int, dict[tuple[str, int, int], int]] = {}
        # (line, direction, clock hour) -> slots, the same every day
        self.departures = {(line.name, d, hour): count for line in network.lines.values()
                           for hour, count in enumerate(line.hourly_slots()) for d in (+1, -1)}
        for line in network.lines.values():
            svc = line.service
            # a train can start another run a run and a dwell after its slot,
            # so each run's terminal holds a train for every slot until then,
            # and at least one; a loop's two runs both start from its anchor
            per_run = max(1, math.ceil((line.one_way_seconds() + svc.dwell_seconds)
                                       / svc.headway_seconds))
            for d in (+1, -1):
                end = (line.name, line.terminal(d))
                self.pools[end], self.waiting_slots[end] = deque(), deque()
                self.active[(line.name, d)] = set()
                self.dispatched_upto[(line.name, d)] = -1
            for _ in range(per_run):
                for d in (+1, -1):  # dealt alternately to the two terminals
                    tid = len(self.trains)
                    self.trains[tid] = Train(tid, line.name, compartments_per_train)
                    self.pools[(line.name, line.terminal(d))].append(tid)

    # schedule arithmetic

    def next_departure(self, line_name: str, station_id: int, direction: int,
                       t: SimTime, exclude_train: Optional[int] = None) -> Optional[SimTime]:
        """Earliest predicted departure of the route from a station at or
        after t: live trains not past the station, shifted by known delays,
        then undispatched schedule slots, today's or else tomorrow's."""
        if station_id not in self.network.stations:
            raise UnknownStationError(f"unknown station {station_id}")
        line = self.network.lines[line_name]
        if line.next_station(station_id, direction) is None:
            return None
        p = line.position(station_id, direction)
        offset = line.pass_offset(station_id, direction)
        best: Optional[SimTime] = None
        for tid in self.active[(line_name, direction)]:
            if tid == exclude_train:
                continue
            train = self.trains[tid]
            if train.path_pos > p:
                continue
            pred = max(train.slot_time + offset + train.delay, t)
            if best is None or pred < best:
                best = pred
        # earliest slot that is undispatched and departs here at or after t
        earliest = max(self.dispatched_upto[(line_name, direction)] + 1, t - offset)
        day = t // SECONDS_PER_DAY
        for d in (day, day + 1):
            slots = line.slots(d)
            i = bisect_left(slots, earliest)
            if i < len(slots) and (best is None or slots[i] + offset < best):
                best = slots[i] + offset
            if best is not None:
                break
        return best

    def live_waits(self, station_id: int, t: SimTime,
                   full_train: int) -> dict[tuple[str, int], int]:
        """Seconds from t to the next departure of each route at the
        station, not counting ``full_train`` on its own route; a route with
        no next departure is left out. No rider's detour changes it."""
        train = self.trains[full_train]
        own = (train.line, train.direction)
        waits = {}
        for route in self.network.routes_at(station_id):
            dep = self.next_departure(route[0], station_id, route[1], t,
                                      exclude_train=full_train if route == own else None)
            if dep is not None:
                waits[route] = dep - t
        return waits

    # runs

    def slot_due(self, line_name: str, direction: int, slot: SimTime) -> Optional[int]:
        """Queue the slot at its terminal; returns the train that starts a run, if any."""
        key = (line_name, self.network.lines[line_name].terminal(direction))
        self.waiting_slots[key].append((slot, direction))
        return self._pair(key)

    def end_run(self, train: Train) -> tuple[int, int]:
        """The train's run is over at its terminal: it leaves its route's
        running trains and gets its terminal service, whose (detached,
        attached) it returns."""
        self.active[(train.line, train.direction)].discard(train.id)
        return self.terminal_service(train)

    def pool(self, train: Train) -> Optional[int]:
        """Idle the train where its run ended; returns the train that starts a run, if any."""
        key = (train.line, train.at_station)
        self.pools[key].append(train.id)
        return self._pair(key)

    def _pair(self, key: tuple[str, int]) -> Optional[int]:
        """Start the terminal's oldest waiting slot with its first idle
        train. Each caller adds one slot or one train, so at most one run
        starts and one of the two queues is empty afterwards."""
        idle, slots = self.pools[key], self.waiting_slots[key]
        if not (idle and slots):
            return None
        slot, direction = slots.popleft()
        train = self.trains[idle.popleft()]
        train.direction = direction
        train.slot_time = slot
        train.delay = 0
        train.path_pos = 0
        train.at_station = key[1]
        route = (train.line, direction)
        self.active[route].add(train.id)
        self.dispatched_upto[route] = max(self.dispatched_upto[route], slot)
        return train.id

    def audit_runs(self) -> None:
        """Every train is listed once: running on its own route or idle at a
        terminal of its own line. No terminal holds an idle train and a
        waiting slot at once."""
        listed: dict[int, list] = {tid: [] for tid in self.trains}
        for route, running in self.active.items():
            for tid in running:
                listed[tid].append(("running", route))
        for key, idle in self.pools.items():
            if idle and self.waiting_slots[key]:
                raise ConservationError(f"terminal {key[1]} of line {key[0]} holds "
                                        f"an idle train and a waiting slot")
            for tid in idle:
                listed[tid].append(("idle", key[0]))
        for tid, train in self.trains.items():
            if listed[tid] not in ([("running", (train.line, train.direction))],
                                   [("idle", train.line)]):
                raise ConservationError(f"train {tid} is not once either running on "
                                        f"its route or idle on its line: {listed[tid]}")

    # tokens

    def issue_token(self, station_id: int, human: int, now: SimTime) -> None:
        self.masters[station_id].issue(human, now)
        hour = now // SECONDS_PER_HOUR
        self.issue_history[(station_id, hour)] = self.issue_history.get((station_id, hour), 0) + 1

    def return_token(self, station_id: int, human: int) -> SimTime:
        """Retire the human's token; returns its issue time."""
        return self.masters[station_id].retire(human)

    # compartments

    def total_compartments(self) -> int:
        return self.unattached + sum(tr.compartments for tr in self.trains.values())

    def queue_moves(self, moves: Iterable[tuple[object, object, int]]) -> None:
        """Validate and enqueue compartment moves; "pool" is a valid endpoint.

        Physical changes happen at terminal visits: detaches free compartments
        into the pool, attach claims draw from the pool when available.
        """
        pending = {tid: tr.pending_detach for tid, tr in self.trains.items()}
        for src, dst, count in moves:
            if count <= 0:
                raise InvalidMoveError(f"move count must be positive: {count}")
            for endpoint in (src, dst):
                if endpoint != "pool" and endpoint not in self.trains:
                    raise InvalidMoveError(f"unknown train {endpoint!r}")
            if src == dst:
                raise InvalidMoveError("move endpoints must differ")
            if src != "pool":
                pending[src] += count
                if self.trains[src].compartments - pending[src] < 1:
                    raise InvalidMoveError(
                        f"train {src} would drop below one compartment")
        for src, dst, count in moves:
            if src != "pool":
                self.trains[src].pending_detach += count
            if dst != "pool":
                self.trains[dst].pending_attach += count
        # pool -> pool is rejected above via src == dst

    def terminal_service(self, train: Train) -> tuple[int, int]:
        """Apply pending compartment work while the train sits at a terminal.

        Detach only while nobody would lose a seat; grant attach claims from
        whatever the pool holds. Returns (detached, attached).
        """
        detached = attached = 0
        while (train.pending_detach > 0 and train.compartments > 1
               and len(train.onboard) <= (train.compartments - 1) * SEATS_PER_COMPARTMENT):
            train.compartments -= 1
            train.pending_detach -= 1
            self.unattached += 1
            detached += 1
        while train.pending_attach > 0 and self.unattached > 0:
            train.compartments += 1
            self.unattached -= 1
            train.pending_attach -= 1
            attached += 1
        return detached, attached

    # ridership

    def count_attendee(self, event: SocialEvent, human: Human) -> None:
        """Add a committed attendee to the event part of the forecast. Per
        clock hour the event runs, the attendee is one rider from the station
        nearest its estimated source location to the station nearest the
        event, counted on every route one of whose runs passes the source
        and then reaches the destination."""
        dest = self.network.nearest_station(event.location)[0].id
        for abs_hour in range(event.start // SECONDS_PER_HOUR,
                              math.ceil(event.end / SECONDS_PER_HOUR)):
            hour = abs_hour % 24
            source = self.network.nearest_station(attendee_source_point(human, hour))[0].id
            riders = self.event_riders.setdefault(abs_hour // 24, {})
            for line_name, line in self.network.lines.items():
                for d in (+1, -1):
                    if line.reaches(source, dest, d):
                        key = (line_name, d, hour)
                        riders[key] = riders.get(key, 0) + 1

    def estimate_ridership(self, day: int) -> RidershipEstimate:
        """Hourly per-route demand for one day: the day's counted event
        attendees, plus a baseline of the same hour of the previous day's
        token issues, split evenly over the routes serving each issuing
        station.
        """
        est = RidershipEstimate(delta=dict(self.event_riders.get(day, {})),
                                departures=self.departures)
        # baseline from yesterday's issues
        if day > 0:
            for (sid, abs_hour), count in self.issue_history.items():
                if abs_hour // 24 != day - 1:
                    continue
                hour = abs_hour % 24
                routes = self.network.routes_at(sid)
                if not routes:
                    continue
                share = count / len(routes)
                for line_name, d in routes:
                    key = (line_name, d, hour)
                    est.baseline[key] = est.baseline.get(key, 0.0) + share
        return est
