"""Social events and the broadcast feed humans poll to learn about them.

The feed stands in for every channel an announcement could arrive through.
Humans poll it at a fixed interval and notice broadcasts with a configured
probability; a noticed event seeds the cascade only if the human's age group
is targeted and the event is reachable before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .city import BoundingBox, GeoPoint
from .config import AGE_GROUPS, EVENT, EVENTS, GENERATOR, ConfigError, read_block
from .engine import RngStreams, SimTime, keyed_uniform_batch
from .population import Human


class EventEndedError(RuntimeError):
    """Raised when an attendance decision arrives after the event is over."""


@dataclass(frozen=True)
class SocialEvent:
    id: int
    location: GeoPoint
    start: SimTime
    end: SimTime
    age_range: frozenset[int]
    broadcast_from: SimTime

    def __post_init__(self):
        if not (self.start < self.end):
            raise ConfigError(f"event {self.id}: start must precede end")
        if self.broadcast_from > self.start:
            raise ConfigError(f"event {self.id}: broadcast must not start after the event")
        if not self.age_range or not set(self.age_range) <= set(AGE_GROUPS):
            raise ConfigError(f"event {self.id}: bad age range {set(self.age_range)}")

    @property
    def tau(self) -> int:
        """Lateness tolerance for attendance: a tenth of the duration."""
        return (self.end - self.start) // 10


def generate_events(config: dict, streams: RngStreams) -> list[SocialEvent]:
    """Events straight from config, or drawn from a generator block.

    ``config["events"]`` lists fixed events (lat, lon, start, end,
    age_groups, lead_seconds). ``config["generator"]`` draws `count` events
    with uniform locations in `bounds`, uniform starts in [start_min,
    start_max], durations and leads in their ranges, and a contiguous random
    age-group block. Each block is checked, and its defaults filled in, by
    its table in ``config``.
    """
    config = read_block("events", config, EVENTS)
    fixed = config["events"]
    events: list[SocialEvent] = []
    for i, e in enumerate(fixed):
        e = read_block(f"events.events[{i}]", e, EVENT)
        events.append(SocialEvent(
            id=i,
            location=GeoPoint(e["lat"], e["lon"]),
            start=e["start"],
            end=e["end"],
            age_range=frozenset(e["age_groups"]),
            broadcast_from=e["start"] - e["lead_seconds"],
        ))
    if config["generator"]:
        gen_cfg = read_block("events.generator", config["generator"], GENERATOR)
        dur_lo, dur_hi = gen_cfg["duration_min"], gen_cfg["duration_max"]
        lead_lo, lead_hi = gen_cfg["lead_min"], gen_cfg["lead_max"]
        start_lo, start_hi = gen_cfg["start_min"], gen_cfg["start_max"]
        if dur_lo > dur_hi or lead_lo > lead_hi or start_lo > start_hi:
            raise ConfigError("event generator ranges out of order")
        bounds = BoundingBox(*gen_cfg["bounds"])
        rng = streams.generator("events")
        for k in range(gen_cfg["count"]):
            loc = bounds.sample(rng)
            start = int(rng.integers(start_lo, start_hi + 1))
            dur = int(rng.integers(dur_lo, dur_hi + 1))
            lead = min(int(rng.integers(lead_lo, lead_hi + 1)), start)
            width = int(rng.integers(1, len(AGE_GROUPS) + 1))
            lo = int(rng.integers(1, len(AGE_GROUPS) - width + 2))
            events.append(SocialEvent(
                id=len(fixed) + k,
                location=loc,
                start=start,
                end=start + dur,
                age_range=frozenset(range(lo, lo + width)),
                broadcast_from=start - lead,
            ))
    return events


class BroadcastFeed:
    """Schedule of events plus, per event, whom a poll has shown it to.

    A poll succeeds with ``poll_probability``; on success the human sees
    every event currently broadcast that it has not seen before. The poll
    coin is keyed by (human, tick) so runs differing elsewhere still flip
    the same coins.
    """

    def __init__(self, events: list[SocialEvent], poll_interval: int,
                 poll_probability: float):
        if poll_interval <= 0:
            raise ConfigError("poll interval must be positive")
        if not (0.0 <= poll_probability <= 1.0):
            raise ConfigError("poll probability must be in [0, 1]")
        self.events = list(events)
        self.poll_interval = poll_interval
        self.poll_probability = poll_probability
        # event -> ids of the humans it has shown itself to
        self._seen: dict[int, set[int]] = {ev.id: set() for ev in self.events}

    def on_air(self, t: SimTime) -> bool:
        """Is any event being broadcast at t?"""
        return any(ev.broadcast_from <= t < ev.end for ev in self.events)

    def polls_succeed(self, human_ids: np.ndarray, t: SimTime,
                      streams: RngStreams) -> np.ndarray:
        """Mask over ``human_ids``: whose poll at t succeeds, one keyed coin
        per (human, tick)."""
        tick = t // self.poll_interval
        coins = keyed_uniform_batch(streams, "polls", (), human_ids, suffix=(tick,))
        return coins < self.poll_probability

    def poll(self, h: Human, t: SimTime) -> list[SocialEvent]:
        """What a successful poll at t shows h: the events on air that it
        has not seen before."""
        out = []
        for ev in self.events:
            seen = self._seen[ev.id]
            if ev.broadcast_from <= t < ev.end and h.id not in seen:
                seen.add(h.id)
                out.append(ev)
        return out


def wants_to_seed(h: Human, ev: SocialEvent, planner, t: SimTime,
                  origin: GeoPoint) -> bool:
    """Does a freshly informed human adopt the event and start posting?

    Requires a targeted age group and the ability to get from ``origin``
    to the event by the start; note this is stricter than the post-cascade
    attendance rule, which tolerates arriving up to tau late.
    """
    if h.age_group not in ev.age_range:
        return False
    route = planner.plan(origin, ev.location, t)
    return t + route.total_seconds <= ev.start


def decide_attendance(h: Human, ev: SocialEvent, planner, t: SimTime,
                      origin: GeoPoint):
    """Attendance choice for an activated human.

    Returns the route planned from ``origin`` when the earliest arrival
    (decision time plus travel) lands within tau of the start, else None.
    Raises EventEndedError when the decision happens after the event
    finished.
    """
    if t >= ev.end:
        raise EventEndedError(f"event {ev.id} already over at t={t}")
    route = planner.plan(origin, ev.location, t)
    if t + route.total_seconds <= ev.start + ev.tau:
        return route
    return None
