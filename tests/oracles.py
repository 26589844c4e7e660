"""Reference implementations the tests compare the program against.

Each is the plain, one-draw-at-a-time form of something the program does in
bulk or as it goes: the keyed uniform is one draw of
``keyed_uniform_batch``, the population and the follow targets read the same
sequential named streams one human at a time, the trial batch replays many
cascades by live-edge reachability, and the ridership rebuild works out a
day's forecast from the attendee sets the transport manager counts as each
attendee commits.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import islice
from typing import Iterable

import numpy as np

from transitsim.city import EARTH_RADIUS_KM, BoundingBox, GeoPoint, haversine_km
from transitsim.engine import (SECONDS_PER_DAY, SECONDS_PER_HOUR, RngStreams, _name_key,
                               keyed_uniform_batch, mix64)
from transitsim.population import (AGE_GROUP_SHARES, CATEGORIES, CATEGORY_AGE_GROUPS,
                                   CATEGORY_WEIGHTS, HOME_MAKER, OTHER_RADIUS_KM, STUDENT,
                                   WORKING_PROFESSIONAL, Human)
from transitsim.social import SocialGraph
from transitsim.transit import RidershipEstimate, TransportManager, attendee_source_point


def keyed_uniform(streams: RngStreams, name: str, *key: int) -> float:
    """The stateless draw of stream ``name`` addressed by integers (human
    id, tick, ...), independent of dispatch order."""
    h = mix64(streams.seed, _name_key(name), *key)
    return (h >> 11) * 2.0**-53


def weighted_index(rng, weights) -> int:
    u = rng.random() * sum(weights)
    acc = 0.0
    for i, x in enumerate(weights):
        acc += x
        if u < acc:
            return i
    return len(weights) - 1


def random_point_within(rng, center: GeoPoint, radius_km: float) -> GeoPoint:
    """Uniform point in the great-circle disc around ``center``, by
    rejection sampling in the enclosing lat/lon box."""
    lat_deg = radius_km / (EARTH_RADIUS_KM * math.pi / 180.0)
    lon_deg = lat_deg / max(0.1, math.cos(math.radians(center.lat)))
    while True:
        p = GeoPoint(
            center.lat + float(rng.uniform(-lat_deg, lat_deg)),
            center.lon + float(rng.uniform(-lon_deg, lon_deg)),
        )
        if haversine_km(center, p) <= radius_km:
            return p


def generate_population(n: int, bbox: BoundingBox, streams: RngStreams) -> list[Human]:
    """``population.generate_population``, one scalar draw at a time."""
    if n < 0:
        raise ValueError(f"population size must be non-negative: {n}")
    w = [CATEGORY_WEIGHTS[c] for c in CATEGORIES]
    rng = streams.generator("population")
    humans = []
    for i in range(n):
        cat = CATEGORIES[weighted_index(rng, w)]
        allowed = CATEGORY_AGE_GROUPS[cat]
        age_w = [AGE_GROUP_SHARES[g] for g in allowed]
        age = allowed[weighted_index(rng, age_w)]
        home = bbox.sample(rng)
        office = bbox.sample(rng) if cat == WORKING_PROFESSIONAL else None
        school = bbox.sample(rng) if cat == STUDENT else None
        shop = random_point_within(rng, home, OTHER_RADIUS_KM) if cat == HOME_MAKER else None
        humans.append(Human(i, cat, age, home, office, school, shop))
    return humans


def draw_targets(gen, n: int, x: int, want: int) -> tuple[list[int], int]:
    """First ``want`` distinct uniform draws over [0, n) minus x, sorted,
    and the number of batches drawn for them."""
    kept: dict[int, None] = {}  # distinct, in draw order
    batches = 0
    while len(kept) < want:
        batch = gen.integers(0, n, size=(want - len(kept)) + max(8, want // 16))
        batches += 1
        kept.update(dict.fromkeys(batch.tolist()))
        kept.pop(x, None)
    return sorted(islice(kept, want)), batches


def follow_targets(gen, n: int, degrees: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """``social._follow_targets``, one follower at a time, and the
    followers whose first batch fell short."""
    posters, short = [], []
    for x, want in enumerate(degrees.tolist()):
        targets, batches = draw_targets(gen, n, x, want)
        posters += targets
        if batches > 1:
            short.append(x)
    return np.array(posters, dtype=np.int64), short


def cascade_trial_batch(graph: SocialGraph, seeds: Iterable[int], trials: int,
                        streams: RngStreams, event_key_base: int = 0,
                        return_masks: bool = False):
    """Per-node activation counts over Monte-Carlo cascades.

    Trial t replays exactly ``cascade(graph, seeds, event_key_base + t,
    streams)``: same coins, same result, just evaluated for all trials at
    once via live-edge reachability. Needs a graph small enough for bitmask
    state (≤ 63 nodes). Returns an (n,) array of activation counts, plus the
    per-trial node bitmasks when asked.
    """
    n = graph.n
    if n > 63:
        raise ValueError("bitmask trial batch supports at most 63 nodes")
    seed_mask = np.uint64(0)
    for s in seeds:
        seed_mask |= np.uint64(1) << np.uint64(s)
    t_keys = np.arange(trials, dtype=np.uint64) + np.uint64(event_key_base)
    # open[e, t]: edge e's coin succeeds in trial t
    posters = np.repeat(np.arange(n), np.diff(graph.indptr))
    edges = list(zip(posters.tolist(), graph.follower_ids.tolist(), graph.edge_probs.tolist()))
    opens = []
    for poster, follower, p in edges:
        u = keyed_uniform_batch(streams, "cascade", (), t_keys, suffix=(poster, follower))
        opens.append(u < p)
    active = np.full(trials, seed_mask, dtype=np.uint64)
    for _ in range(n):
        prev = active
        for (poster, follower, _), open_e in zip(edges, opens):
            fires = ((active >> np.uint64(poster)) & np.uint64(1)).astype(bool) & open_e
            active = active | np.where(fires, np.uint64(1) << np.uint64(follower), np.uint64(0))
        if np.array_equal(active, prev):
            break
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        counts[i] = int((((active >> np.uint64(i)) & np.uint64(1)) != 0).sum())
    if return_masks:
        return counts, active
    return counts


def rebuild_estimate(manager: TransportManager, day: int, attendee_sets,
                     humans: list[Human]) -> RidershipEstimate:
    """``TransportManager.estimate_ridership`` as a whole-day rebuild.

    ``attendee_sets`` pairs each event with the ids of humans planning to
    attend. Per hour of the day the event runs, each attendee contributes
    one rider from the station nearest its estimated source location to the
    station nearest the event, counted on every route one of whose runs
    passes the source and then reaches the destination. The baseline is the
    same hour of the previous day's token issues, split evenly over the
    routes serving each issuing station.
    """
    network = manager.network
    est = RidershipEstimate(departures=manager.departures)
    if day > 0:
        for (sid, abs_hour), count in manager.issue_history.items():
            if abs_hour // 24 != day - 1:
                continue
            routes = network.routes_at(sid)
            if not routes:
                continue
            share = count / len(routes)
            for line_name, d in routes:
                key = (line_name, d, abs_hour % 24)
                est.baseline[key] = est.baseline.get(key, 0.0) + share
    for hour in range(24):
        lo = day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR
        hi = lo + SECONDS_PER_HOUR
        for event, attendees in attendee_sets:
            if not (event.start < hi and event.end > lo):
                continue
            dest = network.nearest_station(event.location)[0].id
            sources = Counter(
                network.nearest_station(attendee_source_point(humans[hid], hour))[0].id
                for hid in attendees)
            for line_name, line in network.lines.items():
                for d in (+1, -1):
                    count = sum(c for s, c in sources.items() if line.reaches(s, dest, d))
                    if count:
                        key = (line_name, d, hour)
                        est.delta[key] = est.delta.get(key, 0) + count
    return est
