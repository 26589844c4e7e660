"""Synthetic population: category and age mix, per-human contact points, and
the category-specific daily trip plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .city import (EARTH_RADIUS_KM, BoundingBox, GeoPoint, haversine_km, haversine_km_array,
                   radians_and_cos)
from .engine import SECONDS_PER_DAY, RngStreams, SimTime, hms, keyed_uniform_batch

WORKING_PROFESSIONAL = "working-professional"
STUDENT = "student"
HOME_MAKER = "home-maker"
SENIOR_CITIZEN = "senior-citizen"

CATEGORIES = (WORKING_PROFESSIONAL, STUDENT, HOME_MAKER, SENIOR_CITIZEN)

CATEGORY_WEIGHTS = {
    WORKING_PROFESSIONAL: 0.40,
    STUDENT: 0.30,
    HOME_MAKER: 0.15,
    SENIOR_CITIZEN: 0.15,
}

# population share of each age group (percent)
AGE_GROUP_SHARES = {1: 13.6, 2: 18.2, 3: 25.1, 4: 25.0, 5: 9.9, 6: 8.1}

# age groups a category can fall in; shares above are renormalized over these
CATEGORY_AGE_GROUPS = {
    STUDENT: (1, 2),
    WORKING_PROFESSIONAL: (2, 3, 4, 5),
    HOME_MAKER: (3, 4, 5),
    SENIOR_CITIZEN: (6,),
}

OTHER_RADIUS_KM = 5.0       # "other" and home-maker shop: within this of home
RESTAURANT_RADIUS_KM = 1.0  # lunch restaurant: within this of office


@dataclass(slots=True)
class Human:
    id: int
    category: str
    age_group: int
    home: GeoPoint
    office: Optional[GeoPoint] = None
    school: Optional[GeoPoint] = None
    shop: Optional[GeoPoint] = None


@dataclass(slots=True)
class Trip:
    human_id: int
    origin_kind: str
    dest_kind: str
    window_start: SimTime  # seconds-of-day
    window_end: SimTime
    chosen_start: SimTime  # absolute sim time
    origin: GeoPoint
    dest: GeoPoint


def generate_population(n: int, bbox: BoundingBox, streams: RngStreams) -> list[Human]:
    """Draw ``n`` humans with seeded category, age and contact points.

    Each human reads the ``"population"`` stream in turn: a category draw and
    an age draw (a uniform times the weights' total, against their running
    sums), home (lat, lon) uniform in ``bbox``, then an office or school
    (lat, lon) in ``bbox`` for a working professional or a student, or a shop
    for a home-maker, drawn by rejection from the lat/lon box around the
    5 km great-circle disc about home. A coordinate drawn in [lo, hi] is
    ``lo + (hi - lo) * u``, as ``BoundingBox.sample`` draws it. The stream
    is read in blocks of ``_BLOCK`` humans, never past the last double the
    population uses, and turned into humans by array passes.
    """
    if n < 0:
        raise ValueError(f"population size must be non-negative: {n}")
    rng = streams.generator("population")
    humans: list[Human] = []
    for lo in range(0, n, _BLOCK):
        humans += _draw_humans(rng, bbox, lo, min(lo + _BLOCK, n))
    return humans


# humans per array pass of generate_population
_BLOCK = 2048

# categories with an office or a school drawn in bbox after home: they read 6
# doubles (category, age, home, the other place), the rest 4, and a
# home-maker 2 more per shop attempt
_SECOND_PLACE = {WORKING_PROFESSIONAL: "office", STUDENT: "school"}
_READS = [6 if c in _SECOND_PLACE else 4 for c in CATEGORIES]
_HOME_MAKER = CATEGORIES.index(HOME_MAKER)
# half the height of the lat/lon box about home that a shop is drawn from
_SHOP_DLAT = OTHER_RADIUS_KM / (EARTH_RADIUS_KM * math.pi / 180.0)


def _pick(u: np.ndarray, weights) -> np.ndarray:
    """The index each uniform in ``u`` picks over ``weights``: the first whose
    running sum exceeds the uniform times the weights' total, else the last."""
    sums = np.array(list(accumulate(weights)))
    return np.minimum(np.searchsorted(sums, u * sums[-1], side="right"), len(sums) - 1)


def _category_codes(u: np.ndarray) -> np.ndarray:
    return _pick(u, [CATEGORY_WEIGHTS[c] for c in CATEGORIES])


def _draw_humans(rng, bbox: BoundingBox, lo: int, hi: int) -> list[Human]:
    """Humans ``lo`` to ``hi - 1``, drawn from the stream's next doubles.

    A walk over the humans finds where each one's doubles start, from the
    category its first double picks and its shop attempts; array passes then
    read every category, age group and place from those offsets.
    """
    count = hi - lo
    u = rng.random(4 * count)  # every human reads at least 4
    codes = _category_codes(u).tolist()  # the category of a human starting there
    lat0, lon0 = float(bbox.min_lat), float(bbox.min_lon)
    d_lat, d_lon = float(bbox.max_lat) - lat0, float(bbox.max_lon) - lon0

    def draw_up_to(sure: int) -> None:
        # the walk reads past the doubles drawn: draw up to ``sure``, what the
        # population is sure to read, and never more
        nonlocal u
        more = rng.random(sure - len(u))
        u = np.concatenate((u, more))
        codes.extend(_category_codes(more).tolist())

    starts = []
    shops = []
    pos = 0
    for later in range(count - 1, -1, -1):
        if pos + 4 > len(u):
            draw_up_to(pos + 4 + 4 * later)
        starts.append(pos)
        if codes[pos] != _HOME_MAKER:
            pos += _READS[codes[pos]]
            continue
        home = GeoPoint(lat0 + d_lat * float(u[pos + 2]), lon0 + d_lon * float(u[pos + 3]))
        box_lon = _SHOP_DLAT / max(0.1, math.cos(math.radians(home.lat)))
        pos += 4
        while True:
            if pos + 2 > len(u):
                draw_up_to(pos + 2 + 4 * later)
            shop = GeoPoint(home.lat + (-_SHOP_DLAT + 2 * _SHOP_DLAT * float(u[pos])),
                            home.lon + (-box_lon + 2 * box_lon * float(u[pos + 1])))
            pos += 2
            if haversine_km(home, shop) <= OTHER_RADIUS_KM:
                break
        shops.append(shop)
    if pos > len(u):
        draw_up_to(pos)  # the last human's office or school
    at = np.array(starts, dtype=np.intp)
    cats = _category_codes(u[at])
    ages = np.empty(count, dtype=np.int64)
    for c, cat in enumerate(CATEGORIES):
        mine = np.flatnonzero(cats == c)
        groups = CATEGORY_AGE_GROUPS[cat]
        ages[mine] = np.array(groups)[_pick(u[at[mine] + 1], [AGE_GROUP_SHARES[g] for g in groups])]

    def points(first: np.ndarray) -> list[GeoPoint]:
        # (lat, lon) in bbox from the doubles at ``first`` and ``first + 1``
        lat = lat0 + d_lat * u[first]
        lon = lon0 + d_lon * u[first + 1]
        return list(map(GeoPoint, lat.tolist(), lon.tolist()))

    places = {kind: [None] * count for kind in ("office", "school", "shop")}
    for cat, kind in _SECOND_PLACE.items():
        mine = np.flatnonzero(cats == CATEGORIES.index(cat))
        for j, p in zip(mine.tolist(), points(at[mine] + 4)):
            places[kind][j] = p
    for j, shop in zip(np.flatnonzero(cats == _HOME_MAKER).tolist(), shops):
        places["shop"][j] = shop
    return list(map(Human, range(lo, hi), [CATEGORIES[c] for c in cats.tolist()], ages.tolist(),
                    points(at + 2), places["office"], places["school"], places["shop"]))


@dataclass(frozen=True)
class TripPair:
    """An outbound leg and its return; the return never starts first."""

    out_kinds: tuple[str, str]
    out_window: tuple[SimTime, SimTime]
    ret_kinds: tuple[str, str]
    ret_window: tuple[SimTime, SimTime]
    optional: bool  # pair happens with probability 0.5, else neither leg runs


TRIP_TABLE: dict[str, list[TripPair]] = {
    WORKING_PROFESSIONAL: [
        TripPair(("home", "office"), (hms(7, 30), hms(9, 30)),
                 ("office", "home"), (hms(17, 30), hms(20, 0)), False),
        TripPair(("office", "restaurant"), (hms(12, 0), hms(13, 0)),
                 ("restaurant", "office"), (hms(12, 30), hms(13, 30)), False),
    ],
    STUDENT: [
        TripPair(("home", "school"), (hms(7, 0), hms(8, 0)),
                 ("school", "home"), (hms(13, 30), hms(14, 30)), False),
        TripPair(("home", "other"), (hms(18, 30), hms(20, 30)),
                 ("other", "home"), (hms(18, 30), hms(20, 30)), False),
    ],
    HOME_MAKER: [
        TripPair(("home", "shop"), (hms(9, 0), hms(11, 0)),
                 ("shop", "home"), (hms(9, 30), hms(11, 30)), False),
        TripPair(("home", "shop"), (hms(18, 0), hms(20, 0)),
                 ("shop", "home"), (hms(18, 30), hms(21, 0)), True),
    ],
    SENIOR_CITIZEN: [
        TripPair(("home", "other"), (hms(7, 0), hms(9, 0)),
                 ("other", "home"), (hms(8, 30), hms(10, 0)), True),
        TripPair(("home", "other"), (hms(17, 0), hms(18, 30)),
                 ("other", "home"), (hms(17, 30), hms(19, 30)), True),
    ],
}


# Keyed draw indices of one human's day: each pair slot of the trip table has
# a block of its own, holding the optional coin, the outbound and return start
# draws, and a fixed budget of (lat, lon) rejection draws for a place drawn
# that day.
PAIRS_PER_DAY = 2                      # every category has two pairs
POINT_BUDGET = 4                       # rejection attempts drawn in the batch
DRAWS_PER_PAIR = 3 + 2 * POINT_BUDGET


def daily_trips(humans: Sequence[Human], day: int, streams: RngStreams,
                until: Optional[SimTime] = None) -> list[Trip]:
    """Every human's trips for one day, resolved down to concrete points, by
    human in the order given and by start time within a human; trips that
    would start after ``until`` are left out.

    Every draw is the keyed uniform of stream "trips" at the key ``(h.id,
    day, k)`` for a fixed draw index k, so a human's plan is independent of
    anything else that happened in the run and of who else is in the batch.
    Each draw index is one ``keyed_uniform_batch`` call over the humans
    (over those still rejecting, for the place draws), and a start in the
    window [lo, hi] is ``lo + floor(u * (hi - lo + 1))``.
    """
    ids = np.array([h.id for h in humans], dtype=np.uint64)
    cats = np.array([CATEGORIES.index(h.category) for h in humans], dtype=np.intp)
    base = day * SECONDS_PER_DAY
    last = np.iinfo(np.int64).max if until is None else until

    def per_human(values):
        return np.array(values)[cats]

    def draw(k):
        return keyed_uniform_batch(streams, "trips", (), ids, suffix=(day, k))

    slots = []
    for j in range(PAIRS_PER_DAY):
        pairs = [TRIP_TABLE[c][j] for c in CATEGORIES]
        k = j * DRAWS_PER_PAIR
        keep = ~per_human([p.optional for p in pairs]) | (draw(k) < 0.5)
        out_lo = per_human([p.out_window[0] for p in pairs])
        out_hi = per_human([p.out_window[1] for p in pairs])
        t_out = out_lo + (draw(k + 1) * (out_hi - out_lo + 1)).astype(np.int64)
        lo = np.maximum(per_human([p.ret_window[0] for p in pairs]), t_out + 1)
        hi = np.maximum(per_human([p.ret_window[1] for p in pairs]), lo)
        t_ret = lo + (draw(k + 2) * (hi - lo + 1)).astype(np.int64)
        kept = np.flatnonzero(keep & (base + t_out <= last))
        places = _destinations(humans, kept, j, ids, day, k + 3, streams)
        slots.append((pairs, places, base + t_out, base + t_ret))
    trips: list[Trip] = []
    for i, (h, c) in enumerate(zip(humans, cats.tolist())):
        mine = []
        for pairs, places, t_out, t_ret in slots:
            b = places[i]
            if b is None:
                continue
            pair = pairs[c]
            # every outbound leg leaves a place the human keeps (home, office)
            a = getattr(h, pair.out_kinds[0])
            mine.append(Trip(h.id, *pair.out_kinds, *pair.out_window, int(t_out[i]), a, b))
            if t_ret[i] <= last:
                mine.append(Trip(h.id, *pair.ret_kinds, *pair.ret_window, int(t_ret[i]), b, a))
        mine.sort(key=attrgetter("chosen_start"))
        trips += mine
    return trips


def _fixed_place(h: Human, kind: str) -> Optional[GeoPoint]:
    """A contact point the human keeps, or None for a place drawn each day."""
    if kind in ("home", "office", "school"):
        return getattr(h, kind)
    if kind == "shop":
        # home-makers keep one fixed shop; anyone else improvises nearby
        return h.shop
    if kind in ("restaurant", "other"):
        return None
    raise ValueError(f"unknown place kind {kind!r}")


def _destinations(humans: Sequence[Human], kept: np.ndarray, j: int, ids: np.ndarray,
                  day: int, k0: int, streams: RngStreams) -> list[Optional[GeoPoint]]:
    """Outbound destination of pair slot j for each kept human index (None
    for the others): the kept contact point, or a uniform point in the
    great-circle disc around one (a restaurant near the office, anything
    else near home), drawn by rejection from the disc's lat/lon box at draw
    indices k0 on, as ``random_point_within`` draws it."""
    places: list[Optional[GeoPoint]] = [None] * len(humans)
    drawn: list[int] = []
    centres: list[GeoPoint] = []
    radii: list[float] = []
    for i in kept.tolist():
        h = humans[i]
        kind = TRIP_TABLE[h.category][j].out_kinds[1]
        place = _fixed_place(h, kind)
        if place is not None:
            places[i] = place
        elif kind == "restaurant":
            drawn.append(i)
            centres.append(h.office)
            radii.append(RESTAURANT_RADIUS_KM)
        else:
            drawn.append(i)
            centres.append(h.home)
            radii.append(OTHER_RADIUS_KM)
    count = len(drawn)
    drawn_ids = ids[drawn]
    c_lat = np.fromiter((c.lat for c in centres), float, count)
    c_lon = np.fromiter((c.lon for c in centres), float, count)
    centre = radians_and_cos(c_lat, c_lon)
    r = np.array(radii)
    # the box random_point_within rejects from, with math's cosine
    d_lat = r / (EARTH_RADIUS_KM * math.pi / 180.0)
    d_lon = d_lat / np.maximum(0.1, centre[2])
    pending = np.arange(count)
    n = 0
    while len(pending):
        # attempt n // 2 draws (lat, lon) at indices k0 + n and k0 + n + 1
        # within the budget, at keys (k0, n) and (k0, n + 1) beyond it
        keys = ([(day, k0 + n), (day, k0 + n + 1)] if n < 2 * POINT_BUDGET
                else [(day, k0, n), (day, k0, n + 1)])
        u_lat, u_lon = (keyed_uniform_batch(streams, "trips", (), drawn_ids[pending], suffix=key)
                        for key in keys)
        n += 2
        lat = c_lat[pending] + (-d_lat[pending] + 2 * d_lat[pending] * u_lat)
        lon = c_lon[pending] + (-d_lon[pending] + 2 * d_lon[pending] * u_lon)
        inside = haversine_km_array(centre[:, pending], radians_and_cos(lat, lon)) <= r[pending]
        for m, la, lo in zip(pending[inside].tolist(), lat[inside].tolist(), lon[inside].tolist()):
            places[drawn[m]] = GeoPoint(la, lo)
        pending = pending[~inside]
    return places
