"""City geography: places, great-circle distances, road travel and the rail
network layout (stations, lines, per-line service parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .config import LINE, NETWORK, SERVICE, STATION, ConfigError, read_block
from .engine import SECONDS_PER_DAY, SECONDS_PER_HOUR, SimTime

EARTH_RADIUS_KM = 6371.0
# points per array pass of TransitNetwork.cache_nearest: a pass holds a few
# points-by-stations arrays, and larger ones leave a network of 87 stations
# with a higher peak RSS for the rest of the run
NEAREST_BLOCK = 256


class GeoPoint(NamedTuple):
    lat: float
    lon: float


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometres."""
    la1, lo1 = math.radians(a.lat), math.radians(a.lon)
    la2, lo2 = math.radians(b.lat), math.radians(b.lon)
    dla = la2 - la1
    dlo = lo2 - lo1
    h = math.sin(dla / 2) ** 2 + math.cos(la1) * math.cos(la2) * math.sin(dlo / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _math_map(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=len(x))


def radians_and_cos(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Points given in degrees as a (3, n) array of latitude and longitude in
    radians and the cosine of latitude, as haversine_km takes them."""
    la, lo = _math_map(math.radians, lat), _math_map(math.radians, lon)
    return np.stack([la, lo, _math_map(math.cos, la)])


def haversine_km_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """haversine_km between the columns of two ``radians_and_cos`` arrays,
    bit for bit.

    numpy's sin, arcsin and square may differ from libm's ``sin``, ``asin``
    and ``pow(x, 2.0)`` in the last bit, so those steps go through ``math``
    one value at a time; the rest is IEEE arithmetic, exact either way.
    """
    def sin_half_squared(d):
        sines = map(math.sin, (d / 2).tolist())
        return np.fromiter(map(math.pow, sines, repeat(2.0)), dtype=np.float64, count=len(d))

    h = sin_half_squared(b[0] - a[0]) + a[2] * b[2] * sin_half_squared(b[1] - a[1])
    return 2 * EARTH_RADIUS_KM * _math_map(math.asin, np.minimum(1.0, np.sqrt(h)))


@dataclass(frozen=True)
class BoundingBox:
    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def sample(self, rng) -> GeoPoint:
        return GeoPoint(
            float(rng.uniform(self.min_lat, self.max_lat)),
            float(rng.uniform(self.min_lon, self.max_lon)),
        )


def bounding_box_around(points: list[GeoPoint], margin_km: float) -> BoundingBox:
    lat_deg = margin_km / (EARTH_RADIUS_KM * math.pi / 180.0)
    mid_lat = sum(p.lat for p in points) / len(points)
    lon_deg = lat_deg / max(0.1, math.cos(math.radians(mid_lat)))
    return BoundingBox(
        min(p.lat for p in points) - lat_deg,
        min(p.lon for p in points) - lon_deg,
        max(p.lat for p in points) + lat_deg,
        max(p.lon for p in points) + lon_deg,
    )


class RoadRouter:
    """Point-to-point road travel at a flat speed over the crow-flies path."""

    def __init__(self, speed_kmh: float):
        if speed_kmh <= 0:
            raise ValueError(f"road speed must be positive: {speed_kmh}")
        self.speed_kmh = speed_kmh

    def seconds(self, km: float) -> int:
        """Whole seconds to cover ``km`` of road."""
        return int(round(km / self.speed_kmh * 3600.0))

    def travel_seconds(self, a: GeoPoint, b: GeoPoint) -> int:
        return self.seconds(haversine_km(a, b))


class DanglingReferenceError(ConfigError):
    """Config references an entity that does not exist."""


class InvariantViolationError(ConfigError):
    """A structural network invariant fails; message names the element."""


@dataclass
class Station:
    id: int
    name: str
    point: GeoPoint
    platform_count: int = 2

    def __post_init__(self):
        if self.platform_count < 1:
            raise InvariantViolationError(f"station {self.id}: platform_count must be >= 1")


@dataclass
class LineService:
    """Per-line service parameters, all in seconds."""

    run_seconds: int          # station-to-station travel
    dwell_seconds: int        # halt at each intermediate station
    headway_seconds: int      # departure interval from each terminal
    first_departure: int      # seconds-of-day of the first terminal departure
    last_departure: int       # seconds-of-day of the last terminal departure


@dataclass
class TransitLine:
    """An ordered run of stations served in both directions.

    Direction ``+1`` walks ``stations`` forward (index 0 is the up terminal),
    ``-1`` walks it backward. Circular lines close the loop from the last
    station back to the first; each run on a loop goes once round from the
    anchor at index 0 back to it. Each direction's run is laid out once, at
    construction: its stops from the terminal, with a loop's anchor first and
    last, and each station's position on it. ``station_ids`` must not change
    after construction.
    """

    name: str
    station_ids: list[int]
    service: LineService
    circular: bool = False

    def __post_init__(self):
        if len(self.station_ids) < 2:
            raise InvariantViolationError(f"line {self.name!r} needs at least 2 stations")
        if len(set(self.station_ids)) != len(self.station_ids):
            raise InvariantViolationError(f"line {self.name!r} visits a station twice")
        ids = self.station_ids
        # direction -> (the run's stops, station -> position on the run)
        self._runs: dict[int, tuple[tuple[int, ...], dict[int, int]]] = {}
        for d in (+1, -1):
            stops = ids[:1] + ids[1:][::d] + ids[:1] if self.circular else ids[::d]
            self._runs[d] = tuple(stops), {sid: i for i, sid in enumerate(stops[:self.n])}

    @property
    def n(self) -> int:
        return len(self.station_ids)

    @property
    def run_hops(self) -> int:
        """Hops in one run: ``n - 1`` on a linear line, ``n`` on a loop."""
        return len(self._runs[+1][0]) - 1

    def position(self, station_id: int, direction: int) -> int:
        """Hops from ``terminal(direction)`` to the station on a run."""
        try:
            return self._runs[direction][1][station_id]
        except KeyError:
            raise ValueError(f"station {station_id} is not on line {self.name!r}") from None

    def terminal(self, direction: int) -> int:
        return self._runs[direction][0][0]

    def next_station(self, station_id: int, direction: int) -> Optional[int]:
        """Following stop in the given direction, None past the end of the line."""
        stops = self._runs[direction][0]
        i = self.position(station_id, direction) + 1
        return stops[i] if i < len(stops) else None

    def hops(self, a: int, b: int, direction: int) -> Optional[int]:
        """Stops travelled from a to b in the given direction, None if unreachable."""
        k = self.position(b, direction) - self.position(a, direction)
        if self.circular:
            return k % self.n
        return k if k >= 0 else None

    def reaches(self, source: int, dest: int, direction: int) -> bool:
        """Whether one run in the direction leaves ``source`` and later
        stops at ``dest``; on a loop the anchor is a run's last stop as well
        as its first, but no run goes from a station back to it."""
        stops, at = self._runs[direction]
        start = at.get(source)
        end = len(stops) - 1 if dest == stops[-1] else at.get(dest, -1)
        return start is not None and source != dest and start < end

    def path(self, direction: int) -> list[int]:
        """One run's stops, from ``terminal(direction)``."""
        return list(self._runs[direction][0])

    def ride_seconds(self, a: int, b: int, direction: int) -> int:
        """Scheduled seconds aboard from a to b in the given direction: one
        run per hop and a dwell at every stop in between."""
        k = self.hops(a, b, direction)
        return k * self.service.run_seconds + max(0, k - 1) * self.service.dwell_seconds

    def slots(self, day: int) -> range:
        """The day's terminal departures ``first + k * headway <= last``."""
        svc = self.service
        base = day * SECONDS_PER_DAY
        return range(base + svc.first_departure, base + svc.last_departure + 1, svc.headway_seconds)

    def hourly_slots(self) -> list[int]:
        """Slots per clock hour, the same every day; one outside its day counts in none."""
        hours = [slot // SECONDS_PER_HOUR for slot in self.slots(0) if 0 <= slot < SECONDS_PER_DAY]
        return [hours.count(hour) for hour in range(24)]

    def pass_offset(self, station_id: int, direction: int) -> int:
        """Seconds from a run's slot to its departure from the station."""
        svc = self.service
        return self.position(station_id, direction) * (svc.run_seconds + svc.dwell_seconds)

    def last_pass(self, station_id: int, direction: int, day: int) -> SimTime:
        """Scheduled departure from the station of the day's last run."""
        return (day * SECONDS_PER_DAY + self.service.last_departure
                + self.pass_offset(station_id, direction))

    def one_way_seconds(self) -> int:
        """Terminal-to-terminal time (full loop time for circular lines)."""
        if self.circular:
            return self.n * (self.service.run_seconds + self.service.dwell_seconds)
        return self.ride_seconds(self.station_ids[0], self.station_ids[-1], +1)


class UnknownStationError(KeyError):
    pass


class TransitNetwork:
    def __init__(self, stations: list[Station], lines: list[TransitLine]):
        self.stations: dict[int, Station] = {}
        for st in stations:
            if st.id in self.stations:
                raise InvariantViolationError(f"duplicate station id {st.id}")
            self.stations[st.id] = st
        self.lines: dict[str, TransitLine] = {}
        for line in lines:
            if line.name in self.lines:
                raise InvariantViolationError(f"duplicate line {line.name!r}")
            for sid in line.station_ids:
                if sid not in self.stations:
                    raise DanglingReferenceError(f"line {line.name!r} references unknown station {sid}")
            self.lines[line.name] = line
        # station -> names of the lines serving it
        self.memberships: dict[int, list[str]] = {sid: [] for sid in self.stations}
        for line in self.lines.values():
            for sid in line.station_ids:
                self.memberships[sid].append(line.name)
        # station -> [(line, direction)] with a next stop from that station
        self._routes: dict[int, list[tuple[str, int]]] = {
            sid: [(name, d) for name in ms for d in (+1, -1)
                  if self.lines[name].next_station(sid, d) is not None]
            for sid, ms in self.memberships.items()}
        self._ordered_ids = sorted(self.stations)
        # point -> (nearest station, km to it)
        self._nearest: dict[GeoPoint, tuple[Station, float]] = {}
        # latitude and longitude in radians and cos-latitude per station in id order
        points = [self.stations[sid].point for sid in self._ordered_ids]
        self._where = radians_and_cos(np.array([p.lat for p in points]),
                                      np.array([p.lon for p in points]))

    def station(self, station_id: int) -> Station:
        try:
            return self.stations[station_id]
        except KeyError:
            raise UnknownStationError(f"unknown station {station_id}") from None

    def routes_at(self, station_id: int) -> list[tuple[str, int]]:
        """(line, direction) routes that leave the station for a next stop."""
        return self._routes[station_id]

    def nearest_station(self, point: GeoPoint) -> tuple[Station, float]:
        """The station closest to ``point`` by great-circle distance, ties to
        the lower id, and ``haversine_km(point, station.point)``.

        Answers come from a cache keyed by the point's value:
        ``cache_nearest`` sets it to a day's trip ends, every human's place
        and every venue as the day begins, and any other point joins it on
        its first lookup. Stations must not be added, removed or moved after
        construction.
        """
        hit = self._nearest.get(point)
        if hit is None:
            self._look_up([point])
            hit = self._nearest[point]
        return hit

    def cache_nearest(self, points: list[GeoPoint]) -> None:
        """Make the cache hold ``points`` alone: answers already held are
        kept, the rest looked up, and every other entry dropped."""
        held = self._nearest
        self._nearest = {p: held[p] for p in points if p in held}
        self._look_up(points)

    def _look_up(self, points: list[GeoPoint]) -> None:
        """Cache every point not in the cache yet, in blocks of
        ``NEAREST_BLOCK``, as a full scan with haversine_km and a strict
        ``<`` in id order would find each.

        Distance grows with the haversine term h, so numpy's h for every
        station keeps those within a relative 1e-9 of the least (numpy's sin
        may differ from math.sin in the last bits), and the exact scalar
        haversine_km breaks ties among those. The km to the station found is
        ``haversine_km_array``'s, which is haversine_km's bit for bit.
        """
        cache = self._nearest
        todo = list(dict.fromkeys(p for p in points if p not in cache))
        ids, lat, lon, cos_lat = self._ordered_ids, *self._where
        for start in range(0, len(todo), NEAREST_BLOCK):
            block = todo[start:start + NEAREST_BLOCK]
            at = radians_and_cos(np.array([p.lat for p in block]),
                                 np.array([p.lon for p in block]))
            la, lo, cos_la = at[:, :, None]
            h = (np.sin((lat - la) / 2) ** 2
                 + cos_la * cos_lat * np.sin((lon - lo) / 2) ** 2)
            near = h <= h.min(axis=1, keepdims=True) * (1 + 1e-9)
            best = near.argmax(axis=1)
            for row in np.flatnonzero(near.sum(axis=1) > 1).tolist():
                best_d = math.inf
                for i in np.flatnonzero(near[row]).tolist():
                    d = haversine_km(block[row], self.stations[ids[i]].point)
                    if d < best_d:
                        best_d, best[row] = d, i
            km = haversine_km_array(at, self._where[:, best])
            for p, i, d in zip(block, best.tolist(), km.tolist()):
                cache[p] = (self.stations[ids[i]], d)


def network_from_dict(doc: dict) -> TransitNetwork:
    """Build a network from the parsed scenario mapping, each block checked,
    and its defaults filled in, by its table in ``config``."""
    doc = read_block("network", doc, NETWORK)
    stations = []
    for i, s in enumerate(doc["stations"]):
        s = read_block(f"network.stations[{i}]", s, STATION)
        stations.append(Station(id=s["id"], name=s.get("name", f"S{s['id']}"),
                                point=GeoPoint(s["lat"], s["lon"]),
                                platform_count=s["platforms"]))
    lines = []
    for i, l in enumerate(doc["lines"]):
        l = read_block(f"network.lines[{i}]", l, LINE)
        svc = read_block(f"line {l['name']!r} service", l["service"], SERVICE)
        if svc["last_departure"] < svc["first_departure"]:
            raise ConfigError(f"line {l['name']!r}: no departure between first_departure "
                              f"{svc['first_departure']} and last_departure "
                              f"{svc['last_departure']}")
        lines.append(TransitLine(
            name=l["name"], station_ids=list(l["stations"]), circular=l["circular"],
            service=LineService(run_seconds=svc["run_seconds"],
                                dwell_seconds=svc["dwell_seconds"],
                                headway_seconds=svc["headway_seconds"],
                                first_departure=svc["first_departure"],
                                last_departure=svc["last_departure"])))
    return TransitNetwork(stations, lines)
