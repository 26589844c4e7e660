"""Scenario files and run manifests.

A scenario is a single YAML document with everything a run needs: the rail
network, population size, social-graph degree targets, the event list or
generator, rolling-stock settings, and the strategy block. The seed must be
explicit; there is no wall-clock fallback. The manifest written next to each
run's reports carries a hash of the parsed config, so any whitespace-only
reformatting of the YAML keeps the hash stable. Every block of the document
is checked, and its missing keys defaulted, by one table here; the code that
builds from a block reads it through ``read_block`` and coerces nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import yaml


class ConfigError(ValueError):
    """Scenario input the run cannot use; the message names the value."""


# every age group the population has
AGE_GROUPS = (1, 2, 3, 4, 5, 6)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """An int or float within the finite floats; a bool is not a number
    here."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_lat(v) -> bool:
    return _is_number(v) and -90 <= v <= 90


def _is_lon(v) -> bool:
    return _is_number(v) and -180 <= v <= 180


def _is_probability(v) -> bool:
    return _is_number(v) and 0 <= v <= 1


def _is_list(v) -> bool:
    return isinstance(v, (list, tuple))


def _is_box(v) -> bool:
    """[min_lat, min_lon, max_lat, max_lon], each minimum at most its maximum."""
    return (_is_list(v) and len(v) == 4 and _is_lat(v[0]) and _is_lon(v[1])
            and _is_lat(v[2]) and _is_lon(v[3]) and v[0] <= v[2] and v[1] <= v[3])


# (what a value must be, test) pairs the tables share
_INTEGER = ("an integer", _is_int)
_POSITIVE_INT = ("a positive integer", lambda v: _is_int(v) and v > 0)
_NON_NEGATIVE_INT = ("a non-negative integer", lambda v: _is_int(v) and v >= 0)
_POSITIVE_NUMBER = ("a positive number", lambda v: _is_number(v) and v > 0)
_PROBABILITY = ("within [0, 1]", _is_probability)
_MAPPING = ("a mapping", lambda v: isinstance(v, dict))
_STRING = ("a string", lambda v: isinstance(v, str))
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_LATITUDE = ("a latitude in [-90, 90]", _is_lat)
_LONGITUDE = ("a longitude in [-180, 180]", _is_lon)
_BOX = ("[min_lat, min_lon, max_lat, max_lon] with min <= max", _is_box)

# a default that marks a key the block must give, or one it may leave out
REQUIRED = object()
OPTIONAL = object()

# One table per block of scenario input. A row is (key, what it must be,
# test, default); read_block checks a block against its table.

SCENARIO = (
    ("seed", *_NON_NEGATIVE_INT, REQUIRED),
    ("horizon_hours", *_POSITIVE_INT, 24),
)

POPULATION = (
    ("size", *_POSITIVE_INT, 1000),
    ("margin_km", "a non-negative number", lambda v: _is_number(v) and v >= 0, 1.5),
    ("bbox", *_BOX, OPTIONAL),
)

SOCIAL = (
    ("degree_min", *_POSITIVE_INT, 1),
    ("degree_max", *_POSITIVE_INT, 30),
    ("degree_mean", *_POSITIVE_NUMBER, 3.0),
    ("constant_probability", "null or within [0, 1]",
     lambda v: v is None or _is_probability(v), None),
)

TRANSIT = (
    ("compartments", *_POSITIVE_INT, 2),
    ("road_speed_kmh", *_POSITIVE_NUMBER, 35.0),
    ("initial_capacity", *_MAPPING, OPTIONAL),
)

INITIAL_CAPACITY = (
    ("sim_daily_ridership", *_POSITIVE_NUMBER, REQUIRED),
    ("real_daily_ridership", *_POSITIVE_NUMBER, REQUIRED),
    ("real_capacity", *_POSITIVE_NUMBER, REQUIRED),
)

STRATEGY = (
    ("name", "'none' or 'greedy'", lambda v: v in ("none", "greedy"), "none"),
    ("alt_routing", *_BOOL, False),
    ("pool", *_NON_NEGATIVE_INT, 10),
    ("alt_margin_seconds", *_NON_NEGATIVE_INT, 300),
)

NETWORK = (
    ("stations", "a non-empty list", lambda v: _is_list(v) and len(v) > 0, REQUIRED),
    ("lines", "a list", _is_list, REQUIRED),
)

STATION = (
    ("id", *_INTEGER, REQUIRED),
    ("name", *_STRING, OPTIONAL),
    ("lat", *_LATITUDE, REQUIRED),
    ("lon", *_LONGITUDE, REQUIRED),
    ("platforms", *_POSITIVE_INT, 2),
)

LINE = (
    ("name", *_STRING, REQUIRED),
    ("stations", "a list of station ids", lambda v: _is_list(v) and all(map(_is_int, v)),
     REQUIRED),
    ("circular", *_BOOL, False),
    ("service", *_MAPPING, {}),
)

# The train inquiry looks at today's and tomorrow's slots. A day with no slot
# leaves every route without a departure, and a slot before midnight (a
# negative first departure) can be dispatched and gone past a station while
# today is still running, so both are refused (the first by the reader, as
# last_departure >= first_departure). From a first departure at or after
# midnight on, tomorrow's first slot is either undispatched or its train has
# not yet passed any station before today ends, so every listed route has a
# next departure; RoutePlanner.plan relies on that. A negative run or dwell
# time is refused too: trains would arrive before they leave, and the route
# planner's search needs costs that are never negative.
SERVICE = (
    ("run_seconds", *_NON_NEGATIVE_INT, 120),
    ("dwell_seconds", *_NON_NEGATIVE_INT, 30),
    ("headway_seconds", *_POSITIVE_INT, 300),
    ("first_departure", *_NON_NEGATIVE_INT, 5 * 3600),
    ("last_departure", *_NON_NEGATIVE_INT, 23 * 3600),
)

# The events block's defaults apply when it is read: DEFAULTS, and with it
# the config hash, leaves them out.
EVENTS = (
    ("poll_interval", *_POSITIVE_INT, 3600),
    ("poll_probability", *_PROBABILITY, 0.25),
    ("events", "a list", _is_list, ()),
    ("generator", "a mapping or null", lambda v: v is None or isinstance(v, dict), None),
)

EVENT = (
    ("lat", *_LATITUDE, REQUIRED),
    ("lon", *_LONGITUDE, REQUIRED),
    ("start", *_NON_NEGATIVE_INT, REQUIRED),
    ("end", *_INTEGER, REQUIRED),
    ("age_groups", "a non-empty list of age groups from 1 to 6",
     lambda v: _is_list(v) and len(v) > 0 and all(_is_int(g) and g in AGE_GROUPS for g in v),
     AGE_GROUPS),
    ("lead_seconds", *_NON_NEGATIVE_INT, 2 * 3600),
)

GENERATOR = (
    ("count", *_NON_NEGATIVE_INT, REQUIRED),
    ("bounds", *_BOX, REQUIRED),
    ("duration_min", *_POSITIVE_INT, REQUIRED),
    ("duration_max", *_INTEGER, REQUIRED),
    ("lead_min", *_NON_NEGATIVE_INT, REQUIRED),
    ("lead_max", *_INTEGER, REQUIRED),
    ("start_min", *_NON_NEGATIVE_INT, 8 * 3600),
    ("start_max", *_INTEGER, 20 * 3600),
)

# the sections a scenario merges with DEFAULTS before it is hashed
_SETTINGS = {"population": POPULATION, "social": SOCIAL, "events": EVENTS,
             "transit": TRANSIT, "strategy": STRATEGY}


def read_block(where: str, doc, table) -> dict:
    """Check the mapping ``doc`` against ``table`` and return a new dict
    with each absent key's default filled in; a bad value is a
    ``ConfigError`` naming it. ``doc`` is never written, so a checked config
    keeps its hash. Keys the table does not name pass through unchecked."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping, got {doc!r}")
    out = dict(doc)
    for key, want, ok, default in table:
        if key in doc:
            if not ok(doc[key]):
                raise ConfigError(f"{where}: {key} must be {want}, got {doc[key]!r}")
        elif default is REQUIRED:
            raise ConfigError(f"{where}: {key} is required")
        elif default is not OPTIONAL:
            out[key] = default
    return out


def _hashed_defaults(table) -> dict:
    return {key: default for key, _, _, default in table
            if default is not REQUIRED and default is not OPTIONAL}


DEFAULTS = {
    **_hashed_defaults(SCENARIO),
    **{section: _hashed_defaults(table) for section, table in _SETTINGS.items()},
    "events": {},  # see EVENTS
}


@dataclass
class ScenarioConfig:
    seed: int
    horizon_hours: int
    network: dict
    population: dict
    social: dict
    events: dict
    transit: dict
    strategy: dict

    def effective(self) -> dict:
        """The fully resolved config this run will execute."""
        return {
            "seed": self.seed,
            "horizon_hours": self.horizon_hours,
            "network": self.network,
            "population": self.population,
            "social": self.social,
            "events": self.events,
            "transit": self.transit,
            "strategy": self.strategy,
        }


def _merged(section: str, doc: dict) -> dict:
    out = dict(DEFAULTS.get(section, {}))
    val = doc.get(section)
    if val is None:
        return out
    if not isinstance(val, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    out.update(val)
    return out


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a mapping")
    if "seed" not in doc:
        raise ConfigError("seed is required (no implicit entropy)")
    if "network" not in doc or not isinstance(doc["network"], dict):
        raise ConfigError("network section is required")
    cfg = ScenarioConfig(
        seed=doc["seed"],
        horizon_hours=doc.get("horizon_hours", DEFAULTS["horizon_hours"]),
        network=doc["network"],
        population=_merged("population", doc),
        social=_merged("social", doc),
        events=_merged("events", doc),
        transit=_merged("transit", doc),
        strategy=_merged("strategy", doc),
    )
    check_settings(cfg)
    return cfg


def check_settings(cfg: ScenarioConfig) -> None:
    """Refuse a setting of the wrong type or range with a ``ConfigError``
    naming it. Values are checked, never rewritten, so a valid config keeps
    its hash. Run again after command line overrides."""
    resolved = cfg.effective()
    read_block("scenario", resolved, SCENARIO)
    for section, table in _SETTINGS.items():
        read_block(section, resolved[section], table)


def load_scenario(path: str) -> ScenarioConfig:
    if not os.path.exists(path):
        raise ConfigError(f"scenario file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = yaml.load(f, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as e:
            raise ConfigError(f"invalid YAML in {path}: {e}")
    return scenario_from_dict(doc)


def config_hash(cfg: ScenarioConfig) -> str:
    canon = json.dumps(cfg.effective(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    label: str
    start: int
    end: int
    outputs: list[str] = field(default_factory=list)

    def write(self, path: str) -> None:
        doc = {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "outputs": self.outputs,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, sort_keys=True, indent=2)
            f.write("\n")
