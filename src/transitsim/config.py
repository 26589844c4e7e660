"""Scenario files and run manifests.

A scenario is a single YAML document with everything a run needs: the rail
network, population size, social-graph degree targets, the event list or
generator, rolling-stock settings, and the strategy block. The seed must be
explicit; there is no wall-clock fallback. The manifest written next to each
run's reports carries a hash of the parsed config, so any whitespace-only
reformatting of the YAML keeps the hash stable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import yaml


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "horizon_hours": 24,
    "population": {"size": 1000, "margin_km": 1.5},
    "social": {"degree_min": 1, "degree_max": 30, "degree_mean": 3.0,
               "constant_probability": None},
    "events": {},
    "transit": {"compartments": 2, "road_speed_kmh": 35.0},
    "strategy": {"name": "none", "alt_routing": False, "pool": 10,
                 "alt_margin_seconds": 300},
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_box(v) -> bool:
    """[min_lat, min_lon, max_lat, max_lon], each minimum at most its maximum."""
    return (isinstance(v, (list, tuple)) and len(v) == 4 and all(map(_is_number, v))
            and v[0] <= v[2] and v[1] <= v[3])


# (section or None for the top level, key, what it must be, test); a key
# absent from its section is left to the code that reads it
_SETTINGS = (
    (None, "seed", "a non-negative integer", lambda v: _is_int(v) and v >= 0),
    (None, "horizon_hours", "a positive integer", lambda v: _is_int(v) and v > 0),
    ("population", "size", "a positive integer", lambda v: _is_int(v) and v > 0),
    ("population", "margin_km", "a non-negative number", lambda v: _is_number(v) and v >= 0),
    ("population", "bbox", "[min_lat, min_lon, max_lat, max_lon] with min <= max", _is_box),
    ("social", "degree_min", "an integer", _is_int),
    ("social", "degree_max", "an integer", _is_int),
    ("social", "degree_mean", "a number", _is_number),
    ("social", "constant_probability", "null or within [0, 1]",
     lambda v: v is None or (_is_number(v) and 0 <= v <= 1)),
    ("events", "poll_interval", "a positive integer", lambda v: _is_int(v) and v > 0),
    ("events", "poll_probability", "within [0, 1]", lambda v: _is_number(v) and 0 <= v <= 1),
    ("transit", "compartments", "a positive integer", lambda v: _is_int(v) and v > 0),
    ("transit", "road_speed_kmh", "a positive number", lambda v: _is_number(v) and v > 0),
    ("strategy", "name", "'none' or 'greedy'", lambda v: v in ("none", "greedy")),
    ("strategy", "alt_routing", "true or false", lambda v: isinstance(v, bool)),
    ("strategy", "pool", "a non-negative integer", lambda v: _is_int(v) and v >= 0),
    ("strategy", "alt_margin_seconds", "a non-negative integer",
     lambda v: _is_int(v) and v >= 0),
)


def check_settings(cfg: ScenarioConfig) -> None:
    """Refuse a scalar setting of the wrong type or range with a
    ``ConfigError`` naming it. Values are checked, never rewritten, so a
    valid config keeps its hash. Run again after command line overrides."""
    resolved = cfg.effective()
    for section, key, want, ok in _SETTINGS:
        block = resolved if section is None else resolved[section]
        if key in block and not ok(block[key]):
            name = key if section is None else f"{section}.{key}"
            raise ConfigError(f"{name} must be {want}, got {block[key]!r}")


def load_scenario(path: str) -> ScenarioConfig:
    if not os.path.exists(path):
        raise ConfigError(f"scenario file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = yaml.safe_load(f)
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
