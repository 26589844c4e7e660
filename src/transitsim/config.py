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
    try:
        seed = int(doc["seed"])
    except (TypeError, ValueError):
        raise ConfigError(f"seed must be an integer, got {doc['seed']!r}")
    if "network" not in doc or not isinstance(doc["network"], dict):
        raise ConfigError("network section is required")
    horizon = int(doc.get("horizon_hours", DEFAULTS["horizon_hours"]))
    if horizon <= 0:
        raise ConfigError("horizon_hours must be positive")
    cfg = ScenarioConfig(
        seed=seed,
        horizon_hours=horizon,
        network=doc["network"],
        population=_merged("population", doc),
        social=_merged("social", doc),
        events=_merged("events", doc),
        transit=_merged("transit", doc),
        strategy=_merged("strategy", doc),
    )
    if cfg.population.get("size", 0) <= 0:
        raise ConfigError("population.size must be positive")
    if cfg.strategy.get("name") not in ("none", "greedy"):
        raise ConfigError(f"unknown strategy {cfg.strategy.get('name')!r}")
    p = cfg.social.get("constant_probability")
    if p is not None and not (isinstance(p, (int, float)) and 0 <= p <= 1):
        raise ConfigError(f"social.constant_probability must be within [0, 1], got {p!r}")
    return cfg


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
