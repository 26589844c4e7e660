"""The benchmark's workloads: one scenario file each, written from a seed.

desk and city start from a scenario that ships with the repository; crowd is
generated from the desk network and event. Each workload's input is written
to its own directory and the program receives only that file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import yaml


def _desk(doc: dict) -> None:
    """As shipped: 5,000 humans, 2 lines, 20 stations, 24 h."""


def _city(doc: dict) -> None:
    # At 24 h the report alone takes most of a minute; 12 h keeps it the
    # larger half of the run while an operation stays near ten seconds.
    doc["horizon_hours"] = 12


def _crowd(doc: dict) -> None:
    # Four times desk's population on desk's network and event, with a
    # denser follower graph, the greedy strategy and alternative routing,
    # through the event morning (broadcast 06:30, event 08:30-11:30).
    doc["horizon_hours"] = 12
    doc["population"]["size"] = 20000
    doc["social"].update(degree_mean=10.0, degree_max=100)
    doc["strategy"].update(name="greedy", alt_routing=True)


@dataclass(frozen=True)
class Workload:
    name: str
    base: str                          # scenario file, relative to the repo root
    shape: Callable[[dict], None]      # edits the parsed scenario in place


WORKLOADS = {
    w.name: w for w in (
        Workload("desk", "scenarios/desk.yaml", _desk),
        Workload("city", "scenarios/singapore-like.yaml", _city),
        Workload("crowd", "scenarios/desk.yaml", _crowd),
    )
}


def write_input(workload: Workload, root: Path, seed: Optional[int],
                out_dir: Path) -> tuple[Path, dict]:
    """Write the workload's scenario to ``out_dir/input.yaml``.

    Without a seed the base scenario's own seed is kept, so desk and city
    reproduce the shipped scenarios byte for byte.
    """
    with open(root / workload.base, "r", encoding="utf-8") as f:
        doc = yaml.safe_load(f)
    workload.shape(doc)
    if seed is not None:
        doc["seed"] = seed
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "input.yaml"
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(doc, f, sort_keys=False)
    return path, doc
