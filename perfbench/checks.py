"""Output checks for one operation, computed apart from the program.

Every expectation is derived here from the scenario document (the workload's
input.yaml) and from properties the method must have; nothing is compared
against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

HOUR = 3600
DAY = 86400
SECTIONS = 5
COMPARED = ("usage.csv", "wait.csv", "summary.csv", "event.log")


def expected_counts(doc: dict) -> dict[str, int]:
    """Closed-form numbers of hour, poll, new-day and slot records."""
    horizon = int(doc.get("horizon_hours", 24)) * HOUR
    poll_interval = int((doc.get("events") or {}).get("poll_interval", HOUR))
    slots = 0
    for line in doc["network"]["lines"]:
        svc = line["service"]
        per_day = range(int(svc["first_departure"]), int(svc["last_departure"]) + 1,
                        int(svc["headway_seconds"]))
        for day in range(horizon // DAY + 1):
            # a slot's train is dispatched one dwell ahead; both directions run
            slots += 2 * sum(1 for t in per_day
                             if day * DAY + t - int(svc["dwell_seconds"]) <= horizon)
    return {
        "hour": horizon // HOUR + 1,
        "poll": horizon // poll_interval + 1,
        "new-day": horizon // DAY + 1,
        "slot": slots,
    }


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} is not {header}")
    return rows[1:]


def check_run(run_dir: Path, doc: dict) -> list[str]:
    """Problems found in one run directory; empty when every check holds."""
    problems: list[str] = []
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        missing = [f for f in manifest["outputs"] if not (run_dir / f).is_file()]
        if missing:
            return [f"manifest lists missing files {missing}"]
        problems += _check_series(run_dir, doc)
        problems += _check_summary(run_dir, doc)
        problems += _check_log(run_dir, doc)
    except (OSError, ValueError, KeyError) as e:
        problems.append(f"unreadable output: {e}")
    return problems


def _check_series(run_dir: Path, doc: dict) -> list[str]:
    problems = []
    hours = int(doc.get("horizon_hours", 24))
    lines = sorted(line["name"] for line in doc["network"]["lines"])
    keys = [(str(h), name, f"r{s}") for h in range(hours) for name in lines
            for s in range(SECTIONS)]
    first_dispatch = {line["name"]: int(line["service"]["first_departure"])
                      - int(line["service"]["dwell_seconds"])
                      for line in doc["network"]["lines"]}
    for fname, header, hi in (("usage.csv", ["hour", "line", "section", "usage"], 1.0),
                              ("wait.csv", ["hour", "line", "section", "avg_wait_s"], HOUR)):
        rows = _rows(run_dir / fname, header)
        if [tuple(r[:3]) for r in rows] != keys:
            problems.append(f"{fname}: rows are not hours x lines x {SECTIONS} in order")
            continue
        for hour, line, section, value in rows:
            v = float(value)
            if not 0.0 <= v <= hi:
                problems.append(f"{fname}: {hour},{line},{section} = {v} outside [0, {hi}]")
            if (fname == "usage.csv" and (int(hour) + 1) * HOUR <= first_dispatch[line]
                    and v != 0.0):
                problems.append(f"usage.csv: {hour},{line},{section} = {v} before any train")
    return problems


def _check_summary(run_dir: Path, doc: dict) -> list[str]:
    rows = _rows(run_dir / "summary.csv",
                 ["avg_wait_s", "avg_travel_s", "alt_route_fraction"])
    if len(rows) != 1:
        return [f"summary.csv: {len(rows)} rows, expected 1"]
    wait, travel, frac = (float(x) for x in rows[0])
    problems = []
    if wait < 0:
        problems.append(f"summary.csv: avg_wait_s {wait} < 0")
    if travel <= 0:
        problems.append(f"summary.csv: avg_travel_s {travel} <= 0")
    if not 0.0 <= frac <= 1.0:
        problems.append(f"summary.csv: alt_route_fraction {frac} outside [0, 1]")
    if not (doc.get("strategy") or {}).get("alt_routing", False) and frac != 0.0:
        problems.append(f"summary.csv: alt_route_fraction {frac} with alt routing off")
    return problems


def _check_log(run_dir: Path, doc: dict) -> list[str]:
    want = expected_counts(doc)
    seen = dict.fromkeys(want, 0)
    last = None
    problems = []
    with open(run_dir / "event.log", encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            rec = json.loads(line)
            if last is not None and rec["t"] < last:
                problems.append(f"event.log: line {n} goes back in time")
                break
            last = rec["t"]
            if rec["kind"] in seen:
                seen[rec["kind"]] += 1
    for kind, count in want.items():
        if seen[kind] != count:
            problems.append(f"event.log: {seen[kind]} {kind} records, expected {count}")
    return problems


def output_hashes(run_dir: Path) -> dict[str, str]:
    """sha256 of each byte-compared output."""
    out = {}
    for name in COMPARED:
        with open(run_dir / name, "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out
