"""Determinism across processes: shipped scenarios, run by the CLI in two
interpreters with different hash seeds, write the same bytes, and those bytes
are the reference run's."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]

# first 16 hex digits of sha256 of the desk outputs at the scenario's seed
DESK_SHA256 = {
    "event.log": "9d24fec92f7d9469",
    "summary.csv": "324f8155a79b99f1",
    "usage.csv": "9361ef68013d52bb",
    "wait.csv": "ff01911e404b94f3",
}

# the same for singapore-like (87 stations, one circular line) cut to 12 h
CITY_12H_SHA256 = {
    "event.log": "fa920fa9b62858ab",
    "summary.csv": "3bdd6d34f462665b",
    "usage.csv": "e32632b45968e86f",
    "wait.csv": "0191b4f05a06964b",
}

# the same for singapore-like as shipped (24 h)
CITY_SHA256 = {
    "event.log": "3b873894558194a7",
    "summary.csv": "d0d5d42a89a42da2",
    "usage.csv": "065800fc47aa103e",
    "wait.csv": "d77f9c1bf6382fc5",
}

# the same for desk under the greedy strategy with alternative routing, which
# reaches the ridership estimate and the full-train detours
DESK_GREEDY_ALT_SHA256 = {
    "event.log": "307573043b2c3e34",
    "summary.csv": "3a4f344f3db61f6e",
    "usage.csv": "0192164ae5842059",
    "wait.csv": "1fe6c43f198eb059",
}

# the same for the crowd: desk's network and event with 20,000 humans, a
# denser follower graph, the greedy strategy and alternative routing, 12 h
CROWD_SHA256 = {
    "event.log": "de60c6f8053ef76a",
    "summary.csv": "a170541e3a4e73f4",
    "usage.csv": "483d8fe8fa50c942",
    "wait.csv": "7648dc7630173336",
}


def assert_bytes_match_across_hash_seeds(scenario: Path, want: dict, tmp_path: Path) -> None:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"seed{hash_seed}"
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        proc = subprocess.Popen(
            [sys.executable, "-m", "transitsim", "--scenario", str(scenario), "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        runs.append((proc, out / "run"))
    outputs = []
    for proc, run_dir in runs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
        outputs.append({name: (run_dir / name).read_bytes() for name in want})
    first, second = outputs
    for name, prefix in want.items():
        assert first[name] == second[name], f"{name} differs between hash seeds"
        assert hashlib.sha256(first[name]).hexdigest()[:16] == prefix, name


def test_desk_bytes_match_across_hash_seeds(tmp_path):
    assert_bytes_match_across_hash_seeds(ROOT / "scenarios" / "desk.yaml", DESK_SHA256, tmp_path)


def write_variant(base: str, edit, path: Path) -> Path:
    """Write a shipped scenario, edited in place by ``edit``, to ``path``."""
    with open(ROOT / "scenarios" / base, encoding="utf-8") as f:
        doc = yaml.safe_load(f)
    edit(doc)
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(doc, f, sort_keys=False)
    return path


def test_city_bytes_match_across_hash_seeds(tmp_path):
    scenario = write_variant("singapore-like.yaml",
                             lambda doc: doc.update(horizon_hours=12),
                             tmp_path / "singapore-like-12h.yaml")
    assert_bytes_match_across_hash_seeds(scenario, CITY_12H_SHA256, tmp_path)


def test_singapore_like_bytes_match_across_hash_seeds(tmp_path):
    assert_bytes_match_across_hash_seeds(ROOT / "scenarios" / "singapore-like.yaml",
                                         CITY_SHA256, tmp_path)


def test_desk_greedy_alt_bytes_match_across_hash_seeds(tmp_path):
    scenario = write_variant("desk.yaml",
                             lambda doc: doc["strategy"].update(name="greedy", alt_routing=True),
                             tmp_path / "desk-greedy-alt.yaml")
    assert_bytes_match_across_hash_seeds(scenario, DESK_GREEDY_ALT_SHA256, tmp_path)


def crowd(doc: dict) -> None:
    doc["horizon_hours"] = 12
    doc["population"]["size"] = 20000
    doc["social"].update(degree_mean=10.0, degree_max=100)
    doc["strategy"].update(name="greedy", alt_routing=True)


def test_crowd_bytes_match_across_hash_seeds(tmp_path):
    scenario = write_variant("desk.yaml", crowd, tmp_path / "crowd.yaml")
    assert_bytes_match_across_hash_seeds(scenario, CROWD_SHA256, tmp_path)
