"""Determinism across processes: the shipped desk scenario, run by the CLI in
two interpreters with different hash seeds, writes the same bytes, and those
bytes are the reference run's."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# first 16 hex digits of sha256 of the desk outputs at the scenario's seed
DESK_SHA256 = {
    "event.log": "fefe55c41f2bfff6",
    "summary.csv": "9f16520f434ccd62",
    "usage.csv": "87c2a361f105a6b4",
    "wait.csv": "37536253671a98c7",
}


def test_desk_bytes_match_across_hash_seeds(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"seed{hash_seed}"
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        proc = subprocess.Popen(
            [sys.executable, "-m", "transitsim",
             "--scenario", str(ROOT / "scenarios" / "desk.yaml"), "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        runs.append((proc, out / "run"))
    outputs = []
    for proc, run_dir in runs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
        outputs.append({name: (run_dir / name).read_bytes() for name in DESK_SHA256})
    first, second = outputs
    for name, prefix in DESK_SHA256.items():
        assert first[name] == second[name], f"{name} differs between hash seeds"
        assert hashlib.sha256(first[name]).hexdigest()[:16] == prefix, name
