"""The benchmark's traced operation still runs against the current program:
every name its tracer wraps exists, and it reports every per-layer metric
that BENCHMARK.json declares."""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def test_traced_operation_reports_every_declared_layer(tmp_path):
    # desk through the event morning, with every strategy hook switched on
    with open(ROOT / "scenarios" / "desk.yaml", encoding="utf-8") as f:
        doc = yaml.safe_load(f)
    doc["horizon_hours"] = 10
    doc["strategy"].update(name="greedy", alt_routing=True)
    src = tmp_path / "input.yaml"
    src.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    result = tmp_path / "result.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(src),
                           str(tmp_path / "out"), str(result), "--trace"],
                          env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text(encoding="utf-8"))["layers"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in bench["per_layer"]} - {"trace.overhead_s"}
    assert set(layers) == declared
    assert layers["strategies.on_hour.calls"] > 0
    # one demand estimate per hook call, read through the tracer's wrapper
    assert layers["transit.estimate_ridership.calls"] == layers["strategies.on_hour.calls"]
