"""transitsim benchmark: timed CLI runs of one workload, with output checks.

    python3 perfbench/run.py --workload {desk,city,crowd} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; paths resolve against the repository root, and every file
the benchmark writes goes under perfbench/out/. An operation is one CLI run
of the workload's scenario in a fresh child process (own PYTHONHASHSEED),
followed by the output checks of checks.py. Operations run one at a time and
the run repeats them until --seconds have passed, so it always attempts
whole operations and at least one.

--trace 0 prints the end-to-end metrics, each a median over the run: wall_s
(child start to the CLI's return), sim_s and peak_rss_mb over operations,
setup_s and report_s over every timing of that phase, the CLI's own and the
repetitions child.py adds. Times are wall-clock less hypervisor steal
(clock.py).

--trace 1 makes each round an untraced operation followed by a traced one
(tracer.py) and prints the per-layer metrics of the traced operations, with
trace.overhead_s = median traced wall_s - median untraced wall_s.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Progress and problems go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checks import check_run, output_hashes
from clock import now
from workloads import WORKLOADS, Workload, write_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
OP_TIMEOUT_S = 150


def run_op(workload: Workload, input_path: Path, op_dir: Path, hash_seed: int,
           trace: bool) -> dict | None:
    """One CLI run in a child process; None when it fails or times out."""
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    result_path = op_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(input_path), str(op_dir),
           str(result_path)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    start = now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload.name}: operation timed out after {OP_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"{workload.name}: operation exited {proc.returncode}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    with open(result_path, encoding="utf-8") as f:
        res = json.load(f)
    res["wall_s"] = res.pop("end") - start
    return res


def end_to_end(plain: list[dict]) -> dict:
    med = statistics.median
    values = {
        "wall_s": med(r["wall_s"] for r in plain),
        "setup_s": med(s for r in plain for s in r["setup_samples"]),
        "sim_s": med(r["sim"] for r in plain),
        "report_s": med(s for r in plain for s in r["report_samples"]),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
    }
    return {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"}
            for k, v in values.items()}


def per_layer(plain: list[dict], traced: list[dict], problems: list[str]) -> dict:
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if name.endswith(".s"):
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
            continue
        if len(set(values)) != 1:
            problems.append(f"{name} differs between traced operations: {values}")
        unit = "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = {"value": values[0], "unit": unit}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def _fmt(samples: list[float]) -> str:
    return "/".join(f"{x:.3f}" for x in samples) + " s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the base scenario's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "transitsim" / "cli.py").is_file() or \
            not (ROOT / workload.base).is_file():
        print(f"error: no transitsim sources or {workload.base} under {ROOT}",
              file=sys.stderr)
        return 2
    work = OUT / workload.name
    input_path, doc = write_input(workload, ROOT, args.seed, work)

    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    hashes: set[tuple] = set()
    attempted = failed = 0
    began = perf_counter()
    while attempted == 0 or perf_counter() - began < args.seconds:
        for trace in ((False, True) if args.trace else (False,)):
            attempted += 1
            op_dir = work / ("traced" if trace else "op")
            res = run_op(workload, input_path, op_dir, attempted, trace)
            if res is None:
                failed += 1
                continue
            run_dir = op_dir / "run"
            problems += check_run(run_dir, doc)
            hashes.add(tuple(sorted(output_hashes(run_dir).items())))
            (traced if trace else plain).append(res)
            print(f"{workload.name} op {attempted}{' traced' if trace else ''}: "
                  f"wall {res['wall_s']:.3f} s, setup {_fmt(res['setup_samples'])}, "
                  f"sim {res['sim']:.3f} s, report {_fmt(res['report_samples'])}, "
                  f"peak rss {res['peak_rss_mb']:.1f} MB", file=sys.stderr)
    if len(hashes) > 1:
        problems.append(f"outputs differ between operations: {sorted(hashes)}")

    metrics = {}
    if plain and (traced or not args.trace):
        metrics = per_layer(plain, traced, problems) if args.trace else end_to_end(plain)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
