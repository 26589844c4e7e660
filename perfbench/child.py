"""One benchmark operation: a single transitsim CLI run in this process.

Usage: python3 perfbench/child.py INPUT.yaml OUT_DIR RESULT.json [--trace]

Runs ``transitsim.cli.main`` on the scenario exactly as the command line
would, and times its phases by wrapping the CLI's own calls from outside:
``build_world`` (setup), ``World.run`` (sim), ``emit_report`` plus the
manifest write (report), all on the steal-free clock of clock.py. ``end`` is
that clock when ``main`` returned; the parent subtracts the moment it started
this process.

Untraced, a report or setup phase that took less than SHORT_S is timed
again on the same inputs (into OUT_DIR/rep) until it has SAMPLES timings, so
that a sub-second phase is measured many times per run.
Traced (``--trace``), the public functions of each module are wrapped as
well (tracer.py), the per-layer figures go into the result and nothing is
repeated.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from typing import Callable

from clock import now

SHORT_S = 1.2   # a phase whose first timing is shorter than this ...
SAMPLES = 10    # ... is timed this many times in all


def repeat(first: float, again: Callable[[], None]) -> list[float]:
    """``first`` plus, for a short phase, timings of ``again`` up to SAMPLES."""
    samples = [first]
    while first < SHORT_S and len(samples) < SAMPLES:
        t0 = now()
        again()
        samples.append(now() - t0)
        gc.collect()
    return samples


def main() -> int:
    src, out_dir, result_path = sys.argv[1:4]
    trace = "--trace" in sys.argv[4:]

    from transitsim import cli
    from transitsim.config import RunManifest
    from transitsim.simulation import World

    phases = {"setup": 0.0, "sim": 0.0, "report": 0.0}
    seen = {}  # each wrapped call's function, arguments and result

    def timed(owner, attr, phase):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                phases[phase] += now() - t0
            seen[attr] = (fn, args, kwargs, result)
            return result
        setattr(owner, attr, wrapper)

    timed(cli, "build_world", "setup")
    timed(World, "run", "sim")
    timed(cli, "emit_report", "report")
    timed(RunManifest, "write", "report")

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    code = cli.main(["--scenario", src, "--out", out_dir])
    end = now()
    if code != 0:
        return code
    result = {"end": end, "sim": phases["sim"],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    build_world, (cfg,), _, world = seen["build_world"]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(world)
        result["setup_samples"] = [phases["setup"]]
        result["report_samples"] = [phases["report"]]
    else:
        rep = os.path.join(out_dir, "rep")
        os.makedirs(rep)
        emit_report, _, report_kw, _ = seen["emit_report"]
        write, (manifest, _), _, _ = seen["write"]
        ledger, network = world.metrics, world.network

        def report() -> None:
            emit_report(ledger, network, rep, **report_kw)
            write(manifest, os.path.join(rep, "manifest.json"))

        def setup() -> None:
            build_world(cfg, log_path=os.path.join(rep, "event.log")).log.close()

        result["report_samples"] = repeat(phases["report"], report)
        del world, ledger, network
        seen.clear()
        gc.collect()
        result["setup_samples"] = repeat(phases["setup"], setup)

    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
