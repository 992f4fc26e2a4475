"""Benchmark of the `cyclichodge` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of a workload runs in a fresh single-threaded Python process
(child.py), one process at a time.  The run starts one warm-up process,
then SETUP_PROBES processes that only set up, then as many passes of the
workload as fit in about S seconds.  With --trace 1 it adds one traced
pass and reports the per-layer metrics instead of the end-to-end ones.
The last line of standard output is the result as JSON; the lines before
it repeat every metric with its unit and record the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
SETUP_PROBES = 10
DEADLINE_S = 170


def environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model, "loadavg": [round(x, 2) for x in os.getloadavg()]}


def spawn(setup, commands, deadline, spans=None):
    """Run one workload process; its report, or None if it crashed or ran
    past the deadline.  setup_s counts from just before the spawn."""
    spec = json.dumps({"setup": setup, "commands": commands,
                       "spans": str(spans) if spans else None})
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(ROOT), spec],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        print("error: workload process ran past the deadline", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["setup_end"] - start
    return report


def metric(value, unit):
    return {"value": value, "unit": unit}


def show(metrics):
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


def measure(setup, commands, seconds, trace, deadline, spans):
    """(set-up times, untraced pass reports, traced pass report or None),
    or None when set-up failed or a workload process crashed.

    Passes repeat until the next one, if it took as long as the last,
    would end more than `seconds` after the first began; so a run lasts
    about `seconds` on a slow machine and on a fast one.
    """
    # the warm-up compiles bytecode and is not counted
    probes = [spawn(setup, [], deadline) for _ in range(1 + SETUP_PROBES)]
    if not all(map(_set_up, probes)):
        return None
    passes, last = [], 0.0
    started = time.monotonic()
    while not passes or time.monotonic() - started + last <= seconds:
        begun = time.monotonic()
        report = spawn(setup, commands, deadline)
        last = time.monotonic() - begun
        if not _set_up(report):
            return None
        passes.append(report)
    traced = None
    if trace:
        traced = spawn(setup, commands, deadline, spans)
        if not _set_up(traced):
            return None
    return [p["setup_s"] for p in probes[1:] + passes], passes, traced


def _set_up(report):
    """Whether the process finished and its set-up command succeeded."""
    return report is not None and report["setup"][0] == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps
    # the workload process before this one exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "cyclichodge" / "cli.py").is_file():
        print(f"error: no cyclichodge sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    env_start = environment()
    WORKDIR.mkdir(exist_ok=True)
    algebra = workload.write_inputs(ROOT, WORKDIR, args.seed)
    setup = ["axioms", "--algebra", algebra, "--json"]
    commands = workload.commands(algebra)
    spans = WORKDIR / f"spans-{workload.name}.json"
    result = measure(setup, commands, args.seconds, args.trace, deadline,
                     spans)

    print(f"env start: {json.dumps(env_start)}")
    metrics = {}
    if result is None:
        # set-up failed or a process crashed: the workload aborts as failed
        attempted = failed = workload.operations()
    else:
        setup_s, passes, traced = result
        done = passes + ([traced] if traced else [])
        attempted = workload.operations() * len(done)
        failed = sum(workload.failed_operations(p["outputs"]) for p in done)
        run_s = [p["run_s"] for p in passes]
        print(f"samples: setup_s {len(setup_s)}, run_s {len(run_s)}: "
              + " ".join(f"{x:.4f}" for x in run_s))
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "run_s": metric(statistics.median(run_s), "s"),
            "run_s_max": metric(max(run_s), "s"),
            "cpu_s": metric(statistics.median(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mb": metric(max(p["peak_rss_mb"] for p in passes), "MB"),
        }
        show(metrics)
        if traced:
            trace = json.loads(spans.read_text())
            layers = summarize(trace["spans"], trace["counts"])
            layers["trace.overhead_s"] = (traced["run_s"]
                                          - metrics["run_s"]["value"])
            metrics = {name: metric(value, _unit(name))
                       for name, value in layers.items()}
            show(metrics)
    print(f"workload {workload.name}, seed {args.seed}: operations attempted "
          f"{attempted}, failed {failed}, failed_frac {failed / attempted:.4f}")
    print(f"env end: {json.dumps(environment())}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _unit(name):
    if name.endswith(("_s", "_s.max")):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
