"""Benchmark of nc-capelli: time to verdict on one workload.

    python3 perfbench/run.py --workload rect-n3 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The run repeats whole rounds
of the workload, each in a fresh worker process, until ``--seconds``
have passed, and measures set-up (fresh interpreters importing the
package and its verifier registry) before and after each round.  Every
report is checked.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics; end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  With tracing on, rounds come in
pairs, one untraced and one traced, so that the run can report the
tracing overhead.  Each run's result is also appended to
``perfbench/out/results.jsonl``, the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3  # before each round, and as many after the last
SETUP_PROBE = ("import time; t = time.perf_counter(); import nc_capelli.cli; "
               "print(time.perf_counter() - t)")
ROUND_TIMEOUT_S = 170

WORKLOADS = ("suite-default", "rect-n3")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_samples(env, count):
    """Import times of package and registry, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60)
        samples.append(float(out.stdout.strip()))
    return samples


def run_round(env, workload, seed, traced):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0",
           "--out", str(OUT)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics():
    """name -> unit of the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def summarize(rounds, setup_s, trace):
    """The result object of a run from its checked rounds; each round is
    a worker result plus ``traced`` and its tally."""
    end_to_end, per_layer = declared_metrics()
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = all(r["correct"] for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    if trace:
        traced = [r for r in rounds if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - wall_s)
        units = per_layer
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = end_to_end
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nc_capelli" / "__init__.py").is_file():
        print(f"error: no nc_capelli package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = _env()

    # the first import compiles bytecode, which users pay once
    setup_samples(env, 1)
    # probes spread between the rounds sample more of the machine's slow
    # and fast spells than probes taken back to back
    setup = []
    plan = (False, True) if args.trace else (False,)
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        setup += setup_samples(env, SETUP_PROBES)
        for traced in plan:
            r = run_round(env, args.workload, args.seed, traced)
            r["attempted"], r["failed"], r["correct"], problems = \
                checks.tally(r.pop("records"))
            r["traced"] = traced
            for p in problems:
                print(f"FAILED {args.workload}: {p}", file=sys.stderr)
            rounds.append(r)
    setup += setup_samples(env, SETUP_PROBES)

    result = summarize(rounds, statistics.median(setup), args.trace)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "rounds": len(rounds), **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
