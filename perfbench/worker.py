"""One round of one workload in a fresh process.

    python3 perfbench/worker.py --workload rect-n3 --seed 1 --trace 0 \
        --out perfbench/out

Prints one JSON line: the round's wall time, the process's peak resident
memory, one record per verification and, when traced, the per-layer
metrics.  ``src`` must be on PYTHONPATH; ``run.py`` sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

import workloads


def peak_rss_mb():
    """High-water resident memory of this process.  ``ru_maxrss`` is not
    used: Linux carries it over from the parent across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_round(workload, seed, trace, out_dir):
    json_path = os.path.join(out_dir, f"suite-{os.getpid()}.json")
    items = workloads.build(workload, seed, json_path)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    start = perf_counter()
    records = workloads.execute(items)
    wall_s = perf_counter() - start
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "records": records,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write(os.path.join(out_dir, f"trace-{workload}-{seed}.json"),
                     start)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run_round(args.workload, args.seed, args.trace, args.out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
