"""Compare two benchmark result files, e.g. a parent commit and a change.

    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds one JSON line per run, as ``run.py`` appends them to
``perfbench/out/results.jsonl``.  For every workload and metric the
script prints each side's median and quartiles over its runs, the ratio
new/base, and, for end-to-end metrics, whether the change in the median
goes beyond the bound in ``BENCHMARK.json``.  Exits with 1 when some
end-to-end metric got worse by more than its bound, or when the share
of failed verifications differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, metric): [values]} and {workload: [attempted, failed]}."""
    values = defaultdict(list)
    counts = defaultdict(lambda: [0, 0])
    with open(path) as fh:
        for line in fh:
            run = json.loads(line)
            for name, m in run["metrics"].items():
                values[run["workload"], name].append(m["value"])
            counts[run["workload"]][0] += run["attempted"]
            counts[run["workload"]][1] += run["failed"]
    return values, counts


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(metric, base, new):
    """How the new median compares with the bound of an end-to-end metric."""
    if "bound" not in metric or base == 0:
        return ""
    change = (new - base) / base
    if metric["better"] == "higher":
        change = -change
    if change > metric["bound"]:
        return "WORSE beyond bound"
    if change < -metric["bound"]:
        return "better beyond bound"
    return "within bound"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (base, base_counts), (new, new_counts) = load(argv[0]), load(argv[1])
    status = 0
    print(f"{'workload':24} {'metric':34} {'base q1/med/q3':>30} "
          f"{'new q1/med/q3':>30} {'new/base':>9}")
    for workload, name in sorted(set(base) & set(new)):
        b, n = quartiles(base[workload, name]), quartiles(new[workload, name])
        ratio = f"{n[1] / b[1]:.3f}" if b[1] else "-"
        text = verdict(metrics[name], b[1], n[1])
        if text.startswith("WORSE"):
            status = 1
        print(f"{workload:24} {name:34} "
              f"{'/'.join(f'{x:.4g}' for x in b):>30} "
              f"{'/'.join(f'{x:.4g}' for x in n):>30} {ratio:>9} {text}")
    for workload in sorted(set(base_counts) & set(new_counts)):
        (ba, bf), (na, nf) = base_counts[workload], new_counts[workload]
        if bf * na != nf * ba:
            status = 1
            print(f"{workload}: failed share {bf}/{ba} -> {nf}/{na}")
    return status


if __name__ == "__main__":
    sys.exit(main())
