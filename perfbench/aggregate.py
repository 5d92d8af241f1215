"""Spread of the end-to-end metrics across runs with different seeds.

    python3 perfbench/aggregate.py [--out perfbench/baseline.json]

Reads every untraced full-size record in perfbench/results/ and prints, per
workload and metric, the median of the per-run medians and the distance
between their first and third quartiles as a share of that median, next to
the metric's bound in BENCHMARK.json. A spread above the bound means the
metric cannot resolve a change of that size on this machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from run import BENCH_DIR, ROOT


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="also write the table as JSON")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted((BENCH_DIR / "results").glob("*_trace0.json")):
        record = json.loads(path.read_text())
        if record["size"] == "full":
            runs[record["workload"]].append(record)
    table: dict = {}
    for workload, records in sorted(runs.items()):
        last = records[-1]
        entry = {"runs": len(records), "seeds": sorted(r["seed"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "attempted": sum(r["attempted"] for r in records),
                 "src_lines": last["src_lines"], "bytes_computed": last["bytes_computed"],
                 "machine": last["machine"], "metrics": {}}
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            entry["metrics"][spec["name"]] = {
                "unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": spec["bound"]}
            print(f"{workload:<11} {spec['name']:<12} median={median:.4f} {spec['unit']:<3} "
                  f"spread={(q3 - q1) / median:.3f} bound={spec['bound']} runs={len(values)}")
        table[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
