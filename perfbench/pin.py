"""Regenerate perfbench/pinned.json, the verdicts every benchmark pass must
reproduce, from one pass of each workload at each size.

    python3 perfbench/pin.py

Run it only on a commit whose verdicts are trusted. `tested` counts are not
pinned.
"""

from __future__ import annotations

import json

from run import BENCH_DIR, DEADLINE_S, WORKLOADS, now, spawn


def main() -> None:
    pinned: dict = {}
    for size in ("full", "tiny"):
        pinned[size] = {}
        for name in WORKLOADS:
            job = {"mode": "pass", "workload": name, "size": size, "seed": 0,
                   "index": 0, "traced": False}
            res, _, err = spawn(job, now() + DEADLINE_S)
            if res is None:
                raise SystemExit(err)
            errors = [c for c in res["calls"] if "error" in c]
            if errors:
                raise SystemExit(f"{name}/{size}: refusing to pin a crash: {errors[0]}")
            entry = {"calls": [[c["check"], c["params"], c["passed"]] for c in res["calls"]]}
            if "pairs" in res:
                entry["pairs"] = res["pairs"]
            pinned[size][name] = entry
    # one verdict per line, so that a change to the list reads as a small diff
    lines = ["{"]
    for i, (size, workloads) in enumerate(pinned.items()):
        lines.append(f' "{size}": {{')
        for j, (name, entry) in enumerate(workloads.items()):
            lines.append(f'  "{name}": {{')
            for k, (key, rows) in enumerate(entry.items()):
                lines.append(f'   "{key}": [')
                lines += [f"    {json.dumps(row)}," for row in rows]
                lines[-1] = lines[-1].rstrip(",")
                lines.append("   ]" + ("," if k < len(entry) - 1 else ""))
            lines.append("  }" + ("," if j < len(workloads) - 1 else ""))
        lines.append(" }" + ("," if i < len(pinned) - 1 else ""))
    lines.append("}")
    path = BENCH_DIR / "pinned.json"
    path.write_text("\n".join(lines) + "\n")
    if json.loads(path.read_text()) != pinned:
        raise SystemExit(f"{path}: written file does not read back as written")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
