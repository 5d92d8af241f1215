"""The permpoly benchmark: exhaustive verification workloads, each pass
timed from a cold process, every verdict checked.

    python3 perfbench/run.py --workload base_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root. `--trace 0` prints the end-to-end metrics
of BENCHMARK.json; `--trace 1` prints its per-layer metrics and writes the
spans. The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it are a readable summary. A full
record (machine, sample counts, source line count, failures) goes to
perfbench/results/.

Each pass runs `worker.py` in a fresh process with numpy pinned to one
thread, because CLI users pay for the table builds on every invocation.
Passes repeat until `--seconds` have passed; set-up time is topped up with
set-up-only processes so that its median has at least SETUP_SAMPLES
samples. The workloads are exhaustive, so the seed only picks the oracle
spot-check sample and the probe batches.

Every operation counts in `attempted`; `failed` counts check calls whose
(check, params, passed) differs from perfbench/pinned.json, calls that
raised, a nonzero `cli.main` exit code, a wrong theorem pair, and oracle
mismatches. A pass whose process died counts all of its calls, plus one, as
failed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("base_sweep", "ext_sweep", "suite_all")
SETUP_SAMPLES = 9
DEADLINE_S = 165  # the whole run, children included, ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

now = time.monotonic


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(job: dict, deadline: float) -> tuple[dict | None, float, str | None]:
    """Run one worker, killed at `deadline`; return (result or None, spawn time, error)."""
    t_spawn = now()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return None, t_spawn, f"{job['mode']} {job.get('index')}: timed out"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, t_spawn, f"{job['mode']} {job.get('index')}: exit {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn, None


# ---------------------------------------------------------------------------
# the verdict gate
# ---------------------------------------------------------------------------

def judge(expected: dict, res: dict | None, failures: list) -> tuple[int, int]:
    """(attempted, failed) for one pass, judged against the pinned verdicts."""
    exp_calls = expected["calls"]
    if res is None:
        return len(exp_calls) + 1, len(exp_calls) + 1
    got = res["calls"]
    attempted = failed = 0
    for i in range(max(len(exp_calls), len(got))):
        e = exp_calls[i] if i < len(exp_calls) else None
        g = got[i] if i < len(got) else None
        ok = (e is not None and g is not None and "error" not in g and g["passed"]
              and [g["check"], g["params"], g["passed"]] == e)
        attempted += 1
        if not ok:
            failed += 1
            failures.append({"expected": e, "got": g})
    gates = {f"oracle.{key}": bad == 0 for key, bad in res["oracle"].items()}
    if "exit_code" in res:
        gates["cli.exit_code"] = res["exit_code"] == 0
    if "pairs" in res:
        gates["theorem_pairs"] = res["pairs"] == expected["pairs"]
    for name, ok in gates.items():
        attempted += 1
        if not ok:
            failed += 1
            failures.append({"gate": name, "detail": res.get(name.split(".")[0])})
    return attempted, failed


# ---------------------------------------------------------------------------
# statistics and records
# ---------------------------------------------------------------------------

def summarize(samples: list[float]) -> dict:
    """Median, max, sample count and the samples, plus the highest percentile
    with at least ten samples beyond it when that is above the median."""
    n = len(samples)
    out = {"median": statistics.median(samples), "max": max(samples), "n": n,
           "tail": None, "samples": samples}
    if n >= 21:
        pct = 100.0 * (n - 10) / n
        out["tail"] = {"pct": pct, "value": sorted(samples)[n - 11]}
    return out


def machine_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit()}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref[5:]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def per_layer_values(bench: dict, traced: list[dict],
                     untraced_walls: list[float], probe_metrics: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json; checks and cli metrics a
    workload does not call read 0."""
    med = statistics.median
    values = dict(probe_metrics)
    for name in (n for n in (m["name"] for m in bench["per_layer"])
                 if n.startswith("checks.") and n.endswith(".s")):
        check = name[len("checks."):-len(".s")]
        per_pass = [[c for c in r["calls"] if c.get("check") == check] for r in traced]
        values[f"checks.{check}.s"] = med([sum(c["s"] for c in cs) for cs in per_pass])
        values[f"checks.{check}.calls"] = med([len(cs) for cs in per_pass])
        values[f"checks.{check}.tested"] = med(
            [sum(c.get("tested", 0) for c in cs) for cs in per_pass])
    values["cli.overhead_s"] = med(
        [r["cli_s"] - sum(c["s"] for c in r["calls"]) if "cli_s" in r else 0.0
         for r in traced])
    values["tables.bytes_computed"] = med([r["bytes_computed"] for r in traced])
    values["trace.overhead_s"] = (med([r["wall_s"] for r in traced])
                                  - med(untraced_walls))
    values["src_lines"] = src_lines()
    return values


def write_spans(path: Path, run_id: str, t0: float, t_end: float,
                groups: list[list[dict]]) -> None:
    """One JSON line per span, times relative to the run start, with self time."""
    spans = [{"id": "run", "name": "run", "parent": None, "start": t0, "end": t_end}]
    for group in groups:
        for s in group:
            spans.append(dict(s, parent=s["parent"] or "run"))
    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    with open(path, "w", encoding="ascii") as fh:
        for s in spans:
            dur = s["end"] - s["start"]
            fh.write(json.dumps(dict(s, run_id=run_id, start=s["start"] - t0,
                                     end=s["end"] - t0,
                                     self_s=dur - child_time.get(s["id"], 0.0))) + "\n")


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(args, name: str, bench: dict, pinned: dict) -> dict:
    deadline = now() + DEADLINE_S
    expected = pinned[args.size][name]
    base_job = {"workload": name, "size": args.size, "seed": args.seed}
    t0 = now()
    passes, traced, untraced_walls, failures = [], [], [], []
    attempted = failed = 0
    index = 0
    while index == 0 or (now() - t0 < args.seconds
                         or (args.trace and len(traced) == 0)):
        if deadline - now() < 10:
            break
        is_traced = bool(args.trace) and index % 2 == 1
        res, t_spawn, err = spawn(dict(base_job, mode="pass", index=index,
                                       traced=is_traced), deadline)
        if err:
            failures.append({"pass": index, "error": err})
        a, f = judge(expected, res, failures)
        attempted += a
        failed += f
        if res is not None:
            res["wall_s"] = res["t_last"] - t_spawn
            (traced if is_traced else passes).append(res)
            if not is_traced:
                untraced_walls.append(res["wall_s"])
        index += 1
    setup_samples = [r["setup_s"] for r in passes + traced]
    for _ in range(SETUP_SAMPLES - len(setup_samples)):
        if args.trace or deadline - now() < 10:
            break
        res, _, err = spawn(dict(base_job, mode="setup"), deadline)
        attempted += 1
        if res is None:
            failed += 1
            failures.append({"setup": err})
        else:
            setup_samples.append(res["setup_s"])

    record = {"workload": name, "seed": args.seed, "size": args.size,
              "trace": args.trace, "seconds": args.seconds,
              "machine": machine_info(), "src_lines": src_lines(),
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "failures": failures[:20],
              "passes": len(passes) + len(traced)}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if not args.trace:
        if not passes:
            raise SystemExit(f"{name}: no pass completed: {failures[:3]}")
        samples = {"wall_s": [r["wall_s"] for r in passes], "setup_s": setup_samples,
                   "sweep_s": [r["sweep_s"] for r in passes],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in passes]}
        record["summary"] = {k: dict(summarize(v), unit=units[k]) for k, v in samples.items()}
        record["bytes_computed"] = statistics.median(r["bytes_computed"] for r in passes)
        values = {m["name"]: record["summary"][m["name"]]["median"]
                  for m in bench["end_to_end"]}
    else:
        if not traced or not untraced_walls:
            raise SystemExit(f"{name}: no traced and untraced pass pair: {failures[:3]}")
        probes, _, err = spawn(dict(base_job, mode="probes"), deadline)
        if probes is None:
            raise SystemExit(f"{name}: probes failed: {err}")
        all_values = per_layer_values(bench, traced, untraced_walls, probes["metrics"])
        values = {m["name"]: all_values[m["name"]] for m in bench["per_layer"]}
        record["bytes_computed"] = values["tables.bytes_computed"]
        record["trace_overhead_s"] = values["trace.overhead_s"]
        spans_path = results_dir() / f"{name}_seed{args.seed}_spans.jsonl"
        write_spans(spans_path, f"{name}-seed{args.seed}", t0, now(),
                    [r["spans"] for r in traced] + [probes["spans"]])
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    path = results_dir() / f"{name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["results_file"] = str(path.relative_to(ROOT))
    return record


def results_dir() -> Path:
    path = BENCH_DIR / "results"
    path.mkdir(exist_ok=True)
    return path


def print_summary(record: dict) -> None:
    print(f"workload={record['workload']} seed={record['seed']} size={record['size']} "
          f"trace={record['trace']} passes={record['passes']} "
          f"src_lines={record['src_lines']} tables.bytes_computed={record['bytes_computed']:.0f}")
    for name, s in record.get("summary", {}).items():
        tail = f"p{s['tail']['pct']:.0f}={s['tail']['value']:.4f}" if s["tail"] else "tail=n/a"
        print(f"  {name:<12} median={s['median']:.4f} {s['unit']:<5} max={s['max']:.4f} "
              f"{tail} n={s['n']}")
    if record["trace"]:
        for name, m in record["metrics"].items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
        print(f"  spans: {record['spans_file']}  trace overhead: "
              f"{record['trace_overhead_s']:+.4f} s")
    print(f"  failed_frac  {record['failed_frac']:.4g} ratio "
          f"({record['failed']}/{record['attempted']} operations)")
    for failure in record["failures"][:5]:
        print(f"  failure: {json.dumps(failure)[:300]}")
    print(f"  record: {record['results_file']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test sizes")
    parser.add_argument("--pinned", type=Path, default=BENCH_DIR / "pinned.json",
                        help="expected verdicts (default: perfbench/pinned.json)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "permpoly" / "__init__.py").is_file():
        print(f"error: no permpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = json.loads(args.pinned.read_text())
    for directory in (ROOT / "src", BENCH_DIR):
        compileall.compile_dir(directory, quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(args, name, bench, pinned) for name in names]
    for record in records:
        print_summary(record)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
