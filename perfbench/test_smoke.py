"""Smoke test of the benchmark itself, at the tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the package's test suite (pytest collects `tests/` by default).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--size", "tiny",
                           "--seconds", "1", "--seed", "5", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_untraced_run_emits_every_end_to_end_metric_for_every_workload():
    out = _result(_run("--workload", "all", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    expected = {f"{w['name']}.{name}": unit for w in SPEC["workloads"]
                for name, unit in _units("end_to_end").items()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_and_the_spans():
    proc = _run("--workload", "suite_all", "--trace", "1")
    out = _result(proc)
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _units("per_layer")
    record = json.loads((BENCH_DIR / "results" / "suite_all_seed5_trace1.json").read_text())
    assert "trace_overhead_s" in record
    spans = [json.loads(line) for line in (ROOT / record["spans_file"]).read_text().splitlines()]
    names = {s["name"] for s in spans}
    assert {"run", "pass", "setup", "sweep", "cli.main", "probes",
            "tables.ext_tables", "field.irreducible_s"} <= names
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert all(s["self_s"] >= -1e-9 for s in spans)


def test_a_doctored_expected_verdict_is_counted_as_failed(tmp_path):
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text())
    pinned["tiny"]["base_sweep"]["calls"][0][2] = False
    doctored = tmp_path / "pinned.json"
    doctored.write_text(json.dumps(pinned))
    out = _result(_run("--workload", "base_sweep", "--trace", "0", "--pinned", str(doctored)))
    assert not out["correct"]
    assert 0 < out["failed"] < out["attempted"]


def test_without_the_program_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "base_sweep", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
