"""One measured pass of a benchmark workload, in a fresh process.

Run by run.py, never by hand:

    python3 perfbench/worker.py '<json job>'

The job names a mode (`pass`, `setup` or `probes`), the workload, its size,
the seed, the pass index and whether to record spans. The worker prints one
JSON object on its last stdout line. It only reports what it saw; run.py
judges the verdicts against the pinned lists.

Timestamps are `time.monotonic()`, which is the system-wide CLOCK_MONOTONIC
on Linux, so run.py can subtract them from its own spawn time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time

import numpy as np

from permpoly import checks, cli, field, maps, tables
from permpoly.field import INFINITY, coprime_ks, extension_of
from permpoly.params import derive_params

now = time.monotonic

#: The workloads at their measured ("full") size and at the smoke-test size.
#: `field_ms` / `ext_ms` are the tables set-up builds; `oracle` lists the
#: spot-checks made after the timed window.
WORKLOADS = {
    "base_sweep": {
        # two of the six coprime k keep a pass near 4 s, so a run holds
        # enough passes for a steady median
        "full": {"m": 18, "ks": [5, 13], "field_ms": [18], "ext_ms": [],
                 "oracle": [["h", 18]]},
        "tiny": {"m": 8, "ks": [1, 3], "field_ms": [8], "ext_ms": [], "oracle": [["h", 8]]},
    },
    "ext_sweep": {
        "full": {"m": 10, "ks": [1, 3, 7, 9], "field_ms": [10], "ext_ms": [10],
                 "oracle": [["ext", 10]]},
        "tiny": {"m": 4, "ks": [1, 3], "field_ms": [4], "ext_ms": [4],
                 "oracle": [["ext", 4]]},
    },
    "suite_all": {
        "full": {"argv": ["verify", "--suite", "all"],
                 "field_ms": list(range(2, 14)), "ext_ms": list(range(2, 11)),
                 "oracle": [["h", 13], ["ext", 10]]},
        # dickson_linearized sweeps m = 2..10 whatever the cap, so the tiny
        # size still needs the tables up to 10.
        "tiny": {"argv": ["verify", "--suite", "all", "--m-max", "4"],
                 "field_ms": list(range(2, 11)), "ext_ms": list(range(2, 11)),
                 "oracle": [["h", 10], ["ext", 4]]},
    },
}

ORACLE_POINTS = 256


class Tracer:
    """In-memory spans: name, start, end, parent id. Off: records nothing."""

    def __init__(self, on: bool, tag: str):
        self.on = on
        self.tag = tag
        self.spans: list[dict] = []
        self._stack: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.on:
            yield
            return
        rec = {"id": f"{self.tag}.{len(self.spans)}", "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": now(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = now()
            self._stack.pop()


# ---------------------------------------------------------------------------
# set-up: the table builds a run pays for up front
# ---------------------------------------------------------------------------

def setup(cfg: dict, tracer: Tracer) -> float:
    t = now()
    with tracer.span("setup"):
        for m in cfg["field_ms"]:
            with tracer.span("field.smallest_irreducible", m=m):
                field.smallest_irreducible(m)
            with tracer.span("tables.field_tables", m=m):
                tables.field_tables(m)
        for m in cfg["ext_ms"]:
            with tracer.span("tables.ext_tables", m=m):
                et = tables.ext_tables(m)
            with tracer.span("tables.zmap", m=m):
                et.zmap()
    return now() - t


# ---------------------------------------------------------------------------
# sweeps: the checker calls, with warm tables
# ---------------------------------------------------------------------------

def _call(tracer: Tracer, calls: list, fn, *args) -> None:
    t = now()
    try:
        with tracer.span(fn.__name__, args=list(args)):
            out = fn(*args)
    except Exception as exc:  # a crash is a failed operation, not a lost run
        calls.append({"check": fn.__name__, "args": list(args),
                      "error": repr(exc), "s": now() - t})
        return
    calls.append({"check": out.check, "params": out.params, "passed": out.passed,
                  "tested": out.tested, "s": now() - t})


def sweep_base(cfg: dict, tracer: Tracer) -> dict:
    calls: list = []
    m = cfg["m"]
    for fn in (checks.check_main_theorem_outcome, checks.check_fgprop,
               checks.check_hprop):
        for k in cfg["ks"]:
            _call(tracer, calls, fn, m, k)
    return {"calls": calls}


def sweep_ext(cfg: dict, tracer: Tracer) -> dict:
    calls: list = []
    m = cfg["m"]
    for fn in (checks.check_perm_lemma, checks.check_zsumexp,
               checks.check_h_dickson, checks.check_hitt):
        for k in cfg["ks"]:
            _call(tracer, calls, fn, m, k)
    return {"calls": calls}


def sweep_suite(cfg: dict, tracer: Tracer) -> dict:
    buf = io.StringIO()
    t = now()
    try:
        with tracer.span("cli.main", argv=cfg["argv"]), contextlib.redirect_stdout(buf):
            code = cli.main(list(cfg["argv"]))
    except Exception as exc:
        return {"calls": [], "exit_code": None, "error": repr(exc), "cli_s": now() - t}
    cli_s = now() - t
    calls = []
    for line in buf.getvalue().splitlines():
        rec = json.loads(line)
        if "check" in rec:  # verdict records; anything else is not a check call
            calls.append({"check": rec["check"], "params": rec["params"],
                          "passed": rec["passed"], "tested": rec["tested"],
                          "s": rec.get("ms", 0.0) / 1000.0})
    return {"calls": calls, "exit_code": code, "cli_s": cli_s}


SWEEPS = {"base_sweep": sweep_base, "ext_sweep": sweep_ext, "suite_all": sweep_suite}


# ---------------------------------------------------------------------------
# after the timed window: pinned theorem pairs and the oracle spot-check
# ---------------------------------------------------------------------------

def theorem_pairs(m: int, ks: list) -> list:
    """(k, alpha, gamma, is_permutation, predicted_by_theorem) for each k."""
    return [[r.k, r.alpha, r.gamma, r.is_permutation, r.predicted_by_theorem]
            for k in ks for r in checks.check_main_theorem(m, k)]


def oracle_h(m: int, rng: random.Random) -> int:
    """Mismatches of h_value_table against the scalar maps.eval_h."""
    ft = tables.field_tables(m)
    p = derive_params(m, rng.choice(coprime_ks(m)), alpha=rng.randrange(2),
                      gamma=rng.randrange(2))
    h = tables.h_value_table(ft, p)
    xs = rng.sample(range(ft.q), min(ORACLE_POINTS, ft.q))
    return sum(int(h[x]) != maps.eval_h(p, x) for x in xs)


def oracle_ext(m: int, rng: random.Random) -> int:
    """Mismatches of ExtTables log/exp arithmetic against maps.phi and ExtField.mul.

    phi is taken from the packed tables as 1/(z + 1/z), and products as
    exp[log a + log b]; both sides must agree with the tuple arithmetic.
    """
    et = tables.ext_tables(m)
    ext = extension_of(field.make_field(m))
    q, n = et.q, et.n
    exp, log = et.exp, et.log

    def unpack(z: int):
        return (z & (q - 1), z >> m)

    def tinv(z: int) -> int:
        return int(exp[(-int(log[z])) % n])

    bad = 0
    for z in rng.sample(range(et.Q), min(ORACLE_POINTS // 2, et.Q)):
        want = maps.phi(ext, unpack(z))
        if z in (0, 1):
            got = (0, 0) if z == 0 else INFINITY
        else:
            got = unpack(tinv(z ^ tinv(z)))
        bad += got != want
    for _ in range(ORACLE_POINTS // 2):
        a, b = rng.randrange(1, et.Q), rng.randrange(1, et.Q)
        got = unpack(int(exp[(int(log[a]) + int(log[b])) % n]))
        bad += got != ext.mul(unpack(a), unpack(b))
    return bad


ORACLES = {"h": oracle_h, "ext": oracle_ext}


def table_bytes(cfg: dict) -> int:
    """Computed bytes held by the workload's table objects.

    nbytes of every numpy array (also inside dicts) plus sys.getsizeof of
    every list attribute; the list elements themselves are not counted.
    """
    objs = [tables.field_tables(m) for m in cfg["field_ms"]]
    objs += [tables.ext_tables(m) for m in cfg["ext_ms"]]
    total = 0
    for obj in objs:
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, list):
                total += sys.getsizeof(value)
            elif isinstance(value, dict):
                total += sum(v.nbytes for v in value.values()
                             if isinstance(v, np.ndarray))
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_pass(job: dict) -> dict:
    cfg = WORKLOADS[job["workload"]][job["size"]]
    tracer = Tracer(job["traced"], f"p{job['index']}")
    with tracer.span("pass", index=job["index"]):
        setup_s = setup(cfg, tracer)
        t = now()
        with tracer.span("sweep"):
            out = SWEEPS[job["workload"]](cfg, tracer)
        t_last = now()
    out.update(t_last=t_last, setup_s=setup_s, sweep_s=t_last - t,
               peak_rss_mb=peak_rss_mb(), bytes_computed=table_bytes(cfg),
               spans=tracer.spans)
    rng = random.Random(f"{job['seed']}:{job['index']}")
    out["oracle"] = {f"{kind}.m{m}": ORACLES[kind](m, rng) for kind, m in cfg["oracle"]}
    if job["workload"] == "base_sweep" and job["index"] == 0:
        out["pairs"] = theorem_pairs(cfg["m"], cfg["ks"])
    return out


def run_setup(job: dict) -> dict:
    return {"setup_s": setup(WORKLOADS[job["workload"]][job["size"]], Tracer(False, "s"))}


def main() -> None:
    job = json.loads(sys.argv[1])
    if job["mode"] == "pass":
        result = run_pass(job)
    elif job["mode"] == "setup":
        result = run_setup(job)
    else:
        import probes  # imported here: probes imports this module
        result = probes.run(job, WORKLOADS[job["workload"]][job["size"]])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
