"""Layer probes for the traced run: each times calls into one module's
public functions from outside, in a fresh process.

Probe sizes are fixed (they do not follow the workload size), so every
traced run reports the same metric names. Timings are medians of a few
repetitions; rates are operations per second on a seeded batch.
"""

from __future__ import annotations

import random
import statistics

from permpoly import field, maps, sparsepoly, tables
from permpoly.field import coprime_ks, extension_of, make_field
from permpoly.params import derive_params

from worker import Tracer, now

BASE_M = 18   # base-table kernels, as in base_sweep
EXT_M = 10    # extension kernels, as in ext_sweep
FIELD_TABLE_MS = (10, 13, BASE_M)
EXT_TABLE_MS = (8, EXT_M)
MUL_M = 10    # scalar arithmetic batch
PROBE_K = 5   # coprime to BASE_M
REPS = 5


def _median_time(fn, reps: int = REPS) -> float:
    samples = []
    for _ in range(reps):
        t = now()
        fn()
        samples.append(now() - t)
    return statistics.median(samples)


def _rate(fn, items: list, reps: int = REPS) -> float:
    def batch():
        for item in items:
            fn(*item)
    return len(items) / _median_time(batch, reps)


def _param_tuples(cfg: dict) -> list:
    return [(m, k, a, b, g) for m in cfg["field_ms"]
            for k in (cfg.get("ks") or coprime_ks(m))
            for a in (0, 1) for b in (0, 1) for g in (0, 1)]


def run(job: dict, cfg: dict) -> dict:
    rng = random.Random(f"{job['seed']}:probes")
    tracer = Tracer(True, "probe")
    metrics: dict[str, float] = {}

    def probe(name: str, fn):
        with tracer.span(name):
            metrics[name] = fn()

    def irreducible_all():
        for m in range(2, BASE_M + 1):
            field.smallest_irreducible.cache_clear()
            field.smallest_irreducible(m)

    with tracer.span("probes"):
        probe("field.irreducible_s", lambda: _median_time(irreducible_all))

        spec = make_field(MUL_M)
        ext = extension_of(spec)
        pairs = [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(20000)]
        probe("field.mul_per_s", lambda: _rate(spec.mul, pairs))
        ext_pairs = [((rng.randrange(spec.q), rng.randrange(spec.q)),
                      (rng.randrange(spec.q), rng.randrange(spec.q)))
                     for _ in range(5000)]
        probe("field.ext_mul_per_s", lambda: _rate(ext.mul, ext_pairs))

        tuples = _param_tuples(cfg)
        probe("params.derive_s", lambda: _median_time(
            lambda: [derive_params(m, k, alpha=a, beta=b, gamma=g)
                     for m, k, a, b, g in tuples]))

        p_h = derive_params(BASE_M, rng.choice(coprime_ks(BASE_M)),
                            alpha=rng.randrange(2), gamma=rng.randrange(2))
        xs = [(p_h, rng.randrange(1, 1 << BASE_M)) for _ in range(2000)]
        probe("maps.eval_h_per_s", lambda: _rate(maps.eval_h, xs))

        expand_params = [derive_params(m, k, alpha=a, gamma=g)
                         for m in range(2, 17) for k in coprime_ks(m)
                         for a in (0, 1) for g in (0, 1)]
        probe("sparsepoly.expand_h_s", lambda: _median_time(
            lambda: [sparsepoly.expand_h(p) for p in expand_params]))

        for m in FIELD_TABLE_MS:
            field.smallest_irreducible(m)

            def build_field(m=m):
                tables.field_tables.cache_clear()
                tables.field_tables(m)
            probe(f"tables.field_tables_s.m{m}", lambda: _median_time(build_field))

        # ExtTables caches zmap and g0 tables per object, so those are timed
        # on each fresh build; the m = 10 build takes about a second, hence
        # fewer repetitions.
        g0s: list[float] = []
        et = None
        for m in EXT_TABLE_MS:
            tables.field_tables(m)
            builds, zmaps = [], []
            with tracer.span(f"tables.ext_tables.m{m}"):
                for _ in range(3 if m >= 10 else REPS):
                    tables.ext_tables.cache_clear()
                    et = None
                    t = now()
                    et = tables.ext_tables(m)
                    builds.append(now() - t)
                    t = now()
                    et.zmap()
                    zmaps.append(now() - t)
                    if m == EXT_M:
                        t = now()
                        for k in (1, 3, 7, 9):
                            et.g0_table(k)
                        g0s.append(now() - t)
            metrics[f"tables.ext_tables_s.m{m}"] = statistics.median(builds)
            metrics[f"tables.zmap_s.m{m}"] = statistics.median(zmaps)
        metrics["tables.g0_table_s"] = statistics.median(g0s)
        probe("tables.b1_packed_s", lambda: _median_time(et.b1_packed))
        et = None
        tables.ext_tables.cache_clear()

        ft = tables.field_tables(BASE_M)
        p = derive_params(BASE_M, PROBE_K, alpha=1, beta=1, gamma=1)
        probe("tables.h_value_table_s",
              lambda: _median_time(lambda: tables.h_value_table(ft, p)))
        probe("tables.linear_table_s", lambda: _median_time(
            lambda: (tables.f_alpha_table(ft, p), tables.g_beta_table(ft, p))))
        probe("tables.frobenius_table_s",
              lambda: _median_time(lambda: ft.frobenius_table(PROBE_K)))
    return {"metrics": metrics, "spans": tracer.spans}
