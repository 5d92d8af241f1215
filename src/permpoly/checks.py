"""Exhaustive checkers for every claimed identity and bijection.

Each checker sweeps a whole field (or extension field) and fills in the
CheckOutcome that its `@_check` registration hands it; permutation status is
always decided by occupancy counting, never by the parity formulas under test.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from dataclasses import asdict, dataclass
from math import gcd, prod
from typing import Callable

import numpy as np

from .errors import NotDivisible, OutOfRange, PreconditionFailed
from .field import MAX_DEGREE, FieldSpec, coprime_ks, make_field
from .maps import dickson_exponents
from .params import derive_params
from .sparsepoly import expand_h, sp_add, sp_reduce_mod_field, trace_poly
from .tables import (EXT_MAX_DEGREE, ext_tables, f_alpha_table, field_tables,
                     g_beta_table, h_value_table)

NOT_A_CLASS = -1

#: the largest m_max of nobauer and dickson_methods (q x q products, n up to q^2)
MUL_TABLE_M_MAX = 5
#: the largest k_max of dickson_linearized
LINEARIZED_K_MAX = 16

#: z values per chunk of check_zsumexp. Workers x _ZSUM_CHUNK elements are in
#: flight at once, each with about twenty temporaries of 4 or 8 bytes. Fixed rather
#: than derived from the worker count, so the first counterexample (first failing
#: chunk, then comparison, then z) is the same on every machine.
_ZSUM_CHUNK = 1 << 15


@dataclass
class PermutationReport:
    m: int
    k: int
    alpha: int
    gamma: int
    is_permutation: bool
    predicted_by_theorem: bool
    image_of_t0: int  # trace-class label, or NOT_A_CLASS
    image_of_t1: int
    t0_bijective: bool
    t1_bijective: bool

    @property
    def agree(self) -> bool:
        return self.is_permutation == self.predicted_by_theorem


@dataclass
class CheckOutcome:
    """One check's record: a comparison count and the first counterexample, which fails it."""

    check: str
    params: dict
    passed: bool = True
    tested: int = 0
    counterexample: dict | None = None
    ms: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)

    def _keep(self, counterexample: dict):
        """Hold `counterexample`, which fails the check, unless one is held already."""
        if self.passed:
            self.passed, self.counterexample = False, counterexample

    def expect(self, ok: bool, inputs, lhs, rhs):
        self.tested += 1
        if not ok:
            self.fail(inputs, lhs, rhs)

    def fail(self, inputs, lhs, rhs):
        """Record a counterexample unless one is held already; counts nothing."""
        self._keep({"inputs": [_hx(v) for v in inputs], "lhs": _hx(lhs), "rhs": _hx(rhs)})

    def in_field(self, inputs, values: np.ndarray, q: int) -> bool:
        """Whether all values lie in GF(q); else records the first outside, counting nothing."""
        bad = np.flatnonzero(_outside(values, q))
        if bad.size:
            self.fail([*inputs, bad[0]], values.flat[bad[0]], q)
        return not bad.size

    def guard_holds(self, inputs, guarded) -> bool:
        """Whether guarded() passes its table guard, else records why, counting nothing."""
        try:
            guarded()
        except ArithmeticError as exc:
            self._keep({"inputs": [_hx(v) for v in inputs],
                        "guard": f"{guarded.__name__}: {exc}"})
            return False
        return True

    def compare(self, inputs, lhs, rhs):
        """Elementwise equality of two numpy arrays."""
        lhs = np.asarray(lhs)
        rhs = np.asarray(rhs)
        self.tested += int(lhs.size)
        if self.passed:
            bad = np.nonzero(lhs != rhs)[0]
            if bad.size:
                i = int(bad[0])
                self.fail([a[i] if np.ndim(a) else a for a in inputs], lhs[i], rhs[i])

    def merge(self, part: CheckOutcome):
        """Fold in a record of later inputs: add its count, keep the first counterexample."""
        self.tested += part.tested
        if not part.passed:
            self._keep(part.counterexample)


def _hx(v) -> str:
    """Hex for an element, `none` for None (no trace class)."""
    return "none" if v is None else format(int(v), "x")


def _outside(values: np.ndarray, q: int) -> np.ndarray:
    """Mask of the values that are not elements of GF(q), that is not in 0..q-1."""
    return (values < 0) | (values >= q)


def _injective(values: np.ndarray, q: int):
    """Along the last axis: whether every value lies in GF(q) and none occurs
    twice, by one bincount of how often each element occurs in each row; on q
    values, whether they permute GF(q)."""
    lead = values.shape[:-1]
    inside = (values.min(axis=-1, initial=0) >= 0) & (values.max(axis=-1, initial=0) < q)
    # a row with a value outside GF(q) has failed; clipping keeps its keys in range
    keys = values if inside.all() else np.clip(values, 0, q - 1)
    if lead:  # row i counts in bins i*q .. i*q + q - 1
        keys = keys + q * np.arange(prod(lead)).reshape(*lead, 1)
    counts = np.bincount(keys.ravel(), minlength=q * prod(lead)).reshape(*lead, q)
    ok = inside & (counts < 2).all(axis=-1)
    return ok if lead else bool(ok)


def _on_class(ft, tab: np.ndarray, e: int) -> tuple[int, bool]:
    """Where `tab` sends the trace class T_e: the class holding the whole image
    (NOT_A_CLASS if it meets both or leaves GF(q)), and whether `tab` is injective there."""
    image = tab[ft.tr == e]
    if _outside(image, ft.q).any():
        return NOT_A_CLASS, False
    traces = ft.tr[image]
    cls = 0 if not traces.any() else 1 if traces.all() else NOT_A_CLASS
    return cls, _injective(image, ft.q)


def _expect_classes(sweep: CheckOutcome, ft, tab: np.ndarray, t1_target: int):
    """`tab` maps T_0 onto T_0 and T_1 onto T_(t1_target), bijectively."""
    for e, target in ((0, 0), (1, t1_target)):
        cls, bijective = _on_class(ft, tab, e)
        sweep.expect(cls == target and bijective, [e],
                     None if cls == NOT_A_CLASS else cls, target)


def _mul_table(spec: FieldSpec) -> np.ndarray:
    """The full q x q multiplication table, from the scalar arithmetic."""
    return np.array([[spec.mul(x, y) for y in spec.elements()] for x in spec.elements()],
                    dtype=np.int64)


def _dickson_rows(mul: np.ndarray, a, n_max: int):
    """(n, D_n(x, a) for every x) for n = 1..n_max, by D_n = x*D_(n-1) + a*D_(n-2);
    for a column of a values, one row per a."""
    xs = np.arange(len(mul), dtype=np.int64)
    cur = np.broadcast_to(xs, np.broadcast(a, xs).shape)
    prev = np.zeros_like(cur)
    for n in range(1, n_max + 1):
        yield n, cur
        prev, cur = cur, mul[xs, cur] ^ mul[a, prev]


# ---------------------------------------------------------------------------
# the registry read by `permpoly verify` and the acceptance tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One named check: its checker, and the argument tuples it sweeps up to a cap."""

    fn: Callable[..., CheckOutcome]
    grid: Callable[[int], list[tuple]]
    default_cap: int
    #: the largest m with tables for every field the grid reaches at this cap
    #: (EXT_MAX_DEGREE for extension tables); None where the grid clamps the cap
    max_cap: int | None


#: Every check, in `verify --suite all` order: the order of the @_check definitions
#: below, which the benchmark's pinned records follow index by index.
CHECKS: dict[str, Check] = {}


def _check(name: str, grid: Callable[[int], list[tuple]], default_cap: int,
           max_cap: int | None = MAX_DEGREE):
    """Register as check `name` a checker that fills in the record it is given first.
    The registered function takes the other arguments and returns the record, with
    them as its params and the checker's time (lazy table builds included) as its ms."""
    def register(body):
        sig = inspect.signature(body)
        sig = sig.replace(parameters=list(sig.parameters.values())[1:],
                          return_annotation=CheckOutcome)

        @functools.wraps(body)
        def run(*args, **kwargs):
            sweep = CheckOutcome(name, dict(sig.bind(*args, **kwargs).arguments))
            start = time.perf_counter()
            body(sweep, **sweep.params)
            sweep.ms = (time.perf_counter() - start) * 1000.0
            return sweep
        run.__signature__ = sig
        CHECKS[name] = Check(run, grid, default_cap, max_cap)
        return run
    return register


def _coprime_grid(cap: int) -> list[tuple]:
    return [(m, k) for m in range(2, cap + 1) for k in coprime_ks(m)]


def _clamped(limit: int) -> Callable[[int], list[tuple]]:
    """The grid of a check run once at min(cap, limit), so that it takes any cap."""
    return lambda cap: [(min(cap, limit),)]


def run_check(name: str, cap: int):
    """Yield the outcome of check `name` at every grid point up to `cap`."""
    check = CHECKS[name]
    for args in check.grid(cap):
        yield check.fn(*args)


# ---------------------------------------------------------------------------
# main theorem
# ---------------------------------------------------------------------------

def check_main_theorem(m: int, k: int) -> list[PermutationReport]:
    """Brute-force permutation and trace-class behavior of H for all (alpha, gamma)."""
    ft = field_tables(m)
    reports = []
    for alpha in (0, 1):
        p = derive_params(m, k, alpha=alpha)
        h_alpha = h_value_table(ft, p)
        for gamma, h in enumerate((h_alpha, h_alpha ^ ft.tr)):
            class0, bijective0 = _on_class(ft, h, 0)
            class1, bijective1 = _on_class(ft, h, 1)
            reports.append(PermutationReport(
                m=m, k=k, alpha=alpha, gamma=gamma,
                is_permutation=_injective(h, ft.q),
                predicted_by_theorem=(p.r + (alpha + gamma) * m) % 2 == 1,
                image_of_t0=class0, image_of_t1=class1,
                t0_bijective=bijective0, t1_bijective=bijective1))
    return reports


@_check("main_theorem", _coprime_grid, 12)
def check_main_theorem_outcome(sweep: CheckOutcome, m: int, k: int):
    for rep in check_main_theorem(m, k):
        # the theorem's parity also names the class T_1 is sent to
        ok = (rep.is_permutation == rep.predicted_by_theorem
              and rep.t0_bijective and rep.image_of_t0 == 0
              and rep.t1_bijective and rep.image_of_t1 == int(rep.predicted_by_theorem))
        sweep.expect(ok, [rep.alpha, rep.gamma],
                     rep.is_permutation, rep.predicted_by_theorem)
        sweep.tested += (1 << m) - 1


# ---------------------------------------------------------------------------
# Dickson permutation criterion
# ---------------------------------------------------------------------------

@_check("nobauer", _clamped(MUL_TABLE_M_MAX), MUL_TABLE_M_MAX, None)
def check_nobauer(sweep: CheckOutcome, m_max: int):
    """Permutation status of D_n(X, a) against gcd(n, q^2 - 1) = 1."""
    if m_max > MUL_TABLE_M_MAX:
        raise OutOfRange(f"m_max={m_max} exceeds the runtime guard {MUL_TABLE_M_MAX}")
    for m in range(2, m_max + 1):
        q = 1 << m
        mul = _mul_table(make_field(m))
        if not sweep.in_field([m], mul, q):
            continue
        a, ns = np.arange(1, q), np.arange(1, q * q)
        observed = np.empty((q - 1, q * q - 1), dtype=bool)  # observed[a - 1, n - 1]
        for n, dn in _dickson_rows(mul, a[:, None], q * q - 1):  # one recurrence for all a
            observed[:, n - 1] = _injective(dn, q)
        predicted = np.gcd(ns, q * q - 1) == 1
        for a_row, row in zip(a, observed):  # a-major, as a loop over a and then n
            sweep.compare([m, a_row, ns], row, predicted)


# ---------------------------------------------------------------------------
# properties of the linearized map pair
# ---------------------------------------------------------------------------

@_check("fgprop", _coprime_grid, 12)
def check_fgprop(sweep: CheckOutcome, m: int, k: int):
    ft = field_tables(m)
    q = ft.q
    xs = np.arange(q, dtype=np.int64)
    frobk = ft.frobenius_table(k)
    fas = [f_alpha_table(ft, derive_params(m, k, alpha=alpha)) for alpha in (0, 1)]
    gs = [g_beta_table(ft, derive_params(m, k, beta=beta)) for beta in (0, 1)]
    for alpha, fa in enumerate(fas):
        for beta, g in enumerate(gs):
            p = derive_params(m, k, alpha=alpha, beta=beta)
            if not (sweep.in_field([alpha, beta], fa, q) and sweep.in_field([alpha, beta], g, q)):
                continue
            f_par = (p.r + alpha * m) % 2
            g_par = (k + beta * m) % 2
            # (i), (ii): trace multipliers and the values at 1
            sweep.compare([xs], ft.tr[fa], f_par * ft.tr)
            sweep.expect(int(fa[1]) == f_par, [1], fa[1], f_par)
            sweep.compare([xs], ft.tr[g], g_par * ft.tr)
            sweep.expect(int(g[1]) == g_par, [1], g[1], g_par)
            # (iii): functional equations
            sweep.compare([xs], frobk[fa] ^ fa, ft.sq[xs] ^ xs)
            sweep.compare([xs], ft.sq[g] ^ g, frobk[xs] ^ xs)
            # (iv), (v): trace-class bijectivity and the permutation parity
            for tab, par in ((fa, f_par), (g, g_par)):
                _expect_classes(sweep, ft, tab, par)
                observed_pp = _injective(tab, q)
                sweep.expect(observed_pp == (par == 1), [par], observed_pp, par == 1)
            # (vi): composition collapses to x + delta*Tr(x)
            delta = p.delta
            target = xs ^ (delta * ft.tr)
            sweep.compare([xs], fa[g], target)
            sweep.compare([xs], g[fa], target)
            sweep.expect((1 + delta * m) % 2 == (f_par * g_par) % 2,
                         [alpha, beta], (1 + delta * m) % 2, (f_par * g_par) % 2)
            # (vii): decomposition through g_0, for both lambda choices
            for lam in (0, 1):
                theta = derive_params(m, k, alpha=alpha, beta=beta, lam=lam).theta
                ybar = xs ^ (lam * ft.tr)
                sweep.compare([xs], g, gs[0][ybar] ^ (theta * ft.tr))
                if lam == delta:
                    # the stated theta congruence is the lambda = delta instance
                    lhs = (m * theta) % 2
                    rhs = (k + beta * m + k * (1 + delta * m)) % 2
                    sweep.expect(lhs == rhs, [alpha, beta, lam], lhs, rhs)


@_check("hprop", _coprime_grid, 12)
def check_hprop(sweep: CheckOutcome, m: int, k: int):
    """Both claims: the rewritten H form, and the trace multiplier of H."""
    ft = field_tables(m)
    xs = np.arange(ft.q, dtype=np.int64)
    for alpha in (0, 1):
        p = derive_params(m, k, alpha=alpha)
        fa = f_alpha_table(ft, p)
        h_alpha = h_value_table(ft, p)
        ratio = ft.pow_vec((fa, 1), (xs, -1))  # 0 at x = 0, where fa is 0
        for gamma, h in enumerate((h_alpha, h_alpha ^ ft.tr)):
            alt = ft.sq[ratio] ^ ratio ^ fa ^ (gamma * ft.tr)
            sweep.compare([xs], h, alt)
            par = (p.r + (alpha + gamma) * m) % 2
            sweep.compare([xs], ft.tr[h], par * ft.tr)


# ---------------------------------------------------------------------------
# extension-field lemmas
# ---------------------------------------------------------------------------

def _b_sets(et) -> dict:
    """(indices, phi, w) for B_0 and B_1. B_0 is the line indices 0..q without 1, q
    standing for infinity; B_1 the exponents 1..q of theta^i. phi = 1/(z + 1/z) is a
    (q+1)-entry table, x/(x + 1)^2 on the line and 1/c[i] on the circle, with
    phi(1) = infinity stored as q. w(s, .) is z^s: x^s fixing infinity, i -> s*i mod (q+1)."""
    q, base, c = et.q, et.base, et.circle()[0]
    xs = np.arange(q, dtype=np.int64)
    phi0 = np.append(base.pow_vec((xs, 1), (xs ^ 1, -2)), 0)
    phi1 = base.pow_vec((c, -1))
    phi0[1] = phi1[0] = q
    line = np.arange(q + 1, dtype=np.int64)
    return {0: (np.delete(line, 1), phi0, lambda s, z: np.append(base.pow_vec((xs, s)), q)[z]),
            1: (line[1:], phi1, lambda s, i: s * i % (q + 1))}


@_check("perm_lemma", _coprime_grid, 10, EXT_MAX_DEGREE)
def check_perm_lemma(sweep: CheckOutcome, m: int, k: int):
    et = ext_tables(m)
    q = et.q
    sigma = 1 << k
    if not sweep.guard_holds([], et.circle):
        return
    b_sets = _b_sets(et)
    # (i): phi is two-to-one from B_e onto T_e
    for e, (b, phi, _) in b_sets.items():
        values, counts = np.unique(phi[b], return_counts=True)
        ok = np.array_equal(values, np.nonzero(et.base.tr == e)[0]) and bool((counts == 2).all())
        sweep.expect(ok, [e], counts.min(), 2)
        sweep.tested += q - 1
    # (ii), (iii): the power maps, checked three ways
    parity = {(0, 0): True, (0, 1): k % 2 == 1,
              (1, 0): m % 2 == 1, (1, 1): (m + k) % 2 == 1}
    for widx in (0, 1):
        s = sigma - 1 if widx == 0 else sigma + 1
        for e, (b, _, w) in b_sets.items():
            observed = np.array_equal(np.unique(w(s, b)), b)
            gcd_cond = gcd(s, q - 1 if e == 0 else q + 1) == 1
            predicted = parity[(widx, e)]
            sweep.expect(observed == gcd_cond == predicted,
                         [widx, e], observed, predicted)
            sweep.tested += q - 1


def _workers() -> int:
    """The number of CPUs this process may run on (`taskset` narrows it)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _zsum_chunk(et, k: int, g0: np.ndarray, lo: int, hi: int) -> CheckOutcome:
    """The identities of check_zsumexp for the packed z in lo..hi-1 (lo >= 2)."""
    sweep = CheckOutcome("zsum_chunk", {"k": k, "lo": lo, "hi": hi})
    n = et.n
    sigma = 1 << k
    z = np.arange(lo, hi, dtype=np.int64)
    lz = et.log[z].astype(np.int64)  # widened: sigma * lz passes 2^31 from m = 11
    zinv = et.exp[(-lz) % n]
    y = z ^ zinv  # z + 1/z, nonzero since z != 1
    ly = et.log[y].astype(np.int64)
    # (i)
    lhs = np.zeros(len(z), dtype=np.int64)
    for j in range(1, k + 1):
        lhs ^= et.exp[(-(1 << j) * ly) % n]
    w0 = et.exp[((sigma - 1) * lz) % n]
    w0inv = et.exp[((1 - sigma) * lz) % n]
    t = w0 ^ w0inv
    rhs = np.where(t == 0, 0, et.exp[(et.log[t] - (sigma + 1) * ly) % n])
    sweep.compare([z], lhs, rhs)
    # (ii): both displayed identities; the first has the right side of (i)
    lphi = (-ly) % n
    gsq = et.sq[g0[et.exp[lphi]]]
    sweep.compare([z], gsq, rhs)
    w1 = et.exp[((sigma + 1) * lz) % n]
    w1inv = et.exp[(-(sigma + 1) * lz) % n]
    yw1 = w1 ^ w1inv
    rhs1 = np.where(yw1 == 0, 0,
                    et.exp[((sigma + 1) * lphi + et.log[yw1]) % n])
    sweep.compare([z], 1 ^ gsq, rhs1)
    # the expansion of (z + 1/z)^(sigma+1) used to prove (ii)
    sweep.compare([z], et.exp[((sigma + 1) * ly) % n], w1 ^ w0 ^ w0inv ^ w1inv)
    return sweep


@_check("zsumexp", _coprime_grid, 10, EXT_MAX_DEGREE)
def check_zsumexp(sweep: CheckOutcome, m: int, k: int):
    """Identities (i) and (ii) at every z of GF(q^2) other than 0 and 1, chunk
    by chunk on a thread pool (numpy's gathers release the GIL); the parts are
    folded in chunk order, so the outcome is the serial one."""
    # imported here: concurrent.futures loads logging, about 0.5 MB that no
    # other check needs
    from concurrent.futures import ThreadPoolExecutor
    et = ext_tables(m)
    g0 = et.g0_table(k)
    # the exp and g0 values are the only ones _zsum_chunk uses as indices
    if not (sweep.in_field([], et.exp, et.Q) and sweep.in_field([], g0, et.Q)):
        return
    starts = range(2, et.Q, _ZSUM_CHUNK)
    with ThreadPoolExecutor(max_workers=min(_workers(), len(starts))) as pool:
        for part in pool.map(lambda lo: _zsum_chunk(et, k, g0, lo, min(lo + _ZSUM_CHUNK, et.Q)),
                             starts):
            sweep.merge(part)


# ---------------------------------------------------------------------------
# the Dickson connection
# ---------------------------------------------------------------------------

@_check("h_dickson", _coprime_grid, 10, EXT_MAX_DEGREE)
def check_h_dickson(sweep: CheckOutcome, m: int, k: int):
    ft = field_tables(m)
    et = ext_tables(m)
    base = derive_params(m, k)
    alpha = 0 if base.r % 2 == 1 else 1
    beta = (base.m_prime + alpha * k) % 2
    p = derive_params(m, k, alpha=alpha, beta=beta)
    sweep.expect((p.r + alpha * m) % 2 == 1, [alpha], (p.r + alpha * m) % 2, 1)
    sweep.expect((k + beta * m) % 2 == 1, [beta], (k + beta * m) % 2, 1)
    g = g_beta_table(ft, p)
    hs = [h_value_table(ft, derive_params(m, k, alpha=a)) for a in (0, 1)]
    q = ft.q
    xs = np.arange(1, q, dtype=np.int64)
    if (sweep.in_field([], g, q) and sweep.in_field([], ft.exp, q)
        and sweep.guard_holds([], et.circle)):
        gx = g[xs]
        sweep.expect(bool((gx != 0).all()), [0], bool((gx != 0).all()), True)
        lhs = hs[alpha][gx]
        mid = ft.pow_vec((xs, p.sigma + 1), (gx, -2))
        sweep.compare([xs], lhs, mid)
        # the Dickson form D_d(1/x)
        d = (1 << k) - 1 if beta == 0 else (1 << (m - k)) - 1
        dval = et.dickson_vec(d, ft.pow_vec((xs, -1)))
        sweep.expect(not _outside(dval, q).any() and bool((dval != 0).all()), [0], True, True)
        exponent = -1 if beta == 0 else -(1 << k)
        sweep.compare([xs], mid, ft.pow_vec((dval, exponent)))
    # permutation status for both alpha choices
    for a in (0, 1):
        observed = _injective(hs[a], q)
        predicted = (p.r + a * m) % 2 == 1
        sweep.expect(observed == predicted, [a], observed, predicted)
        sweep.tested += q - 1


# ---------------------------------------------------------------------------
# the remarks
# ---------------------------------------------------------------------------

@_check("hitt", _coprime_grid, 10, EXT_MAX_DEGREE)
def check_hitt(sweep: CheckOutcome, m: int, k: int):
    """The single equation covering injectivity on both trace classes."""
    ft = field_tables(m)
    et = ext_tables(m)
    q = et.q
    sigma = 1 << k
    beta = 0 if k % 2 == 1 else 1
    if not sweep.guard_holds([], et.circle):
        return
    b_sets = _b_sets(et)
    g = g_beta_table(ft, derive_params(m, k, beta=beta))
    for alpha in (0, 1):
        p = derive_params(m, k, alpha=alpha, beta=beta)
        h_alpha = h_value_table(ft, p)
        delta, theta = p.delta, p.theta
        for gamma, h in enumerate((h_alpha, h_alpha ^ ft.tr)):
            sweep.expect((k + beta * m) % 2 == 1, [beta], (k + beta * m) % 2, 1)
            for e in (0, 1):
                z, phi, w = b_sets[(e * (1 + delta * m)) % 2]
                pz = phi[z]
                pw = phi[w(sigma - 1 if theta * e == 0 else sigma + 1, z)]
                inputs = [alpha, gamma, e]
                if sweep.in_field(inputs, pz, q) and sweep.in_field(inputs, pw, q):
                    sweep.compare([*inputs, z], h[g[pz ^ (delta * e)]], pw ^ (gamma * e))


@_check("remark3", lambda cap: [(m,) for m in range(2, cap + 1)], 12)
def check_remark3(sweep: CheckOutcome, m: int):
    """h(x) = x + 1/x + 1/x^2 permutes T_1; H_{1,1} with k = 1 fixes T_0."""
    if m < 2:
        raise PreconditionFailed(f"m={m} must be >= 2")
    ft = field_tables(m)
    t1 = np.nonzero(ft.tr == 1)[0].astype(np.int64)
    h = t1 ^ ft.pow_vec((t1, -1)) ^ ft.pow_vec((t1, -2))
    ok = _injective(h, ft.q) and bool((ft.tr[h] == 1).all())
    sweep.expect(ok, [m], ok, True)
    sweep.tested += t1.size - 1
    p = derive_params(m, 1, alpha=1, gamma=1)
    htab = h_value_table(ft, p)
    t0_idx = np.nonzero(ft.tr == 0)[0].astype(np.int64)
    sweep.compare([t0_idx], htab[t0_idx], t0_idx)
    sweep.compare([t1], htab[t1], h)


@_check("remark4", lambda cap: [(m, (m + 1) // 2) for m in range(3, cap + 1, 2)], 13)
def check_remark4(sweep: CheckOutcome, m: int, k: int):
    if (2 * k) % m != 1:
        raise PreconditionFailed(f"2k = {2 * k} is not 1 mod m = {m}")
    p00 = derive_params(m, k)
    sigma = p00.sigma
    sweep.expect(p00.r == 2, [m, k], p00.r, 2)
    # (a) the quoted 4-term expansion
    expected = {sigma - 1, 2 * (sigma - 1), sigma * sigma - 1,
                sigma * sigma + sigma - 2}
    got = set(expand_h(p00))
    sweep.expect(got == expected, [m, k], min(got ^ expected, default=0), 0)
    sweep.tested += len(expected) - 1
    # (b) the trace-class behavior of H_00 and H_01
    ft = field_tables(m)
    h00 = h_value_table(ft, p00)
    h01 = h00 ^ ft.tr
    for h, t1_target in ((h00, 0), (h01, 1)):
        _expect_classes(sweep, ft, h, t1_target)
        sweep.tested += ft.q - 2
    # (c) the simplified 5-term polynomial: a PP that agrees with H_01
    five_poly = sp_add(trace_poly(m),
                       frozenset({sigma - 1, 2 * (sigma - 1), 1, sigma}))
    five = ft.poly_table(five_poly)
    sweep.compare([np.arange(ft.q)], five, h01)
    for name, tab in (("h01", h01), ("five_term", five)):
        observed = _injective(tab, ft.q)
        sweep.expect(observed, [name == "five_term"], observed, True)
    # reduced exponent sets coincide
    lhs = sp_reduce_mod_field(expand_h(derive_params(m, k, gamma=1)), m)
    rhs = sp_reduce_mod_field(five_poly, m)
    sweep.expect(lhs == rhs, [m, k], min(lhs ^ rhs, default=0), 0)


# ---------------------------------------------------------------------------
# the Dickson identities and the polynomiality of the symbolic expansion
# ---------------------------------------------------------------------------

@_check("dickson_linearized", _clamped(LINEARIZED_K_MAX), LINEARIZED_K_MAX, None)
def check_dickson_linearized(sweep: CheckOutcome, k_max: int):
    """Symbolic and pointwise forms of D_{2^k-1} = X^(2^k+1) * T_k(1/X)^2."""
    if k_max > LINEARIZED_K_MAX:
        raise OutOfRange(f"k_max={k_max} exceeds the guard {LINEARIZED_K_MAX}")
    for k in range(1, k_max + 1):
        lhs = set(dickson_exponents((1 << k) - 1))
        rhs = {(1 << k) + 1 - (1 << (j + 1)) for j in range(k)}
        sweep.expect(lhs == rhs, [k], min(lhs ^ rhs, default=0), 0)
        sweep.tested += len(rhs) - 1
    for m in range(2, 11):
        ft = field_tables(m)
        et = ext_tables(m)
        if not (sweep.in_field([m], ft.exp, ft.q) and sweep.guard_holds([m], et.circle)):
            continue
        xs = np.arange(1, ft.q, dtype=np.int64)
        tk, term = np.zeros_like(xs), ft.pow_vec((xs, -1))
        for k in range(1, m + 1):
            tk, term = tk ^ term, ft.sq[term]  # T_k(1/x), (1/x)^(2^k)
            rhs = ft.pow_vec((xs, (1 << k) + 1), (tk, 2))
            sweep.compare([xs], et.dickson_vec((1 << k) - 1, xs), rhs)


@_check("dickson_methods", _clamped(MUL_TABLE_M_MAX), MUL_TABLE_M_MAX, None)
def check_dickson_methods(sweep: CheckOutcome, m_max: int):
    """Recurrence / closed-form / functional evaluation agree on all x, n <= q^2."""
    if m_max > MUL_TABLE_M_MAX:
        raise OutOfRange(f"m_max={m_max} exceeds the runtime guard {MUL_TABLE_M_MAX}")
    for m in range(2, m_max + 1):
        et = ext_tables(m)
        q = et.q
        mul = _mul_table(make_field(m))
        if not (sweep.in_field([m], mul, q) and sweep.guard_holds([m], et.circle)):
            continue
        xs = np.arange(q, dtype=np.int64)
        for n, cur in _dickson_rows(mul, 1, q * q):
            sweep.compare([np.full(q, n), xs], cur, et.base.poly_table(dickson_exponents(n)))
            sweep.compare([np.full(q, n), xs], cur, et.dickson_vec(n, xs))


@_check("polynomiality", lambda cap: [(cap,)], 12)
def check_polynomiality(sweep: CheckOutcome, m_max: int):
    """expand_h never fails exact division; reduced form matches the evaluator."""
    for m in range(2, m_max + 1):
        ft = field_tables(m) if m <= 10 else None
        for k in coprime_ks(m):
            for alpha in (0, 1):
                for gamma in (0, 1):
                    p = derive_params(m, k, alpha=alpha, gamma=gamma)
                    try:
                        poly = expand_h(p)
                    except NotDivisible:
                        sweep.expect(False, [m, k, alpha, gamma], 1, 0)
                        continue
                    sweep.expect(0 not in poly, [m, k, alpha, gamma], 0, 0)
                    if ft is not None:
                        sweep.compare([np.arange(ft.q)], ft.poly_table(poly),
                                      h_value_table(ft, p))
