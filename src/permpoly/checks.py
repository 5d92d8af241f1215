"""Exhaustive checkers for every claimed identity and bijection.

Each checker sweeps a whole field (or extension field) and fills in the
CheckOutcome that its `@_check` registration hands it, with each field's tables
as `_guarded_tables` fetched and guarded them; permutation status is always
decided by occupancy counting, never by the parity formulas under test.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from dataclasses import asdict, dataclass
from math import gcd
from typing import Callable

import numpy as np

from .errors import NotDivisible, OutOfRange
from .field import MAX_DEGREE, coprime_ks, make_field
from .maps import dickson_exponents
from .params import derive_params
from .sparsepoly import expand_h, sp_add, sp_reduce_mod_field, trace_poly
from .tables import (_CHUNK_ELEMENTS, EXT_MAX_DEGREE, _fold, _rotl, ext_tables, f_alpha_map,
                     f_alpha_table, field_tables, g_beta_map, g_beta_table, h_value_table)

NOT_A_CLASS = -1

#: the largest m_max of nobauer and dickson_methods (q x q products, n up to q^2)
MUL_TABLE_M_MAX = 5
#: the largest k_max of dickson_linearized
LINEARIZED_K_MAX = 16


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
    """One check's record: `tested`, one per `expect` and one per element given to
    `compare`, and the first counterexample, which fails it."""

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

    def expect(self, ok: bool, inputs, lhs, rhs) -> bool:
        self.tested += 1
        if not ok:
            self.fail(inputs, lhs, rhs)
        return ok

    def fail(self, inputs, lhs, rhs):
        """Record a counterexample unless one is held already; counts nothing."""
        self._keep({"inputs": [_hx(v) for v in inputs], "lhs": _hx(lhs), "rhs": _hx(rhs)})

    def in_field(self, inputs, values: np.ndarray, q: int) -> bool:
        """Whether all values lie in GF(q); else records the first outside, counting nothing.
        The bounds come first, so a whole table in range costs no mask."""
        if _in_range(values, q):
            return True
        bad = np.flatnonzero(_outside(values, q))[0]
        self.fail([*inputs, bad], values.flat[bad], q)
        return False

    def halves_in_field(self, inputs, mp, q: int) -> bool:
        """Whether both halves of the `LinearMap` mp lie in GF(q), lo first, and with
        them every XOR of the two, each value of the map; else records the first entry
        outside, by its index in its half, counting nothing."""
        return self.in_field(inputs, mp.lo, q) and self.in_field(inputs, mp.hi, q)

    def units(self, xs, values: np.ndarray, q: int) -> bool:
        """One comparison: whether all values lie in 1..q-1, else records the first x's not."""
        i = int(np.argmax((values == 0) | _outside(values, q)))  # 0 if none
        return self.expect(bool(0 < values[i] < q), [xs[i]], values[i], q)

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
        """Elementwise equality of two numpy arrays, broadcast together, in C
        order; the counterexample names each array input at the failing index."""
        lhs = np.asarray(lhs)
        rhs = np.asarray(rhs)
        if lhs.shape != rhs.shape:
            lhs, rhs = np.broadcast_arrays(lhs, rhs)
        self.tested += int(lhs.size)
        if self.passed:
            bad = np.flatnonzero(lhs != rhs)
            if bad.size:
                i = np.unravel_index(bad[0], lhs.shape)
                self.fail([np.broadcast_to(a, lhs.shape)[i] if np.ndim(a) else a
                           for a in inputs], lhs[i], rhs[i])

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


def _in_range(values: np.ndarray, q: int) -> bool:
    """Whether every value lies in GF(q), from the two bounds: no mask."""
    return bool(values.min(initial=0) >= 0 and values.max(initial=0) < q)


def _workers() -> int:
    """The number of CPUs this process may run on (`taskset` narrows it)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spans(lo: int, hi: int, width: int = 1) -> list[tuple[int, int]]:
    """The chunks [a, b) of lo..hi-1, each of as many consecutive values, `width` elements
    per value, as fit in _CHUNK_ELEMENTS (at least one), the last one shorter."""
    step = max(1, _CHUNK_ELEMENTS // width)
    return [(a, min(a + step, hi)) for a in range(lo, hi, step)]


def _map_chunks(body, lo: int, hi: int) -> list:
    """[body(a, b) for each chunk [a, b) of _spans(lo, hi)], in chunk order, on
    min(_workers(), chunks) threads: the calling one and helpers started for this
    call (numpy releases the GIL in much of a chunk's work), each taking the next
    chunk until none is left; one chunk, or one worker, runs inline. A failing
    chunk stops only its own thread; the first failing chunk's exception is raised.

    Plain threads, not a concurrent.futures pool: that import loads logging in
    the middle of a sweep, whose objects then pin the top of the heap, so the
    tables freed below them stay resident (base_sweep peaks about 2 MB higher)."""
    spans = _spans(lo, hi)
    results, errors = [None] * len(spans), []
    claims = itertools.count()  # next() is atomic under the GIL

    def drain():
        while (i := next(claims)) < len(spans):
            try:
                results[i] = body(*spans[i])
            except BaseException as exc:  # raised on the calling thread below
                errors.append((i, exc))
                return
    helpers = [threading.Thread(target=drain) for _ in range(min(_workers(), len(spans)) - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return results


def _sweep_chunks(sweep: CheckOutcome, body, lo: int, hi: int):
    """Merge a chunked sweep's comparisons into `sweep`, slot-major. body(a, b) returns,
    for x in a..b-1, a list of one CheckOutcome per comparison slot, in the check's
    order; each slot is merged over all chunks in chunk order before the next, so the
    first counterexample is the first failing comparison, then its first x, whatever
    the chunk size or worker count."""
    for slot in zip(*_map_chunks(body, lo, hi)):
        for part in slot:
            sweep.merge(part)


def _occupancy(q: int, rows: int, blocks, n: int):
    """The one occupancy kernel: a (rows, q) bool grid where each value v of row i sets
    grid[i, v], folded over the chunks [a, b) of 0..n-1 on _map_chunks; blocks(a, b) gives a
    chunk's values as 1-D or 2-D arrays whose rows are, in order, the grid's. Marks are plain
    stores, which are idempotent, so chunks may mark in any order on any thread (a fancy-index
    `|=` keeps only the last write of an index). Returns the grid and, per row, how many values
    it was given, or -1 if one leaves GF(q): a row is injective iff it has that many marks."""
    grid = np.zeros((rows, q), dtype=bool)

    def mark(a: int, b: int) -> np.ndarray:
        given, row = np.empty(rows, dtype=np.int64), 0
        for block in blocks(a, b):
            keys = np.atleast_2d(block)
            r = len(keys)
            given[row:row + r] = keys.shape[-1]
            if not _in_range(keys, q):  # the failed rows, clipped to mark only their own row
                given[row:row + r][(keys.min(axis=-1) < 0) | (keys.max(axis=-1) >= q)] = -1
                keys = np.clip(keys, 0, q - 1)
            if r > 1:  # row i of the block marks in i*q .. i*q + q - 1
                keys = keys + q * np.arange(r)[:, None]
            # numpy scatters intp faster than int32
            grid[row:row + r].reshape(-1)[keys.ravel().astype(np.intp, copy=False)] = True
            row += r
        return given
    return grid, functools.reduce(lambda s, t: np.where((s < 0) | (t < 0), -1, s + t),
                                  _map_chunks(mark, 0, n))


def _injective(values: np.ndarray, q: int):
    """Along the last axis: whether every value lies in GF(q) and none occurs twice,
    from each row's occupancy marks, folded over chunks of that axis; on q values,
    whether they permute GF(q)."""
    rows = values.reshape(-1, values.shape[-1])
    grid, given = _occupancy(q, len(rows), lambda a, b: (rows[:, a:b],), rows.shape[1])
    # numpy counts along an axis as a sum of bools: quick for many short rows, but
    # several times slower than a flat count on one long row
    ok = (np.count_nonzero(grid, axis=-1) if len(rows) > 1 else np.count_nonzero(grid)) == given
    return ok.reshape(values.shape[:-1]) if values.ndim > 1 else bool(ok[0])


def _class_images(ft, tables: int, values) -> list:
    """For each of `tables` tables, given chunk by chunk by values(lo, hi), one array per
    table of its values at x = lo..hi-1: for T_0 and T_1, the class holding the image
    (NOT_A_CLASS if it meets both or leaves GF(q)) and whether the table is injective
    there; and whether the table permutes GF(q): iff both are and the images do not overlap.
    Each class's image is an occupancy row, whose marks in T_1 are counted chunk by chunk."""
    q = ft.q

    def class_rows(lo: int, hi: int):  # compressed one at a time, as the kernel marks
        tr = ft.tr.span(lo, hi)
        members = tr == 0, tr == 1
        return (tab[member] for tab in values(lo, hi) for member in members)
    grid, given = _occupancy(q, 2 * tables, class_rows, q)
    ones = [0] * len(grid)
    for a, b in _spans(0, q):  # one T_1 mask per chunk, shared by the rows
        t1 = ft.tr.span(a, b) == 1
        ones = [n + np.count_nonzero(row[a:b] & t1) for n, row in zip(ones, grid)]
    classes = []
    for row, size, n1 in zip(grid, given.tolist(), ones):
        marked = np.count_nonzero(row)
        cls = 0 if n1 == 0 else 1 if n1 == marked else NOT_A_CLASS
        classes.append((NOT_A_CLASS if size < 0 else cls, marked == size))
    return [(classes[2 * t:2 * t + 2], classes[2 * t][1] and classes[2 * t + 1][1]
             and not np.logical_and(marks[0], marks[1], out=marks[0]).any())
            for t, marks in enumerate(grid.reshape(tables, 2, q))]


def _expect_same_set(sweep: CheckOutcome, inputs, lhs: set | frozenset, rhs: set | frozenset):
    """One verdict that two exponent sets are equal: a failure names the least exponent
    in only one of them, after `inputs`, with whether each side holds it (1 or 0)."""
    e = min(lhs ^ rhs, default=0)
    sweep.expect(lhs == rhs, [*inputs, e], int(e in lhs), int(e in rhs))


def _expect_classes(sweep: CheckOutcome, classes, t1_target: int):
    """The `_class_images` classes: T_0 onto T_0 and T_1 onto T_(t1_target), bijectively."""
    for e, ((cls, bijective), target) in enumerate(zip(classes, (0, t1_target))):
        sweep.expect(cls == target and bijective, [e],
                     None if cls == NOT_A_CLASS else cls, target)


@functools.lru_cache(maxsize=None)
def _mul_table(m: int) -> np.ndarray:
    """The q x q multiplication table of GF(2^m), read-only, built once per m from
    the scalar arithmetic, so that the recurrence does not rest on the log tables."""
    spec = make_field(m)
    tab = np.array([[spec.mul(x, y) for y in spec.elements()] for x in spec.elements()],
                   dtype=np.int32)
    tab.flags.writeable = False
    return tab


def _dickson_blocks(mul: np.ndarray, a, n_max: int, width: int):
    """(int32 ns, D_n(x, a) for every x, one row per n) for n = 1..n_max in the _spans blocks
    of `width` elements per n, by D_n = x*D_(n-1) + a*D_(n-2); rows [a, x] for a column of a.
    Rows are copied into their block, so changing a block does not reach the recurrence."""
    q = len(mul)
    flat = mul.astype(np.intp).ravel()  # mul[u, v] = flat[u*q + v]
    xs = np.arange(q)
    xq, aq = q * xs, q * a
    cur = np.broadcast_to(xs, np.broadcast(a, xs).shape)
    prev = np.zeros_like(cur)
    for lo, hi in _spans(1, n_max + 1, width):
        block = np.empty((hi - lo, *cur.shape), dtype=mul.dtype)
        for row in block:
            row[...] = cur
            prev, cur = cur, flat[xq + cur] ^ flat[aq + prev]
        yield np.arange(lo, hi, dtype=np.int32), block


def _closed_form_rows(powers: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """D_n(x, 1) for every x of GF(q), one row per n of the int32 `ns`, from
    the closed form of maps.dickson_exponents: the Lucas parity of the
    coefficient of X^(n-2j) on an (n, j) grid, reduced mod X^q - X to an
    (n, e) 0/1 matrix that picks the rows of `powers`, powers[e, x] = x^e for
    e = 0..q-1, to XOR."""
    q = len(powers)
    n = ns[:, None]
    j = np.arange(int(ns.max()) // 2 + 1, dtype=np.int32)
    a = n - j
    # j = 0 is the leading X^n: C(n, 0) is odd and C(n - 1, -1) is 0
    odd = (((j & a) == j) != (((j - 1) & (a - 1)) == j - 1)) & (2 * j <= n)
    e = n - 2 * j
    # as sp_reduce_mod_field: 0 stays, e >= 1 goes to 1 + (e - 1) mod (q - 1)
    keys = np.where(e == 0, 0, 1 + (e - 1) % (q - 1)) + q * np.arange(ns.size)[:, None]
    picked = np.bincount(keys[odd], minlength=ns.size * q).reshape(ns.size, q) & 1
    return np.bitwise_xor.reduce(picked[:, :, None] * powers, axis=1)


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
    #: (EXT_MAX_DEGREE for zsumexp's GF(q^2) tables); None where the grid clamps the cap
    max_cap: int | None


#: Every check, in `verify --suite all` order: the order of the @_check definitions
#: below, which the benchmark's pinned records follow index by index.
CHECKS: dict[str, Check] = {}

#: The guard of each table a check may declare it reads, on `FieldTables` or `ExtTables`
#: t: both halves of sq in GF(q) and of tr in GF(2), exp in GF(n + 1) (q, or Q of GF(q^2)),
#: log in 0..n-1 (a rotation is a product by 2^j mod n only there), and the circle's own
#: guard. A wrap-mode take would read an entry out of range as another one.
_GUARDS: dict[str, Callable[[CheckOutcome, list, object], bool]] = {
    "sq": lambda sweep, inputs, t: sweep.halves_in_field(inputs, t.sq, t.q),
    "tr": lambda sweep, inputs, t: sweep.halves_in_field(inputs, t.tr, 2),
    "exp": lambda sweep, inputs, t: sweep.in_field(inputs, t.exp, t.n + 1),
    "log": lambda sweep, inputs, t: sweep.in_field(inputs, t.log, t.n),
    "circle": lambda sweep, inputs, t: sweep.guard_holds(inputs, t.circle),
}


def _guarded_tables(sweep: CheckOutcome, inputs, m: int, reads, ext: bool = False):
    """field_tables(m), or ext_tables(m) with `ext`, looked up at call time and fetched
    here once per m a check sweeps: the object that passed the guard of each of `reads`
    in order, or None once one has failed, recording why after `inputs`, counting nothing."""
    tables = (ext_tables if ext else field_tables)(m)
    return tables if all(_GUARDS[read](sweep, inputs, tables) for read in reads) else None


def _check(name: str, grid: Callable[[int], list[tuple]], default_cap: int,
           max_cap: int | None = MAX_DEGREE, reads: tuple[str, ...] = (), ext: bool = False):
    """Register as check `name` a checker that fills in the record it is given first.
    The registered function takes the checker's other arguments and returns the record,
    with them as its params and the checker's time, lazy table builds and guards
    included, as its ms. It runs only at a point of grid(its first argument), at most
    max_cap: elsewhere the paper makes no claim, and it raises OutOfRange before any
    table is built. With `reads`, the checker gets the `_guarded_tables` of its first
    argument second, and is not called on None: a tripped guard fails the record with
    nothing built or counted. Guards on tables it builds, or other fields', stay in it."""
    def register(body):
        sig = inspect.signature(body)
        sig = sig.replace(parameters=list(sig.parameters.values())[2 if reads else 1:],
                          return_annotation=CheckOutcome)

        @functools.wraps(body)
        def run(*args, **kwargs):
            params = dict(sig.bind(*args, **kwargs).arguments)
            point = tuple(params.values())
            # the cap first, so that a huge first argument builds no grid
            if (max_cap is not None and point[0] > max_cap) or point not in grid(point[0]):
                raise OutOfRange(f"{name}{point} is not a point of its grid")
            sweep = CheckOutcome(name, params)
            start = time.perf_counter()
            tables = [_guarded_tables(sweep, [], point[0], reads, ext)] if reads else []
            if None not in tables:
                body(sweep, *tables, **sweep.params)
            sweep.ms = (time.perf_counter() - start) * 1000.0
            return sweep
        run.__signature__ = sig
        CHECKS[name] = Check(run, grid, default_cap, max_cap)
        return run
    return register


def _coprime_grid(cap: int) -> list[tuple]:
    return [(m, k) for m in range(2, cap + 1) for k in coprime_ks(m)]


def _clamped(limit: int, least: int = 2) -> Callable[[int], list[tuple]]:
    """The grid of a check run once at min(cap, limit), so that it takes any cap of at
    least `least`; below it, where nothing would be checked, the grid is empty."""
    return lambda cap: [(min(cap, limit),)] if cap >= least else []


def run_check(name: str, cap: int):
    """Yield the outcome of check `name` at every grid point up to `cap`."""
    check = CHECKS[name]
    for args in check.grid(cap):
        yield check.fn(*args)


# ---------------------------------------------------------------------------
# main theorem
# ---------------------------------------------------------------------------

def check_main_theorem(m: int, k: int) -> list[PermutationReport]:
    """`_main_theorem_reports` on field_tables(m), no guard run: `permpoly sweep`'s rows."""
    return _main_theorem_reports(field_tables(m), m, k)


def _main_theorem_reports(ft, m: int, k: int) -> list[PermutationReport]:
    """Brute-force permutation and trace-class behavior of H on ft for all (alpha, gamma):
    per alpha, one occupancy pass over the chunks of x for both gamma."""
    reports = []
    for alpha in (0, 1):
        p = derive_params(m, k, alpha=alpha)

        def h_both_gammas(lo: int, hi: int):
            h = h_value_table(ft, p, lo, hi)
            return h, h ^ ft.tr.span(lo, hi)
        for gamma, (((class0, bijective0), (class1, bijective1)), permutes) in enumerate(
                _class_images(ft, 2, h_both_gammas)):
            reports.append(PermutationReport(
                m=m, k=k, alpha=alpha, gamma=gamma,
                is_permutation=permutes,
                predicted_by_theorem=derive_params(m, k, alpha=alpha, gamma=gamma).h_trace == 1,
                image_of_t0=class0, image_of_t1=class1,
                t0_bijective=bijective0, t1_bijective=bijective1))
    return reports


@_check("main_theorem", _coprime_grid, 12, reads=("sq", "log"))
def check_main_theorem_outcome(sweep: CheckOutcome, ft, m: int, k: int):
    for rep in _main_theorem_reports(ft, m, k):
        # the theorem's parity also names the class T_1 is sent to
        ok = (rep.is_permutation == rep.predicted_by_theorem
              and rep.t0_bijective and rep.image_of_t0 == 0
              and rep.t1_bijective and rep.image_of_t1 == int(rep.predicted_by_theorem))
        sweep.expect(ok, [rep.alpha, rep.gamma],
                     rep.is_permutation, rep.predicted_by_theorem)


# ---------------------------------------------------------------------------
# Dickson permutation criterion
# ---------------------------------------------------------------------------

@_check("nobauer", _clamped(MUL_TABLE_M_MAX), MUL_TABLE_M_MAX, None)
def check_nobauer(sweep: CheckOutcome, m_max: int):
    """Permutation status of D_n(X, a) against gcd(n, q^2 - 1) = 1."""
    for m in range(2, m_max + 1):
        q = 1 << m
        mul = _mul_table(m)
        if not sweep.in_field([m], mul, q):
            continue
        a, ns = np.arange(1, q), np.arange(1, q * q)
        observed = np.empty((q * q - 1, q - 1), dtype=bool)  # observed[n - 1, a - 1]
        for block_ns, dn in _dickson_blocks(mul, a[:, None], q * q - 1, (q - 1) * q):
            observed[block_ns - 1] = _injective(dn, q)
        predicted = np.gcd(ns, q * q - 1) == 1
        # a-major, as a loop over a and then n
        sweep.compare([m, a[:, None], ns], observed.T, predicted)


# ---------------------------------------------------------------------------
# properties of the linearized map pair
# ---------------------------------------------------------------------------

@_check("fgprop", _coprime_grid, 12, reads=("sq", "tr"))
def check_fgprop(sweep: CheckOutcome, ft, m: int, k: int):
    """Each of f_0, f_1, g_0 and g_1 is checked once, then each (alpha, beta) pair, and
    (vii) once per (beta, lambda). Each map, x^(2^k) too, is a `LinearMap`, two half
    tables: every comparison is made chunk by chunk, on the maps' spans, and each
    composition takes through the halves."""
    q = ft.q
    frobk = ft.linear_map(frozenset({1 << k}))
    fps = [derive_params(m, k, alpha=alpha) for alpha in (0, 1)]
    gps = [derive_params(m, k, beta=beta) for beta in (0, 1)]
    fs, gs = [f_alpha_map(ft, p) for p in fps], [g_beta_map(ft, p) for p in gps]
    pairs = {(alpha, beta): derive_params(m, k, alpha=alpha, beta=beta)
             for alpha in (0, 1) for beta in (0, 1)}
    # (vii)'s theta, per (beta, lambda)
    thetas = {(beta, lam): derive_params(m, k, beta=beta, lam=lam).theta
              for beta, lam in itertools.product((0, 1), (0, 1))}
    # the values of f and g are used as indices below, as sq and tr are
    if not all(sweep.halves_in_field([], mp, q) for mp in (*fs, *gs)):
        return

    def compare_chunk(lo: int, hi: int) -> list:
        xs = np.arange(lo, hi, dtype=np.int32)
        tr = ft.tr.span(lo, hi)
        fx, gx = [f.span(lo, hi) for f in fs], [g.span(lo, hi) for g in gs]
        parts = []

        def compare(lhs, rhs):
            parts.append(CheckOutcome("fgprop", {}))
            parts[-1].compare([xs], lhs, rhs)
        # per map: (i) Tr(map(x)) = par*Tr(x), and (iii), frob_lhs(map(x)) + map(x) =
        # frob_rhs(x) + x: the Frobenius x^(2^k), then the squaring for f, the reverse for g
        sq_x, frob_x = ft.sq.span(lo, hi) ^ xs, frobk.span(lo, hi) ^ xs
        for values, par, frob_lhs, frob_rhs in (
                *((f, p.f_trace, frobk, sq_x) for f, p in zip(fx, fps)),
                *((g, p.g_trace, ft.sq, frob_x) for g, p in zip(gx, gps))):
            compare(ft.tr(values), par * tr)
            compare(frob_lhs(values) ^ values, frob_rhs)
        # per pair, (vi): f(g(x)), then g(f(x)), collapse to x + delta*Tr(x)
        for (alpha, beta), p in pairs.items():
            target = xs ^ (p.delta * tr)
            compare(fs[alpha](gx[beta]), target)
            compare(gs[beta](fx[alpha]), target)
        # per (beta, lambda), (vii): g_beta = g_0(ybar) + theta*Tr for ybar = x + lambda*Tr(x)
        g0_ybar = gx[0], gs[0](xs ^ tr)
        for (beta, lam), theta in thetas.items():
            compare(gx[beta], g0_ybar[lam] ^ (theta * tr))
        return parts

    _sweep_chunks(sweep, compare_chunk, 0, q)
    # per map: its value at 1, and (iv)-(v) its classes and permutation, from one
    # occupancy pass over its spans
    for mp, par in zip((*fs, *gs), [p.f_trace for p in fps] + [p.g_trace for p in gps]):
        sweep.expect(int(mp(1)) == par, [1], mp(1), par)
        [(classes, permutes)] = _class_images(ft, 1, lambda lo, hi: (mp.span(lo, hi),))
        _expect_classes(sweep, classes, par)
        sweep.expect(permutes == (par == 1), [par], permutes, par == 1)
    # per pair: the parity of delta, and the theta congruence, the lambda = delta instance
    for (alpha, beta), p in pairs.items():
        lhs, rhs = p.fg_trace, p.f_trace * p.g_trace
        sweep.expect(lhs == rhs, [alpha, beta], lhs, rhs)
        lhs, rhs = (m * p.theta) % 2, (p.g_trace + k * p.fg_trace) % 2
        sweep.expect(lhs == rhs, [alpha, beta, p.delta], lhs, rhs)


@_check("hprop", _coprime_grid, 12, reads=("tr", "exp", "sq", "log"))
def check_hprop(sweep: CheckOutcome, ft, m: int, k: int):
    """Both claims: the rewritten H form, and the trace multiplier of H."""
    params = [derive_params(m, k, alpha=alpha) for alpha in (0, 1)]

    def compare_chunk(lo: int, hi: int) -> list:
        xs = np.arange(lo, hi, dtype=np.int32)
        tr = ft.tr.span(lo, hi)
        parts = []
        for alpha, p in enumerate(params):
            fa = f_alpha_table(ft, p, lo, hi)
            h_alpha = h_value_table(ft, p, lo, hi)
            ratio = ft.quotient_vec(fa, slice(lo, hi))  # 0 at x = 0, where fa is 0
            alt = ft.sq(ratio) ^ ratio ^ fa
            del ratio, fa
            for gamma, h in enumerate((h_alpha, h_alpha ^ tr)):
                par = derive_params(m, k, alpha=alpha, gamma=gamma).h_trace
                for lhs, rhs in ((h, alt ^ (gamma * tr)), (ft.tr(h), par * tr)):
                    parts.append(CheckOutcome("hprop", {}))
                    parts[-1].compare([xs], lhs, rhs)
        return parts

    _sweep_chunks(sweep, compare_chunk, 0, ft.q)


# ---------------------------------------------------------------------------
# extension-field lemmas
# ---------------------------------------------------------------------------

def _b_sets(ft) -> dict:
    """(indices, phi, w) for B_0 and B_1. B_0 is the line indices 0..q without 1, q
    standing for infinity; B_1 the exponents 1..q of the circle's z^i. phi = 1/(z + 1/z) is a
    (q+1)-entry table, x/(x + 1)^2 on the line and 1/c[i] on the circle, with
    phi(1) = infinity stored as q. w(s, .) is z^s: x^s fixing infinity, i -> s*i mod (q+1)."""
    q, c = ft.q, ft.circle()[0]
    xs = np.arange(q, dtype=np.int64)
    phi0 = np.append(ft.pow_vec((xs, 1), (xs ^ 1, -2)), 0)
    phi1 = ft.pow_vec((c, -1))
    phi0[1] = phi1[0] = q
    line = np.arange(q + 1, dtype=np.int64)
    return {0: (np.delete(line, 1), phi0, lambda s, z: np.append(ft.pow_vec((xs, s)), q)[z]),
            1: (line[1:], phi1, lambda s, i: s * i % (q + 1))}


@_check("perm_lemma", _coprime_grid, 10, reads=("log", "circle"))
def check_perm_lemma(sweep: CheckOutcome, ft, m: int, k: int):
    q = ft.q
    sigma = 1 << k
    b_sets = _b_sets(ft)
    tr = ft.tr.span(0, q)
    # (i): phi is two-to-one from B_e onto T_e; x = q is infinity, which has none
    for e, (b, phi, _) in b_sets.items():
        values = phi[b]
        preimages = np.bincount(values[(values >= 0) & (values <= q)], minlength=q + 1)
        expected = 2 * np.append(tr == e, False)
        x = int(np.argmax(preimages != expected))  # the first that is off, else 0
        sweep.expect(preimages[x] == expected[x], [e, x], preimages[x], expected[x])
    # (ii), (iii): the power maps, checked three ways
    parity = {(0, 0): True, (0, 1): k % 2 == 1,
              (1, 0): m % 2 == 1, (1, 1): (m + k) % 2 == 1}
    for widx in (0, 1):
        s = sigma - 1 if widx == 0 else sigma + 1
        for e, (b, _, w) in b_sets.items():
            # B_e is 0..q without 1 - e, so w(s, .) permutes B_e iff its q values
            # and 1 - e permute 0..q
            observed = _injective(np.append(w(s, b), 1 - e), q + 1)
            gcd_cond = gcd(s, q - 1 if e == 0 else q + 1) == 1
            predicted = parity[(widx, e)]
            # a failure records the pair that differs: observed, else the gcd condition
            sweep.expect(observed == gcd_cond == predicted, [widx, e],
                         gcd_cond if observed == predicted else observed, predicted)


def _zsum_chunk(et, k: int, g0, lo: int, hi: int) -> list:
    """The identities of check_zsumexp for z = g^i, i in lo..hi-1 (1 <= lo < hi <= n,
    n = 2^2m - 1, g the generator of `exp`), with g0 the `LinearMap` of
    ExtTables.g0_table. In log order z and 1/z = g^(n-i) are slices of exp, and
    the exp indices of w0^(+-1) and w1^(+-1) step by sigma -+ 1 per i, so these
    reads are strided. One CheckOutcome per `_sweep_chunks` slot: first a guard,
    counting nothing, that names the first z whose log (-1 for z = 0, 1) is not i
    (passed in every chunk, with every exp value in GF(q^2), it proves that the sweep
    meets each z other than 0 and 1 once); then (i), the two of (ii), the expansion.

    Each exponent is +-2^j or sigma +- 1 = 2^k +- 1, so each product of a log
    (in 0..n-1) by one is a bit rotation and a sum or negation, with no int64
    temporary and no division. A log l in 0..n is negated as its complement l ^ n,
    which is n - l, and each sum of two logs (`rot + ly`, `slz + lz`, a log plus a
    negated one) is folded back to 0..n by `_fold`; those sums lie below 2n + 1 =
    2^(2m+1) - 1, so they stay in int32 while 2m <= 30. So every exp and log index
    lies in 0..n before its `take`: index n stands for 0 and wraps to it. Each
    `take` is in wrap mode, which releases the GIL; its per-element reduction runs
    only at index n, where indices that straddled 0 or n made its branch mispredict
    (a 2^15-element gather from a 2^20-entry exp took 2-3 times as long). Each
    temporary is dropped after its last use, and no array is written to once it has
    been compared."""
    guard, *slots = (CheckOutcome("zsum_chunk", {"k": k, "lo": lo, "hi": hi}) for _ in range(5))
    exp, log, n, nbits = et.exp, et.log, et.n, 2 * et.m
    lz = np.arange(lo, hi, dtype=np.int32)
    z = exp[lo:hi]  # a view of the table: nothing below writes to it
    bad = log.take(z, mode="wrap") != lz
    bad |= z < 2
    if bad.any():  # the first z whose log (-1 for z = 0, 1) is not i
        j = int(np.argmax(bad))
        guard.fail([z[j]], log[z[j]] if z[j] >= 2 else -1, lz[j])
    del bad
    y = exp[n - hi + 1:n - lo + 1][::-1] ^ z  # z + 1/z, nonzero since z != 1
    ly = log.take(y, mode="wrap")
    del y
    # (i), rotating ly by one bit per term; rot ends at sigma * ly
    lhs = np.zeros(len(z), dtype=np.int32)
    rot = ly
    for _ in range(k):
        rot = _rotl(rot, 1, nbits)
        lhs ^= exp.take(rot ^ n, mode="wrap")
    s1ly = _fold(rot + ly, nbits)  # (sigma + 1) * ly
    del rot
    s1ly ^= n  # negated until the expansion
    slz = _rotl(lz, k, nbits)
    w0 = _fold(slz + (lz ^ n), nbits)  # (sigma - 1) * lz
    t = exp.take(w0, mode="wrap")  # w0 = z^(sigma-1)
    w0 ^= n
    t ^= exp.take(w0, mode="wrap")  # + 1/w0
    del w0
    rhs = exp.take(_fold(log.take(t, mode="wrap") + s1ly, nbits), mode="wrap")
    np.copyto(rhs, 0, where=t == 0)
    slots[0].compare([z], lhs, rhs)
    del lhs
    # (ii): both displayed identities; the first has the right side of (i)
    ly ^= n
    gsq = et.square(g0(exp.take(ly, mode="wrap")))  # g0(1/y)^2
    del ly
    slots[1].compare([z], gsq, rhs)
    del rhs
    slz = _fold(slz + lz, nbits)  # (sigma + 1) * lz
    yw1 = exp.take(slz, mode="wrap")  # w1 = z^(sigma+1)
    slz ^= n
    yw1 ^= exp.take(slz, mode="wrap")  # + 1/w1
    del slz
    rhs1 = exp.take(_fold(log.take(yw1, mode="wrap") + s1ly, nbits), mode="wrap")
    np.copyto(rhs1, 0, where=yw1 == 0)
    slots[2].compare([z], 1 ^ gsq, rhs1)
    del gsq, rhs1
    # the expansion of (z + 1/z)^(sigma+1) used to prove (ii): w1 + w0 + 1/w0 + 1/w1
    t ^= yw1
    del yw1
    s1ly ^= n
    slots[3].compare([z], exp.take(s1ly, mode="wrap"), t)
    return [guard, *slots]


@_check("zsumexp", _coprime_grid, 10, EXT_MAX_DEGREE, reads=("exp", "log"), ext=True)
def check_zsumexp(sweep: CheckOutcome, et, m: int, k: int):
    """Identities (i) and (ii) at every z = g^i of GF(q^2), i = 1..n-1 (so z != 0, 1),
    chunk by chunk in log order through `_sweep_chunks` (numpy releases the GIL in the
    wrap-mode gathers)."""
    g0 = et.g0_table(k)
    if not sweep.halves_in_field([], g0, et.Q):  # _zsum_chunk uses its values as indices
        return
    _sweep_chunks(sweep, lambda lo, hi: _zsum_chunk(et, k, g0, lo, hi), 1, et.n)


# ---------------------------------------------------------------------------
# the Dickson connection
# ---------------------------------------------------------------------------

@_check("h_dickson", _coprime_grid, 10, reads=("sq", "log"))
def check_h_dickson(sweep: CheckOutcome, ft, m: int, k: int):
    base = derive_params(m, k)
    alpha = 1 - base.f_trace
    beta = (base.m_prime + alpha * k) % 2
    p = derive_params(m, k, alpha=alpha, beta=beta)
    sweep.expect(p.f_trace == 1, [alpha], p.f_trace, 1)
    sweep.expect(p.g_trace == 1, [beta], p.g_trace, 1)
    g = g_beta_table(ft, p)
    hs = [h_value_table(ft, derive_params(m, k, alpha=a)) for a in (0, 1)]
    q = ft.q
    xs = np.arange(1, q, dtype=np.int64)
    if sweep.in_field([], g, q) and sweep.guard_holds([], ft.circle):
        if sweep.units(xs, gx := g[xs], q):
            mid = ft.quotient_vec(xs, gx, k, 1)  # x^(sigma+1) / g(x)^2
            sweep.compare([xs], hs[alpha][gx], mid)
            d = (1 << k) - 1 if beta == 0 else (1 << (m - k)) - 1
            dval = ft.dickson_vec(d, ft.pow_vec((xs, -1)))  # the Dickson form D_d(1/x)
            if sweep.units(xs, dval, q):
                sweep.compare([xs], mid, ft.pow_vec((dval, -1 if beta == 0 else -(1 << k))))
    # permutation status for both alpha choices
    for a in (0, 1):
        observed = _injective(hs[a], q)
        predicted = derive_params(m, k, alpha=a).h_trace == 1
        sweep.expect(observed == predicted, [a], observed, predicted)


# ---------------------------------------------------------------------------
# the remarks
# ---------------------------------------------------------------------------

# log comes before the circle, here and wherever both are read: the circle is built
# through the logs, and a log outside 0..n-1 would trip its guard without naming the entry
@_check("hitt", _coprime_grid, 10, reads=("log", "circle", "sq"))
def check_hitt(sweep: CheckOutcome, ft, m: int, k: int):
    """The single equation covering injectivity on both trace classes."""
    q = ft.q
    beta = 1 - derive_params(m, k).g_trace
    b_sets = _b_sets(ft)
    tr = ft.tr.span(0, q)
    g = g_beta_table(ft, pg := derive_params(m, k, beta=beta))
    sweep.expect(pg.g_trace == 1, [beta], pg.g_trace, 1)
    if not sweep.in_field([], g, q):  # g indexes h below
        return
    for alpha in (0, 1):
        p = derive_params(m, k, alpha=alpha, beta=beta)
        h_alpha = h_value_table(ft, p)
        for gamma, h in enumerate((h_alpha, h_alpha ^ tr)):
            for e in (0, 1):
                z, phi, w = b_sets[e * p.fg_trace]
                pz = phi[z]
                pw = phi[w(p.sigma - 1 if p.theta * e == 0 else p.sigma + 1, z)]
                inputs = [alpha, gamma, e]
                if sweep.in_field(inputs, pz, q) and sweep.in_field(inputs, pw, q):
                    sweep.compare([*inputs, z], h[g[pz ^ (p.delta * e)]], pw ^ (gamma * e))


@_check("remark3", lambda cap: [(m,) for m in range(2, cap + 1)], 12, reads=("sq", "log"))
def check_remark3(sweep: CheckOutcome, ft, m: int):
    """h(x) = x + 1/x + 1/x^2 permutes T_1; H_{1,1} with k = 1 fixes T_0."""
    tr = ft.tr.span(0, ft.q)
    t1 = np.nonzero(tr == 1)[0].astype(np.int64)
    h = t1 ^ ft.pow_vec((t1, -1)) ^ ft.pow_vec((t1, -2))
    ok = _injective(h, ft.q) and bool((ft.tr(h) == 1).all())
    sweep.expect(ok, [m], ok, True)
    p = derive_params(m, 1, alpha=1, gamma=1)
    htab = h_value_table(ft, p)
    t0_idx = np.nonzero(tr == 0)[0].astype(np.int64)
    sweep.compare([t0_idx], htab[t0_idx], t0_idx)
    sweep.compare([t1], htab[t1], h)


@_check("remark4", lambda cap: [(m, (m + 1) // 2) for m in range(3, cap + 1, 2)], 13,
        reads=("sq", "log"))
def check_remark4(sweep: CheckOutcome, ft, m: int, k: int):
    p00 = derive_params(m, k)
    sigma = p00.sigma
    sweep.expect(p00.r == 2, [m, k], p00.r, 2)
    # (a) the quoted 4-term expansion
    expected = {sigma - 1, 2 * (sigma - 1), sigma * sigma - 1,
                sigma * sigma + sigma - 2}
    _expect_same_set(sweep, [m, k], set(expand_h(p00)), expected)
    # (b) the trace-class behavior of H_00 and H_01
    h00 = h_value_table(ft, p00)
    h01 = h00 ^ ft.tr.span(0, ft.q)
    (classes00, _), (classes01, h01_permutes) = _class_images(
        ft, 2, lambda lo, hi: (h00[lo:hi], h01[lo:hi]))
    for classes, t1_target in ((classes00, 0), (classes01, 1)):
        _expect_classes(sweep, classes, t1_target)
    # (c) the simplified 5-term polynomial: a PP that agrees with H_01
    five_poly = sp_add(trace_poly(m),
                       frozenset({sigma - 1, 2 * (sigma - 1), 1, sigma}))
    five = ft.poly_table(five_poly)
    sweep.compare([np.arange(ft.q)], five, h01)
    for five_term, observed in enumerate((h01_permutes, _injective(five, ft.q))):
        sweep.expect(observed, [five_term], observed, True)
    # reduced exponent sets coincide
    reduced = sp_reduce_mod_field(expand_h(derive_params(m, k, gamma=1)), m)
    _expect_same_set(sweep, [m, k], reduced, sp_reduce_mod_field(five_poly, m))


# ---------------------------------------------------------------------------
# the Dickson identities and the polynomiality of the symbolic expansion
# ---------------------------------------------------------------------------

@_check("dickson_linearized", _clamped(LINEARIZED_K_MAX, least=1), LINEARIZED_K_MAX, None)
def check_dickson_linearized(sweep: CheckOutcome, k_max: int):
    """Symbolic and pointwise forms of D_{2^k-1} = X^(2^k+1) * T_k(1/X)^2."""
    for k in range(1, k_max + 1):
        _expect_same_set(sweep, [k], set(dickson_exponents((1 << k) - 1)),
                         {(1 << k) + 1 - (1 << (j + 1)) for j in range(k)})
    for m in range(2, 11):
        if (ft := _guarded_tables(sweep, [m], m, ("log", "circle", "sq"))) is None:
            continue
        xs = np.arange(1, ft.q, dtype=np.int64)
        tk, term = np.zeros_like(xs), ft.pow_vec((xs, -1))
        for k in range(1, m + 1):
            tk, term = tk ^ term, ft.sq(term)  # T_k(1/x), (1/x)^(2^k)
            rhs = ft.pow_vec((xs, (1 << k) + 1), (tk, 2))
            sweep.compare([xs], ft.dickson_vec((1 << k) - 1, xs), rhs)


@_check("dickson_methods", _clamped(MUL_TABLE_M_MAX), MUL_TABLE_M_MAX, None)
def check_dickson_methods(sweep: CheckOutcome, m_max: int):
    """Recurrence / closed-form / functional evaluation agree on all x, n <= q^2,
    compared once per block of n."""
    for m in range(2, m_max + 1):
        q, mul = 1 << m, _mul_table(m)
        if not sweep.in_field([m], mul, q) or \
                (ft := _guarded_tables(sweep, [m], m, ("log", "circle"))) is None:
            continue
        xs = np.arange(q, dtype=np.int64)
        powers = ft.pow_vec((xs, xs[:, None]))  # powers[e, x] = x^e
        for ns, rec in _dickson_blocks(mul, 1, q * q, q * q):
            methods = np.stack((_closed_form_rows(powers, ns),
                                ft.dickson_vec(ns[:, None], xs)), axis=1)
            # n-major, then closed form before functional, then x
            sweep.compare([ns[:, None, None], xs], rec[:, None], methods)


@_check("polynomiality", lambda cap: [(cap,)] if cap >= 2 else [], 12)
def check_polynomiality(sweep: CheckOutcome, m_max: int):
    """expand_h never fails exact division; reduced form matches the evaluator."""
    for m in range(2, m_max + 1):
        ft = _guarded_tables(sweep, [m], m, ("sq", "log")) if m <= 10 else None
        if ft is not None:
            tr = ft.tr.span(0, ft.q)
        elif m <= 10:  # a guard failed
            continue
        for k in coprime_ks(m):
            for alpha in (0, 1):
                # gamma only adds Tr, so H is built once per alpha
                if ft is not None:
                    h_alpha = h_value_table(ft, derive_params(m, k, alpha=alpha))
                for gamma in (0, 1):
                    p = derive_params(m, k, alpha=alpha, gamma=gamma)
                    try:
                        poly = expand_h(p)
                    except NotDivisible:
                        sweep.expect(False, [m, k, alpha, gamma], 1, 0)
                        continue
                    sweep.expect(0 not in poly, [m, k, alpha, gamma], int(0 in poly), 0)
                    if ft is not None:
                        sweep.compare([np.arange(ft.q)], ft.poly_table(poly),
                                      h_alpha ^ tr if gamma else h_alpha)
