import copy
import inspect
import itertools
import json
import operator
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from permpoly import OutOfRange, checks, cli
from permpoly.checks import (_CHUNK_ELEMENTS, CHECKS, LINEARIZED_K_MAX, MUL_TABLE_M_MAX,
                             NOT_A_CLASS, CheckOutcome, _class_images, _closed_form_rows,
                             _dickson_blocks, _injective, _mul_table, _zsum_chunk,
                             check_dickson_linearized, check_dickson_methods, check_fgprop,
                             check_h_dickson, check_hitt, check_hprop,
                             check_main_theorem, check_main_theorem_outcome,
                             check_nobauer, check_perm_lemma,
                             check_polynomiality, check_remark3,
                             check_remark4, check_zsumexp)
from permpoly.field import MAX_DEGREE, coprime_ks, make_field
from permpoly.maps import dickson_exponents, dickson_recurrence, eval_f_alpha, eval_g_beta
from permpoly.params import derive_params
from permpoly.sparsepoly import trace_poly
from permpoly.tables import (ExtTables, FieldTables, LinearMap, _fold, _linearized_images,
                             _rotl, ext_tables, field_tables)


def test_injective_matches_a_set_count(monkeypatch):
    # one chunk, and folded over chunks of 3 values of each row, the last one
    # shorter, that two workers mark side by side
    for chunk, workers in ((_CHUNK_ELEMENTS, 1), (3, 2)):
        monkeypatch.setattr(checks, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(checks, "_workers", lambda: workers)
        rng = np.random.default_rng(2004)
        for q in (4, 8, 64):
            for size in (1, q // 2, q):
                rows, verdicts = [], []
                for _ in range(40):
                    # mostly in GF(q), with collisions, now and then -1 or q
                    values = rng.integers(-1, q + 1, size=size)
                    seen = set(values.tolist())
                    expected = seen <= set(range(q)) and len(seen) == size
                    assert _injective(values, q) is expected, (q, chunk, values)
                    rows.append(values)
                    verdicts.append(expected)
                # the same rows at once, also as a 2 x 20 grid of rows
                assert _injective(np.array(rows), q).tolist() == verdicts
                assert _injective(np.array(rows).reshape(2, 20, size), q).tolist() == \
                    [verdicts[:20], verdicts[20:]]
            perm = rng.permutation(q)
            assert _injective(perm, q)
            for bad in (-1, q, 1 << 40):
                corrupted = perm.copy()
                corrupted[1] = bad
                assert not _injective(corrupted, q)
            collided = perm.copy()
            collided[0] = collided[1]
            assert not _injective(collided, q)


def _class_images_by_sets(tr: np.ndarray, tab: np.ndarray, q: int):
    """_class_images from Python sets: per class, its image's trace class and
    whether no value repeats; whether the values are GF(q), each once."""
    classes = []
    for e in (0, 1):
        image = [int(v) for v, t in zip(tab, tr) if t == e]
        if not set(image) <= set(range(q)):
            classes.append((NOT_A_CLASS, False))
            continue
        traces = {int(tr[v]) for v in image}
        classes.append((traces.pop() if len(traces) == 1 else NOT_A_CLASS,
                        len(set(image)) == len(image)))
    return tuple(classes), sorted(tab.tolist()) == list(range(q))


def test_class_images_match_a_set_count(monkeypatch):
    rng = np.random.default_rng(2004)
    for m in (2, 3, 6):
        ft = field_tables(m)
        q = ft.q
        tr = ft.tr.span(0, q)
        t0, t1 = np.flatnonzero(tr == 0), np.flatnonzero(tr == 1)
        seen = set()
        for _ in range(40):
            # mostly in GF(q), with collisions, now and then -1 or q
            tabs = [rng.integers(-1, q + 1, size=q), rng.permutation(q)]
            # each class onto one class, bijectively: onto both classes, or
            # both onto the same one, where the images overlap
            for a, b in ((t0, t1), (t1, t0), (t0, t0), (t1, t1)):
                tab = np.empty(q, dtype=np.int64)
                tab[t0], tab[t1] = rng.permutation(a), rng.permutation(b)
                collided, corrupted = tab.copy(), tab.copy()
                i, j = rng.choice(q, size=2, replace=False)
                collided[i] = tab[j]
                corrupted[i] = rng.choice([-1, q, 1 << 40])
                tabs += [tab, collided, corrupted]
            for tab in tabs:
                expected = _class_images_by_sets(tr, tab, q)
                # one chunk, and folded over two to four chunks, the last
                # one shorter, that two workers mark side by side
                for chunk, workers in ((_CHUNK_ELEMENTS, 1), (q // 4 + 1, 2)):
                    monkeypatch.setattr(checks, "_CHUNK_ELEMENTS", chunk)
                    monkeypatch.setattr(checks, "_workers", lambda: workers)
                    [(classes, permutes)] = _class_images(ft, 1, lambda lo, hi: (tab[lo:hi],))
                    assert (tuple(classes), permutes) == expected, (q, chunk, tab)
                seen.add(expected)
        # the cases cover a permutation, overlapping bijective images, an
        # image in GF(q) that meets both classes, and one outside GF(q)
        classes = [c for c, _ in seen]
        assert (((0, True), (1, True)), True) in seen
        assert (((0, True), (0, True)), False) in seen
        assert any((NOT_A_CLASS, True) in c for c in classes)
        assert any((NOT_A_CLASS, False) in c for c in classes)


def test_main_theorem_reports_m3_k2():
    reports = {(r.alpha, r.gamma): r for r in check_main_theorem(3, 2)}
    assert len(reports) == 4
    # r = 2, m = 3: permutation iff (alpha + gamma) odd
    r00 = reports[(0, 0)]
    assert not r00.is_permutation and not r00.predicted_by_theorem and r00.agree
    # both classes land in T_0, so T_0 -> T_0 bijectively but T_1 collides in
    assert r00.image_of_t0 == 0 and r00.image_of_t1 == 0
    r01 = reports[(0, 1)]
    assert r01.is_permutation and r01.predicted_by_theorem
    assert r01.t0_bijective and r01.t1_bijective
    assert r01.image_of_t0 == 0 and r01.image_of_t1 == 1
    assert reports[(1, 0)].is_permutation
    assert not reports[(1, 1)].is_permutation


def test_main_theorem_outcome():
    out = check_main_theorem_outcome(5, 2)
    assert out.passed and out.counterexample is None
    assert out.check == "main_theorem" and out.params == {"m": 5, "k": 2}
    assert out.tested > 0 and out.ms >= 0
    json_form = out.to_json()
    assert json_form["passed"] is True and json_form["check"] == "main_theorem"


def test_class_labels():
    # an H landing in both classes gets NOT_A_CLASS on the colliding side
    reps = check_main_theorem(4, 3)
    assert any(r.image_of_t0 in (0, 1, NOT_A_CLASS) for r in reps)
    for r in reps:
        assert r.agree


def test_nobauer_small():
    out = check_nobauer(3)
    assert out.passed and out.tested > 0


@pytest.mark.parametrize("name, limit", [("nobauer", MUL_TABLE_M_MAX),
                                         ("dickson_methods", MUL_TABLE_M_MAX),
                                         ("dickson_linearized", LINEARIZED_K_MAX)])
def test_a_clamped_cap_has_one_limit(name, limit):
    check = CHECKS[name]
    assert check.default_cap == limit and check.max_cap is None
    assert check.grid(limit + 20) == [(limit,)] and check.grid(3) == [(3,)]
    with pytest.raises(OutOfRange):
        check.fn(limit + 1)


def test_each_grid_point_lies_in_the_grid_of_its_first_argument():
    # verify runs every point of grid(cap), and a registered check runs only at
    # a point of grid(its first argument), at most its max_cap
    for name, check in CHECKS.items():
        for cap in range(2, MAX_DEGREE + 1):
            for point in check.grid(cap):
                assert point in check.grid(point[0]), (name, cap, point)
                if check.max_cap is not None and cap <= check.max_cap:
                    assert point[0] <= check.max_cap, (name, cap, point)


#: check, and arguments where the paper makes no claim: above a clamped cap,
#: m < 2, 2k != 1 mod m for remark4, gcd(k, m) != 1 or k outside 1..m-1, and
#: m above the largest field; and caps where nothing would be checked
OFF_GRID = [("nobauer", (6,)), ("dickson_methods", (6,)), ("dickson_linearized", (17,)),
            ("nobauer", (1,)), ("dickson_methods", (-3,)), ("dickson_linearized", (0,)),
            ("polynomiality", (1,)), ("polynomiality", (0,)),
            ("remark3", (1,)), ("remark4", (5, 2)), ("remark4", (4, 1)),
            ("fgprop", (4, 2)), ("perm_lemma", (5, 7)), ("zsumexp", (6, 3)),
            ("zsumexp", (5, 0)), ("main_theorem", (MAX_DEGREE + 1, 2)),
            ("polynomiality", (MAX_DEGREE + 1,))]


@pytest.mark.parametrize("name, args", OFF_GRID, ids=[f"{n}{a}" for n, a in OFF_GRID])
def test_a_call_off_its_grid_raises_before_any_work(monkeypatch, name, args):
    def no_work(*_):
        raise AssertionError("a record or a table was made")
    for made in ("CheckOutcome", "field_tables", "ext_tables", "_mul_table"):
        monkeypatch.setattr(checks, made, no_work)
    with pytest.raises(OutOfRange):
        CHECKS[name].fn(*args)


def test_fgprop_hprop():
    for m, k in ((3, 2), (4, 3), (7, 5)):
        assert check_fgprop(m, k).passed
        assert check_hprop(m, k).passed


def test_perm_lemma_and_zsum():
    # at m = 8 and 9, zsumexp sweeps GF(q^2) in several chunks
    for m, k in ((2, 1), (3, 2), (5, 3), (8, 3), (9, 2)):
        assert check_perm_lemma(m, k).passed
        zsum = check_zsumexp(m, k)
        assert zsum.passed and zsum.tested == 4 * ((1 << 2 * m) - 2), (m, k)


def test_zsum_top_chunk_where_int32_log_products_would_wrap():
    # at m = 11, k = 10 the top log chunk has sigma * log z > 2^31: an int32
    # product would wrap there, so the int32 rotation must not
    et = ExtTables(11)  # not cached: 48 MB of tables no other test reads
    slots = _zsum_chunk(et, 10, et.g0_table(10), et.n - _CHUNK_ELEMENTS, et.n)
    # the guard counts nothing, and each of the four comparisons one per z
    assert [slot.tested for slot in slots] == [0] + 4 * [_CHUNK_ELEMENTS]
    part = _merged(slots)
    assert (part.counterexample, part.tested) == (None, 4 * _CHUNK_ELEMENTS)


@pytest.mark.parametrize("nbits", [24, 28, 30])
def test_zsum_index_sums_stay_in_int32_at_the_top_of_their_range(nbits):
    # _zsum_chunk's sums of two logs, with no table: sigma * a by k one-bit
    # rotations, plus a, stays a non-negative int32 (below 2^31 at nbits = 30),
    # and _rotl(a, k) - a is (sigma - 1) * a, both mod n = 2^nbits - 1
    n = (1 << nbits) - 1
    sample = np.random.default_rng(nbits).integers(0, n, 256)
    a = np.concatenate([[0, 1, n - 2, n - 1], sample]).astype(np.int32)
    for k in (1, nbits - 1):
        rot = a
        for _ in range(k):
            rot = _rotl(rot, 1, nbits)
        s1ly, w0 = rot + a, _rotl(a, k, nbits) - a
        assert s1ly.min() >= 0, k
        for got, factor in ((s1ly, (1 << k) + 1), (w0, (1 << k) - 1)):
            assert got.dtype == np.int32, k
            assert [v % n for v in got.tolist()] == [factor * v % n for v in a.tolist()], k
        # the folded forms that the kernel takes through: a log l in 0..n negated
        # as its complement l ^ n = n - l, and each sum of two logs, one of them
        # perhaps negated, below 2n + 1 and folded back to 0..n
        assert ((a ^ n) == n - a).all() and ((np.int32(n) ^ n) == 0), k
        s1ly = _fold(rot + a, nbits)
        folded = [(s1ly, (1 << k) + 1),
                  (_fold(_rotl(a, k, nbits) + (a ^ n), nbits), (1 << k) - 1),
                  (_fold(_rotl(a, k, nbits) + a, nbits), (1 << k) + 1),
                  # log t - (sigma + 1) * ly, with log t = a reversed and ly = a
                  (_fold(a[::-1] + (s1ly ^ n), nbits), None)]
        for got, factor in folded:
            assert got.dtype == np.int32 and got.min() >= 0 and got.max() <= n, k
            want = ([(t - ((1 << k) + 1) * v) % n for t, v in zip(a[::-1].tolist(), a.tolist())]
                    if factor is None else [factor * v % n for v in a.tolist()])
            assert [v % n for v in got.tolist()] == want, k
    # the top of the folded range: n + n, and n itself, which stands for 0
    top = np.array([2 * n, n, n - 1], dtype=np.int32)
    assert _fold(top, nbits).tolist() == [n, n, n - 1]


@pytest.mark.parametrize("nbits", [4, 20, 24, 28, 30])
def test_rotation_is_a_product_by_a_power_of_two(nbits):
    n = (1 << nbits) - 1
    sample = np.random.default_rng(nbits).integers(0, n, 256)
    a = np.concatenate([[0, 1, 1 << (nbits - 1), n - 1], sample]).astype(np.int32)
    for j in range(2 * nbits):  # j >= nbits is a full turn and more
        got = _rotl(a, j, nbits)
        assert got.dtype == np.int32, j
        assert got.tolist() == [(int(v) << j) % n for v in a], j


def _whole_square(et) -> np.ndarray:
    """The whole 4^m-entry squaring table that ExtTables' halves hold, z = lo | hi << m:
    sq_hi[hi] ^ sq_lo[lo] for every (hi, lo), so that it reads each entry of both
    halves, also one that a test corrupts."""
    return np.bitwise_xor.outer(et.sq_hi, et.sq_lo).ravel()


def _zsum_reference(et, k: int):
    """zsumexp in log order over z = exp[i], i = 1..n-1, with each log product
    an int64 reduced by % n, the whole squaring table and g0 the full T_k table
    spanned from the basis images that it gives: z, the log of each z that the
    guard compares with i (-1 for z = 0 or 1), and the (lhs, rhs) pairs that it
    compares, in order."""
    n, sigma = et.n, 1 << k
    sq = _whole_square(et)
    g0 = LinearMap(_linearized_images(sq.take, 2 * et.m, trace_poly(k))).span(0, et.Q)
    e = lambda x: et.exp[x % n]  # noqa: E731
    i = np.arange(1, n, dtype=np.int64)
    z = e(i)
    ly = et.log[z ^ e(n - i)].astype(np.int64)
    lhs = np.zeros_like(z)
    for j in range(1, k + 1):
        lhs ^= e(-(1 << j) * ly)
    w0, w0inv, w1, w1inv = (e(s * i) for s in (sigma - 1, 1 - sigma, sigma + 1, -sigma - 1))
    t, yw1 = w0 ^ w0inv, w1 ^ w1inv
    rhs = np.where(t == 0, 0, e(et.log[t] - (sigma + 1) * ly))
    rhs1 = np.where(yw1 == 0, 0, e(et.log[yw1] - (sigma + 1) * ly))
    gsq = sq[g0[e(-ly)]]
    logz = np.where(z < 2, -1, et.log[z])
    return z, logz, [(lhs, rhs), (gsq, rhs), (1 ^ gsq, rhs1),
                      (e((sigma + 1) * ly), w1 ^ w0 ^ w0inv ^ w1inv)]


def _zsum_fold(reference) -> CheckOutcome:
    """A _zsum_reference folded in one pass: the guard over every i, then each
    comparison in turn; the first failing one, then its first i."""
    z, logz, pairs = reference
    i = np.arange(1, z.size + 1)
    out = CheckOutcome("reference", {})
    for j in np.flatnonzero(logz != i)[:1]:
        out.fail([z[j]], logz[j], i[j])
    for lhs, rhs in pairs:
        out.compare([z], lhs, rhs)
    return out


def _merged(slots) -> CheckOutcome:
    """A chunk's slots folded in order, as `_sweep_chunks` folds them."""
    out = CheckOutcome("merged", {})
    for slot in slots:
        out.merge(slot)
    return out


@pytest.mark.parametrize("m", [3, 6])
def test_zsum_chunk_matches_a_modulo_reference_on_corrupted_tables(monkeypatch, m):
    rng = np.random.default_rng(m)
    compare = CheckOutcome.compare
    for k in coprime_ks(m):
        et = ExtTables(m)  # not the cached ext_tables(m), which other tests read
        for tab in (et.exp, et.sq_lo, et.sq_hi):
            tab[rng.integers(1, tab.size, 3)] ^= 1
        # the reference reads the whole squaring and g0 tables, the chunk their halves
        reference = _zsum_reference(et, k)
        pairs, expected = reference[2], _zsum_fold(reference)
        assert expected.counterexample is not None, k
        seen = []

        def recorded(self, inputs, lhs, rhs):
            seen.append((lhs, rhs))
            compare(self, inputs, lhs, rhs)
        with monkeypatch.context() as mp:
            mp.setattr(CheckOutcome, "compare", recorded)
            part = _merged(_zsum_chunk(et, k, et.g0_table(k), 1, et.n))
        assert (part.tested, part.counterexample) == (expected.tested, expected.counterexample), k
        # every comparison, also those after the first failing one
        assert len(seen) == len(pairs), k
        for (lhs, rhs), (ref_lhs, ref_rhs) in zip(seen, pairs):
            assert np.array_equal(lhs, ref_lhs) and np.array_equal(rhs, ref_rhs), k


# m -> (perm_lemma tested, hitt tested), the same for every coprime k: perm_lemma
# makes six verdicts, (i) for each B_e and (ii)-(iii) for each (s, B_e); hitt
# one beta parity and, per (alpha, gamma, e), one comparison per z in B_e (q of
# them), 8q + 1
B_SET_COUNTS = {2: (6, 33), 3: (6, 65), 4: (6, 129), 5: (6, 257),
                6: (6, 513), 7: (6, 1025), 8: (6, 2049)}


def test_b_set_checks_keep_their_counts():
    for m, (perm_tested, hitt_tested) in B_SET_COUNTS.items():
        for k in coprime_ks(m):
            perm, hitt = check_perm_lemma(m, k), check_hitt(m, k)
            assert (perm.passed, perm.tested) == (True, perm_tested), (m, k)
            assert (hitt.passed, hitt.tested) == (True, hitt_tested), (m, k)


def test_h_dickson_and_hitt():
    for m, k in ((3, 2), (5, 2), (6, 5)):
        assert check_h_dickson(m, k).passed
        assert check_hitt(m, k).passed


def test_remarks():
    assert check_remark3(4).passed
    assert check_remark3(5).passed
    out = check_remark4(5, 3)  # 2k = 6 = 1 mod 5
    assert out.passed
    assert check_remark4(3, 2).passed


def test_dickson_checks():
    assert check_dickson_linearized(6).passed
    assert check_dickson_methods(3).passed


def test_the_multiplication_table_is_built_once_per_m():
    for m in (2, 3):
        spec = make_field(m)
        mul = _mul_table(m)
        assert _mul_table(m) is mul and mul.dtype == np.int32 and not mul.flags.writeable
        assert mul.tolist() == [[spec.mul(x, y) for y in spec.elements()]
                                for x in spec.elements()]


@pytest.mark.parametrize("m", range(2, 5))
def test_dickson_blocks_match_the_scalar_recurrence(monkeypatch, m):
    """Every (n, a), n <= q^2, against maps.dickson_recurrence, for a column of
    every a, as nobauer runs it; a = 1 alone, as dickson_methods runs it, gives
    the column's first row. Each in blocks of 2^15 elements and of 2^6 (1 to 5 n
    each). Each block is overwritten once read, which must not reach the next.
    Every x at m <= 3; at m = 4, where that takes about 9 s, x = n + a mod q,
    which meets every x for every a."""
    spec = make_field(m)
    q = spec.q
    mul = _mul_table(m)
    runs = []
    for chunk in (_CHUNK_ELEMENTS, 1 << 6):
        monkeypatch.setattr(checks, "_CHUNK_ELEMENTS", chunk)
        for a, width in ((np.arange(1, q)[:, None], (q - 1) * q), (1, q * q)):
            blocks = []
            for ns, block in _dickson_blocks(mul, a, q * q, width):
                blocks.append((ns, block.copy()))
                block[...] = -1
            ns = np.concatenate([ns for ns, _ in blocks])
            assert ns.dtype == np.int32 and ns.tolist() == list(range(1, q * q + 1))
            runs.append(np.concatenate([block for _, block in blocks]).reshape(q * q, -1, q))
    column, one, *rechunked = runs
    assert all(np.array_equal(r, e) for r, e in zip(rechunked, (column, one)))
    assert np.array_equal(one[:, 0], column[:, 0])
    for n, row in enumerate(column.tolist(), start=1):
        for a, values in enumerate(row, start=1):
            for x in range(q) if q <= 8 else [(n + a) % q]:
                assert values[x] == dickson_recurrence(spec, n, x, a), (n, a, x)


@pytest.mark.parametrize("m", range(2, 6))
def test_batched_dickson_rows_match_the_per_n_evaluators(m):
    """The closed-form rows against poly_table of dickson_exponents, and
    dickson_vec on a column of n against dickson_vec on one n, for every
    n <= q^2; the closed form also in blocks of 7 n, as check_dickson_methods
    splits them."""
    ft = field_tables(m)
    q = ft.q
    xs = np.arange(q, dtype=np.int64)
    ns = np.arange(1, q * q + 1, dtype=np.int32)
    powers = ft.pow_vec((xs, xs[:, None]))
    closed = _closed_form_rows(powers, ns)
    functional = ft.dickson_vec(ns[:, None], xs)
    assert closed.shape == functional.shape == (q * q, q)
    for n in range(1, q * q + 1):
        assert closed[n - 1].tolist() == ft.poly_table(dickson_exponents(n)).tolist(), n
        assert functional[n - 1].tolist() == ft.dickson_vec(n, xs).tolist(), n
    blocks = [_closed_form_rows(powers, ns[lo:lo + 7]) for lo in range(0, ns.size, 7)]
    assert np.array_equal(np.concatenate(blocks), closed)


def _corrupt_dickson_rows(monkeypatch, q, corruptions):
    """Make checks._dickson_blocks yield, over GF(q), for each n in `corruptions`
    row n with entry `index` set to new(row), an element of GF(q) other than the
    true one, written into the yielded block; the recurrence goes on from the true rows."""
    orig = checks._dickson_blocks

    def corrupted(mul, *args):
        for ns, block in orig(mul, *args):
            for n, row in zip(ns.tolist(), block):
                if len(mul) == q and n in corruptions:
                    index, new = corruptions[n]
                    row[index] = new(row)
            yield ns, block
    monkeypatch.setattr(checks, "_dickson_blocks", corrupted)


#: label -> (checker, {n: (entry, its new value)} for m = 5), and the (passed,
#: tested, counterexample) of the parent commit, whose checkers went one n at
#: a time. At m = 5 a block holds 32 n in dickson_methods and 33 n in nobauer
#: (2^15 grid elements, q^2 and (q - 1) q per n), so n = 33 and n = 34 start their
#: second blocks; n = 17 started one when blocks held 16 n. A nobauer row is
#: indexed [a - 1, x], and each new value there repeats another x's, so that row
#: no longer permutes.
ROW_CORRUPTED = {
    "methods_first_block": ((check_dickson_methods, {5: (7, lambda r: r[7] ^ 1)}),
                            (False, 74880, {"inputs": ["5", "7"], "lhs": "1c", "rhs": "1d"})),
    "methods_second_block_start": (
        (check_dickson_methods, {17: (0, lambda r: r[0] ^ 1)}),
        (False, 74880, {"inputs": ["11", "0"], "lhs": "1", "rhs": "0"})),
    "methods_block_start_33": ((check_dickson_methods, {33: (0, lambda r: r[0] ^ 1)}),
                               (False, 74880, {"inputs": ["21", "0"], "lhs": "1", "rhs": "0"})),
    "methods_past_first_block": (
        (check_dickson_methods, {100: (7, lambda r: r[7] ^ 1), 700: (3, lambda r: r[3] ^ 2)}),
        (False, 74880, {"inputs": ["64", "7"], "lhs": "6", "rhs": "7"})),
    "methods_last_n": ((check_dickson_methods, {1024: (31, lambda r: r[31] ^ 5)}),
                       (False, 74880, {"inputs": ["400", "1f"], "lhs": "1a", "rhs": "1f"})),
    "nobauer_first_block": ((check_nobauer, {7: ((4, 9), lambda r: r[4, 10])}),
                            (False, 36024, {"inputs": ["5", "5", "7"], "lhs": "0", "rhs": "1"})),
    "nobauer_block_start_34": (
        (check_nobauer, {34: ((4, 9), lambda r: r[4, 10])}),
        (False, 36024, {"inputs": ["5", "5", "22"], "lhs": "0", "rhs": "1"})),
    "nobauer_past_first_block": (
        (check_nobauer, {101: ((4, 9), lambda r: r[4, 10])}),
        (False, 36024, {"inputs": ["5", "5", "65"], "lhs": "0", "rhs": "1"})),
    # a-major: a = 3 at n = 301 comes before a = 20 at n = 200
    "nobauer_a_major": (
        (check_nobauer, {200: ((19, 9), lambda r: r[19, 10]), 301: ((2, 1), lambda r: r[2, 2])}),
        (False, 36024, {"inputs": ["5", "3", "12d"], "lhs": "0", "rhs": "1"})),
    "nobauer_last_coprime_n": (
        (check_nobauer, {1022: ((30, 31), lambda r: r[30, 0])}),
        (False, 36024, {"inputs": ["5", "1f", "3fe"], "lhs": "0", "rhs": "1"})),
    # gcd(1023, q^2 - 1) > 1: that row did not permute before either
    "nobauer_no_verdict_change": ((check_nobauer, {1023: ((30, 31), lambda r: r[30, 0])}),
                                  (True, 36024, None)),
}


@pytest.mark.parametrize("label", ROW_CORRUPTED)
def test_a_wrong_dickson_row_fails_at_the_serial_counterexample(monkeypatch, label):
    (fn, corruptions), expected = ROW_CORRUPTED[label]
    _corrupt_dickson_rows(monkeypatch, 32, corruptions)
    out = fn(5)
    assert (out.passed, out.tested, out.counterexample) == expected


def test_polynomiality_small():
    out = check_polynomiality(6)
    assert out.passed and out.counterexample is None


def test_outcome_counterexample_shape():
    # force a failing comparison through the internal sweeper
    from permpoly.checks import CheckOutcome
    s = CheckOutcome("shape", {})
    s.expect(False, [3, 7], 1, 0)
    s.expect(False, [1, 1], 5, 6)  # only the first is kept
    assert s.counterexample == {"inputs": ["3", "7"], "lhs": "1", "rhs": "0"}
    assert s.tested == 2


def test_a_record_fails_at_its_first_counterexample():
    rec = CheckOutcome("record", {})
    rec.compare([np.arange(3)], np.arange(3), np.arange(3))
    assert (rec.passed, rec.tested, rec.counterexample) == (True, 3, None)
    def circle():
        raise ArithmeticError("broken")
    part = CheckOutcome("part", {})
    assert not part.guard_holds([2], circle)
    assert (part.passed, part.counterexample) == \
        (False, {"inputs": ["2"], "guard": "circle: broken"})
    rec.merge(part)
    rec.fail([9], 1, 0)  # the merged counterexample came first
    assert (rec.passed, rec.tested, rec.counterexample) == (False, 3, part.counterexample)


def test_each_registered_check_keeps_its_name_and_signature():
    assert list(CHECKS) == ["main_theorem", "nobauer", "fgprop", "hprop", "perm_lemma",
                            "zsumexp", "h_dickson", "hitt", "remark3", "remark4",
                            "dickson_linearized", "dickson_methods", "polynomiality"]
    for name, check in CHECKS.items():
        assert check.fn.__name__ in (f"check_{name}", f"check_{name}_outcome")
        assert len(inspect.signature(check.fn).parameters) == len(check.grid(4)[0])
    out = check_remark4(k=3, m=5)  # by keyword too, params in signature order
    assert out.params == {"m": 5, "k": 3} and out.passed


#: checker, its arguments, and how many tables or maps it builds through each
#: builder it calls: one per parameter the table depends on (gamma only adds Tr to
#: H); main_theorem and hprop build f_alpha and H per chunk, and m = 5 is one chunk;
#: fgprop builds each f_alpha and g_beta map once, as two half tables
TABLE_BUILDS = {
    "main_theorem": (check_main_theorem_outcome, (5, 2), {"h_value_table": 2}),
    "hprop": (check_hprop, (5, 2), {"f_alpha_table": 2, "h_value_table": 2}),
    "hitt": (check_hitt, (5, 2), {"g_beta_table": 1, "h_value_table": 2}),
    "fgprop": (check_fgprop, (5, 2), {"f_alpha_map": 2, "g_beta_map": 2}),
    "h_dickson": (check_h_dickson, (5, 2), {"g_beta_table": 1, "h_value_table": 2}),
    "remark4": (check_remark4, (5, 3), {"h_value_table": 1}),
    # 9 (m, k) pairs with m <= 5, each with two alpha
    "polynomiality": (check_polynomiality, (5,), {"h_value_table": 18}),
}


@pytest.mark.parametrize("label", TABLE_BUILDS)
def test_each_table_is_built_once_per_parameter(monkeypatch, label):
    fn, args, expected = TABLE_BUILDS[label]
    builds = {}
    for name in ("f_alpha_table", "g_beta_table", "h_value_table", "f_alpha_map", "g_beta_map"):
        def counted(*a, name=name, build=getattr(checks, name)):
            builds[name] = builds.get(name, 0) + 1
            return build(*a)
        monkeypatch.setattr(checks, name, counted)
    assert fn(*args).passed
    assert builds == expected


#: checker, its arguments, and how many tables `_class_images` counts: one
#: occupancy pass per table, so fgprop's per-table (iv)-(v) parts are made once
#: per f_alpha and once per g_beta, not once per (alpha, beta) pair
OCCUPANCY_PASSES = {
    "main_theorem": (check_main_theorem_outcome, (5, 2), 4),
    "fgprop": (check_fgprop, (5, 2), 4),
    "remark4": (check_remark4, (5, 3), 2),
}


@pytest.mark.parametrize("label", OCCUPANCY_PASSES)
def test_each_table_gets_one_occupancy_pass(monkeypatch, label):
    fn, args, expected = OCCUPANCY_PASSES[label]
    tables = []

    def counted(ft, count, values, orig=checks._class_images):
        def recorded(lo, hi):  # one chunk at m = 5: the whole table
            tabs = values(lo, hi)
            tables.extend(tabs)
            return tabs
        return orig(ft, count, recorded)
    monkeypatch.setattr(checks, "_class_images", counted)
    assert fn(*args).passed
    assert len(tables) == expected
    assert len({tab.tobytes() for tab in tables}) == expected


def _corrupt(monkeypatch, name, i, new):
    """Make checks.<name> return a copy of its table with flat entry i set to
    new(table); for field_tables (or field_tables.tr.lo, field_tables.sq.hi and the
    like), fresh tables, whose circle is yet to be built, and their exp table (or
    that half of tr or sq, left as it is where the half has no entry i: GF(4)'s have
    two); for f_alpha_map.lo (or .hi, or g_beta_map's), a copy of the map with that
    half copied."""
    name, _, attr = name.partition(".")
    orig = getattr(checks, name)

    def corrupted(*args):
        out = orig(*args)
        if name == "field_tables":
            out = FieldTables(out.spec)
            tab = operator.attrgetter(attr or "exp")(out)
        elif attr:
            out = copy.copy(out)
            tab = getattr(out, attr).copy()
            setattr(out, attr, tab)
        else:
            out = tab = out.copy()
        if i < tab.size:
            tab.flat[i] = new(tab)
        return out
    monkeypatch.setattr(checks, name, corrupted)


#: label -> (checker, its arguments, the table given one collision, entry i,
#: entry j), and the (passed, tested, counterexample) with table[i] = table[j];
#: fgprop's f_alpha and g_beta maps get theirs in the low half, so that each
#: map reads the same at x = 3 and x = 5 (hi[0] is 0), and at 3 + 8j and 5 + 8j
CORRUPTED = {
    "main_theorem": ((check_main_theorem_outcome, (5, 2), "h_value_table", 3, 5),
                     (False, 4, {"inputs": ["0", "0"], "lhs": "0", "rhs": "1"})),
    "fgprop_f": ((check_fgprop, (5, 2), "f_alpha_map.lo", 3, 5),
                 (False, 664, {"inputs": ["3"], "lhs": "14", "rhs": "6"})),
    "fgprop_g": ((check_fgprop, (5, 2), "g_beta_map.lo", 3, 5),
                 (False, 664, {"inputs": ["3"], "lhs": "9", "rhs": "12"})),
    "h_dickson": ((check_h_dickson, (5, 2), "h_value_table", 3, 5),
                  (False, 68, {"inputs": ["8"], "lhs": "c", "rhs": "11"})),
    "remark3": ((check_remark3, (5,), "field_tables", 5, 1),
                (False, 33, {"inputs": ["5"], "lhs": "0", "rhs": "1"})),
    "remark4": ((check_remark4, (5, 3), "h_value_table", 3, 5),
                (False, 41, {"inputs": ["1"], "lhs": "0", "rhs": "0"})),
    "nobauer": ((check_nobauer, (3,), "_mul_table", 4, 5),
                (False, 486, {"inputs": ["2", "1", "4"], "lhs": "0", "rhs": "1"})),
}


@pytest.mark.parametrize("label", CORRUPTED)
def test_a_collision_fails_the_check(monkeypatch, label):
    (fn, args, table, i, j), expected = CORRUPTED[label]
    _corrupt(monkeypatch, table, i, lambda tab: tab.flat[j])
    out = fn(*args)
    assert (out.passed, out.tested, out.counterexample) == expected


@pytest.mark.parametrize("label", ["fgprop_f", "fgprop_g"])
def test_a_collision_in_a_half_fails_fgprop_at_the_named_x(monkeypatch, label):
    # the map first built, f_0 or g_0, read at the pin's x through its corrupted
    # halves: it differs from the scalar map there, and the scalar field gives
    # both sides of that map's (iii) from it, f(x)^(2^k) + f(x) = x^2 + x for f_0
    # and g(x)^2 + g(x) = x^(2^k) + x for g_0
    (fn, (m, k), table, i, j), (_, _, counterexample) = CORRUPTED[label]
    _corrupt(monkeypatch, table, i, lambda tab: tab.flat[j])
    name = table.partition(".")[0]
    built = []

    def recorded(ft, p, build=getattr(checks, name)):
        built.append((p, build(ft, p)))
        return built[-1][1]
    monkeypatch.setattr(checks, name, recorded)
    assert not fn(m, k).passed
    (p, half), spec = built[0], make_field(m)
    x = int(counterexample["inputs"][0], 16)
    value = int(half.lo[x & half.mask] ^ half.hi[x >> half.shift])
    if name == "f_alpha_map":
        assert value != eval_f_alpha(p, x)
        lhs, rhs = spec.pow(value, 1 << k) ^ value, spec.pow(x, 2) ^ x
    else:
        assert value != eval_g_beta(p, x)
        lhs, rhs = spec.pow(value, 2) ^ value, spec.pow(x, 1 << k) ^ x
    assert counterexample == {"inputs": [format(x, "x")], "lhs": format(lhs, "x"),
                              "rhs": format(rhs, "x")}


@pytest.mark.parametrize("value", [-1, 1 << 24], ids=["pinf", "far"])
@pytest.mark.parametrize("label", CORRUPTED)
def test_an_out_of_field_value_fails_the_check(monkeypatch, label, value):
    (fn, args, table, i, _), _ = CORRUPTED[label]
    _corrupt(monkeypatch, table, i, lambda tab: value)
    out = fn(*args)
    assert not out.passed and out.counterexample is not None


@pytest.mark.parametrize("value", [-1, 1 << 24], ids=["pinf", "far"])
@pytest.mark.parametrize("half", ["f_alpha_map.lo", "f_alpha_map.hi", "g_beta_map.lo",
                                  "g_beta_map.hi"])
def test_fgprop_names_an_out_of_field_half_entry_before_the_sweep(monkeypatch, half, value):
    # the takes of the sweep are in wrap mode, which would read -1 or 2^24 as
    # some other entry: the guard names the entry's index in its half and its
    # value, against q = 32, before anything is counted
    _corrupt(monkeypatch, half, 2, lambda tab: value)
    out = check_fgprop(5, 2)
    assert (out.passed, out.tested, out.counterexample) == \
        (False, 0, {"inputs": ["2"], "lhs": format(value, "x"), "rhs": "20"})


def _corrupt_one(monkeypatch, name, which, i, value):
    """Make checks.<name> (f_alpha_map or g_beta_map) set entry i of the low half
    of the map it builds for alpha (or beta) = `which` to `value`, and return the
    maps it builds, clean and corrupted. With hi[0] = 0 the map reads `value` at
    x = i, and at every x with the same low bits it changes by the same XOR."""
    orig = getattr(checks, name)
    key = "alpha" if name == "f_alpha_map" else "beta"
    built = {}

    def corrupted(ft, p):
        mp = built[getattr(p, key)] = orig(ft, p)
        if getattr(p, key) == which:
            mp = built[which] = copy.copy(mp)
            mp.lo = mp.lo.copy()
            mp.lo[i] = value
        return mp
    monkeypatch.setattr(checks, name, corrupted)
    return built


def test_fgprop_checks_each_map_before_the_pairs(monkeypatch):
    # at m = 5, k = 2: f_0 permutes and f_0(4) = 11 has the trace of f_0(2), so
    # f_0(2) = 11 changes f_0 by a value of trace 0 at x = 2, 10, 18 and 26: it
    # keeps (i) but fails (iii) and (iv)-(v) at x = 2; every g_0 value has trace
    # 0, so g_0(3) = 1 fails (i) at x = 3. Both then fail the pair comparisons
    # (vi) and (vii). Each map's comparisons come before the next map's, so the
    # first counterexample is f_0 (iii) at x = 2, and every comparison is counted
    # once: 20q + 24
    fs = _corrupt_one(monkeypatch, "f_alpha_map", 0, 2, 11)
    gs = _corrupt_one(monkeypatch, "g_beta_map", 0, 3, 1)
    out = check_fgprop(5, 2)
    assert (out.passed, out.tested, out.counterexample) == \
        (False, 664, {"inputs": ["2"], "lhs": "14", "rhs": "6"})
    # the corrupted halves read at x = 2 and 3, against the scalar maps, whose
    # field gives both sides of f_0's (iii) at x = 2 and g_0's (i) at x = 3
    spec, p0 = make_field(5), derive_params(5, 2)
    assert int(fs[0].lo[2] ^ fs[0].hi[0]) == 11 != eval_f_alpha(p0, 2)
    assert eval_f_alpha(p0, 4) == 11 and spec.trace(11) == spec.trace(eval_f_alpha(p0, 2))
    assert (spec.pow(11, 4) ^ 11, spec.pow(2, 2) ^ 2) == (0x14, 6)
    assert int(gs[0].lo[3] ^ gs[0].hi[0]) == 1 != eval_g_beta(p0, 3)
    assert spec.trace(1) == 1 != spec.trace(eval_g_beta(p0, 3)) == 0


#: check -> its comparisons at m, the same for every coprime k: fgprop per map
#: (f_0, f_1, g_0, g_1) compares (i) and (iii) at each x and makes three class
#: verdicts and one at x = 1, per (alpha, beta) compares (vi) both ways at each
#: x and makes two parity verdicts, and per (beta, lambda) compares (vii) at
#: each x: 4(2q + 4) + 4(2q + 2) + 4q; main_theorem makes one verdict per
#: (alpha, gamma), and perm_lemma one per B_e for (i) and per (s, B_e) for (ii)
COUNT_RULE = {
    "fgprop": (check_fgprop, lambda q: 20 * q + 24),
    "main_theorem": (check_main_theorem_outcome, lambda q: 4),
    "perm_lemma": (check_perm_lemma, lambda q: 6),
}


@pytest.mark.parametrize("label", COUNT_RULE)
def test_tested_counts_each_comparison_once(monkeypatch, label):
    # in one chunk, and in chunks of 2^6 on two workers: two chunks of x at m = 7, four at m = 8
    fn, rule = COUNT_RULE[label]
    for chunk, workers in ((_CHUNK_ELEMENTS, 1), (1 << 6, 2)):
        monkeypatch.setattr(checks, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(checks, "_workers", lambda: workers)
        for m in range(2, 9):
            for k in coprime_ks(m):
                out = fn(m, k)
                assert (out.passed, out.tested) == (True, rule(1 << m)), (chunk, m, k)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_map_chunks_keeps_chunk_order_and_raises_the_first_failure(monkeypatch, workers):
    monkeypatch.setattr(checks, "_CHUNK_ELEMENTS", 3)
    monkeypatch.setattr(checks, "_workers", lambda: workers)
    assert checks._map_chunks(lambda lo, hi: (lo, hi), 1, 12) == \
        [(1, 4), (4, 7), (7, 10), (10, 12)]

    def failing(lo, hi):
        if lo in (7, 13):
            raise ValueError(lo)
        return lo
    # chunk 7 fails first in chunk order, whichever thread meets chunk 13 first
    with pytest.raises(ValueError, match="^7$"):
        checks._map_chunks(failing, 1, 20)


def test_map_chunks_claims_each_chunk_once_under_contention(monkeypatch):
    # eight threads, more than the cores, switching every microsecond: a chunk
    # claimed twice, or a result stored in the wrong slot, shows in the calls
    monkeypatch.setattr(checks, "_CHUNK_ELEMENTS", 1)
    monkeypatch.setattr(checks, "_workers", lambda: 8)
    calls, out = [], []

    def body(lo, hi):
        time.sleep(0)  # lets the other threads in between claim and store
        calls.append(lo)
        return lo
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: out.append(checks._map_chunks(body, 0, 500)))
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert out == [list(range(500))]
    assert sorted(calls) == list(range(500))


def _corrupt_entries(monkeypatch, name, entries, new):
    """Make checks.<name> (h_value_table or f_alpha_table) return a copy of its range
    of x with the entry of each x in `entries` that it holds set to new(table), where
    table is what the builder returns over the whole field for the same parameters:
    so the whole table is corrupted alike however it is chunked. For f_alpha_map or
    g_beta_map, a copy of the map whose high half makes it read new(table) at each
    x in `entries`, and changes it alike on the rest of that high half's block."""
    orig = getattr(checks, name)

    def corrupted_map(ft, p):
        mp = copy.copy(orig(ft, p))
        mp.hi = mp.hi.copy()
        for x in entries:
            mp.hi[x >> mp.shift] = new(orig(ft, p).span(0, ft.q)) ^ mp.lo[x & mp.mask]
        return mp

    def corrupted(ft, p, *span):
        out = orig(ft, p, *span).copy()
        lo = span[0] if span else 0
        for i in entries:
            if lo <= i < lo + out.size:
                out[i - lo] = new(orig(ft, p))
        return out
    monkeypatch.setattr(checks, name, corrupted_map if name.endswith("_map") else corrupted)


def _outcome(fn, args):
    """(passed, tested, counterexample) of fn(*args), or the type of what it raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # an out-of-field index the check does not guard
        return type(exc)
    return out.passed, out.tested, out.counterexample


#: the base-field checks swept in chunks, and the tables or maps each reads through a builder
CHUNKED_CHECKS = {
    "main_theorem": (check_main_theorem_outcome, ("h_value_table",)),
    "fgprop": (check_fgprop, ("f_alpha_map", "g_beta_map")),
    "hprop": (check_hprop, ("f_alpha_table", "h_value_table")),
}


@pytest.mark.parametrize("m, k", [(7, 3), (8, 5), (9, 2), (10, 7)])
@pytest.mark.parametrize("label", CHUNKED_CHECKS)
def test_base_field_outcome_does_not_depend_on_chunk_size_or_workers(monkeypatch, label, m, k):
    # at m <= 15 the field is one chunk of 2^15; in chunks of 2^6 it is 2 to 16.
    # Entries q/2 + 3 and q - 5 are corrupted, in two late chunks, so that a
    # comparison can fail in both, and a collision copies entry 9, in the first;
    # a map's corrupted high-half entry changes a block of at most 2^5 x around each.
    fn, names = CHUNKED_CHECKS[label]
    q = 1 << m
    corruptions = [(None, None)] + [
        (name, new) for name in names
        for new in (lambda tab: tab[9], lambda tab: -1, lambda tab: 1 << 24)]
    for name, new in corruptions:
        with monkeypatch.context() as mp:
            if name is not None:
                _corrupt_entries(mp, name, (q // 2 + 3, q - 5), new)
            expected = _outcome(fn, (m, k))
            if name is None:
                assert expected[0] and expected[2] is None, expected
            else:  # each corruption is seen
                assert isinstance(expected, type) or not expected[0], (name, expected)
            mp.setattr(checks, "_CHUNK_ELEMENTS", 1 << 6)
            for workers in (1, 2):
                mp.setattr(checks, "_workers", lambda: workers)
                assert _outcome(fn, (m, k)) == expected, (name, workers)


#: the bound in MiB on the numpy and Python allocations, beyond the cached
#: FieldTables(18), of each base-field check at (18, 5) with one worker: the
#: tracemalloc peaks read 1.8, 1.8 and 1.9 MiB, against 7.1, 11.1 and 12.5 MiB
#: when each comparison was made on whole-field arrays; fgprop holds its maps as
#: half tables of 512 entries, where five whole tables took 5 MiB (6.0 MiB peak)
BASE_SWEEP_PEAK_MIB = {
    "main_theorem": (check_main_theorem_outcome, 4),
    "hprop": (check_hprop, 4),
    "fgprop": (check_fgprop, 3),
}


@pytest.mark.parametrize("label", BASE_SWEEP_PEAK_MIB)
def test_base_field_checks_hold_little_beyond_their_tables(monkeypatch, label):
    fn, bound = BASE_SWEEP_PEAK_MIB[label]
    monkeypatch.setattr(checks, "_workers", lambda: 1)  # inline, one chunk at a time
    field_tables(18)
    tracemalloc.start()
    try:
        out = fn(18, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.passed and peak < bound << 20, peak / (1 << 20)


def _no_class_on_t1(monkeypatch):
    # a table whose T_1 image meets both classes fails fgprop's (i),
    # Tr(f(x)) = par*Tr(x), before (iv) looks at it, so here the label is faked
    orig = checks._class_images

    def no_class_on_t1(ft, count, values):
        return [([t0, (NOT_A_CLASS, False)], permutes)
                for (t0, _), permutes in orig(ft, count, values)]
    monkeypatch.setattr(checks, "_class_images", no_class_on_t1)


#: label -> (setup, checker, its arguments, the counterexample)
NO_CLASS = {
    "remark4": (lambda mp: _corrupt(mp, "h_value_table", 3, lambda tab: 1 << 24),
                check_remark4, (5, 3), {"inputs": ["1"], "lhs": "none", "rhs": "0"}),
    "fgprop": (_no_class_on_t1, check_fgprop, (5, 2),
               {"inputs": ["1"], "lhs": "none", "rhs": "1"}),
}


@pytest.mark.parametrize("label", NO_CLASS)
def test_no_class_prints_none_not_inf(monkeypatch, label):
    setup, fn, args, expected = NO_CLASS[label]
    setup(monkeypatch)
    out = fn(*args)
    assert not out.passed and out.counterexample == expected


def test_a_corrupted_minus_one_prints_as_minus_one(monkeypatch):
    # no value stands for the point at infinity, so -1 prints as itself; the
    # squaring map's guard names it, with q as rhs
    ft = FieldTables(make_field(4))
    ft.sq.lo[0] = -1
    monkeypatch.setattr(checks, "field_tables", lambda m: ft)
    out = check_hprop(4, 1)
    assert (out.passed, out.counterexample) == \
        (False, {"inputs": ["0"], "lhs": "-1", "rhs": "10"})


#: label -> (checker, its arguments, a table that feeds an identity rather than
#: a permutation verdict, entry i), and the (passed, tested, counterexample)
#: with table[i] = 2^24; without the in_field guard, or the circle's guard on
#: exp, each call raises IndexError, or for a half of tr reads a wrong trace; a
#: half's entry is named by its index in that half
IDENTITY_TABLES = {
    "hprop_exp": ((check_hprop, (5, 2), "field_tables", 3),
                  (False, 0, {"inputs": ["3"], "lhs": "1000000", "rhs": "20"})),
    "hprop_tr": ((check_hprop, (5, 2), "field_tables.tr.lo", 3),
                 (False, 0, {"inputs": ["3"], "lhs": "1000000", "rhs": "2"})),
    "fgprop_tr": ((check_fgprop, (5, 2), "field_tables.tr.lo", 3),
                  (False, 0, {"inputs": ["3"], "lhs": "1000000", "rhs": "2"})),
    "hprop_tr_hi": ((check_hprop, (5, 2), "field_tables.tr.hi", 1),
                    (False, 0, {"inputs": ["1"], "lhs": "1000000", "rhs": "2"})),
    "fgprop_tr_hi": ((check_fgprop, (5, 2), "field_tables.tr.hi", 1),
                     (False, 0, {"inputs": ["1"], "lhs": "1000000", "rhs": "2"})),
    "h_dickson_g": ((check_h_dickson, (5, 2), "g_beta_table", 3),
                    (False, 4, {"inputs": ["3"], "lhs": "1000000", "rhs": "20"})),
    "h_dickson_exp": ((check_h_dickson, (5, 2), "field_tables", 2),
                      (False, 4, {"inputs": [],
                                   "guard": "circle: exp[2] = 1000000 lies outside GF(q)"})),
    "hitt_g": ((check_hitt, (5, 2), "g_beta_table", 3),
               (False, 1, {"inputs": ["3"], "lhs": "1000000", "rhs": "20"})),
    "dickson_linearized_exp": ((check_dickson_linearized, (6,), "field_tables", 2),
                               (False, 6, {"inputs": ["2"], "guard":
                                            "circle: exp[2] = 1000000 lies outside GF(q)"})),
    "dickson_methods_mul": ((check_dickson_methods, (3,), "_mul_table", 5),
                            (False, 0, {"inputs": ["2", "5"], "lhs": "1000000",
                                        "rhs": "4"})),
}


@pytest.mark.parametrize("label", IDENTITY_TABLES)
def test_an_out_of_field_value_in_an_identity_table_fails_the_check(monkeypatch, label):
    (fn, args, table, i), expected = IDENTITY_TABLES[label]
    _corrupt(monkeypatch, table, i, lambda tab: 1 << 24)
    out = fn(*args)
    assert (out.passed, out.tested, out.counterexample) == expected


@pytest.mark.parametrize("table, i", [("field_tables", 2), ("field_tables.tr.lo", 2),
                                      ("field_tables.sq.lo", 2), ("field_tables.tr.hi", 1),
                                      ("field_tables.sq.hi", 1), ("field_tables.log", 2)],
                         ids=["exp", "tr", "sq", "tr_hi", "sq_hi", "log"])
@pytest.mark.parametrize("name", CHECKS)
def test_an_out_of_field_base_table_entry_gives_a_record(monkeypatch, name, table, i):
    # exp[2], log[2], entry 2 of the low half of tr or sq, or entry 1 of its high half =
    # 2^24 in every GF(2^m) a check builds (GF(4) has 3 exp entries, and halves
    # of 2), at its m = 5 grid point
    check = CHECKS[name]
    args = next(args for args in check.grid(5) if args[0] == 5)
    _corrupt(monkeypatch, table, i, lambda tab: 1 << 24)
    assert isinstance(check.fn(*args), CheckOutcome)


#: the checks that build a table (f_alpha, g_beta, H, Frobenius, T_k) from sq
READS_SQ = {"main_theorem", "fgprop", "hprop", "h_dickson", "hitt", "remark3", "remark4",
            "dickson_linearized", "polynomiality"}


def _expect_sq_guard(monkeypatch, name, half, i, value):
    """Entry i of half `half` of sq = value in every GF(2^m) check `name` builds, at
    its m = 5 grid point: a check that reads sq names the entry, by its index in that
    half, and its value; any other passes."""
    check = CHECKS[name]
    args = next(args for args in check.grid(5) if args[0] == 5)
    _corrupt(monkeypatch, f"field_tables.sq.{half}", i, lambda tab: value)
    out = check.fn(*args)
    if name in READS_SQ:  # the guard names the entry
        assert not out.passed and out.counterexample["inputs"][-1] == str(i)
        assert out.counterexample["lhs"] == format(value, "x")
    else:
        assert out.passed


@pytest.mark.parametrize("value", [-1, 1 << 24], ids=["pinf", "far"])
@pytest.mark.parametrize("name", CHECKS)
def test_a_squaring_entry_outside_the_field_fails_each_check_that_reads_sq(
        monkeypatch, name, value):
    # the wrap-mode takes of the map read -1 as the last entry of a half, so
    # without the guard h_dickson passes on a wrong orbit
    _expect_sq_guard(monkeypatch, name, "lo", 2, value)


@pytest.mark.parametrize("value", [-1, 1 << 24], ids=["pinf", "far"])
@pytest.mark.parametrize("name", CHECKS)
def test_a_squaring_hi_entry_outside_the_field_fails_each_check_that_reads_sq(
        monkeypatch, name, value):
    # the high half is checked after the low one, which is in GF(q) here
    _expect_sq_guard(monkeypatch, name, "hi", 1, value)


#: the checks whose sweep reaches FieldTables.quotient_vec (H, hprop's ratio, h_dickson's
#: mid), whose int32 rotations are products of a log by 2^j mod n only on 0..n-1
ROTATES_LOGS = ["main_theorem", "hprop", "h_dickson", "hitt", "remark3", "remark4",
                "polynomiality"]


@pytest.mark.parametrize("value", ["n", -1])
@pytest.mark.parametrize("name", ROTATES_LOGS)
def test_a_log_outside_0_to_n_minus_1_fails_each_check_that_rotates_logs(
        monkeypatch, name, value):
    # log[3] = n, which a rotation keeps as n, or -1, which it keeps negative, in every
    # GF(2^m) the check builds, at its m = 5 grid point: the guard names the entry and
    # its value against n (that of GF(4) for polynomiality, which sweeps m = 2 first),
    # and no quotient is taken
    check = CHECKS[name]
    args = next(args for args in check.grid(5) if args[0] == 5)
    _corrupt(monkeypatch, "field_tables.log", 3,
             lambda tab: tab.size - 1 if value == "n" else value)

    def no_quotient(*args):
        raise AssertionError("a quotient was taken")
    monkeypatch.setattr(FieldTables, "quotient_vec", no_quotient)
    out = check.fn(*args)
    n = 3 if name == "polynomiality" else 31
    assert not out.passed
    assert out.counterexample["inputs"][-1] == "3"
    assert (out.counterexample["lhs"], out.counterexample["rhs"]) == \
        (format(n if value == "n" else value, "x"), format(n, "x"))


#: the checks that read the base field's logs through pow_vec and the circle, which is
#: built through them, and the checks that read no base-field log
READS_LOGS_FOR_THE_CIRCLE = ["perm_lemma", "dickson_linearized", "dickson_methods"]
READS_NO_BASE_LOG = ["nobauer", "fgprop", "zsumexp"]


@pytest.mark.parametrize("value", ["n", -1])
@pytest.mark.parametrize("name", READS_LOGS_FOR_THE_CIRCLE + READS_NO_BASE_LOG)
def test_a_log_outside_0_to_n_minus_1_is_named_before_the_circle_is_built(
        monkeypatch, name, value):
    # log[3] = n or -1 in every GF(2^m) the check builds, at its m = 5 grid point: the
    # log guard names the entry and its value against n (that of GF(4) for the Dickson
    # checks, which sweep m = 2 first), where the circle's guard would name no entry
    check = CHECKS[name]
    args = next(args for args in check.grid(5) if args[0] == 5)
    _corrupt(monkeypatch, "field_tables.log", 3,
             lambda tab: tab.size - 1 if value == "n" else value)
    out = check.fn(*args)
    if name in READS_NO_BASE_LOG:
        assert out.passed
        return
    n = 31 if name == "perm_lemma" else 3
    assert out.counterexample == {"inputs": [*([] if name == "perm_lemma" else ["2"]), "3"],
                                  "lhs": format(n if value == "n" else value, "x"),
                                  "rhs": format(n, "x")}


#: each check run at one m, and the tables it reads before it builds a table or
#: counts a verdict
READS_AT_ONE_M = {
    "main_theorem": ("sq", "log"),
    "fgprop": ("sq", "tr"),
    "hprop": ("tr", "exp", "sq", "log"),
    "perm_lemma": ("log", "circle"),
    "zsumexp": ("exp", "log"),
    "h_dickson": ("sq", "log"),
    "hitt": ("log", "circle", "sq"),
    "remark3": ("sq", "log"),
    "remark4": ("sq", "log"),
}

#: read -> each `_corrupt` table and entry that it reads in a FieldTables; the circle's
#: guard checks exp
BASE_READ_ENTRIES = {"sq": [("field_tables.sq.lo", 2), ("field_tables.sq.hi", 1)],
                     "tr": [("field_tables.tr.lo", 2), ("field_tables.tr.hi", 1)],
                     "exp": [("field_tables", 2)], "log": [("field_tables.log", 2)],
                     "circle": [("field_tables", 2)]}

READ_CORRUPTIONS = [(name, *entry) for name, reads in READS_AT_ONE_M.items() for read in reads
                    for entry in ([(read, 100)] if name == "zsumexp" else BASE_READ_ENTRIES[read])]


@pytest.mark.parametrize("value", [-1, 1 << 24], ids=["pinf", "far"])
@pytest.mark.parametrize("name, table, i", READ_CORRUPTIONS,
                         ids=[f"{n}-{t}[{i}]" for n, t, i in READ_CORRUPTIONS])
def test_a_tripped_read_guard_builds_and_counts_nothing(monkeypatch, name, table, i, value):
    # entry i of a table the check reads lies outside its range, in every GF(2^m) it
    # builds (in GF(2^10), for zsumexp, entry 100 of its ExtTables(5)), at its m = 5
    # grid point: the check fails before any map, table or B-set is built from the
    # tables and before any verdict is counted
    def no_build(*_):
        raise AssertionError("a table was built")
    for builder in ("f_alpha_map", "g_beta_map", "f_alpha_table", "g_beta_table",
                    "h_value_table", "_b_sets"):
        monkeypatch.setattr(checks, builder, no_build)
    if name == "zsumexp":
        et = ExtTables(5)  # not the cached ext_tables(5), which other tests read
        getattr(et, table)[i] = value
        monkeypatch.setattr(et, "g0_table", no_build)
        monkeypatch.setattr(checks, "ext_tables", lambda m: et)
    else:
        _corrupt(monkeypatch, table, i, lambda tab: value)
    args = next(args for args in CHECKS[name].grid(5) if args[0] == 5)
    out = CHECKS[name].fn(*args)
    assert (out.passed, out.tested) == (False, 0)
    assert out.counterexample is not None


def test_a_zero_of_g_fails_h_dickson_at_its_x(monkeypatch):
    # g(3) = 0: the check names x = 3 and skips raising that 0 to the power -2
    _corrupt(monkeypatch, "g_beta_table", 3, lambda tab: 0)
    out = check_h_dickson(5, 2)
    assert (out.passed, out.tested, out.counterexample) == \
        (False, 5, {"inputs": ["3"], "lhs": "0", "rhs": "20"})


@pytest.mark.parametrize("value", [1 << 24, 0, -1], ids=["far", "zero", "pinf"])
def test_a_bad_dickson_value_fails_h_dickson(monkeypatch, value):
    # D_d(1/x) at x = 4 is 0 or lies outside GF(32): the check names that x and
    # does not raise it to a negative power, which read log[-1] or raised IndexError
    orig = FieldTables.dickson_vec

    def corrupted(self, n, x):
        out = orig(self, n, x).copy()
        out[3] = value
        return out
    monkeypatch.setattr(FieldTables, "dickson_vec", corrupted)
    out = check_h_dickson(5, 2)
    assert (out.passed, out.tested, out.counterexample) == \
        (False, 37, {"inputs": ["4"], "lhs": format(value, "x"), "rhs": "20"})


def _phi_changed(monkeypatch, e, change):
    """Make checks._b_sets return a copy of phi for B_e with change(ft, members, phi) applied."""
    orig = checks._b_sets

    def changed(ft):
        sets = orig(ft)
        members, phi, w = sets[e]
        phi = phi.copy()
        change(ft, members, phi)
        sets[e] = members, phi, w
        return sets
    monkeypatch.setattr(checks, "_b_sets", changed)


def _move_pair_to_t1(ft, members, phi):
    """phi(0) = phi(infinity) = 0 in T_0 moved onto the first element of T_1:
    still two-to-one, but onto the wrong set."""
    phi[members[phi[members] == 0]] = np.flatnonzero(ft.tr.span(0, ft.q) == 1)[0]


#: label -> (e, the change to phi on B_e), and the (passed, tested,
#: counterexample) of check_perm_lemma(4, 1): the first x of GF(16) or infinity
#: (16) whose preimage count in B_e is off, that count, and 2 [Tr(x) = e]. The
#: first B_1 member is the circle's z, so b[0] maps to 1/c[1] = 1/2 = 9 in GF(16)
PHI_CHANGED = {
    "pair_moved_to_t1": ((0, _move_pair_to_t1),
                         (False, 6, {"inputs": ["0", "0"], "lhs": "0", "rhs": "2"})),
    "infinity_in_the_image": ((0, lambda ft, b, phi: phi.__setitem__(b[2], ft.q)),
                              (False, 6, {"inputs": ["0", "4"], "lhs": "1", "rhs": "2"})),
    "circle_value_minus_one": ((1, lambda ft, b, phi: phi.__setitem__(b[0], -1)),
                               (False, 6, {"inputs": ["1", "9"], "lhs": "1", "rhs": "2"})),
    "circle_value_far": ((1, lambda ft, b, phi: phi.__setitem__(b[0], 1 << 24)),
                         (False, 6, {"inputs": ["1", "9"], "lhs": "1", "rhs": "2"})),
}


@pytest.mark.parametrize("label", PHI_CHANGED)
def test_perm_lemma_names_the_value_with_wrong_preimages(monkeypatch, label):
    (e, change), expected = PHI_CHANGED[label]
    _phi_changed(monkeypatch, e, change)
    out = check_perm_lemma(4, 1)
    assert (out.passed, out.tested, out.counterexample) == expected


#: label -> the value that w's image of B_e takes at position 2, from (e, q,
#: the image): each leaves the image short of B_e
W_CHANGED = {
    "excluded_index": lambda e, q, image: 1 - e,
    "minus_one": lambda e, q, image: -1,
    "past_infinity": lambda e, q, image: q + 1,
    "copy_of_position_3": lambda e, q, image: image[3],
}


@pytest.mark.parametrize("e", [0, 1])
@pytest.mark.parametrize("label", W_CHANGED)
def test_a_wrong_power_map_image_fails_perm_lemma(monkeypatch, label, e):
    # at (4, 1), s = sigma - 1 = 1, so w(s, .) is the identity on B_e, which
    # the parity says permutes B_e; with one image changed it does not, and
    # (ii) fails for B_e, the (ii)/(iii) comparison [0, e]. The (passed,
    # counterexample) are those of the check that also read a bool mask of B_e
    orig = checks._b_sets

    def changed(ft):
        sets = orig(ft)
        members, phi, w = sets[e]

        def w_changed(s, z):
            image = w(s, z).copy()
            image[2] = W_CHANGED[label](e, ft.q, image)
            return image
        sets[e] = members, phi, w_changed
        return sets
    monkeypatch.setattr(checks, "_b_sets", changed)
    out = check_perm_lemma(4, 1)
    assert (out.passed, out.tested, out.counterexample) == \
        (False, 6, {"inputs": ["0", str(e)], "lhs": "0", "rhs": "1"})


#: every comparison of zsumexp at m = 9
ZSUM_TESTED = 4 * ((1 << 18) - 2)

#: label -> (ExtTables(9) table, entries, k, the new value or None to flip
#: bit 0), and the (tested, counterexample); every exp entry lies past the first
#: zsumexp chunk, while an entry of a 2^9-entry squaring half is met in every
#: chunk. The counterexamples of flipped entries are the modulo reference's,
#: folded in one pass. An exp value outside GF(2^18) fails the check before the
#: sweep.
ZSUM_CORRUPTED = {
    "sq": (("sq_lo", (300,), 2, None),
           (ZSUM_TESTED, {"inputs": ["126e"], "lhs": "a187", "rhs": "a186"})),
    "sq_twice": (("sq_hi", (40, 250), 5, None),
                 (ZSUM_TESTED, {"inputs": ["3a351"], "lhs": "274e3", "rhs": "274e2"})),
    "exp_twice": (("exp", (70000, 200000), 2, None),
                  (ZSUM_TESTED, {"inputs": ["9256"], "lhs": "bff9", "rhs": "11170"})),
    "exp_out_of_range": (("exp", (100000,), 2, 1 << 18),
                         (0, {"inputs": ["186a0"], "lhs": "40000", "rhs": "40000"})),
}


@pytest.mark.parametrize("label", ZSUM_CORRUPTED)
def test_zsumexp_outcome_does_not_depend_on_the_worker_count(monkeypatch, label):
    (name, entries, k, value), expected = ZSUM_CORRUPTED[label]
    et = ExtTables(9)  # not the cached ext_tables(9), which other tests read
    tab = getattr(et, name)
    for i in entries:
        tab[i] = tab[i] ^ 1 if value is None else value
    if value is None:  # the pin is the reference's, not the kernel's
        ref = _zsum_fold(_zsum_reference(et, k))
        assert (ref.passed, ref.tested, ref.counterexample) == (False, *expected)
    monkeypatch.setattr(checks, "ext_tables", lambda m: et)
    # eight chunks of 2^15 logs (8 workers run them all at once), 263 of 1000, the
    # last one shorter, and two
    for chunk, workers in itertools.product((1 << 15, 1000, 1 << 17), (1, 8)):
        monkeypatch.setattr(checks, "_CHUNK_ELEMENTS", chunk)
        monkeypatch.setattr(checks, "_workers", lambda: workers)
        out = check_zsumexp(9, k)
        assert (out.passed, out.tested, out.counterexample) == (False, *expected), \
            (chunk, workers)


def _swap(et):
    et.exp[[5, 6]] = et.exp[[6, 5]]


def _duplicate(et):
    et.exp[6] = et.exp[5]


def _one_with_its_log(et):
    # log[z] = i still holds at i = 6: the guard reads -1 as the log of z = 1
    et.exp[6], et.log[1] = 1, 6


@pytest.mark.parametrize("corrupt, first", [(_swap, 5), (_duplicate, 6),
                                            (_one_with_its_log, 6)])
def test_zsumexp_guard_names_a_z_that_exp_does_not_meet_once(monkeypatch, corrupt, first):
    # every exp and log value stays in range, so only the guard in the chunk
    # can tell that z = exp[i] is not g^i; it comes before the chunk's
    # comparisons and names the first such z, its log (-1 for z = 0, 1) and i
    et = ExtTables(9)
    corrupt(et)
    assert et.exp.min() >= 1 and et.exp.max() < et.Q and et.log.max() < et.n
    z = int(et.exp[first])
    expected = {"inputs": [format(z, "x")], "rhs": format(first, "x"),
                "lhs": format(int(et.log[z]) if z >= 2 else -1, "x")}
    monkeypatch.setattr(checks, "ext_tables", lambda m: et)
    for workers in (1, 8):
        monkeypatch.setattr(checks, "_workers", lambda: workers)
        out = check_zsumexp(9, 2)
        assert (out.passed, out.tested, out.counterexample) == \
            (False, ZSUM_TESTED, expected), workers


@pytest.mark.parametrize("chunk", [_CHUNK_ELEMENTS, 1000])
def test_zsumexp_chunks_compare_each_z_but_0_and_1_once(monkeypatch, chunk):
    # the four comparisons of a chunk share its z; over all chunks they are
    # 2..Q-1, each once (at m <= 7 one chunk of 2^15 holds every z)
    compared = {}
    compare = CheckOutcome.compare

    def recorded(self, inputs, lhs, rhs):
        compared.setdefault((self.params["lo"], self.params["hi"]), []).append(inputs[0].copy())
        compare(self, inputs, lhs, rhs)
    monkeypatch.setattr(CheckOutcome, "compare", recorded)
    monkeypatch.setattr(checks, "_CHUNK_ELEMENTS", chunk)
    for m in range(2, 8):
        for k in coprime_ks(m):
            compared.clear()
            assert check_zsumexp(m, k).passed, (m, k)
            for zs in compared.values():
                assert len(zs) == 4 and all(np.array_equal(z, zs[0]) for z in zs[1:]), (m, k)
            met = np.concatenate([zs[0] for zs in compared.values()])
            assert np.array_equal(np.sort(met), np.arange(2, 1 << 2 * m)), (m, k)


def test_an_out_of_field_g0_value_fails_zsumexp(monkeypatch):
    # an entry of either half is named by its index in that half, lo before hi
    et = ExtTables(5)
    build = et.g0_table
    monkeypatch.setattr(checks, "ext_tables", lambda m: et)
    for half, i in (("lo", 7), ("hi", 3)):
        g0 = build(2)
        getattr(g0, half)[i] = 1 << 24
        monkeypatch.setattr(et, "g0_table", lambda k: g0)
        out = check_zsumexp(5, 2)
        assert (out.passed, out.tested, out.counterexample) == \
            (False, 0, {"inputs": [str(i)], "lhs": "1000000", "rhs": "400"}), half


def test_zsumexp_holds_little_beyond_its_tables(monkeypatch):
    # one chunk at a time, inline; g0 as two 2^10-entry halves, not a 4 MiB
    # table, and a chunk holds only the temporaries it has yet to compare
    monkeypatch.setattr(checks, "_workers", lambda: 1)
    ext_tables(10)
    tracemalloc.start()
    try:
        out = check_zsumexp(10, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.passed and peak < 2 << 20, peak


@pytest.mark.parametrize("value", ["n", -1])
def test_a_log_outside_0_to_n_minus_1_fails_zsumexp_before_the_sweep(monkeypatch, value):
    # a rotated log is its product by 2^j mod n only on 0..n-1
    et = ExtTables(5)
    et.log[100] = et.n if value == "n" else value

    def no_chunk(*args):
        raise AssertionError("a chunk was swept")
    monkeypatch.setattr(checks, "ext_tables", lambda m: et)
    monkeypatch.setattr(checks, "_zsum_chunk", no_chunk)
    out = check_zsumexp(5, 2)
    assert (out.passed, out.tested, out.counterexample) == \
        (False, 0, {"inputs": ["64"], "lhs": "3ff" if value == "n" else "-1", "rhs": "3ff"})


def _fresh_tables(corrupt) -> FieldTables:
    """Fresh GF(16) tables, not the cached field_tables(4), with corrupt(tables) applied."""
    ft = FieldTables(make_field(4))
    corrupt(ft)
    return ft


def _circle_guard_tripped():
    """Tables whose trace reads 0 everywhere: no x has Tr(1/x) = 1, so no z + 1/z = x
    has its roots on B_1."""
    return _fresh_tables(lambda ft: (ft.tr.lo.fill(0), ft.tr.hi.fill(0)))


def _swap_powers(ft):
    ft.exp[[1, 2]] = ft.exp[[2, 1]]


#: corruptions of fresh GF(16) tables, and the message of the circle's guard
#: that each trips
CIRCLE_CORRUPTIONS = {
    # g and g^2 trade places in exp: products through the logs go wrong
    "powers_swapped": (lambda: _fresh_tables(_swap_powers),
                       "c[1..q/2] and z + 1/z on GF(q)* do not split GF(q)"),
    # the trace is flipped, so c[1] is an x whose z lies in GF(q)*, not on B_1
    # (each trace value is lo ^ hi, so flipping every low entry flips them all)
    "split_broken": (lambda: _fresh_tables(lambda ft: np.bitwise_xor(ft.tr.lo, 1, out=ft.tr.lo)),
                     "c[1..q/2] and z + 1/z on GF(q)* do not split GF(q)"),
    "exp_outside": (lambda: _fresh_tables(lambda ft: ft.exp.__setitem__(3, 16)),
                    "exp[3] = 10 lies outside GF(q)"),
}


#: checker, its arguments, and its (passed, tested, the inputs its
#: counterexample names) when field_tables(4) trips the guard of
#: FieldTables.circle; unguarded, each call raises ArithmeticError
GUARDED = {
    "perm_lemma": (check_perm_lemma, (4, 1), (False, 0)),
    "hitt": (check_hitt, (4, 1), (False, 0)),
    "h_dickson": (check_h_dickson, (4, 1), (False, 4)),
    "dickson_linearized": (check_dickson_linearized, (6,), (False, 18324, "4")),
    "dickson_methods": (check_dickson_methods, (4,), (False, 1152, "4")),
}


def _use_at_m4(monkeypatch, ft):
    orig = checks.field_tables
    monkeypatch.setattr(checks, "field_tables", lambda m: ft if m == 4 else orig(m))


def _expect_guard(monkeypatch, label, corrupted, message):
    fn, args, (passed, tested, *inputs) = GUARDED[label]
    _use_at_m4(monkeypatch, corrupted)
    out = fn(*args)
    assert (out.passed, out.tested) == (passed, tested)
    assert out.counterexample == {"inputs": inputs, "guard": f"circle: {message}"}


@pytest.mark.parametrize("label", GUARDED)
def test_a_tripped_table_guard_fails_the_check(monkeypatch, label):
    _expect_guard(monkeypatch, label, _circle_guard_tripped(),
                  "no x with Tr(1/x) = 1 has a z of order q + 1")


@pytest.mark.parametrize("corruption", CIRCLE_CORRUPTIONS)
@pytest.mark.parametrize("label", GUARDED)
def test_a_corrupted_circle_fails_the_check(monkeypatch, label, corruption):
    make, message = CIRCLE_CORRUPTIONS[corruption]
    _expect_guard(monkeypatch, label, make(), message)


def test_verify_exits_4_on_a_tripped_table_guard(monkeypatch, capsys):
    _use_at_m4(monkeypatch, _circle_guard_tripped())
    code = cli.main(["--format", "json", "verify", "--suite", "hitt", "--m-max", "4"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 4
    assert [r["passed"] for r in records] == [True, True, True, False, False]


def test_only_zsumexp_builds_extension_tables(monkeypatch):
    def refused(self, m):
        raise RuntimeError(f"ExtTables({m}) built")
    monkeypatch.setattr(ExtTables, "__init__", refused)
    # uncached, so that no ExtTables built before this test is handed out
    monkeypatch.setattr(checks, "ext_tables", ext_tables.__wrapped__)
    for m in range(2, 7):
        for k in coprime_ks(m):
            for fn in (check_perm_lemma, check_h_dickson, check_hitt):
                assert fn(m, k).passed, (fn.__name__, m, k)
    assert check_dickson_linearized(6).passed and check_dickson_methods(5).passed
    with pytest.raises(RuntimeError, match=r"ExtTables\(3\) built"):
        check_zsumexp(3, 1)


@pytest.mark.parametrize("name", CHECKS)
def test_a_check_fetches_each_field_s_tables_once(monkeypatch, name):
    # at its m = 5 grid point, each fetch counted as (builder, m); a check that
    # loops over m fetches once per m
    fetches = []
    for builder in ("field_tables", "ext_tables"):
        def counted(m, builder=builder, orig=getattr(checks, builder)):
            fetches.append((builder, m))
            return orig(m)
        monkeypatch.setattr(checks, builder, counted)
    args = next(args for args in CHECKS[name].grid(5) if args[0] == 5)
    assert CHECKS[name].fn(*args).passed
    assert len(fetches) == len(set(fetches)), fetches


def test_main_theorem_sweeps_the_tables_it_guarded(monkeypatch):
    # fresh tables on each fetch: clean on the first of an m, with log[3] = n on
    # every later one. Swept on a later copy than the one guarded, the check would
    # report the table fault as a counterexample to the theorem
    fetched = []

    def fresh(m):
        ft = FieldTables(make_field(m))
        if m in fetched:
            ft.log[3] = ft.n
        fetched.append(m)
        return ft
    monkeypatch.setattr(checks, "field_tables", fresh)
    out = check_main_theorem_outcome(5, 2)
    assert (out.passed, out.tested, out.counterexample) == (True, 4, None)
    assert fetched == [5]


def test_verify_records_do_not_depend_on_the_table_cache(monkeypatch, capsys):
    # uncached builders hand out fresh tables on each fetch: the same records, ms
    # aside, and the same exit code as through the caches
    def verify():
        code = cli.main(["--format", "json", "verify", "--suite", "all", "--m-max", "5"])
        return code, [{key: value for key, value in json.loads(line).items() if key != "ms"}
                      for line in capsys.readouterr().out.splitlines()]
    cached = verify()
    monkeypatch.setattr(checks, "field_tables", field_tables.__wrapped__)
    monkeypatch.setattr(checks, "ext_tables", ext_tables.__wrapped__)
    assert len(cached[1]) == 73
    assert verify() == cached
