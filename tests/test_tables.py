import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import permpoly
from permpoly import (INFINITY, OutOfRange, build_b_set, coprime_ks, derive_params,
                      extension_of, phi, tables, w_map)
from permpoly.checks import _b_sets
from permpoly.field import make_field
from permpoly.maps import (dickson_functional, dickson_recurrence, eval_f_alpha, eval_g_beta,
                           eval_h)
from permpoly.sparsepoly import trace_poly
from permpoly.tables import (_CHUNK_ELEMENTS, ExtTables, FieldTables, LinearMap,
                             _exp_by_doubling, _linearized_images, _quotient_logs, ext_tables,
                             f_alpha_map, f_alpha_table, field_tables, g_beta_map, g_beta_table,
                             h_value_table)

ENV = {**os.environ, "PYTHONPATH": str(Path(permpoly.__file__).resolve().parents[1])}


def _powers(mul, one, gen, count):
    """gen^0 .. gen^(count-1) by repeated scalar multiplication."""
    out, acc = [], one
    for _ in range(count):
        out.append(acc)
        acc = mul(acc, gen)
    return out, acc


@pytest.mark.parametrize("m", range(2, 11))
def test_field_exp_matches_scalar_powers(m):
    ft = field_tables(m)
    gen = int(ft.exp[1])
    powers, cycle = _powers(ft.spec.mul, 1, gen, ft.n)
    assert ft.exp.tolist() == powers and cycle == 1
    assert all(int(ft.log[x]) == i for i, x in enumerate(powers))


@pytest.mark.parametrize("m", range(2, 7))
def test_ext_exp_matches_scalar_powers(m):
    et = ext_tables(m)
    gen = et.unpack(int(et.exp[1]))
    powers, cycle = _powers(et.ext.mul, et.ext.ONE, gen, et.n)
    assert [et.unpack(int(z)) for z in et.exp] == powers
    assert cycle == et.ext.ONE


#: exponent lists for the product kernel: one, two and three factors
FACTOR_EXPONENTS = [(0,), (1,), (3,), (7,), (-1,), (-2,), (1, -1), (3, -2), (2, 1), (-1, 0),
                    (1, -1, 2)]


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("layer", ["base", "ext"])
def test_pow_vec_matches_scalar_arithmetic(m, layer):
    """Products of powers through the log tables, on every element, against
    square-and-multiply in field.py: 0 wherever a factor with e > 0 is 0, and
    a factor with e < 0 compared on nonzero elements only."""
    if layer == "base":
        tabs = field_tables(m)
        field, pack, unpack = tabs.spec, int, int
    else:
        tabs = ext_tables(m)
        field, pack, unpack = tabs.ext, tabs.pack, tabs.unpack
    size = tabs.n + 1
    # the factors: x, 5x + 3 and 3x + 1 mod size, each a permutation of the field
    bases = [np.arange(size, dtype=np.int64)]
    bases += [(c * bases[0] + d) % size for c, d in ((5, 3), (3, 1))]
    powers = {e: [pack(field.pow(unpack(x), e)) if x or e >= 0 else None for x in range(size)]
              for e in {e for es in FACTOR_EXPONENTS for e in es}}
    for exps in FACTOR_EXPONENTS:
        factors = list(zip(bases, exps))
        got = tabs.pow_vec(*factors).tolist()
        for i in range(size):
            if any(u[i] == 0 for u, e in factors if e > 0):
                assert got[i] == 0, (exps, i)
            elif all(u[i] for u, e in factors if e < 0):
                want = field.ONE
                for u, e in factors:
                    want = field.mul(want, unpack(powers[e][u[i]]))
                assert got[i] == pack(want), (exps, i)


@pytest.mark.parametrize("m", [2, 5, 8])
def test_pow_vec_takes_an_exponent_column(m):
    """x^e * y^f against square-and-multiply in field.py, with e a column of
    exponents (one row each, 0 and negative ones among them) and y^f a second
    factor, 1-D or one row per e: f small enough for the in-place int32
    product, large enough to need int64, or a column itself."""
    ft = field_tables(m)
    spec, q = ft.spec, ft.q
    xs = np.arange(q, dtype=np.int64)
    es = [-5, -1, 0, 1, 2, 7, q + 4, 3 << 33]
    col = np.array(es)[:, None]
    ys = (5 * xs + 3) % q
    cases = [((xs, col),)]
    for f in (0, -2, 3, (1 << 40) + 3, col[::-1]):
        cases += [((xs, col), (ys, f)), ((xs, col), (np.tile(ys, (len(es), 1)), f))]
    for factors in cases:
        got = ft.pow_vec(*factors)
        assert got.shape == (len(es), q)
        fs = np.broadcast_to(factors[1][1] if len(factors) > 1 else 0, (len(es), 1))
        for row, e in enumerate(es):
            f = int(fs[row, 0])
            for x in range(q):
                y = int(ys[x])
                if (x == 0 and e > 0) or (y == 0 and f > 0):
                    assert got[row, x] == 0, (e, f, x)
                elif (x or e >= 0) and (y or f >= 0):
                    want = spec.mul(spec.pow(x, e), spec.pow(y, f))
                    assert got[row, x] == want, (e, f, x)


@pytest.mark.parametrize("m", range(2, 13))
def test_ext_projective_helpers_match_scalar_maps(m):
    """The circle values c[i] = theta^i + theta^-i, for theta a root of
    z^2 + c[1] z + 1 in the scalar extension field: at every i for m <= 8, at
    256 seeded i above. For m <= 5, on every element, the index view of B_0,
    B_1, phi and w, zmap and the Dickson values, against the scalar maps."""
    ft = field_tables(m)
    spec, q = ft.spec, ft.q
    ext = extension_of(spec)
    c = ft.circle()[0]
    c1 = int(c[1])
    theta = ext.mul((c1, 0), ext.solve_quadratic((spec.pow(c1, -2), 0)))
    assert ext.add(ext.square(theta), ext.mul((c1, 0), theta)) == ext.ONE
    ii = range(q + 1) if m <= 8 else random.Random(m).sample(range(q + 1), 256)
    for i in ii:
        z = ext.pow(theta, i)
        assert (int(c[i]), 0) == ext.add(z, ext.inv(z)), i
    if m > 5:
        return

    def line_point(x):  # a B_0 index or a phi value: q stands for infinity
        return INFINITY if x == q else (x, 0)

    points = {0: line_point, 1: lambda i: ext.pow(theta, i)}
    for e, (members, phi_tab, w) in _b_sets(ft).items():
        point = points[e]
        zs = [point(i) for i in members.tolist()]
        assert len(set(zs)) == q and set(zs) == build_b_set(spec, e)
        assert [line_point(v) for v in phi_tab[members].tolist()] == [phi(ext, z) for z in zs]
        for k in coprime_ks(m):
            for widx, s in ((0, (1 << k) - 1), (1, (1 << k) + 1)):
                assert [point(i) for i in w(s, members).tolist()] == \
                    [w_map(ext, 1 << k, widx, z) for z in zs]
    et = ext_tables(m)
    for x, z in enumerate(et.zmap().tolist()):
        z = et.unpack(z)
        assert z != ext.ZERO and ext.add(z, ext.inv(z)) == (x, 0)
    for n in (1, 2, 3, q - 1, q + 1, q * q - 2):
        assert ft.dickson_vec(n, np.arange(q)).tolist() == \
            [dickson_recurrence(spec, n, x) for x in range(q)]


def test_b1_packed_refuses_repeated_powers():
    et = ExtTables(4)  # not the cached ext_tables(4), which other tests read
    et.exp[2 * (et.q - 1) % et.n] = 1  # theta^2 reads 1
    with pytest.raises(ArithmeticError, match="B_1 powers are not q = 16 elements other than 1"):
        et.b1_packed()


def test_doubling_rejects_non_primitive_elements():
    spec = field_tables(5).spec
    with pytest.raises(ArithmeticError):
        _exp_by_doubling(5, spec.mul, 1)
    et = ext_tables(3)

    def ext_mul(a, b):
        return et.pack(et.ext.mul(et.unpack(a), et.unpack(b)))

    for base_element in (1, 2, et.q - 1):  # all in GF(q)*, orders divide q - 1
        with pytest.raises(ArithmeticError):
            _exp_by_doubling(6, ext_mul, base_element)


def _whole_square(et) -> np.ndarray:
    """The whole squaring table that ExtTables' halves hold, z = lo | hi << m."""
    return np.bitwise_xor.outer(et.sq.hi, et.sq.lo).ravel()


def _whole_linear(sq: np.ndarray, poly: frozenset) -> np.ndarray:
    """sum(x^e for e in poly) over a whole squaring table `sq`, spanned from the
    basis images that it gives."""
    return LinearMap(_linearized_images(sq.take, sq.size.bit_length() - 1, poly)).span(0, sq.size)


def test_g0_halves_give_the_full_linearized_table():
    def joined(et, k):
        g0 = et.g0_table(k)
        assert g0.lo.size == g0.hi.size == et.q, k
        zs = np.arange(et.Q)
        return g0.lo[zs & (et.q - 1)] ^ g0.hi[zs >> et.m]

    for m in range(2, 11):
        et = ext_tables(m)
        assert et.sq.lo.size == et.sq.hi.size == et.q, m
        # the whole table from the halves' basis images: clean halves are F_2-linear
        basis = 1 << np.arange(m)
        sq = LinearMap(et.sq.lo[basis].tolist() + et.sq.hi[basis].tolist()).span(0, et.Q)
        assert np.array_equal(sq, _whole_square(et)), m
        for k in range(1, 2 * m):
            assert np.array_equal(joined(et, k), _whole_linear(sq, trace_poly(k))), (m, k)
            assert et.g0_table(k) is et.g0_table(k), (m, k)  # built once per k
    # on corrupted halves, g0's halves and the whole table read the same wrong squares;
    # clean comes from its own tables, since a change to sq reaches only maps built after it
    fresh = ExtTables(6)
    clean = [joined(fresh, k) for k in range(1, 12)]
    et = ExtTables(6)  # not the cached ext_tables(6), which other tests read
    et.sq.lo[[1 << 3, 40]] ^= 1
    et.sq.hi[[1 << 2, 50]] ^= 1
    sq = _whole_square(et)
    for k in range(1, 12):
        assert np.array_equal(joined(et, k), _whole_linear(sq, trace_poly(k))), k
    assert any(not np.array_equal(joined(et, k), was) for k, was in enumerate(clean, 1))


@pytest.mark.parametrize("m", range(2, 11))
def test_every_linear_map_matches_the_scalar_oracle(m):
    """Each half-table map at every x of GF(2^m), by its two takes and by its span:
    FieldTables.sq against FieldSpec.square, FieldTables.tr and the trace built again
    against FieldSpec.trace, x^(2^k) for every k against FieldSpec.pow, and f_alpha and
    g_beta for every coprime k, alpha and beta against maps.eval_f_alpha and
    maps.eval_g_beta. Each half has 2^ceil(m/2) entries at most."""
    ft = field_tables(m)
    spec, q = ft.spec, ft.q
    xs = np.arange(q)
    cases = [(ft.sq, spec.square), (ft.tr, spec.trace), (ft.linear_map(trace_poly(m)), spec.trace)]
    cases += [(ft.linear_map(frozenset({1 << k})), lambda x, k=k: spec.pow(x, 1 << k))
              for k in range(1, m)]
    for k in coprime_ks(m):
        for flag in (0, 1):
            p = derive_params(m, k, alpha=flag, beta=flag)
            cases += [(f_alpha_map(ft, p), lambda x, p=p: eval_f_alpha(p, x)),
                      (g_beta_map(ft, p), lambda x, p=p: eval_g_beta(p, x))]
    for mp, oracle in cases:
        assert mp.lo.size == 1 << (m + 1) // 2 and mp.hi.size == 1 << m // 2
        want = [oracle(x) for x in range(q)]
        assert mp(xs).tolist() == want
        assert mp.span(0, q).tolist() == want


def test_span_is_a_range_of_the_whole_table():
    # aligned on the low half (whole rows), unaligned at either end, within one
    # row, one element, and the whole field, for odd and even m
    for m in (5, 8, 11):
        ft = field_tables(m)
        q, mp = ft.q, ft.linear_map(frozenset({1, 2, 1 << (m - 1)}))
        whole = mp.span(0, q)
        assert whole.tolist() == [int(mp(x)) for x in range(q)]
        row = 1 << mp.shift
        ranges = [(0, q), (row, 3 * row), (0, row), (q - row, q), (1, q), (0, q - 1),
                  (3, row + 5), (row + 1, row + 2), (q - 3, q - 1), (row - 1, row + 1)]
        ranges += [(x, x + 1) for x in (0, 1, row - 1, row, q // 2 + 3, q - 1)]
        for a, b in ranges:
            got = mp.span(a, b)
            assert got.dtype == np.int32 and np.array_equal(got, whole[a:b]), (m, a, b)


@pytest.mark.parametrize("m", range(2, 11))
def test_squaring_halves_and_g0_match_scalar_squares(m):
    """sq.lo[z & (q-1)] ^ sq.hi[z >> m] against ExtField.square, and each g0_table(k)
    against the scalar z + z^2 + ... + z^(2^(k-1)), at every z of GF(q^2) up to m = 6,
    else at 4096 seeded z; the squares come from field, not from the tables."""
    et, ext, q = ext_tables(m), extension_of(make_field(m)), 1 << m
    zs = range(q * q) if m <= 6 else random.Random(m).sample(range(q * q), 4096)
    zs = np.array(zs)
    assert [int(s) for s in et.sq.lo[zs & (q - 1)] ^ et.sq.hi[zs >> m]] == \
        [(s[0] | s[1] << m) for s in (ext.square((z & (q - 1), z >> m)) for z in zs.tolist())]
    sums = []  # sums[k - 1][i]: z + ... + z^(2^(k-1)) at zs[i], packed
    for z in zs.tolist():
        term = acc = (z & (q - 1), z >> m)
        row = [acc]
        for _ in range(2, 2 * m):
            term = ext.square(term)
            acc = ext.add(acc, term)
            row.append(acc)
        sums.append([a | b << m for a, b in row])
    for k in range(1, 2 * m):
        g0 = et.g0_table(k)
        assert g0(zs).tolist() == [row[k - 1] for row in sums], k


def test_chunked_builds_keep_their_tables_and_proofs(monkeypatch):
    # at the default chunk size each of these fields is one chunk; at 2^4 each
    # doubling step, the log fill and the primitivity mask span several
    default = {m: (field_tables(m), ext_tables(m)) for m in range(2, 7)}
    monkeypatch.setattr(tables, "_CHUNK_ELEMENTS", 1 << 4)
    for m, built in default.items():
        for was, now in zip(built, (FieldTables(make_field(m)), ExtTables(m))):
            assert np.array_equal(now.exp, was.exp) and np.array_equal(now.log, was.log), m
    et = ext_tables(4)

    def ext_mul(a, b):
        return et.pack(et.ext.mul(et.unpack(a), et.unpack(b)))

    for base_element in (1, 2, et.q - 1):  # in GF(16)*: orders divide 15, not 255
        with pytest.raises(ArithmeticError):
            _exp_by_doubling(8, ext_mul, base_element)


def test_ext_tables_hold_exp_and_log_alone():
    # 4 MiB each for exp and log at m = 10, no whole squaring table, and no
    # whole-field temporary in the build: the parent design held 12.00 MiB
    # and peaked at 14.00 MiB
    field_tables(10)
    extension_of(make_field(10))
    tracemalloc.start()
    try:
        et = ExtTables(10)  # not cached: the build itself is measured
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert et.exp.size == et.n and held < 8.2 * (1 << 20) and peak < 9 << 20, (held, peak)


@pytest.mark.parametrize("m", range(2, 15))
def test_field_tables_hold_no_whole_table_but_exp_and_log(m):
    # squaring and the trace are maps of two halves of at most 2^ceil(m/2) entries
    ft = FieldTables(make_field(m))  # not cached, so that no circle is built yet
    arrays = {name: value for name, value in vars(ft).items() if isinstance(value, np.ndarray)}
    assert set(arrays) == {"exp", "log"} and ft.exp.size == ft.n and ft.log.size == ft.q
    for name in ("sq", "tr"):
        mp = getattr(ft, name)
        assert isinstance(mp, LinearMap), name
        halves = {key: value for key, value in vars(mp).items() if isinstance(value, np.ndarray)}
        assert set(halves) == {"lo", "hi"}, name
        assert (mp.lo.size, mp.hi.size) == (1 << (m + 1) // 2, 1 << m // 2), name


def test_field_tables_hold_exp_and_log_alone():
    # 1 MiB each for exp and log at m = 18, with 2 x 512-entry halves for
    # squaring and the trace: whole squaring and trace tables made 4.0 MiB
    make_field(18)
    tracemalloc.start()
    try:
        FieldTables(make_field(18))  # not cached: the build itself is measured
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 3 << 20, held / (1 << 20)


def test_linearized_builder_refuses_other_exponents():
    ft = field_tables(4)
    sq = ft.sq.span(0, 16)
    # x^(2^4) = x and x^(2^9) = x^2 on GF(16)
    table = ft.linear_map(frozenset({1 << 4, 1 << 9})).span(0, 16)
    assert table.tolist() == [x ^ int(sq[x]) for x in range(16)]
    for poly in ({0}, {3}, {1, 6}):
        with pytest.raises(ValueError):
            ft.linear_map(frozenset(poly))


def test_linear_maps_are_built_once_per_exponent_set_under_contention():
    # eight threads, more than the cores, switching every microsecond, ask fresh
    # tables for the same maps: each gets the values of a map built alone, and
    # afterwards the tables hand out one map per exponent set
    spec = make_field(10)
    polys = [frozenset({1 << k}) for k in range(1, 10)] + [frozenset({1, 4, 1 << 7})]
    alone = FieldTables(spec)
    want = {poly: alone.linear_map(poly).span(0, alone.q) for poly in polys}
    ft = FieldTables(spec)
    got, errors = [], []

    def ask():
        try:
            for poly in polys * 4:
                got.append((poly, ft.linear_map(poly)))
        except Exception as exc:  # raised on the test's thread below
            errors.append(exc)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert not errors and len(got) == 8 * 4 * len(polys)
    for poly, mp in got:
        assert np.array_equal(mp.span(0, ft.q), want[poly]), poly
    assert all(ft.linear_map(poly) is ft.linear_map(poly) for poly in polys)


def test_ext_tables_refuse_degree_over_ceiling():
    with pytest.raises(OutOfRange):
        ext_tables(13)


def test_every_table_is_int32():
    ft, et = field_tables(5), ext_tables(5)
    c, idx, z0 = ft.circle()
    p = derive_params(5, 2, alpha=1, beta=1, gamma=1)
    xs = np.arange(ft.q)
    tables = {
        "exp": ft.exp, "log": ft.log, "sq lo": ft.sq.lo, "sq hi": ft.sq.hi,
        "tr lo": ft.tr.lo, "tr hi": ft.tr.hi,
        "frobenius_table": ft.frobenius_table(2), "f_alpha_table": f_alpha_table(ft, p),
        "g_beta_table": g_beta_table(ft, p), "h_value_table": h_value_table(ft, p),
        "poly_table": ft.poly_table(frozenset({0, 3, 5})),
        "pow_vec": ft.pow_vec((xs, 3), (xs, -1)),
        "circle c": c, "circle idx": idx, "circle z0": z0, "dickson_vec": ft.dickson_vec(5, xs),
        "ext exp": et.exp, "ext log": et.log, "ext sq.lo": et.sq.lo, "ext sq.hi": et.sq.hi,
        "g0_table lo": et.g0_table(2).lo, "g0_table hi": et.g0_table(2).hi,
        "ext pow_vec": et.pow_vec((np.arange(et.Q), 3)), "b1_packed": et.b1_packed(),
        "zmap": et.zmap(),
    }
    assert {name: str(t.dtype) for name, t in tables.items()} == dict.fromkeys(tables, "int32")
    # 4 bytes for each of the 2^20 - 1 powers, 2^20 logs and 2 x 2^10 half squares
    et = ext_tables(10)
    assert et.exp.nbytes + et.log.nbytes + et.sq.lo.nbytes + et.sq.hi.nbytes == \
        4 * (2 * (1 << 20) - 1 + 2 * (1 << 10)) == 8_396_796


def test_dickson_vec_of_a_degree_past_int32():
    # z^(q^2 - 1) = 1 for every z of GF(q^2)*, so D_n depends on n mod q^2 - 1 only
    ft = field_tables(6)
    xs = np.arange(ft.q)
    n = 5 + (ft.q * ft.q - 1) * (1 << 40)
    assert ft.dickson_vec(n, xs).tolist() == ft.dickson_vec(5, xs).tolist()


def test_dickson_vec_where_int32_circle_products_would_wrap():
    """At m = 17, n = q - 1 times a circle index i <= q/2 passes 2^31 from
    i = 2^14: the seeded x against the scalar z^n + z^-n of maps."""
    ft = field_tables(17)
    n, idx = ft.q - 1, ft.circle()[1]
    xs = random.Random(17).sample(range(ft.q), 48)
    assert sum(int(idx[x]) * n >= 1 << 31 for x in xs) >= 12
    assert ft.dickson_vec(n, np.array(xs)).tolist() == \
        [dickson_functional(ft.spec, n, x) for x in xs]


@pytest.mark.parametrize("m", [18, 20])
def test_h_value_table_where_int32_log_products_would_wrap(m):
    """With k = m - 1, (sigma + 1) * log f_alpha(x) reaches 2^(2m - 1), past 2^31."""
    ft = field_tables(m)
    xs = random.Random(m).sample(range(ft.q), 64)
    for alpha in (0, 1):
        for gamma in (0, 1):
            p = derive_params(m, m - 1, alpha=alpha, gamma=gamma)
            h = h_value_table(ft, p)
            assert [int(h[x]) for x in xs] == [eval_h(p, x) for x in xs], (alpha, gamma)


def _expect_quotients_match_the_pow_vec_route(ft, k: int, lo: int, hi: int):
    """The int32 quotient kernel at x = lo..hi-1, as h_value_table (both gamma), hprop's
    ratio f_alpha(x)/x and h_dickson's mid x^(sigma+1)/g_beta(x)^2 (both beta, at the x
    with g_beta(x) != 0) call it, against the int64 pow_vec route, kept here as the
    reference: each log times its exponent in int64, reduced by np.remainder."""
    m, sigma = ft.spec.m, 1 << k
    xs = np.arange(lo, hi, dtype=np.int64)
    for alpha in (0, 1):
        fa = f_alpha_table(ft, derive_params(m, k, alpha=alpha), lo, hi)
        assert np.array_equal(ft.quotient_vec(fa, slice(lo, hi)), ft.pow_vec((fa, 1), (xs, -1)))
        h = ft.pow_vec((fa, sigma + 1), (xs, -2))
        for gamma in (0, 1):
            p = derive_params(m, k, alpha=alpha, gamma=gamma)
            assert np.array_equal(h_value_table(ft, p, lo, hi), h ^ (gamma * ft.tr.span(lo, hi)))
    for beta in (0, 1):
        g = g_beta_table(ft, derive_params(m, k, beta=beta))[xs]
        us, vs = xs[g != 0], g[g != 0]
        assert np.array_equal(ft.quotient_vec(us, vs, k, 1),
                              ft.pow_vec((us, sigma + 1), (vs, -2)))


@pytest.mark.parametrize("m", range(2, 13))
def test_quotient_kernel_matches_the_pow_vec_route_on_every_small_field(m):
    ft = field_tables(m)
    for k in coprime_ks(m):
        _expect_quotients_match_the_pow_vec_route(ft, k, 0, ft.q)


@pytest.mark.parametrize("span", [(0, _CHUNK_ELEMENTS), (_CHUNK_ELEMENTS, 2 * _CHUNK_ELEMENTS),
                                  (1, 3), (12345, 45678), (1, (1 << 16) - 1)],
                         ids=["chunk0", "chunk1", "head", "across", "inner"])
def test_quotient_kernel_matches_the_pow_vec_route_on_spans_at_m16(span):
    # both sweep chunks of GF(2^16), and spans with lo > 0 and hi < q, whose logs of
    # x are the slice log[lo:hi]; at k = 15, (sigma + 1) * log passes 2^31
    ft = field_tables(16)
    for k in coprime_ks(16):
        _expect_quotients_match_the_pow_vec_route(ft, k, *span)


@pytest.mark.parametrize("nbits", [24, 28, 29])
def test_quotient_index_sums_stay_in_int32_at_the_top_of_their_range(monkeypatch, nbits):
    # _quotient_logs with no table build: a few logs at the ends of 0..n-1 and a seeded
    # sample stand in for the log table, every pair of them a (u, v), and v also as a
    # slice. The sum it folds lies in 0..3n - 1, below 2^31 up to nbits = 29, and its
    # index in 0..n + 3, congruent to (2^k + 1) * log u - 2^j * log v mod n
    n = (1 << nbits) - 1
    sample = np.random.default_rng(nbits).integers(0, n, 16)
    log = np.concatenate([[0, 1, 2, n - 2, n - 1, 1 << (nbits - 1)], sample]).astype(np.int32)
    pairs = np.indices((log.size, log.size)).reshape(2, -1)
    folded = []

    def recorded(s, bits, fold=tables._fold):
        folded.append((s.dtype, int(s.min()), int(s.max())))
        return fold(s, bits)
    monkeypatch.setattr(tables, "_fold", recorded)
    for k in (None, 1, 5, nbits - 1):
        for j in (0, 1):
            factor = 1 if k is None else (1 << k) + 1
            for u, v in ((pairs[0], pairs[1]), (np.arange(log.size)[::-1], slice(0, log.size))):
                got = _quotient_logs(log, u, v, k, j, nbits)
                lu, lv = log[u].tolist(), log[v].tolist()
                assert got.dtype == np.int32 and 0 <= got.min() and got.max() <= n + 3, (k, j)
                assert [int(i) % n for i in got] == \
                    [(factor * a - (b << j)) % n for a, b in zip(lu, lv)], (k, j)
    assert all(dtype == np.int32 and 0 <= low and high < 3 * n for dtype, low, high in folded)
    # the top of the range is met: (2^k + 1)(n - 1) by rotation, plus n for a log v of 0
    assert max(high for _, _, high in folded) >= 2 * n


def _cli(*flags, suite):
    cmd = [sys.executable, *flags, "-m", "permpoly.cli", "--format", "json",
           "verify", "--suite", suite, "--m-max", "6"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=ENV,
                          timeout=120)
    records = [json.loads(line) for line in done.stdout.splitlines()]
    return done.returncode, [(r["check"], r["params"], r["passed"], r["tested"],
                              r["counterexample"]) for r in records]


@pytest.mark.parametrize("suite", ["hitt", "perm_lemma"])
def test_verdicts_survive_optimized_python(suite):
    code_o, records_o = _cli("-O", suite=suite)
    code, records = _cli(suite=suite)
    assert code_o == code == 0
    assert records_o == records and len(records) == 11


def test_table_guard_survives_optimized_python():
    # the doubling guard in tables.py, and solve_quadratic's root check in
    # field.py on an input of absolute trace 1
    script = ("import sys\n"
              "from permpoly.field import extension_of, make_field\n"
              "from permpoly.tables import _exp_by_doubling, field_tables\n"
              "if not sys.flags.optimize: sys.exit('not optimized')\n"
              "ext = extension_of(make_field(3))\n"
              "c = next(z for z in ext.elements() if ext.trace_abs(z) == 1)\n"
              "for call in (lambda: _exp_by_doubling(4, field_tables(4).spec.mul, 1),\n"
              "             lambda: ext.solve_quadratic(c)):\n"
              "    try:\n"
              "        call()\n"
              "    except ArithmeticError:\n"
              "        print('raised')\n")
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=ENV, timeout=120)
    assert done.returncode == 0 and done.stdout.split() == ["raised", "raised"], done.stderr
