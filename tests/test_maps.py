import numpy as np
import pytest

from permpoly import (INFINITY, DicksonMethod, ExtField, dickson_exponents,
                      derive_params, eval_dickson, eval_f_alpha, eval_g_beta,
                      eval_h, eval_h_via_identity, extension_of,
                      make_field, phi, tau, w_map)
from permpoly.field import coprime_ks
from permpoly.maps import dickson_functional, dickson_recurrence, functional_preimage
from permpoly.sparsepoly import expand_h, sp_eval
from permpoly.tables import (ext_tables, f_alpha_table, field_tables, g_beta_table,
                             h_value_table)


def test_f_alpha_fixed_points():
    for m, k in ((3, 2), (5, 3), (7, 4)):
        for alpha in (0, 1):
            p = derive_params(m, k, alpha=alpha)
            assert eval_f_alpha(p, 0) == 0
            assert eval_f_alpha(p, 1) == (p.r + alpha * m) % 2


def test_f_alpha_m3_k2_formula():
    # r = 2, so f_0(x) = x + x^sigma = x + x^4
    f = make_field(3)
    p = derive_params(3, 2)
    for x in f.elements():
        assert eval_f_alpha(p, x) == x ^ f.pow(x, 4)


def test_g_beta_values():
    f = make_field(3)
    p = derive_params(3, 2)  # k = 2: g_0(x) = T_2(x) = x + x^2
    for x in f.elements():
        assert eval_g_beta(p, x) == x ^ f.square(x)
    p1 = derive_params(3, 1)  # k = 1: g_0 is the identity
    for x in f.elements():
        assert eval_g_beta(p1, x) == x


def test_g_beta_trace_twist():
    p = derive_params(3, 2, beta=1)
    f = p.field
    for x in f.elements():
        assert eval_g_beta(p, x) == x ^ f.square(x) ^ f.trace(x)


def test_fg_linearity():
    for m, k in ((4, 3), (6, 5)):
        p = derive_params(m, k, alpha=1, beta=1)
        elems = list(p.field.elements())
        for x in elems:
            for y in elems:
                assert eval_f_alpha(p, x ^ y) == eval_f_alpha(p, x) ^ eval_f_alpha(p, y)
                assert eval_g_beta(p, x ^ y) == eval_g_beta(p, x) ^ eval_g_beta(p, y)


def test_h_values():
    p = derive_params(2, 1)  # f_0 = id, sigma = 2: H(x) = x^3/x^2 = x
    for x in p.field.elements():
        assert eval_h(p, x) == x
    for m, k in ((3, 2), (5, 2)):
        for alpha in (0, 1):
            for gamma in (0, 1):
                p = derive_params(m, k, alpha=alpha, gamma=gamma)
                assert eval_h(p, 0) == 0
                assert eval_h(p, 1) == (gamma * m + p.r + alpha * m) % 2


def test_h_two_forms_agree():
    for m, k in ((3, 2), (5, 3), (8, 3)):
        for alpha in (0, 1):
            for gamma in (0, 1):
                p = derive_params(m, k, alpha=alpha, gamma=gamma)
                for x in p.field.elements():
                    assert eval_h(p, x) == eval_h_via_identity(p, x)


def test_tables_match_reference_evaluators():
    # the tables are built from sparsepoly's exponent sets; the scalar maps are
    # the oracle, on every element, every coprime k and every (alpha, beta),
    # with gamma = beta so that H meets every (alpha, gamma) too
    for m in range(2, 9):
        ft = field_tables(m)
        spec = ft.spec
        xs = list(spec.elements())
        assert ft.tr.span(0, ft.q).tolist() == [spec.trace(x) for x in xs]
        for k in coprime_ks(m):
            assert ft.frobenius_table(k).tolist() == [spec.pow(x, 1 << k) for x in xs]
            for alpha in (0, 1):
                for beta in (0, 1):
                    p = derive_params(m, k, alpha=alpha, beta=beta, gamma=beta)
                    assert f_alpha_table(ft, p).tolist() == [eval_f_alpha(p, x) for x in xs]
                    assert g_beta_table(ft, p).tolist() == [eval_g_beta(p, x) for x in xs]
                    assert h_value_table(ft, p).tolist() == [eval_h(p, x) for x in xs]
        # H, D_n, and a constant term with exponents that reduce mod X^q - X and collide
        polys = [expand_h(derive_params(m, 1, alpha=1, gamma=1)), dickson_exponents(2 * m + 1),
                 frozenset({0, 1, 3, ft.q, ft.q + 2, 3 * ft.q - 2})]
        for poly in polys:
            assert ft.poly_table(poly).tolist() == [sp_eval(poly, spec, x) for x in xs]
    for m in range(2, 7):
        et = ext_tables(m)
        for k in coprime_ks(m):
            want = []
            for z in range(et.Q):
                acc = t = et.unpack(z)
                for _ in range(k - 1):
                    t = et.ext.square(t)
                    acc = et.ext.add(acc, t)
                want.append(et.pack(acc))
            g0 = et.g0_table(k)
            zs = np.arange(et.Q)
            assert (g0.lo[zs & (et.q - 1)] ^ g0.hi[zs >> m]).tolist() == want
    # one larger field, sampled
    ft = field_tables(10)
    p = derive_params(10, 3, alpha=1, gamma=1)
    fa = f_alpha_table(ft, p)
    gb = g_beta_table(ft, p)
    hv = h_value_table(ft, p)
    for x in range(0, ft.q, 7):
        assert fa[x] == eval_f_alpha(p, x)
        assert gb[x] == eval_g_beta(p, x)
        assert hv[x] == eval_h(p, x)


def test_tau():
    assert tau(0, 5) == 5
    assert tau(1, 5) == 4
    f = make_field(3)
    for x in f.elements():
        # translation by 1 shifts the trace class by Tr(1) = m mod 2
        assert f.trace(tau(1, x)) == f.trace(x) ^ (f.m % 2)


def test_dickson_small_indices():
    f = make_field(4)
    for x in f.elements():
        assert dickson_recurrence(f, 1, x) == x
        assert dickson_recurrence(f, 2, x) == f.square(x)  # x^2 - 2 = x^2
        assert dickson_recurrence(f, 3, x) == f.pow(x, 3) ^ x  # x^3 - 3x


def test_dickson_exponents():
    assert dickson_exponents(1) == frozenset({1})
    assert dickson_exponents(2) == frozenset({2})
    assert dickson_exponents(3) == frozenset({1, 3})
    assert dickson_exponents(5) == frozenset({1, 3, 5})
    # semigroup property degrees: max exponent is always n
    for n in range(1, 40):
        assert max(dickson_exponents(n)) == n
    with pytest.raises(ValueError):
        dickson_exponents(0)


def test_dickson_exponents_match_the_f2_recurrence():
    # D_n = X*D_(n-1) + D_(n-2) over F_2 with D_0 = 0, D_1 = X; bit e of
    # the int masks stands for X^e
    prev, cur = 0, 0b10
    for n in range(1, 3001):
        assert sum(1 << e for e in dickson_exponents(n)) == cur, n
        prev, cur = cur, (cur << 1) ^ prev


def test_dickson_methods_agree_pointwise():
    for m in (2, 3, 4):
        f = make_field(m)
        for n in (1, 2, 3, 5, 7, f.q, f.q + 1, f.q * f.q - 1):
            for x in f.elements():
                ref = dickson_recurrence(f, n, x)
                assert eval_dickson(f, n, x, DicksonMethod.CLOSED_FORM) == ref
                assert eval_dickson(f, n, x, DicksonMethod.FUNCTIONAL) == ref


def test_dickson_composition():
    # D_mn = D_m o D_n
    f = make_field(3)
    for x in f.elements():
        d3 = dickson_recurrence(f, 3, x)
        assert dickson_recurrence(f, 15, x) == dickson_recurrence(f, 5, d3)


def test_dickson_a_param_and_method_guard():
    f = make_field(3)
    # D_2(x, a) = x^2 - 2a = x^2 in char 2
    for x in f.elements():
        assert dickson_recurrence(f, 2, x, a=3) == f.square(x)
    with pytest.raises(ValueError):
        eval_dickson(f, 3, 1, DicksonMethod.CLOSED_FORM, a=2)


def test_functional_preimage():
    for m in (2, 3, 4):
        f = make_field(m)
        ext = extension_of(f)
        for x in f.elements():
            z = functional_preimage(ext, x)
            assert z != ExtField.ZERO
            assert ext.add(z, ext.inv(z)) == (x, 0)


def test_functional_preimage_root_choice_irrelevant():
    # z and 1/z are the two roots; z^n + z^-n is symmetric in them
    f = make_field(3)
    ext = extension_of(f)
    for x in f.elements():
        z = functional_preimage(ext, x)
        zi = ext.inv(z)
        for n in (3, 5, 9):
            v1 = ext.add(ext.pow(z, n), ext.pow(ext.inv(z), n))
            v2 = ext.add(ext.pow(zi, n), ext.pow(ext.inv(zi), n))
            assert v1 == v2
            assert v1[0] == dickson_functional(f, n, x)


def test_phi():
    ext = extension_of(make_field(3))
    assert phi(ext, INFINITY) == ExtField.ZERO
    assert phi(ext, ExtField.ZERO) == ExtField.ZERO
    assert phi(ext, ExtField.ONE) is INFINITY
    for z in ext.elements():
        if z in (ExtField.ZERO, ExtField.ONE):
            continue
        assert phi(ext, z) == phi(ext, ext.inv(z))


def test_w_map():
    ext = extension_of(make_field(3))
    sigma = 4
    for e in (0, 1):
        assert w_map(ext, sigma, e, INFINITY) is INFINITY
        assert w_map(ext, sigma, e, ExtField.ONE) == ExtField.ONE
        assert w_map(ext, sigma, e, ExtField.ZERO) == ExtField.ZERO
    z = (0, 1)  # u
    assert w_map(ext, sigma, 0, z) == ext.pow(z, 3)
    assert w_map(ext, sigma, 1, z) == ext.pow(z, 5)
