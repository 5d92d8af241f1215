import random

import pytest

from permpoly import (NotDivisible, derive_params, eval_f_alpha, eval_g_beta,
                      eval_h, expand_h, make_field, sp_add,
                      sp_div_x2, sp_eval, sp_mul, sp_pow2k,
                      sp_reduce_mod_field, sp_serialize, trace_poly)
from permpoly.sparsepoly import ZERO_POLY, f_alpha_poly, g_beta_poly

X = frozenset({1})


def test_basic_ops():
    a = frozenset({0, 1, 3})
    b = frozenset({1, 2})
    assert sp_add(a, b) == frozenset({0, 2, 3})
    assert sp_add(a, a) == ZERO_POLY
    # (X + 1)^2 = X^2 + 1 over F_2
    assert sp_mul(frozenset({0, 1}), frozenset({0, 1})) == frozenset({0, 2})
    assert sp_pow2k(a, 2) == frozenset({0, 4, 12})
    assert sp_mul(a, ZERO_POLY) == ZERO_POLY


def test_ring_axioms_randomized():
    rng = random.Random(6421)

    def rand_poly():
        return frozenset(rng.randrange(1 << 20) for _ in range(rng.randrange(9)))

    for _ in range(300):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert sp_mul(a, b) == sp_mul(b, a)
        assert sp_add(a, b) == sp_add(b, a)
        assert sp_mul(a, sp_add(b, c)) == sp_add(sp_mul(a, b), sp_mul(a, c))
        assert sp_mul(sp_mul(a, b), c) == sp_mul(a, sp_mul(b, c))
        # freshman's dream: squaring is exponent doubling
        assert sp_mul(a, a) == sp_pow2k(a, 1)


def test_div_x2():
    assert sp_div_x2(frozenset({2, 5})) == frozenset({0, 3})
    with pytest.raises(NotDivisible):
        sp_div_x2(frozenset({1, 4}))
    with pytest.raises(NotDivisible):
        sp_div_x2(frozenset({0}))


def test_reduce_mod_field():
    # X^8 reduces to X over GF(8); exponent 0 stays put
    assert sp_reduce_mod_field(frozenset({8}), 3) == frozenset({1})
    assert sp_reduce_mod_field(frozenset({0}), 3) == frozenset({0})
    # collisions cancel with parity: X^8 + X = 0 as a function on GF(8)
    assert sp_reduce_mod_field(frozenset({8, 1}), 3) == ZERO_POLY
    # exponent 2^m - 1 is fixed, not sent to 0
    assert sp_reduce_mod_field(frozenset({7}), 3) == frozenset({7})


def test_reduce_preserves_function():
    rng = random.Random(97)
    for m in (3, 5):
        f = make_field(m)
        for _ in range(40):
            poly = frozenset(rng.randrange(1 << 12) for _ in range(6))
            red = sp_reduce_mod_field(poly, m)
            assert max(red, default=0) < f.q
            for x in f.elements():
                assert sp_eval(poly, f, x) == sp_eval(red, f, x)


def test_serialize_parse():
    assert sp_serialize(frozenset({18, 3, 15, 6})) == "3,6,15,18"
    assert sp_serialize(ZERO_POLY) == "0"


def test_named_polys_match_evaluators():
    for m, k in ((3, 2), (5, 3), (6, 5)):
        f = make_field(m)
        assert trace_poly(m) == frozenset(1 << i for i in range(m))
        p_tk = derive_params(m, k)  # T_k is g_beta with beta = 0
        for alpha in (0, 1):
            for beta in (0, 1):
                p = derive_params(m, k, alpha=alpha, beta=beta)
                fp, gp, tp = f_alpha_poly(p), g_beta_poly(p), trace_poly(k)
                for x in f.elements():
                    assert sp_eval(fp, f, x) == eval_f_alpha(p, x)
                    assert sp_eval(gp, f, x) == eval_g_beta(p, x)
                    assert sp_eval(tp, f, x) == eval_g_beta(p_tk, x)
                    assert sp_eval(trace_poly(m), f, x) == f.trace(x)


def test_expand_h_known_exponents():
    # m=2, k=1: H is the identity map X
    assert expand_h(derive_params(2, 1)) == frozenset({1})
    # m=3, k=2, sigma=4: exponents sigma-1, 2(sigma-1), sigma^2-1, sigma^2+sigma-2
    assert expand_h(derive_params(3, 2)) == frozenset({3, 6, 15, 18})
    assert sp_serialize(expand_h(derive_params(3, 2))) == "3,6,15,18"


def test_expand_h_gamma_adds_trace():
    p0 = expand_h(derive_params(3, 2, gamma=0))
    p1 = expand_h(derive_params(3, 2, gamma=1))
    assert sp_add(p0, p1) == trace_poly(3)


def test_expand_h_matches_pointwise():
    for m, k in ((3, 2), (5, 2), (6, 5), (7, 3)):
        f = make_field(m)
        for alpha in (0, 1):
            for gamma in (0, 1):
                p = derive_params(m, k, alpha=alpha, gamma=gamma)
                poly = expand_h(p)
                red = sp_reduce_mod_field(poly, m)
                for x in f.elements():
                    assert sp_eval(poly, f, x) == eval_h(p, x)
                    assert sp_eval(red, f, x) == eval_h(p, x)
