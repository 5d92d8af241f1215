"""Exact polynomial algebra over F_2 in exponent-set form.

A polynomial is a frozenset of nonnegative integer exponents: the
monomials present with coefficient 1.  Addition is symmetric difference,
so p + p = 0 for free.
"""

from __future__ import annotations

from collections import Counter

from .errors import NotDivisible
from .field import FieldSpec
from .params import ParamSet

ZERO_POLY = frozenset()


def sp_add(a: frozenset, b: frozenset) -> frozenset:
    return frozenset(a ^ b)


def sp_mul(a: frozenset, b: frozenset) -> frozenset:
    counts = Counter()
    for ea in a:
        for eb in b:
            counts[ea + eb] += 1
    return frozenset(e for e, c in counts.items() if c & 1)


def sp_pow2k(a: frozenset, k: int) -> frozenset:
    """Raise to the power 2^k: every exponent is multiplied by 2^k."""
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    return frozenset(e << k for e in a)


def sp_div_x2(a: frozenset) -> frozenset:
    """Exact division by X^2."""
    if any(e < 2 for e in a):
        raise NotDivisible(f"exponent below 2 present in {sorted(a)[:4]}")
    return frozenset(e - 2 for e in a)


def sp_reduce_mod_field(a: frozenset, m: int) -> frozenset:
    """Functional reduction mod X^(2^m) - X.

    Exponent 0 is fixed; e >= 1 maps to 1 + (e-1) mod (2^m - 1); colliding
    monomials merge with F_2 parity.  The reduced polynomial induces the
    same function on GF(2^m).
    """
    n = (1 << m) - 1
    counts = Counter()
    for e in a:
        counts[e if e == 0 else 1 + (e - 1) % n] += 1
    return frozenset(e for e, c in counts.items() if c & 1)


def sp_eval(a: frozenset, spec: FieldSpec, x: int) -> int:
    out = 0
    for e in a:
        out ^= spec.pow(x, e)
    return out


def sp_serialize(a: frozenset) -> str:
    """Sorted comma-separated exponents; the zero polynomial is "0"."""
    if not a:
        return "0"
    return ",".join(str(e) for e in sorted(a))


# ---------------------------------------------------------------------------
# symbolic forms of the named polynomials
# ---------------------------------------------------------------------------

def trace_poly(m: int) -> frozenset:
    """X + X^2 + ... + X^(2^(m-1)): the trace of GF(2^m), and T_m in any field."""
    return frozenset(1 << i for i in range(m))


def f_alpha_poly(p: ParamSet) -> frozenset:
    poly = frozenset(p.sigma ** i for i in range(p.r))
    if p.alpha:
        poly = sp_add(poly, trace_poly(p.m))
    return poly


def g_beta_poly(p: ParamSet) -> frozenset:
    poly = trace_poly(p.k)
    if p.beta:
        poly = sp_add(poly, trace_poly(p.m))
    return poly


def expand_h(p: ParamSet) -> frozenset:
    """Symbolic expansion gamma*Tr(X) + f_alpha(X)^(sigma+1) / X^2.

    Raises NotDivisible if the numerator were not exactly divisible by
    X^2; that firing would falsify the polynomiality of the family.
    """
    fa = f_alpha_poly(p)
    numerator = sp_mul(sp_pow2k(fa, p.k), fa)
    h = sp_div_x2(numerator)
    if p.gamma:
        h = sp_add(h, trace_poly(p.m))
    return h
