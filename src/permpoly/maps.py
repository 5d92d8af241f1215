"""Evaluators for the whole map family: the two linearized maps, the
permutation family H, Dickson polynomials, and the projective helper maps.

Scalar, on `field`'s arithmetic. Nothing in `tables` or `sparsepoly` is built
from them, so the tests use them as an independent oracle for the tables."""

from __future__ import annotations

import enum

from .field import INFINITY, ExtField, FieldSpec, extension_of
from .params import ParamSet
from .sparsepoly import sp_eval


def eval_f_alpha(p: ParamSet, x: int) -> int:
    """alpha*Tr(x) + sum_{i=0}^{r-1} x^(sigma^i)."""
    f = p.field
    acc = f.frobenius_sum(x, p.r, p.k)
    if p.alpha:
        acc ^= f.trace(x)
    return acc


def eval_g_beta(p: ParamSet, x: int) -> int:
    """beta*Tr(x) + sum_{j=0}^{k-1} x^(2^j)."""
    f = p.field
    acc = f.frobenius_sum(x, p.k)
    if p.beta:
        acc ^= f.trace(x)
    return acc


def eval_h(p: ParamSet, x: int) -> int:
    """gamma*Tr(x) + f_alpha(x)^(sigma+1) / x^2, with 0 mapped to 0."""
    if x == 0:
        return 0
    f = p.field
    fa = eval_f_alpha(p, x)
    val = f.mul(f.pow(fa, p.sigma + 1), f.inv(f.square(x)))
    if p.gamma:
        val ^= f.trace(x)
    return val


def eval_h_via_identity(p: ParamSet, x: int) -> int:
    """The rewritten form gamma*Tr(x) + (f/x)^2 + f/x + f, for x != 0."""
    if x == 0:
        return 0
    f = p.field
    fa = eval_f_alpha(p, x)
    t = f.mul(fa, f.inv(x))
    val = f.square(t) ^ t ^ fa
    if p.gamma:
        val ^= f.trace(x)
    return val


def tau(v: int, x: int) -> int:
    """Translation by v in {0, 1}: x -> x + v."""
    return x ^ (v & 1)


# ---------------------------------------------------------------------------
# Dickson polynomials
# ---------------------------------------------------------------------------

class DicksonMethod(enum.Enum):
    RECURRENCE = "recurrence"
    CLOSED_FORM = "closed_form"
    FUNCTIONAL = "functional"


def dickson_exponents(n: int) -> frozenset:
    """Exponents with odd coefficient in D_n(X, 1) over the integers.

    The coefficient of X^(n-2j) is n/(n-j)*C(n-j, j) = C(n-j, j) + C(n-j-1, j-1)
    for j >= 1, and by Lucas' theorem C(a, b) is odd iff the bits of b are a
    subset of those of a.
    """
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    exps = {n}
    for j in range(1, n // 2 + 1):
        a = n - j
        if ((j & a) == j) != (((j - 1) & (a - 1)) == j - 1):
            exps.add(n - 2 * j)
    return frozenset(exps)


def dickson_recurrence(spec: FieldSpec, n: int, x: int, a: int = 1) -> int:
    """D_n(x, a) via D_j = x*D_{j-1} + a*D_{j-2}, D_0 = 0 in char 2, D_1 = x."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    prev, cur = 0, x  # D_0 (= 2 = 0), D_1
    for _ in range(n - 1):
        prev, cur = cur, spec.mul(x, cur) ^ spec.mul(a, prev)
    return cur


def functional_preimage(ext: ExtField, x: int):
    """A z in GF(q^2) with z + 1/z = x, i.e. a root of z^2 + x*z + 1."""
    if x == 0:
        return ExtField.ONE
    base = ext.base
    c = (base.square(base.inv(x)), 0)  # 1/x^2, absolute trace 0
    s = ext.solve_quadratic(c)
    return ext.mul((x, 0), s)  # nonzero: s^2 + s = c is not 0, so neither is s


def dickson_functional(spec: FieldSpec, n: int, x: int) -> int:
    """D_n(x, 1) as z^n + z^(-n) for a root z of z + 1/z = x."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    ext = extension_of(spec)
    z = functional_preimage(ext, x)
    val = ext.add(ext.pow(z, n), ext.pow(ext.inv(z), n))
    if val[1]:
        raise ArithmeticError(f"D_{n}({x:#x}) left the base field")
    return val[0]


def eval_dickson(spec: FieldSpec, n: int, x: int,
                 method: DicksonMethod = DicksonMethod.RECURRENCE,
                 a: int = 1) -> int:
    if method is DicksonMethod.RECURRENCE:
        return dickson_recurrence(spec, n, x, a)
    if a != 1:
        raise ValueError(f"method {method.value} supports a=1 only")
    if method is DicksonMethod.CLOSED_FORM:
        return sp_eval(dickson_exponents(n), spec, x)
    if method is DicksonMethod.FUNCTIONAL:
        return dickson_functional(spec, n, x)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# projective maps on GF(q^2) + infinity
# ---------------------------------------------------------------------------

def phi(ext: ExtField, z):
    """z -> 1/(z + 1/z) with phi(0) = phi(inf) = 0 and phi(1) = inf."""
    if z is INFINITY or z == ExtField.ZERO:
        return ExtField.ZERO
    if z == ExtField.ONE:
        return INFINITY
    return ext.inv(ext.add(z, ext.inv(z)))


def w_map(ext: ExtField, sigma: int, e: int, z):
    """z -> z^(sigma-1) (e = 0) or z^(sigma+1) (e = 1); fixes infinity."""
    if z is INFINITY:
        return INFINITY
    exponent = sigma - 1 if e == 0 else sigma + 1
    if z == ExtField.ZERO:
        return ExtField.ZERO
    return ext.pow(z, exponent)
