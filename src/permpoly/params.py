"""Validated parameter bundles for the map family."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NotCoprime, OutOfRange
from .field import FieldSpec, make_field


@dataclass(frozen=True)
class ParamSet:
    """All derived quantities for one (m, k, alpha, beta, gamma, lambda) choice.

    r is the inverse of k modulo m, k*r = 1 + m*m_prime exactly,
    sigma = 2^k, delta and theta follow the composition and decomposition
    identities of the f/g map pair.
    """

    m: int
    k: int
    r: int
    m_prime: int
    alpha: int
    beta: int
    gamma: int
    delta: int
    theta: int
    lam: int
    sigma: int
    field: FieldSpec

    @property
    def f_trace(self) -> int:
        """(r + alpha*m) mod 2, the trace multiplier: Tr(f_alpha(x)) = f_trace*Tr(x)."""
        return (self.r + self.alpha * self.m) % 2

    @property
    def g_trace(self) -> int:
        """(k + beta*m) mod 2, the trace multiplier: Tr(g_beta(x)) = g_trace*Tr(x)."""
        return (self.k + self.beta * self.m) % 2

    @property
    def h_trace(self) -> int:
        """(r + (alpha+gamma)*m) mod 2: Tr(H) = h_trace*Tr, and H permutes iff it is 1."""
        return (self.f_trace + self.gamma * self.m) % 2

    @property
    def fg_trace(self) -> int:
        """(1 + delta*m) mod 2, the trace multiplier of f_alpha(g_beta(x)) = x + delta*Tr(x)."""
        return (1 + self.delta * self.m) % 2


def derive_params(m: int, k: int, alpha: int = 0, beta: int = 0, gamma: int = 0,
                  lam: int | None = None, field: FieldSpec | None = None) -> ParamSet:
    """Derive (r, m', sigma, delta, theta) from m and k.

    lam defaults to delta, the instance used when composing the maps back
    to the identity on a trace class.
    """
    if m < 2:
        raise OutOfRange(f"m={m} must be >= 2")
    if not 1 <= k <= m - 1:
        raise OutOfRange(f"k={k} not in 1..{m - 1}")
    for name, flag in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if flag not in (0, 1):
            raise OutOfRange(f"{name}={flag} not in {{0, 1}}")
    if gcd(k, m) != 1:
        raise NotCoprime(f"gcd({k}, {m}) != 1")
    r = pow(k, -1, m)
    m_prime = (k * r - 1) // m
    if k * r != 1 + m * m_prime:
        raise ArithmeticError(f"k*r = {k * r} is not 1 + m*m' for m'={m_prime}")
    delta = (m_prime + alpha * k + beta * r + alpha * beta * m) % 2
    if lam is None:
        lam = delta
    elif lam not in (0, 1):
        raise OutOfRange(f"lambda={lam} not in {{0, 1}}")
    p = ParamSet(m=m, k=k, r=r, m_prime=m_prime, alpha=alpha, beta=beta, gamma=gamma,
                 delta=delta, theta=(beta + lam * k) % 2, lam=lam, sigma=1 << k,
                 field=make_field(m) if field is None else field)
    if p.fg_trace != p.f_trace * p.g_trace:
        raise ArithmeticError(f"delta={delta} breaks the composition congruence")
    return p
