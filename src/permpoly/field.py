"""Arithmetic in GF(2^m) and in its quadratic extension GF(2^{2m}).

Elements of GF(2^m) are plain Python ints: bit i is the coefficient of
X^i in the polynomial-basis representation.  Elements of GF(2^{2m}) are
(a, b) pairs standing for a + b*u, where u^2 = u + nu for a fixed
base-field element nu of trace 1 (which makes X^2 + X + nu irreducible
over GF(2^m)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd

from .errors import PermpolyError, ReducibleModulus, UnsupportedDegree

MAX_DEGREE = 24


class _Infinity:
    """The point at infinity used by the projective maps."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


#: Singleton; projective values are either this or an (a, b) extension pair.
INFINITY = _Infinity()


# ---------------------------------------------------------------------------
# polynomial-over-F2 helpers on int bitmasks
# ---------------------------------------------------------------------------

def clmul(a: int, b: int) -> int:
    """Carry-less product of two F_2[X] polynomials given as bitmasks."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def polymod(a: int, f: int) -> int:
    """Remainder of a modulo f in F_2[X]."""
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def polygcd(a: int, b: int) -> int:
    while b:
        a, b = b, polymod(a, b)
    return a


def prime_factors(n: int) -> list[int]:
    """The distinct prime divisors of n, in increasing order, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_irreducible(f: int) -> bool:
    """Rabin irreducibility test for f in F_2[X] (degree >= 1)."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    # X^(2^i) mod f by repeated squaring
    def frob_power(t: int) -> int:
        h = 0b10  # X
        for _ in range(t):
            h = polymod(clmul(h, h), f)
        return h

    x = polymod(0b10, f)  # X itself, reduced (matters only for degree 1)
    if frob_power(m) != x:
        return False
    return all(polygcd(frob_power(m // p) ^ x, f) == 1 for p in prime_factors(m))


@lru_cache(maxsize=None)
def smallest_irreducible(m: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree m."""
    lead = 1 << m
    for low in range(lead):
        if is_irreducible(lead | low):
            return lead | low
    raise AssertionError(f"no irreducible polynomial of degree {m}")  # pragma: no cover


def load_field_table(path: str) -> dict[int, int]:
    """Parse a reduction-polynomial override file.

    Lines have the form ``m=<int> poly=0x<hex>``; blank lines and lines
    starting with '#' are skipped. Any other line raises PermpolyError.
    """
    table: dict[int, int] = {}
    with open(path, encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                fields = dict(part.split("=", 1) for part in line.split())
                table[int(fields["m"])] = int(fields["poly"], 16)
            except (KeyError, ValueError):
                raise PermpolyError(f"{path}:{lineno}: expected 'm=<int> poly=0x<hex>', "
                                    f"got {line!r}") from None
    return table


# ---------------------------------------------------------------------------
# base field
# ---------------------------------------------------------------------------

class _FieldArithmetic:
    """Powers and Frobenius sums, shared by the base field and its extension,
    from a subclass's ONE, add, mul, square and inv."""

    __slots__ = ()

    def pow(self, x, n: int):
        if n < 0:
            return self.pow(self.inv(x), -n)
        out = self.ONE
        base = x
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def frobenius_sum(self, x, terms: int, s: int = 1):
        """x + x^(2^s) + x^(2^(2s)) + ..., `terms` terms."""
        acc = t = x
        for _ in range(terms - 1):
            for _ in range(s):
                t = self.square(t)
            acc = self.add(acc, t)
        return acc


@dataclass(frozen=True, slots=True)
class FieldSpec(_FieldArithmetic):
    """Immutable GF(2^m) context: degree plus reduction polynomial."""

    m: int
    reduction: int | None = None
    q: int = field(init=False, compare=False)
    ONE = 1

    def __post_init__(self):
        if not 1 <= self.m <= MAX_DEGREE:
            raise UnsupportedDegree(f"m={self.m} not in 1..{MAX_DEGREE}")
        reduction = smallest_irreducible(self.m) if self.reduction is None else self.reduction
        if reduction.bit_length() - 1 != self.m:
            raise ReducibleModulus(
                f"reduction polynomial has degree {reduction.bit_length() - 1}, expected {self.m}")
        if not is_irreducible(reduction):
            raise ReducibleModulus(f"0x{reduction:x} is reducible over F_2")
        object.__setattr__(self, "reduction", reduction)
        object.__setattr__(self, "q", 1 << self.m)

    def __repr__(self):
        return f"FieldSpec(m={self.m}, reduction=0x{self.reduction:x})"

    # -- arithmetic ---------------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        return polymod(clmul(x, y), self.reduction)

    def square(self, x: int) -> int:
        return self.mul(x, x)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        return self.pow(x, self.q - 2)

    def trace(self, x: int) -> int:
        acc = self.frobenius_sum(x, self.m)
        if acc > 1:
            raise ArithmeticError(f"trace of {x:#x} is {acc:#x}, not in F_2")
        return acc

    def elements(self) -> range:
        """All field elements in increasing bit-pattern order."""
        return range(self.q)


@lru_cache(maxsize=None)
def make_field(m: int, reduction: int | None = None) -> FieldSpec:
    """The GF(2^m) context, built and tested for irreducibility once per modulus."""
    return FieldSpec(m, reduction)


def element_to_hex(x) -> str:
    if x is INFINITY:
        return "inf"
    return format(x, "x")


# ---------------------------------------------------------------------------
# quadratic extension
# ---------------------------------------------------------------------------

class ExtField(_FieldArithmetic):
    """GF(2^{2m}) as a degree-2 tower over a FieldSpec.

    Elements are (a, b) tuples meaning a + b*u with u^2 = u + nu.
    Membership in the base field is a zero test on b; conjugation
    (the Frobenius z -> z^q) sends u to u + 1.
    """

    ZERO = (0, 0)
    ONE = (1, 0)

    def __init__(self, base: FieldSpec):
        self.base = base
        # the least element of trace 1 is the least basis bit of trace 1: every
        # smaller element is a sum of lower bits, each of trace 0
        self.nu = next(1 << i for i in range(base.m) if base.trace(1 << i) == 1)

    def add(self, z1, z2):
        return (z1[0] ^ z2[0], z1[1] ^ z2[1])

    def mul(self, z1, z2):
        a1, b1 = z1
        a2, b2 = z2
        f = self.base
        p = f.mul(a1, a2)
        r = f.mul(b1, b2)
        s = f.mul(a1 ^ b1, a2 ^ b2)
        return (p ^ f.mul(self.nu, r), s ^ p)

    def square(self, z):
        a, b = z
        f = self.base
        bb = f.square(b)
        return (f.square(a) ^ f.mul(self.nu, bb), bb)

    def conj(self, z):
        """z -> z^q; fixes the base field, sends u to u + 1."""
        a, b = z
        return (a ^ b, b)

    def norm(self, z) -> int:
        """z * conj(z), returned as a base-field element."""
        prod = self.mul(z, self.conj(z))
        if prod[1]:
            raise ArithmeticError(f"norm of {z} is {prod}, not in the base field")
        return prod[0]

    def inv(self, z):
        if z == self.ZERO:
            raise ZeroDivisionError("inverse of 0 in GF(2^{2m})")
        n_inv = self.base.inv(self.norm(z))
        c = self.conj(z)
        return (self.base.mul(c[0], n_inv), self.base.mul(c[1], n_inv))

    def trace_abs(self, z) -> int:
        """Absolute trace GF(2^{2m}) -> F_2."""
        acc = self.frobenius_sum(z, 2 * self.base.m)
        if acc not in (self.ZERO, self.ONE):
            raise ArithmeticError(f"absolute trace of {z} is {acc}, not in F_2")
        return acc[0]

    def elements(self):
        for b in self.base.elements():
            for a in self.base.elements():
                yield (a, b)

    @cached_property
    def _solve_weights(self) -> list:
        """Weight i is delta^(2^(i+1)) + ... + delta^(2^(n-1)) for delta = nu*u, of absolute
        trace Tr(nu) = 1: the whole sum (the trace, 1) less its first i + 1 terms."""
        delta = (0, self.nu)
        return [self.add(self.ONE, self.frobenius_sum(delta, i + 1))
                for i in range(2 * self.base.m)]

    def solve_quadratic(self, c):
        """Return s with s^2 + s = c, assuming trace_abs(c) = 0.

        Uses the standard linear construction from an element of trace 1;
        the other root is s + 1.
        """
        s = self.ZERO
        t = c
        for w in self._solve_weights:
            s = self.add(s, self.mul(w, t))
            t = self.square(t)
        if self.add(self.square(s), s) != c:
            raise ArithmeticError(f"s^2 + s = {c} has no root: {c} has absolute trace 1")
        return s


@lru_cache(maxsize=None)
def extension_of(spec: FieldSpec) -> ExtField:
    return ExtField(spec)


def build_b_set(spec: FieldSpec, e: int) -> set:
    """The sets B_0 = (GF(q) \\ {1}) + infinity and B_1 = norm-1 circle minus {1}.

    B_0 members are embedded base-field elements (x, 0); both sets have
    exactly q elements.
    """
    ext = extension_of(spec)
    if e == 0:
        out = {(x, 0) for x in spec.elements() if x != 1}
        out.add(INFINITY)
        return out
    if e == 1:
        return {z for z in ext.elements()
                if z not in (ExtField.ZERO, ExtField.ONE) and ext.norm(z) == 1}
    raise ValueError(f"e must be 0 or 1, got {e}")


def coprime_ks(m: int) -> list[int]:
    """All k in 1..m-1 with gcd(k, m) = 1."""
    return [k for k in range(1, m) if gcd(k, m) == 1]
