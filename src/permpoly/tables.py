"""Precomputed lookup tables backing the exhaustive sweeps.

The checkers sweep whole fields (GF(2^m) and GF(2^2m) for m up to
EXT_MAX_DEGREE), so per-element work has to be table lookups on numpy arrays.
Everything here is derived from the reference arithmetic in `field` and the
exponent sets in `sparsepoly`: the squaring table is tabulated from the
field's scalar `square`, every linearized polynomial (the trace, T_k, f_alpha,
g_beta, the Frobenius powers) from the squaring table's images of the
polynomial basis, and products of powers go through discrete log/antilog
tables built from a primitive element (`_LogTables.pow_vec`). The scalar
evaluators in `maps` are left as an independent oracle for these tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import OutOfRange
from .field import FieldSpec, extension_of, make_field
from .params import ParamSet
from .sparsepoly import f_alpha_poly, g_beta_poly, sp_reduce_mod_field, trace_poly

#: packed-integer stand-in for the point at infinity
PINF = -1

#: largest m for which GF(2^2m) tables are built; at m = 12 the exp, log and
#: squaring tables alone take about 0.4 GB
EXT_MAX_DEGREE = 12


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _subset_xor_table(images: list[int]) -> np.ndarray:
    """Tabulate an F_2-linear map from its images on the basis bits."""
    table = np.zeros(1 << len(images), dtype=np.int64)
    for j, img in enumerate(images):
        size = 1 << j
        table[size:2 * size] = table[:size] ^ img
    return table


def _linearized_table(sq: np.ndarray, poly: frozenset) -> np.ndarray:
    """Tabulate sum(x^e for e in poly) over the field with squaring table `sq`.

    Every exponent must be a power of 2, so the map is F_2-linear: x^(2^j)
    of the basis element 1 << i is read off the squaring table, with j taken
    mod the degree since the Frobenius map has that order.
    """
    nbits = len(sq).bit_length() - 1
    orbit = [1 << np.arange(nbits, dtype=np.int64)]
    for _ in range(nbits - 1):
        orbit.append(sq[orbit[-1]])
    images = np.zeros(nbits, dtype=np.int64)
    for e in poly:
        if e < 1 or e & (e - 1):
            raise ValueError(f"exponent {e} is not a power of 2")
        images ^= orbit[(e.bit_length() - 1) % nbits]
    return _subset_xor_table(images.tolist())


def _exp_by_doubling(nbits: int, mul, gen: int) -> np.ndarray:
    """gen^i for 0 <= i < 2^nbits - 1 in nbits doubling steps, under `mul`.

    Each step sets exp[size:2*size] = gen^size * exp[:size], the F_2-linear
    product by a constant tabulated on the low and high halves of the bits.
    Raises ArithmeticError unless each nonzero element occurs exactly once.
    """
    n = (1 << nbits) - 1
    half = nbits // 2
    exp = np.empty(n, dtype=np.int64)
    exp[0] = 1
    size, step = 1, gen
    while size < n:
        images = [mul(step, 1 << j) for j in range(nbits)]
        lo, hi = _subset_xor_table(images[:half]), _subset_xor_table(images[half:])
        src = exp[:min(size, n - size)]
        exp[size:size + src.size] = lo[src & ((1 << half) - 1)] ^ hi[src >> half]
        size, step = size + src.size, mul(step, step)
    counts = np.bincount(exp, minlength=n + 1)
    if counts[0] or not (counts[1:] == 1).all():
        raise ArithmeticError(f"{gen:#x} is not primitive in GF(2^{nbits})")
    return exp


class _LogTables:
    """Antilog, log (log[0] a sentinel) and squaring tables `exp`, `log`, `sq` of
    GF(2^nbits), with n nonzero elements, from its product `mul`, powers `pow_` and
    squaring `square` on bit patterns; `exp` from the first primitive element >= start."""

    def __init__(self, nbits: int, mul, pow_, square, start: int):
        n = self.n = (1 << nbits) - 1
        primes = _prime_factors(n)
        gen = next(c for c in range(start, n + 1)
                   if all(pow_(c, n // p) != 1 for p in primes))
        self.exp = _exp_by_doubling(nbits, mul, gen)
        self.log = np.zeros(n + 1, dtype=np.int64)
        self.log[self.exp] = np.arange(n, dtype=np.int64)
        self.sq = _subset_xor_table([square(1 << j) for j in range(nbits)])

    def pow_vec(self, *factors) -> np.ndarray:
        """The elementwise product of u^e over the (u, e) factors: 0 wherever
        a u with e > 0 is 0. Elsewhere each u with e < 0 must be nonzero, and
        u^0 is 1 also at u = 0."""
        (u, e), *rest = factors
        logs = e * self.log[u]
        for v, f in rest:
            logs += f * self.log[v]
        out = self.exp[logs % self.n]
        for u, e in factors:
            if e > 0:
                out[u == 0] = 0
        return out


class FieldTables(_LogTables):
    """log/exp/trace tables for one GF(2^m), m >= 2."""

    def __init__(self, spec: FieldSpec):
        if spec.m < 2:
            raise ValueError("tables need m >= 2")
        self.spec = spec
        self.q = spec.q
        super().__init__(spec.m, spec.mul, spec.pow, spec.square, 2)
        self.tr = _linearized_table(self.sq, trace_poly(spec.m))

    def frobenius_table(self, k: int) -> np.ndarray:
        """x -> x^(2^k) as a full table."""
        return _linearized_table(self.sq, frozenset({1 << k}))

    def poly_table(self, poly: frozenset) -> np.ndarray:
        """The function that the exponent set `poly` induces on GF(q), as a table;
        x^0 is 1 also at x = 0."""
        xs = np.arange(self.q, dtype=np.int64)
        out = np.zeros(self.q, dtype=np.int64)
        for e in sp_reduce_mod_field(poly, self.spec.m):
            out ^= self.pow_vec((xs, e))
        return out


@lru_cache(maxsize=None)
def field_tables(m: int) -> FieldTables:
    return FieldTables(make_field(m))


def f_alpha_table(ft: FieldTables, p: ParamSet) -> np.ndarray:
    return _linearized_table(ft.sq, f_alpha_poly(p))


def g_beta_table(ft: FieldTables, p: ParamSet) -> np.ndarray:
    return _linearized_table(ft.sq, g_beta_poly(p))


def h_value_table(ft: FieldTables, p: ParamSet) -> np.ndarray:
    """H values over the whole field, index = element bit pattern; 0 at x = 0,
    where f_alpha is 0."""
    fa = f_alpha_table(ft, p)
    h = ft.pow_vec((fa, p.sigma + 1), (np.arange(ft.q, dtype=np.int64), -2))
    if p.gamma:
        h ^= ft.tr
    return h


class ExtTables(_LogTables):
    """Packed log/exp tables for GF(q^2), elements encoded as a | (b << m)."""

    def __init__(self, m: int):
        if not 2 <= m <= EXT_MAX_DEGREE:
            raise OutOfRange(f"extension tables need 2 <= m <= {EXT_MAX_DEGREE}, got m={m}")
        self.m = m
        self.q = 1 << m
        self.Q = self.q * self.q
        self.spec = make_field(m)
        ext = self.ext = extension_of(self.spec)
        self.base = field_tables(m)
        self.unpack = unpack = lambda z: (z & (self.q - 1), z >> m)
        self.pack = pack = lambda t: t[0] | (t[1] << m)
        # every element below q lies in GF(q)*, whose order divides q - 1,
        # so no primitive element of GF(q^2) is skipped by starting at q
        super().__init__(2 * m, lambda a, b: pack(ext.mul(unpack(a), unpack(b))),
                         lambda c, e: pack(ext.pow(unpack(c), e)),
                         lambda a: pack(ext.square(unpack(a))), self.q)
        self._zmap = None

    # -- projective maps on packed arrays (PINF = infinity) -----------------

    def phi_vec(self, z: np.ndarray) -> np.ndarray:
        """1/(z + 1/z) elementwise; PINF and 0 map to 0, 1 to PINF."""
        out = np.zeros(z.shape, dtype=np.int64)
        sel = z > 1
        y = z[sel] ^ self.pow_vec((z[sel], -1))
        out[sel] = self.pow_vec((y, -1))
        out[z == 1] = PINF
        return out

    def w_vec(self, sigma: int, e: int, z: np.ndarray) -> np.ndarray:
        """z^(sigma - 1) for e = 0, z^(sigma + 1) for e = 1; fixes 0 and PINF."""
        out = self.pow_vec((z, sigma - 1 if e == 0 else sigma + 1))  # 0 at 0, as sigma > 1
        out[z == PINF] = PINF
        return out

    # -- derived tables ------------------------------------------------------

    def g0_table(self, k: int) -> np.ndarray:
        """The k-term linearized map z + z^2 + ... + z^(2^(k-1)), tabulated."""
        return _linearized_table(self.sq, trace_poly(k))

    def b0_packed(self) -> np.ndarray:
        """B_0 = GF(q) minus {1}, plus PINF."""
        return np.concatenate(([0], np.arange(2, self.q), [PINF])).astype(np.int64)

    def b1_packed(self) -> np.ndarray:
        """B_1 as powers theta^((q-1)i), checked against the norm-1 form."""
        members = self.exp[((self.q - 1) * np.arange(1, self.q + 1)) % self.n]
        if np.unique(members).size != self.q or (members == 1).any():
            raise ArithmeticError(f"B_1 powers are not q = {self.q} elements other than 1")
        if not (self.pow_vec((members, self.q + 1)) == 1).all():
            raise ArithmeticError("a B_1 power has norm other than 1")
        return members

    def zmap(self) -> np.ndarray:
        """For each base-field x, one packed z with z + 1/z = x. Such z lie in
        GF(q)* or B_1, since z + 1/z is in GF(q) iff z^(q-1) = 1 or z^(q+1) = 1."""
        if self._zmap is None:
            z = np.concatenate((np.arange(1, self.q, dtype=np.int64), self.b1_packed()))
            y = z ^ self.pow_vec((z, -1))
            if ((y < 0) | (y >= self.q)).any():
                raise ArithmeticError("some z in GF(q)* or B_1 has z + 1/z outside GF(q)")
            zm = np.zeros(self.q, dtype=np.int64)
            zm[y] = z
            if not (zm > 0).all():
                raise ArithmeticError("some base-field x has no z with z + 1/z = x")
            self._zmap = zm
        return self._zmap

    def dickson_vec(self, n: int, x: np.ndarray) -> np.ndarray:
        """D_n(x, 1) elementwise over base-field x, as z^n + z^-n for z + 1/z = x."""
        z = self.zmap()[x]
        return self.pow_vec((z, n)) ^ self.pow_vec((z, -n))


@lru_cache(maxsize=None)
def ext_tables(m: int) -> ExtTables:
    return ExtTables(m)
