"""Precomputed lookup tables backing the exhaustive sweeps.

Per-element work is numpy table lookups, built from the scalar arithmetic in `field`
and the exponent sets in `sparsepoly`; nothing here is built from the evaluators in
`maps`, which stay an independent oracle for these tables.

`FieldTables`, for GF(2^m), and `ExtTables`, the packed GF(2^2m) that only `zsumexp`
and the benchmark sweep, share one base, `_LogTables`: the one place where exp, log,
squaring and the cache of linear maps are built. Every F_2-linear map is a `LinearMap`,
two half tables from its images on the basis bits, so exp and log are the only arrays
of 2^nbits entries: 2^(nbits+3) bytes, 2 MiB at m = 18 and 128 MiB at nbits = 24, where
whole squaring and trace tables doubled that; both are built in _CHUNK_ELEMENTS pieces,
with no whole-field temporary. A whole table of a map is a span of it.

The other extension-field checks read GF(q^2) only through its circle B_1 = {z : z^(q+1)
= 1}, cyclic of order q + 1, as the GF(q) values c[i] = z^i + z^-i = D_i(c[1]) of a
generator z, with the index i standing for z^i: `FieldTables.circle` builds them from the
base field alone. No value stands for the point at infinity in any table.

Every table is int32 (no element or log reaches 2^24), signed so that a corrupted -1
reads as outside the field. Only this module knows that log[0] is a sentinel: `pow_vec`
and `quotient_vec` give 0 where u is 0. `checks._zsum_chunk` alone stays in the log
domain, on purpose: on the hot path of the largest sweep it reuses each log up to k + 4
times. A product of a log by 2^j mod n = 2^nbits - 1 is a bit rotation (`_rotl`), and by
2^k + 1 a rotation plus the log, each sum folded by `_fold`, all in int32; `pow_vec`, for
any other exponent, widens a product to int64 where it could pass 2^31.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import OutOfRange
from .field import FieldSpec, extension_of, make_field, prime_factors
from .params import ParamSet
from .sparsepoly import f_alpha_poly, g_beta_poly, sp_reduce_mod_field, trace_poly

#: largest m for which GF(2^2m) tables are built (so the largest cap of zsumexp, the one
#: check that sweeps them); at m = 12 exp and log take 128 MB
EXT_MAX_DEGREE = 12

#: elements per chunk: the x of one chunk of main_theorem, fgprop and hprop, or the logs
#: of z of one chunk of zsumexp, with workers x this many in flight, each with a few dozen
#: chunk-sized temporaries; the widest grid of one block of n in nobauer and dickson_methods;
#: one piece of an exp or log build. So memory beyond the tables grows with neither the
#: field nor the number of n. A field of at most this many elements (m <= 15) is one chunk,
#: swept inline. The size is fixed, not derived from the machine, and the first
#: counterexample of a sweep depends on neither it nor the worker count: `_sweep_chunks`
#: folds each comparison over all chunks before the next.
_CHUNK_ELEMENTS = 1 << 15


def _subset_xor_table(images: list[int]) -> np.ndarray:
    """Tabulate an F_2-linear map from its images on the basis bits."""
    table = np.zeros(1 << len(images), dtype=np.int32)
    for j, img in enumerate(images):
        size = 1 << j
        table[size:2 * size] = table[:size] ^ img
    return table


class LinearMap:
    """An F_2-linear map on nbits-bit patterns, from its images on the basis bits, as two
    subset-XOR half tables: `lo` over the low ceil(nbits/2) bits, `hi` over the others,
    so that its value at x is lo[x & mask] ^ hi[x >> shift]. Each half has at most
    2^ceil(nbits/2) entries; whole tables are spans of it."""

    def __init__(self, images: list[int]):
        self.shift = (len(images) + 1) // 2
        self.mask = (1 << self.shift) - 1
        self.lo = _subset_xor_table(images[:self.shift])
        self.hi = _subset_xor_table(images[self.shift:])

    def __call__(self, x):
        """The map at each x in 0..2^nbits - 1, by two wrap-mode takes (they release the
        GIL), whose indices lie in range there."""
        return (self.lo.take(x & self.mask, mode="wrap")
                ^ self.hi.take(x >> self.shift, mode="wrap"))

    def span(self, a: int, b: int) -> np.ndarray:
        """The map at x = a..b-1, index x - a: the rows hi[j] ^ lo for every high part j
        that the range meets, one broadcast XOR with no gather, sliced to the range."""
        first = a >> self.shift
        rows = self.hi[first:((b - 1) >> self.shift) + 1, None] ^ self.lo
        return rows.ravel()[a - (first << self.shift):b - (first << self.shift)]


def _linearized_images(square, nbits: int, poly: frozenset) -> list[int]:
    """The images of the basis bits 1 << i under sum(x^e for e in poly), over
    GF(2^nbits) with squaring `square` on arrays of elements.

    Every exponent must be a power of 2, so the map is F_2-linear: x^(2^j)
    of the basis element 1 << i is squared j times, with j taken mod the
    degree since the Frobenius map has that order.
    """
    orbit = [1 << np.arange(nbits, dtype=np.int64)]
    for _ in range(nbits - 1):
        orbit.append(square(orbit[-1]))
    images = np.zeros(nbits, dtype=np.int64)
    for e in poly:
        if e < 1 or e & (e - 1):
            raise ValueError(f"exponent {e} is not a power of 2")
        images ^= orbit[(e.bit_length() - 1) % nbits]
    return images.tolist()


def _exp_by_doubling(nbits: int, mul, gen: int) -> np.ndarray:
    """gen^i for 0 <= i < 2^nbits - 1 in nbits doubling steps, under `mul`: nbits numpy
    passes, not a Python loop over the powers.

    Each step sets exp[size:2*size] = gen^size * exp[:size] in _CHUNK_ELEMENTS pieces,
    the F_2-linear product by a constant as a `LinearMap`. Raises ArithmeticError
    unless each nonzero element occurs exactly once.
    """
    n = (1 << nbits) - 1
    exp = np.empty(n, dtype=np.int32)
    exp[0] = 1
    size, step = 1, gen
    while size < n:
        times_step = LinearMap([mul(step, 1 << j) for j in range(nbits)])
        count = min(size, n - size)
        for a in range(0, count, _CHUNK_ELEMENTS):
            src = exp[a:min(a + _CHUNK_ELEMENTS, count)]
            exp[size + a:size + a + src.size] = times_step(src)
        size, step = size + count, mul(step, step)
    # n powers that meet all n nonzero elements meet each once; a bool mask,
    # unlike a bincount, makes no 8-byte copy or count per element
    seen = np.zeros(n + 1, dtype=bool)
    for a in range(0, n, _CHUNK_ELEMENTS):
        seen[exp[a:a + _CHUNK_ELEMENTS]] = True
    if seen[0] or not seen[1:].all():
        raise ArithmeticError(f"{gen:#x} is not primitive in GF(2^{nbits})")
    return exp


def _rotl(a, j: int, nbits: int):
    """a * 2^j mod 2^nbits - 1 for a in 0..2^nbits - 2: the nbits-bit pattern
    of a rotated left by j. Masked before the shift, so it stays below 2^nbits
    and an int32 a holds up to nbits = 31; shifted and merged in place, so that
    it holds one temporary beside the result."""
    j %= nbits
    rot = a & ((1 << (nbits - j)) - 1)
    rot <<= j
    rot |= a >> (nbits - j)
    return rot


def _fold(s, nbits: int):
    """s mod n = 2^nbits - 1 for s in 0..4n - 1, in place: the carry out of the low
    nbits bits added back, (s & n) + (s >> nbits), a value in 0..n + 3 (0..n for
    s <= 2n) that a wrap-mode take of an n-entry table reads as s mod n."""
    carry = s >> nbits
    s &= (1 << nbits) - 1
    s += carry
    return s


def _quotient_logs(log: np.ndarray, u, v, k: int | None, j: int, nbits: int) -> np.ndarray:
    """(2^k + 1) * log u - 2^j * log v mod n = 2^nbits - 1 (log u for k None), as an
    int32 index in 0..n + 3 for a wrap-mode take of an n-entry exp table: the logs of
    u gathered from `log`, those of v gathered too, or sliced for a slice v.

    All int32, with no division: (2^k + 1) * l is a rotation of l plus l, below 2n - 1,
    and 2^j * l a rotation, negated as its complement n - l; on logs in 0..n-1 their
    sum lies below 3n, so in int32 while nbits <= 29, and one `_fold` brings it
    below n + 3. Each temporary is dropped after its last use."""
    n = (1 << nbits) - 1
    logs = log.take(u)
    if k is not None:
        logs += _rotl(logs, k, nbits)
    lv = _rotl(log[v] if isinstance(v, slice) else log.take(v), j, nbits)
    lv ^= n
    logs += lv
    del lv
    return _fold(logs, nbits)


class _LogTables:
    """Antilog and log tables `exp`, `log` (log[0] a sentinel) of GF(2^nbits), with n
    nonzero elements, from its product `mul` and powers `pow_` on bit patterns; `exp`
    from the first primitive element >= start, `log` filled in _CHUNK_ELEMENTS pieces.
    Squaring `sq` is a `LinearMap` from `mul` on the basis bits, and every other
    linearized map is built through it by `linear_map`."""

    def __init__(self, nbits: int, mul, pow_, start: int):
        self.nbits = nbits
        n = self.n = (1 << nbits) - 1
        primes = prime_factors(n)
        gen = next(c for c in range(start, n + 1)
                   if all(pow_(c, n // p) != 1 for p in primes))
        self.exp = _exp_by_doubling(nbits, mul, gen)
        self.log = np.zeros(n + 1, dtype=np.int32)
        for a in range(0, n, _CHUNK_ELEMENTS):
            part = self.exp[a:a + _CHUNK_ELEMENTS]
            self.log[part] = np.arange(a, a + part.size, dtype=np.int32)
        self._maps: dict[frozenset, LinearMap] = {}
        self.sq = LinearMap([mul(1 << j, 1 << j) for j in range(nbits)])

    def linear_map(self, poly: frozenset) -> LinearMap:
        """sum(x^e for e in poly) as a `LinearMap`, its basis images squared through `sq`;
        every exponent a power of 2. Built once per exponent set and then shared, since
        the chunk bodies of main_theorem and hprop ask for f_alpha in every chunk; so a
        change to `sq` reaches only the maps built after it."""
        # sweep threads may both miss and build the same map; the later store wins,
        # with the same values, so no lock is needed
        if (mp := self._maps.get(poly)) is None:
            mp = self._maps[poly] = LinearMap(_linearized_images(self.sq, self.nbits, poly))
        return mp

    def pow_vec(self, *factors) -> np.ndarray:
        """The elementwise product of u^e over the (u, e) factors: 0 wherever
        a u with e > 0 is 0. Elsewhere each u with e < 0 must be nonzero, and
        u^0 is 1 also at u = 0. An exponent may be an array, with that rule
        per element (a column of exponents gives one row per exponent); each
        later factor broadcasts to the shape of the first.

        The first factor's logs are multiplied into one int64 buffer, since such
        products pass 2^31 from about m = 16; the others are added to it, and it
        is reduced mod n in place. A later factor with one exponent whose products
        fit in int32, |e| * (n - 1) < 2^31, is multiplied in place on its own log
        gather. Each gather is a raise-mode `take`: the values of a fancy index,
        and its IndexError out of range, at a fraction of its cost on int32 indices."""
        (u, e), *rest = factors
        logs = np.multiply(self.log.take(u), e, dtype=np.int64)
        for v, f in rest:
            lv = self.log.take(v)
            if not isinstance(f, np.ndarray) and abs(int(f)) * (self.n - 1) < 1 << 31:
                lv *= f
                logs += lv
            else:
                logs += np.multiply(lv, f, dtype=np.int64)
            # freed here and below, so that at most the buffer and one int32
            # array are held at once
            del lv
        np.remainder(logs, self.n, out=logs)
        out = self.exp.take(logs)
        del logs
        for u, e in factors:
            if isinstance(e, np.ndarray):
                np.copyto(out, 0, where=(u == 0) & (e > 0))
            elif e > 0:
                np.copyto(out, 0, where=u == 0)
        return out


class FieldTables(_LogTables):
    """The `_LogTables` of one GF(2^m), m >= 2, and the trace `tr` as a `LinearMap`."""

    def __init__(self, spec: FieldSpec):
        if spec.m < 2:
            raise ValueError("tables need m >= 2")
        self.spec = spec
        self.q = spec.q
        super().__init__(spec.m, spec.mul, spec.pow, 2)
        self.tr = self.linear_map(trace_poly(spec.m))

    def quotient_vec(self, u: np.ndarray, v, k: int | None = None, j: int = 0) -> np.ndarray:
        """u^(2^k + 1) / v^(2^j) elementwise (u / v^(2^j) for k None): 0 wherever u is
        0, and v must be nonzero elsewhere. v is an array, or a slice of x = lo..hi-1,
        whose logs are the slice log[lo:hi] of the table, with no gather. One wrap-mode
        take of exp at the index of `_quotient_logs`, so every `log` entry must lie in
        0..n-1: a caller checks that first."""
        out = self.exp.take(_quotient_logs(self.log, u, v, k, j, self.spec.m), mode="wrap")
        np.copyto(out, 0, where=u == 0)
        return out

    def frobenius_table(self, k: int) -> np.ndarray:
        """x -> x^(2^k) as a full table."""
        return self.linear_map(frozenset({1 << k})).span(0, self.q)

    def poly_table(self, poly: frozenset) -> np.ndarray:
        """The function that the exponent set `poly` induces on GF(q), as a table;
        x^0 is 1 also at x = 0."""
        xs = np.arange(self.q, dtype=np.int64)
        out = np.zeros(self.q, dtype=np.int32)
        for e in sp_reduce_mod_field(poly, self.spec.m):
            out ^= self.pow_vec((xs, e))
        return out

    def circle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """GF(q) tables for x = z + 1/z: c[i] = z^i + z^-i (i = 0..q) for a z of order q + 1
        on B_1, idx[x] the i <= q/2 with c[i] = x, z0[x] a z in GF(q)* with z + 1/z = x (else
        0); ArithmeticError if exp leaves GF(q), no z is found or the halves do not split GF(q).
        They must split it: z + 1/z lies in GF(q) iff z^(q-1) = 1 or z^(q+1) = 1, so each x
        is z + 1/z for a z on exactly one of the two halves. Built once per object."""
        return self._circle

    @cached_property
    def _circle(self) -> tuple:
        q = self.q
        if (bad := np.flatnonzero((self.exp < 0) | (self.exp >= q))).size:
            raise ArithmeticError(f"exp[{bad[0]:x}] = {self.exp[bad[0]]:x} lies outside GF(q)")
        z = np.arange(1, q, dtype=np.int64)
        inv = self.pow_vec((z, -1))
        # z + 1/z = x has z on B_1 iff Tr(1/x) = 1; c[1] is the first such x (of q/2, met
        # lazily) whose z has order q + 1, that is c[(q+1)/p] != 0 for each prime p | q + 1
        for j in np.flatnonzero(self.tr(inv) == 1):
            c, s = np.array([0, z[j]], dtype=np.int32), 1
            while s <= q // 2:  # c[s + i] = c[s] c[i] + c[s - i] for i = 1..s
                c, s = np.append(c, self.pow_vec((c[1:], 1), (c[s], 1)) ^ c[s - 1::-1]), 2 * s
            if all(c[(q + 1) // p] for p in prime_factors(q + 1)):
                break
        else:
            raise ArithmeticError("no x with Tr(1/x) = 1 has a z of order q + 1")
        half = c[1:q // 2 + 1]
        idx, z0 = np.zeros(q, dtype=np.int32), np.zeros(q, dtype=np.int32)
        idx[half], z0[z ^ inv] = np.arange(1, half.size + 1), z
        if not (np.bincount(half, minlength=q) + (z0 > 0) == 1).all():
            raise ArithmeticError("c[1..q/2] and z + 1/z on GF(q)* do not split GF(q)")
        return c, idx, z0

    def dickson_vec(self, n, x: np.ndarray) -> np.ndarray:
        """D_n(x, 1) elementwise, n an int or an int array, as z^n + z^-n for
        z + 1/z = x: c[n*i mod (q+1)] on the circle, powers for z in GF(q)*."""
        c, idx, z0 = self.circle()
        # i widened first: n mod (q+1) times i passes 2^31 once q >= 2^16
        i, z = idx[x].astype(np.int64), z0[x]
        return np.where(i > 0, c[n % (self.q + 1) * i % (self.q + 1)],
                        self.pow_vec((z, n)) ^ self.pow_vec((z, -n)))


@lru_cache(maxsize=None)
def field_tables(m: int) -> FieldTables:
    return FieldTables(make_field(m))


def f_alpha_map(ft: FieldTables, p: ParamSet) -> LinearMap:
    return ft.linear_map(f_alpha_poly(p))


def g_beta_map(ft: FieldTables, p: ParamSet) -> LinearMap:
    return ft.linear_map(g_beta_poly(p))


def f_alpha_table(ft: FieldTables, p: ParamSet, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """f_alpha at x = lo..hi-1, by default the whole field; index x - lo."""
    return f_alpha_map(ft, p).span(lo, ft.q if hi is None else hi)


def g_beta_table(ft: FieldTables, p: ParamSet) -> np.ndarray:
    return g_beta_map(ft, p).span(0, ft.q)


def h_value_table(ft: FieldTables, p: ParamSet, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """H at x = lo..hi-1, by default the whole field; index x - lo, so over the
    whole field the element bit pattern. 0 at x = 0, where f_alpha is 0. Its peak
    allocation is exp's take, whose int32 index numpy copies to intp: 20 MiB over
    the whole field at m = 20, for a 4 MiB result."""
    hi = ft.q if hi is None else hi
    h = ft.quotient_vec(f_alpha_table(ft, p, lo, hi), slice(lo, hi), p.k, 1)
    if p.gamma:
        h ^= ft.tr.span(lo, hi)
    return h


class ExtTables(_LogTables):
    """The `_LogTables` of GF(q^2), packed as a | (b << m), that zsumexp sweeps: each
    `LinearMap`, squaring `sq` and g0 included, has two q-entry halves. `zmap` and
    `b1_packed` serve the benchmark, which times them."""

    def __init__(self, m: int):
        if not 2 <= m <= EXT_MAX_DEGREE:
            raise OutOfRange(f"extension tables need 2 <= m <= {EXT_MAX_DEGREE}, got m={m}")
        self.m = m
        self.q = 1 << m
        self.Q = self.q * self.q
        ext = self.ext = extension_of(make_field(m))
        self.unpack = unpack = lambda z: (z & (self.q - 1), z >> m)
        self.pack = pack = lambda t: t[0] | (t[1] << m)
        # every element below q lies in GF(q)*, whose order divides q - 1,
        # so no primitive element of GF(q^2) is skipped by starting at q
        super().__init__(2 * m, lambda a, b: pack(ext.mul(unpack(a), unpack(b))),
                         lambda c, e: pack(ext.pow(unpack(c), e)), self.q)

    def g0_table(self, k: int) -> LinearMap:
        """The k-term linearized map g0 = z + z^2 + ... + z^(2^(k-1)) as a `LinearMap` of
        two 2^m-entry halves, g0(u) = lo[u & (q-1)] ^ hi[u >> m], built once per k."""
        return self.linear_map(trace_poly(k))

    def b1_packed(self) -> np.ndarray:
        """B_1 as theta^i for i = 1..q, theta = g^(q-1); checked against the norm-1 form."""
        members = self.exp[((self.q - 1) * np.arange(1, self.q + 1)) % self.n]
        if np.unique(members).size != self.q or (members == 1).any():
            raise ArithmeticError(f"B_1 powers are not q = {self.q} elements other than 1")
        if not (self.pow_vec((members, self.q + 1)) == 1).all():
            raise ArithmeticError("a B_1 power has norm other than 1")
        return members

    def zmap(self) -> np.ndarray:
        """For each base-field x, one packed z with z + 1/z = x: theta^idx[x] on the
        base field's circle, theta a root of z^2 + c[1] z + 1, else z0[x]."""
        c, idx, z0 = field_tables(self.m).circle()
        c1 = int(c[1])  # theta = c1 s with s^2 + s = 1/c1^2, of absolute trace 0
        theta = self.ext.mul((c1, 0), self.ext.solve_quadratic((self.ext.base.pow(c1, -2), 0)))
        return np.where(idx > 0, self.pow_vec((self.pack(theta), idx)), z0)


@lru_cache(maxsize=None)
def ext_tables(m: int) -> ExtTables:
    return ExtTables(m)
