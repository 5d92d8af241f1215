import random

import numpy as np
import pytest

from permpoly import (INFINITY, ExtField, ReducibleModulus, UnsupportedDegree,
                      build_b_set, extension_of, element_to_hex,
                      load_field_table, make_field, smallest_irreducible)
from permpoly.field import FieldSpec, is_irreducible
from permpoly.tables import field_tables


def test_make_field_defaults():
    f2 = make_field(2)
    assert f2.reduction == 0b111  # the only irreducible quadratic
    assert f2.q == 4
    assert make_field(3, 0b1011).reduction == 0b1011


def test_make_field_rejects_reducible():
    with pytest.raises(ReducibleModulus):
        make_field(4, 0b10101)  # X^4+X^2+1 = (X^2+X+1)^2
    with pytest.raises(ReducibleModulus):
        make_field(3, 0b1111)  # degree-3 with root 1


def test_make_field_degree_range():
    with pytest.raises(UnsupportedDegree):
        make_field(0)
    with pytest.raises(UnsupportedDegree):
        make_field(25)
    assert make_field(1).q == 2


def test_smallest_irreducible_table():
    for m in range(1, 13):
        poly = smallest_irreducible(m)
        assert poly.bit_length() - 1 == m
        assert is_irreducible(poly)
        # nothing smaller of the same degree is irreducible
        assert not any(is_irreducible((1 << m) | low)
                       for low in range(poly & ((1 << m) - 1)))


@pytest.fixture(scope="module")
def gf2():
    """sympy's dense GF(p)[X] arithmetic over p = 2: an oracle that shares no
    code with field.py. Polynomials are coefficient lists, highest first."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

    def to_list(x):
        return [int(c) for c in format(x, "b")] if x else []

    def to_int(coeffs):
        return int("".join(map(str, coeffs)) or "0", 2)

    return {"irreducible": lambda f: gf_irreducible_p(to_list(f), 2, ZZ),
            "mulmod": lambda a, b, f: to_int(gf_rem(gf_mul(to_list(a), to_list(b), 2, ZZ),
                                                    to_list(f), 2, ZZ))}


def test_irreducibility_matches_sympy(gf2):
    for f in range(2, 1 << 11):  # every polynomial of degree 1..10
        assert is_irreducible(f) == gf2["irreducible"](f), hex(f)


def test_smallest_irreducible_matches_sympy(gf2):
    for m in range(1, 25):
        first = next(f for f in range(1 << m, 2 << m) if gf2["irreducible"](f))
        assert smallest_irreducible(m) == first, m


def test_mul_matches_sympy(gf2):
    rng = random.Random(2404)
    for m in range(2, 25):
        f = make_field(m)
        for _ in range(64):
            a, b = rng.randrange(f.q), rng.randrange(f.q)
            assert f.mul(a, b) == gf2["mulmod"](a, b, f.reduction), (m, a, b)


def test_gf4_defining_relation():
    f = make_field(2)
    omega = 0b10
    assert f.mul(omega, omega) == omega ^ 1  # w^2 = w + 1


def test_gf8_inverse_example():
    f = make_field(3, 0b1011)
    assert f.inv(0b010) == 0b101  # X * (X^2+1) = X^3+X = 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_multiplicative_group_order():
    for m in (2, 3, 5):
        f = make_field(m)
        assert all(f.pow(x, f.q - 1) == 1 for x in range(1, f.q))
        assert f.pow(0, 0) == 1


def test_field_axioms_exhaustive_small():
    for m in (2, 3, 4, 5):
        f = make_field(m)
        for x in f.elements():
            assert f.square(x) == f.mul(x, x)
            if x:
                assert f.mul(x, f.inv(x)) == 1
            for y in f.elements():
                assert f.mul(x, y) == f.mul(y, x)
                assert f.add(x, x) == 0


def test_field_axioms_randomized_large():
    rng = random.Random(20240817)
    for m in (17, 24):
        f = make_field(m)
        for _ in range(10_000 if m == 24 else 2_000):
            x = rng.randrange(1, f.q)
            y = rng.randrange(f.q)
            assert f.mul(x, y) == f.mul(y, x)
            assert f.square(x) == f.mul(x, x)
        for _ in range(64):
            x = rng.randrange(1, f.q)
            assert f.mul(x, f.inv(x)) == 1


def test_trace_values():
    assert make_field(4).trace(0) == 0
    for m in range(1, 9):
        assert make_field(m).trace(1) == m % 2
    assert make_field(2).trace(0b10) == 1  # Tr(w) = w + w^2 = 1


def test_trace_linearity_exhaustive():
    for m in range(2, 13):
        ft = field_tables(m)
        xs = np.arange(ft.q, dtype=np.int64)
        tr = ft.tr.span(0, ft.q)
        assert np.array_equal(tr[ft.sq(xs)], tr)
        for x in range(ft.q):
            assert np.array_equal(tr[x ^ xs], tr[x] ^ tr)


def test_trace_kernel_size():
    for m in range(2, 17):
        ft = field_tables(m)
        assert int((ft.tr.span(0, ft.q) == 0).sum()) == 1 << (m - 1)


def test_enumerate_field():
    assert list(make_field(1).elements()) == [0, 1]
    assert list(make_field(2).elements())[0] == 0
    f = make_field(3)
    assert len(list(f.elements())) == 8
    assert sum(1 for x in f.elements() if f.trace(x) == 0) == 4


def test_ext_conj_fixes_base():
    for m in (2, 3, 4):
        ext = extension_of(make_field(m))
        for x in ext.base.elements():
            assert ext.conj((x, 0)) == (x, 0)


def test_ext_norm_of_u_is_nu():
    for m in (2, 3, 5):
        ext = extension_of(make_field(m))
        assert ext.norm((0, 1)) == ext.nu
        assert ext.base.trace(ext.nu) == 1


def test_ext_nu_is_the_least_element_of_trace_one():
    for m in range(2, 15):
        base = make_field(m)
        assert extension_of(base).nu == next(x for x in base.elements() if base.trace(x) == 1), m


def test_ext_conj_involution_and_homomorphism():
    for m in (2, 3):
        ext = extension_of(make_field(m))
        elems = list(ext.elements())
        for z in elems:
            assert ext.conj(ext.conj(z)) == z
        for z1 in elems:
            for z2 in elems:
                assert ext.conj(ext.mul(z1, z2)) == ext.mul(ext.conj(z1), ext.conj(z2))
                assert ext.conj(ext.add(z1, z2)) == ext.add(ext.conj(z1), ext.conj(z2))


def test_ext_conj_homomorphism_vectorized_m6():
    from permpoly.tables import ext_tables
    et = ext_tables(6)
    q = et.q
    z = np.arange(et.Q, dtype=np.int64)
    a, b = z & (q - 1), z >> 6
    conj = (a ^ b) | (b << 6)
    for z1 in range(1, et.Q, 37):  # stride keeps the quadratic sweep bounded
        c1 = int(conj[z1])
        lhs = conj[et.exp[(et.log[z1] + et.log[z[1:]]) % et.n]]
        rhs = et.exp[(et.log[c1] + et.log[conj[z[1:]]]) % et.n]
        assert np.array_equal(lhs, rhs)


def test_ext_inverse_and_norm_is_power():
    for m in (2, 3):
        ext = extension_of(make_field(m))
        q = ext.base.q
        for z in ext.elements():
            if z == ExtField.ZERO:
                continue
            assert ext.mul(z, ext.inv(z)) == ExtField.ONE
            assert (ext.norm(z), 0) == ext.pow(z, q + 1)


def test_norm_one_count():
    for m in (2, 3, 5, 8):
        from permpoly.tables import ext_tables
        et = ext_tables(m)
        q = et.q
        z = np.arange(1, et.Q, dtype=np.int64)
        norms = et.exp[((q + 1) * et.log[z]) % et.n]
        assert int((norms == 1).sum()) == q + 1


def test_ext_solve_quadratic():
    for m in (2, 3, 4):
        ext = extension_of(make_field(m))
        for c in ext.elements():
            if ext.trace_abs(c) != 0:
                continue
            s = ext.solve_quadratic(c)
            assert ext.add(ext.square(s), s) == c


def test_b_sets():
    for m in (2, 3, 4):
        spec = make_field(m)
        ext = extension_of(spec)
        b0 = build_b_set(spec, 0)
        b1 = build_b_set(spec, 1)
        assert len(b0) == spec.q and len(b1) == spec.q
        assert INFINITY in b0 and (1, 0) not in b0
        assert not b0 & b1
        for z in b1:
            assert ext.norm(z) == 1 and z != ExtField.ONE


def test_b1_norm_characterization_m8():
    # B_1 = {norm-1 elements} \ {1}, checked by full enumeration
    spec = make_field(8)
    ext = extension_of(spec)
    b1 = build_b_set(spec, 1)
    count = sum(1 for z in ext.elements()
                if z != ExtField.ZERO and ext.norm(z) == 1)
    assert count == spec.q + 1 and len(b1) == spec.q


def test_element_hex_roundtrip():
    assert element_to_hex(0x1a) == "1a"
    assert element_to_hex(INFINITY) == "inf"


def test_load_field_table(tmp_path):
    path = tmp_path / "fields.txt"
    path.write_text("# override\nm=3 poly=0xd\nm=4 poly=0x13\n")
    table = load_field_table(str(path))
    assert table == {3: 0xD, 4: 0x13}
    assert make_field(3, table[3]).reduction == 0xD


def test_fieldspec_immutable_and_hashable():
    f = make_field(3)
    with pytest.raises(AttributeError):
        f.m = 4
    assert f == make_field(3) and hash(f) == hash(make_field(3))
    assert f != make_field(3, 0xD)
    assert f.q == 8 and make_field(5, 0x25).q == 32
    assert repr(make_field(3)) == "FieldSpec(m=3, reduction=0xb)"
    # under a modulus other than the default, built twice outside the cache
    assert FieldSpec(3, 0xD) == FieldSpec(3, 0xD) == make_field(3, 0xD)
    assert hash(FieldSpec(3, 0xD)) == hash(FieldSpec(3, 0xD)) == hash(make_field(3, 0xD))
