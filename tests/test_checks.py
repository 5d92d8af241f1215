import copy
import inspect
import json

import numpy as np
import pytest

from permpoly import OutOfRange, checks, cli
from permpoly.checks import (_ZSUM_CHUNK, CHECKS, LINEARIZED_K_MAX, MUL_TABLE_M_MAX,
                             NOT_A_CLASS, CheckOutcome, _injective, _zsum_chunk,
                             check_dickson_linearized, check_dickson_methods, check_fgprop,
                             check_h_dickson, check_hitt, check_hprop,
                             check_main_theorem, check_main_theorem_outcome,
                             check_nobauer, check_perm_lemma,
                             check_polynomiality, check_remark3,
                             check_remark4, check_zsumexp)
from permpoly.field import coprime_ks, make_field
from permpoly.tables import ExtTables, FieldTables


def test_injective_matches_a_set_count():
    rng = np.random.default_rng(2004)
    for q in (4, 8, 64):
        for size in (1, q // 2, q):
            rows, verdicts = [], []
            for _ in range(40):
                # mostly in GF(q), with collisions, now and then -1 or q
                values = rng.integers(-1, q + 1, size=size)
                seen = set(values.tolist())
                expected = seen <= set(range(q)) and len(seen) == size
                assert _injective(values, q) is expected, (q, values)
                rows.append(values)
                verdicts.append(expected)
            # the same rows at once, also as a 2 x 20 grid of rows
            assert _injective(np.array(rows), q).tolist() == verdicts
            assert _injective(np.array(rows).reshape(2, 20, size), q).tolist() == \
                [verdicts[:20], verdicts[20:]]
        perm = rng.permutation(q)
        assert _injective(perm, q)
        for bad in (-1, q, 1 << 40):
            corrupted = perm.copy()
            corrupted[1] = bad
            assert not _injective(corrupted, q)
        collided = perm.copy()
        collided[0] = collided[1]
        assert not _injective(collided, q)


def test_main_theorem_reports_m3_k2():
    reports = {(r.alpha, r.gamma): r for r in check_main_theorem(3, 2)}
    assert len(reports) == 4
    # r = 2, m = 3: permutation iff (alpha + gamma) odd
    r00 = reports[(0, 0)]
    assert not r00.is_permutation and not r00.predicted_by_theorem and r00.agree
    # both classes land in T_0, so T_0 -> T_0 bijectively but T_1 collides in
    assert r00.image_of_t0 == 0 and r00.image_of_t1 == 0
    r01 = reports[(0, 1)]
    assert r01.is_permutation and r01.predicted_by_theorem
    assert r01.t0_bijective and r01.t1_bijective
    assert r01.image_of_t0 == 0 and r01.image_of_t1 == 1
    assert reports[(1, 0)].is_permutation
    assert not reports[(1, 1)].is_permutation


def test_main_theorem_outcome():
    out = check_main_theorem_outcome(5, 2)
    assert out.passed and out.counterexample is None
    assert out.check == "main_theorem" and out.params == {"m": 5, "k": 2}
    assert out.tested > 0 and out.ms >= 0
    json_form = out.to_json()
    assert json_form["passed"] is True and json_form["check"] == "main_theorem"


def test_class_labels():
    # an H landing in both classes gets NOT_A_CLASS on the colliding side
    reps = check_main_theorem(4, 3)
    assert any(r.image_of_t0 in (0, 1, NOT_A_CLASS) for r in reps)
    for r in reps:
        assert r.agree


def test_nobauer_small():
    out = check_nobauer(3)
    assert out.passed and out.tested > 0


@pytest.mark.parametrize("name, limit", [("nobauer", MUL_TABLE_M_MAX),
                                         ("dickson_methods", MUL_TABLE_M_MAX),
                                         ("dickson_linearized", LINEARIZED_K_MAX)])
def test_a_clamped_cap_has_one_limit(name, limit):
    check = CHECKS[name]
    assert check.default_cap == limit and check.max_cap is None
    assert check.grid(limit + 20) == [(limit,)] and check.grid(3) == [(3,)]
    with pytest.raises(OutOfRange):
        check.fn(limit + 1)


def test_fgprop_hprop():
    for m, k in ((3, 2), (4, 3), (7, 5)):
        assert check_fgprop(m, k).passed
        assert check_hprop(m, k).passed


def test_perm_lemma_and_zsum():
    # at m = 8 and 9, zsumexp sweeps GF(q^2) in several chunks
    for m, k in ((2, 1), (3, 2), (5, 3), (8, 3), (9, 2)):
        assert check_perm_lemma(m, k).passed
        zsum = check_zsumexp(m, k)
        assert zsum.passed and zsum.tested == 4 * ((1 << 2 * m) - 2), (m, k)


def test_zsum_top_chunk_where_int32_log_products_would_wrap():
    # at m = 11, k = 10 the last chunk has sigma * log z > 2^31
    et = ExtTables(11)  # not cached: 48 MB of tables no other test reads
    part = _zsum_chunk(et, 10, et.g0_table(10), et.Q - _ZSUM_CHUNK, et.Q)
    assert (part.counterexample, part.tested) == (None, 4 * _ZSUM_CHUNK)


# (passed, tested) of the scalar-loop implementation these checks replaced:
# m -> (perm_lemma tested, hitt tested), the same for every coprime k
B_SET_COUNTS = {2: (24, 36), 3: (48, 68), 4: (96, 132), 5: (192, 260),
                6: (384, 516), 7: (768, 1028), 8: (1536, 2052)}


def test_b_set_checks_keep_their_counts():
    for m, (perm_tested, hitt_tested) in B_SET_COUNTS.items():
        for k in coprime_ks(m):
            perm, hitt = check_perm_lemma(m, k), check_hitt(m, k)
            assert (perm.passed, perm.tested) == (True, perm_tested), (m, k)
            assert (hitt.passed, hitt.tested) == (True, hitt_tested), (m, k)


def test_h_dickson_and_hitt():
    for m, k in ((3, 2), (5, 2), (6, 5)):
        assert check_h_dickson(m, k).passed
        assert check_hitt(m, k).passed


def test_remarks():
    assert check_remark3(4).passed
    assert check_remark3(5).passed
    out = check_remark4(5, 3)  # 2k = 6 = 1 mod 5
    assert out.passed
    assert check_remark4(3, 2).passed


def test_dickson_checks():
    assert check_dickson_linearized(6).passed
    assert check_dickson_methods(3).passed


def test_polynomiality_small():
    out = check_polynomiality(6)
    assert out.passed and out.counterexample is None


def test_outcome_counterexample_shape():
    # force a failing comparison through the internal sweeper
    from permpoly.checks import CheckOutcome
    s = CheckOutcome("shape", {})
    s.expect(False, [3, 7], 1, 0)
    s.expect(False, [1, 1], 5, 6)  # only the first is kept
    assert s.counterexample == {"inputs": ["3", "7"], "lhs": "1", "rhs": "0"}
    assert s.tested == 2


def test_a_record_fails_at_its_first_counterexample():
    rec = CheckOutcome("record", {})
    rec.compare([np.arange(3)], np.arange(3), np.arange(3))
    assert (rec.passed, rec.tested, rec.counterexample) == (True, 3, None)
    def circle():
        raise ArithmeticError("broken")
    part = CheckOutcome("part", {})
    assert not part.guard_holds([2], circle)
    assert (part.passed, part.counterexample) == \
        (False, {"inputs": ["2"], "guard": "circle: broken"})
    rec.merge(part)
    rec.fail([9], 1, 0)  # the merged counterexample came first
    assert (rec.passed, rec.tested, rec.counterexample) == (False, 3, part.counterexample)


def test_each_registered_check_keeps_its_name_and_signature():
    assert list(CHECKS) == ["main_theorem", "nobauer", "fgprop", "hprop", "perm_lemma",
                            "zsumexp", "h_dickson", "hitt", "remark3", "remark4",
                            "dickson_linearized", "dickson_methods", "polynomiality"]
    for name, check in CHECKS.items():
        assert check.fn.__name__ in (f"check_{name}", f"check_{name}_outcome")
        assert len(inspect.signature(check.fn).parameters) == len(check.grid(4)[0])
    out = check_remark4(k=3, m=5)  # by keyword too, params in signature order
    assert out.params == {"m": 5, "k": 3} and out.passed


#: checker, its arguments, and how many tables it builds through each builder
#: it calls: one per parameter the table depends on (gamma only adds Tr to H)
TABLE_BUILDS = {
    "main_theorem": (check_main_theorem_outcome, (5, 2), {"h_value_table": 2}),
    "hprop": (check_hprop, (5, 2), {"f_alpha_table": 2, "h_value_table": 2}),
    "hitt": (check_hitt, (5, 2), {"g_beta_table": 1, "h_value_table": 2}),
    "fgprop": (check_fgprop, (5, 2), {"f_alpha_table": 2, "g_beta_table": 2}),
    "h_dickson": (check_h_dickson, (5, 2), {"g_beta_table": 1, "h_value_table": 2}),
    "remark4": (check_remark4, (5, 3), {"h_value_table": 1}),
}


@pytest.mark.parametrize("label", TABLE_BUILDS)
def test_each_table_is_built_once_per_parameter(monkeypatch, label):
    fn, args, expected = TABLE_BUILDS[label]
    builds = {}
    for name in ("f_alpha_table", "g_beta_table", "h_value_table"):
        def counted(*a, name=name, build=getattr(checks, name)):
            builds[name] = builds.get(name, 0) + 1
            return build(*a)
        monkeypatch.setattr(checks, name, counted)
    assert fn(*args).passed
    assert builds == expected


def _corrupt(monkeypatch, name, i, new):
    """Make checks.<name> return a copy of its table (for field_tables, of its
    exp table) with flat entry i set to new(table)."""
    orig = getattr(checks, name)

    def corrupted(*args):
        out = orig(*args)
        if name == "field_tables":
            out = copy.copy(out)
            out.exp = tab = out.exp.copy()
        else:
            out = tab = out.copy()
        tab.flat[i] = new(tab)
        return out
    monkeypatch.setattr(checks, name, corrupted)


#: label -> (checker, its arguments, the table given one collision, entry i,
#: entry j), and the (passed, tested, counterexample) of the parent commit
#: with table[i] = table[j]
CORRUPTED = {
    "main_theorem": ((check_main_theorem_outcome, (5, 2), "h_value_table", 3, 5),
                     (False, 128, {"inputs": ["0", "0"], "lhs": "0", "rhs": "1"})),
    "fgprop_f": ((check_fgprop, (5, 2), "f_alpha_table", 3, 5),
                 (False, 1064, {"inputs": ["3"], "lhs": "14", "rhs": "6"})),
    "fgprop_g": ((check_fgprop, (5, 2), "g_beta_table", 3, 5),
                 (False, 1064, {"inputs": ["3"], "lhs": "9", "rhs": "12"})),
    "h_dickson": ((check_h_dickson, (5, 2), "h_value_table", 3, 5),
                  (False, 130, {"inputs": ["8"], "lhs": "c", "rhs": "11"})),
    "remark3": ((check_remark3, (5,), "field_tables", 5, 1),
                (False, 48, {"inputs": ["5"], "lhs": "0", "rhs": "1"})),
    "remark4": ((check_remark4, (5, 3), "h_value_table", 3, 5),
                (False, 104, {"inputs": ["1"], "lhs": "0", "rhs": "0"})),
    "nobauer": ((check_nobauer, (3,), "_mul_table", 4, 5),
                (False, 486, {"inputs": ["2", "1", "4"], "lhs": "0", "rhs": "1"})),
}


@pytest.mark.parametrize("label", CORRUPTED)
def test_a_collision_fails_the_check(monkeypatch, label):
    (fn, args, table, i, j), expected = CORRUPTED[label]
    _corrupt(monkeypatch, table, i, lambda tab: tab.flat[j])
    out = fn(*args)
    assert (out.passed, out.tested, out.counterexample) == expected


@pytest.mark.parametrize("value", [-1, 1 << 24], ids=["pinf", "far"])
@pytest.mark.parametrize("label", CORRUPTED)
def test_an_out_of_field_value_fails_the_check(monkeypatch, label, value):
    (fn, args, table, i, _), _ = CORRUPTED[label]
    _corrupt(monkeypatch, table, i, lambda tab: value)
    out = fn(*args)
    assert not out.passed and out.counterexample is not None


def _no_class_on_t1(monkeypatch):
    # a table whose T_1 image meets both classes fails fgprop's (i),
    # Tr(f(x)) = par*Tr(x), before (iv) looks at it, so here the label is faked
    orig = checks._on_class
    monkeypatch.setattr(checks, "_on_class",
                        lambda ft, tab, e: (NOT_A_CLASS, False) if e else orig(ft, tab, e))


#: label -> (setup, checker, its arguments, the counterexample)
NO_CLASS = {
    "remark4": (lambda mp: _corrupt(mp, "h_value_table", 3, lambda tab: 1 << 24),
                check_remark4, (5, 3), {"inputs": ["1"], "lhs": "none", "rhs": "0"}),
    "fgprop": (_no_class_on_t1, check_fgprop, (5, 2),
               {"inputs": ["1"], "lhs": "none", "rhs": "1"}),
}


@pytest.mark.parametrize("label", NO_CLASS)
def test_no_class_prints_none_not_inf(monkeypatch, label):
    setup, fn, args, expected = NO_CLASS[label]
    setup(monkeypatch)
    out = fn(*args)
    assert not out.passed and out.counterexample == expected


def test_a_corrupted_minus_one_prints_as_minus_one(monkeypatch):
    # no value stands for the point at infinity, so -1 prints as itself
    ft = FieldTables(make_field(4))
    ft.sq[0] = -1
    monkeypatch.setattr(checks, "field_tables", lambda m: ft)
    out = check_hprop(4, 1)
    assert (out.passed, out.counterexample) == \
        (False, {"inputs": ["0"], "lhs": "0", "rhs": "-1"})


#: label -> (checker, its arguments, a table that feeds an identity rather than
#: a permutation verdict, entry i), and the (passed, tested, counterexample)
#: with table[i] = 2^24; without the in_field guard each call raises IndexError
IDENTITY_TABLES = {
    "h_dickson_g": ((check_h_dickson, (5, 2), "g_beta_table", 3),
                    (False, 66, {"inputs": ["3"], "lhs": "1000000", "rhs": "20"})),
    "h_dickson_exp": ((check_h_dickson, (5, 2), "field_tables", 2),
                      (False, 66, {"inputs": ["2"], "lhs": "1000000", "rhs": "20"})),
    "dickson_linearized_exp": ((check_dickson_linearized, (6,), "field_tables", 2),
                               (False, 21, {"inputs": ["2", "2"], "lhs": "1000000",
                                            "rhs": "4"})),
    "dickson_methods_mul": ((check_dickson_methods, (3,), "_mul_table", 5),
                            (False, 0, {"inputs": ["2", "5"], "lhs": "1000000",
                                        "rhs": "4"})),
}


@pytest.mark.parametrize("label", IDENTITY_TABLES)
def test_an_out_of_field_value_in_an_identity_table_fails_the_check(monkeypatch, label):
    (fn, args, table, i), expected = IDENTITY_TABLES[label]
    _corrupt(monkeypatch, table, i, lambda tab: 1 << 24)
    out = fn(*args)
    assert (out.passed, out.tested, out.counterexample) == expected


#: every comparison of zsumexp at m = 9
ZSUM_TESTED = 4 * ((1 << 18) - 2)

#: label -> (ExtTables(9) table, entries, k, the new value or None to flip
#: bit 0), and the (tested, counterexample); every entry lies past the first
#: zsumexp chunk. An exp value outside GF(2^18) fails the check before the
#: sweep, where it used to raise IndexError in a chunk.
ZSUM_CORRUPTED = {
    "sq": (("sq", (150000,), 2, None),
           (ZSUM_TESTED, {"inputs": ["13352"], "lhs": "32d69", "rhs": "32d68"})),
    "sq_twice": (("sq", (40000, 250000), 5, None),
                 (ZSUM_TESTED, {"inputs": ["10400"], "lhs": "9855", "rhs": "9854"})),
    "exp_twice": (("exp", (70000, 200000), 2, None),
                  (ZSUM_TESTED, {"inputs": ["21c2"], "lhs": "275a3", "rhs": "275a2"})),
    "exp_out_of_range": (("exp", (100000,), 2, 1 << 18),
                         (0, {"inputs": ["186a0"], "lhs": "40000", "rhs": "40000"})),
}


@pytest.mark.parametrize("label", ZSUM_CORRUPTED)
def test_zsumexp_outcome_does_not_depend_on_the_worker_count(monkeypatch, label):
    (name, entries, k, value), expected = ZSUM_CORRUPTED[label]
    et = ExtTables(9)  # not the cached ext_tables(9), which other tests read
    tab = getattr(et, name)
    for i in entries:
        tab[i] = tab[i] ^ 1 if value is None else value
    monkeypatch.setattr(checks, "ext_tables", lambda m: et)
    for workers in (1, 8):  # 8 runs all eight chunks of GF(2^18) at once
        monkeypatch.setattr(checks, "_workers", lambda: workers)
        out = check_zsumexp(9, k)
        assert (out.passed, out.tested, out.counterexample) == (False, *expected), workers


def test_an_out_of_field_g0_value_fails_zsumexp(monkeypatch):
    et = ExtTables(5)
    g0 = et.g0_table(2)
    g0[7] = 1 << 24
    monkeypatch.setattr(et, "g0_table", lambda k: g0)
    monkeypatch.setattr(checks, "ext_tables", lambda m: et)
    out = check_zsumexp(5, 2)
    assert (out.passed, out.tested, out.counterexample) == \
        (False, 0, {"inputs": ["7"], "lhs": "1000000", "rhs": "400"})


def _b1_guard_tripped():
    """A fresh ExtTables(4) whose B_1 powers repeat: theta^(2(q-1)) reads 1."""
    et = ExtTables(4)
    et.exp[2 * (et.q - 1) % et.n] = 1
    return et


def _circle_powers_swapped():
    """A fresh ExtTables(4) whose B_1 powers theta and theta^2 trade places: B_1
    passes its guard, but c[1] = theta^2 + theta^-1 lies outside GF(q)."""
    et = ExtTables(4)
    i, j = et.q - 1, 2 * (et.q - 1)
    et.exp[[i, j]] = et.exp[[j, i]]
    return et


def _circle_split_broken():
    """A fresh ExtTables(4) over a copy of the GF(16) tables whose exp[1] reads
    1, which gives one z of GF(q)* a wrong 1/z: the values z + 1/z and
    c[1..q/2] no longer split GF(q)."""
    et = ExtTables(4)
    et.base = copy.copy(et.base)
    et.base.exp = et.base.exp.copy()
    et.base.exp[1] = 1
    return et


#: corruptions of ext_tables(4) that pass the B_1 guard, and the message of
#: the circle's guard that each trips
CIRCLE_CORRUPTIONS = {
    "powers_swapped": (_circle_powers_swapped,
                       "some theta^i + theta^-i or z + 1/z lies outside GF(q)"),
    "split_broken": (_circle_split_broken,
                     "c[1..q/2] and z + 1/z on GF(q)* do not split GF(q)"),
}


#: checker, its arguments, and its (passed, tested, the inputs its
#: counterexample names) when ext_tables(4) trips the guard of
#: ExtTables.circle; unguarded, each call raises ArithmeticError
GUARDED = {
    "perm_lemma": (check_perm_lemma, (4, 1), (False, 0)),
    "hitt": (check_hitt, (4, 1), (False, 0)),
    "h_dickson": (check_h_dickson, (4, 1), (False, 34)),
    "dickson_linearized": (check_dickson_linearized, (6,), (False, 18339, "4")),
    "dickson_methods": (check_dickson_methods, (4,), (False, 1152, "4")),
}


def _expect_guard(monkeypatch, label, corrupted, message):
    fn, args, (passed, tested, *inputs) = GUARDED[label]
    orig = checks.ext_tables
    monkeypatch.setattr(checks, "ext_tables", lambda m: corrupted if m == 4 else orig(m))
    out = fn(*args)
    assert (out.passed, out.tested) == (passed, tested)
    assert out.counterexample == {"inputs": inputs, "guard": f"circle: {message}"}


@pytest.mark.parametrize("label", GUARDED)
def test_a_tripped_table_guard_fails_the_check(monkeypatch, label):
    _expect_guard(monkeypatch, label, _b1_guard_tripped(),
                  "B_1 powers are not q = 16 elements other than 1")


@pytest.mark.parametrize("corruption", CIRCLE_CORRUPTIONS)
@pytest.mark.parametrize("label", GUARDED)
def test_a_corrupted_circle_fails_the_check(monkeypatch, label, corruption):
    make, message = CIRCLE_CORRUPTIONS[corruption]
    _expect_guard(monkeypatch, label, make(), message)


def test_verify_exits_4_on_a_tripped_table_guard(monkeypatch, capsys):
    et, orig = _b1_guard_tripped(), checks.ext_tables
    monkeypatch.setattr(checks, "ext_tables", lambda m: et if m == 4 else orig(m))
    code = cli.main(["--format", "json", "verify", "--suite", "hitt", "--m-max", "4"])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 4
    assert [r["passed"] for r in records] == [True, True, True, False, False]
