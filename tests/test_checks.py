from permpoly import derive_params, make_field
from permpoly.checks import (NOT_A_CLASS, check_dickson_linearized,
                             check_dickson_methods, check_fgprop,
                             check_h_dickson, check_hitt, check_hprop,
                             check_main_theorem, check_main_theorem_outcome,
                             check_nobauer, check_perm_lemma,
                             check_polynomiality, check_remark3,
                             check_remark4, check_zsumexp, is_permutation)
from permpoly.field import coprime_ks


def test_is_permutation():
    f = make_field(2)
    assert is_permutation(lambda x: x, f)
    assert is_permutation(lambda x: f.square(x), f)
    assert not is_permutation(lambda x: f.pow(x, 3), f)  # x^3 has image {0,1}


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


def test_fgprop_hprop():
    for m, k in ((3, 2), (4, 3), (7, 5)):
        assert check_fgprop(m, k).passed
        assert check_hprop(m, k).passed


def test_perm_lemma_and_zsum():
    for m, k in ((2, 1), (3, 2), (5, 3)):
        assert check_perm_lemma(m, k).passed
        assert check_zsumexp(m, k).passed


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
    from permpoly.checks import _Sweep
    s = _Sweep()
    s.expect(False, [3, 7], 1, 0)
    s.expect(False, [1, 1], 5, 6)  # only the first is kept
    assert s.counterexample == {"inputs": ["3", "7"], "lhs": "1", "rhs": "0"}
    assert s.tested == 2
