"""End-to-end acceptance sweeps.

Each test runs one family of exhaustive checks at full scale and prints a
single pass/fail line, so `pytest -s tests/test_acceptance.py` reads as a
scoreboard.  Every underlying checker counts its comparisons and records
the first counterexample, which is surfaced in the assertion message.
"""

from permpoly.checks import run_check


def _report(criterion: str, *runs) -> None:
    """Run each (check name, cap) pair of the registry and assert all pass."""
    outcomes = [o for name, cap in runs for o in run_check(name, cap)]
    failed = [o for o in outcomes if not o.passed]
    tested = sum(o.tested for o in outcomes)
    status = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({tested} comparisons)")
    assert not failed, (
        f"{criterion}: {len(failed)} failing checks, first: "
        f"{failed[0].params} -> {failed[0].counterexample}")


def test_criterion_01_permutation_theorem():
    """H permutes GF(2^m) exactly when predicted, and maps trace classes
    bijectively, for every m in 2..16 and every valid (k, alpha, gamma)."""
    _report("01 permutation-theorem m<=16", ("main_theorem", 16))


def test_criterion_02_dickson_permutation_criterion():
    """D_n(x, a) with a != 0 permutes GF(q) iff gcd(n, q^2 - 1) = 1, m <= 5."""
    _report("02 dickson-permutation m<=5", ("nobauer", 5))


def test_criterion_03_linearized_map_properties():
    """The seven arithmetic identities tying f, g, T_k, delta and theta
    together, exhaustively for m <= 12."""
    _report("03 linearized-map-identities m<=12", ("fgprop", 12))


def test_criterion_04_dickson_composed_with_linearized():
    """Symbolic shape of D_(sigma+1) composed with the k-term linearized
    map for k <= 16, plus pointwise confirmation for m <= 10."""
    _report("04 dickson-linearized-composition k<=16",
            ("dickson_linearized", 16))


def test_criterion_05_h_as_dickson():
    """H(g_beta(x)) agrees with both the rational form x^(sigma+1)/g^2 and
    the Dickson-style z-parameterized form, for m <= 10."""
    _report("05 h-dickson-bridge m<=10", ("h_dickson", 10))


def test_criterion_06_projective_map_structure():
    """phi is 2-to-1 off its exceptional points; the power maps w carry
    the circle/line pair as the gcd and parity conditions dictate; the
    z-sum expansion identities hold over all of GF(q^2).  m <= 10."""
    _report("06 projective-structure m<=10",
            ("perm_lemma", 10), ("zsumexp", 10))


def test_criterion_07_translated_circle_images():
    """The translated-circle evaluation formula for H on the sets B_e,
    including the points 0 and infinity, for m <= 10."""
    _report("07 translated-circle m<=10", ("hitt", 10))


def test_criterion_08_cube_chain_special_case():
    """x + 1/x + 1/x^2 permutes the trace-one class, and the k=1 member
    H_{1,1} fixes the trace-zero class pointwise, for m in 2..16."""
    _report("08 k1-special-case m<=16", ("remark3", 16))


def test_criterion_09_four_term_special_case():
    """When 2k = 1 mod m the expansion collapses to four exponents; the
    associated five-term polynomial is a permutation.  Odd m <= 13."""
    _report("09 four-term-case m<=13", ("remark4", 13))


def test_criterion_10_polynomiality():
    """The defining quotient f_alpha^(sigma+1)/X^2 is always a polynomial:
    symbolic expansion never hits a negative exponent, m <= 16."""
    _report("10 polynomiality m<=16", ("polynomiality", 16))


def test_criterion_11_evaluator_cross_checks():
    """All three Dickson evaluation methods agree (m <= 5, all n up to
    q^2), and the two closed forms of H agree everywhere (m <= 12)."""
    _report("11 evaluator-cross-checks",
            ("dickson_methods", 5), ("hprop", 12))
