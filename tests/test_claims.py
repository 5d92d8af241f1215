"""Claim mutants: every registered check fails when the claim it checks is broken.

A check that compares a value with itself, or with something derived from it,
passes whatever the paper says. Each mutant here breaks one claim by
monkeypatching one name that a check reads, and each row of KILLS runs one
check at one grid point within its default cap: it must pass there unpatched
and return a failing record patched (an exception would fail the test). A
mutant that drops an m term is equivalent at even m, so its rows sit at m = 3. This
is mutation testing after DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978.

The flips and the dropped m terms patch the ParamSets that the checks get, not the
property itself: derive_params reads f_trace and g_trace for its own congruence, so a
flipped property would make it raise before any check ran. h_trace reads f_trace, so
flipping f_trace also flips h_trace.

These mutants survive, because each is equivalent to the code it replaces:
- gcd(n, q^2 - 1) < 3 for == 1 in nobauer: q^2 - 1 is odd, so the gcd is never 2;
- `or m % 2 == 0` added to main_theorem's prediction: at even m, r is odd, so every
  member permutes;
- expect(True, ...) for polynomiality's constant-term verdict: the claim is true, so
  no input tells them apart;
- h_trace read as f_trace in h_dickson: it reads h_trace only at gamma = 0, where the
  gamma*m term is 0;
- h_dickson's f_trace verdict under an f_trace flip, and hitt's g_trace verdict under
  a g_trace flip, at odd m: alpha and beta are chosen from that same property, so the
  verdict still holds. At even m both choices have the same parity, so the verdict
  fails, as at (2, 1); at odd m the check's other verdicts fail instead.
"""

import dataclasses
from math import isqrt

import numpy as np
import pytest

from permpoly import checks
from permpoly.checks import CHECKS, check_polynomiality
from permpoly.params import ParamSet
from permpoly.tables import ExtTables


def _property(prop: str, value):
    """derive_params giving ParamSets whose property `prop` reads value(p, its real
    value); the real ParamSet is derived first, so derive_params' own congruence holds."""
    mutant = type(f"Mutant_{prop}", (ParamSet,),
                  {prop: property(lambda p: value(p, getattr(ParamSet, prop).fget(p)))})
    return lambda derive: lambda *args, **kwargs: mutant(**vars(derive(*args, **kwargs)))


def _flipped(prop: str):
    """derive_params giving ParamSets whose property `prop` is 1 minus its value."""
    return _property(prop, lambda p, real: 1 - real)


def _with(change):
    """derive_params giving each ParamSet p as dataclasses.replace(p, **change(p))."""
    def mutant(derive):
        def derived(*args, **kwargs):
            p = derive(*args, **kwargs)
            return dataclasses.replace(p, **change(p))
        return derived
    return mutant


#: mutant -> (owner, the name patched on it, a function of the original giving the
#: replacement)
MUTANTS = {
    "f_trace flipped": (checks, "derive_params", _flipped("f_trace")),
    "g_trace flipped": (checks, "derive_params", _flipped("g_trace")),
    "h_trace flipped": (checks, "derive_params", _flipped("h_trace")),
    # (k + beta*m) mod 2 read as k mod 2, and (f_trace + gamma*m) mod 2 as f_trace
    "m term dropped from g_trace": (checks, "derive_params",
                                    _property("g_trace", lambda p, real: p.k % 2)),
    "m term dropped from h_trace": (checks, "derive_params",
                                    _property("h_trace", lambda p, real: p.f_trace)),
    "delta flipped": (checks, "derive_params", _with(lambda p: {"delta": 1 - p.delta})),
    "theta flipped": (checks, "derive_params", _with(lambda p: {"theta": 1 - p.theta})),
    "gamma forced to 0": (checks, "derive_params", _with(lambda p: {"gamma": 0})),
    "gcd always 1": (checks, "gcd", lambda gcd: lambda a, b: 1),
    # gcd(n, q^2 - 1) read as gcd(n, q - 1)
    "gcd with q - 1": (np, "gcd", lambda gcd: lambda n, d: gcd(n, isqrt(d + 1) - 1)),
    "g0 with k - 1 terms": (ExtTables, "g0_table", lambda g0: lambda et, k: g0(et, k - 1)),
    "X dropped from Tr": (checks, "trace_poly", lambda tr: lambda m: tr(m) - {1}),
    "X^0 added to D_n": (checks, "dickson_exponents", lambda d: lambda n: d(n) | {0}),
    "closed form at n + 1": (checks, "_closed_form_rows",
                             lambda rows: lambda powers, ns: rows(powers, ns + 1)),
    "X^0 added to H": (checks, "expand_h", lambda expand: lambda p: expand(p) | {0}),
    "X^0 added to H_01": (checks, "expand_h",
                          lambda expand: lambda p: expand(p) | ({0} if p.gamma else set())),
}

#: (check, grid point, mutant) for every mutant that fails the check at that point
KILLS = [
    ("main_theorem", (2, 1), "f_trace flipped"),
    ("main_theorem", (2, 1), "h_trace flipped"),
    ("main_theorem", (3, 1), "m term dropped from h_trace"),
    ("nobauer", (5,), "gcd with q - 1"),
    ("fgprop", (2, 1), "f_trace flipped"),
    ("fgprop", (2, 1), "g_trace flipped"),
    ("fgprop", (2, 1), "delta flipped"),
    ("fgprop", (2, 1), "theta flipped"),
    ("fgprop", (3, 1), "m term dropped from g_trace"),
    ("hprop", (2, 1), "f_trace flipped"),
    ("hprop", (2, 1), "h_trace flipped"),
    ("hprop", (3, 1), "m term dropped from h_trace"),
    ("perm_lemma", (2, 1), "gcd always 1"),
    ("zsumexp", (2, 1), "g0 with k - 1 terms"),
    ("h_dickson", (2, 1), "f_trace flipped"),
    ("h_dickson", (2, 1), "g_trace flipped"),
    ("h_dickson", (3, 2), "m term dropped from g_trace"),
    ("hitt", (2, 1), "g_trace flipped"),
    ("hitt", (2, 1), "delta flipped"),
    ("hitt", (2, 1), "theta flipped"),
    ("hitt", (3, 2), "m term dropped from g_trace"),
    ("remark3", (2,), "gamma forced to 0"),
    ("remark4", (3, 2), "X dropped from Tr"),
    ("remark4", (3, 2), "X^0 added to H"),
    ("remark4", (3, 2), "X^0 added to H_01"),
    ("dickson_linearized", (16,), "X^0 added to D_n"),
    ("dickson_methods", (5,), "closed form at n + 1"),
    ("polynomiality", (12,), "X^0 added to H"),
]


def _patch(monkeypatch, mutant: str):
    owner, name, replacement = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, replacement(getattr(owner, name)))


def test_every_check_and_every_mutant_has_a_row():
    assert {check for check, _, _ in KILLS} == set(CHECKS)
    assert {mutant for _, _, mutant in KILLS} == set(MUTANTS)


@pytest.mark.parametrize("check, point, mutant", KILLS,
                         ids=[f"{c}{p}-{m}" for c, p, m in KILLS])
def test_a_check_fails_when_its_claim_is_broken(monkeypatch, check, point, mutant):
    assert point in CHECKS[check].grid(CHECKS[check].default_cap)
    assert CHECKS[check].fn(*point).passed
    _patch(monkeypatch, mutant)
    out = CHECKS[check].fn(*point)
    assert out.passed is False and out.counterexample is not None


def test_a_constant_term_fails_polynomiality_with_lhs_unequal_to_rhs(monkeypatch):
    # lhs is whether X^0 is in the expansion: 1 against 0 on a failed record
    _patch(monkeypatch, "X^0 added to H")
    out = check_polynomiality(3)
    assert (out.passed, out.tested, out.counterexample) == \
        (False, 92, {"inputs": ["2", "1", "0", "0"], "lhs": "1", "rhs": "0"})


#: (check, point, mutant) and the failing record's counterexample: a verdict on two
#: exponent sets names the least exponent in only one, 1 on the side that holds it,
#: and perm_lemma the pair that differs, here the gcd condition against the parity
UNEQUAL_SIDES = [
    ("perm_lemma", (2, 1), "gcd always 1", {"inputs": ["1", "0"], "lhs": "1", "rhs": "0"}),
    ("dickson_linearized", (16,), "X^0 added to D_n",
     {"inputs": ["1", "0"], "lhs": "1", "rhs": "0"}),
    # (a), the expansion of H_00, then the reduced set of H_01
    ("remark4", (3, 2), "X^0 added to H", {"inputs": ["3", "2", "0"], "lhs": "1", "rhs": "0"}),
    ("remark4", (3, 2), "X^0 added to H_01",
     {"inputs": ["3", "2", "0"], "lhs": "1", "rhs": "0"}),
]


@pytest.mark.parametrize("check, point, mutant, counterexample", UNEQUAL_SIDES,
                         ids=[f"{c}{p}-{m}" for c, p, m, _ in UNEQUAL_SIDES])
def test_a_failed_verdict_records_unequal_sides(monkeypatch, check, point, mutant,
                                                counterexample):
    _patch(monkeypatch, mutant)
    out = CHECKS[check].fn(*point)
    assert (out.passed, out.counterexample) == (False, counterexample)
    assert out.counterexample["lhs"] != out.counterexample["rhs"]
