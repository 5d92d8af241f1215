"""Command-line front end: parameter derivation, single evaluations,
permutation sweeps, symbolic expansion, and the verification suite.

Exit codes: 0 success, 2 usage/parameter error, 3 cross-check disagreement,
4 sweep disagreement, 5 polynomiality violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from math import gcd

from . import checks
from .errors import NotDivisible, OutOfRange, PermpolyError
from .field import (INFINITY, MAX_DEGREE, element_to_hex, extension_of,
                    load_field_table, make_field)
from .maps import (DicksonMethod, eval_dickson, eval_f_alpha, eval_g_beta,
                   eval_h, phi, tau, w_map)
from .params import derive_params
from .sparsepoly import expand_h, sp_reduce_mod_field, sp_serialize

MAP_NAMES = ("f", "g", "tk", "h", "dickson", "phi", "w0", "w1", "tau")


def _reduction_for(m: int) -> int | None:
    path = os.environ.get("PERMPOLY_FIELD_TABLE")
    if not path:
        return None
    return load_field_table(path).get(m)


@contextlib.contextmanager
def _output(args):
    """The --out file, closed when the block ends, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", encoding="ascii") as stream:
        yield stream


def _hex_arg(value: str | None, flag: str, bound: int) -> int:
    """A required hex operand, which must lie in 0..bound-1."""
    if value is None:
        raise OutOfRange(f"{flag} is required")
    x = int(value, 16)
    if not 0 <= x < bound:
        raise OutOfRange(f"{flag} {value} is outside 0..{bound - 1:x}")
    return x


def _emit_rows(args, rows: list[dict], header: list[str]) -> None:
    with _output(args) as stream:
        if args.format == "json":
            for row in rows:
                print(json.dumps(row), file=stream)
        elif args.format == "csv":
            writer = csv.DictWriter(stream, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        else:
            for row in rows:
                print(" ".join(f"{key}={row[key]}" for key in header), file=stream)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_params(args) -> int:
    field = make_field(args.m)
    rows = []
    for alpha in (0, 1):
        for beta in (0, 1):
            p = derive_params(args.m, args.k, alpha=alpha, beta=beta, field=field)
            rows.append({"m": p.m, "k": p.k, "r": p.r, "m_prime": p.m_prime,
                         "sigma": p.sigma, "alpha": alpha, "beta": beta,
                         "delta": p.delta, "theta": p.theta, "lambda": p.lam})
    header = ["m", "k", "r", "m_prime", "sigma", "alpha", "beta",
              "delta", "theta", "lambda"]
    _emit_rows(args, rows, header)
    return 0


def cmd_eval(args) -> int:
    field = make_field(args.m, _reduction_for(args.m))
    name = args.map
    if name == "dickson":
        x = _hex_arg(args.x, "--x", field.q)
        a = _hex_arg(args.a, "--a", field.q)
        if args.cross_check:
            values = {method.value: eval_dickson(field, args.n, x, method, a=a)
                      for method in DicksonMethod if a == 1 or method is DicksonMethod.RECURRENCE}
            if len(set(values.values())) != 1:
                print(f"cross-check disagreement: {values}", file=sys.stderr)
                return 3
            value = next(iter(values.values()))
        else:
            value = eval_dickson(field, args.n, x, DicksonMethod(args.method), a=a)
    elif name in ("phi", "w0", "w1"):
        ext = extension_of(field)
        if args.z == "inf":
            zval = INFINITY
        else:
            packed = _hex_arg(args.z, "--z", field.q * field.q)
            zval = (packed & (field.q - 1), packed >> field.m)
        if name == "phi":
            result = phi(ext, zval)
        else:
            sigma = derive_params(args.m, args.k, field=field).sigma
            result = w_map(ext, sigma, 0 if name == "w0" else 1, zval)
        value = result if result is INFINITY else result[0] | (result[1] << field.m)
    elif name == "tau":
        value = tau(args.v, _hex_arg(args.x, "--x", field.q))
    else:
        # T_k is g_beta with beta = 0, whatever --beta says
        beta = 0 if name == "tk" else args.beta
        p = derive_params(args.m, args.k, alpha=args.alpha, beta=beta,
                          gamma=args.gamma, field=field)
        fn = {"f": eval_f_alpha, "g": eval_g_beta, "tk": eval_g_beta, "h": eval_h}[name]
        value = fn(p, _hex_arg(args.x, "--x", field.q))
    with _output(args) as stream:
        print(element_to_hex(value), file=stream)
    return 0


def cmd_sweep(args) -> int:
    if args.m_max > MAX_DEGREE:
        raise OutOfRange(f"--m-max {args.m_max} exceeds {MAX_DEGREE}, the largest supported m")
    rows = []
    all_agree = True
    for m in range(args.m_min, args.m_max + 1):
        k_range = range(args.k_min, min(args.k_max, m - 1) + 1)
        for k in k_range:
            if gcd(k, m) != 1:
                print(f"skipping m={m} k={k}: gcd != 1", file=sys.stderr)
                continue
            for rep in checks.check_main_theorem(m, k):
                p = derive_params(m, k)
                rows.append({
                    "m": m, "k": k, "r": p.r, "m_prime": p.m_prime,
                    "alpha": rep.alpha, "gamma": rep.gamma,
                    "predicted": rep.predicted_by_theorem,
                    "observed": rep.is_permutation,
                    "t0_image": rep.image_of_t0, "t1_image": rep.image_of_t1,
                    "agree": rep.agree})
                all_agree = all_agree and rep.agree
    header = ["m", "k", "r", "m_prime", "alpha", "gamma", "predicted",
              "observed", "t0_image", "t1_image", "agree"]
    _emit_rows(args, rows, header)
    return 0 if all_agree else 4


def cmd_expand(args) -> int:
    field = make_field(args.m)
    p = derive_params(args.m, args.k, alpha=args.alpha, gamma=args.gamma,
                      field=field)
    try:
        poly = expand_h(p)
    except NotDivisible as exc:
        print(f"polynomiality violated: {exc}", file=sys.stderr)
        return 5
    if args.reduce:
        poly = sp_reduce_mod_field(poly, args.m)
    with _output(args) as stream:
        print(sp_serialize(poly), file=stream)
    return 0


def cmd_verify(args) -> int:
    names = list(checks.CHECKS) if args.suite == "all" else [args.suite]
    if args.m_max and args.m_max < 2:
        raise OutOfRange(f"--m-max {args.m_max} is below 2 (0 selects each check's default)")
    for name in names:
        if name not in checks.CHECKS:
            raise OutOfRange(f"unknown check: {name}")
        limit = checks.CHECKS[name].max_cap
        if limit is not None and args.m_max > limit:
            raise OutOfRange(f"--m-max {args.m_max} exceeds {limit}, the largest m for {name}")
    all_passed = True
    with _output(args) as stream:
        for name in names:
            cap = args.m_max or checks.CHECKS[name].default_cap
            for outcome in checks.run_check(name, cap):
                print(json.dumps(outcome.to_json()), file=stream)
                all_passed = all_passed and outcome.passed
    return 0 if all_passed else 4


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpoly",
        description="Permutation-polynomial family over GF(2^m): evaluation and verification.")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="derive r, m', sigma, delta, theta")
    p_params.add_argument("--m", type=int, required=True)
    p_params.add_argument("--k", type=int, required=True)
    p_params.set_defaults(fn=cmd_params)

    p_eval = sub.add_parser("eval", help="evaluate one map at one point")
    p_eval.add_argument("map", choices=MAP_NAMES)
    p_eval.add_argument("--m", type=int, required=True)
    p_eval.add_argument("--k", type=int, default=1)
    p_eval.add_argument("--alpha", type=int, default=0, choices=(0, 1))
    p_eval.add_argument("--beta", type=int, default=0, choices=(0, 1))
    p_eval.add_argument("--gamma", type=int, default=0, choices=(0, 1))
    p_eval.add_argument("--x", help="field element as lowercase hex")
    p_eval.add_argument("--z", help="extension element as packed hex, or 'inf'")
    p_eval.add_argument("--v", type=int, default=0, choices=(0, 1))
    p_eval.add_argument("--n", type=int, default=1, help="Dickson index")
    p_eval.add_argument("--a", default="1",
                        help="Dickson parameter a (hex), recurrence only unless 1")
    p_eval.add_argument("--method", choices=("recurrence", "closed_form", "functional"),
                        default="recurrence")
    p_eval.add_argument("--cross-check", action="store_true")
    p_eval.set_defaults(fn=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="main-theorem permutation sweep")
    p_sweep.add_argument("--m-min", type=int, default=2)
    p_sweep.add_argument("--m-max", type=int, default=12)
    p_sweep.add_argument("--k-min", type=int, default=1)
    p_sweep.add_argument("--k-max", type=int, default=1 << 30)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_expand = sub.add_parser("expand", help="symbolic exponent-set expansion of H")
    p_expand.add_argument("--m", type=int, required=True)
    p_expand.add_argument("--k", type=int, required=True)
    p_expand.add_argument("--alpha", type=int, default=0, choices=(0, 1))
    p_expand.add_argument("--gamma", type=int, default=0, choices=(0, 1))
    p_expand.add_argument("--reduce", action="store_true",
                          help="reduce mod X^q - X before printing")
    p_expand.set_defaults(fn=cmd_expand)

    p_verify = sub.add_parser("verify", help="run the verification checkers")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--m-max", type=int, default=0,
                          help="cap the sweep degree, at least 2 (0 = per-suite default)")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PermpolyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
