"""Command-line interface: tables, norms, algebra tools, verification runs.

Exit codes: 0 pass, 1 verification failure, 2 usage/configuration error.
Config precedence for `verify`: flags > config file > defaults; the env
var CDA_PRECISION overrides the default precision.
"""

import argparse
import dataclasses
import json
import os
import random
import sys
from fractions import Fraction

from . import anagram
from .algebra import CyclicAlgebra, constants_to_json, invert, is_division, relation_mul, tensor
from .basefields import QQ, is_prime
from .errors import CycdivError, ZeroDivisorError
from .kummer import KummerContext, is_norm, norm_formula, norm_oracle, norm_valuation
from .quaternion import QuadraticExtension, anisotropy_sample_test, nonsquare_witness
from .verify import SuiteConfig, albert_setup, export_constants, hahn_tower_context, \
    laurent_context, run_suite

DEFAULT_PRECISION = 20


def _default_precision():
    env = os.environ.get("CDA_PRECISION")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CycdivError(f"CDA_PRECISION must be an integer, got {env!r}")
    return DEFAULT_PRECISION


def _precision(args):
    """The working precision: --prec, else CDA_PRECISION, else the default;
    at least 1, so that a result knows some coefficient."""
    prec = args.prec if args.prec is not None else _default_precision()
    if prec < 1:
        raise CycdivError(f"precision must be at least 1, got {prec}")
    return prec


def _build_context(args):
    prec = _precision(args)
    for flag, value in (("--p", args.p), ("--q", args.q)):
        if not is_prime(value):
            raise CycdivError(f"{flag} {value} is not prime")
    hahn = getattr(args, "hahn", None)
    if getattr(args, "rationals", False):
        if hahn is not None:
            raise CycdivError("--hahn and --rationals choose different base fields")
        if args.q != 2:
            raise CycdivError("the rational base field only supports q = 2 (xi = -1)")
        t = QQ.parse(args.t if args.t is not None else "-1")
        return KummerContext(QQ, 2, t, Fraction(-1))
    if args.t is not None:
        raise CycdivError("--t sets t of the rational base field; use it with --rationals")
    if hahn is not None:
        if hahn != args.p:  # --p is prime by now
            raise CycdivError(f"--hahn {hahn} must equal --p {args.p}: the tower "
                              f"F_p((x^G))((t^G)) has G = Z[1/p]")
        return hahn_tower_context(args.p, args.q, precision=prec)
    return laurent_context(args.p, args.q, precision=prec)


def _build_algebra(args):
    ctx = _build_context(args)
    return CyclicAlgebra(ctx, ctx.F.parse(args.alpha))


def _parse_element(A, text):
    """An element of the algebra A (or of K) from ';'-separated coordinates."""
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != A.n:
        raise CycdivError(f"expected {A.n} ';'-separated coordinates, got {len(parts)}")
    return A.element(A.F.parse(p) for p in parts)


def cmd_anagram_table(args):
    rows = []
    for cls in anagram.all_classes(args.q):
        rows.append({"representative": list(cls.canonical_rep),
                     "multiplicities": list(cls.multiplicities),
                     "class_size": cls.class_size,
                     "level_counts": list(cls.level_counts),
                     "f": cls.coefficient_f(),
                     "in_C0": cls.sum_is_zero_mod_q})
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(f"{'rep':>16} {'mults':>12} {'size':>6} {'N_lambda':>20} {'f':>5} {'C0':>3}")
        for r in rows:
            print(f"{str(tuple(r['representative'])):>16} {str(tuple(r['multiplicities'])):>12} "
                  f"{r['class_size']:>6} {str(tuple(r['level_counts'])):>20} "
                  f"{r['f']:>5} {'yes' if r['in_C0'] else 'no':>3}")
    return 0


def cmd_norm(args):
    ctx = _build_context(args)
    a = _parse_element(ctx, args.element)
    oracle = norm_oracle(a)
    formula = norm_formula(a)
    print(f"oracle  = {ctx.F.to_str(oracle)}")
    print(f"formula = {ctx.F.to_str(formula)}")
    try:
        print(f"valuation = {norm_valuation(a)}")
    except CycdivError:
        pass
    if not ctx.F.eq(oracle, formula):
        print("verification failed: the oracle and the formula disagree on their jointly "
              "known coefficients", file=sys.stderr)
        return 1
    return 0


def cmd_is_norm(args):
    ctx = _build_context(args)
    x = ctx.F.parse(args.x)
    decision = is_norm(ctx, x)
    out = {"verdict": decision.is_norm, "certificate": decision.certificate}
    if decision.preimage is not None:
        out["preimage"] = repr(decision.preimage)
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_algebra_build(args):
    D = _build_algebra(args)
    print(json.dumps({"n": D.n, "q": D.q, "field": repr(D.F),
                      "basis": D.labels,
                      "alpha": D.F.to_str(D.alpha)}, sort_keys=True))
    return 0


def cmd_algebra_certify(args):
    D = _build_algebra(args)
    division, decision = is_division(D)
    out = {"division": division, "certificate": decision.certificate}
    if decision.preimage is not None:
        out["norm_preimage"] = repr(decision.preimage)
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_algebra_mul(args):
    D = _build_algebra(args)
    a = _parse_element(D, args.a)
    b = _parse_element(D, args.b)
    print(repr(relation_mul(a, b)))
    return 0


def cmd_algebra_invert(args):
    D = _build_algebra(args)
    d = _parse_element(D, args.d)
    try:
        print(repr(invert(d)))
    except ZeroDivisorError as exc:
        print(json.dumps({"error": "zero divisor", "kernel": repr(D.element(exc.kernel))}))
        return 1
    return 0


def cmd_algebra_constants(args):
    D = _build_algebra(args)
    export_constants(D, args.out)
    print(f"wrote structure constants (n = {D.n}) to {args.out}")
    return 0


def cmd_albert(args):
    if args.trials < 1:
        raise CycdivError(f"--trials must be at least 1, got {args.trials}")
    R, F, _, _, phi = albert_setup(precision=_precision(args))
    rng = random.Random(f"{args.seed}:albert-cli")
    if args.extension:
        witness, _ = nonsquare_witness(R)
        K = QuadraticExtension(F, F.constant(witness))
        rep = anisotropy_sample_test(phi, K, args.trials, rng)
        extension = "F(sqrt(2 + 2X^2))"
    else:
        rep = anisotropy_sample_test(phi, F, args.trials, rng)
        extension = None
    print(json.dumps({"trials": rep["trials"], "failures": rep["failures"],
                      "extension": extension, "seed": args.seed}, sort_keys=True))
    return 0 if rep["failures"] == 0 else 1


def cmd_biquat_constants(args):
    _, F, D1, D2, _ = albert_setup(precision=_precision(args))
    with open(args.out, "w") as fh:
        fh.write(constants_to_json(tensor(D1, D2).constants, F))
    print(f"wrote structure constants (n = 16) to {args.out}")
    return 0


def _read_config(path):
    """The settings in a ``verify --config`` file: a JSON object whose keys
    are :class:`SuiteConfig` fields (their values are checked by ``validate``)."""
    with open(path) as fh:
        try:
            settings = json.load(fh)
        except ValueError as exc:
            raise CycdivError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(settings, dict):
        raise CycdivError(f"config {path} must hold a JSON object, not {type(settings).__name__}")
    unknown = sorted(set(settings) - {f.name for f in dataclasses.fields(SuiteConfig)})
    if unknown:
        raise CycdivError(f"unknown keys in config {path}: {unknown}")
    return settings


def cmd_verify(args):
    settings = _read_config(args.config) if args.config else {}
    settings.setdefault("precision", _default_precision())
    for key in ("seed", "precision", "trials", "p", "q"):
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    if args.claims is not None:  # an empty --claims is an error, not every claim
        settings["claims"] = args.claims
    config = SuiteConfig(**settings)
    reports = run_suite(config)
    lines = [r.to_json(include_elapsed=args.timings) for r in reports]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.claim} ({r.trials} checks, {r.elapsed:.1f}s)", file=sys.stderr)
    return 1 if failed else 0


def _add_context_args(sub, with_alpha=False):
    sub.add_argument("--p", type=int, default=7, help="residue characteristic (default 7)")
    sub.add_argument("--q", type=int, default=3, help="prime degree (default 3)")
    sub.add_argument("--prec", type=int, default=None,
                     help=f"working precision (default {DEFAULT_PRECISION}, env CDA_PRECISION)")
    sub.add_argument("--hahn", type=int, default=None, metavar="P",
                     help="use the Hahn tower F_p((x^G))((t^G)) with G = Z[1/P], "
                          "P equal to --p")
    sub.add_argument("--rationals", action="store_true",
                     help="base field Q (q = 2 only); use with --t")
    sub.add_argument("--t", default=None,
                     help="t of the rational base field, with --rationals (default -1)")
    if with_alpha:
        sub.add_argument("--alpha", required=True, help="algebra parameter, series syntax")


def build_parser():
    parser = argparse.ArgumentParser(prog="cycdiv",
                                     description="Cyclic division algebras over valued fields")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("anagram-table", help="level counts and coefficients per class")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_anagram_table)

    s = subs.add_parser("norm", help="norm of a Kummer element, oracle and formula")
    _add_context_args(s)
    s.add_argument("--element", required=True, help="';'-separated coordinates b0;...;b_{q-1}")
    s.set_defaults(func=cmd_norm)

    s = subs.add_parser("is-norm", help="norm membership with certificate")
    _add_context_args(s)
    s.add_argument("--x", required=True, help="element of F, series syntax")
    s.set_defaults(func=cmd_is_norm)

    alg = subs.add_parser("algebra", help="cyclic algebra tools")
    alg_subs = alg.add_subparsers(dest="algebra_command", required=True)
    for name, func, extra in [("build", cmd_algebra_build, []),
                              ("certify", cmd_algebra_certify, []),
                              ("mul", cmd_algebra_mul, ["a", "b"]),
                              ("invert", cmd_algebra_invert, ["d"]),
                              ("constants", cmd_algebra_constants, ["out"])]:
        s = alg_subs.add_parser(name)
        _add_context_args(s, with_alpha=True)
        for arg in extra:
            if arg == "out":
                s.add_argument("--out", required=True, help="output JSON path")
            else:
                s.add_argument(f"--{arg}", required=True,
                               help="';'-separated coordinate vector")
        s.set_defaults(func=func)

    s = subs.add_parser("albert", help="Albert-form anisotropy sampling")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--prec", type=int, default=None)
    s.add_argument("--extension", action="store_true",
                   help="sample over the quadratic extension F(sqrt(2 + 2X^2))")
    s.set_defaults(func=cmd_albert)

    bq = subs.add_parser("biquat", help="biquaternion algebra tools")
    bq_subs = bq.add_subparsers(dest="biquat_command", required=True)
    s = bq_subs.add_parser("constants")
    s.add_argument("--out", required=True)
    s.add_argument("--prec", type=int, default=None)
    s.set_defaults(func=cmd_biquat_constants)

    s = subs.add_parser("verify", help="run the verification suite")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--precision", type=int, default=None)
    s.add_argument("--trials", type=int, default=None)
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--q", type=int, default=None)
    s.add_argument("--config", default=None, help="JSON config file")
    s.add_argument("--claims", nargs="*", default=None)
    s.add_argument("--out", default=None, help="write JSON-lines reports here")
    s.add_argument("--timings", action="store_true",
                   help="include elapsed times (breaks byte-for-byte replay)")
    s.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CycdivError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
