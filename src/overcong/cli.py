"""Command-line front end.

Subcommands cover series expansion, basis decomposition, verification-bound
arithmetic, the two mechanical proofs, identity verification, the Euler
product congruence check, scanning, and direct claim checking.  Reports are
printed as text or JSON; timing lines go to stderr so identical invocations
produce identical stdout.

Exit codes: 0 all checks pass, 1 mathematical failure (a witness is
printed), 2 usage or budget error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import modseries, prover, sturm
from .halfint import GAMMA0, GAMMA1, SpaceLabel, decompose
from .modseries import TRUNC_CAP, ResidueRing, TruncSeries
from .qgen import (EtaQuotient, eta_quotient, leading_shift, r_m_series, theta_phi,
                   weight2_form)
# Bound here although cli does not call them: perfbench's tracer self-test
# checks that the tracer rebinds them at every import site, this one included.
from .modseries import load_series  # noqa: F401
from .qgen import overpartition_series  # noqa: F401

CACHE_ENV = "OVERCONG_CACHE_DIR"


def _emit(args, payload: dict, text: str) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _generator_series(name: str, trunc: int, ring: ResidueRing) -> TruncSeries:
    """The named generator through q^trunc; an eta quotient runs past it by
    its leading q-power.  Only the overpartition stream goes through the
    coefficient store."""
    shift = 0
    if name.startswith("eta:"):
        factors = []
        for part in name[4:].split(","):
            delta, _, power = part.partition("^")
            factors.append((int(delta), int(power) if power else 1))
        factors.sort()
        quotient = EtaQuotient(tuple(factors))
        shift = leading_shift(quotient.prefactor24)
    # Checked before anything is allocated, in the store's wording, so a bad
    # leading power or one that runs past the cap costs no expansion.
    if trunc + shift > TRUNC_CAP:
        raise ValueError(f"truncation must lie in [0, {TRUNC_CAP}], got {trunc + shift}")
    if name == "overpartition":
        # The constructor reduces the stream mod ring.modulus.
        return TruncSeries(ring, prover._pbar_stream(ring.modulus, trunc), trunc)
    if name == "phi":
        return theta_phi(trunc, ring)
    if name == "F":
        return weight2_form(trunc, ring)
    if name.startswith("rm:"):
        return r_m_series(int(name[3:]), trunc, ring)
    if name.startswith("eta:"):
        return eta_quotient(quotient, trunc, ring).to_series()
    raise ValueError(f"unknown generator {name!r}")


def _report_exit(args, report: prover.ProofReport) -> int:
    payload = report.to_dict()
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"claim: {report.claim}")
        for step in report.steps:
            flag = "ok" if step.passed else "FAIL"
            print(f"  [{flag}] {step.name}: {step.witness}")
        print(f"result: {'PASS' if report.passed else 'FAIL'}  limits: {report.limits}")
    print(report.timing_summary(), file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_expand(args) -> int:
    ring = ResidueRing(args.mod)
    series = _generator_series(args.generator, args.trunc, ring)
    coeffs = [int(c) for c in series.coeffs]
    _emit(args, {"generator": args.generator, "modulus": args.mod,
                 "trunc": series.trunc, "coefficients": coeffs},
          " ".join(str(c) for c in coeffs))
    return 0


def _cmd_decompose(args) -> int:
    if args.input:
        with open(args.input) as fh:
            data = fh.read()
    else:
        data = sys.stdin.read()
    ring = ResidueRing(args.mod)
    series = TruncSeries(ring, [int(tok) % ring.modulus for tok in data.split()])
    # Too few coefficients is a usage error, found before any basis is built.
    if series.trunc < args.k2 // 4:
        raise ValueError(f"truncation {series.trunc} too small for k2={args.k2}")
    try:
        dec = decompose(series, args.k2)
    except ValueError as exc:
        _emit(args, {"k2": args.k2, "pass": False, "witness": str(exc)},
              f"FAIL: {exc}")
        return 1
    _emit(args, {"k2": args.k2, "pass": True, "coefficients": list(dec.coeffs)},
          " ".join(str(c) for c in dec.coeffs))
    return 0


def _cmd_bound(args) -> int:
    group = GAMMA0 if args.group == "g0" else GAMMA1
    label = SpaceLabel(args.weight2, args.level, group)
    budget = sturm.sturm_bound(label)
    payload = {"label": label.describe(), "effective_weight": budget.effective_weight,
               "index": budget.index, "bound": budget.bound}
    text = (f"{label.describe()}: effective weight {budget.effective_weight}, "
            f"index {budget.index}, bound {budget.bound}")
    if args.progression:
        a, b = args.progression
        if args.level % (a * a) != 0:
            print(f"error: progression step {a} does not pair with level "
                  f"{args.level} ({a}^2 does not divide it)", file=sys.stderr)
            return 2
        limit = sturm.progression_limit(budget, a, b if group == GAMMA0 else None)
        payload["progression"] = {"A": a, "B": b, "max_n": limit}
        text += f", progression {a}n+{b}: n <= {limit}"
    _emit(args, payload, text)
    return 0


def _cmd_prove(args) -> int:
    if args.theorem == "thm11":
        report = prover.prove_theorem_mod11()
    else:
        report = prover.prove_theorem_mod13()
    return _report_exit(args, report)


def _cmd_verify_identity(args) -> int:
    report = prover.verify_identity(args.modulus, args.trunc)
    return _report_exit(args, report)


def _cmd_lemma1(args) -> int:
    ok = prover.verify_lemma1(args.p, args.alpha, args.trunc)
    _emit(args, {"p": args.p, "alpha": args.alpha, "trunc": args.trunc, "pass": ok},
          f"lemma1 p={args.p} alpha={args.alpha} trunc={args.trunc}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_scan(args) -> int:
    claims = prover.scan(args.mod, args.d, args.A, args.nmax,
                         min_support=args.min_support, max_index=args.max_index)
    payload = {"modulus": args.mod, "claims": [c.to_dict() for c in claims]}
    lines = [c.describe() + f"  [support {c.support}]" for c in claims]
    _emit(args, payload, "\n".join(lines) if lines else "no congruences found")
    return 0


def _cmd_check(args) -> int:
    try:
        claim = prover.CongruenceClaim.from_dict(json.loads(args.claim))
    except RecursionError:
        raise ValueError("claim JSON nests too deeply") from None
    status, support, counterexample = prover.check_claim_direct(claim, args.nmax)
    if support == 0:
        raise ValueError(f"{claim.describe()} tests no index for n <= {args.nmax}")
    payload = {"claim": claim.to_dict(), "status": status, "support": support,
               "counterexample": counterexample}
    text = f"{claim.describe()}: {status} (support {support})"
    if counterexample is not None:
        text += f", counterexample at index {counterexample}"
    _emit(args, payload, text)
    return 0 if status == "verified" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overcong",
        description="q-series congruence prover for the overpartition function")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--threads", type=_positive, default=None,
                        help="most threads a series solve may use, the calling thread "
                             "included (default: two when two or more CPUs are usable; "
                             "1: no pool thread)")
    parser.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV))
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("expand", help="expand a named generator")
    p.add_argument("generator",
                   help="phi | F | overpartition | rm:<m> | eta:<delta^r,...>")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--trunc", type=_nonnegative, required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("decompose", help="monomial-basis coordinates of a series")
    p.add_argument("--k2", type=_positive, required=True)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--input", help="file of whitespace-separated coefficients (default stdin)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("bound", help="group index and verification bound")
    p.add_argument("--weight2", type=_positive, required=True, help="twice the weight")
    p.add_argument("--level", type=_level, required=True)
    p.add_argument("--group", choices=("g0", "g1"), required=True)
    p.add_argument("--progression", type=_parse_progression, metavar="A,B")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("prove", help="run a mechanical congruence proof")
    p.add_argument("theorem", choices=("thm11", "thm13"))
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("verify-identity", help="desk-scale identity check")
    p.add_argument("modulus", type=int, choices=(17, 23))
    p.add_argument("--trunc", type=_nonnegative, default=2000)
    p.set_defaults(func=_cmd_verify_identity)

    p = sub.add_parser("lemma1", help="Euler-product prime-power congruence")
    p.add_argument("--p", type=_positive, required=True)
    p.add_argument("--alpha", type=_positive, default=1)
    p.add_argument("--trunc", type=_nonnegative, default=500)
    p.set_defaults(func=_cmd_lemma1)

    p = sub.add_parser("scan", help="search for vanishing residue classes")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--d", type=_positive_list, required=True, metavar="D[,D...]")
    p.add_argument("--A", type=_positive_list, required=True, metavar="A[,A...]")
    p.add_argument("--nmax", type=_nonnegative, required=True)
    p.add_argument("--min-support", type=_nonnegative, default=prover.DEFAULT_MIN_SUPPORT)
    p.add_argument("--max-index", type=_nonnegative, default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("check", help="test a claim against the coefficient stream")
    p.add_argument("--claim", required=True, help="claim as JSON")
    p.add_argument("--nmax", type=_nonnegative, required=True)
    p.set_defaults(func=_cmd_check)
    return parser


def _int_at_least(low: int, below: int | None = None):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be < {below}, got {value}")
        return value
    return parse


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)
# The level is factorised by trial division; below 2^31, as the moduli are,
# that takes at most ~23000 divisions.
_level = _int_at_least(1, 1 << 31)


def _parse_progression(text: str) -> tuple[int, int]:
    a, _, b = text.partition(",")
    a, b = _positive(a), _nonnegative(b)
    if b >= a:
        raise argparse.ArgumentTypeError(f"offset must satisfy 0 <= B < A, got {a},{b}")
    return a, b


def _positive_list(text: str) -> list[int]:
    return [_positive(tok) for tok in text.split(",")]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    prover.STORE.reset(args.cache_dir)
    modseries._limit_threads(args.threads)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
