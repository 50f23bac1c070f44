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
from dataclasses import dataclass

from . import prover, sturm
from .halfint import GAMMA0, GAMMA1, SpaceLabel, decompose
# load_series stays bound here: perfbench's tracer self-test checks that the
# tracer rebinds it at every import site, this one included.
from .modseries import ResidueRing, TruncSeries, load_series  # noqa: F401
from .qgen import (EtaQuotient, eta_quotient, overpartition_series,
                   r_m_series, theta_phi, weight2_form)

CACHE_ENV = "OVERCONG_CACHE_DIR"


@dataclass
class RunConfig:
    subcommand: str
    modulus: int | None = None
    truncation: int | None = None
    output: str = "text"
    threads: int = 1
    cache_dir: str | None = None


def _emit(config: RunConfig, payload: dict, text: str) -> None:
    if config.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _generator(name: str, ring: ResidueRing):
    """(shift, build) for a named generator: build(trunc, ring, known) gives
    its series through q^trunc, which runs `shift` terms past the requested
    truncation (an eta quotient's leading q-power)."""
    if name == "phi":
        return 0, lambda t, r, known: theta_phi(t, r)
    if name == "F":
        return 0, lambda t, r, known: weight2_form(t, r)
    if name == "overpartition":
        return 0, overpartition_series
    if name.startswith("rm:"):
        m_exp = int(name[3:])
        return 0, lambda t, r, known: r_m_series(m_exp, t, r)
    if name.startswith("eta:"):
        factors = []
        for part in name[4:].split(","):
            delta, _, power = part.partition("^")
            factors.append((int(delta), int(power) if power else 1))
        factors.sort()
        quotient = EtaQuotient(tuple(factors))
        # The empty expansion reports the leading power, or why it is not
        # an integral, nonnegative one.
        shift = eta_quotient(quotient, 0, ring).to_series().trunc
        return shift, lambda t, r, known: eta_quotient(quotient, t - shift, r).to_series()
    raise ValueError(f"unknown generator {name!r}")


def _generator_series(name: str, trunc: int, ring: ResidueRing) -> TruncSeries:
    shift, build = _generator(name, ring)
    coeffs = prover.STORE.coefficients(name, ring, trunc + shift, build)
    return TruncSeries(ring, coeffs, trunc + shift)


def _report_exit(config: RunConfig, report: prover.ProofReport) -> int:
    payload = report.to_dict()
    if config.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"claim: {report.claim}")
        for step in report.steps:
            flag = "ok" if step.passed else "FAIL"
            print(f"  [{flag}] {step.name}: {step.witness}")
        print(f"result: {'PASS' if report.passed else 'FAIL'}  limits: {report.limits}")
    print(report.timing_summary(), file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_expand(config: RunConfig, args) -> int:
    ring = ResidueRing(args.mod)
    series = _generator_series(args.generator, args.trunc, ring)
    coeffs = [int(c) for c in series.coeffs]
    _emit(config, {"generator": args.generator, "modulus": args.mod,
                   "trunc": series.trunc, "coefficients": coeffs},
          " ".join(str(c) for c in coeffs))
    return 0


def _cmd_decompose(config: RunConfig, args) -> int:
    if args.input:
        with open(args.input) as fh:
            data = fh.read()
    else:
        data = sys.stdin.read()
    coeffs = [int(tok) for tok in data.split()]
    series = TruncSeries(ResidueRing(args.mod), coeffs)
    try:
        dec = decompose(series, args.k2)
    except ValueError as exc:
        _emit(config, {"k2": args.k2, "pass": False, "witness": str(exc)},
              f"FAIL: {exc}")
        return 1
    _emit(config, {"k2": args.k2, "pass": True, "coefficients": list(dec.coeffs)},
          " ".join(str(c) for c in dec.coeffs))
    return 0


def _cmd_bound(config: RunConfig, args) -> int:
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
    _emit(config, payload, text)
    return 0


def _cmd_prove(config: RunConfig, args) -> int:
    if args.theorem == "thm11":
        report = prover.prove_theorem_mod11()
    else:
        report = prover.prove_theorem_mod13()
    return _report_exit(config, report)


def _cmd_verify_identity(config: RunConfig, args) -> int:
    report = prover.verify_identity(args.modulus, args.trunc)
    return _report_exit(config, report)


def _cmd_lemma1(config: RunConfig, args) -> int:
    ok = prover.verify_lemma1(args.p, args.alpha, args.trunc)
    _emit(config, {"p": args.p, "alpha": args.alpha, "trunc": args.trunc, "pass": ok},
          f"lemma1 p={args.p} alpha={args.alpha} trunc={args.trunc}: "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_scan(config: RunConfig, args) -> int:
    claims = prover.scan(args.mod, args.d, args.A, args.nmax,
                         min_support=args.min_support, max_index=args.max_index,
                         threads=config.threads)
    payload = {"modulus": args.mod, "claims": [c.to_dict() for c in claims]}
    lines = [c.describe() + f"  [support {c.support}]" for c in claims]
    _emit(config, payload, "\n".join(lines) if lines else "no congruences found")
    return 0


def _cmd_check(config: RunConfig, args) -> int:
    claim = prover.CongruenceClaim.from_dict(json.loads(args.claim))
    status, support, counterexample = prover.check_claim_direct(claim, args.nmax)
    payload = {"claim": claim.to_dict(), "status": status, "support": support,
               "counterexample": counterexample}
    text = f"{claim.describe()}: {status} (support {support})"
    if counterexample is not None:
        text += f", counterexample at index {counterexample}"
    _emit(config, payload, text)
    return 0 if status == "verified" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overcong",
        description="q-series congruence prover for the overpartition function")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--threads", type=_positive, default=1)
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
    p.add_argument("--level", type=_positive, required=True)
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


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _parse_progression(text: str) -> tuple[int, int]:
    a, _, b = text.partition(",")
    return _positive(a), _nonnegative(b)


def _positive_list(text: str) -> list[int]:
    return [_positive(tok) for tok in text.split(",")]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(subcommand=args.subcommand,
                       modulus=getattr(args, "mod", None),
                       truncation=getattr(args, "trunc", None),
                       output=args.output, threads=args.threads,
                       cache_dir=args.cache_dir)
    prover.STORE.reset(config.cache_dir)
    try:
        return args.func(config, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
