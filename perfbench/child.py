"""One benchmark child process: runs overcong through its public surface.

    python perfbench/child.py [--spans FILE --run-id ID] cli ARGV...
    python perfbench/child.py [--spans FILE --run-id ID] rediscover
    python perfbench/child.py import-time

`cli` calls ``overcong.cli.main(ARGV)``, which is what ``python -m overcong
ARGV`` runs.  `rediscover` runs the acceptance-criterion-7 scan set through
``overcong.scan`` and ``overcong.check_claim_direct``, prints the claims and
re-check verdicts as one JSON line on stdout and the timings as one JSON line
on stderr.  `import-time` prints the seconds a cold ``import overcong.cli``
takes.  With ``--spans`` the tracer is installed before anything else runs
and the spans are written to FILE when the command ends.
"""

from __future__ import annotations

import json
import sys
import time

# Acceptance criterion 7 with every index budget and minimum support scaled
# by REDISCOVER_SCALE, so that one pass fits a benchmark run.  The scaling is
# uniform, so the ratio of coefficients computed to coefficients needed
# (1.8) is the criterion's own.  Rows: modulus, multiplier d, step A, scan
# budget, minimum support, re-check budget.
REDISCOVER_SCALE = 0.3
CRITERION7 = (
    (7, 16, 56, 1_000_000, 20, 1_500_000),
    (17, 17 * 11 ** 2, 88, 5_000_000, 20, 6_000_000),
    (23, 23 * 13 ** 2, 104, 5_000_000, 10, 6_000_000),
    (5, 1, 40, 1_000_000, 20, 1_500_000),
)
REDISCOVER = tuple(
    (m, d, a, round(budget * REDISCOVER_SCALE), round(support * REDISCOVER_SCALE),
     round(recheck * REDISCOVER_SCALE))
    for m, d, a, budget, support, recheck in CRITERION7)
SCAN_NMAX = 10 ** 6


def rediscover() -> None:
    """All four scans, then every emitted claim re-checked on the larger
    budget, in the order criterion 7 runs them."""
    from overcong import check_claim_direct, scan

    found, scan_s, recheck_s = [], [], []
    for modulus, d, a, budget, support, _ in REDISCOVER:
        start = time.perf_counter()
        found.append(scan(modulus, [d], [a], SCAN_NMAX, min_support=support,
                          max_index=budget))
        scan_s.append(time.perf_counter() - start)
    results = []
    for claims, (modulus, *_, recheck) in zip(found, REDISCOVER):
        start = time.perf_counter()
        verdicts = [list(check_claim_direct(c, SCAN_NMAX, max_index=recheck))
                    for c in claims]
        recheck_s.append(time.perf_counter() - start)
        results.append({"modulus": modulus, "rechecks": verdicts,
                        "claims": [c.to_dict() for c in claims]})
    print(json.dumps(results, sort_keys=True))
    print(json.dumps({"scan_s": scan_s, "recheck_s": recheck_s}), file=sys.stderr)


def main(argv: list[str]) -> int:
    if argv[:1] == ["import-time"]:
        start = time.perf_counter()
        import overcong.cli  # noqa: F401
        print(time.perf_counter() - start)
        return 0
    tracer = None
    spans_path = None
    if argv[:1] == ["--spans"]:
        if len(argv) < 5 or argv[2] != "--run-id":
            print("child.py: --spans FILE needs --run-id ID", file=sys.stderr)
            return 2
        import tracer as tracer_mod
        spans_path, run_id, argv = argv[1], argv[3], argv[4:]
        tracer = tracer_mod.Tracer(run_id)
        tracer_mod.install(tracer)
    try:
        if argv[:1] == ["cli"]:
            from overcong.cli import main as cli_main
            return cli_main(argv[1:])
        if argv == ["rediscover"]:
            rediscover()
            return 0
        print(f"child.py: unknown command {argv!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            sys.stdout.flush()
            tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
