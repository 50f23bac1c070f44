"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is exact integer arithmetic; the runtime
targets are asserted as stated.
"""

import json
import time

import numpy as np

from overcong import (CongruenceClaim, GAMMA0, GAMMA1, ResidueRing,
                      SpaceLabel, TruncSeries, check_claim_direct,
                      expand_monomial, extract_progression, one_series,
                      progression_limit, r_m_bruteforce, r_m_exact,
                      ring_invert, ring_mul, ring_pow, scan, sturm_bound,
                      theta_phi, verify_identity, verify_lemma1)
from overcong.cli import main as cli_main
from overcong.halfint import basis_monomials, hecke_T, sieve_progression


def report(number, description, ok):
    print(f"\nCRITERION {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def run_cli_json(capsys, *argv):
    code = cli_main(["--output", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_mod11_proof(capsys):
    start = time.perf_counter()
    code, payload = run_cli_json(capsys, "prove", "thm11")
    elapsed = time.perf_counter() - start
    steps = {s["name"]: s for s in payload["steps"]}
    ok = (code == 0 and payload["pass"]
          and steps["decompose"]["witness"] == [1, 1, 0]
          and steps["sturm-progression-check"]["witness"]["bound"] == 289
          and steps["sturm-progression-check"]["witness"]["indices_checked"] == 36
          and steps["sturm-progression-check"]["witness"]["first_nonzero"] is None
          and elapsed < 10.0)
    report(1, f"prove thm11: decomposition (1,1,0), 36 indices vanish "
              f"through 289 ({elapsed:.1f}s)", ok)


def test_criterion_2_mod13_proof(capsys):
    start = time.perf_counter()
    code, payload = run_cli_json(capsys, "prove", "thm13")
    elapsed = time.perf_counter() - start
    steps = {s["name"]: s for s in payload["steps"]}
    ok = (code == 0 and payload["pass"]
          and steps["decompose"]["witness"] == [1, 4, 1, 0]
          and steps["sturm-progression-check"]["witness"]["bound"] == 705
          and steps["sturm-progression-check"]["witness"]["indices_checked"] == 88
          and steps["sturm-progression-check"]["witness"]["first_nonzero"] is None
          and payload["limits"]["largest_series_index"] == 45120
          and elapsed < 60.0)
    report(2, f"prove thm13: decomposition (1,4,1,0), 88 indices vanish "
              f"through 705, expansion to 45120 ({elapsed:.1f}s)", ok)


def test_criterion_3_direct_crosschecks():
    status11, support11, ce11 = check_claim_direct(
        CongruenceClaim(11, 11, (8, 5)), 100)
    status13, support13, ce13 = check_claim_direct(
        CongruenceClaim(13, 13 * 64, (8, 7)), 100)
    ok = (status11 == "verified" and support11 == 101 and ce11 is None
          and status13 == "verified" and support13 == 101 and ce13 is None)
    report(3, "generating-function checks: pbar(11(8n+5)) mod 11 and "
              "pbar(13*64(8n+7)) mod 13 vanish for n <= 100", ok)


def test_criterion_4_identity_verification():
    rep17 = verify_identity(17, 2000)
    rep23 = verify_identity(23, 2000)
    derived17 = next(s for s in rep17.steps if s.name == "independent-derivation")
    derived23 = next(s for s in rep23.steps if s.name == "independent-derivation")
    ok = (rep17.passed and rep23.passed
          and derived17.witness == [1, 13, 13, 0]
          and derived23.witness == [1, 9, 5, 14, 17, 20])
    report(4, "identities mod 17 and mod 23 hold through q^2000 with "
              "coefficient vectors (1,13,13,0) and (1,9,5,14,17,20)", ok)


def test_criterion_5_prime_power_congruence_suite():
    pairs = ((2, 1), (3, 2), (5, 1), (11, 1), (13, 1))
    ok = all(verify_lemma1(p, alpha, 500) for p, alpha in pairs)
    report(5, "Euler-product congruence exact in Z/p^a for "
              "(p,a) in {(2,1),(3,2),(5,1),(11,1),(13,1)} through q^500", ok)


def test_criterion_6_bound_regression():
    b9 = sturm_bound(SpaceLabel(9, 256, GAMMA0))
    b11 = sturm_bound(SpaceLabel(11, 512, GAMMA0))
    b15 = sturm_bound(SpaceLabel(15, 340736, GAMMA1))
    b21 = sturm_bound(SpaceLabel(21, 562432, GAMMA1))
    ok = (b9.bound == 289 and b11.bound == 705
          and progression_limit(b15, 88) == 1_226_649_601
          and progression_limit(b21, 104) == 3_968_520_193)
    report(6, "bounds reproduce 289, 705, 1226649601, 3968520193 exactly", ok)


def test_criterion_7_scanner_rediscovery():
    start = time.perf_counter()
    found7 = scan(7, [16], [56], 10 ** 6, min_support=20, max_index=10 ** 6)
    found17 = scan(17, [17 * 11 ** 2], [88], 10 ** 6, min_support=20,
                   max_index=5 * 10 ** 6)
    # At the 5e6 index budget the mod-23 progressions carry 12-13 samples.
    found23 = scan(23, [23 * 13 ** 2], [104], 10 ** 6, min_support=10,
                   max_index=5 * 10 ** 6)
    found5 = scan(5, [1], [40], 10 ** 6, min_support=20, max_index=10 ** 6)

    def offsets(claims):
        return sorted(c.progression[1] for c in claims)

    # Every emitted claim must survive an independent re-check on a larger
    # sample than the scan itself used.
    agreement = all(
        check_claim_direct(claim, 10 ** 6, max_index=budget)[0] == "verified"
        for claims, budget in ((found7, 1_500_000), (found17, 6_000_000),
                               (found23, 6_000_000), (found5, 1_500_000))
        for claim in claims)
    elapsed = time.perf_counter() - start

    cond7 = {c.conditions for c in found7}
    cond17 = {c.conditions for c in found17}
    cond23 = {c.conditions for c in found23}
    ok = (offsets(found7) == [11, 43, 51]
          and offsets(found17) == [19, 35, 43, 51, 83]
          and offsets(found23) == [29, 53, 61, 69, 77, 101]
          and cond7 == {(("residue", 8, (3,)), ("kronecker", 7, 1))}
          and cond17 == {(("residue", 8, (3,)), ("kronecker", 11, -1))}
          and cond23 == {(("residue", 8, (5,)), ("kronecker", 13, 1))}
          and (40, 35) in {c.progression for c in found5}
          and agreement
          and elapsed < 600.0)
    report(7, f"scanner finds the residue sets {{11,43,51}}, "
              f"{{19,35,43,51,83}}, {{29,53,61,69,77,101}} with their mod-8 "
              f"and Kronecker conditions, and pbar(40n+35) mod 5 "
              f"({elapsed:.0f}s)", ok)


def test_criterion_8_oracle_suites():
    ok = True
    # Representation counts against the lattice enumeration oracle.
    for m_exp in (2, 10, 12):
        exact = r_m_exact(m_exp, 50)
        ok = ok and all(exact[n] == r_m_bruteforce(n, m_exp) for n in range(51))
    # Inversion: f * (1/f) = 1 for a sparse and a dense unit series.
    ring = ResidueRing(13)
    phi = theta_phi(400, ring)
    ok = ok and ring_mul(phi, ring_invert(phi)) == one_series(ring, 400)
    rng = np.random.default_rng(2)
    dense = TruncSeries(ring, np.concatenate([[1], rng.integers(0, 13, 400)]), 400)
    ok = ok and ring_mul(dense, ring_invert(dense)) == one_series(ring, 400)
    # Ring laws on random triples.
    f, g, h = (TruncSeries(ring, rng.integers(0, 13, 65), 64) for _ in range(3))
    ok = ok and ring_mul(ring_mul(f, g), h) == ring_mul(f, ring_mul(g, h))
    ok = ok and ring_mul(f, g) == ring_mul(g, f)
    # Hecke action reduces to coefficient extraction mod ell.
    for ell, k2 in ((11, 10), (13, 12)):
        ring_l = ResidueRing(ell)
        label = SpaceLabel(k2, 4, GAMMA0, -4 if k2 % 4 == 2 else 1)
        power = ring_pow(theta_phi(ell * 500, ring_l), k2)
        ok = ok and (hecke_T(power, label, ell)
                     == extract_progression(power, ell, 0, compact=True))
    # Triangularity of the monomial basis.
    for k2 in range(1, 25):
        for a, b in basis_monomials(k2).monomials:
            series = expand_monomial(a, b, 64, ring)
            ok = ok and not series.coeffs[:b].any() and series.coeffs[b] == 1
    # Sieve support contract.
    sample = TruncSeries(ring, rng.integers(0, 13, 1001), 1000)
    sieved, _ = sieve_progression(sample, SpaceLabel(9, 4), 3, 8, 5)
    ok = ok and all(
        sieved.coeffs[n] == (sample.coeffs[3 * n] if n % 8 == 5 else 0)
        for n in range(sieved.trunc + 1))
    report(8, "oracle suites: representation counts, inversion, ring laws, "
              "Hecke-vs-extraction, triangularity, sieve support", ok)
