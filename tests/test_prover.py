"""Proof pipelines, direct claim checks, and the congruence scanner."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overcong import (CongruenceClaim, ProofReport, ResidueRing,
                      check_claim_direct, kronecker, load_series,
                      overpartition_series, prove_theorem_mod11, scan,
                      verify_identity, verify_lemma1)
from overcong.modseries import cache_filename
from overcong.prover import CoefficientStore, _compress_residues


def test_lemma1_prime_power_suite():
    for p, alpha in ((2, 1), (3, 2), (5, 1), (11, 1), (13, 1)):
        assert verify_lemma1(p, alpha, 500)


def test_lemma1_validation():
    with pytest.raises(ValueError, match="not prime"):
        verify_lemma1(6, 1, 100)
    with pytest.raises(ValueError):
        verify_lemma1(3, 0, 100)


def test_check_claim_chen_xia_progression():
    status, support, counterexample = check_claim_direct(
        CongruenceClaim(5, 1, (40, 35)), 200)
    assert (status, support, counterexample) == ("verified", 201, None)


def test_check_claim_mod11_theorem():
    status, support, counterexample = check_claim_direct(
        CongruenceClaim(11, 11, (8, 5)), 100)
    assert (status, support, counterexample) == ("verified", 101, None)


def test_check_claim_vacuous_modulus():
    status, support, counterexample = check_claim_direct(
        CongruenceClaim(1, 3, (4, 1)), 50)
    assert (status, support, counterexample) == ("verified", 51, None)


def test_check_claim_refuted_with_witness():
    # pbar(0) = 1, so vanishing on every even index fails immediately.
    status, support, counterexample = check_claim_direct(
        CongruenceClaim(3, 1, (2, 0)), 20)
    assert status == "refuted"
    assert counterexample == 0


def test_check_claim_budget():
    with pytest.raises(ValueError, match="budget exceeded"):
        check_claim_direct(CongruenceClaim(7, 10 ** 6, (10 ** 5, 3)), 10 ** 6)


def test_check_claim_with_side_conditions():
    claim = CongruenceClaim(17, 17 * 121, (1, 0),
                            (("residue", 8, (3,)), ("kronecker", 11, -1)))
    status, support, counterexample = check_claim_direct(claim, 180)
    assert status == "verified"
    assert counterexample is None
    # Only the residues passing both side conditions are tested.
    expected = sum(1 for n in range(181)
                   if n % 8 == 3 and kronecker(n, 11) == -1)
    assert support == expected


def test_check_claim_range_follows_the_budget():
    # The t-range comes from max_index, so a huge n_max builds nothing more.
    claims = (CongruenceClaim(5, 1, (40, 35)), CongruenceClaim(5, 1, (40, 3)),
              CongruenceClaim(7, 16, (56, 11),
                              (("residue", 8, (3,)), ("kronecker", 7, 1))))
    for claim in claims:
        a, b = claim.progression
        t_hi = (20_000 // claim.multiplier - b) // a
        assert (check_claim_direct(claim, 10 ** 12, max_index=20_000)
                == check_claim_direct(claim, t_hi, max_index=20_000)
                == check_claim_direct(claim, t_hi))


def test_claim_validation_and_serialisation():
    with pytest.raises(ValueError):
        CongruenceClaim(5, 1, (4, 4))
    claim = CongruenceClaim(7, 16, (56, 11),
                            (("residue", 8, (3,)), ("kronecker", 7, 1)),
                            status="observed", support=30)
    assert CongruenceClaim.from_dict(claim.to_dict()) == claim
    assert "pbar(16*(56n+11))" in claim.describe()
    with pytest.raises(ValueError):
        CongruenceClaim(5, 0, (4, 1))


@pytest.mark.parametrize("data", [
    {}, [1], "claim", {"modulus": 5}, {"progression": [4, 1]},
    {"modulus": "5", "progression": [4, 1]},
    {"modulus": 5, "progression": [4]},
    {"modulus": 5, "progression": [4, 1.5]},
    {"modulus": 0, "progression": [4, 1]},
    {"modulus": 5, "multiplier": -2, "progression": [4, 1]},
    {"modulus": 5, "progression": [4, 1], "conditions": {}},
    {"modulus": 5, "progression": [4, 1], "conditions": [7]},
    {"modulus": 5, "progression": [4, 1], "conditions": [{"type": "parity"}]},
    {"modulus": 5, "progression": [4, 1],
     "conditions": [{"type": "residue", "modulus": 0, "residues": [1]}]},
    {"modulus": 5, "progression": [4, 1],
     "conditions": [{"type": "residue", "modulus": 8, "residues": 3}]},
    {"modulus": 5, "progression": [4, 1], "conditions": [{"type": "kronecker", "p": 7}]},
    {"modulus": 5, "progression": [4, 1], "status": 3},
])
def test_claim_from_dict_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        CongruenceClaim.from_dict(data)


def _fresh(modulus, trunc):
    return overpartition_series(trunc, ResidueRing(modulus)).coeffs


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((2, 7, 17, 65521)),
       st.lists(st.integers(0, 3000), min_size=1, max_size=6),
       st.booleans())
def test_store_grow_shrink_grow_matches_fresh(modulus, truncs, on_disk):
    ring = ResidueRing(modulus)
    with tempfile.TemporaryDirectory() as tmp:
        store = CoefficientStore(tmp if on_disk else None)
        for trunc in truncs:
            got = store.coefficients("overpartition", ring, trunc, overpartition_series)
            assert not got.flags.writeable
            assert np.array_equal(got, _fresh(modulus, trunc))
        if on_disk:
            # A new process starts from the file and grows it further.
            store = CoefficientStore(tmp)
            top = max(truncs) + 500
            got = store.coefficients("overpartition", ring, top, overpartition_series)
            assert np.array_equal(got, _fresh(modulus, top))
            assert load_series(Path(tmp) / cache_filename("overpartition", modulus)).trunc == top


def test_store_extends_the_held_prefix():
    calls = []

    def build(trunc, ring, known):
        calls.append((trunc, None if known is None else len(known)))
        return overpartition_series(trunc, ring, known)

    store = CoefficientStore()
    ring = ResidueRing(7)
    for trunc in (400, 100, 900, 900, 50):
        assert np.array_equal(store.coefficients("overpartition", ring, trunc, build),
                              _fresh(7, trunc))
    assert calls == [(400, None), (900, 401)]
    with pytest.raises(ValueError, match="truncation"):
        store.coefficients("overpartition", ring, -1, build)


def _damage(raw: bytes, how: str) -> bytes:
    if how == "truncated":
        return raw[:len(raw) // 2]
    if how == "empty":
        return b""
    # Byte 21 + 4*100 + 3 is the high byte of the residue of q^100.
    flip = {"magic": 0, "version": 4, "modulus": 5, "trunc": 13,
            "residue": 21 + 4 * 100 + 3}[how]
    # The top bit of a residue, or any header bit, breaks a checked field.
    bit = 0x80 if how == "residue" else 0x01
    return raw[:flip] + bytes([raw[flip] ^ bit]) + raw[flip + 1:]


@pytest.mark.parametrize("how", ["truncated", "empty", "magic", "version",
                                 "modulus", "trunc", "residue", "other-modulus"])
def test_store_recomputes_a_damaged_cache_file(tmp_path, how):
    ring = ResidueRing(11)
    CoefficientStore(str(tmp_path)).coefficients(
        "overpartition", ring, 600, overpartition_series)
    path = tmp_path / cache_filename("overpartition", 11)
    if how == "other-modulus":
        CoefficientStore(str(tmp_path)).coefficients(
            "overpartition", ResidueRing(13), 600, overpartition_series)
        (tmp_path / cache_filename("overpartition", 13)).replace(path)
    else:
        path.write_bytes(_damage(path.read_bytes(), how))
    with pytest.raises(ValueError):
        load_series(path, 11)
    got = CoefficientStore(str(tmp_path)).coefficients(
        "overpartition", ring, 300, overpartition_series)
    assert np.array_equal(got, _fresh(11, 300))
    # The damaged file was overwritten with a valid one.
    assert np.array_equal(load_series(path, 11).coeffs, _fresh(11, 300))


def test_scan_rediscovers_chen_xia_mod5():
    claims = scan(5, [1], [40], 10 ** 5, min_support=20, max_index=200_000)
    assert [(c.multiplier, c.progression) for c in claims] == [(1, (40, 35))]
    # Scanner/checker agreement at a larger budget.
    status, support, counterexample = check_claim_direct(claims[0], 8000)
    assert status == "verified" and counterexample is None and support == 8001


def test_scan_mod7_with_compression():
    claims = scan(7, [16], [56], 10 ** 5, min_support=20, max_index=320_000)
    assert sorted(c.progression[1] for c in claims) == [11, 43, 51]
    for claim in claims:
        assert claim.conditions == (("residue", 8, (3,)), ("kronecker", 7, 1))
        assert claim.status == "observed"
        status, _, counterexample = check_claim_direct(claim, 500)
        assert status == "verified" and counterexample is None


def test_scan_min_support_filters():
    claims = scan(5, [1], [40], 10 ** 5, min_support=10 ** 6, max_index=200_000)
    assert claims == []


def test_scan_deterministic_order_and_threads():
    kwargs = dict(n_max=10 ** 5, min_support=20, max_index=120_000)
    sequential = scan(5, [1, 5], [40, 8], **kwargs)
    threaded = scan(5, [1, 5], [40, 8], threads=4, **kwargs)
    assert sequential == threaded
    keys = [(c.multiplier, c.progression) for c in sequential]
    assert keys == sorted(keys)


def test_compression_two_sign_shape():
    # The 72 residue classes mod 2584 cut by one mod-8 class and two
    # Kronecker signs compress exactly.
    a, d = 2584, 4 * 17 ** 2
    hits = [b for b in range(a)
            if b % 8 == 3 and kronecker(b, 17) == -1 and kronecker(b, 19) == 1]
    assert len(hits) == 72
    conditions = _compress_residues(hits, d, a)
    assert ("residue", 8, (3,)) in conditions
    assert ("kronecker", 17, -1) in conditions
    assert ("kronecker", 19, 1) in conditions


def test_compression_prefers_fewer_conditions():
    hits = [b for b in range(56) if b % 8 == 3]
    assert _compress_residues(hits, 1, 56) == (("residue", 8, (3,)),)
    assert _compress_residues([35], 1, 40) == ()  # no exact template match
    assert _compress_residues([], 1, 40) == ()


def test_verify_identity_small_truncation():
    for modulus in (17, 23):
        report = verify_identity(modulus, 200)
        assert report.passed
        derivation = next(s for s in report.steps if s.name == "independent-derivation")
        expected = [1, 13, 13, 0] if modulus == 17 else [1, 9, 5, 14, 17, 20]
        assert derivation.witness == expected


def test_verify_identity_degenerate_truncation():
    report = verify_identity(17, 0)
    assert report.passed


def test_verify_identity_modulus_validation():
    with pytest.raises(ValueError):
        verify_identity(11, 100)


def test_report_roundtrip_and_determinism():
    first = verify_identity(17, 150)
    second = verify_identity(17, 150)
    assert first.to_dict() == second.to_dict()
    assert ProofReport.from_dict(first.to_dict()).to_dict() == first.to_dict()


def test_prove_mod11_report():
    report = prove_theorem_mod11()
    assert report.passed
    by_name = {s.name: s for s in report.steps}
    assert by_name["decompose"].witness == [1, 1, 0]
    assert by_name["sturm-progression-check"].witness["bound"] == 289
    assert by_name["sturm-progression-check"].witness["indices_checked"] == 36
    assert report.limits["max_n"] == 35
