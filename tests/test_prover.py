"""Proof pipelines, direct claim checks, and the congruence scanner."""

import json
import math
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overcong import (CongruenceClaim, ResidueRing, modseries, prover,
                      check_claim_direct, kronecker, load_series,
                      overpartition_series, prove_theorem_mod11, scan,
                      verify_identity, verify_lemma1)
from overcong.chars import factorize
from overcong.modseries import TRUNC_CAP, transform
from overcong.qgen import theta_phi2, theta_phi4
from overcong.prover import (INDEX_HARD_CAP, PRIMORIAL_23, STORE, CoefficientStore,
                             _compress_residues, _pbar_stream, cache_filename)


def reference_scan(modulus, d_list, a_list, n_max, min_support, max_index):
    """scan's claims, found one offset at a time: for each (d, A) and each
    offset B in budget, gather pbar(d*(A*t+B)) for every tested t."""
    pb = _pbar_stream(modulus, max_index) % modulus
    claims = []
    for d in d_list:
        for a in a_list:
            hits, supports = [], {}
            for b in range(min(a, max_index // d + 1)):
                t_hi = min((max_index // d - b) // a, n_max)
                if t_hi < 0 or t_hi + 1 < min_support:
                    continue
                # Built by arange: a step past int64 still yields its one term.
                vals = pb[np.arange(d * b, d * (a * t_hi + b) + 1, d * a, dtype=np.int64)]
                if not vals.any():
                    hits.append(b)
                    supports[b] = t_hi + 1
            conditions = _compress_residues(hits, a)
            claims += [CongruenceClaim(modulus, d, (a, b), conditions,
                                       status="observed", support=supports[b])
                       for b in hits]
    claims.sort(key=lambda c: (c.multiplier, c.progression))
    return claims


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


def test_check_claim_vacuous_modulus_keeps_the_budget():
    # Mod 1 tests the same indices as any modulus: t <= (300//3 - 1)//4 = 24.
    assert check_claim_direct(CongruenceClaim(1, 3, (4, 1)), 50,
                              max_index=300) == ("verified", 25, None)
    with pytest.raises(ValueError, match="budget exceeded"):
        check_claim_direct(CongruenceClaim(1, 3, (4, 1)), 10 ** 7)


def test_check_claim_on_an_empty_support_reports_zero():
    # n = 8t + 3 is never 5 mod 8; the API reports the empty support and
    # the CLI turns it into a usage error.
    claim = CongruenceClaim(7, 1, (8, 3), (("residue", 8, (5,)),))
    assert check_claim_direct(claim, 10) == ("verified", 0, None)


def test_check_claim_refuted_with_witness():
    # pbar(0) = 1, so vanishing on every even index fails immediately.
    status, support, counterexample = check_claim_direct(
        CongruenceClaim(3, 1, (2, 0)), 20)
    assert status == "refuted"
    assert counterexample == 0


def test_check_claim_budget():
    # d*(a*0 + b) = 3e6 fits in 2^24 but d*(a*1 + b) does not.
    with pytest.raises(ValueError, match="budget exceeded.*n_max <= 0 stays within it"):
        check_claim_direct(CongruenceClaim(7, 10 ** 6, (10 ** 5, 3)), 10 ** 6)
    with pytest.raises(ValueError, match="no n_max stays within it"):
        check_claim_direct(CongruenceClaim(7, 10 ** 6, (10 ** 5, 17)), 1)


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


@pytest.mark.parametrize("modulus", [5, 7, 17, 23, 29])
def test_recheck_verdicts_match_the_reduced_stream(modulus):
    # check_claim_direct reduces only the entries it gathers from the shared
    # stream; its verdicts must be those read off the stream mod `modulus`.
    top = 6000
    pb = _fresh(modulus, top)
    rng = np.random.default_rng(modulus)
    zero = int(np.flatnonzero(pb == 0)[3])
    claims = [CongruenceClaim(modulus, 1, (top + 1, zero)),
              CongruenceClaim(modulus, 5, (8, 3), (("residue", 8, (3,)),)),
              CongruenceClaim(modulus, 2, (24, 7),
                              (("residue", 8, (7,)), ("kronecker", 3, -1)))]
    claims += [CongruenceClaim(modulus, int(rng.integers(1, 30)), (int(a), int(rng.integers(0, a))))
               for a in rng.integers(1, 200, 6)]
    for claim in claims:
        a, b = claim.progression
        d = claim.multiplier
        ns = [a * t + b for t in range(top + 1) if d * (a * t + b) <= top]
        ns = [n for n in ns if claim.condition_holds(n)]
        bad = [d * n for n in ns if pb[d * n] != 0]
        expected = (("refuted", len(ns), bad[0]) if bad else ("verified", len(ns), None))
        assert check_claim_direct(claim, top, max_index=top) == expected
    assert check_claim_direct(claims[0], top, max_index=top) == ("verified", 1, None)


_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 65521, (1 << 31) - 1)


@st.composite
def _claim_and_indices(draw):
    conditions = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            s = draw(st.integers(1, 40))
            residues = draw(st.sets(st.integers(0, s - 1), min_size=1))
            conditions.append(("residue", s, tuple(sorted(residues))))
        else:
            conditions.append(("kronecker", draw(st.sampled_from(_ODD_PRIMES)),
                               draw(st.sampled_from((-1, 1)))))
    claim = CongruenceClaim(7, 1, (1, 0), tuple(conditions))
    if draw(st.booleans()):
        a = draw(st.integers(1, 400))
        b = draw(st.integers(0, a - 1))
        ns = a * np.arange(draw(st.integers(0, 300)), dtype=np.int64) + b
    else:
        ns = np.array(draw(st.lists(st.integers(0, 1 << 40), max_size=200)), dtype=np.int64)
    return claim, ns


@settings(max_examples=150, deadline=None)
@given(_claim_and_indices())
def test_condition_mask_matches_condition_holds(case):
    claim, ns = case
    mask = claim.condition_mask(ns)
    assert mask.dtype == bool and mask.shape == ns.shape
    assert mask.tolist() == [claim.condition_holds(n) for n in ns.tolist()]


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
    {"modulus": 5, "progression": [4, 1],
     "conditions": [{"type": "kronecker", "p": 7, "sign": 5}]},
    {"modulus": 5, "progression": [4, 1],
     "conditions": [{"type": "residue", "modulus": 8, "residues": [9]}]},
    {"modulus": 5, "progression": [4, 1],
     "conditions": [{"type": "residue", "modulus": 8, "residues": []}]},
    *({"modulus": 5, "progression": [4, 1],
       "conditions": [{"type": "kronecker", "p": p, "sign": 1}]}
      for p in (0, 1, 2, 9, -7, 2**31 + 11)),
])
def test_claim_from_dict_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        CongruenceClaim.from_dict(data)


def _fresh(modulus, trunc):
    return overpartition_series(trunc, ResidueRing(modulus)).coeffs


# Divisors of 23# share its stream; 29, 121 and 65521 keep their own.
@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 7, 17, 23, 35, PRIMORIAL_23, 29, 121, 65521)),
       st.lists(st.integers(0, 3000), min_size=1, max_size=6),
       st.booleans())
def test_store_grow_shrink_grow_matches_fresh(modulus, truncs, on_disk):
    stream = PRIMORIAL_23 if PRIMORIAL_23 % modulus == 0 else modulus
    with tempfile.TemporaryDirectory() as tmp:
        STORE.reset(tmp if on_disk else None)
        for trunc in truncs:
            got = _pbar_stream(modulus, trunc)
            assert not got.flags.writeable
            assert np.array_equal(got % modulus, _fresh(modulus, trunc))
        if on_disk:
            # A new process starts from the file and grows it further.
            STORE.reset(tmp)
            top = max(truncs) + 500
            assert np.array_equal(_pbar_stream(modulus, top) % modulus, _fresh(modulus, top))
            assert [p.name for p in Path(tmp).iterdir()] == [cache_filename(stream)]
            assert load_series(Path(tmp) / cache_filename(stream)).trunc == top


def test_divisors_of_the_primorial_share_one_stream(tmp_path):
    STORE.reset(str(tmp_path))
    for modulus in (7, 17, 23, 5):
        assert np.array_equal(_pbar_stream(modulus, 2000) % modulus, _fresh(modulus, 2000))
    assert [p.name for p in tmp_path.iterdir()] == [cache_filename(PRIMORIAL_23)]
    with pytest.raises(ValueError, match="modulus"):
        _pbar_stream(1, 10)


def test_store_extends_the_held_prefix():
    calls = []

    def build(trunc, ring, out, start):
        calls.append((trunc, start or None))
        return overpartition_series(trunc, ring, out, start)

    store = CoefficientStore()
    ring = ResidueRing(7)
    for trunc in (400, 100, 900, 900, 50):
        assert np.array_equal(store.coefficients(ring, trunc, build),
                              _fresh(7, trunc))
    assert calls == [(400, None), (900, 401)]
    with pytest.raises(ValueError, match="truncation"):
        store.coefficients(ring, -1, build)


def test_views_survive_growth_in_place_and_past_capacity():
    # The first build reserves capacity 2 * 301: a growth to 500 writes in
    # place, one to 5000 moves the stream to a new buffer.  Views handed
    # out before either stay read-only and keep their values.
    store = CoefficientStore()
    ring = ResidueRing(PRIMORIAL_23)
    first = store.coefficients(ring, 300, overpartition_series)
    within = store.coefficients(ring, 500, overpartition_series)
    assert np.shares_memory(first, within)
    past = store.coefficients(ring, 5000, overpartition_series)
    assert not np.shares_memory(first, past)
    want = _fresh(PRIMORIAL_23, 5000)
    for view in (first, within, past):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0
        assert np.array_equal(view, want[:len(view)])
    beyond = store.coefficients(ring, 20_000, overpartition_series)
    assert np.array_equal(beyond, _fresh(PRIMORIAL_23, 20_000))
    for view in (first, within, past):
        assert np.array_equal(view, want[:len(view)])


@pytest.mark.parametrize("trunc", [500, 5000])
def test_a_failed_build_leaves_the_held_stream_intact(trunc):
    # A leaf fails after earlier leaves have written their coefficients,
    # within the capacity (500) and past it (5000): the store keeps its
    # length and values, and the next request grows it as a fresh solve.
    store = CoefficientStore()
    ring = ResidueRing(PRIMORIAL_23)
    held = store.coefficients(ring, 300, overpartition_series)
    kept = held.copy()
    leaves = []
    real_mul = modseries._fft_mul

    def failing_leaf(a, b, n, m, spectra=None, share=False):
        if spectra is not None:
            leaves.append(n)
            if len(leaves) == 4:
                raise ArithmeticError("leaf failed its rounding check")
        return real_mul(a, b, n, m, spectra, share)

    def unexpected(trunc, ring, out, start):
        raise AssertionError(f"rebuilt from {start}")

    with mock.patch.object(modseries, "_SOLVE_BLOCK", 16), \
            mock.patch.object(modseries, "_fft_mul", failing_leaf):
        with pytest.raises(ArithmeticError):
            store.coefficients(ring, trunc, overpartition_series)
    assert len(leaves) == 4
    assert np.array_equal(held, kept)
    again = store.coefficients(ring, 300, unexpected)
    assert np.array_equal(again, kept)
    with pytest.raises(AssertionError, match="rebuilt from 301"):
        store.coefficients(ring, 301, unexpected)
    grown = store.coefficients(ring, trunc, overpartition_series)
    assert np.array_equal(grown, _fresh(PRIMORIAL_23, trunc))


def _traced_growth(top_exp):
    # tracemalloc peak, in bytes, of growing the 23# stream from 2^17 to
    # 2^top_exp through the production store path on the calling thread
    # alone, and the stream grown.
    STORE.reset()
    with mock.patch.object(modseries, "_SHARE", False):
        _pbar_stream(PRIMORIAL_23, 1 << 17)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            held = _pbar_stream(PRIMORIAL_23, 1 << top_exp)
            return tracemalloc.get_traced_memory()[1] - base, held
        finally:
            tracemalloc.stop()


# Peak bytes of growing the held 23# stream from 2^17 to 2^18 with no pool,
# numpy 2.4.6, in a fresh process: the traced peak (the accumulator for the
# coefficients added, int64, one leaf's transforms and the head's cached
# spectra) plus the stream, which the store grows in place in an anonymous
# mapping that tracemalloc cannot see (int32, 4 bytes per coefficient).
# Holding the old stream beside a new int32 copy made 4_250_964, and an
# int64 c, cast to int32 for the store, 5_172_476.
_GROWTH_PEAK_BYTES = 3_988_784


def test_store_growth_holds_no_dense_divisor(solver_outputs):
    peak, held = _traced_growth(18)
    assert peak + held.nbytes <= 1.10 * _GROWTH_PEAK_BYTES
    # The store holds the solve's own int32 output: never an int64 stream,
    # never a copy.
    assert len(solver_outputs) == 2 and held.dtype == np.int32
    assert np.shares_memory(held, solver_outputs[-1])


def test_growth_memory_does_not_scale_with_the_growth():
    # acc spans one segment of the growth, never the whole of it: growing
    # 2^17 -> 2^20 (seven segments of 2^18) peaks within a few percent of
    # 2^17 -> 2^19 (three).  An acc over the whole growth took 13.5 MB
    # against 6.9 MB.  (2^17 -> 2^18 spans half a segment, so its acc is
    # half as long.)
    assert _traced_growth(20)[0] <= 1.05 * _traced_growth(19)[0]


def _damage(raw: bytes, how: str) -> bytes:
    if how == "truncated":
        return raw[:len(raw) // 2]
    if how == "empty":
        return b""
    if how == "format-v1":
        # The version 1 layout: the same header and residues, no CRC trailer.
        return raw[:4] + b"\x01" + raw[5:-4]
    # Byte 21 + 4*100 is the low byte of the residue of q^100, byte
    # 21 + 4*100 + 3 its high byte; the last four bytes are the CRC.
    flip = {"magic": 0, "version": 4, "modulus": 5, "trunc": 13,
            "residue": 21 + 4 * 100 + 3, "residue-bit-0": 21 + 4 * 100,
            "crc": len(raw) - 4}[how]
    # The top bit of a residue breaks its range; bit 0 keeps the residue of
    # q^100 below 11 (8 becomes 9), so only the CRC catches it.
    bit = 0x80 if how == "residue" else 0x01
    return raw[:flip] + bytes([raw[flip] ^ bit]) + raw[flip + 1:]


@pytest.mark.parametrize("how", ["truncated", "empty", "magic", "version",
                                 "modulus", "trunc", "residue", "residue-bit-0",
                                 "crc", "format-v1", "other-modulus"])
def test_store_recomputes_a_damaged_cache_file(tmp_path, how):
    ring = ResidueRing(11)
    CoefficientStore(str(tmp_path)).coefficients(ring, 600, overpartition_series)
    path = tmp_path / cache_filename(11)
    if how == "other-modulus":
        CoefficientStore(str(tmp_path)).coefficients(ResidueRing(13), 600,
                                                     overpartition_series)
        (tmp_path / cache_filename(13)).replace(path)
    else:
        path.write_bytes(_damage(path.read_bytes(), how))
    with pytest.raises(ValueError):
        load_series(path, 11)
    got = CoefficientStore(str(tmp_path)).coefficients(ring, 300, overpartition_series)
    assert np.array_equal(got, _fresh(11, 300))
    # The damaged file was overwritten with a valid one.
    assert np.array_equal(load_series(path, 11).coeffs, _fresh(11, 300))


def test_the_cache_file_never_shrinks(tmp_path):
    # Store A grows the stream to 2000; while its build runs, store B on
    # the same directory grows it to 6000.  A's write must not replace B's
    # longer file.
    ring = ResidueRing(11)

    def build_while_another_store_grows(trunc, ring, out, start):
        CoefficientStore(str(tmp_path)).coefficients(ring, 6000, overpartition_series)
        return overpartition_series(trunc, ring, out, start)

    got = CoefficientStore(str(tmp_path)).coefficients(ring, 2000,
                                                       build_while_another_store_grows)
    assert np.array_equal(got, _fresh(11, 2000))
    assert np.array_equal(load_series(tmp_path / cache_filename(11), 11).coeffs,
                          _fresh(11, 6000))


def _r6_signed(trunc, p):
    """(-1)^n r_6(n) mod p for 0 <= n <= trunc, the coefficients of
    phi(-q)^6, from r_6(n) = 16 sum_{d | n} chi(n/d) d^2
    - 4 sum_{d | n} chi(d) d^2, chi the character mod 4: one slice update
    per s <= sqrt(trunc) over the divisor pairs (s, k), k >= s."""
    n = np.arange(trunc + 1, dtype=np.int64)
    chi = ((n & 1) * (2 - (n & 3))).astype(np.int32)
    sq = (n * n % p).astype(np.int32)
    # A divisor pair adds at most 240 in magnitude: int32 holds every sum.
    out = np.zeros(trunc + 1, np.int32)
    for s in range(1, math.isqrt(trunc) + 1):
        k = slice(s, trunc // s + 1)
        out[s * s::s] += (16 * (chi[k] * sq[s] + chi[s] * sq[k])
                          - 4 * (chi[s] * sq[s] + chi[k] * sq[k]))
        out[s * s] -= 12 * chi[s] * sq[s]  # d = n/d = s, counted twice
    out[0] = 1
    out[1::2] *= -1
    return out % p


def test_the_stream_passes_a_sampled_frobenius_audit():
    # An audit of the production stream that shares no code with the
    # solver.  P = 1/phi(-q) and phi(-q)^p = phi(-q^p) mod p give
    # P(q) = phi(-q)^(p-1) * P(q^p) mod p, so
    # pbar(n) = sum_k a_p(n - p*k) * pbar(k) mod p, a_p(n) the coefficients
    # of phi(-q)^(p-1): from the two-, four- and six-square theorems for
    # p = 3, 5 and 7, with no FFT.  Mod 2, phi(-q) = 1, so pbar(n) is even
    # for every n >= 1.  The 23# stream through 2^20 spans four solver
    # segments at the production constants.
    trunc = 1 << 20
    stream = _pbar_stream(PRIMORIAL_23, trunc)
    assert not (stream[1:] % 2).any()
    rng = np.random.default_rng(2026)
    for p, a_p in ((3, transform(theta_phi2(trunc, ResidueRing(3)), 1, -1).coeffs),
                   (5, transform(theta_phi4(trunc, ResidueRing(5)), 1, -1).coeffs),
                   (7, _r6_signed(trunc, 7))):
        pbar = stream % p
        for n in rng.integers(trunc // 2, trunc + 1, 200):
            assert a_p[n::-p] @ pbar[:n // p + 1] % p == pbar[n], (p, n)


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


def test_scan_rejects_a_multiplier_below_one():
    with pytest.raises(ValueError, match="multipliers and steps"):
        scan(5, [0], [8], 10, max_index=100)


def test_scan_rejects_a_step_below_one():
    with pytest.raises(ValueError, match="multipliers and steps"):
        scan(5, [1], [0], 10, max_index=100)


def test_scan_min_support_filters():
    claims = scan(5, [1], [40], 10 ** 5, min_support=10 ** 6, max_index=200_000)
    assert claims == []


def test_scan_deterministic_order_and_threads(pool_tasks):
    # Each scan solves its stream cold: once with the solver's pool, once
    # on the calling thread alone.  Leaves and push chunks of 4096
    # positions make the solve span segments, so the pooled one shares.
    kwargs = dict(n_max=10 ** 5, min_support=20, max_index=120_000)
    with mock.patch.object(modseries, "_SOLVE_BLOCK", 4096), \
            mock.patch.object(modseries, "_PUSH_CHUNK", 4096):
        with ThreadPoolExecutor(1, thread_name_prefix="modseries") as pool, \
                mock.patch.object(modseries, "_POOL", pool), \
                mock.patch.object(modseries, "_SHARE", True):
            pooled = scan(5, [1, 5], [40, 8], **kwargs)
        assert pool_tasks
        pool_tasks.clear()
        STORE.reset()
        with mock.patch.object(modseries, "_SHARE", False):
            serial = scan(5, [1, 5], [40, 8], **kwargs)
    assert not pool_tasks
    assert pooled == serial
    keys = [(c.multiplier, c.progression) for c in serial]
    assert keys == sorted(keys)


_SCAN_MODULI = st.sampled_from([2, 5, 7, 17, PRIMORIAL_23, 29])
# Steps up to 130, and past every top + 1 (max_index // d <= 2e4).
_SCAN_STEPS = st.one_of(st.integers(1, 130), st.sampled_from([20_002, 10 ** 30]))
_SCAN_MULTIPLIERS = st.one_of(st.integers(1, 12), st.sampled_from([16, 20_001, 10 ** 30]))


@settings(max_examples=150, deadline=None)
@given(modulus=_SCAN_MODULI,
       d_list=st.lists(_SCAN_MULTIPLIERS, min_size=1, max_size=3),
       a_list=st.lists(_SCAN_STEPS, min_size=1, max_size=3),
       n_max=st.one_of(st.sampled_from([0, 10 ** 30]), st.integers(1, 300)),
       min_support=st.sampled_from([0, 1, 20]),
       max_index=st.one_of(st.integers(0, 300), st.integers(0, 20_000)),
       block=st.sampled_from([61, 1000, prover._SCAN_BLOCK]))
@example(modulus=7, d_list=[16, 3, 16, 20_001], a_list=[56, 1, 130, 10 ** 30], n_max=10 ** 30,
         min_support=20, max_index=20_000, block=61)
@example(modulus=5, d_list=[1, 1], a_list=[40, 8, 101], n_max=7, min_support=1,
         max_index=20_000, block=1000)
@example(modulus=2, d_list=[1, 2], a_list=[1, 2, 3, 100, 101], n_max=0, min_support=0,
         max_index=100, block=61)
@example(modulus=29, d_list=[1], a_list=[10 ** 30], n_max=5, min_support=1,
         max_index=100, block=prover._SCAN_BLOCK)
def test_scan_matches_the_per_offset_reference(modulus, d_list, a_list, n_max,
                                               min_support, max_index, block):
    # `block` is how many stream entries the masks are reduced from at a
    # time; blocks shorter than the budget cut every mask at their edges.
    with mock.patch.object(prover, "_SCAN_BLOCK", block):
        got = scan(modulus, d_list, a_list, n_max, min_support=min_support,
                   max_index=max_index)
    want = reference_scan(modulus, d_list, a_list, n_max, min_support, max_index)
    assert [c.to_dict() for c in got] == [c.to_dict() for c in want]


def test_scan_pairs_share_one_mask_per_multiplier():
    # One d against many steps: every pair reads the same prebuilt mask.
    steps = list(range(8, 161, 8)) + [7, 11, 13, 99]
    kwargs = dict(n_max=10 ** 6, min_support=20, max_index=200_000)
    claims = scan(7, [16], steps, **kwargs)
    assert claims  # pbar(16*(56n+B)) and its multiples of 56
    assert scan(7, [16], steps, **kwargs) == claims
    assert [c.to_dict() for c in claims] == [
        c.to_dict() for c in reference_scan(7, [16], steps, **kwargs)]


def test_compression_two_sign_shape():
    # The 72 residue classes mod 2584 cut by one mod-8 class and two
    # Kronecker signs compress exactly.
    a = 2584
    hits = [b for b in range(a)
            if b % 8 == 3 and kronecker(b, 17) == -1 and kronecker(b, 19) == 1]
    assert len(hits) == 72
    conditions = _compress_residues(hits, a)
    assert ("residue", 8, (3,)) in conditions
    assert ("kronecker", 17, -1) in conditions
    assert ("kronecker", 19, 1) in conditions


def test_compression_prefers_fewer_conditions():
    hits = [b for b in range(56) if b % 8 == 3]
    assert _compress_residues(hits, 56) == (("residue", 8, (3,)),)
    assert _compress_residues([35], 40) == ()  # no exact template match
    assert _compress_residues([], 40) == ()


@st.composite
def compressible_offsets(draw):
    """(a, hits, conds): a = 8k <= 1000, and hits the offsets of one class
    r mod 8 cut by the Kronecker signs conds at <= 2 of a's odd primes."""
    a = 8 * draw(st.integers(1, 125))
    r = draw(st.integers(0, 7))
    primes = sorted(p for p in factorize(a) if p % 2 == 1)
    chosen = draw(st.lists(st.sampled_from(primes), max_size=2, unique=True)) if primes else []
    conds = [(p, draw(st.sampled_from((-1, 1)))) for p in sorted(chosen)]
    hits = [x for x in range(r, a, 8) if all(kronecker(x, p) == s for p, s in conds)]
    return a, hits, conds


@settings(max_examples=100, deadline=None)
@given(compressible_offsets())
def test_compression_round_trips_a_drawn_description(drawn):
    a, hits, conds = drawn
    conditions = _compress_residues(hits, a)
    assert conditions, (a, conds)
    (kind, eight, (r,)), *signs = conditions
    assert (kind, eight) == ("residue", 8)
    assert all(kind == "kronecker" for kind, _, _ in signs)
    assert len(signs) <= len(conds)
    assert [x for x in range(r, a, 8)
            if all(kronecker(x, p) == s for _, p, s in signs)] == hits


def test_compression_candidates_hold_a_sixtieth_of_the_offsets():
    # _compress_residues gives up on fewer than a/60 hits: no candidate is smaller.
    for a in range(8, 1000, 8):
        primes = sorted(p for p in factorize(a) if p % 2 == 1)
        signs = [[(p, s)] for p in primes for s in (-1, 1)]
        signs += [[(p1, s1), (p2, s2)] for i, p1 in enumerate(primes) for p2 in primes[i + 1:]
                  for s1 in (-1, 1) for s2 in (-1, 1)]
        for r in range(8):
            for conds in [[]] + signs:
                size = sum(1 for x in range(r, a, 8)
                           if all(kronecker(x, p) == s for p, s in conds))
                assert 60 * size >= a, (a, r, conds)


def test_verify_identity_small_truncation():
    for modulus in (17, 23):
        report = verify_identity(modulus, 200)
        assert report.passed
        derivation = next(s for s in report.steps if s.name == "independent-derivation")
        expected = [1, 13, 13, 0] if modulus == 17 else [1, 9, 5, 14, 17, 20]
        assert derivation.witness == expected


def test_verify_identity_degenerate_truncation():
    # A truncation below the last basis monomial's leading power cannot
    # tell the coordinates apart, so it is refused.
    for modulus, floor in ((17, 3), (23, 5)):
        for trunc in range(floor):
            with pytest.raises(ValueError, match="below"):
                verify_identity(modulus, trunc)
        assert verify_identity(modulus, floor).passed


def test_verify_identity_stays_within_the_index_cap(monkeypatch):
    # The left side reads the stream through index modulus * trunc, so a
    # truncation past INDEX_HARD_CAP / modulus is refused before any stream
    # is built, with the largest truncation that fits.
    def no_stream(*args):
        raise AssertionError("a stream was read")

    monkeypatch.setattr(prover, "_pbar_stream", no_stream)
    for modulus in (17, 23):
        fit = INDEX_HARD_CAP // modulus
        for trunc in (fit + 1, 5_000_000, TRUNC_CAP):
            with pytest.raises(ValueError, match=f"trunc <= {fit} stays within it"):
                verify_identity(modulus, trunc)


def test_verify_identity_modulus_validation():
    with pytest.raises(ValueError):
        verify_identity(11, 100)


def test_report_roundtrip_and_determinism():
    first = verify_identity(17, 150)
    second = verify_identity(17, 150)
    assert first.to_dict() == second.to_dict()
    assert json.loads(json.dumps(first.to_dict())) == first.to_dict()


def test_prove_mod11_report():
    report = prove_theorem_mod11()
    assert report.passed
    by_name = {s.name: s for s in report.steps}
    assert by_name["decompose"].witness == [1, 1, 0]
    assert by_name["sturm-progression-check"].witness["bound"] == 289
    assert by_name["sturm-progression-check"].witness["indices_checked"] == 36
    assert report.limits["max_n"] == 35
