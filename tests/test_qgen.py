"""Generator expansions against independent oracles and pinned values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overcong import (EtaQuotient, ResidueRing, eta_quotient, one_series,
                      overpartition_series, pochhammer, r_m_bruteforce,
                      r_m_exact, r_m_series, ring_mul, ring_pow, theta_phi,
                      transform, weight2_form)
from overcong.qgen import theta_phi2, theta_phi4

CLOSED_FORM_MODULI = (2, 13, 223092870, 2**31 - 1)

BIG = ResidueRing(1_000_003)


def euler_product_oracle(delta, trunc):
    # prod_{k>=1} (1 - q^(delta*k)) multiplied out term by term, exact integers.
    coeffs = [0] * (trunc + 1)
    coeffs[0] = 1
    k = 1
    while delta * k <= trunc:
        step = delta * k
        for i in range(trunc, step - 1, -1):
            coeffs[i] -= coeffs[i - step]
        k += 1
    return coeffs


def test_pochhammer_matches_product_expansion():
    for m in (11, 9):
        ring = ResidueRing(m)
        for delta in (1, 2, 3):
            got = pochhammer(delta, 200, ring)
            want = [c % m for c in euler_product_oracle(delta, 200)]
            assert list(got.coeffs) == want


def test_pochhammer_small_literals():
    # (q;q)_inf = 1 - q - q^2 + q^5 + q^7 - ...; (q^2;q^2)_inf = 1 - q^2 - q^4 + ...
    assert list(pochhammer(1, 8, BIG).coeffs) == [1, -1 % BIG.modulus, -1 % BIG.modulus,
                                                  0, 0, 1, 0, 1, 0]
    assert list(pochhammer(2, 4, BIG).coeffs) == [1, 0, -1 % BIG.modulus, 0,
                                                  -1 % BIG.modulus]


def test_pochhammer_constant_term_is_one():
    for delta in (1, 5, 100):
        assert pochhammer(delta, 50, ResidueRing(17)).coeffs[0] == 1


def test_theta_phi_literal():
    got = theta_phi(10, ResidueRing(101))
    want = [0] * 11
    want[0] = 1
    want[1] = want[4] = want[9] = 2
    assert list(got.coeffs) == want
    assert got.coeffs[6] == 0
    # Square support is sparse enough for the hint once the series is long.
    long = theta_phi(400, ResidueRing(101))
    assert long.support is not None
    assert long.support.tolist() == [j * j for j in range(21)]


def test_eta_quotient_theta_identity():
    # eta(2z)^5 / (eta(z)^2 eta(4z)^2): zero prefactor, expands to phi.
    ring = ResidueRing(13)
    quotient = EtaQuotient(((1, -2), (2, 5), (4, -2)))
    expansion = eta_quotient(quotient, 2000, ring)
    assert expansion.prefactor24 == 0
    assert expansion.to_series() == theta_phi(2000, ring)


def test_eta_quotient_alternating_theta_identity():
    # eta(z)^2/eta(2z) expands to phi(-q); its reciprocal eta(2z)/eta(z)^2
    # is therefore the overpartition generating function.
    ring = ResidueRing(13)
    expansion = eta_quotient(EtaQuotient(((1, 2), (2, -1))), 2000, ring)
    assert expansion.prefactor24 == 0
    assert expansion.to_series() == transform(theta_phi(2000, ring), 1, -1)
    reciprocal = eta_quotient(EtaQuotient(((1, -2), (2, 1))), 2000, ring)
    assert reciprocal.prefactor24 == 0
    assert reciprocal.to_series() == overpartition_series(2000, ring)


def test_eta_quotient_weight2_block():
    # eta(4z)^8/eta(2z)^4 carries prefactor q^1 and is the oracle for the
    # divisor-sum closed form weight2_form computes.
    quotient = EtaQuotient(((2, -4), (4, 8)))
    for m in (2, 13, 223092870, 2**31 - 1):
        ring = ResidueRing(m)
        for trunc in (0, 1, 2000):
            expansion = eta_quotient(quotient, trunc, ring)
            assert expansion.prefactor24 == 24
            shifted = expansion.to_series()
            fast = weight2_form(trunc, ring)
            assert fast.trunc == trunc
            assert list(shifted.coeffs[:trunc + 1]) == list(fast.coeffs), (m, trunc)
        assert fast.coeffs[1] == 1 and fast.coeffs[2] == 0


def test_phi4_closed_form_matches_the_theta_power():
    # Jacobi's four-square form against phi multiplied out by ring_pow.
    for m in CLOSED_FORM_MODULI:
        ring = ResidueRing(m)
        for trunc in (0, 1, 2, 50, 2000):
            fast = theta_phi4(trunc, ring)
            assert fast.trunc == trunc
            assert fast == ring_pow(theta_phi(trunc, ring), 4), (m, trunc)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CLOSED_FORM_MODULI), st.integers(0, 3000))
def test_phi2_closed_form_matches_the_theta_power(m, trunc):
    # Jacobi's two-square form against phi multiplied out by ring_pow.
    ring = ResidueRing(m)
    fast = theta_phi2(trunc, ring)
    assert fast.trunc == trunc
    assert fast == ring_pow(theta_phi(trunc, ring), 2)


def test_phi2_closed_form_counts_two_square_representations():
    series = theta_phi2(50, ResidueRing(2**31 - 1))
    assert [series.coeffs[n] for n in range(51)] == [r_m_bruteforce(n, 2) for n in range(51)]


def test_phi4_closed_form_counts_four_square_representations():
    # Every r_4(n) with n <= 50 is below 2^31 - 1, so the residues are the counts.
    series = theta_phi4(50, ResidueRing(2**31 - 1))
    assert [series.coeffs[n] for n in range(51)] == [r_m_bruteforce(n, 4) for n in range(51)]


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CLOSED_FORM_MODULI), st.integers(0, 400))
def test_divisor_sum_blocks_match_direct_divisor_sums(m, trunc):
    # sigma by trial division: F = sum over odd n of sigma(n) q^n and
    # phi^4 = 1 + 8 * sum (sigma(n) - 4 sigma(n/4)) q^n.
    ring = ResidueRing(m)
    sigma = [_sigma(n) for n in range(trunc + 1)]
    f = [sigma[n] % m if n % 2 else 0 for n in range(trunc + 1)]
    phi4 = [1 % m] + [8 * (sigma[n] - (4 * sigma[n // 4] if n % 4 == 0 else 0)) % m
                      for n in range(1, trunc + 1)]
    assert weight2_form(trunc, ring).coeffs.tolist() == f
    assert theta_phi4(trunc, ring).coeffs.tolist() == phi4


def test_eta_quotient_fractional_prefactor_is_error():
    expansion = eta_quotient(EtaQuotient(((1, 1),)), 50, BIG)
    assert expansion.prefactor24 == 1
    with pytest.raises(ValueError, match="not an integral power"):
        expansion.to_series()


def test_eta_quotient_arguments_past_the_truncation():
    # delta past int64 leaves only the constant; a leading power past the
    # truncation cap is refused before anything that long is allocated.
    quotient = EtaQuotient(((24 * 2 ** 63, 1),))
    assert pochhammer(2 ** 63, 40, BIG) == one_series(BIG, 40)
    with pytest.raises(ValueError, match="truncation cap"):
        eta_quotient(quotient, 0, BIG).to_series()


def test_eta_quotient_factor_validation():
    with pytest.raises(ValueError):
        EtaQuotient(((2, 1), (1, 1)))  # not ascending
    with pytest.raises(ValueError):
        EtaQuotient(((1, 1), (1, 2)))  # duplicate
    with pytest.raises(ValueError):
        EtaQuotient(((0, 1),))


def test_r_m_series_heads_are_representation_counts():
    assert r_m_exact(10, 2) == [1, 20, 180]
    assert r_m_exact(12, 3) == [1, 24, 264, 1760]
    assert list(r_m_series(12, 3, ResidueRing(13)).coeffs) == [1, 11, 4, 5]
    assert r_m_series(1, 10, BIG) == theta_phi(10, BIG)


def test_r_m_series_matches_bruteforce_counts():
    for m_exp in (2, 10, 12):
        exact = r_m_exact(m_exp, 50)
        for n in range(51):
            assert exact[n] == r_m_bruteforce(n, m_exp)


@pytest.mark.parametrize("k2, ell", [(10, 11), (12, 13), (16, 17), (22, 23)])
def test_r_m_series_matches_the_theta_power_at_the_pipeline_truncation(k2, ell):
    # phi^(ell-1) through q^(300*ell), as the proof and identity pipelines
    # expand it, against phi multiplied out by ring_pow.
    trunc = 300 * ell
    for m in (ell, 223092870, 2**31 - 1):
        ring = ResidueRing(m)
        assert r_m_series(k2, trunc, ring) == ring_pow(theta_phi(trunc, ring), k2), m


def test_r_m_bruteforce_literals_and_budget():
    assert r_m_bruteforce(4, 1) == 2
    assert r_m_bruteforce(1, 10) == 20
    assert r_m_bruteforce(2, 12) == 264
    with pytest.raises(ValueError, match="budget"):
        r_m_bruteforce(51, 2)
    with pytest.raises(ValueError, match="budget"):
        r_m_bruteforce(1, 13)


def overpartition_oracle(n, _memo={}):
    # Direct count: partitions of n where the first copy of each part size
    # may be overlined, i.e. sum over partitions of 2^(distinct parts).
    def rec(remaining, largest):
        if remaining == 0:
            return 1
        if largest == 0:
            return 0
        key = (remaining, largest)
        if key in _memo:
            return _memo[key]
        total = rec(remaining, largest - 1)
        used = largest
        while used <= remaining:
            total += 2 * rec(remaining - used, largest - 1)
            used += largest
        _memo[key] = total
        return total

    return rec(n, n)


def test_overpartition_series_matches_direct_count():
    series = overpartition_series(12, BIG)
    for n in range(13):
        assert series.coeffs[n] == overpartition_oracle(n)
    assert series.coeffs[3] == 8


def test_overpartition_head_frozen():
    want = [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232]
    assert list(overpartition_series(10, BIG).coeffs) == want


def test_overpartition_head_mod13():
    series = overpartition_series(3, ResidueRing(13))
    assert list(series.coeffs) == [1, 2, 4, 8]


@pytest.mark.parametrize("length", [0, 100, 200, 202])
def test_overpartition_series_refuses_an_out_of_another_length(length):
    # A short out must not read as a stream of zeros past its end.
    with pytest.raises(ValueError, match="truncation 200"):
        overpartition_series(200, ResidueRing(13), np.zeros(length, np.int32))


def test_overpartition_inverts_alternating_theta():
    ring = ResidueRing(11)
    series = overpartition_series(300, ring)
    phi_neg = transform(theta_phi(300, ring), 1, -1)
    assert ring_mul(series, phi_neg) == one_series(ring, 300)


def test_euler_product_prime_power_congruence():
    # (q;q)^((p^a)) = (q^p;q^p)^(p^(a-1)) mod p^a, on a small desk range.
    for p, alpha in ((2, 1), (3, 2), (5, 1)):
        ring = ResidueRing(p ** alpha)
        lhs = ring_pow(pochhammer(1, 200, ring), p ** alpha)
        rhs = ring_pow(transform(pochhammer(1, 200 // p, ring), p, 1), p ** (alpha - 1))
        t = min(lhs.trunc, rhs.trunc)
        assert np.array_equal(lhs.coeffs[:t + 1], rhs.coeffs[:t + 1])


def test_theta_power_congruence():
    # phi^p = phi(q^p) mod p through q^500.
    for p in (11, 13, 17, 23):
        ring = ResidueRing(p)
        lhs = ring_pow(theta_phi(500, ring), p)
        rhs = transform(theta_phi(500 // p, ring), p, 1)
        t = rhs.trunc
        assert np.array_equal(lhs.coeffs[:t + 1], rhs.coeffs[:t + 1])
