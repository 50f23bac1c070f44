"""Monomial bases, triangular decomposition, and the coefficient operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overcong import (GAMMA0, GAMMA1, Decomposition,
                      ResidueRing, SpaceLabel, TruncSeries, apply_U,
                      basis_monomials, decompose, expand_monomial,
                      extract_progression, hecke_T, r_m_series, ring_add,
                      ring_mul, ring_pow, scalar_mul, sieve_progression,
                      theta_phi, transform, weight2_form, zero_series)

BIG = ResidueRing(1_000_003)


def test_basis_monomials_shapes():
    b10 = basis_monomials(10)
    assert b10.monomials == ((10, 0), (6, 1), (2, 2))
    assert b10.char_numer == -4
    b12 = basis_monomials(12)
    assert b12.monomials == ((12, 0), (8, 1), (4, 2), (0, 3))
    assert b12.char_numer == 1
    b9 = basis_monomials(9)
    assert b9.monomials == ((9, 0), (5, 1), (1, 2))
    assert b9.char_numer == 1
    for k2 in range(1, 25):
        assert len(basis_monomials(k2).monomials) == k2 // 4 + 1


def test_expand_monomial_pinned_heads():
    assert [expand_monomial(6, 1, 2, ResidueRing(11)).coeffs[n] for n in range(3)] == [0, 1, 1]
    assert [expand_monomial(8, 1, 3, BIG).coeffs[n] for n in range(4)] == [0, 1, 16, 116]
    assert [expand_monomial(4, 2, 3, BIG).coeffs[n] for n in range(4)] == [0, 0, 1, 8]
    assert expand_monomial(0, 0, 5, BIG).coeffs[0] == 1


def test_monomials_are_triangular():
    ring = ResidueRing(11)
    for k2 in range(1, 25):
        for a, b in basis_monomials(k2).monomials:
            series = expand_monomial(a, b, 64, ring)
            assert not series.coeffs[:b].any()
            assert series.coeffs[b] == 1


BASIS_MODULI = (2, 13, 223092870, 2**31 - 1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BASIS_MODULI), st.integers(1, 23), st.integers(0, 300), st.data())
def test_recombine_matches_the_per_monomial_sum(m, k2, trunc, data):
    ring = ResidueRing(m)
    size = k2 // 4 + 1
    coeffs = tuple(data.draw(st.lists(st.sampled_from((0, 1, m - 1)) | st.integers(0, m - 1),
                                      min_size=size, max_size=size)))
    want = zero_series(ring, trunc)
    for b, c in enumerate(coeffs):
        want = ring_add(want, scalar_mul(c, expand_monomial(k2 - 4 * b, b, trunc, ring)))
    assert Decomposition(k2, ring, coeffs).recombine(trunc) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BASIS_MODULI), st.integers(0, 23), st.integers(0, 5),
       st.integers(0, 300))
def test_expand_monomial_matches_sparse_theta_powers(m, a, b, trunc):
    # phi^a multiplied out by ring_pow, one product at a time: the oracle for
    # the closed-form blocks r_m_series builds expand_monomial's phi^a from.
    ring = ResidueRing(m)
    want = ring_mul(ring_pow(weight2_form(trunc, ring), b),
                    ring_pow(theta_phi(trunc, ring), a))
    assert expand_monomial(a, b, trunc, ring) == want


def test_recombine_takes_one_coordinate_per_basis_monomial():
    for coeffs in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="takes 2 coordinates"):
            Decomposition(5, ResidueRing(13), coeffs).recombine(20)


def test_decompose_recombine_roundtrip():
    rng = np.random.default_rng(101)
    ring = ResidueRing(13)
    for k2 in (9, 10, 12, 16, 21, 24):
        size = k2 // 4 + 1
        for _ in range(3):
            coeffs = tuple(int(c) for c in rng.integers(0, 13, size))
            series = Decomposition(k2, ring, coeffs).recombine(64)
            assert decompose(series, k2).coeffs == coeffs


def test_decompose_basis_element():
    series = expand_monomial(5, 1, 40, ResidueRing(11))
    assert decompose(series, 9).coeffs == (0, 1, 0)


def test_decompose_rejects_out_of_span():
    ring = ResidueRing(11)
    series = Decomposition(10, ring, (1, 1, 0)).recombine(64)
    tampered = series.coeffs.copy()
    tampered[50] = (tampered[50] + 1) % 11
    with pytest.raises(ValueError, match="q\\^50"):
        decompose(TruncSeries(ring, tampered, 64), 10)


def test_decomposition_cancel_phi():
    dec = Decomposition(12, ResidueRing(13), (1, 4, 1, 0))
    low = dec.cancel_phi()
    assert low.k2 == 11 and low.coeffs == (1, 4, 1)
    with pytest.raises(ValueError, match="pure-F"):
        Decomposition(12, ResidueRing(13), (1, 0, 0, 2)).cancel_phi()


def test_hecke_constant_term_witness():
    # On phi^10 at weight 5 with the conductor-4 character:
    # output[0] = r(0) + (-4/11) * 11^4 * r(0) = 1 - 14641.
    f = r_m_series(10, 11, BIG)
    out = hecke_T(f, SpaceLabel(10, 4, GAMMA0, -4), 11)
    assert out.coeffs[0] == (1 - 11 ** 4) % BIG.modulus


def test_hecke_reduces_to_u_mod_ell():
    for ell, k2 in ((11, 10), (13, 12)):
        ring = ResidueRing(ell)
        f = r_m_series(k2, ell * 500, ring)
        hecke = hecke_T(f, SpaceLabel(k2, 4, GAMMA0, -4 if k2 % 4 == 2 else 1), ell)
        u_image = extract_progression(f, ell, 0, compact=True)
        assert hecke == u_image


def test_hecke_on_zero_series():
    assert hecke_T(zero_series(BIG, 100), SpaceLabel(6, 4), 13) == zero_series(BIG, 7)


def test_hecke_validation():
    f = r_m_series(2, 50, BIG)
    with pytest.raises(ValueError, match="not prime"):
        hecke_T(f, SpaceLabel(2, 4), 15)
    with pytest.raises(ValueError, match="divides the level"):
        hecke_T(f, SpaceLabel(2, 4), 2)
    with pytest.raises(ValueError, match="integral weight"):
        hecke_T(f, SpaceLabel(9, 4), 11)


def test_hecke_rejects_a_gamma1_label_and_a_prime_of_the_level():
    f = r_m_series(2, 50, BIG)
    with pytest.raises(ValueError, match="carries no character"):
        hecke_T(f, SpaceLabel(2, 4, GAMMA1), 3)
    with pytest.raises(ValueError, match="divides the level 512"):
        hecke_T(f, SpaceLabel(2, 512, GAMMA0, 2), 2)


def test_u_after_v_is_identity():
    rng = np.random.default_rng(7)
    ring = ResidueRing(13)
    f = TruncSeries(ring, rng.integers(0, 13, 201), 200)
    dilated = transform(f, 7, 1)
    restored, label = apply_U(dilated, SpaceLabel(9, 28), 7)
    assert restored == f
    assert label.level == 28


def test_u_v_identity_cases():
    ring = ResidueRing(11)
    f = theta_phi(50, ring)
    label = SpaceLabel(1, 4)
    assert apply_U(f, label, 1) == (f, label)


def test_u_matches_compacted_extraction():
    ring = ResidueRing(11)
    f = r_m_series(10, 1100, ring)
    series, _ = apply_U(f, SpaceLabel(10, 44), 11)
    assert series == extract_progression(f, 11, 0, compact=True)


def test_u_inflates_level_when_needed():
    ring = ResidueRing(11)
    f = theta_phi(220, ring)
    _, label = apply_U(f, SpaceLabel(1, 4), 11)
    assert label.level == 44  # inflated so 11 divides N
    _, again = apply_U(f, label, 11)
    assert again.level == 44  # no further inflation once 11 | N


def test_six_u2_steps_track_level_and_character():
    ring = ResidueRing(13)
    f = TruncSeries(ring, np.arange(641) % 13, 640)
    label = SpaceLabel(11, 4, GAMMA0, 1)
    series = f
    levels = []
    for _ in range(6):
        series, label = apply_U(series, label, 2)
        levels.append(label.level)
    assert levels == [8] * 6
    assert label.char_numer == 8 ** 6
    assert series.trunc == 10
    assert series.coeffs[1] == f.coeffs[64]


def test_sieve_keeps_progression_coefficients():
    rng = np.random.default_rng(13)
    ring = ResidueRing(17)
    f = TruncSeries(ring, rng.integers(0, 17, 2001), 2000)
    label = SpaceLabel(9, 4)
    for d, a, b in ((1, 8, 5), (2, 8, 7), (3, 5, 2), (11, 4, 1)):
        sieved, _ = sieve_progression(f, label, d, a, b)
        for n in range(sieved.trunc + 1):
            if n % a == b % a:
                assert sieved.coeffs[n] == f.coeffs[d * n]
            else:
                assert sieved.coeffs[n] == 0


def test_sieve_label_real_downgrade():
    ring = ResidueRing(11)
    f = TruncSeries(ring, np.arange(301) % 11, 300)
    label = SpaceLabel(9, 4, GAMMA0, 1)
    _, out = sieve_progression(f, label, 1, 8, 5)
    assert out == SpaceLabel(9, 256, GAMMA0, 1)


def test_sieve_label_gamma1_when_characters_complex():
    ring = ResidueRing(17)
    f = TruncSeries(ring, np.arange(301) % 17, 300)
    label = SpaceLabel(15, 4, GAMMA0, 1)
    _, out = sieve_progression(f, label, 121, 88, 19)
    assert out.group == GAMMA1
    assert out.level == 4 * 121 * 88 * 88


def test_sieve_identity_case():
    ring = ResidueRing(11)
    f = theta_phi(60, ring)
    label = SpaceLabel(1, 4, GAMMA0, 1)
    series, out = sieve_progression(f, label, 1, 1, 0)
    assert series == f
    assert out == label


def test_sieve_requires_coprime_progression():
    f = theta_phi(10, ResidueRing(11))
    with pytest.raises(ValueError, match="coprime"):
        sieve_progression(f, SpaceLabel(9, 4), 1, 8, 6)


def test_space_label_validation():
    with pytest.raises(ValueError, match="multiple of 4"):
        SpaceLabel(9, 6)
    with pytest.raises(ValueError, match="group"):
        SpaceLabel(9, 4, "Gamma2")
    assert SpaceLabel(9, 256).weight_str == "9/2"
    assert SpaceLabel(12, 4).weight_str == "6"
    assert "Gamma0(512)" in SpaceLabel(11, 512, GAMMA0, 2).describe()
