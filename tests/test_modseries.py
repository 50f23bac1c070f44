"""Ring arithmetic on truncated series: laws, oracles, and error contracts."""

import bisect
import contextlib
import gc
import math
import sys
import threading
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from overcong import (ResidueRing, TruncSeries, extract_progression,
                      load_series, one_series, overpartition_series, ring_add,
                      ring_div, ring_invert, ring_mul, ring_pow, save_series,
                      scalar_mul, theta_phi, transform, zero_series)
from overcong import modseries, prover
from overcong.modseries import TRUNC_CAP, _fft_mul, _fft_size
from overcong.qgen import theta_phi4
from test_process import python


def random_series(rng, ring, trunc, density=1.0, unit_constant=False):
    coeffs = rng.integers(0, ring.modulus, trunc + 1)
    if density < 1.0:
        mask = rng.random(trunc + 1) > density
        coeffs[mask] = 0
    if unit_constant:
        coeffs[0] = 1
    return TruncSeries(ring, coeffs, trunc)


def exact_convolution_mod(a, b, trunc, m):
    # Independent oracle: lift to Python integers, multiply exactly, reduce.
    out = [0] * (trunc + 1)
    for i, ai in enumerate(a):
        if i > trunc:
            break
        for j, bj in enumerate(b):
            if i + j > trunc:
                break
            out[i + j] += int(ai) * int(bj)
    return [c % m for c in out]


def test_ring_construction_validation():
    with pytest.raises(ValueError):
        ResidueRing(1)
    with pytest.raises(ValueError):
        ResidueRing(1 << 31)
    assert ResidueRing(9).modulus == 9  # prime powers allowed


def test_series_length_contract():
    ring = ResidueRing(7)
    assert len(TruncSeries(ring, [1, 2, 0, 0, 0], trunc=4).coeffs) == 5
    assert TruncSeries(ring, [1, 2]).trunc == 1
    # Too few coefficients are refused, never padded: a short slice would
    # read as zeros, and zeros are what "verifies" a vanishing claim.
    with pytest.raises(ValueError):
        TruncSeries(ring, [1, 2], trunc=4)
    with pytest.raises(ValueError):
        TruncSeries(ring, [1, 2, 3], trunc=1)


def test_mul_binomial_square():
    ring = ResidueRing(5)
    f = TruncSeries(ring, [1, 1, 0], 2)
    assert list(ring_mul(f, f).coeffs) == [1, 2, 1]


def test_mul_theta_powers_head():
    # phi * phi^9 = phi^10 = 1 + 20q + 180q^2 + ..., reduced mod 11.
    ring = ResidueRing(11)
    phi = theta_phi(2, ring)
    out = ring_mul(phi, ring_pow(phi, 9))
    assert list(out.coeffs) == [1, 20 % 11, 180 % 11]


def test_mul_annihilation():
    ring = ResidueRing(13)
    rng = np.random.default_rng(7)
    f = random_series(rng, ring, 20)
    z = zero_series(ring, 20)
    assert ring_mul(f, z) == z


def test_mul_matches_exact_integer_oracle():
    rng = np.random.default_rng(42)
    for m in (5, 9, 13, 65521):
        ring = ResidueRing(m)
        f = random_series(rng, ring, 32)
        g = random_series(rng, ring, 32)
        expected = exact_convolution_mod(f.coeffs, g.coeffs, 32, m)
        assert list(ring_mul(f, g).coeffs) == expected


def test_mul_sparse_and_dense_paths_agree():
    rng = np.random.default_rng(3)
    ring = ResidueRing(13)
    sparse = random_series(rng, ring, 256, density=0.05)
    dense = random_series(rng, ring, 256)
    assert sparse.support is not None and dense.support is None
    expected = exact_convolution_mod(sparse.coeffs, dense.coeffs, 256, 13)
    assert list(ring_mul(sparse, dense).coeffs) == expected
    assert list(ring_mul(dense, sparse).coeffs) == expected


def test_ring_laws_through_truncation():
    rng = np.random.default_rng(11)
    for m in (13, 9):
        ring = ResidueRing(m)
        for _ in range(5):
            f = random_series(rng, ring, 64)
            g = random_series(rng, ring, 64)
            h = random_series(rng, ring, 64)
            assert ring_mul(ring_mul(f, g), h) == ring_mul(f, ring_mul(g, h))
            assert ring_mul(f, g) == ring_mul(g, f)
            assert ring_mul(f, ring_add(g, h)) == ring_add(ring_mul(f, g), ring_mul(f, h))


_FFT_MODULI = (2, 3, 13, 65521, 223_092_870, (1 << 31) - 1)
_FFT_INPUTS = ("random", "m-1", "floor-half", "ceil-half", "alternating",
               "zero", "constant", "monomial", "squares")


def fft_input(kind, m, length, rng):
    if kind == "random":
        return rng.integers(0, m, length)
    if kind == "alternating":
        return np.arange(length) % 2 * (m - 1)
    if kind in ("zero", "constant", "monomial"):
        # c * q^j: nothing, c at q^0, or c at a random exponent.
        out = np.zeros(length, np.int64)
        if kind != "zero":
            out[0 if kind == "constant" else rng.integers(0, length)] = rng.integers(1, m)
        return out
    if kind == "squares":
        # Nonzero only at squares, like phi.
        out = np.zeros(length, np.int64)
        squares = np.arange(math.isqrt(length - 1) + 1) ** 2
        out[squares] = rng.integers(1, m, len(squares))
        return out
    value = {"m-1": m - 1, "floor-half": m // 2, "ceil-half": (m + 1) // 2}[kind]
    return np.full(length, value)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_FFT_MODULI), st.integers(1, 400), st.integers(1, 400),
       st.sampled_from(_FFT_INPUTS), st.sampled_from(_FFT_INPUTS),
       st.integers(0, 2 ** 32 - 1))
def test_dense_mul_matches_python_int_schoolbook(m, len_f, len_g, kind_f, kind_g, seed):
    rng = np.random.default_rng(seed)
    a = fft_input(kind_f, m, len_f, rng)
    b = fft_input(kind_g, m, len_g, rng)
    f = TruncSeries(ResidueRing(m), a, len_f - 1)
    g = TruncSeries(ResidueRing(m), b, len_g - 1)
    t = min(len_f, len_g) - 1
    assert ring_mul(f, g).coeffs.tolist() == exact_convolution_mod(a, b, t, m)
    # The kernel itself also takes operands of unequal length.
    n = len_f + len_g - 1
    assert _fft_mul(a, b, n, m).tolist() == exact_convolution_mod(a, b, n - 1, m)


def test_a_product_is_one_fft_product_unless_an_operand_is_constant(monkeypatch):
    # ring_mul has two outcomes: a product of two non-constant operands,
    # sparse or dense, is exactly one _fft_mul call; a constant operand
    # (one, zero, c * 1) scales the other without any.
    calls = []
    real_fft_mul = modseries._fft_mul

    def counting_fft_mul(*args):
        calls.append(len(args[0]))
        return real_fft_mul(*args)

    monkeypatch.setattr(modseries, "_fft_mul", counting_fft_mul)
    m = 223_092_870
    ring = ResidueRing(m)
    t = 1 << 12
    rng = np.random.default_rng(12)
    phi = theta_phi(t, ring)
    assert phi.support is not None
    dense = random_series(rng, ring, t)
    coeffs = np.zeros(t + 1, np.int32)
    coeffs[5] = 7
    monomial = TruncSeries(ring, coeffs, t)  # 7q^5
    for f, g in ((phi, phi), (phi, dense), (dense, phi), (dense, dense),
                 (monomial, phi), (dense, monomial)):
        calls.clear()
        ring_mul(f, g)
        assert calls == [t + 1]
    calls.clear()
    phi2 = ring_mul(phi, phi)
    assert ring_mul(phi2, phi2) == theta_phi4(t, ring)  # Jacobi's four squares
    assert len(calls) == 2
    for c, const in ((1, one_series(ring, t)), (0, zero_series(ring, t)),
                     (5, scalar_mul(5, one_series(ring, t))),
                     (m - 3, scalar_mul(m - 3, one_series(ring, t + 9)))):
        for other in (phi, dense, monomial, const):
            calls.clear()
            want = scalar_mul(c, other).coeffs[:min(const.trunc, other.trunc) + 1].tolist()
            assert ring_mul(const, other).coeffs.tolist() == want
            assert ring_mul(other, const).coeffs.tolist() == want
            assert calls == []


def test_dense_mul_worst_magnitude_closed_form():
    # (c * sum q^i)^2 = c^2 * sum (k+1) q^k with c = (m-1)/2, the largest
    # balanced residue, on every one of 2^15 terms.
    m = (1 << 31) - 1
    c = (m - 1) // 2
    length = 1 << 15
    f = TruncSeries(ResidueRing(m), np.full(length, c), length - 1)
    assert f.support is None
    k = np.arange(length, dtype=np.int64)
    assert np.array_equal(ring_mul(f, f).coeffs, (c * c % m) * (k + 1) % m)


def test_dense_mul_retries_a_product_that_fails_its_check(monkeypatch):
    # With the bound lifted, one float product is tried at 2^31 - 1; its
    # outputs reach ~2^60, the check must reject it, and narrower limbs must
    # still give the exact product.
    m = (1 << 31) - 1
    rng = np.random.default_rng(31)
    a = rng.integers(0, m, 300)
    b = rng.integers(0, m, 300)
    passes = []
    real_pass = modseries._limb_pass

    def recording_pass(a, b, n, m, size, w, fa=None):
        out = real_pass(a, b, n, m, size, w, fa)
        passes.append((w, out is not None))
        return out

    monkeypatch.setattr(modseries, "_FFT_BOUND", 1 << 80)
    monkeypatch.setattr(modseries, "_limb_pass", recording_pass)
    got = _fft_mul(a, b, 300, m)
    assert passes[0] == (31, False)
    assert [ok for _, ok in passes] == [False] * (len(passes) - 1) + [True]
    assert got.tolist() == exact_convolution_mod(a, b, 299, m)


# Single-group moduli (2, 13, 30030, and 65521 at short lengths), 23#
# split into coprime groups, and moduli with a prime power too large for one
# float product (3^19, 2^30, 2 * 1073741789 and 2^31 - 1), which take limbs.
_PLAN_MODULI = (2, 13, 30030, 223_092_870, 3 ** 19, 1 << 30, 2 * 1_073_741_789,
                65521, (1 << 31) - 1)
# 191 * 2777 * 2797: every prime fits one product of a 16384-term leaf,
# but any two of them do not, so a split needs three groups, one more than
# the two limbs of its width.
_THREE_GROUP_MODULUS = 191 * 2777 * 2797


def integer_product_mod(a, b, m):
    # Independent oracle: the exact integer product of the two coefficient
    # lists, by Kronecker substitution in Python ints (one slot of `width`
    # bytes per coefficient, wide enough that no slot carries), reduced mod m.
    width = (min(len(a), len(b)) * int(max(max(a), max(b), 1)) ** 2).bit_length() // 8 + 1

    def pack(v):
        return int.from_bytes(b"".join(int(x).to_bytes(width, "little") for x in v), "little")

    raw = (pack(a) * pack(b)).to_bytes(width * (len(a) + len(b) - 1), "little")
    return [int.from_bytes(raw[i:i + width], "little") % m for i in range(0, len(raw), width)]


def test_integer_product_oracle_matches_the_schoolbook():
    rng = np.random.default_rng(5)
    for m in (2, 13, 223_092_870, (1 << 31) - 1):
        for la, lb in ((1, 1), (1, 9), (17, 5), (40, 40)):
            a, b = rng.integers(0, m, la), rng.integers(0, m, lb)
            assert integer_product_mod(a, b, m) == exact_convolution_mod(a, b, la + lb - 2, m)


@pytest.mark.parametrize("m", _PLAN_MODULI)
@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 3000), st.sampled_from(_FFT_INPUTS),
       st.sampled_from(_FFT_INPUTS), st.integers(0, 2 ** 32 - 1))
def test_planned_products_match_the_integer_product(m, len_f, len_g, kind_f, kind_g, seed):
    # Both kernels (one spectrum pair at a time, and cached head spectra with
    # pooled groups) and ring_mul, whatever plan the modulus takes.
    rng = np.random.default_rng(seed)
    a = fft_input(kind_f, m, len_f, rng)
    b = fft_input(kind_g, m, len_g, rng)
    want = integer_product_mod(a, b, m)
    n = len_f + len_g - 1
    assert _fft_mul(a, b, n, m).tolist() == want
    with worker_pool():
        assert _fft_mul(a, b, n, m, {}, share=True).tolist() == want
    f = TruncSeries(ResidueRing(m), a, len_f - 1)
    g = TruncSeries(ResidueRing(m), b, len_g - 1)
    assert ring_mul(f, g).coeffs.tolist() == want[:min(len_f, len_g)]


@pytest.mark.parametrize("m", sorted({*_FFT_MODULI, *_PLAN_MODULI}))
@settings(max_examples=12, deadline=None)
@given(st.integers(1, 600), st.integers(1, 600), st.sampled_from(_FFT_INPUTS),
       st.sampled_from(_FFT_INPUTS), st.integers(0, 2 ** 32 - 1))
def test_int32_operands_match_the_integer_product(m, len_f, len_g, kind_f, kind_g, seed):
    # The solver passes its int32 residues to _fft_mul: the head, an int32
    # prefix, with the right-hand side in int64.  Both kernels widen them
    # first; mod 2^31 - 1, x + offset in an int32 limb split would overflow.
    rng = np.random.default_rng(seed)
    a = fft_input(kind_f, m, len_f, rng).astype(np.int32)
    b = fft_input(kind_g, m, len_g, rng).astype(np.int32)
    want = integer_product_mod(a, b, m)
    n = len_f + len_g - 1
    assert _fft_mul(a, b, n, m).tolist() == want
    with worker_pool():
        assert _fft_mul(a, b.astype(np.int64), n, m, {}, share=True).tolist() == want


@pytest.mark.parametrize("m", [223_092_870, 65521, _THREE_GROUP_MODULUS, (1 << 31) - 1])
def test_a_production_leaf_matches_the_integer_product(m):
    # One leaf of the production length, as the solver calls it: the head
    # spectra cached, the right-hand side's product truncated to the leaf.
    n = modseries._SOLVE_BLOCK
    rng = np.random.default_rng(m % 997)
    a, b = rng.integers(0, m, n), rng.integers(0, m, n)
    want = integer_product_mod(a, b, m)[:n]
    spectra = {}
    assert _fft_mul(a, b, n, m, spectra).tolist() == want
    assert _fft_mul(a, b[::-1].copy(), n, m, spectra).tolist() == \
        integer_product_mod(a, b[::-1], m)[:n]


def test_the_plan_takes_groups_when_they_fit_and_limbs_otherwise():
    bound = modseries._FFT_BOUND
    leaf = modseries._SOLVE_BLOCK

    def plan(m, terms):
        groups, w = modseries._product_plan(m, terms, bound)
        assert math.prod(groups) == m
        assert all(math.gcd(g, h) == 1 for i, g in enumerate(groups) for h in groups[i + 1:])
        assert len(groups) == 1 or all(terms * (g // 2) ** 2 < bound for g in groups)
        return groups, w

    for m in (2, 13, 30030, 65521):
        assert plan(m, leaf) == ((m,), (m // 2).bit_length() + 1)  # one product
    assert len(plan(223_092_870, leaf)[0]) == 2
    assert len(plan(223_092_870, 1 << 18)[0]) == 2
    # A prime power too large for one product: limbs, at any length.
    for m in (3 ** 19, 1 << 30, 2 * 1_073_741_789, (1 << 31) - 1):
        for terms in (1, 300, leaf):
            groups, w = plan(m, terms)
            assert groups == (m,) and w <= (m // 2).bit_length()
    # 65521 fits one product up to about 2^20 terms, and takes limbs past it.
    groups, w = plan(65521, 1 << 21)
    assert groups == (65521,) and w < 17
    # Three groups would be needed, but the limbs number two.
    groups, w = plan(_THREE_GROUP_MODULUS, leaf)
    assert groups == (_THREE_GROUP_MODULUS,)
    assert modseries._limb_plan(_THREE_GROUP_MODULUS, w)[0] == 2
    assert modseries._prime_powers(_THREE_GROUP_MODULUS) == (191, 2777, 2797)
    assert modseries._prime_powers(3 ** 19) == (3 ** 19,)
    assert modseries._prime_powers((1 << 31) - 1) == ((1 << 31) - 1,)


@pytest.mark.parametrize("groups", [(7, 11), (482885, 462), (52003, 4290), (65521, 65519)])
def test_crt_join_matches_the_integer_crt(groups):
    # (7, 11) is the smallest case; 23#'s two leaf splits; and the two word
    # moduli r_m_exact joins.  Random residues plus both extremes per group.
    rng = np.random.default_rng(sum(groups))
    parts = [np.concatenate([[0, g - 1], rng.integers(0, g, 500)]).astype(np.int64)
             for g in groups]
    n = len(parts[0])
    mod = math.prod(groups)
    want = []
    for i in range(n):
        x = sum(int(p[i]) * (mod // g) * pow(mod // g, -1, g) for p, g in zip(parts, groups))
        want.append(x % mod)
    first = parts[0]
    got = modseries._crt_join(parts, groups)
    assert got.tolist() == want
    assert got is first  # the join accumulates into parts[0]


def test_a_group_product_that_fails_its_check_is_redone_in_limbs(monkeypatch):
    # With the bound lifted to 2^67, 2 * 1073741789 splits into the groups
    # 1073741789 and 2.  The first group's one float product reaches ~2^66
    # and must fail its check; limbs mod that group must still give the
    # exact product, in both kernels and in the solver's leaves.
    big = 1_073_741_789
    m = 2 * big
    rng = np.random.default_rng(67)
    a, b = rng.integers(0, m, 300), rng.integers(0, m, 300)
    monkeypatch.setattr(modseries, "_FFT_BOUND", 1 << 67)
    assert modseries._product_plan(m, 300, 1 << 67)[0] == (big, 2)
    attempts = []
    real_pass = modseries._limb_pass

    def recording(a, b, n, g, size, w, fa=None):
        out = real_pass(a, b, n, g, size, w, fa)
        attempts.append((g, w, out is not None))
        return out

    monkeypatch.setattr(modseries, "_limb_pass", recording)
    want = integer_product_mod(a, b, m)
    for spectra in (None, {}):
        attempts.clear()
        assert _fft_mul(a, b, 599, m, spectra).tolist() == want
        assert (2, 2, True) in attempts
        tries = [(w, ok) for g, w, ok in attempts if g == big]
        assert tries[0] == (30, False)
        assert [ok for _, ok in tries] == [False] * (len(tries) - 1) + [True]
    # Leaves of 255 and 256 terms plan the same two groups.
    f = sparse_unit_series(rng, ResidueRing(m), 3 * 256 - 2)
    with mock.patch.object(modseries, "_SOLVE_BLOCK", 256):
        attempts.clear()
        assert ring_invert(f).coeffs.tolist() == schoolbook_inverse(f.coeffs, m)
    assert (big, 30, False) in attempts


def test_fft_size_is_the_least_2a_3b_length_covering_n():
    smooth = sorted(2 ** i * 3 ** j for i in range(13) for j in range(8))
    for n in range(1, 3000):
        assert _fft_size(n) == next(s for s in smooth if s >= n)
    assert _fft_size(90241) == 93312


def test_mul_ring_mismatch():
    f = one_series(ResidueRing(5), 3)
    g = one_series(ResidueRing(7), 3)
    with pytest.raises(ValueError, match="mismatched rings"):
        ring_mul(f, g)


def test_mul_truncates_to_shorter_operand():
    ring = ResidueRing(7)
    f = one_series(ring, 10)
    g = one_series(ring, 4)
    assert ring_mul(f, g).trunc == 4


def test_pow_identity_and_empty():
    ring = ResidueRing(13)
    rng = np.random.default_rng(5)
    f = random_series(rng, ring, 30)
    assert ring_pow(f, 1) == f
    assert ring_pow(f, 0) == one_series(ring, 30)
    with pytest.raises(ValueError):
        ring_pow(f, -1)


def count_ordered_square_pairs(n):
    # Lattice-point oracle: ordered pairs (x, y) with x^2 + y^2 = n.
    count = 0
    x = 0
    while x * x <= n:
        rest = n - x * x
        y = int(rest ** 0.5)
        while y * y < rest:
            y += 1
        if y * y == rest:
            count += (2 if x else 1) * (2 if y else 1)
        x += 1
    return count


def test_pow_theta_square_counts_lattice_points():
    ring = ResidueRing(65521)
    sq = ring_pow(theta_phi(5, ring), 2)
    for n in range(6):
        assert sq.coeffs[n] == count_ordered_square_pairs(n)


def test_invert_geometric_series():
    ring = ResidueRing(7)
    f = TruncSeries(ring, [1, 7 - 1] + [0] * 19, 20)  # 1 - q
    assert list(ring_invert(f).coeffs) == [1] * 21


def test_invert_overpartition_head():
    ring = ResidueRing(13)
    phi_neg = transform(theta_phi(3, ring), 1, -1)
    assert list(ring_invert(phi_neg).coeffs) == [1, 2, 4, 8]


def test_invert_is_involutive():
    ring = ResidueRing(11)
    phi = theta_phi(100, ring)
    assert ring_invert(ring_invert(phi)) == phi


def test_invert_times_self_is_one():
    rng = np.random.default_rng(17)
    for m in (11, 9, 25):
        ring = ResidueRing(m)
        for density in (1.0, 0.05):
            f = random_series(rng, ring, 200, density=density, unit_constant=True)
            assert ring_mul(f, ring_invert(f)) == one_series(ring, 200)


def test_invert_requires_unit_constant():
    ring = ResidueRing(9)
    with pytest.raises(ValueError, match="not a unit"):
        ring_invert(TruncSeries(ring, [3, 1, 1], 2))


def test_div_undoes_mul():
    rng = np.random.default_rng(23)
    ring = ResidueRing(13)
    f = random_series(rng, ring, 80)
    g = random_series(rng, ring, 80, unit_constant=True)
    assert ring_div(ring_mul(f, g), g) == f


def test_div_truncates_to_shorter_operand():
    rng = np.random.default_rng(29)
    ring = ResidueRing(11)
    f = random_series(rng, ring, 120)
    g = random_series(rng, ring, 50, unit_constant=True)
    quotient = ring_div(f, g)
    assert quotient.trunc == 50
    assert ring_mul(quotient, g) == TruncSeries(ring, f.coeffs[:51], 50)


def invert_bruteforce(coeffs, trunc, m):
    # Plain O(T^2) inversion recurrence in exact Python integers.
    inv0 = pow(int(coeffs[0]), -1, m)
    out = [inv0]
    for n in range(1, trunc + 1):
        s = 0
        for j in range(1, n + 1):
            s += int(coeffs[j]) * out[n - j]
        out.append(-inv0 * s % m)
    return out


def test_invert_across_solver_block_boundaries(monkeypatch):
    # Truncations straddling a leaf length of 192.
    monkeypatch.setattr(modseries, "_SOLVE_BLOCK", 192)
    rng = np.random.default_rng(53)
    ring = ResidueRing(13)
    for trunc in (1, 63, 191, 192, 193, 385, 777):
        for density in (1.0, 0.04):
            f = random_series(rng, ring, trunc, density=density, unit_constant=True)
            expected = invert_bruteforce(f.coeffs, trunc, 13)
            assert list(ring_invert(f).coeffs) == expected


def test_transform_sign_alternation():
    ring = ResidueRing(5)
    f = TruncSeries(ring, [1, 1, 1], 2)
    assert list(transform(f, 1, -1).coeffs) == [1, 4, 1]
    assert transform(transform(f, 1, -1), 1, -1) == f


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("sign", [1, -1])
def test_transform_matches_its_definition(d, sign):
    # Coefficient n lands at d*n times sign^n; zeros stay zero.
    rng = np.random.default_rng(d)
    ring = ResidueRing(13)
    f = random_series(rng, ring, 30, density=0.5)
    want = [0] * (30 * d + 1)
    for n, c in enumerate(f.coeffs.tolist()):
        want[d * n] = sign ** n * c % 13
    assert transform(f, d, sign).coeffs.tolist() == want


def test_transform_dilation_support():
    ring = ResidueRing(11)
    out = transform(theta_phi(10, ring), 11, 1)
    assert out.trunc == 110
    assert set(out.support.tolist()) == {0, 11, 44, 99}


def test_transform_is_multiplicative():
    rng = np.random.default_rng(31)
    ring = ResidueRing(13)
    f = random_series(rng, ring, 40)
    g = random_series(rng, ring, 40)
    lhs = transform(ring_mul(f, g), 3, 1)
    rhs = ring_mul(transform(f, 3, 1), transform(g, 3, 1))
    assert lhs == rhs


def test_transform_cap_overflow():
    ring = ResidueRing(5)
    f = one_series(ring, TRUNC_CAP // 2)
    with pytest.raises(ValueError, match="truncation cap"):
        transform(f, 3, 1)


def test_extract_parity_split():
    ring = ResidueRing(7)
    f = TruncSeries(ring, [1, 1, 1, 1], 3)
    assert list(extract_progression(f, 2, 1).coeffs) == [0, 1, 0, 1]


def test_extract_partitions_support():
    rng = np.random.default_rng(37)
    ring = ResidueRing(11)
    f = random_series(rng, ring, 50)
    total = zero_series(ring, 50)
    for b in range(4):
        total = ring_add(total, extract_progression(f, 4, b))
    assert total == f


def test_extract_idempotent_and_linear():
    rng = np.random.default_rng(41)
    ring = ResidueRing(13)
    f = random_series(rng, ring, 60)
    g = random_series(rng, ring, 60)
    e = extract_progression(f, 5, 2)
    assert extract_progression(e, 5, 2) == e
    assert (extract_progression(ring_add(f, g), 5, 2)
            == ring_add(extract_progression(f, 5, 2), extract_progression(g, 5, 2)))


def test_extract_compact():
    ring = ResidueRing(11)
    f = TruncSeries(ring, list(range(10)), 9)
    compact = extract_progression(f, 3, 1, compact=True)
    assert list(compact.coeffs) == [1, 4, 7]
    assert compact.trunc == 2


def test_extract_compact_theta_power_head():
    # The compacted 11-progression of phi^10 mod 11 starts at 1: only the
    # zero vector represents 0 as a sum of ten squares.
    ring = ResidueRing(11)
    tenth = ring_pow(theta_phi(44, ring), 10)
    compact = extract_progression(tenth, 11, 0, compact=True)
    assert compact.coeffs[0] == 1


def test_extract_validation():
    ring = ResidueRing(11)
    f = one_series(ring, 5)
    with pytest.raises(ValueError):
        extract_progression(f, 2, 2)
    with pytest.raises(ValueError):
        extract_progression(f, 0, 0)


def test_coefficient_access():
    ring = ResidueRing(101)
    phi = theta_phi(10, ring)
    assert phi.coeffs[4] == 2
    assert phi.coeffs[3] == 0
    with pytest.raises(IndexError):
        phi.coeffs[11]


def test_scalar_and_sub_helpers():
    ring = ResidueRing(7)
    f = TruncSeries(ring, [1, 2, 3], 2)
    assert list(scalar_mul(3, f).coeffs) == [3, 6, 2]
    assert ring_add(f, scalar_mul(-1, f)) == zero_series(ring, 2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 300), st.data())
def test_support_is_kept_exactly_at_density_one_eighth(trunc, data):
    size = trunc + 1
    near = [size // 8 + e for e in (-1, 0, 1, 2) if 0 <= size // 8 + e <= size]
    nnz = data.draw(st.sampled_from(near) | st.integers(0, size))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = np.zeros(size, np.int64)
    coeffs[rng.permutation(size)[:nnz]] = rng.integers(1, 7, nnz)
    s = TruncSeries(ResidueRing(7), coeffs, trunc)
    if nnz > size / 8:
        assert s.support is None
    else:
        assert s.support.tolist() == np.flatnonzero(coeffs).tolist()


def test_support_hint_lists_exact_nonzeros():
    rng = np.random.default_rng(43)
    ring = ResidueRing(13)
    sparse = random_series(rng, ring, 400, density=0.03)
    assert sparse.support is not None
    assert sparse.support.tolist() == np.flatnonzero(sparse.coeffs).tolist()
    dense = random_series(rng, ring, 400)
    assert dense.support is None
    prod = ring_mul(sparse, sparse)
    if prod.support is not None:
        assert prod.support.tolist() == np.flatnonzero(prod.coeffs).tolist()


def test_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(47)
    f = random_series(rng, ResidueRing(65521), 300)
    path = tmp_path / "series.qser"
    save_series(f, path)
    assert load_series(path) == f
    raw = path.read_bytes()
    assert raw[:4] == b"QSER"
    assert raw[4] == 2
    assert int.from_bytes(raw[5:13], "little") == 65521
    assert int.from_bytes(raw[13:21], "little") == 300
    assert len(raw) == 21 + 4 * 301 + 4
    # One CRC block: the crc32 of every residue's bytes closes the file.
    assert int.from_bytes(raw[-4:], "little") == zlib.crc32(raw[21:-4])


def test_cache_rejects_corrupt_headers(tmp_path):
    f = one_series(ResidueRing(7), 3)
    path = tmp_path / "series.qser"
    save_series(f, path)
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    bad = tmp_path / "bad.qser"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        load_series(bad)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_series(bad)
    bad.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_series(bad)


def test_cache_load_reads_only_the_requested_prefix(tmp_path):
    rng = np.random.default_rng(53)
    f = random_series(rng, ResidueRing(101), 500)
    path = tmp_path / "series.qser"
    save_series(f, path)
    head = load_series(path, 101, 40)
    assert head.trunc == 40 and list(head.coeffs) == list(f.coeffs[:41])
    assert load_series(path, 101, 10 ** 6) == f
    assert [p.name for p in tmp_path.iterdir()] == ["series.qser"]


@pytest.mark.parametrize("trunc", [-1, -5])
def test_cache_load_refuses_a_negative_truncation(tmp_path, trunc):
    path = tmp_path / "series.qser"
    save_series(one_series(ResidueRing(7), 3), path)
    with pytest.raises(ValueError, match=f"truncation must be >= 0, got {trunc}"):
        load_series(path, 7, trunc)


def test_cache_prefix_load_checks_only_its_blocks(tmp_path):
    block = 1 << 16
    f = random_series(np.random.default_rng(59), ResidueRing(65521), 3 * block - 5)
    path = tmp_path / "series.qser"
    save_series(f, path)
    raw = bytearray(path.read_bytes())
    assert len(raw) == 21 + 4 * (3 * block - 4) + 4 * 3
    # Bit 0 of a residue in the second block: the value stays below m, so
    # only that block's CRC can see it.
    raw[21 + 4 * (block + 7)] ^= 1
    path.write_bytes(bytes(raw))
    assert load_series(path, 65521, block - 1) == TruncSeries(f.ring, f.coeffs[:block])
    for trunc in (block, None):
        with pytest.raises(ValueError, match="block 1 fails its CRC"):
            load_series(path, 65521, trunc)


def test_cache_prefix_load_checks_its_whole_last_block(tmp_path):
    # A prefix ending inside a block is read into its array, the rest of
    # the block apart; the block's CRC covers both.
    f = random_series(np.random.default_rng(61), ResidueRing(65521), 1000)
    path = tmp_path / "series.qser"
    save_series(f, path)
    raw = bytearray(path.read_bytes())
    raw[21 + 4 * 900] ^= 1
    path.write_bytes(bytes(raw))
    for trunc in (0, 899, 900, None):
        with pytest.raises(ValueError, match="block 0 fails its CRC"):
            load_series(path, 65521, trunc)


def test_cache_io_holds_one_copy_of_the_residues(tmp_path):
    # save_series writes the series' own int32 buffer, as the store holds
    # it, and allocates little beyond the CRC list.  load_series reads the
    # file straight into the int32 array of the series it returns: 4 bytes
    # per coefficient, where a bytes copy beside the array would make 8.
    trunc = 1 << 18
    m = 223_092_870
    f = random_series(np.random.default_rng(67), ResidueRing(m), trunc)
    path = tmp_path / "series.qser"

    def peak(io):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            io()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak(lambda: save_series(f, path)) < 64 << 10
    assert peak(lambda: load_series(path)) < 4 * (trunc + 1) + (64 << 10)
    head = load_series(path, m, trunc - 3)
    assert head.coeffs.dtype == np.int32 and head.ring == f.ring
    assert head.coeffs.tolist() == f.coeffs[:trunc - 2].tolist()


def test_constructor_reduces_int32_input_without_a_wide_copy():
    # An int32 input is reduced in int32 straight into the series' own
    # array: 4 bytes per coefficient and numpy's buffers, where an int64
    # copy beside an int64 remainder takes 16.
    n = 1 << 18
    a = np.random.default_rng(76).integers(-(1 << 31), 1 << 31, n, dtype=np.int32)
    ring = ResidueRing(17)
    tracemalloc.start()
    try:
        f = TruncSeries(ring, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n + (64 << 10)
    assert f.coeffs.dtype == np.int32
    assert f.coeffs.tolist() == (a.astype(np.int64) % 17).tolist()


def test_cache_rejects_forged_and_foreign_files(tmp_path):
    f = one_series(ResidueRing(7), 3)
    path = tmp_path / "series.qser"
    save_series(f, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.qser"
    with pytest.raises(ValueError, match="modulus 7, not 11"):
        load_series(path, 11)
    # A forged truncation must be refused before any residue is read.
    bad.write_bytes(raw[:13] + (1 << 60).to_bytes(8, "little") + raw[21:])
    with pytest.raises(ValueError, match="exceeds"):
        load_series(bad)
    bad.write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        load_series(bad)
    # A residue >= m is refused even when its block's CRC matches.
    body = raw[21:-8] + (7).to_bytes(4, "little")
    bad.write_bytes(raw[:21] + body + zlib.crc32(body).to_bytes(4, "little"))
    with pytest.raises(ValueError, match="residue"):
        load_series(bad)
    bad.write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated"):
        load_series(bad)


_GROWTH_MODULI = (2, 4, 7, 65521, (1 << 31) - 1)
# Leaf lengths the solver tests patch in, so that small truncations cross
# many leaves and pushes; the production length is kept for comparison.
_BLOCKS = (1, 2, 8, 64, modseries._SOLVE_BLOCK)


def leaf_starts(lo, hi, block):
    # Where the solver's leaves over [lo, hi) begin, halving as it does
    # until a leaf is no longer than min(block, its start); lo >= 1.
    if hi - lo <= min(block, lo):
        return [lo]
    mid = (lo + hi) // 2
    return leaf_starts(lo, mid, block) + leaf_starts(mid, hi, block)


def invert_after(f, known):
    # 1/f through its truncation with its first len(known) coefficients
    # taken as solved: the solver core's (out, start) contract, fed the
    # dense divisor's taps and constant term as ring_invert finds them.
    out = np.zeros(f.trunc + 1, np.int32)
    start = min(len(known), f.trunc + 1)
    out[:start] = known[:start]
    taps = np.flatnonzero(f.coeffs[1:]) + 1
    modseries._solve_linear_core(taps, f.coeffs[taps], f.coeffs[0], f.ring, out, start)
    return TruncSeries(f.ring, out, f.trunc)


def grown_stream(trunc, ring, known):
    # The overpartition stream through q^trunc grown from the prefix
    # `known` in place, as the coefficient store grows it.
    out = np.zeros(trunc + 1, np.int32)
    start = min(len(known), trunc + 1)
    out[:start] = known[:start]
    return overpartition_series(trunc, ring, out, start)


@st.composite
def _unit_series_and_split(draw):
    m = draw(st.sampled_from(_GROWTH_MODULI))
    block = draw(st.sampled_from(_BLOCKS))
    trunc = draw(st.integers(0, 3 * 64 + 2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    density = draw(st.sampled_from((0.02, 0.2, 1.0)))
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, m, trunc + 1)
    coeffs[rng.random(trunc + 1) > density] = 0
    coeffs[0] = draw(st.integers(1, m - 1).filter(lambda u: np.gcd(u, m) == 1))
    # An inversion writes c[0] and cuts [1, trunc] into leaves, doubling
    # in length up to block: split at every boundary +-1.
    bounds = [k * block for k in (1, 2, 3)] + leaf_starts(1, trunc + 1, block)
    splits = [0, trunc] + [s + e for s in bounds for e in (-1, 0, 1)]
    split = draw(st.sampled_from([s for s in splits if 0 <= s <= trunc]
                                 + [draw(st.integers(0, trunc))]))
    return TruncSeries(ResidueRing(m), coeffs, trunc), split, block


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_unit_series_and_split())
def test_invert_extends_a_known_prefix(case):
    f, split, block = case
    short = TruncSeries(f.ring, f.coeffs[:split + 1], split)
    with mock.patch.object(modseries, "_SOLVE_BLOCK", block):
        grown = invert_after(f, ring_invert(short).coeffs)
        assert grown == ring_invert(f)
    assert ring_mul(f, grown) == one_series(f.ring, f.trunc)


_PREFIX_MODULI = (13, 223_092_870, (1 << 31) - 1)


def phi_minus_q_taps(trunc):
    # phi(-q) = 1 + sum_k 2*(-1)^k q^(k^2): its taps through q^trunc.
    k = np.arange(1, math.isqrt(trunc) + 1)
    return k * k, np.where(k % 2 == 1, -2, 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PREFIX_MODULI), st.sampled_from((1, 2, 8, 64)), st.data())
def test_the_solver_never_writes_the_known_prefix(m, block, data):
    # out[:start] holds a sentinel, not the inverse's prefix: the solve
    # must take it as given and leave every entry of it as it was.
    start = data.draw(st.integers(1, 2 * block))
    trunc = data.draw(st.integers(start - 1, 4 * block + 8))
    out = np.zeros(trunc + 1, np.int32)
    out[:start] = m - 1
    with mock.patch.object(modseries, "_SOLVE_BLOCK", block):
        modseries._solve_linear_core(*phi_minus_q_taps(trunc), 1, ResidueRing(m), out, start)
    assert (out[:start] == m - 1).all()


def test_a_stream_grown_from_a_short_prefix_keeps_it():
    # The production constants: a prefix of 301 entries, far shorter than
    # one leaf, grown to 20000 mod 23#.
    out = np.zeros(20_001, np.int32)
    out[:301] = 7
    modseries._solve_linear_core(*phi_minus_q_taps(20_000), 1, ResidueRing(223_092_870),
                                 out, 301)
    assert (out[:301] == 7).all()


def schoolbook_quotient(num, den, m, known=()):
    # Independent oracle: the defining recurrence of num/den in Python
    # integers, summed over den's nonzero taps only, continued from the
    # prefix `known` (taken as given, whatever it holds) through len(den).
    f = [int(x) for x in den]
    taps = [(j, v) for j, v in enumerate(f) if j and v]
    exps = [j for j, _ in taps]
    f0inv = pow(f[0], -1, m)
    g = [int(x) for x in known]
    for n in range(len(g), len(f)):
        s = int(num[n]) if n < len(num) else 0
        below = taps[:bisect.bisect_right(exps, n)]
        g.append(f0inv * (s - sum(v * g[n - j] for j, v in below)) % m)
    return g


def schoolbook_inverse(coeffs, m):
    return schoolbook_quotient([1], coeffs, m)


@pytest.mark.parametrize("m", [65521, 223_092_870, (1 << 31) - 1])
def test_invert_matches_schoolbook_oracle(m):
    rng = np.random.default_rng(m % 1000)
    trunc = 4 * 192 + 17
    ring = ResidueRing(m)
    cases = [random_series(rng, ring, trunc, density, unit_constant=True)
             for density in (1.0, 0.3, 0.02)]
    # Taps at the extremes of the signed range, m//2 and m//2 + 1, and m - 1:
    # all equal (one magnitude g), and with every third tap set to 1.  For
    # m//2 and m//2 + 1 that mix takes the multiply path: each such tap
    # enters its int32 run as its product reduced mod m.
    for value in (m // 2, m // 2 + 1, m - 1):
        coeffs = np.full(trunc + 1, value)
        coeffs[0] = m - 1
        cases.append(TruncSeries(ring, coeffs, trunc))
        coeffs = coeffs.copy()
        coeffs[3::3] = 1
        cases.append(TruncSeries(ring, coeffs, trunc))
    expected = [schoolbook_inverse(f.coeffs, m) for f in cases]
    for block in _BLOCKS:
        # About 64 leaves or more; one-coefficient leaves cost one FFT
        # product each, so the smallest blocks solve a prefix.
        t = min(trunc, 64 * block + 17)
        with mock.patch.object(modseries, "_SOLVE_BLOCK", block):
            for f, want in zip(cases, expected):
                prefix = TruncSeries(ring, f.coeffs[:t + 1], t)
                assert ring_invert(prefix).coeffs.tolist() == want[:t + 1]


def test_overpartitions_mod_primorial_match_the_tap_recurrence():
    # pbar through two production leaves and a bit, against the recurrence
    # over phi(-q)'s taps 2*(-1)^k at k^2, in Python integers.
    m = 223_092_870
    trunc = 2 * modseries._SOLVE_BLOCK + 17
    pbar = [1]
    for n in range(1, trunc + 1):
        s = 0
        k = 1
        while k * k <= n:
            s += (-1) ** k * pbar[n - k * k]
            k += 1
        pbar.append(-2 * s % m)
    assert overpartition_series(trunc, ResidueRing(m)).coeffs.tolist() == pbar


# 4096 was the production leaf length before 16384; both still run here.
@pytest.mark.parametrize("block", sorted({*_BLOCKS, 4096}))
def test_overpartitions_mod_two_have_no_taps(block):
    # phi(-q) = 1 mod 2, so the solver sees no taps at all.
    with mock.patch.object(modseries, "_SOLVE_BLOCK", block):
        ring = ResidueRing(2)
        one = one_series(ring, 300)
        assert overpartition_series(300, ring) == one
        assert ring_div(theta_phi(300, ring), transform(theta_phi(300, ring), 1, -1)) == one


@pytest.mark.parametrize("m", [12, 65521, (1 << 31) - 1])
def test_mixed_and_shared_tap_magnitudes_match_the_oracle(m):
    # Sparse taps of a few small magnitudes take the multiply path; taps
    # +-3 share g = 3 and take the in-place path with g != 2.
    rng = np.random.default_rng(m % 997)
    trunc = 300
    ring = ResidueRing(m)
    cases = []
    for values in ((1, 2, 3, m - 2, m - 5), (3, m - 3)):
        coeffs = np.zeros(trunc + 1, np.int64)
        at = rng.choice(np.arange(1, trunc + 1), 40, replace=False)
        coeffs[at] = rng.choice(values, 40)
        coeffs[0] = 1
        cases.append(TruncSeries(ring, coeffs, trunc))
    expected = [schoolbook_inverse(f.coeffs, m) for f in cases]
    for block in _BLOCKS:
        with mock.patch.object(modseries, "_SOLVE_BLOCK", block):
            for f, want in zip(cases, expected):
                assert ring_invert(f).coeffs.tolist() == want


@pytest.mark.parametrize("m", [13, 223_092_870, (1 << 31) - 1])
def test_div_by_sparse_and_dense_divisors_across_leaves(m):
    # A dense numerator times the divisor's inverse; the divisor is phi
    # (g = 2), phi(-q) (g = 2, signs +-1) or a dense random unit series.
    rng = np.random.default_rng(m % 991)
    trunc = 260
    ring = ResidueRing(m)
    num = random_series(rng, ring, trunc)
    divisors = [theta_phi(trunc, ring), transform(theta_phi(trunc, ring), 1, -1),
                random_series(rng, ring, trunc, unit_constant=True)]
    expected = [schoolbook_quotient(num.coeffs, g.coeffs, m) for g in divisors]
    for block in _BLOCKS:
        with mock.patch.object(modseries, "_SOLVE_BLOCK", block):
            for g, want in zip(divisors, expected):
                assert ring_div(num, g).coeffs.tolist() == want


# Moduli whose int32 runs hold cap = (2^31 - 1) // (m - 1) taps of each
# kind: 1 at 2^31 - 1 and 2^30 + 1, 2 at 2^30 - 1, 9 at 23#.  (At a power of
# two such as 2^30 an int32 overflow would change nothing mod m.)
_RUN_CAPS = {(1 << 31) - 1: 1, (1 << 30) + 1: 1, (1 << 30) - 1: 2, 223_092_870: 9}


def run_taps(kind, cap, rng):
    # Exponents 1..2*cap + 6, where every tap reaches every position past
    # them, and the squares beyond; values g*u for units u.
    exps = sorted(set(range(1, 2 * cap + 7)) | {k * k for k in range(1, 18)})
    count = len(exps)
    if kind == "plus":
        vals = [1] * count
    elif kind == "minus":
        vals = [-3] * count  # g = 3, every unit -1
    elif kind == "alternating":
        vals = [2 if j % 2 else -2 for j in exps]  # g = 2, as in phi(-q)
    elif kind == "products":
        # Every unit positive in [2, cap + 3] (two magnitudes at least, so
        # g = 1): each tap enters its run as u*c mod m, near m against the
        # residues m - 1.
        vals = rng.integers(2, cap + 4, count).tolist()
        vals[:2] = [2, cap + 3]
    else:
        top = cap if kind == "mixed-to-cap" else cap + 3
        units = rng.integers(1, top + 1, count) * rng.choice([-1, 1], count)
        units[:2] = [top, -top]
        vals = units.tolist()
    return exps, vals


def run_residues(kind, m, trunc, rng):
    # Prefixes with many residues of m - 1: everywhere, on even exponents
    # only (so alternating taps stack one sign's units at odd positions),
    # at random, or any residue.
    if kind == "m-1":
        return np.full(trunc + 1, m - 1)
    if kind == "m-1-even":
        return (np.arange(trunc + 1) % 2 == 0) * (m - 1)
    if kind == "m-1-random":
        return rng.integers(0, 2, trunc + 1) * (m - 1)
    return rng.integers(0, m, trunc + 1)


@pytest.mark.parametrize("units", ["plus", "minus", "alternating", "products",
                                   "mixed-to-cap", "mixed-past-cap"])
@pytest.mark.parametrize("m", sorted(_RUN_CAPS))
def test_int32_runs_match_the_schoolbook(m, units):
    # The solver sums every tap into int32 runs of at most cap taps of each
    # kind: -c for the unit -1, and +c or u*c mod m for any other unit.  Each
    # known prefix c[:split] is chosen with many residues of m - 1 past its
    # first `block` entries, which are the inverse's own, as every leaf
    # reads them as its head; the solve, cut into short leaves and short
    # push chunks, must continue the recurrence c[n] = -sum_j den_j c[n - j]
    # from that prefix as the schoolbook does.
    cap = _RUN_CAPS[m]
    assert ((1 << 31) - 1) // (m - 1) == cap
    rng = np.random.default_rng(m % 1013 + len(units))
    trunc = 300
    exps, vals = run_taps(units, cap, rng)
    den = np.zeros(trunc + 1, np.int64)
    den[exps] = np.array(vals) % m
    den[0] = 1
    inverse = schoolbook_inverse(den, m)
    for residues in ("m-1", "m-1-even", "m-1-random", "random"):
        c = run_residues(residues, m, trunc, rng)
        for block, chunk in ((8, 16), (64, modseries._PUSH_CHUNK)):
            split = 3 * block + 1
            out = np.zeros(trunc + 1, np.int32)
            out[:split] = c[:split]
            out[:block] = inverse[:block]
            want = schoolbook_quotient([1], den, m, known=out[:split])
            with mock.patch.object(modseries, "_SOLVE_BLOCK", block), \
                    mock.patch.object(modseries, "_PUSH_CHUNK", chunk):
                got = modseries._solve_linear_core(exps, vals, 1, ResidueRing(m), out, split)
            assert got.dtype == np.int32
            assert got.tolist() == want, (residues, block)


# Moduli for the segment oracle, with their int32 run caps: 23# (9),
# 2^30 - 1 (2) and 2^31 - 1 (1, one tap of each kind per run).
_SEGMENT_MODULI = (223_092_870, (1 << 30) - 1, (1 << 31) - 1)


@st.composite
def _segment_case(draw):
    m = draw(st.sampled_from(_SEGMENT_MODULI))
    chunk = draw(st.sampled_from((2, 4, 8)))
    block = draw(st.sampled_from((1, 2, 8, 64)))
    segment = max(2 * chunk, block)
    # Truncations and known-prefix lengths at and next to the segment
    # boundaries k * segment (the solve walks [start, t] from start, so a
    # boundary is also start + k * segment), or anywhere.
    near = [k * segment + e for k in range(1, 6) for e in (-1, 0, 1)]
    trunc = draw(st.sampled_from(near) | st.integers(0, 6 * segment + 2))
    start = draw(st.sampled_from([s for s in [0, 1, trunc, trunc + 1] + near
                                  if s <= trunc + 1])
                 | st.integers(0, trunc + 1))
    taps = draw(st.sampled_from(("phi", "random", "extreme")))
    prefix = draw(st.sampled_from(("inverse", "m-1", "divide")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return m, chunk, block, trunc, start, taps, prefix, seed


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_segment_case())
def test_segments_match_the_schoolbook(case):
    # The solver walks [start, t] in segments of max(2 * _PUSH_CHUNK,
    # _SOLVE_BLOCK) positions, each fed the whole solved prefix in one push,
    # with acc zeroed per segment.  Against the Python-int recurrence,
    # continued from known prefixes that straddle the segment boundaries:
    # the inverse's own, or m - 1 past the first `block` entries (the
    # leaves' head); or a quotient by ring_div.
    m, chunk, block, trunc, start, taps, prefix, seed = case
    rng = np.random.default_rng(seed)
    den = np.zeros(trunc + 1, np.int64)
    if taps == "phi":  # phi(-q): g = 2, units +-1
        k = np.arange(1, math.isqrt(trunc) + 1)
        den[k * k] = np.where(k % 2 == 1, m - 2, 2)
    else:
        exps = rng.choice(np.arange(1, trunc + 1), min(trunc, 12), replace=False)
        den[exps] = (rng.choice([m // 2, m // 2 + 1, m - 1, 1], len(exps)) if taps == "extreme"
                     else rng.integers(1, m, len(exps)))
    den[0] = rng.integers(1, m)
    while math.gcd(int(den[0]), m) != 1:
        den[0] += 1
    if prefix == "divide":
        ring = ResidueRing(m)
        num = rng.integers(0, m, trunc + 1)
        with mock.patch.object(modseries, "_PUSH_CHUNK", chunk), \
                mock.patch.object(modseries, "_SOLVE_BLOCK", block):
            got = ring_div(TruncSeries(ring, num, trunc), TruncSeries(ring, den, trunc))
        assert got.coeffs.tolist() == schoolbook_quotient(num, den, m)
        return
    out = np.zeros(trunc + 1, np.int32)
    out[:start] = schoolbook_inverse(den, m)[:start]
    if prefix == "m-1":
        out[block:start] = m - 1
    want = schoolbook_quotient([1], den, m, known=out[:start])
    taps_exp = np.flatnonzero(den[1:]) + 1
    with mock.patch.object(modseries, "_PUSH_CHUNK", chunk), \
            mock.patch.object(modseries, "_SOLVE_BLOCK", block):
        got = modseries._solve_linear_core(taps_exp, den[taps_exp], den[0], ResidueRing(m),
                                           out, start)
    assert got is out
    assert got.tolist() == want


_ENTRY_MODULI = (2, 13, 223_092_870, (1 << 31) - 1)


@st.composite
def _raw_divisor_case(draw):
    # A divisor as the solver's one entry takes it: taps as any integer
    # representative within int64 (negative, >= m, = 0 mod m, past the
    # truncation) and a unit constant term other than 1.
    m = draw(st.sampled_from(_ENTRY_MODULI))
    chunk = draw(st.sampled_from((2, 4, 8)))
    block = draw(st.sampled_from((1, 2, 8, 64)))
    trunc = draw(st.integers(0, 4 * max(2 * chunk, block) + 2))
    exps = sorted(draw(st.sets(st.integers(1, trunc + 8), max_size=12)))
    residues = st.sampled_from((0, 1, m // 2, m // 2 + 1, m - 1)) | st.integers(0, m - 1)
    lifts = st.integers(-(1 << 31), 1 << 31)
    vals = [draw(residues) + m * draw(lifts) for _ in exps]
    unit = draw(st.integers(1, m - 1).filter(lambda u: math.gcd(u, m) == 1))
    f0 = unit + m * draw(lifts.filter(lambda k: unit + m * k != 1))
    start = draw(st.integers(0, trunc + 1))
    prefix = draw(st.sampled_from(("inverse", "m-1")))
    return m, chunk, block, trunc, exps, vals, f0, start, prefix


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_raw_divisor_case())
def test_the_one_entry_normalises_any_representative_of_the_taps(case):
    # The solver reduces the taps mod m, drops those = 0 mod m or past q^t,
    # balances the rest and inverts the constant term: solved from a known
    # prefix (the inverse's own, or m - 1 past the leaves' head), that is
    # the schoolbook recurrence of the divisor mod m.
    m, chunk, block, trunc, exps, vals, f0, start, prefix = case
    den = np.zeros(trunc + 1, np.int64)
    for e, v in zip(exps, vals):
        if e <= trunc:
            den[e] = v % m
    den[0] = f0 % m
    out = np.zeros(trunc + 1, np.int32)
    out[:start] = schoolbook_inverse(den, m)[:start]
    if prefix == "m-1":
        out[block:start] = m - 1
    want = schoolbook_quotient([1], den, m, known=out[:start])
    with mock.patch.object(modseries, "_PUSH_CHUNK", chunk), \
            mock.patch.object(modseries, "_SOLVE_BLOCK", block):
        got = modseries._solve_linear_core(exps, vals, f0, ResidueRing(m), out, start)
    assert got.tolist() == want


def test_a_quotient_inverts_only_through_its_own_truncation(solver_outputs):
    # The divisor is ten times longer than the numerator: ring_div makes
    # one solve, the divisor's inverse through f.trunc, and no other.
    m = 223_092_870
    rng = np.random.default_rng(10)
    ring = ResidueRing(m)
    f = random_series(rng, ring, 300)
    g = sparse_unit_series(rng, ring, 3000)
    quotient = ring_div(f, g)
    assert [len(c) for c in solver_outputs] == [301]
    assert quotient.coeffs.tolist() == schoolbook_quotient(f.coeffs, g.coeffs[:301], m)


def leaf_lengths(lo, hi, block):
    starts = leaf_starts(lo, hi, block)
    return [b - a for a, b in zip(starts, starts[1:] + [hi])]


def past_head_lengths(hi, block):
    # The lengths of a solve's leaves over [1, hi) that start at block or
    # later, past the head phase.
    starts = leaf_starts(1, hi, block)
    return [k for a, k in zip(starts, leaf_lengths(1, hi, block)) if a >= block]


def sparse_unit_series(rng, ring, trunc, taps=12):
    # A unit constant and a few random taps: its inverse is dense, so every
    # leaf is a full product, while the oracle sums over a dozen taps.
    coeffs = np.zeros(trunc + 1, np.int64)
    coeffs[rng.choice(np.arange(1, trunc + 1), min(taps, trunc), replace=False)] = \
        rng.integers(0, ring.modulus, min(taps, trunc))
    coeffs[0] = 1
    return TruncSeries(ring, coeffs, trunc)


@pytest.mark.parametrize("m", [2, 13, 65521, 223_092_870, (1 << 31) - 1])
def test_leaves_sharing_head_spectra_match_the_oracle(m):
    # One solve reuses the head's limb spectra for every leaf of a length.
    # A solve of 4*block - 2 terms writes c[0], doubles its leaves through
    # [1, block) and cuts the rest into leaves of block, block - 1 and
    # block (two leaves of 1 when block is 1); a quotient by a dense
    # divisor is that divisor's inversion times the numerator.
    rng = np.random.default_rng(m % 1009)
    ring = ResidueRing(m)
    for block in _BLOCKS:
        t_inv = t_div = 4 * block - 2
        past = past_head_lengths(t_inv + 1, block)
        assert len(set(past)) == min(block, 2) < len(past)
        f = sparse_unit_series(rng, ring, t_inv)
        num = random_series(rng, ring, t_div)
        den = (random_series(rng, ring, t_div, unit_constant=True) if block <= 64
               else sparse_unit_series(rng, ring, t_div))
        with mock.patch.object(modseries, "_SOLVE_BLOCK", block):
            assert ring_invert(f).coeffs.tolist() == schoolbook_inverse(f.coeffs, m)
            assert ring_div(num, den).coeffs.tolist() == \
                schoolbook_quotient(num.coeffs, den.coeffs, m)


def solve_leaves(solve, block, chunk):
    # The result of solve() and, for each solver core call in the order
    # they start, the lengths of the leaves it made, in order: a leaf is
    # the one _fft_mul call given its solve's head spectra.
    solves = {}  # id of a solve's spectra -> its leaf lengths
    kept = []  # keeps each spectra alive, so ids stay unique
    real_mul = modseries._fft_mul

    def recording_mul(a, b, n, m, spectra=None, share=False):
        if spectra is not None:
            solves.setdefault(id(spectra), []).append(n)
            kept.append(spectra)
        return real_mul(a, b, n, m, spectra, share)

    with mock.patch.object(modseries, "_fft_mul", recording_mul), \
            mock.patch.object(modseries, "_SOLVE_BLOCK", block), \
            mock.patch.object(modseries, "_PUSH_CHUNK", chunk):
        return solve(), list(solves.values())


def test_a_short_push_chunk_keeps_full_leaves():
    # A segment spans at least one leaf, so the push chunk cuts the pushes
    # but never the leaves: chunks of 1, 2 and 8 positions give the leaves
    # of chunks of 32, whose two-chunk segment is one 64-position leaf.
    # Each solve writes c[0], and its head-phase leaves [mid, hi), those
    # with mid < 64, are at most mid long; every later leaf is 64 long but
    # the last.  A quotient is one solve, the divisor's inversion, and one
    # product, which takes no head spectra and so makes no leaf.
    rng = np.random.default_rng(64)
    ring = ResidueRing(223_092_870)
    trunc = 1000
    num = random_series(rng, ring, trunc)
    den = sparse_unit_series(rng, ring, trunc)
    for solve in (lambda: overpartition_series(trunc, ring), lambda: ring_div(num, den)):
        want, want_leaves = solve_leaves(solve, 64, 32)
        assert len(want_leaves) == 1
        lengths = want_leaves[0]
        mids = np.cumsum([1] + lengths[:-1]).tolist()
        assert all(k <= mid for k, mid in zip(lengths, mids) if mid < 64)
        past = [k for k, mid in zip(lengths, mids) if mid >= 64]
        assert past[:-1] == [64] * (len(past) - 1)
        assert sum(past) == trunc - 64  # [65, trunc]
        for chunk in (1, 2, 8):
            got, leaves = solve_leaves(solve, 64, chunk)
            assert leaves == want_leaves, chunk
            assert got == want


def test_a_leaf_that_fails_its_check_is_redone_narrower(monkeypatch):
    # With the bound lifted, each leaf first tries one limb at 2^31 - 1; its
    # sums reach ~2^66 and must fail the check.  Narrower widths build their
    # own head spectra: every spectrum a leaf uses was built for that leaf's
    # length, width and FFT size.
    m = (1 << 31) - 1
    rng = np.random.default_rng(7)
    ring = ResidueRing(m)
    # 4*64 - 2 terms take leaves of the full length 64 past the head phase.
    f = random_series(rng, ring, 4 * 64 - 2, unit_constant=True)
    num = random_series(rng, ring, 4 * 64 - 2)
    built, kept, passes = {}, [], []
    real_spectrum, real_pass = modseries._limb_spectrum, modseries._limb_pass

    def recording_spectrum(x, i, m, w, offset, size):
        out = real_spectrum(x, i, m, w, offset, size)
        built[id(out)] = (len(x), w, size)
        kept.append(out)  # keeps ids unique while the test runs
        return out

    def recording_pass(a, b, n, m, size, w, fa=None):
        out = real_pass(a, b, n, m, size, w, fa)
        if fa is not None:  # a leaf, not ring_div's product with the inverse
            assert all(built[id(spec)] == (n, w, size) for spec in fa)
            passes.append((n, w, out is not None))
        return out

    monkeypatch.setattr(modseries, "_FFT_BOUND", 1 << 80)
    monkeypatch.setattr(modseries, "_limb_spectrum", recording_spectrum)
    monkeypatch.setattr(modseries, "_limb_pass", recording_pass)
    with mock.patch.object(modseries, "_SOLVE_BLOCK", 64):
        inverse = ring_invert(f)
        quotient = ring_div(num, f)
    assert next(p for p in passes if p[0] == 64) == (64, 31, False)
    assert any(ok for *_, ok in passes)
    assert inverse.coeffs.tolist() == schoolbook_inverse(f.coeffs, m)
    assert quotient.coeffs.tolist() == schoolbook_quotient(num.coeffs, f.coeffs, m)


def test_leaves_transform_only_their_right_hand_side(monkeypatch):
    # Inverting phi(-q).  Mod 23#, at every production leaf length the plan
    # splits 23# into two coprime groups, one float product each; mod
    # 2^31 - 1 no prime power fits one product, and the plan takes k = 2
    # limbs.  The head is transformed once per group (or limb), leaf length
    # and width, and each leaf transforms its right-hand side once per
    # group (or limb) and takes one irfft per group (or limb pair): mod
    # 23#, 2 rfft and 2 irfft; mod 2^31 - 1, 2 rfft and 4 irfft.
    counts = {}
    heads = {}  # (group, leaf length, width) -> (head spectra, head residues) per leaf
    lock = threading.Lock()  # pooled leaves transform on worker threads
    for name in ("rfft", "irfft"):
        def counted(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
            with lock:
                counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    real_pass = modseries._limb_pass

    def recording_pass(a, b, n, g, size, w, fa=None):
        if fa is not None:
            with lock:
                heads.setdefault((g, n, w), []).append((fa, a))
        return real_pass(a, b, n, g, size, w, fa)

    monkeypatch.setattr(modseries, "_limb_pass", recording_pass)
    for m, block, groups_per_leaf, limbs in ((223_092_870, modseries._SOLVE_BLOCK, 2, 1),
                                             ((1 << 31) - 1, 256, 1, 2)):
        ring = ResidueRing(m)

        def ffts(trunc):
            counts.update(rfft=0, irfft=0)
            heads.clear()
            with mock.patch.object(modseries, "_SOLVE_BLOCK", block):
                overpartition_series(trunc, ring)
            return counts["rfft"], counts["irfft"]

        # The head phase alone: c[0] and the leaves of [1, block), which a
        # solve of 4*block - 2 terms takes too, before three leaves of
        # block, block - 1 and block.
        head_rfft, head_irfft = ffts(block - 1)
        trunc = 4 * block - 2
        lengths = past_head_lengths(trunc + 1, block)
        assert len(lengths) == 3 and len(set(lengths)) == 2
        assert all(k < block - 1 for k in leaf_lengths(1, block, block))
        for n in set(lengths):
            groups, w = modseries._product_plan(ring.modulus, n, modseries._FFT_BOUND)
            assert len(groups) == groups_per_leaf and math.prod(groups) == ring.modulus
            if len(groups) == 1:
                assert modseries._limb_plan(m, w)[0] == limbs
        rfft, irfft = ffts(trunc)
        per_leaf = groups_per_leaf * limbs
        assert rfft - head_rfft == per_leaf * (len(lengths) + len(set(lengths)))
        assert irfft - head_irfft == per_leaf * limbs * len(lengths)
        # Every leaf of one length reads the same head spectra and, mod each
        # group of a split, the same head residues: one reduction per group.
        past = {key: uses for key, uses in heads.items() if key[1] in lengths}
        assert len(past) == groups_per_leaf * len(set(lengths))
        for uses in past.values():
            assert all(fa is uses[0][0] for fa, _ in uses)
            assert groups_per_leaf == 1 or all(a is uses[0][1] for _, a in uses)


@contextlib.contextmanager
def worker_pool():
    # A two-thread pool in place of the module's, which a one-CPU host
    # lacks, so three threads share the work.
    with ThreadPoolExecutor(2, thread_name_prefix="modseries") as pool, \
            mock.patch.object(modseries, "_POOL", pool), \
            mock.patch.object(modseries, "_SHARE", True):
        yield pool


_PUSH_CHUNKS = (1, 2, 8, 64)


def extreme_tap_series(ring, trunc, taps=30):
    # Taps at 1..taps, each m//2 but every third 1: mixed magnitudes take
    # the multiply path with umax = m//2, past the int32 run cap mod 23#
    # and near 2^31; each such tap enters its run as its product reduced
    # mod m.
    m = ring.modulus
    coeffs = np.zeros(trunc + 1, np.int64)
    coeffs[1:taps + 1] = m // 2
    coeffs[3:taps + 1:3] = 1
    coeffs[0] = 1
    return TruncSeries(ring, coeffs, trunc)


@pytest.mark.parametrize("m", [2, 13, 223_092_870, (1 << 31) - 1])
def test_chunked_pushes_and_pooled_leaves_match_the_oracle(m, pool_tasks):
    # Every leaf length and push chunk small, so that pushes are cut into
    # many chunks and every leaf runs on the pool; the result must equal
    # the oracle, and the serial solve that shares nothing, array for
    # array.  Only the pooled solves run tasks on a pool thread.
    rng = np.random.default_rng(m % 1013)
    ring = ResidueRing(m)
    if m == (1 << 31) - 1:
        umax = m // 2
        assert umax > ((1 << 31) - 1) // (m - 1)  # past cap: reduce on add
    for block in _BLOCKS[:-1]:
        # One-coefficient leaves cost one FFT product each: solve a prefix.
        trunc = min(200, 24 * block + 17)
        num = random_series(rng, ring, trunc)
        dens = [sparse_unit_series(rng, ring, trunc, taps=40),
                transform(theta_phi(trunc, ring), 1, -1), extreme_tap_series(ring, trunc)]
        inverses = [schoolbook_inverse(f.coeffs, m) for f in dens]
        quotients = [schoolbook_quotient(num.coeffs, f.coeffs, m) for f in dens]
        for chunk in _PUSH_CHUNKS:
            with mock.patch.object(modseries, "_SOLVE_BLOCK", block), \
                    mock.patch.object(modseries, "_PUSH_CHUNK", chunk):
                pool_tasks.clear()
                with mock.patch.object(modseries, "_SHARE", False):
                    serial = [(ring_invert(f), ring_div(num, f)) for f in dens]
                assert not pool_tasks
                with worker_pool():
                    pooled = [(ring_invert(f), ring_div(num, f)) for f in dens]
            for (inv, quo), want_inv, want_quo in zip(pooled, inverses, quotients):
                assert inv.coeffs.tolist() == want_inv
                assert quo.coeffs.tolist() == want_quo
            for (inv, quo), (inv1, quo1) in zip(pooled, serial):
                assert np.array_equal(inv.coeffs, inv1.coeffs)
                assert np.array_equal(quo.coeffs, quo1.coeffs)
    assert pool_tasks


def test_one_cpu_means_no_pool_and_the_same_stream(monkeypatch, pool_tasks):
    def shares(cpus, limit=None):
        monkeypatch.setattr(modseries.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        modseries._limit_threads(limit)
        return modseries._SHARE

    assert not shares({0})
    assert not shares(set(range(8)), limit=1)
    # The caller works too, so two CPUs or more get one pool thread.
    assert shares({0, 1}) and shares(set(range(8))) and shares(set(range(8)), limit=2)
    # The top pushes span more than two production push chunks and the
    # leaves have production length, so both parts use the pool.
    ring = ResidueRing(223_092_870)
    trunc = 5 * modseries._PUSH_CHUNK
    shares({0})
    serial = overpartition_series(trunc, ring)
    assert not pool_tasks
    shares({0, 1})
    pooled = overpartition_series(trunc, ring)
    assert pool_tasks and modseries._POOL._max_workers == 1
    assert np.array_equal(serial.coeffs, pooled.coeffs)


# Run in a fresh process, where no solve has made the pool yet: two usable
# CPUs, every ThreadPoolExecutor made and every task submitted counted, and
# leaves and push chunks of 64 positions, so a solve to q^3000 shares its
# pushes and its leaves' CRT group products.
POOL_PROBE = (
    "import os, sys, threading, time\n"
    "from concurrent import futures\n"
    "from overcong import ResidueRing, modseries, overpartition_series\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "modseries._limit_threads(None)\n"
    "modseries._SOLVE_BLOCK = modseries._PUSH_CHUNK = 64\n"
    "made, submitted = [], []\n"
    "class Counted(futures.ThreadPoolExecutor):\n"
    "    def __init__(self, *args, **kwargs):\n"
    "        time.sleep(0.01)\n"
    "        made.append(self)\n"
    "        super().__init__(*args, **kwargs)\n"
    "    def submit(self, *args, **kwargs):\n"
    "        submitted.append(1)\n"
    "        return super().submit(*args, **kwargs)\n"
    "futures.ThreadPoolExecutor = Counted\n"
    "ring = ResidueRing(223092870)\n"
    "def solve():\n"
    "    return overpartition_series(3000, ring).coeffs.tolist()\n"
)


def test_the_first_pooled_solve_makes_the_one_pool():
    # The first solve that shares work makes the pool, with one thread;
    # later limits only say whether a solve shares its steps with it, so
    # the pool is never shut down or replaced, and a solve under a limit
    # of one submits nothing.
    code = POOL_PROBE + (
        "outputs, pools = [], []\n"
        "for limit in (1, 2, None, 1, 2):\n"
        "    modseries._limit_threads(limit)\n"
        "    before = len(submitted)\n"
        "    outputs.append(solve())\n"
        "    assert (len(submitted) > before) == (limit != 1), limit\n"
        "    pools.append(modseries._POOL)\n"
        "assert all(out == outputs[0] for out in outputs)\n"
        "assert pools[0] is None and len(made) == 1, made\n"
        "assert all(pool is made[0] for pool in pools[1:])\n"
        "assert made[0]._max_workers == 1 and not made[0]._shutdown\n"
    )
    done = python(["-c", code])
    assert done.returncode == 0, done.stderr


def test_callers_racing_to_the_first_pooled_step_share_one_pool():
    # More callers than cores reach an unmade pool at once, with a short
    # switch interval, and making the pool takes a while; the lock lets
    # exactly one of them make it.
    code = POOL_PROBE + (
        "barrier = threading.Barrier(6)\n"
        "got = []\n"
        "def first_step():\n"
        "    barrier.wait(timeout=30)\n"
        "    got.append(modseries._pool_map(abs, [-1, -2, -3]))\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads = [threading.Thread(target=first_step) for _ in range(6)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=30)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "assert got == [[1, 2, 3]] * 6, got\n"
        "assert made == [modseries._POOL], made\n"
    )
    done = python(["-c", code])
    assert done.returncode == 0, done.stderr


def test_a_solve_shorter_than_a_segment_submits_nothing():
    # Here a segment is 128 positions.  A solve over fewer, cold or grown
    # from a known prefix of 3000, keeps every step on the calling thread
    # and makes no pool; a solve over one segment, cold or grown, shares
    # its leaves' group products.  Each output equals the serial solve's.
    code = POOL_PROBE + (
        "import numpy as np\n"
        "assert max(2 * modseries._PUSH_CHUNK, modseries._SOLVE_BLOCK) == 128\n"
        "modseries._limit_threads(1)\n"
        "known = overpartition_series(3000, ring).coeffs[:3000]\n"
        "def grow(trunc, start, limit):\n"
        "    modseries._limit_threads(limit)\n"
        "    out = np.zeros(trunc + 1, np.int32)\n"
        "    out[:start] = known[:start]\n"
        "    before = len(submitted)\n"
        "    got = overpartition_series(trunc, ring, out, start).coeffs.tolist()\n"
        "    return got, len(submitted) > before\n"
        "for trunc, start, shares in ((126, 0, False), (3126, 3000, False),\n"
        "                             (127, 0, True), (3127, 3000, True)):\n"
        "    serial, _ = grow(trunc, start, 1)\n"
        "    got, submits = grow(trunc, start, None)\n"
        "    assert submits == shares, (trunc, start)\n"
        "    assert got == serial, (trunc, start)\n"
        "    assert bool(made) == shares, (trunc, start)\n"
    )
    done = python(["-c", code])
    assert done.returncode == 0, done.stderr


def test_concurrent_streams_match_serial_runs(pool_tasks):
    # Four callers (more than the host's cores) grow streams for different
    # moduli at once; their chunked pushes and pooled leaves interleave on
    # one pool.  A short switch interval makes the threads trade often.
    moduli = (13, 65521, 223_092_870, (1 << 31) - 1)
    trunc, known_at = 3000, 700
    with mock.patch.object(modseries, "_SOLVE_BLOCK", 64), \
            mock.patch.object(modseries, "_PUSH_CHUNK", 64):
        with mock.patch.object(modseries, "_SHARE", False):
            expected = [overpartition_series(trunc, ResidueRing(m)).coeffs for m in moduli]
        assert not pool_tasks
        got = {}

        def grow(m):
            ring = ResidueRing(m)
            known = overpartition_series(known_at, ring).coeffs
            got[m] = grown_stream(trunc, ring, known).coeffs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with worker_pool():
                threads = [threading.Thread(target=grow, args=(m,)) for m in moduli]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
    assert pool_tasks
    for m, want in zip(moduli, expected):
        assert np.array_equal(got[m], want)


# tracemalloc peak, in bytes, of one dense ring_mul at T = 2^18 with numpy
# 2.4.6, when at most one spectrum pair and one irfft output are alive at a
# time.  Summing anti-diagonals there as the solver's leaves do would hold
# all 2k limb spectra at once.  The int32 operands are never widened whole:
# int64 series held the 23# peak (CRT groups) at 16_951_924, and widening
# both int32 operands inside the product lifts every peak past its bound.
_DENSE_PEAK_BYTES = {13: 10_726_888, 223_092_870: 14_798_596, (1 << 31) - 1: 16_951_636}


@pytest.mark.parametrize("m", sorted(_DENSE_PEAK_BYTES))
def test_dense_mul_holds_one_spectrum_pair_at_a_time(m):
    trunc = 1 << 18
    rng = np.random.default_rng(1)
    ring = ResidueRing(m)
    f = TruncSeries(ring, rng.integers(0, m, trunc + 1), trunc)
    g = TruncSeries(ring, rng.integers(0, m, trunc + 1), trunc)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ring_mul(f, g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * _DENSE_PEAK_BYTES[m]


# Peak bytes of the 23# stream to 2^18 from scratch through the production
# store path (the store's builder, overpartition_series) with no pool,
# numpy 2.4.6, in a fresh process: the tracemalloc peak of the solve, which
# holds the accumulator acc (int64, 8 bytes per coefficient up to one
# segment), one leaf's transforms and the head's cached spectra, plus the
# stream itself (int32, 4 bytes per coefficient).  The store writes the
# stream into an anonymous mapping, which tracemalloc cannot see, so its
# bytes are counted beside the traced peak.  A dense phi(-q) built beside
# them adds 8 bytes per coefficient (2.1 MB); an int64 c made 6_602_461.
_OVERPARTITION_PEAK_BYTES = 5_671_959


def test_overpartition_solve_holds_no_dense_divisor(solver_outputs):
    with mock.patch.object(modseries, "_SHARE", False):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            held = prover._pbar_stream(prover.PRIMORIAL_23, 1 << 18)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak + held.nbytes <= 1.10 * _OVERPARTITION_PEAK_BYTES
    assert len(solver_outputs) == 1 and held.dtype == np.int32
    assert np.shares_memory(held, solver_outputs[0])


_TAPS_MODULI = (2, 3, 4, 5, 13, 223_092_870, (1 << 31) - 1)


@st.composite
def _overpartition_case(draw):
    m = draw(st.sampled_from(_TAPS_MODULI))
    block = draw(st.sampled_from(_BLOCKS))
    # Truncations at and next to the leaf boundaries k * block, and the
    # known prefix at every length, the boundaries' neighbours first.
    cap = 3 * max(block, 64) + 2
    truncs = [k * block + e for k in (1, 2, 3) for e in (-1, 0, 1)]
    trunc = draw(st.sampled_from([t for t in truncs if 0 <= t <= cap])
                 | st.integers(0, cap))
    splits = [0, 1, trunc, trunc + 1] + [k * block + e for k in (1, 2) for e in (-1, 0, 1)]
    split = draw(st.sampled_from([s for s in splits if 0 <= s <= trunc + 1])
                 | st.integers(0, trunc + 1))
    return ResidueRing(m), block, trunc, split


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_overpartition_case())
def test_overpartition_taps_match_the_dense_divisor(case):
    # overpartition_series hands phi(-q)'s taps to the solver; the dense
    # entry finds them in the dense series.  Both must give the same stream
    # after the same known prefix.
    ring, block, trunc, split = case
    with mock.patch.object(modseries, "_SOLVE_BLOCK", block):
        den = transform(theta_phi(trunc, ring), 1, -1)
        known = ring_invert(den).coeffs[:split]
        assert grown_stream(trunc, ring, known) == invert_after(den, known)


def _solves(ring, trunc):
    den = transform(theta_phi(trunc, ring), 1, -1)
    num = theta_phi(trunc, ring)
    known = overpartition_series(trunc // 3, ring).coeffs
    return {
        "invert": lambda: ring_invert(den),
        "invert-known": lambda: invert_after(den, known),
        "div": lambda: ring_div(num, den),
        "overpartition": lambda: overpartition_series(trunc, ring),
        "overpartition-known": lambda: grown_stream(trunc, ring, known),
    }


def left_behind(solve, pool):
    # Bytes still traced after the solve, its result dropped at once, with
    # the cyclic collector off: a reference cycle would keep its arrays.
    # Also whether the solve raised.  A pool task that ran, or was
    # cancelled, is dropped by the worker as it takes the next task, so one
    # more task flushes them.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        raised = False
        try:
            solve()
        except ArithmeticError:
            raised = True
        if pool is not None:
            pool.submit(int).result()
        return tracemalloc.get_traced_memory()[0] - base, raised
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("name", ["div", "invert", "invert-known", "overpartition",
                                  "overpartition-known"])
def test_a_solve_leaves_nothing_behind(name, raises, pooled):
    # About 20 leaves and chunked pushes; c and acc alone hold 320 KB.
    ring = ResidueRing(223_092_870)
    solve = _solves(ring, 20_000)[name]
    real_mul = modseries._fft_mul

    def failing_leaf(a, b, n, m, spectra=None, share=False):
        # The first leaf fails, after c and acc are built.
        if spectra is not None:
            raise ArithmeticError("leaf failed its rounding check")
        return real_mul(a, b, n, m)

    with ThreadPoolExecutor(1) as pool, \
            mock.patch.object(modseries, "_POOL", pool), \
            mock.patch.object(modseries, "_SHARE", pooled), \
            mock.patch.object(modseries, "_SOLVE_BLOCK", 1024), \
            mock.patch.object(modseries, "_PUSH_CHUNK", 2048):
        solve()  # numpy's FFT caches are filled before tracing starts
        with mock.patch.object(modseries, "_fft_mul", failing_leaf if raises else real_mul):
            left, raised = left_behind(solve, pool if pooled else None)
    assert raised == raises
    assert left < 64 << 10
