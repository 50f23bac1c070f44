"""Overflow oracles: every arithmetic entry point on int32 residues against
Python integers, at moduli just below 2^31.

A TruncSeries holds int32 residues, so a sum or product of two residues, or
of a residue and a Python int, must be taken in int64 before it is reduced.
Under numpy 2 an int32 array times a Python int stays int32 and wraps
silently, and an int32 array plus a Python int past int32 raises.  At
m = 2^31 - 1 (prime), 2^31 - 2 (composite: 2 * 3^2 * 7 * 11 * 31 * 151 * 331)
and 23# (the stream modulus), residues near m - 1 pass 2^31 in any sum, so
each widening is needed here.  The oracles compute over the integers and
reduce once, at the end."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overcong import (GAMMA0, Decomposition, EtaQuotient, ResidueRing, SpaceLabel,
                      TruncSeries, decompose, eta_quotient, extract_progression,
                      hecke_T, pochhammer, r_m_series, ring_add, ring_mul,
                      ring_pow, scalar_mul, theta_phi, transform, weight2_form)
from overcong.qgen import theta_phi2, theta_phi4

WIDE_MODULI = ((1 << 31) - 1, (1 << 31) - 2, 223_092_870)

EXAMPLES = settings(max_examples=25, deadline=None)


def residues(data, m, min_size=1, max_size=41):
    # Random residues, with the extremes a wrapping sum or product meets.
    edges = st.sampled_from([0, 1, m // 2, (m + 1) // 2, m - 2, m - 1])
    return data.draw(st.lists(st.one_of(st.integers(0, m - 1), edges),
                              min_size=min_size, max_size=max_size))


def series(m, coeffs):
    return TruncSeries(ResidueRing(m), coeffs, len(coeffs) - 1)


def ints(f):
    # Every series holds int32 residues.
    assert f.coeffs.dtype == np.int32
    return f.coeffs.tolist()


def mod(values, m):
    return [v % m for v in values]


def py_mul(a, b, t):
    out = [0] * (t + 1)
    for i, x in enumerate(a[:t + 1]):
        for j, y in enumerate(b[:t + 1 - i]):
            out[i + j] += x * y
    return out


def py_pow(a, e, t):
    out = [1] + [0] * t
    for _ in range(e):
        out = py_mul(out, a, t)
    return out


def py_inverse(a, t):
    # 1/a over the integers, for a[0] = +-1.
    out = []
    for n in range(t + 1):
        s = (n == 0) - sum(a[j] * out[n - j] for j in range(1, min(n, len(a) - 1) + 1))
        out.append(s * a[0])
    return out


def py_euler(delta, t):
    # (q^delta; q^delta)_inf, multiplied out factor by factor.
    out = [1] + [0] * t
    for step in range(delta, t + 1, delta):
        out = py_mul(out, [1] + [0] * (step - 1) + [-1], t)
    return out


def py_phi(t):
    return [1] + [2 * (math.isqrt(n) ** 2 == n) for n in range(1, t + 1)]


def py_weight2(t):
    # F = eta(4z)^8 / eta(2z)^4 = q * (q^4; q^4)^8 / (q^2; q^2)^4.
    body = py_mul(py_pow(py_euler(4, t), 8, t), py_inverse(py_pow(py_euler(2, t), 4, t), t), t)
    return [0] + body[:t]


@pytest.mark.parametrize("m", WIDE_MODULI)
@EXAMPLES
@given(data=st.data(), c=st.integers(-(1 << 40), 1 << 40))
def test_sums_scalings_and_constant_products(m, data, c):
    a = residues(data, m)
    b = residues(data, m)
    f, g = series(m, a), series(m, b)
    t = min(len(a), len(b)) - 1
    assert ints(ring_add(f, g)) == mod([x + y for x, y in zip(a, b)], m)
    assert ints(scalar_mul(c, f)) == mod([c * x for x in a], m)
    const = series(m, [c % m] + [0] * t)
    want = mod([c * x for x in a[:t + 1]], m)
    assert ints(ring_mul(f, const)) == want
    assert ints(ring_mul(const, f)) == want


@pytest.mark.parametrize("m", WIDE_MODULI)
@EXAMPLES
@given(data=st.data(), e=st.integers(0, 4))
def test_fft_products_and_powers(m, data, e):
    a = residues(data, m)
    b = residues(data, m)
    t = min(len(a), len(b)) - 1
    assert ints(ring_mul(series(m, a), series(m, b))) == mod(py_mul(a, b, t), m)
    assert ints(ring_pow(series(m, a), e)) == mod(py_pow(a, e, len(a) - 1), m)


@pytest.mark.parametrize("m", WIDE_MODULI)
@EXAMPLES
@given(data=st.data(), d=st.integers(1, 4), step=st.integers(1, 6), offset=st.integers(0, 5))
def test_sign_flips_and_progressions(m, data, d, step, offset):
    a = residues(data, m)
    t = len(a) - 1
    want = [0] * (d * t + 1)
    want[::d] = [(-1) ** n * x % m for n, x in enumerate(a)]
    assert ints(transform(series(m, a), d, -1)) == want
    offset %= step
    kept = [x if n % step == offset else 0 for n, x in enumerate(a)]
    assert ints(extract_progression(series(m, a), step, offset)) == kept
    if offset <= t:
        assert ints(extract_progression(series(m, a), step, offset, compact=True)) == \
            a[offset::step]


@pytest.mark.parametrize("m", WIDE_MODULI)
@EXAMPLES
@given(data=st.data(), k2=st.integers(1, 22), t=st.integers(0, 30))
def test_decompose_and_recombine(m, data, k2, t):
    # f = sum_b c_b * F^b * phi^(k2 - 4b), built over the integers.
    size = k2 // 4 + 1
    coords = residues(data, m, size, size)
    t = max(t, size - 1)
    phi, big_f = py_phi(t), py_weight2(t)
    want = [0] * (t + 1)
    for b, c in enumerate(coords):
        mono = py_mul(py_pow(big_f, b, t), py_pow(phi, k2 - 4 * b, t), t)
        want = [x + c * y for x, y in zip(want, mono)]
    want = mod(want, m)
    ring = ResidueRing(m)
    assert ints(Decomposition(k2, ring, tuple(coords)).recombine(t)) == want
    assert decompose(series(m, want), k2).coeffs == tuple(coords)


@pytest.mark.parametrize("m", WIDE_MODULI)
@EXAMPLES
@given(data=st.data(), k2even=st.integers(1, 12).map(lambda k: 2 * k),
       ell=st.sampled_from([3, 5, 7, 11, 13]), kronecker=st.booleans())
def test_hecke_operator(m, data, k2even, ell, kronecker):
    a = residues(data, m, 1, 200)
    chi_ell = (-1) ** (ell // 2) if kronecker else 1
    top = (len(a) - 1) // ell
    want = [a[ell * n] + (chi_ell * ell ** (k2even // 2 - 1) * a[n // ell] if n % ell == 0
                          else 0) for n in range(top + 1)]
    label = SpaceLabel(k2even, 4, GAMMA0, -4 if kronecker else 1)
    assert ints(hecke_T(series(m, a), label, ell)) == mod(want, m)


@pytest.mark.parametrize("m", WIDE_MODULI)
@EXAMPLES
@given(t=st.integers(0, 40), exps=st.tuples(*[st.integers(-3, 3)] * 3))
def test_euler_products_and_theta_closed_forms(m, t, exps):
    ring = ResidueRing(m)
    for delta in (1, 2, 3):
        assert ints(pochhammer(delta, t, ring)) == mod(py_euler(delta, t), m)
    factors = tuple((d, r) for d, r in zip((1, 2, 4), exps) if r)
    want = [1] + [0] * t
    for d, r in factors:
        part = py_euler(d, t)
        want = py_mul(want, py_pow(part if r > 0 else py_inverse(part, t), abs(r), t), t)
    assert ints(eta_quotient(EtaQuotient(factors), t, ring).series) == mod(want, m)
    phi = py_phi(t)
    assert ints(theta_phi(t, ring)) == mod(phi, m)
    assert ints(theta_phi2(t, ring)) == mod(py_pow(phi, 2, t), m)
    assert ints(theta_phi4(t, ring)) == mod(py_pow(phi, 4, t), m)
    assert ints(r_m_series(7, t, ring)) == mod(py_pow(phi, 7, t), m)
    assert ints(weight2_form(t, ring)) == mod(py_weight2(t), m)
