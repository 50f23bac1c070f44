"""Generators for the standard q-expansions.

Everything here produces a TruncSeries in a caller-supplied residue ring:
Euler products (q^d; q^d)_inf, eta quotients with their q-power prefactor,
the theta series phi(q) = sum q^(n^2), the weight-2 block
F = eta(4z)^8/eta(2z)^4, phi^2 and phi^4, each read from a divisor-sum
sieve by its closed form, every power of phi as a product of those
blocks, and the overpartition generating function 1/phi(-q), inverted
from phi(-q)'s taps without building phi(-q) as a dense series; the
coefficient store grows that stream in its own buffer through it.

The Euler products are written straight from their pentagonal-number
exponents rather than by multiplying out the product, so one costs a
single pass over its O(sqrt(T)) nonzero terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .modseries import (TRUNC_CAP, ResidueRing, TruncSeries, _crt_join, invert_taps_residues,
                        one_series, ring_invert, ring_mul, ring_pow)

R_M_BRUTE_MAX_N = 50
R_M_BRUTE_MAX_M = 12


def pochhammer(delta: int, trunc: int, ring: ResidueRing) -> TruncSeries:
    """(q^delta; q^delta)_inf through q^trunc.

    The nonzero exponents are delta*k(3k-1)/2 for integer k, with sign
    (-1)^k, so the series has O(sqrt(trunc/delta)) support.
    """
    delta = int(delta)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    m = ring.modulus
    out = np.zeros(trunc + 1, np.int64)
    out[0] = 1 % m
    # Past the truncation (delta may exceed int64) only the constant is left.
    if delta <= trunc:
        # k(3k-1)/2 >= k^2, so every k past sqrt(trunc/delta) lands past trunc.
        k = np.arange(1, math.isqrt(trunc // delta) + 2, dtype=np.int64)
        sign = np.where(k % 2 == 0, 1, m - 1)
        for e in (delta * k * (3 * k - 1) // 2, delta * k * (3 * k + 1) // 2):
            out[e[e <= trunc]] = sign[e <= trunc]
    return TruncSeries(ring, out, trunc)


@dataclass(frozen=True)
class EtaQuotient:
    """A finite product prod_delta eta(delta*z)^(r_delta), as (delta, r) pairs."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        factors = tuple((int(d), int(r)) for d, r in self.factors)
        object.__setattr__(self, "factors", factors)
        deltas = [d for d, _ in factors]
        if any(d < 1 for d in deltas):
            raise ValueError("eta arguments must be positive")
        if sorted(set(deltas)) != deltas:
            raise ValueError("eta arguments must be distinct and sorted ascending")

    @property
    def prefactor24(self) -> int:
        """24 times the leading q-power, i.e. sum of delta * r_delta."""
        return sum(d * r for d, r in self.factors)


def leading_shift(prefactor24: int) -> int:
    """q^(prefactor24/24) as an exponent shift.  Requires an integral,
    nonnegative q-power, i.e. prefactor24 a nonnegative multiple of 24."""
    if prefactor24 % 24 != 0:
        raise ValueError(f"prefactor q^({prefactor24}/24) is not an integral power")
    if prefactor24 < 0:
        raise ValueError("negative leading q-power cannot become a power series")
    return prefactor24 // 24


@dataclass(frozen=True)
class QExpansion:
    """An eta-quotient expansion: q^(prefactor24/24) times a power series."""

    prefactor24: int
    series: TruncSeries

    def to_series(self) -> TruncSeries:
        """Absorb the prefactor as an exponent shift (see leading_shift)."""
        shift = leading_shift(self.prefactor24)
        if self.series.trunc + shift > TRUNC_CAP:
            raise ValueError(f"truncation cap exceeded: leading power q^{shift}")
        out = np.zeros(self.series.trunc + shift + 1, np.int64)
        out[shift:] = self.series.coeffs
        return TruncSeries(self.series.ring, out, self.series.trunc + shift)


def eta_quotient(quotient: EtaQuotient, trunc: int, ring: ResidueRing) -> QExpansion:
    """Expand an eta quotient; negative exponents go through series inversion."""
    series = one_series(ring, trunc)
    for delta, r in quotient.factors:
        poch = pochhammer(delta, trunc, ring)
        part = ring_pow(poch, r) if r >= 0 else ring_pow(ring_invert(poch), -r)
        series = ring_mul(series, part)
    return QExpansion(quotient.prefactor24, series)


def theta_phi(trunc: int, ring: ResidueRing) -> TruncSeries:
    """phi(q) = 1 + 2*sum_{n>=1} q^(n^2) through q^trunc."""
    m = ring.modulus
    out = np.zeros(trunc + 1, np.int64)
    out[0] = 1 % m
    for j in range(1, math.isqrt(trunc) + 1):
        out[j * j] = 2 % m
    return TruncSeries(ring, out, trunc)


def r_m_series(m_exp: int, trunc: int, ring: ResidueRing) -> TruncSeries:
    """phi(q)^m_exp, whose coefficient of q^n counts representations of n as
    an ordered sum of m_exp integer squares, built as (phi^4)^(m_exp//4) *
    phi^2 * phi from the closed forms, each factor only where it occurs."""
    if m_exp < 1:
        raise ValueError("exponent must be >= 1")
    factors = []
    if m_exp >= 4:
        factors.append(ring_pow(theta_phi4(trunc, ring), m_exp // 4))
    if m_exp % 4 >= 2:
        factors.append(theta_phi2(trunc, ring))
    if m_exp % 2:
        factors.append(theta_phi(trunc, ring))
    return functools.reduce(ring_mul, factors)


def r_m_bruteforce(n: int, m_exp: int) -> int:
    """Count tuples (x_1..x_m) with sum of squares n, by depth-first search
    over the coordinates with radius pruning.  Oracle-sized inputs only."""
    n = int(n)
    m_exp = int(m_exp)
    if n < 0 or m_exp < 1:
        raise ValueError("need n >= 0 and m_exp >= 1")
    if n > R_M_BRUTE_MAX_N or m_exp > R_M_BRUTE_MAX_M:
        raise ValueError(f"oracle budget exceeded: n <= {R_M_BRUTE_MAX_N}, "
                         f"m <= {R_M_BRUTE_MAX_M}")
    seen: dict[tuple[int, int], int] = {}

    def count(rest: int, coords: int) -> int:
        if coords == 0:
            return 1 if rest == 0 else 0
        key = (rest, coords)
        if key in seen:
            return seen[key]
        total = count(rest, coords - 1)  # x = 0
        x = 1
        while x * x <= rest:
            total += 2 * count(rest - x * x, coords - 1)
            x += 1
        seen[key] = total
        return total

    return count(n, m_exp)


def r_m_exact(m_exp: int, trunc: int) -> list[int]:
    """Exact integer coefficients of phi^m_exp, composed from two coprime
    word-size moduli by the Chinese remainder theorem."""
    groups = (65521, 65519)
    parts = [r_m_series(m_exp, trunc, ResidueRing(g)).coeffs.astype(np.int64) for g in groups]
    return _crt_join(parts, groups).tolist()


def _phi_minus_q_taps(trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """phi(-q) = 1 + sum_k 2*(-1)^k q^(k^2) as its taps through q^trunc."""
    k = np.arange(1, math.isqrt(trunc) + 1, dtype=np.int64)
    return k * k, np.where(k % 2 == 1, -2, 2)


def overpartition_series(trunc: int, ring: ResidueRing, out: np.ndarray | None = None,
                         start: int = 0) -> TruncSeries:
    """The overpartition generating function 1/phi(-q) through q^trunc.

    phi(-q) reaches the solver as its sqrt(trunc) taps, never as a dense
    series, and the inversion runs in O(trunc^1.5).  With `out`, a writable
    int32 array of trunc + 1 entries whose first `start` hold the stream's
    known prefix (the coefficient store's buffer), the solve writes the
    residues of out[start:] in place and the series is taken over `out`;
    an `out` of any other length is a ValueError.
    """
    if out is None:
        out = np.zeros(trunc + 1, np.int32)
    invert_taps_residues(*_phi_minus_q_taps(trunc), out, start, ring)
    return TruncSeries._canonical(ring, out, trunc)


def _divisor_sums(trunc: int, weight: np.ndarray | None = None) -> np.ndarray:
    """sum_{d | n} w(d) for 0 <= n <= trunc (0 at n = 0), where w(d) is
    weight[d], or d itself without `weight` (then sigma(n)): one slice
    update per s <= sqrt(trunc) adds w(s) + w(k) at every n = s*k with
    k >= s, and w(s) alone at n = s^2.  sigma(n) <= n*(1 + ln n) stays far
    inside int64."""
    out = np.zeros(trunc + 1, np.int64)
    for s in range(1, math.isqrt(trunc) + 1):
        if weight is None:
            w, others = s, np.arange(s, trunc // s + 1)
        else:
            w, others = int(weight[s]), weight[s:trunc // s + 1]
        out[s * s::s] += w + others
        out[s * s] -= w
    return out


def weight2_form(trunc: int, ring: ResidueRing) -> TruncSeries:
    """The weight-2 block F = eta(4z)^8/eta(2z)^4 = q + ... through q^trunc,
    from its closed form: the sum over odd n of sigma(n) q^n."""
    sigma = _divisor_sums(trunc)
    sigma[::2] = 0
    return TruncSeries(ring, sigma, trunc)


def theta_phi2(trunc: int, ring: ResidueRing) -> TruncSeries:
    """phi(q)^2 through q^trunc, from Jacobi's two-square theorem:
    r_2(n) = 4 * sum_{d | n} chi(d), chi the character mod 4 (chi(d) = 0
    for even d, 1 for d = 1 mod 4 and -1 for d = 3 mod 4)."""
    d = np.arange(trunc + 1, dtype=np.int64)
    chi = ((d & 1) * (2 - (d & 3))).astype(np.int8)
    del d
    out = 4 * _divisor_sums(trunc, chi)
    out[0] = 1
    return TruncSeries(ring, out, trunc)


def theta_phi4(trunc: int, ring: ResidueRing) -> TruncSeries:
    """phi(q)^4 through q^trunc, from Jacobi's four-square theorem:
    r_4(n) = 8*(sigma(n) - 4*sigma(n/4)), with sigma(n/4) = 0 unless 4 | n."""
    sigma = _divisor_sums(trunc)
    out = 8 * sigma
    out[4::4] -= 32 * sigma[1:trunc // 4 + 1]
    out[0] = 1
    return TruncSeries(ring, out, trunc)
