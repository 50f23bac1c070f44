"""Generators for the standard q-expansions.

Everything here produces a TruncSeries in a caller-supplied residue ring:
Euler products (q^d; q^d)_inf, eta quotients with their q-power prefactor,
the theta series phi(q) = sum q^(n^2), its powers, the weight-2 block
F = eta(4z)^8/eta(2z)^4, and the overpartition generating function
1/phi(-q).

The Euler products are generated straight from their pentagonal-number
support rather than by multiplying out the product, which keeps every
downstream convolution and inversion subquadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modseries import (ResidueRing, TruncSeries, ring_div, ring_invert,
                        ring_mul, ring_pow, transform)

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
    k = 1
    while True:
        e1 = delta * k * (3 * k - 1) // 2
        e2 = delta * k * (3 * k + 1) // 2
        if e1 > trunc and e2 > trunc:
            break
        sign = 1 if k % 2 == 0 else m - 1
        if e1 <= trunc:
            out[e1] = sign
        if e2 <= trunc:
            out[e2] = sign
        k += 1
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


@dataclass(frozen=True)
class QExpansion:
    """An eta-quotient expansion: q^(prefactor24/24) times a power series."""

    prefactor24: int
    series: TruncSeries

    def to_series(self) -> TruncSeries:
        """Absorb the prefactor as an exponent shift.  Requires an integral,
        nonnegative q-power, i.e. prefactor24 a nonnegative multiple of 24."""
        if self.prefactor24 % 24 != 0:
            raise ValueError(f"prefactor q^({self.prefactor24}/24) is not an integral power")
        shift = self.prefactor24 // 24
        if shift < 0:
            raise ValueError("negative leading q-power cannot become a power series")
        m = self.series.ring.modulus
        out = np.zeros(self.series.trunc + shift + 1, np.int64)
        out[shift:] = self.series.coeffs
        return TruncSeries(self.series.ring, out, self.series.trunc + shift)


def eta_quotient(quotient: EtaQuotient, trunc: int, ring: ResidueRing) -> QExpansion:
    """Expand an eta quotient; negative exponents go through series inversion."""
    series = None
    for delta, r in quotient.factors:
        poch = pochhammer(delta, trunc, ring)
        part = ring_pow(poch, r) if r >= 0 else ring_pow(ring_invert(poch), -r)
        series = part if series is None else ring_mul(series, part)
    if series is None:
        series = ring_pow(pochhammer(1, trunc, ring), 0)
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
    an ordered sum of m_exp integer squares."""
    if m_exp < 1:
        raise ValueError("exponent must be >= 1")
    return ring_pow(theta_phi(trunc, ring), m_exp)


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
    m1, m2 = 65521, 65519
    a = r_m_series(m_exp, trunc, ResidueRing(m1)).coeffs
    b = r_m_series(m_exp, trunc, ResidueRing(m2)).coeffs
    inv = pow(m1, -1, m2)
    out = []
    for x, y in zip(a.tolist(), b.tolist()):
        k = (y - x) * inv % m2
        out.append(x + m1 * k)
    return out


def overpartition_series(trunc: int, ring: ResidueRing,
                         known: np.ndarray | None = None) -> TruncSeries:
    """The overpartition generating function 1/phi(-q) through q^trunc.

    phi(-q) has O(sqrt(trunc)) support, so the inversion runs in O(trunc^1.5).
    `known`, if given, holds the first coefficients of the stream (mod the
    same modulus); only the ones past it are computed.
    """
    return ring_invert(transform(theta_phi(trunc, ring), 1, -1), known)


@lru_cache(maxsize=16)
def _weight2_cached(trunc: int, modulus: int) -> TruncSeries:
    ring = ResidueRing(modulus)
    # q * (q^4;q^4)^8 / (q^2;q^2)^4: build the numerator by repeated
    # sparse-side multiplication, then divide out (q^2;q^2) four times so the
    # solver works against the sparse Euler product each time.
    if trunc == 0:
        return TruncSeries(ring, [0], 0)
    poch4 = pochhammer(4, trunc - 1, ring)
    acc = poch4
    for _ in range(7):
        acc = ring_mul(acc, poch4)
    poch2 = pochhammer(2, trunc - 1, ring)
    for _ in range(4):
        acc = ring_div(acc, poch2)
    out = np.zeros(trunc + 1, np.int64)
    out[1:] = acc.coeffs
    return TruncSeries(ring, out, trunc)


def weight2_form(trunc: int, ring: ResidueRing) -> TruncSeries:
    """The weight-2 block F = eta(4z)^8/eta(2z)^4 = q + ... through q^trunc."""
    return _weight2_cached(int(trunc), ring.modulus)
