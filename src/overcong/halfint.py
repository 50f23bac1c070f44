"""Modular-forms layer on Gamma0(4).

Monomial bases F^b * phi^a of the graded ring generated by the theta series
phi and the weight-2 block F, triangular decomposition of q-expansions in
those bases, and the coefficient operators (Hecke, U, progression sieve)
with their level/character bookkeeping.

The space labels are metadata carried alongside the q-expansions: the code
tracks how weight, level, group and character transform under each operator,
it does not verify transformation laws.  Characters attached to labels are
Kronecker symbols (c/.) recorded by their top argument c; operator rules
multiply these tags (the symbol is completely multiplicative on top).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd, lcm

import numpy as np

from . import chars
from .modseries import (ResidueRing, TruncSeries, extract_progression,
                        one_series, ring_add, ring_mul, ring_pow, scalar_mul,
                        zero_series)
from .qgen import r_m_series, theta_phi4, weight2_form

GAMMA0 = "Gamma0"
GAMMA1 = "Gamma1"


@dataclass(frozen=True)
class SpaceLabel:
    """Where a q-expansion is asserted to live: weight k2/2, level, group,
    and (for Gamma0) a Kronecker character tag (char_numer/.)."""

    twice_weight: int
    level: int
    group: str = GAMMA0
    char_numer: int = 1

    def __post_init__(self):
        if self.twice_weight < 1:
            raise ValueError("twice_weight must be >= 1")
        if self.level % 4 != 0 or self.level <= 0:
            raise ValueError(f"level must be a positive multiple of 4, got {self.level}")
        if self.group not in (GAMMA0, GAMMA1):
            raise ValueError(f"group must be {GAMMA0} or {GAMMA1}")

    @property
    def weight_str(self) -> str:
        k2 = self.twice_weight
        return f"{k2 // 2}" if k2 % 2 == 0 else f"{k2}/2"

    def describe(self) -> str:
        if self.group == GAMMA0 and self.char_numer != 1:
            return f"M_{self.weight_str}({self.group}({self.level}), ({self.char_numer}/.))"
        return f"M_{self.weight_str}({self.group}({self.level}))"


@dataclass(frozen=True)
class MonomialBasis:
    """The monomials F^b * phi^a with a + 4b = k2, listed by ascending b.

    The b-th element has q-expansion q^b + O(q^(b+1)), so the basis is
    triangular.  The implied character mod 4 is trivial except for
    k2 = 2 mod 4, where it is (-4/.).
    """

    k2: int
    monomials: tuple[tuple[int, int], ...]

    @property
    def char_numer(self) -> int:
        return -4 if self.k2 % 4 == 2 else 1


def basis_monomials(k2: int) -> MonomialBasis:
    k2 = int(k2)
    if k2 < 1:
        raise ValueError("k2 must be >= 1")
    mons = tuple((k2 - 4 * b, b) for b in range(k2 // 4 + 1))
    return MonomialBasis(k2, mons)


def expand_monomial(a: int, b: int, trunc: int, ring: ResidueRing) -> TruncSeries:
    """F^b * phi^a through q^trunc; leading term is q^b."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be >= 0")
    out = ring_pow(weight2_form(trunc, ring), b)
    return ring_mul(out, r_m_series(a, trunc, ring)) if a else out


@dataclass(frozen=True)
class Decomposition:
    """Coordinates of a series in the monomial basis of its graded piece,
    indexed by ascending b."""

    k2: int
    ring: ResidueRing
    coeffs: tuple[int, ...]

    def recombine(self, trunc: int) -> TruncSeries:
        """sum_b c_b * F^b * phi^(k2-4b) through q^trunc, evaluated as
        phi^(k2%4) * H with H = sum_b c_b * F^b * (phi^4)^(k2//4-b) by
        Horner's rule in phi^4 over a running power of F."""
        ring = self.ring
        if len(self.coeffs) != self.k2 // 4 + 1:
            raise ValueError(f"k2={self.k2} takes {self.k2 // 4 + 1} coordinates, "
                             f"got {len(self.coeffs)}")
        phi4 = theta_phi4(trunc, ring)
        f = weight2_form(trunc, ring)
        acc = zero_series(ring, trunc)
        power = one_series(ring, trunc)  # F^b
        for b, c in enumerate(self.coeffs):
            if b:
                acc = ring_mul(acc, phi4)
                power = ring_mul(power, f)
            if c:
                acc = ring_add(acc, scalar_mul(c, power))
        e = self.k2 % 4
        return ring_mul(r_m_series(e, trunc, ring), acc) if e else acc

    def cancel_phi(self) -> "Decomposition":
        """Divide every monomial by phi, dropping the weight by 1/2.  Exact
        whenever no monomial with phi-exponent zero carries a coefficient."""
        for b, c in enumerate(self.coeffs):
            if c and self.k2 - 4 * b == 0:
                raise ValueError("combination has a pure-F term; cannot cancel phi")
        new_len = (self.k2 - 1) // 4 + 1
        return Decomposition(self.k2 - 1, self.ring, tuple(self.coeffs[:new_len]))


def decompose(f: TruncSeries, k2: int) -> Decomposition:
    """Express f in the triangular basis F^b * phi^(k2-4b) by forward
    substitution; the residual must vanish through f.trunc."""
    # k2//4 + 1 coordinates: checked before the basis is built.
    if f.trunc < k2 // 4:
        raise ValueError(f"truncation {f.trunc} too small for k2={k2}")
    basis = basis_monomials(k2)
    m = f.ring.modulus
    resid = f.coeffs.copy()
    coeffs = []
    for a, b in basis.monomials:
        c = int(resid[b]) % m
        coeffs.append(c)
        if c:
            mono = expand_monomial(a, b, f.trunc, f.ring)
            resid = (resid - np.multiply(mono.coeffs, c, dtype=np.int64)) % m
    bad = np.flatnonzero(resid)
    if len(bad):
        raise ValueError(f"not in span at this truncation: residual at q^{int(bad[0])}")
    return Decomposition(k2, f.ring, tuple(coeffs))


def hecke_T(f: TruncSeries, label: SpaceLabel, ell: int) -> TruncSeries:
    """Integral-weight Hecke operator on the coefficients of f in `label`:

        (f | T(ell))[n] = a(ell*n) + chi(ell) * ell^(k-1) * a(n/ell)

    with a(n/ell) = 0 unless ell divides n, k = label.twice_weight/2 and
    chi(ell) = (label.char_numer/ell), the label's Kronecker tag read at
    ell.  The label must be a Gamma0 one, the only kind with a character,
    and ell a prime not dividing its level.  Exact in the series ring.
    """
    if label.group != GAMMA0:
        raise ValueError(f"a {label.group} label carries no character")
    if label.twice_weight % 2 != 0:
        raise ValueError("Hecke action implemented for integral weight only")
    if not chars.is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if label.level % ell == 0:
        raise ValueError(f"{ell} divides the level {label.level}")
    k = label.twice_weight // 2
    m = f.ring.modulus
    factor = chars.kronecker(label.char_numer, ell) * pow(ell, k - 1, m) % m
    out = f.coeffs[::ell].astype(np.int64)  # a(ell*n) for n <= f.trunc // ell
    low = out[::ell]  # the n divisible by ell, a view into out
    low += np.multiply(f.coeffs[:len(low)], factor, dtype=np.int64)
    return TruncSeries(f.ring, out, len(out) - 1)


def _inflate_level(label: SpaceLabel, d: int) -> SpaceLabel:
    # Natural inclusion into the least level 4N' with d | N'.
    n = label.level // 4
    if n % d:
        label = replace(label, level=4 * lcm(n, d))
    return label


def apply_U(f: TruncSeries, label: SpaceLabel, d: int) -> tuple[TruncSeries, SpaceLabel]:
    """Coefficient extraction (f|U(d))[n] = f[d*n].  Writing the level as 4N,
    d must divide N; the label is inflated first when it does not.  The
    character picks up the factor (4d/.)."""
    d = int(d)
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return f, label
    label = _inflate_level(label, d)
    series = extract_progression(f, d, 0, compact=True)
    new = replace(label, char_numer=label.char_numer * 4 * d)
    return series, new


def sieve_progression(f: TruncSeries, label: SpaceLabel, d: int, a: int,
                      b: int) -> tuple[TruncSeries, SpaceLabel]:
    """Keep the coefficients f[d*(a*n+b)] at exponents a*n+b.

    Computed as U(d) followed by progression extraction; the label follows
    the character-averaging construction, landing on Gamma1(level*d*a^2),
    downgraded to Gamma0 with character (4d/.)*chi when every character
    mod a is real, which is exactly when a divides 24 (every unit mod a
    squares to 1).
    """
    a = int(a)
    b = int(b)
    d = int(d)
    if gcd(a, b) != 1:
        raise ValueError(f"progression offset {b} must be coprime to {a}")
    u = extract_progression(f, d, 0, compact=True) if d > 1 else f
    series = extract_progression(u, a, b)
    new_level = label.level * d * a * a
    new_numer = label.char_numer * 4 * d if d > 1 else label.char_numer
    if 24 % a == 0:
        new = SpaceLabel(label.twice_weight, new_level, GAMMA0, new_numer)
    else:
        new = SpaceLabel(label.twice_weight, new_level, GAMMA1)
    return series, new
