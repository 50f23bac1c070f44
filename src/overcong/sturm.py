"""Group indices in SL2(Z) and Sturm-style verification bounds.

The bound records how far a q-expansion must vanish for a congruence between
modular forms to hold identically: through exponent (w/12)*[SL2(Z):Gamma],
where w is the integral weight of the form itself or, for half-integral
weight k2/2, of its square (w = k2).  Every bound carries one unit of slack
beyond the floor, the inclusive convention all reported check limits use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chars import factorize
from .halfint import GAMMA0, GAMMA1, SpaceLabel


def index_sl2(group: str, level: int) -> int:
    """[SL2(Z) : Gamma] for Gamma = Gamma0(level) or Gamma1(level), exactly.

    Gamma0: N * prod_{p|N} (1 + 1/p);  Gamma1: N^2 * prod_{p|N} (1 - 1/p^2).
    """
    n = int(level)
    if n < 1:
        raise ValueError("level must be >= 1")
    primes = factorize(n)
    if group == GAMMA0:
        idx = n
        for p in primes:
            idx = idx // p * (p + 1)
        return idx
    if group == GAMMA1:
        idx = n * n
        for p in primes:
            idx = idx // (p * p) * (p * p - 1)
        return idx
    raise ValueError(f"unknown group {group!r}")


@dataclass(frozen=True)
class SturmBudget:
    """A verification budget: check coefficients up to `bound` inclusive."""

    label: SpaceLabel
    effective_weight: int
    index: int
    bound: int


def sturm_bound(label: SpaceLabel) -> SturmBudget:
    """Budget for proving a congruence of a form with the given label.

    Odd k2 squares the form first, so the effective integral weight is k2
    itself; even k2 uses the weight k2/2 directly.
    """
    k2 = label.twice_weight
    eff = k2 if k2 % 2 == 1 else k2 // 2
    idx = index_sl2(label.group, label.level)
    bound = eff * idx // 12 + 1
    return SturmBudget(label, eff, idx, bound)


def progression_limit(budget: SturmBudget, a: int, b: int | None = None) -> int:
    """Largest n that must be checked along the progression a*n + b.

    With an offset this is exact: max n with a*n + b <= bound.  Without one
    (the Gamma1 reporting convention) the limit is quoted inclusively as
    floor((bound - 1)/a) + 1, one step beyond the last forced index.
    """
    a = int(a)
    if a < 1:
        raise ValueError("progression step must be >= 1")
    if b is None or budget.label.group == GAMMA1:
        return (budget.bound - 1) // a + 1
    if not 0 <= b < a:
        raise ValueError(f"offset must satisfy 0 <= b < a, got {b}")
    return (budget.bound - b) // a
