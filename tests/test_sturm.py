"""Group-index arithmetic and verification-bound regressions."""

from math import gcd

import pytest

from overcong import (GAMMA0, GAMMA1, SpaceLabel, index_sl2, progression_limit,
                      sturm_bound)


def sl2_order_bruteforce(n):
    # |SL2(Z/n)| = n * #{(a, c) : gcd(a, c, n) = 1}: for each first column the
    # completions (b, d) with ad - bc = 1 form a single coset of size n.
    pairs = sum(1 for a in range(n) for c in range(n) if gcd(gcd(a, c), n) == 1)
    return n * pairs


def test_indices_match_coset_counts():
    for n in range(1, 31):
        order = sl2_order_bruteforce(n)
        # Gamma1 maps onto the upper unipotents (n elements); Gamma0 onto the
        # upper triangulars (n * phi(n) elements).
        phi = sum(1 for x in range(n) if gcd(x, n) == 1)
        assert index_sl2(GAMMA1, n) == order // n
        assert index_sl2(GAMMA0, n) == order // (n * phi)


def test_index_multiplicative_on_coprime_parts():
    import random
    rng = random.Random(2024)
    for _ in range(200):
        m = rng.randrange(1, 1000)
        n = rng.randrange(1, 1000)
        if gcd(m, n) != 1 or m * n > 10 ** 6:
            continue
        for group in (GAMMA0, GAMMA1):
            assert index_sl2(group, m * n) == index_sl2(group, m) * index_sl2(group, n)


def test_index_small_levels():
    assert index_sl2(GAMMA0, 1) == 1
    assert index_sl2(GAMMA0, 4) == 6
    assert index_sl2(GAMMA0, 256) == 384
    assert index_sl2(GAMMA0, 512) == 768
    assert index_sl2(GAMMA1, 1) == 1
    assert index_sl2(GAMMA1, 2) == 3
    assert index_sl2(GAMMA1, 340736) == 86_356_131_840


def test_bound_half_integral_weights():
    b9 = sturm_bound(SpaceLabel(9, 256, GAMMA0))
    assert (b9.effective_weight, b9.index, b9.bound) == (9, 384, 289)
    b11 = sturm_bound(SpaceLabel(11, 512, GAMMA0))
    assert (b11.effective_weight, b11.index, b11.bound) == (11, 768, 705)


def test_bound_integral_weight():
    b = sturm_bound(SpaceLabel(4, 4, GAMMA0))
    assert b.effective_weight == 2
    assert b.bound == 2  # floor(2*6/12) + 1


def test_progression_limits_regression():
    # The four pinned check limits, exactly.
    b9 = sturm_bound(SpaceLabel(9, 256, GAMMA0))
    assert b9.bound == 289
    assert progression_limit(b9, 8, 5) == 35
    b11 = sturm_bound(SpaceLabel(11, 512, GAMMA0))
    assert b11.bound == 705
    assert progression_limit(b11, 8, 7) == 87
    b15 = sturm_bound(SpaceLabel(15, 340736, GAMMA1))
    assert progression_limit(b15, 88) == 1_226_649_601
    b21 = sturm_bound(SpaceLabel(21, 562432, GAMMA1))
    assert progression_limit(b21, 104) == 3_968_520_193


def test_progression_checked_counts():
    # n = 0..35 gives 36 checked indices along 8n+5; n = 0..87 gives 88.
    b9 = sturm_bound(SpaceLabel(9, 256, GAMMA0))
    assert progression_limit(b9, 8, 5) + 1 == 36
    b11 = sturm_bound(SpaceLabel(11, 512, GAMMA0))
    assert progression_limit(b11, 8, 7) + 1 == 88


def test_progression_limit_validation():
    budget = sturm_bound(SpaceLabel(9, 256, GAMMA0))
    with pytest.raises(ValueError):
        progression_limit(budget, 0, 0)
    with pytest.raises(ValueError):
        progression_limit(budget, 8, 9)


def test_index_validation():
    with pytest.raises(ValueError):
        index_sl2(GAMMA0, 0)
    with pytest.raises(ValueError):
        index_sl2("Gamma2", 4)
