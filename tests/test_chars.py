"""Kronecker symbols, primality and factorisation, checked against brute force."""

from math import gcd, isqrt

import numpy as np

from overcong import (GAMMA0, ResidueRing, SpaceLabel, TruncSeries, kronecker,
                      sieve_progression)
from overcong.chars import factorize, is_prime


def legendre_bruteforce(a, p):
    # Quadratic-residue oracle for odd prime p.
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def test_is_prime_matches_a_sieve_of_eratosthenes():
    n = 20_000
    sieve = np.ones(n, bool)
    sieve[:2] = False
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    assert [k for k in range(n) if is_prime(k)] == np.flatnonzero(sieve).tolist()


def test_is_prime_edges():
    assert not any(is_prime(n) for n in (0, 1, -7))
    assert is_prime(2**31 - 1)
    # A prime square below 2^31: trial division must reach its root.
    assert is_prime(46337) and 46337**2 < 2**31
    assert not is_prime(46337**2)


def test_kronecker_literals():
    assert kronecker(-4, 11) == -1
    assert kronecker(2, 7) == 1
    assert kronecker(5, 5) == 0
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(3, 0) == 0


def test_kronecker_matches_legendre_for_odd_primes():
    primes = [p for p in range(3, 200, 2) if is_prime(p)]
    for p in primes:
        for a in range(-60, 61):
            assert kronecker(a, p) == legendre_bruteforce(a, p)


def test_kronecker_even_denominator():
    # (a/2) vanishes for even a, follows a mod 8 otherwise.
    for a, want in ((1, 1), (3, -1), (5, -1), (7, 1), (9, 1), (2, 0), (6, 0)):
        assert kronecker(a, 2) == want


def test_kronecker_multiplicative_in_both_arguments():
    values = [-15, -7, -2, -1, 2, 3, 5, 9, 14]
    for a in values:
        for b in values:
            for n in range(1, 60):
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    for n1 in range(1, 40):
        for n2 in range(1, 40):
            for a in (-6, -1, 2, 5, 21):
                assert kronecker(a, n1 * n2) == kronecker(a, n1) * kronecker(a, n2)


def test_kronecker_periodicity():
    # Periods in the bottom argument: |a| for a = 0,1 mod 4, else 4|a|; for
    # a = 3 mod 4 the symbol is only a periodic function on odd arguments.
    for a in list(range(-30, 0)) + list(range(1, 31)):
        period = abs(a) if a % 4 in (0, 1) else 4 * abs(a)
        odd_only = a % 4 == 3
        for n in range(1, 500):
            if odd_only and n % 2 == 0:
                continue
            assert kronecker(a, n) == kronecker(a, n + period)


def test_all_real_characters_exactly_for_divisors_of_24():
    # Every character mod a is real exactly when every unit mod a squares
    # to 1; the sieve keeps a Gamma0 label exactly then.
    f = TruncSeries(ResidueRing(11), np.arange(401) % 11, 400)
    for a in range(1, 200):
        real = all(x * x % a == 1 % a for x in range(a) if gcd(x, a) == 1)
        assert real == (24 % a == 0)
        _, label = sieve_progression(f, SpaceLabel(9, 4), 1, a, 1 % a)
        assert (label.group == GAMMA0) == real


def test_factorize_and_phi():
    assert factorize(340736) == {2: 8, 11: 3}
    assert factorize(562432) == {2: 8, 13: 3}
