"""Kronecker symbols, primality and factorisation.

A character is held in one form only: the Kronecker tag (c/.) on a space
label, recorded by its top argument c and read at n by kronecker(c, n).
"""

from __future__ import annotations


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation as {p: exponent}."""
    n = int(n)
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), the full extension of Legendre/Jacobi to all
    integer bottom arguments including zero, negatives and even numbers."""
    a = int(a)
    n = int(n)
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # (a/2) = 0 for even a, else +1 for a = +-1 mod 8 and -1 for a = +-3 mod 8.
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    # Jacobi part for odd n > 0 via quadratic reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0

