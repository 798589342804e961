"""Dense polynomials as coefficient lists, constant term first: the package's kernel.

A polynomial is a list ``[c0, c1, ..., cn]`` meaning c0 + c1*x + ... + cn*x^n;
the zero polynomial is the empty list.  The kernel, ``poly_trim`` to
``poly_derivative``, has one body for every coefficient ring ``K``, which
supplies ``from_int``, ``neg``, ``mul``, ``inv`` and the inner loop ``axpy``
on elements with 0 as zero and 1 as one; it takes and returns trimmed
polynomials.  :mod:`towerbound.gf` runs it over finite fields, the integer
API in ``__all__`` over Z and the resultant over Q.  Arithmetic is exact;
:mod:`towerbound.report` writes the polynomials out.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

# The kernel stays out of __all__, whose names bench/tracing.py wraps: gf's time stays gf's.
__all__ = [
    "normalize",
    "degree",
    "mul",
    "divmod_monicish",
    "div_exact",
    "derivative",
    "resultant",
    "discriminant",
]

class _Integers:
    """Z as a kernel ring; its only units are +-1."""

    from_int, neg, mul = staticmethod(int), staticmethod(operator.neg), staticmethod(operator.mul)

    def inv(self, a: int) -> int:
        if a not in (1, -1):
            raise ValueError("divisor must have leading coefficient +-1")
        return a

    def axpy(self, out: list, k: int, c, b: Sequence) -> None:  # out[k + j] += c * b[j]
        for j, y in enumerate(b, k):
            out[j] += c * y


class _Rationals(_Integers):
    """Q on ints and Fractions; ``fractions`` loads ``decimal``, so it is imported on use."""

    def inv(self, a):
        from fractions import Fraction
        return Fraction(1, a)


Z, Q = _Integers(), _Rationals()


def poly_trim(p: Sequence) -> list:
    out = list(p)
    while out and not out[-1]:
        out.pop()
    return out


def poly_sub(K, a: Sequence, b: Sequence) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    K.axpy(out, 0, K.neg(1), b)
    return poly_trim(out)


def poly_mul(K, a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            K.axpy(out, i, x, b)
    return out


def _reduce(K, a: Sequence, b: Sequence) -> list:
    """a divided by b in a copy of a: each quotient coefficient goes into the top slot
    its step clears (Knuth's layout), so the remainder is the slots below deg b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    nb = len(b)
    binv = 1 if b[-1] == 1 else K.inv(b[-1])  # a monic divisor is not inverted
    rem = list(a)
    for top in range(len(a) - 1, nb - 2, -1):
        c = rem[top]
        if c:
            if binv != 1:
                c = K.mul(c, binv)
            K.axpy(rem, top - nb + 1, K.neg(c), b)
            rem[top] = c
    return rem


def poly_divmod(K, a: Sequence, b: Sequence) -> tuple[list, list]:
    if len(a) < len(b):  # no step to take: spare the copy and the split
        return [], list(a)
    rem = _reduce(K, a, b)
    return rem[len(b) - 1:], poly_trim(rem[: len(b) - 1])


def poly_mod(K, a: Sequence, b: Sequence) -> list:
    return poly_trim(_reduce(K, a, b)[: len(b) - 1])


def poly_monic(K, a: Sequence) -> list:
    if not a or a[-1] == 1:
        return list(a)
    inv = K.inv(a[-1])
    return [K.mul(inv, c) for c in a]


def poly_gcd(K, a: Sequence, b: Sequence, floor: int = 0) -> list:
    """Monic gcd of a and b; with a degree ``floor`` d, Euclid stops at the first
    remainder below degree d and returns it monic: a multiple of the gcd."""
    while len(b) > floor:
        a, b = b, poly_mod(K, a, b)
    return poly_monic(K, b or a)


def poly_powmod(K, base: Sequence, e: int, mod: Sequence) -> list:
    """base^e mod ``mod``, left to right, multiplying by base from the left."""
    if e < 0:
        raise ValueError("negative exponent")
    if not e:
        return [1]
    base = result = poly_mod(K, base, mod)
    for bit in bin(e)[3:]:
        result = poly_mod(K, poly_mul(K, result, result), mod)
        if bit == "1":
            result = poly_mod(K, poly_mul(K, base, result), mod)
    return result


def poly_derivative(K, a: Sequence) -> list:
    return poly_trim(K.mul(K.from_int(i), a[i]) for i in range(1, len(a)))


def normalize(p: Sequence[int]) -> list:
    """Strip trailing zero coefficients."""
    return poly_trim(p)


def degree(p: Sequence[int]) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(poly_trim(p)) - 1


def mul(a: Sequence[int], b: Sequence[int]) -> list:
    return poly_mul(Z, poly_trim(a), poly_trim(b))


def divmod_monicish(a: Sequence[int], b: Sequence[int]) -> tuple[list, list]:
    """Polynomial division of a by b where the leading coefficient of b is +-1.

    Restricting to unit leading coefficients keeps the arithmetic in the
    integers with no fractions to track.
    """
    b = poly_trim(b)
    if b:
        Z.inv(b[-1])  # raises for a non-unit, also when deg a < deg b
    return poly_divmod(Z, poly_trim(a), b)


def div_exact(a: Sequence[int], b: Sequence[int]) -> list:
    """Exact quotient a / b; raises if the division leaves a remainder."""
    q, r = divmod_monicish(a, b)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def derivative(p: Sequence[int]) -> list:
    return poly_derivative(Z, p)


def resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant of f and g by Euclid's algorithm over Q (exact).

    With f = u g + r, deg f = n, deg g = m and deg r = k,
    res(f, g) = (-1)^(nm) lc(g)^(n-k) res(g, r), and res(f, c) = c^n for a
    nonzero constant c (Cohen, A Course in Computational Algebraic Number
    Theory, Section 3.3.1).
    """
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        return 0
    res = 1
    while len(g) > 1:
        r = poly_mod(Q, f, g)
        if not r:
            return 0
        n, m = len(f) - 1, len(g) - 1
        res *= (-1) ** (n * m) * g[-1] ** (n - len(r) + 1)
        f, g = g, r
    res *= g[0] ** (len(f) - 1)
    if res.denominator != 1:
        raise ArithmeticError("resultant is not an integer")
    return int(res)


def discriminant(f: Sequence[int]) -> int:
    """Discriminant of f, degree >= 1, via the resultant with f'.

    disc(f) = (-1)^(n(n-1)/2) * res(f, f') / lc(f).
    """
    f = poly_trim(f)
    n = len(f) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    disc, rem = divmod((-1) ** (n * (n - 1) // 2) * resultant(f, derivative(f)), f[-1])
    if rem:
        raise ArithmeticError("discriminant division was not exact")
    return disc
