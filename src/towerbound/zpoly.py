"""Dense integer polynomials as coefficient lists, constant term first.

A polynomial is a list ``[c0, c1, ..., cn]`` meaning c0 + c1*x + ... + cn*x^n.
The zero polynomial is the empty list.  All arithmetic is exact; the
polynomials are written out by :mod:`towerbound.report`.
"""

from __future__ import annotations

from typing import Sequence

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

Poly = list[int]


def normalize(p: Sequence[int]) -> Poly:
    """Strip trailing zero coefficients."""
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(p: Sequence[int]) -> int:
    """Degree, with the zero polynomial at -1."""
    q = normalize(p)
    return len(q) - 1


def mul(a: Sequence[int], b: Sequence[int]) -> Poly:
    a = normalize(a)
    b = normalize(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return normalize(out)


def divmod_monicish(a: Sequence[int], b: Sequence[int]) -> tuple[Poly, Poly]:
    """Polynomial division of a by b where the leading coefficient of b is +-1.

    Restricting to unit leading coefficients keeps the arithmetic in the
    integers with no fractions to track.
    """
    b = normalize(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lc = b[-1]
    if lc not in (1, -1):
        raise ValueError("divisor must have leading coefficient +-1")
    rem = list(normalize(a))
    quo = [0] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        coef = rem[-1] * lc
        quo[shift] = coef
        for i, c in enumerate(b):
            rem[shift + i] -= coef * c
        rem = normalize(rem)
        if not rem:
            break
    return normalize(quo), rem


def div_exact(a: Sequence[int], b: Sequence[int]) -> Poly:
    """Exact quotient a / b; raises if the division leaves a remainder."""
    q, r = divmod_monicish(a, b)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def derivative(p: Sequence[int]) -> Poly:
    return normalize([i * c for i, c in enumerate(p)][1:])


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Resultant of f and g via the Sylvester matrix (exact)."""
    f = normalize(f)
    g = normalize(g)
    n = len(f) - 1
    m = len(g) - 1
    if n < 0 or m < 0:
        return 0
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    size = n + m
    rows: list[list[int]] = []
    frow = list(reversed(f))  # highest degree first
    grow = list(reversed(g))
    for i in range(m):
        rows.append([0] * i + frow + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + grow + [0] * (size - m - 1 - i))
    return _bareiss_det(rows)


def discriminant(f: Sequence[int]) -> int:
    """Discriminant of f, degree >= 1, via the resultant with f'.

    disc(f) = (-1)^(n(n-1)/2) * res(f, f') / lc(f).
    """
    f = normalize(f)
    n = len(f) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    r = resultant(f, derivative(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    num = sign * r
    lc = f[-1]
    if num % lc != 0:
        raise ArithmeticError("discriminant division was not exact")
    return num // lc
