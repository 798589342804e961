"""Finite fields F_{q^f} and polynomial tools over them.

A field is a descriptor object (:class:`PrimeField` or :class:`ExtensionField`)
whose elements are plain values: residues are ints in [0, q); extension-field
elements are coordinate tuples of length f over Z/qZ, reduced modulo a fixed
monic irreducible generator.  Polynomials over a field are lists of elements,
constant term first, zero polynomial = empty list.

The deterministic Rabin test certifies irreducibility; distinct-degree
factorization yields the degree profile of a squarefree polynomial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

from . import arith, cyclotomic, zpoly

__all__ = [
    "ZeroPolynomial",
    "NotSquarefree",
    "DiscriminantDivisible",
    "FqElement",
    "FqPoly",
    "PrimeField",
    "ExtensionField",
    "build_extension_field",
    "irreducible_generator",
    "is_irreducible",
    "distinct_degree_profile",
    "is_inert_in_relative_extension",
]


class ZeroPolynomial(ValueError):
    """Raised when the zero polynomial is passed where a nonzero one is required."""


class NotSquarefree(ValueError):
    """Raised when a squarefree precondition fails (gcd(f, f') is not constant)."""


class DiscriminantDivisible(ValueError):
    """Raised when a prime divides the discriminant of a defining polynomial."""


#: An element of a finite field: a residue (int) or a coordinate tuple.
FqElement = Union[int, tuple]

#: A polynomial over a finite field: list of elements, constant term first.
FqPoly = list


@dataclass(frozen=True)
class PrimeField:
    """The field Z/qZ for a prime q; elements are ints in [0, q)."""

    q: int

    def __post_init__(self) -> None:
        if not arith.is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")

    @property
    def size(self) -> int:
        return self.q

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.q)

    def describe(self) -> str:
        return f"F_{self.q}"


@dataclass(frozen=True)
class ExtensionField:
    """The field F_{q^degree} = (Z/qZ)[y] modulo a monic irreducible generator.

    Elements are coordinate tuples of length ``degree`` (constant first).
    The generator is re-certified irreducible at construction time.
    """

    q: int
    degree: int
    generator: tuple[int, ...]  # monic, length degree + 1, constant first
    _xpow: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise ValueError("extension degree must be >= 2")
        if len(self.generator) != self.degree + 1 or self.generator[-1] != 1:
            raise ValueError("generator must be monic of the stated degree")
        base = PrimeField(self.q)
        if not is_irreducible(base, list(self.generator)):
            raise ValueError("generator polynomial is not irreducible")
        # Reduction table: y^k for k = degree .. 2*degree - 2.
        table: list[tuple[int, ...]] = []
        cur = [(-c) % self.q for c in self.generator[:-1]]  # y^degree
        table.append(tuple(cur))
        for _ in range(self.degree - 2):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [
                    (c - top * g) % self.q
                    for c, g in zip(cur, self.generator[:-1])
                ]
            table.append(tuple(cur))
        object.__setattr__(self, "_xpow", tuple(table))

    @property
    def size(self) -> int:
        return self.q**self.degree

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.degree

    @property
    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.degree - 1)

    def from_int(self, n: int) -> tuple[int, ...]:
        return (n % self.q,) + (0,) * (self.degree - 1)

    def add(self, a: tuple, b: tuple) -> tuple:
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        q = self.q
        return tuple(-x % q for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        q = self.q
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = [c % q for c in conv[:d]]
        for k in range(d, 2 * d - 1):
            c = conv[k] % q
            if c:
                red = self._xpow[k - d]
                out = [(o + c * r) % q for o, r in zip(out, red)]
        return tuple(out)

    def inv(self, a: tuple) -> tuple:
        if all(x % self.q == 0 for x in a):
            raise ZeroDivisionError("inverse of zero")
        base = PrimeField(self.q)
        # Extended Euclid in (Z/qZ)[y] between a and the generator.
        r0, r1 = list(self.generator), _poly_trim(base, list(a))
        s0, s1 = [], [base.one]
        while _poly_deg(r1) > 0:
            quo, rem = _poly_divmod(base, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(base, s0, _poly_mul(base, quo, s1))
        if not r1:
            raise ZeroDivisionError("element shares a factor with the generator")
        c = base.inv(r1[0])
        inv = [base.mul(c, x) for x in s1]
        inv = inv[: self.degree] + [0] * (self.degree - len(inv))
        return tuple(inv)

    def describe(self) -> str:
        gen = zpoly.format_poly(list(self.generator), var="y")
        return f"F_{self.q}^{self.degree} = F_{self.q}[y]/({gen})"


Field = Union[PrimeField, ExtensionField]


# ---------------------------------------------------------------------------
# polynomial arithmetic over a field descriptor
# ---------------------------------------------------------------------------


def _poly_trim(K: Field, p: Sequence) -> FqPoly:
    out = list(p)
    zero = K.zero
    while out and out[-1] == zero:
        out.pop()
    return out


def _poly_deg(p: Sequence) -> int:
    return len(p) - 1


def _poly_sub(K: Field, a: Sequence, b: Sequence) -> FqPoly:
    zero = K.zero
    n = max(len(a), len(b))
    out = [
        K.sub(a[i] if i < len(a) else zero, b[i] if i < len(b) else zero)
        for i in range(n)
    ]
    return _poly_trim(K, out)


def _poly_mul(K: Field, a: Sequence, b: Sequence) -> FqPoly:
    a = _poly_trim(K, a)
    b = _poly_trim(K, b)
    if not a or not b:
        return []
    if isinstance(K, PrimeField):
        q = K.q
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly_trim(K, [c % q for c in out])
    zero = K.zero
    add, mul = K.add, K.mul
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
    return _poly_trim(K, out)


def _poly_divmod(K: Field, a: Sequence, b: Sequence) -> tuple[FqPoly, FqPoly]:
    a = _poly_trim(K, a)
    b = _poly_trim(K, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    if isinstance(K, PrimeField):
        q = K.q
        binv = pow(b[-1], -1, q)
        rem = list(a)
        quo = [0] * (len(a) - len(b) + 1)
        nb = len(b)
        for shift in range(len(a) - nb, -1, -1):
            top = rem[shift + nb - 1] % q
            if top == 0:
                rem[shift + nb - 1] = 0
                continue
            c = top * binv % q
            quo[shift] = c
            for i in range(nb):
                rem[shift + i] -= c * b[i]
        return _poly_trim(K, quo), _poly_trim(K, [c % q for c in rem])
    zero, sub, mul = K.zero, K.sub, K.mul
    binv = K.inv(b[-1])
    rem = list(a)
    quo = [zero] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        top = rem[shift + len(b) - 1]
        if top == zero:
            continue
        c = mul(top, binv)
        quo[shift] = c
        for i, bc in enumerate(b):
            rem[shift + i] = sub(rem[shift + i], mul(c, bc))
    return _poly_trim(K, quo), _poly_trim(K, rem)


def _poly_mod(K: Field, a: Sequence, b: Sequence) -> FqPoly:
    return _poly_divmod(K, a, b)[1]


def _poly_monic(K: Field, a: Sequence) -> FqPoly:
    a = _poly_trim(K, a)
    if not a:
        return []
    lc = a[-1]
    if lc == K.one:
        return list(a)
    inv = K.inv(lc)
    mul = K.mul
    return [mul(inv, c) for c in a]


def _poly_gcd(K: Field, a: Sequence, b: Sequence) -> FqPoly:
    a = _poly_trim(K, a)
    b = _poly_trim(K, b)
    while b:
        a, b = b, _poly_mod(K, a, b)
    return _poly_monic(K, a)


def _poly_mulmod(K: Field, a: Sequence, b: Sequence, mod: Sequence) -> FqPoly:
    return _poly_mod(K, _poly_mul(K, a, b), mod)


def _poly_powmod(K: Field, base: Sequence, e: int, mod: Sequence) -> FqPoly:
    result = [K.one]
    cur = _poly_mod(K, base, mod)
    while e > 0:
        if e & 1:
            result = _poly_mulmod(K, result, cur, mod)
        e >>= 1
        if e:
            cur = _poly_mulmod(K, cur, cur, mod)
    return result


def _poly_derivative(K: Field, a: Sequence) -> FqPoly:
    out = []
    for i in range(1, len(a)):
        c = a[i]
        acc = K.zero
        for _ in range(i):
            acc = K.add(acc, c)
        out.append(acc)
    return _poly_trim(K, out)


def _poly_x(K: Field) -> FqPoly:
    return [K.zero, K.one]


# ---------------------------------------------------------------------------
# irreducibility and degree profiles
# ---------------------------------------------------------------------------


def is_irreducible(K: Field, poly: Sequence) -> bool:
    """Deterministic (Rabin) irreducibility test over the field ``K``.

    With n = deg(poly) and Q = |K|, checks x^(Q^n) = x modulo poly and, for
    every prime r dividing n, that gcd(x^(Q^(n/r)) - x, poly) is constant.
    Nonzero constants count as units, not irreducibles; the zero polynomial
    raises :class:`ZeroPolynomial`.
    """
    f = _poly_trim(K, list(poly))
    if not f:
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    f = _poly_monic(K, f)
    n = _poly_deg(f)
    if n == 0:
        return False
    if n == 1:
        return True
    Q = K.size
    x = _poly_x(K)
    powers: list[FqPoly] = []  # powers[d-1] = x^(Q^d) mod f
    h = x
    for _ in range(n):
        h = _poly_powmod(K, h, Q, f)
        powers.append(h)
    if _poly_trim(K, _poly_sub(K, powers[-1], x)):
        return False
    for r in arith.factorize(n):
        g = _poly_gcd(K, _poly_sub(K, powers[n // r - 1], x), f)
        if _poly_deg(g) != 0:
            return False
    return True


def distinct_degree_profile(K: Field, poly: Sequence) -> tuple[tuple[int, int], ...]:
    """Degree profile ((d, count), ...) of a squarefree polynomial over ``K``.

    Each pair says the input has ``count`` monic irreducible factors of degree
    ``d``; degrees with no factors are omitted and d ascends.  The input must
    be squarefree (gcd with its derivative constant), otherwise
    :class:`NotSquarefree` is raised; leading coefficients are scaled away
    first, so the profile ignores units.
    """
    f = _poly_trim(K, list(poly))
    if not f:
        raise ZeroPolynomial("degree profile of the zero polynomial")
    f = _poly_monic(K, f)
    if _poly_deg(f) == 0:
        return ()
    fprime = _poly_derivative(K, f)
    if not fprime or _poly_deg(_poly_gcd(K, f, fprime)) != 0:
        raise NotSquarefree("polynomial has a repeated factor")
    Q = K.size
    x = _poly_x(K)
    profile: list[tuple[int, int]] = []
    h = x
    d = 0
    while _poly_deg(f) > 0:
        d += 1
        if _poly_deg(f) < 2 * d:
            # What is left is a single irreducible factor.
            profile.append((_poly_deg(f), 1))
            break
        h = _poly_powmod(K, h, Q, f)
        g = _poly_gcd(K, _poly_sub(K, h, x), f)
        if _poly_deg(g) > 0:
            profile.append((d, _poly_deg(g) // d))
            f, rem = _poly_divmod(K, f, g)
            if rem:
                raise ArithmeticError("inexact division while peeling factors")
            h = _poly_mod(K, h, f)
    return tuple(profile)


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------


def irreducible_generator(q: int, degree: int) -> tuple[int, ...]:
    """First monic irreducible of the given degree over Z/qZ, by ascending scan.

    Candidates y^degree + c_{degree-1} y^{degree-1} + ... + c_0 are tried with
    the coefficient vector (c_0, ..., c_{degree-1}) ascending as a base-q
    number, so the choice is deterministic and reproducible.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    base = PrimeField(q)
    for idx in range(q**degree):
        coeffs = []
        v = idx
        for _ in range(degree):
            coeffs.append(v % q)
            v //= q
        cand = coeffs + [1]
        if is_irreducible(base, cand):
            return tuple(cand)
    raise ArithmeticError("no irreducible polynomial found (impossible)")


def build_extension_field(q: int, f: int) -> Field:
    """The field with q^f elements; f = 1 degenerates to residues mod q."""
    if f < 1:
        raise ValueError("extension degree must be >= 1")
    if f == 1:
        return PrimeField(q)
    gen = irreducible_generator(q, f)
    return ExtensionField(q=q, degree=f, generator=gen)


# ---------------------------------------------------------------------------
# relative inertness
# ---------------------------------------------------------------------------


def is_inert_in_relative_extension(
    def_poly: Sequence[int],
    q: int,
    base_conductor: int,
) -> list[bool]:
    """Whether the primes of Q(zeta_m) above q stay inert after adjoining a root.

    ``def_poly`` is a monic integer polynomial (constant term first) defining
    the relative extension; ``q`` must not divide the conductor
    (:class:`RamifiedPrime`) nor the discriminant of ``def_poly``
    (:class:`DiscriminantDivisible`), which rules out ramification upstairs.
    Under those guards, a prime of residue degree f stays inert exactly when
    the polynomial is irreducible over the residue field F_{q^f}.  That holds
    iff it is irreducible over F_q and gcd(deg, f) = 1 (Lidl & Niederreiter,
    Finite Fields, Thm 3.46), so no extension field is ever built.

    Because the coefficients are rational integers, every residue field above
    q sees the same image of the polynomial, so the per-prime answers
    coincide; the returned list still has one entry per prime (g entries).
    """
    poly = zpoly.normalize(def_poly)
    if zpoly.degree(poly) < 1:
        raise ValueError("defining polynomial must have degree >= 1")
    if poly[-1] != 1:
        raise ValueError("defining polynomial must be monic")
    sd = cyclotomic.splitting_data(q, base_conductor)
    disc = zpoly.discriminant(poly)
    if disc % q == 0:
        raise DiscriminantDivisible(
            f"{q} divides the discriminant {disc} of the defining polynomial"
        )
    verdict = math.gcd(zpoly.degree(poly), sd.f) == 1 and is_irreducible(
        PrimeField(q), [c % q for c in poly]
    )
    return [verdict] * sd.g
