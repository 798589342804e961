"""Finite fields F_{q^f} and polynomial tools over them.

A field is a descriptor object (:class:`PrimeField` or :class:`ExtensionField`).
Its public element operations take plain values: residues are ints in
[0, q); extension-field elements are coordinate tuples of length f over
Z/qZ, reduced modulo a fixed monic irreducible generator.

Polynomials run on :mod:`towerbound.zpoly`'s kernel, on int codes, 0 for
zero and 1 for one: a residue is its own code, and an extension-field
element is coded by its Zech logarithm (1 + i for alpha^i) when the field
has at most ``_ZECH_MAX`` elements, by its coordinates in base q otherwise.
Polynomials are lists of codes, constant term first, zero polynomial = empty
list.  The Rabin test certifies irreducibility, with Frobenius powers by
modular composition; distinct-degree factorization yields the degree profile
of a squarefree polynomial.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Sequence

from . import arith, cyclotomic, zpoly
from .zpoly import (poly_derivative, poly_divmod, poly_gcd, poly_mod, poly_monic, poly_mul,
                    poly_powmod, poly_sub, poly_trim)

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
FqElement = int | tuple

#: A polynomial over a finite field: list of elements, constant term first.
FqPoly = list


class PrimeField:
    """The field Z/qZ for a prime q; elements are ints in [0, q), their own codes."""

    __slots__ = ("q",)  # not a tuple, whose fields read slower: the kernel reads q per call
    zero, one = 0, 1

    def __init__(self, q: int) -> None:
        if not arith.is_prime(q):
            raise ValueError(f"{q} is not prime")
        self.q = q

    def __eq__(self, other: object) -> bool:
        return type(other) is PrimeField and other.q == self.q

    def __hash__(self) -> int:
        return hash(self.q)

    def __repr__(self) -> str:
        return f"PrimeField(q={self.q!r})"

    @property
    def size(self) -> int:
        return self.q

    def from_int(self, n: int) -> int:
        return n % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.q)

    def axpy(self, out: list, k: int, c: int, b: Sequence) -> None:
        """out[k + j] += c * b[j] for all j, in place (c nonzero): the kernel's inner loop."""
        q = self.q
        for j, y in enumerate(b, k):
            out[j] = (out[j] + c * y) % q


class ExtensionField(namedtuple("ExtensionField", ("q", "degree", "generator"))):
    """The field F_{q^degree} = (Z/qZ)[y] modulo a monic irreducible generator.

    Elements are coordinate tuples of length ``degree`` (constant first).
    A given generator (monic, length degree + 1, constant first) is certified
    irreducible at construction time; without one, the field takes the first
    of :func:`irreducible_generator`'s scan.  ``base`` is Z/qZ, outside the
    tuple.
    """

    def __new__(cls, q: int, degree: int, generator: tuple | None = None) -> ExtensionField:
        if degree < 2:
            raise ValueError("extension degree must be >= 2")
        base = PrimeField(q)
        if generator is None:
            generator = _first_irreducible(base, degree)
        elif len(generator) != degree + 1 or generator[-1] != 1:
            raise ValueError("generator must be monic of the stated degree")
        elif not is_irreducible(base, generator):
            raise ValueError("generator polynomial is not irreducible")
        self = super().__new__(cls, q, degree, tuple(generator))  # hashable, whatever came in
        self.base = base
        return self

    @functools.cached_property
    def codes(self) -> _Coords:
        """The int-coded arithmetic the polynomial kernel runs on, built on first use."""
        return _Zech(self) if self.size <= _ZECH_MAX else _Coords(self)

    @property
    def size(self) -> int:
        return self.q**self.degree

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.degree

    @property
    def one(self) -> tuple[int, ...]:
        return self.from_int(1)

    def from_int(self, n: int) -> tuple[int, ...]:
        return self._pad([n % self.q])

    def _pad(self, p: Sequence[int]) -> tuple[int, ...]:
        return tuple(p) + (0,) * (self.degree - len(p))

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(-x % self.q for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        a, b, base = poly_trim(a), poly_trim(b), self.base
        return self._pad(poly_mod(base, poly_mul(base, a, b), self.generator))

    def inv(self, a: tuple) -> tuple:
        base, r0, r1 = self.base, self.generator, _coded(self.base, a)[1]
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        s0, s1 = [], [1]
        while len(r1) > 1:  # extended Euclid in (Z/qZ)[y] against the generator
            quo, rem = poly_divmod(base, r0, r1)
            r0, r1, s0, s1 = r1, rem, s1, poly_sub(base, s0, poly_mul(base, quo, s1))
        c = base.inv(r1[0])  # a nonzero constant: the generator is irreducible
        return self._pad([base.mul(c, x) for x in s1])


Field = PrimeField | ExtensionField

#: Largest field whose Zech tables are built.  Measured on a 2-core Xeon with
#: CPython 3.11, a build costs 3-12 us per element, and over a field this size
#: it saves about that much on one degree-3 Rabin test: it pays within a call.
_ZECH_MAX = 1024


class _Coords:
    """F_{q^f} on the codes c_0 + c_1 q + ... + c_{f-1} q^(f-1) of its coordinates."""

    def __init__(self, K: ExtensionField) -> None:
        self.K, self.q, self.size = K, K.q, K.size
        self.places = [K.q**i for i in range(K.degree)]

    def encode(self, a: Sequence[int]) -> int:
        n = 0
        try:
            for c in reversed(a):
                n = n * self.q + c % self.q
        except TypeError:
            n = self.size  # not a sequence of ints
        if n >= self.size:  # as when a nonzero coordinate runs past the degree
            raise ValueError(f"{a!r} is not an element of F_{self.q}^{self.K.degree}")
        return n

    def decode(self, n: int) -> tuple[int, ...]:
        return tuple(n // p % self.q for p in self.places)

    def from_int(self, n: int) -> int:
        return n % self.q

    def neg(self, a: int) -> int:
        return self.encode(self.K.neg(self.decode(a)))

    def mul(self, a: int, b: int) -> int:
        return self.encode(self.K.mul(self.decode(a), self.decode(b)))

    def inv(self, a: int) -> int:
        return self.encode(self.K.inv(self.decode(a)))

    def axpy(self, out: list, k: int, c: int, b: Sequence) -> None:
        K, c = self.K, self.decode(c)
        for j, y in enumerate(b, k):
            out[j] = self.encode(K.add(self.decode(out[j]), K.mul(c, self.decode(y))))


class _Zech(_Coords):
    """F_{q^f} on Zech-logarithm codes: 0 is zero and 1 + i is alpha^i.

    alpha is the smallest primitive element in the order of the coordinate
    codes.  ``exp[i]`` is the coordinate code of alpha^i, ``log`` maps a
    coordinate code to its code, and ``zech[d]`` is the code of 1 + alpha^d.
    """

    def __init__(self, K: ExtensionField) -> None:
        super().__init__(K)
        q, n = self.q, K.size - 1
        alpha = next(
            a for a in map(super().decode, range(2, K.size))
            if all(poly_powmod(K.base, _coded(K.base, a)[1], n // r, K.generator) != [1]
                   for r in arith.factorize(n))
        )
        # the matrix of y -> alpha * y on coordinates, by rows
        rows = list(zip(*(K.mul(alpha, K.one[-i:] + K.one[:-i]) for i in range(K.degree))))
        self.n, self.exp, cur = n, [], K.one
        for _ in range(n):
            self.exp.append(super().encode(cur))
            cur = [sum(map(operator.mul, cur, row)) % q for row in rows]
        self.log = [0] * K.size
        for i, c in enumerate(self.exp):
            self.log[c] = i + 1
        self.zech = [self.log[c - c % q + (c + 1) % q] for c in self.exp]
        self.half = n // 2 if q % 2 else 0  # -1 = alpha^half

    def encode(self, a: Sequence[int]) -> int:
        return self.log[super().encode(a)]

    def decode(self, n: int) -> tuple[int, ...]:
        return super().decode(self.exp[n - 1] if n else 0)

    def from_int(self, n: int) -> int:
        return self.log[n % self.q]

    def neg(self, a: int) -> int:
        return (a - 1 + self.half) % self.n + 1 if a else 0

    def mul(self, a: int, b: int) -> int:
        return (a + b - 2) % self.n + 1 if a and b else 0

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return (1 - a) % self.n + 1

    def axpy(self, out: list, k: int, c: int, b: Sequence) -> None:
        n, zech = self.n, self.zech
        for j, y in enumerate(b, k):
            if y:  # out[j] += alpha^(c-1) * alpha^(y-1), through the Zech table
                t, u = (c + y - 2) % n + 1, out[j]
                if u:
                    z = zech[(t - u) % n]
                    t = (u + z - 2) % n + 1 if z else 0
                out[j] = t


def _coded(K: Field, poly: Sequence) -> tuple[PrimeField | _Coords, FqPoly]:
    """The kernel's arithmetic for ``K`` and ``poly`` in its codes, trimmed."""
    if isinstance(K, PrimeField):
        return K, poly_trim([c % K.q for c in poly])
    return K.codes, poly_trim([K.codes.encode(c) for c in poly])


def _frobenius(K, f: Sequence) -> list[FqPoly]:
    """x^(Q i) mod f for i < deg f, with Q = |K|: the images of h -> h^Q mod f.

    The coefficients are fixed by that power, so h(x)^Q = h(x^Q) mod f and
    one power of x gives every Frobenius power by composition (von zur
    Gathen & Shoup 1992).
    """
    xq = poly_powmod(K, [0, 1], K.size, f)
    images = [[1]]
    for _ in range(len(f) - 2):
        images.append(poly_mod(K, poly_mul(K, images[-1], xq), f))
    return images


def _compose(K, h: Sequence, images: Sequence) -> FqPoly:
    """h^Q mod f from the images of ``_frobenius(K, f)``."""
    out = [0] * len(images)
    for c, image in zip(h, images):
        if c:
            K.axpy(out, 0, c, image)
    return poly_trim(out)


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
    C, f = _coded(K, poly)
    if not f:
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    f = poly_monic(C, f)
    n = len(f) - 1
    if n <= 1:
        return n == 1
    images = _frobenius(C, f)
    powers = [[0, 1], images[1]]  # powers[d] = x^(Q^d) mod f
    for _ in range(n - 1):
        powers.append(_compose(C, powers[-1], images))
    return powers[n] == [0, 1] and all(
        len(poly_gcd(C, f, poly_sub(C, powers[n // r], [0, 1]), 1)) == 1
        for r in arith.factorize(n)
    )


def distinct_degree_profile(K: Field, poly: Sequence) -> tuple[tuple[int, int], ...]:
    """Degree profile ((d, count), ...) of a squarefree polynomial over ``K``.

    Each pair says the input has ``count`` monic irreducible factors of degree
    ``d``; degrees with no factors are omitted and d ascends.  The input must
    be squarefree (gcd with its derivative constant), otherwise
    :class:`NotSquarefree` is raised; leading coefficients are scaled away
    first, so the profile ignores units.
    """
    C, f = _coded(K, poly)
    if not f:
        raise ZeroPolynomial("degree profile of the zero polynomial")
    f = poly_monic(C, f)
    if len(f) == 1:
        return ()
    fprime = poly_derivative(C, f)
    if not fprime or len(poly_gcd(C, f, fprime, 1)) != 1:
        raise NotSquarefree("polynomial has a repeated factor")
    x = [0, 1]
    profile: list[tuple[int, int]] = []
    h = x
    images = _frobenius(C, f)
    d = 0
    while len(f) > 1:
        d += 1
        if len(f) - 1 < 2 * d:
            # What is left is a single irreducible factor.
            profile.append((len(f) - 1, 1))
            break
        h = _compose(C, h, images)
        if h == x:  # f divides x^(Q^d) - x, and its factors of degree < d are gone
            profile.append((d, (len(f) - 1) // d))
            break
        g = poly_gcd(C, f, poly_sub(C, h, x), d)  # exact when its degree reaches d
        if len(g) > d:
            profile.append((d, (len(g) - 1) // d))
            f, rem = poly_divmod(C, f, g)
            if rem:
                raise ArithmeticError("inexact division while peeling factors")
            h = poly_mod(C, h, f)
            images = [poly_mod(C, p, f) for p in images[: len(f) - 1]]
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
    return _first_irreducible(PrimeField(q), degree)


def _first_irreducible(base: PrimeField, degree: int) -> tuple[int, ...]:
    for tail in itertools.product(range(base.q), repeat=degree):  # c_0 runs fastest
        if is_irreducible(base, tail[::-1] + (1,)):
            return tail[::-1] + (1,)
    raise ArithmeticError("no irreducible polynomial found (impossible)")


def build_extension_field(q: int, f: int) -> Field:
    """The field with q^f elements; f = 1 degenerates to residues mod q."""
    if f < 1:
        raise ValueError("extension degree must be >= 1")
    if f == 1:
        return PrimeField(q)
    return ExtensionField(q, f)


# ---------------------------------------------------------------------------
# relative inertness
# ---------------------------------------------------------------------------


def is_inert_in_relative_extension(
    def_poly: Sequence[int],
    q: int,
    conductor: int,
) -> list[bool]:
    """Whether the primes of Q(zeta_m) above q stay inert after adjoining a root.

    ``def_poly`` is a monic integer polynomial (constant term first) defining
    the relative extension; ``q`` must not divide the conductor
    (:class:`RamifiedPrime`) nor the discriminant of ``def_poly``
    (:class:`DiscriminantDivisible`), which rules out ramification upstairs.
    Being monic, ``def_poly`` has a discriminant divisible by q iff it has a
    repeated factor mod q: a non-constant gcd with its derivative mod q,
    which may be zero.  Under those guards, a prime of residue degree f stays
    inert exactly when the polynomial is irreducible over the residue field
    F_{q^f}.  That holds iff it is irreducible over F_q and gcd(deg, f) = 1
    (Lidl & Niederreiter, Finite Fields, Thm 3.46), so no extension field is
    ever built.

    Because the coefficients are rational integers, every residue field above
    q sees the same image of the polynomial, so the per-prime answers
    coincide; the returned list still has one entry per prime (g entries).
    """
    poly = zpoly.normalize(def_poly)
    if zpoly.degree(poly) < 1:
        raise ValueError("defining polynomial must have degree >= 1")
    if poly[-1] != 1:
        raise ValueError("defining polynomial must be monic")
    sd = cyclotomic.splitting_data(q, conductor)
    F, f = _coded(PrimeField(q), poly)
    if len(poly_gcd(F, f, poly_derivative(F, f), 1)) > 1:
        raise DiscriminantDivisible(f"{q} divides the discriminant "
                                    f"{zpoly.discriminant(poly)} of the defining polynomial")
    verdict = math.gcd(zpoly.degree(poly), sd.f) == 1 and is_irreducible(F, f)
    return [verdict] * sd.g
