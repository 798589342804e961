"""Cyclotomic integers and rational-prime splitting in Q(zeta_m).

Elements of Z[zeta_m] are stored as integer coordinate tuples on the power
basis 1, zeta, ..., zeta^(phi(m)-1), i.e. reduced modulo the m-th cyclotomic
polynomial.  Splitting of an unramified rational prime q is computed from the
multiplicative order of q mod m, read at m/2 when m = 2 (mod 4); no
factorization of ideals is ever needed.
Zeta-notation is parsed here and written by :mod:`towerbound.report`.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import islice
from operator import mul

from . import arith, zpoly
from .arith import Record

__all__ = [
    "ModulusMismatch",
    "RamifiedPrime",
    "NotTotallySplit",
    "ElementParseError",
    "CycloModulus",
    "cyclotomic_polynomial",
    "CycloElement",
    "cyclo_mul",
    "parse_cyclo_element",
    "SplittingData",
    "splitting_data",
    "PrimeAbove",
    "primes_above",
]


class ModulusMismatch(ValueError):
    """Raised when combining elements that live in different cyclotomic fields."""


class RamifiedPrime(ValueError):
    """Raised when a prime divides the conductor and the requested law needs it unramified."""


class NotTotallySplit(ValueError):
    """Raised when a residue-degree-1 enumeration is asked of a prime that is not totally split."""


class ElementParseError(ValueError):
    """Raised when a zeta-notation string does not match the accepted grammar."""


class CycloModulus(Record):
    """The field Q(zeta_m): conductor, degree, and the reduction polynomial."""

    m: int
    phi: int
    poly: tuple[int, ...]  # m-th cyclotomic polynomial, constant term first


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> CycloModulus:
    """Build the reduction data for Q(zeta_m).

    Phi_m comes by exact division: Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d.
    """
    if not 1 <= m <= sys.maxsize:  # Phi_m's m + 1 coefficients must fit a list
        raise ValueError(f"conductor must be in [1, {sys.maxsize}]")
    num = [-1] + [0] * (m - 1) + [1]
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = zpoly.mul(den, list(cyclotomic_polynomial(d).poly))
    poly = tuple(zpoly.div_exact(num, den))
    return CycloModulus(m=m, phi=len(poly) - 1, poly=poly)


def _reduce(mod: CycloModulus, raw: Sequence[int]) -> tuple[int, ...]:
    """Reduce an integer polynomial in zeta to the power basis.

    Folding mod x^m - 1 first, which Phi_m divides, leaves m - phi division steps.
    """
    m = mod.m
    if len(raw) > m:
        raw = [sum(raw[i::m]) for i in range(m)]
    _, rem = zpoly.divmod_monicish(list(raw), list(mod.poly))
    rem = rem + [0] * (mod.phi - len(rem))
    return tuple(rem)


class CycloElement(Record):
    """An element of Z[zeta_m] on the power basis."""

    modulus: CycloModulus
    coeffs: tuple[int, ...]

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_coeffs(mod: CycloModulus, raw: Sequence[int]) -> "CycloElement":
        """Element from an arbitrary-degree coefficient list (reduced here)."""
        return CycloElement(mod, _reduce(mod, raw))

    @staticmethod
    def integer(mod: CycloModulus, n: int) -> "CycloElement":
        return CycloElement.from_coeffs(mod, [n])

    # -- ring operations ----------------------------------------------

    def _check(self, other: object) -> bool:
        """Whether ``other`` is an element too; one of another conductor raises.

        On False the operator returns NotImplemented, so Python raises
        TypeError for an int or a tuple operand, as it does for 2 * el.
        """
        if not isinstance(other, CycloElement):
            return False
        if self.modulus.m != other.modulus.m:
            raise ModulusMismatch(
                f"conductor {self.modulus.m} vs {other.modulus.m}"
            )
        return True

    def __add__(self, other: "CycloElement") -> "CycloElement":
        if not self._check(other):
            return NotImplemented
        return CycloElement(
            self.modulus,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        if not self._check(other):
            return NotImplemented
        return CycloElement(
            self.modulus,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.modulus, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycloElement") -> "CycloElement":
        if not self._check(other):
            return NotImplemented
        raw = zpoly.mul(list(self.coeffs), list(other.coeffs))
        return CycloElement.from_coeffs(self.modulus, raw)

    def __radd__(self, other: object) -> "CycloElement":
        # raised: NotImplemented would let tuple.__add__ concatenate (1, 2) + el
        raise TypeError(f"cannot add {type(other).__name__!r} and 'CycloElement'")

    def __rmul__(self, other: object) -> "CycloElement":
        return NotImplemented  # not tuple repetition: 2 * el raises TypeError

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def norm(self) -> int:
        """Field norm to Q, exact, from its residues modulo word-size primes.

        N(a) = prod a(omega^k) over gcd(k, m) = 1, for omega a primitive m-th
        root of unity; this is the resultant Res(Phi_m, a) (Cohen, A Course in
        Computational Algebraic Number Theory, 4.3).  By AM-GM and Parseval,
        |N(a)| <= (m ||a||_2^2 / phi)^(phi/2); word primes q = 1 (mod 2m) are
        taken until their product exceeds twice that.  Modulo q, with
        psi^2 = omega, omega^(jk) = psi^((j+k)^2 - j^2 - k^2) turns all the
        a(omega^k) into one correlation with the chirp psi^(t^2) (Bluestein
        1970): a product of two Kronecker-packed integers, or for at most phi/2
        terms a sum of shifted chirps.  Past the cached tables, at most
        2 sqrt(phi) terms are evaluated directly.  A tree CRT (Bernstein, "Fast
        multiplication and its applications", 2008) combines the residues,
        lifted to the symmetric range.  The zero element has norm 0.
        """
        m, phi = self.modulus.m, self.modulus.phi
        terms = [(j, c) for j, c in enumerate(self.coeffs) if c]
        if not terms:
            return 0
        x = (m * sum(c * c for _, c in terms)) ** phi // phi**phi  # >= N(a)^2
        s = max(0, x.bit_length() // 2 - 64)  # isqrt from x's top bits, rounded up
        limit = 2 * ((math.isqrt(x >> 2 * s) + 1) << s)
        word = _word_primes(m, -(-limit.bit_length() // 62))  # each exceeds 2**62
        residues, few, direct = [], 2 * len(terms) <= phi, len(terms) ** 2 <= 4 * phi
        for i, (q, psi) in enumerate(word):
            if direct and i >= _CACHED_PRIMES:  # cheaper than building a table
                omega, powers = psi * psi % q, [1] * m
                for e in range(1, m):
                    powers[e] = powers[e - 1] * omega % q
                reduced = [(j, c % q) for j, c in terms]
                columns = [[c * powers[j * k % m] for k in _units(m)] for j, c in reduced]
                values, acc = map(sum, zip(*columns)), 1
            else:
                table = _chirp if i < _CACHED_PRIMES else _chirp.__wrapped__
                width, chirp, inverse, acc = table(m, q, psi)
                if few:
                    corr = sum(c % q * inverse[j] % q * (chirp >> 8 * width * j) for j, c in terms)
                else:
                    pairs = zip(reversed(self.coeffs), reversed(inverse))
                    packed = b"".join((c % q * r % q).to_bytes(width, "little") for c, r in pairs)
                    corr = int.from_bytes(packed, "little") * chirp >> 8 * width * (phi - 1)
                raw = corr.to_bytes(width * (phi + m), "little")
                values = (int.from_bytes(raw[k * width : (k + 1) * width], "little")
                          for k in _units(m))
            for value in values:
                acc = acc * value % q
            residues.append(acc)
        residue, modulus = _crt(residues, [q for q, _ in word])
        return residue - modulus if residue > modulus // 2 else residue


def cyclo_mul(mod: CycloModulus, factors: Iterable[CycloElement]) -> CycloElement:
    """Product of several elements of Q(zeta_m)."""
    acc = CycloElement.integer(mod, 1)
    for f in factors:
        acc = acc * f
    return acc


@lru_cache(maxsize=None)
def _units(m: int) -> tuple[int, ...]:
    """The k in [0, m) prime to m: omega^k runs over the roots of Phi_m."""
    return tuple(k for k in range(m) if math.gcd(k, m) == 1)


@lru_cache(maxsize=None)
def _prime_divisors(m: int) -> tuple[int, ...]:
    return tuple(arith.factorize(m))


def _root_of_unity(m: int, q: int) -> int:
    """A primitive m-th root of unity modulo the prime q > 2, q = 1 (mod m).

    Takes omega = x^((q-1)/m) for x = 2, 3, ...; omega has order exactly m
    once omega^(m/r) != 1 for every prime r | m.
    """
    e = (q - 1) // m
    prime_divisors = _prime_divisors(m)
    for x in range(2, q):
        omega = pow(x, e, q)
        if all(pow(omega, m // r, q) != 1 for r in prime_divisors):
            return omega
    raise ArithmeticError(f"no primitive {m}-th root of unity modulo {q}")


# Word primes per conductor m, found downwards from 2**63 and kept: the primes q = 1
# (mod 2m) above 2**62, where arith.is_prime is a proof, with psi of order 2m mod q.
_WORD_PRIMES: dict[int, list[tuple[int, int]]] = {}


def _word_primes(m: int, count: int) -> list[tuple[int, int]]:
    """The first ``count`` word primes of conductor m with their psi, largest first."""
    found = _WORD_PRIMES.setdefault(m, [])
    if len(found) < count:
        step = 2 * m
        top = found[-1][0] - step if found else (2**63 - 2) // step * step + 1
        fresh = filter(arith.is_prime, range(top, 2**62, -step))
        found += ((q, _root_of_unity(step, q)) for q in islice(fresh, count - len(found)))
    return found[:count]


def _chirp_powers(psi: int, n: int, q: int) -> list[int]:
    """psi^(t^2) mod q for t < n, by psi^((t+1)^2) = psi^(t^2) * psi^(2t+1)."""
    out, odd, psi2 = [1], psi, psi * psi % q
    for _ in range(n - 1):
        out.append(out[-1] * odd % q)
        odd = odd * psi2 % q
    return out


_CACHED_PRIMES = 4  # tables cached per conductor: one huge norm pins 160 kB at most


@lru_cache(maxsize=128)
def _chirp(m: int, q: int, psi: int) -> tuple[int, int, list[int], int]:
    """For word prime q: slot width, psi^(t^2) packed for t < phi + m - 1,
    psi^(-j^2) for j < phi, and the product of psi^(-k^2) over k prime to m."""
    phi = len(_units(m))
    width = (2 * q.bit_length() + phi.bit_length() + 7) // 8
    chirp = b"".join(v.to_bytes(width, "little") for v in _chirp_powers(psi, phi + m - 1, q))
    inverse = _chirp_powers(pow(psi, -1, q), phi, q)
    scale = pow(psi, -sum(k * k for k in _units(m)) % (2 * m), q)
    return width, int.from_bytes(chirp, "little"), inverse, scale


def _crt(residues: list[int], primes: list[int]) -> tuple[int, int]:
    """(x, M), M the primes' product, x = residues[i] mod primes[i], by Bernstein's
    linear-combination CRT: (M / q) mod q comes down the product tree, as
    (M / a) mod a = ((M / P) mod a) * (b mod a) for P = a * b, and
    x = sum c_q M / q, c_q = residue / (M / q) mod q, goes up it."""
    tree = [primes]
    while len(tree[-1]) > 1:
        tree.append([math.prod(tree[-1][i : i + 2]) for i in range(0, len(tree[-1]), 2)])
    siblings = [[lv[n ^ 1] if n ^ 1 < len(lv) else 1 for n in range(len(lv))] for lv in tree]
    down = [1]
    for level, sibs in zip(tree[-2::-1], siblings[-2::-1]):
        down = [down[n // 2] % a * (b % a) % a for n, (a, b) in enumerate(zip(level, sibs))]
    up = [r * pow(e, -1, q) % q for r, e, q in zip(residues, down, primes)]
    for sibs in siblings[:-1]:
        up = [sum(map(mul, up[i : i + 2], sibs[i : i + 2])) for i in range(0, len(up), 2)]
    return up[0] % tree[-1][0], tree[-1][0]


# ---------------------------------------------------------------------------
# zeta-notation parsing
# ---------------------------------------------------------------------------

_UNSUB = str.maketrans("₀₁₂₃₄₅₆₇₈₉", "0123456789")
_UNSUP = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
# \Z, not $: "$" also matches before a final newline, which the grammar lacks
_TERM = re.compile(r"^(-?)(\d+)?(?:\*?zeta(?:\{(\d+)\}|(\d+))?(?:\^(\d+))?)?\Z")


def _translate_marks(s: str) -> str:
    """Rewrite sub/superscript runs into ASCII ``{sub}``/``^`` forms."""
    s = re.sub("[₀-₉]+", lambda run: "{" + run[0].translate(_UNSUB) + "}", s)
    return re.sub("[⁰¹²³⁴-⁹]+", lambda run: "^" + run[0].translate(_UNSUP), s)


def parse_cyclo_element(text: str, m: int) -> CycloElement:
    """Parse zeta-notation like ``2ζ₇³ + ζ₇² + 1`` into Z[zeta_m].

    Also accepts the ASCII spelling ``2*zeta7^3 + zeta7^2 + 1``.  A conductor
    written in the string (subscript or the digits after ``zeta``) must match
    ``m``.  Exponents >= m are folded with zeta^m = 1.
    """
    mod = cyclotomic_polynomial(m)
    s = text.replace("−", "-").replace("–", "-")
    s = _translate_marks(s).replace("ζ", "zeta")
    s = s.replace(" ", "")
    if not s:
        raise ElementParseError("empty element string")
    # Signs only occur between terms: a term keeps its "-" and drops its "+".
    terms = [t[1:] if t[:1] == "+" else t for t in re.split("(?=[+-])", s)]
    if terms[-1] in ("", "-"):
        raise ElementParseError(f"dangling sign in {text!r}")

    raw = [0] * m
    for n, t in enumerate(filter(None, terms), 1):
        mt = _TERM.match(t)
        has_zeta = "zeta" in t
        if not mt or mt[2] is None and not has_zeta:
            raise ElementParseError(f"bad term {t!r} in {text!r}")
        sign_s, digits, sub_cond, ascii_cond, exp_s = mt.groups()
        cond_s = sub_cond or ascii_cond
        try:
            cond = int(cond_s) if cond_s is not None else m
            coef = int(digits) if digits is not None else 1
            exp = int(exp_s) if exp_s is not None else 1
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            shown = t if len(t) <= 40 else f"{t[:20]}...{t[-10:]}"
            raise ElementParseError(
                f"term {n} ({shown!r}, {len(t)} characters) holds a number "
                f"too long to read"
            ) from None
        if cond != m:
            raise ElementParseError(
                f"conductor {cond_s} in {text!r} does not match {m}"
            )
        if sign_s == "-":
            coef = -coef
        raw[exp % m if has_zeta else 0] += coef
    return CycloElement.from_coeffs(mod, raw)


# ---------------------------------------------------------------------------
# splitting laws
# ---------------------------------------------------------------------------


def match_up_to_unit(el: CycloElement, target: int) -> tuple[int, int] | None:
    """Does ``el`` equal ``target`` times a root of unity +-zeta^k?

    Returns (sign, k) with el = sign * target * zeta^k, preferring the exact
    match (1, 0) when it exists; None when no such unit works.  Only an
    element whose coefficients ``target`` all divide can match, so el/target
    is compared with +zeta^k, then -zeta^k, for k = 0, 1, ..., m - 1; each
    power comes from the previous one by a shift and one subtraction of
    Phi_m.  Target 0 matches only the zero element, as (1, 0).
    """
    if target == 0:
        return (1, 0) if el.is_zero() else None
    if any(c % target for c in el.coeffs):
        return None
    unit = tuple(c // target for c in el.coeffs)
    m, phi, poly = el.modulus
    z = (1,) + (0,) * (phi - 1)
    for k in range(m):
        if unit == z:
            return (1, k)
        if unit == tuple(-c for c in z):
            return (-1, k)
        top = z[-1]
        z = tuple((z[i - 1] if i else 0) - top * poly[i] for i in range(phi))
    return None


class SplittingData(Record):
    """Ramification/residue data (e, f, g) for a rational prime q in Q(zeta_m)."""

    q: int
    m: int
    e: int
    f: int
    g: int


def splitting_data(q: int, m: int) -> SplittingData:
    """Splitting of the rational prime q in Q(zeta_m), q unramified.

    Q(zeta_m) = Q(zeta_n) for n = ``arith.least_conductor(m)`` (Washington,
    Introduction to Cyclotomic Fields, Ch. 2).  For q prime to n the residue
    degree is the multiplicative order of q mod n and e*f*g = phi(n) with
    e = 1; over n = 1, the rationals, every prime splits completely.  Raises
    :class:`RamifiedPrime` when q divides n.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if not arith.is_prime(q):
        raise ValueError(f"{q} is not prime")
    n = arith.least_conductor(m)
    if n % q == 0:
        raise RamifiedPrime(f"{q} divides the conductor {m}")
    f = arith.mult_order(q, n)
    return SplittingData(q=q, m=m, e=1, f=f, g=arith.euler_phi(n) // f)


class PrimeAbove(Record):
    """A degree-1 prime of Z[zeta_m] above q, as the ideal (q, zeta - root)."""

    q: int
    m: int
    root: int


def primes_above(q: int, m: int) -> tuple[PrimeAbove, ...]:
    """The phi(m) degree-1 primes above a totally split q, by ascending root.

    q is taken to be prime; this is not checked.  With n as in
    :func:`splitting_data`, q must not divide n (:class:`RamifiedPrime`) and
    must be 1 mod n, i.e. have residue degree 1 (:class:`NotTotallySplit`
    otherwise).  The roots of the m-th cyclotomic polynomial mod q are the
    primitive m-th roots of unity omega^k, gcd(k, m) = 1, for any one of
    them, omega; finding omega and its powers costs O(phi(m) log q).  The
    only even split prime is q = 2 over n = 1, where Phi_m = x + 1 mod 2 has
    the single root 1.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    n = arith.least_conductor(m)
    if n % q == 0:
        raise RamifiedPrime(f"{q} divides the conductor {m}")
    if (q - 1) % n:
        raise NotTotallySplit(f"{q} is not 1 mod {m}, so its residue degree exceeds 1")
    if q == 2:
        roots = [1]
    else:
        omega = _root_of_unity(m, q)
        roots = sorted(pow(omega, k, q) for k in _units(m))
    return tuple(PrimeAbove(q=q, m=m, root=r) for r in roots)
