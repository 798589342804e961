"""Cyclotomic integers and rational-prime splitting in Q(zeta_m).

Elements of Z[zeta_m] are stored as integer coordinate tuples on the power
basis 1, zeta, ..., zeta^(phi(m)-1), i.e. reduced modulo the m-th cyclotomic
polynomial.  Splitting of an unramified rational prime q is computed from the
multiplicative order of q mod m; no factorization of ideals is ever needed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from . import arith, zpoly

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
    "is_inert",
    "unit_group_is_cyclic",
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


@lru_cache(maxsize=None)
def _cyclo_poly_coeffs(m: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the m-th cyclotomic polynomial.

    Computed by exact division: Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d.
    """
    if not 1 <= m <= sys.maxsize:  # Phi_m's m + 1 coefficients must fit a list
        raise ValueError(f"conductor must be in [1, {sys.maxsize}]")
    num = [0] * m + [1]
    num[0] = -1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = zpoly.mul(den, list(_cyclo_poly_coeffs(d)))
    return tuple(zpoly.div_exact(num, den))


@dataclass(frozen=True)
class CycloModulus:
    """The field Q(zeta_m): conductor, degree, and the reduction polynomial."""

    m: int
    phi: int
    poly: tuple[int, ...]  # m-th cyclotomic polynomial, constant term first

    def __repr__(self) -> str:  # keep reprs short in test diffs
        return f"CycloModulus(m={self.m})"


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> CycloModulus:
    """Build the reduction data for Q(zeta_m)."""
    coeffs = _cyclo_poly_coeffs(m)
    return CycloModulus(m=m, phi=len(coeffs) - 1, poly=coeffs)


def _reduce(mod: CycloModulus, raw: Sequence[int]) -> tuple[int, ...]:
    """Reduce an integer polynomial in zeta to the power basis."""
    _, rem = zpoly.divmod_monicish(list(raw), list(mod.poly))
    rem = rem + [0] * (mod.phi - len(rem))
    return tuple(rem)


@dataclass(frozen=True)
class CycloElement:
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

    def _check(self, other: "CycloElement") -> None:
        if self.modulus.m != other.modulus.m:
            raise ModulusMismatch(
                f"conductor {self.modulus.m} vs {other.modulus.m}"
            )

    def __add__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(
            self.modulus,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(
            self.modulus,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.modulus, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        raw = zpoly.mul(list(self.coeffs), list(other.coeffs))
        return CycloElement.from_coeffs(self.modulus, raw)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def norm(self) -> int:
        """Field norm to Q, exact, by evaluation at the roots of Phi_m mod q.

        N(a) = prod a(omega^k) over gcd(k, m) = 1, for omega a primitive m-th
        root of unity; this is the resultant Res(Phi_m, a) (Cohen, A Course in
        Computational Algebraic Number Theory, 4.3).  The product is taken
        modulo word-size primes q = 1 (mod m), where those roots exist in F_q,
        until the primes' product exceeds twice the bound ||a||_1^phi(m) on
        |N(a)|; the residues are combined by CRT and lifted to the symmetric
        range.  The zero element has norm 0.
        """
        m = self.modulus.m
        terms = [(i, c) for i, c in enumerate(self.coeffs) if c]
        if not terms:
            return 0
        units = [k for k in range(m) if math.gcd(k, m) == 1]
        bound = 2 * sum(abs(c) for _, c in terms) ** self.modulus.phi
        residue, modulus = 0, 1
        primes = _word_primes(m)
        while modulus <= bound:
            q, omega = next(primes)
            powers = [1] * m
            for i in range(1, m):
                powers[i] = powers[i - 1] * omega % q
            reduced = [(i, c % q) for i, c in terms]
            acc = 1
            for k in units:
                acc = acc * sum(c * powers[i * k % m] for i, c in reduced) % q
            residue += modulus * ((acc - residue) * pow(modulus, -1, q) % q)
            modulus *= q
        return residue - modulus if residue > modulus // 2 else residue

    # -- display ------------------------------------------------------

    def render(self, unicode_ok: bool = True) -> str:
        return _render_element(self, unicode_ok)

    def __str__(self) -> str:
        return self.render()


def cyclo_mul(mod: CycloModulus, factors: Iterable[CycloElement]) -> CycloElement:
    """Product of several elements of Q(zeta_m)."""
    acc = CycloElement.integer(mod, 1)
    for f in factors:
        acc = acc * f
    return acc


def _root_of_unity(m: int, q: int) -> int:
    """A primitive m-th root of unity modulo the prime q > 2, q = 1 (mod m).

    Takes omega = x^((q-1)/m) for x = 2, 3, ...; omega has order exactly m
    once omega^(m/r) != 1 for every prime r | m.
    """
    e = (q - 1) // m
    prime_divisors = tuple(arith.factorize(m))
    for x in range(2, q):
        omega = pow(x, e, q)
        if all(pow(omega, m // r, q) != 1 for r in prime_divisors):
            return omega
    raise ArithmeticError(f"no primitive {m}-th root of unity modulo {q}")


# (q, omega) pairs per conductor: primes q = 1 (mod m) below 2**63, where the
# Miller-Rabin battery of arith.is_prime is a proof, found downwards and kept.
_WORD_PRIMES: dict[int, list[tuple[int, int]]] = {}


def _word_primes(m: int) -> Iterator[tuple[int, int]]:
    found = _WORD_PRIMES.setdefault(m, [])
    i = 0
    while True:
        if i == len(found):
            q = found[-1][0] - m if found else (2**63 - 2) // m * m + 1
            while not arith.is_prime(q):
                q -= m
            found.append((q, _root_of_unity(m, q)))
        yield found[i]
        i += 1


# ---------------------------------------------------------------------------
# zeta-notation rendering and parsing
# ---------------------------------------------------------------------------

_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_UNSUB = {s: d for d, s in zip("0123456789", "₀₁₂₃₄₅₆₇₈₉")}
_UNSUP = {s: d for d, s in zip("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")}


def _zeta_token(m: int, e: int, unicode_ok: bool) -> str:
    if unicode_ok:
        tok = "ζ" + str(m).translate(_SUB)
        if e > 1:
            tok += str(e).translate(_SUP)
        return tok
    tok = f"zeta{m}"
    if e > 1:
        tok += f"^{e}"
    return tok


def _render_element(el: CycloElement, unicode_ok: bool) -> str:
    coeffs = el.coeffs
    m = el.modulus.m
    parts: list[str] = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = arith.format_decimal(mag)
        else:
            tok = _zeta_token(m, e, unicode_ok)
            body = tok if mag == 1 else arith.format_decimal(mag) + tok
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    if not parts:
        return "0"
    return " ".join(parts)


def _translate_marks(s: str) -> str:
    """Rewrite sub/superscript runs into ASCII ``{sub}``/``^`` forms."""
    out: list[str] = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch in _UNSUB:
            run = []
            while i < len(s) and s[i] in _UNSUB:
                run.append(_UNSUB[s[i]])
                i += 1
            out.append("{" + "".join(run) + "}")
            continue
        if ch in _UNSUP:
            run = []
            while i < len(s) and s[i] in _UNSUP:
                run.append(_UNSUP[s[i]])
                i += 1
            out.append("^" + "".join(run))
            continue
        out.append(ch)
        i += 1
    return "".join(out)


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
    # Split into signed terms; signs only occur between terms in the grammar.
    terms: list[str] = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur:
            terms.append(cur)
            cur = ch if ch == "-" else ""
        elif ch in "+-" and not cur:
            cur = ch if ch == "-" else ""
        else:
            cur += ch
    if cur in ("", "-"):
        raise ElementParseError(f"dangling sign in {text!r}")
    terms.append(cur)

    import re

    term_re = re.compile(
        r"^(-?)(\d+)?(?:\*?zeta(?:\{(\d+)\}|(\d+))?(?:\^(\d+))?)?$"
    )
    raw = [0] * m
    saw_term = False
    for n, t in enumerate(terms, 1):
        mt = term_re.match(t)
        if not mt:
            raise ElementParseError(f"bad term {t!r} in {text!r}")
        sign_s, digits, sub_cond, ascii_cond, exp_s = mt.groups()
        has_zeta = "zeta" in t
        if digits is None and not has_zeta:
            raise ElementParseError(f"bad term {t!r} in {text!r}")
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
        saw_term = True
    if not saw_term:
        raise ElementParseError(f"no terms found in {text!r}")
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
    mod = el.modulus
    z = (1,) + (0,) * (mod.phi - 1)
    for k in range(mod.m):
        if unit == z:
            return (1, k)
        if unit == tuple(-c for c in z):
            return (-1, k)
        top = z[-1]
        z = tuple(
            (z[i - 1] if i else 0) - top * mod.poly[i] for i in range(mod.phi)
        )
    return None


@dataclass(frozen=True)
class SplittingData:
    """Ramification/residue data (e, f, g) for a rational prime q in Q(zeta_m)."""

    q: int
    m: int
    e: int
    f: int
    g: int

    @property
    def classification(self) -> str:
        if self.e != 1:
            return "ramified"
        if self.f == 1:
            return "totally split"
        if self.g == 1:
            return "inert"
        return "partially split"


def splitting_data(q: int, m: int) -> SplittingData:
    """Splitting of the rational prime q in Q(zeta_m), q unramified.

    For an unramified q the residue degree is the multiplicative order of
    q mod m and e*f*g = phi(m) with e = 1.  Conductors m <= 2 give the
    rational field itself, where every prime trivially splits completely.
    Raises :class:`RamifiedPrime` when q divides m (with the usual caveat
    that m = 2q is really conductor q; no such m is used here).
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    if not arith.is_prime(q):
        raise ValueError(f"{q} is not prime")
    if m <= 2:
        return SplittingData(q=q, m=m, e=1, f=1, g=1)
    if m % q == 0:
        raise RamifiedPrime(f"{q} divides the conductor {m}")
    f = arith.mult_order(q, m)
    phi = arith.euler_phi(m)
    return SplittingData(q=q, m=m, e=1, f=f, g=phi // f)


def is_inert(q: int, m: int) -> bool:
    """True when q generates (Z/m)*, i.e. stays prime in Q(zeta_m).

    Conductors m <= 2 are degree-1 fields, where "inert" is vacuously true.
    """
    sd = splitting_data(q, m)
    return sd.g == 1


def unit_group_is_cyclic(m: int) -> bool:
    """Whether (Z/m)* is cyclic, i.e. m in {1, 2, 4, r^k, 2 r^k} for odd primes r.

    Only then can a prime be inert in Q(zeta_m), for it must generate (Z/m)*.
    """
    if m in (1, 2, 4):
        return True
    rest = m
    if rest % 2 == 0:
        rest //= 2
        if rest % 2 == 0:
            return False
    fac = arith.factorize(rest)
    return len(fac) == 1 and (2 not in fac)


@dataclass(frozen=True)
class PrimeAbove:
    """A degree-1 prime of Z[zeta_m] above q, as the ideal (q, zeta - root)."""

    q: int
    m: int
    root: int

    def render(self, unicode_ok: bool = True) -> str:
        z = "ζ" + str(self.m).translate(_SUB) if unicode_ok else f"zeta{self.m}"
        return f"({self.q}, {z} - {self.root})"


def primes_above(q: int, m: int) -> tuple[PrimeAbove, ...]:
    """The phi(m) degree-1 primes above a totally split q, by ascending root.

    Requires residue degree 1 (:class:`NotTotallySplit` otherwise).  The roots
    of the m-th cyclotomic polynomial mod q are the primitive m-th roots of
    unity omega^k, gcd(k, m) = 1, for any one of them, omega; finding omega
    and its powers costs O(phi(m) log q).  The only even split prime is q = 2
    over m <= 2, where Phi_m = x + 1 mod 2 has the single root 1.
    """
    sd = splitting_data(q, m)
    if sd.f != 1:
        raise NotTotallySplit(
            f"{q} has residue degree {sd.f} > 1 in conductor {m}"
        )
    if q == 2:
        roots = [1]
    else:
        omega = _root_of_unity(m, q)
        roots = sorted(pow(omega, k, q) for k in range(m) if math.gcd(k, m) == 1)
    return tuple(PrimeAbove(q=q, m=m, root=r) for r in roots)
