"""Exact integer arithmetic: primality, orders mod n, prime streams.

Everything here works on Python's built-in arbitrary-precision ``int``;
values in the hundreds of digits are routine and nothing ever rounds.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import chain, compress, filterfalse, islice
from itertools import count as count_from

__all__ = [
    "NotCoprime",
    "SearchExhausted",
    "DEFAULT_SEARCH_CEILING",
    "PROOF_BOUND",
    "WIDE_WITNESS_COUNT",
    "exact_decimal_context",
    "format_decimal",
    "mul_many",
    "is_prime",
    "factorize",
    "euler_phi",
    "mult_order",
    "least_conductor",
    "primes",
    "primes_ascending",
]


class NotCoprime(ValueError):
    """Raised when an operation requires coprime arguments and they share a factor."""


class SearchExhausted(RuntimeError):
    """Raised when a bounded prime search hits its ceiling before finding enough primes."""


# The tower's two errors and the names the CLI offers as choices live here, and
# tower and fixtures re-export or key by them, because arith is the one package
# module the CLI loads before it parses an argument.
class EqualPrimes(ValueError):
    """Raised when the Kummer prime and the tower prime coincide."""


class ValidationFailed(Exception):
    """Raised when a construction's preconditions do not hold; carries the report."""

    def __init__(self, report):
        self.report = report
        names = ", ".join(i.name for i in report.failures) or "unspecified"
        super().__init__(f"validation failed: {names}")


FAMILY_ABELIAN = "abelian"
FAMILY_NILPOTENT = "nilpotent-class-2"
FIXTURE_IDS = ("example1", "example2", "example3")
BUNDLED_AV_LABELS = ("11a1", "19a1")


class _RecordType(type):
    """Makes each subclass of :class:`Record` a ``collections.namedtuple``.

    As under ``typing.NamedTuple``, the fields are the body's annotated names
    in order, a value assigned to one is its default, and the body's methods,
    docstring and ``__qualname__`` are copied onto the tuple class.  The
    annotations stay strings, where typing compiled each one.
    """

    def __new__(mcs, name: str, bases: tuple, ns: dict) -> type:
        fields = tuple(ns.get("__annotations__", ()))
        defaulted = tuple(f for f in fields if f in ns)
        if defaulted != fields[len(fields) - len(defaulted):]:
            raise TypeError(f"{name}: a field without a default follows one with a default")
        cls = namedtuple(name, fields, defaults=[ns[f] for f in defaulted],
                         module=ns["__module__"])
        for key, value in ns.items():
            if key not in fields:
                setattr(cls, key, value)
        return cls


#: The base of the package's records, here because every module imports arith:
#: ``class R(Record)`` with annotated fields is a named tuple, MRO (R, tuple, object).
Record = type.__new__(_RecordType, "Record", (), {})


#: Default upper bound for prime searches; generous for desk-scale runs.
DEFAULT_SEARCH_CEILING = 10_000_000

# Small primes used as a trial-division prefilter before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# ``is_prime`` is a proof below PROOF_BOUND by Jim Sinclair's bases, each reduced
# mod n and skipped when that leaves 0; at or above it, its verdict rests on
# WIDE_WITNESS_COUNT strong-probable-prime rounds with random witnesses.
PROOF_BOUND = 2**64
WIDE_WITNESS_COUNT = 40
_WITNESSES_BELOW_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


# ``str`` refuses ints longer than sys.get_int_max_str_digits() digits (4300
# by default, never below 640), so longer values convert through ``decimal``,
# whose products are number-theoretic transforms; its leaves of at most
# _LEAF_BITS bits convert directly.
_SAFE_LIMIT = 10**512
_LEAF_BITS = 2048


def exact_decimal_context():
    """A new ``decimal`` context whose integer arithmetic is exact or raises."""
    import decimal as d  # here, not at the top: importing it costs about 1.8 ms

    return d.Context(prec=d.MAX_PREC, Emax=d.MAX_EMAX, Emin=d.MIN_EMIN,
                     traps=[d.InvalidOperation, d.Overflow, d.Inexact, d.Rounded])


def _to_decimal(n: int):
    """``n`` >= 0 as an exact Decimal: split on 2^w, convert both halves and
    recombine with one fma by 2^w (CPython 3.12's ``Lib/_pylong.py``)."""
    ctx = exact_decimal_context()
    pow2 = {}

    def convert(n: int, w: int):  # n < 2**w
        if w <= _LEAF_BITS:
            return ctx.create_decimal(n)
        lo_w = w >> 1
        if lo_w not in pow2:
            pow2[lo_w] = ctx.power(2, lo_w)
        hi = n >> lo_w
        return ctx.fma(convert(hi, w - lo_w), pow2[lo_w], convert(n - (hi << lo_w), lo_w))

    return convert(n, n.bit_length())


def format_decimal(n: int) -> str:
    """Render ``n`` in plain decimal with no separators (JSON-safe for any size).

    Values past 512 digits convert through ``decimal`` instead of ``str``, so
    no interpreter-wide setting is touched.
    """
    if n < 0:
        return "-" + format_decimal(-n)
    return str(n) if n < _SAFE_LIMIT else str(_to_decimal(n))


def mul_many(factors: Iterable[int]) -> int:
    """Product of ``factors`` via a balanced product tree.

    Pairing operands of similar size keeps intermediate products small and is
    noticeably faster than a running product once operands run to many digits.
    Empty input gives 1.
    """
    level = [int(f) for f in factors]
    if not level:
        return 1
    while len(level) > 1:
        nxt = [level[i] * level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _strong_probable_prime(n: int, base: int) -> bool:
    """One strong-probable-prime round for odd n > 2."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test, deterministic below PROOF_BOUND = 2**64.

    Below PROOF_BOUND a fixed 7-base strong-probable-prime battery is a proof.
    At or above it the answer is a strong-probable-prime verdict using
    WIDE_WITNESS_COUNT witnesses drawn from a generator seeded by ``n``
    itself, so repeated calls are reproducible.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < PROOF_BOUND:
        witnesses: Iterable[int] = filter(None, (a % n for a in _WITNESSES_BELOW_64))
    else:
        import random  # here, not at the top: only wide candidates need it

        rng = random.Random(n ^ 0x5F3759DF)
        witnesses = (rng.randrange(2, n - 1) for _ in range(WIDE_WITNESS_COUNT))
    return all(_strong_probable_prime(n, a) for a in witnesses)


def factorize(n: int) -> dict[int, int]:
    """Factor ``n`` >= 1 by trial division; returns {prime: exponent}.

    Intended for the small moduli and totients this package works with,
    not for cryptographic-size inputs.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=256)
def _unit_group(m: int) -> tuple[int, tuple[int, ...]]:
    """(phi(m), the primes dividing phi(m)): what every order test mod m needs."""
    phi = 1
    for p, e in factorize(m).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi, tuple(factorize(phi))


def euler_phi(m: int) -> int:
    """Euler's totient of m >= 1."""
    if m < 1:
        raise ValueError("euler_phi expects m >= 1")
    return _unit_group(m)[0]


def mult_order(a: int, m: int) -> int:
    """Multiplicative order of ``a`` modulo ``m`` (m >= 1).

    Raises :class:`NotCoprime` when gcd(a, m) != 1.  For m = 1 every residue
    is the identity, so the order is 1.
    """
    if m < 1:
        raise ValueError("mult_order expects m >= 1")
    if m == 1:
        return 1
    a %= m
    if math.gcd(a, m) != 1:
        raise NotCoprime(f"{a} is not invertible modulo {m}")
    order, prime_divisors = _unit_group(m)
    for p in prime_divisors:
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def least_conductor(m: int) -> int:
    """The least n with Q(zeta_n) = Q(zeta_m): m/2 when m = 2 (mod 4), m otherwise."""
    return m // 2 if m % 4 == 2 else m


# The sieve covers the odd numbers below the default search ceiling, in
# segments of at most _SEGMENT_BYTES (one byte per odd number); the first
# segment of a stream is small and each next one doubles, so a short search
# sieves little.  Primes above the sieve come from Miller-Rabin.
_SIEVE_LIMIT = DEFAULT_SEARCH_CEILING
_SEGMENT_BYTES = 1 << 16
_FIRST_SEGMENT_BYTES = 1 << 10


@lru_cache(maxsize=1)
def _base_primes() -> tuple[int, ...]:
    """The odd primes up to sqrt(_SIEVE_LIMIT), built on first use."""
    top = math.isqrt(_SIEVE_LIMIT - 1)
    flags = bytearray([1]) * (top + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(top) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    return tuple(compress(range(3, top + 1), flags[3:]))


def _prime_runs(start: int, ceiling: float = math.inf) -> Iterator[Iterator[int]]:
    """The primes in [start, ceiling], ascending, as a run per sieve segment.

    2 comes first on its own, then the odd primes below _SIEVE_LIMIT one
    segment at a time, then one run of Miller-Rabin survivors above it.
    """
    if start <= 2 <= ceiling:
        yield iter((2,))
    lo = max(3, start | 1)
    stop = min(ceiling + 1, _SIEVE_LIMIT)
    size = _FIRST_SEGMENT_BYTES
    while lo < stop:
        hi = min(lo + 2 * size, stop)  # segment: odd n in [lo, hi)
        seg = bytearray([1]) * ((hi - lo + 1) // 2)
        for p in _base_primes():
            if p * p >= hi:
                break
            first = max(p * p, -(-lo // p) * p)
            if first % 2 == 0:
                first += p
            offset = (first - lo) // 2
            seg[offset::p] = bytes(len(range(offset, len(seg), p)))
        yield compress(range(lo, hi, 2), seg)
        lo = hi
        size = min(2 * size, _SEGMENT_BYTES)
    lo = max(lo, _SIEVE_LIMIT | 1)
    odd = count_from(lo, 2) if ceiling == math.inf else range(lo, ceiling + 1, 2)
    yield filter(is_prime, odd)


def primes(start: int = 2) -> Iterator[int]:
    """Yield primes >= start in ascending order, indefinitely.

    Below ``DEFAULT_SEARCH_CEILING`` they come from a segmented sieve of
    Eratosthenes over the odd numbers; above it, from Miller-Rabin.
    """
    return chain.from_iterable(_prime_runs(start))


def primes_ascending(
    count: int,
    predicate: Callable[[int], bool] | None = None,
    exclude: Iterable[int] = (),
    ceiling: int = DEFAULT_SEARCH_CEILING,
    *,
    classes: tuple[int, frozenset[int]] | None = None,
) -> list[int]:
    """First ``count`` primes, in ascending order, that satisfy ``predicate``.

    ``exclude`` lists primes to skip even if they satisfy the predicate.
    ``classes = (N, residues)`` keeps only the primes q with q mod N in
    ``residues``, tested a whole sieve segment at a time before the predicate.
    The search stops at ``ceiling`` and raises :class:`SearchExhausted` if the
    quota was not met, so a bad predicate cannot loop forever; the predicate
    is never called past the quota.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    skip = frozenset(exclude).__contains__
    found: list[int] = []
    runs = _prime_runs(2, ceiling)
    while len(found) < count:  # the quota is tested before the ceiling
        run = next(runs, None)
        if run is None:
            raise SearchExhausted(
                f"found only {len(found)} of {count} primes below {ceiling}"
            )
        if classes is not None:
            modulus, residues = classes
            run = (q for q in run if q % modulus in residues)
        # islice takes at most sys.maxsize; a larger quota exhausts the ceiling first
        quota = min(count - len(found), sys.maxsize)
        found += islice(filter(predicate, filterfalse(skip, run)), quota)
    return found
