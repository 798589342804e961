"""Exact integer arithmetic: primality, multiplicative orders, prime streams.

Everything here works on Python's built-in arbitrary-precision ``int``;
values in the hundreds of digits are routine and nothing ever rounds.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import compress
from typing import Callable, Iterable, Iterator

__all__ = [
    "NotCoprime",
    "SearchExhausted",
    "DEFAULT_SEARCH_CEILING",
    "parse_decimal",
    "format_decimal",
    "mul_many",
    "is_prime",
    "factorize",
    "euler_phi",
    "mult_order",
    "primes",
    "primes_ascending",
]


class NotCoprime(ValueError):
    """Raised when an operation requires coprime arguments and they share a factor."""


class SearchExhausted(RuntimeError):
    """Raised when a bounded prime search hits its ceiling before finding enough primes."""


#: Default upper bound for prime searches; generous for desk-scale runs.
DEFAULT_SEARCH_CEILING = 10_000_000

# Small primes used as a trial-division prefilter before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# This witness set makes the strong-probable-prime test a proof for n < 2**64.
_WITNESSES_BELOW_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_WIDE_WITNESS_COUNT = 40


def parse_decimal(text: str) -> int:
    """Parse a (possibly signed) decimal integer, rejecting anything else."""
    t = text.strip().replace("_", "")
    sign = 1
    if t[:1] in "+-":
        if t[0] == "-":
            sign = -1
        t = t[1:]
    if not t.isdigit():
        raise ValueError(f"not a decimal integer: {text!r}")
    return sign * int(t)


# ``str`` refuses ints longer than sys.get_int_max_str_digits() digits (4300
# by default, never below 640), so longer values are rendered in pieces.
_SAFE_DIGITS = 512
_SAFE_LIMIT = 10**_SAFE_DIGITS


def format_decimal(n: int) -> str:
    """Render ``n`` in plain decimal with no separators (JSON-safe for any size).

    Values of more than a few hundred digits are split on a power of ten into
    halves rendered the same way, so no interpreter-wide setting is touched.
    """
    if n < 0:
        return "-" + format_decimal(-n)
    if n < _SAFE_LIMIT:
        return str(n)
    k = _SAFE_DIGITS
    while 10 ** (2 * k) <= n:
        k *= 2
    hi, lo = divmod(n, 10**k)
    return format_decimal(hi) + format_decimal(lo).zfill(k)


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
    """Primality test, deterministic below 2**64.

    Below 2**64 the fixed 12-base strong-probable-prime battery is a proof.
    At or above 2**64 the answer is a strong-probable-prime verdict using
    40 witnesses drawn from a generator seeded by ``n`` itself, so repeated
    calls are reproducible.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 2**64:
        witnesses: Iterable[int] = _WITNESSES_BELOW_64
    else:
        rng = random.Random(n ^ 0x5F3759DF)
        witnesses = (rng.randrange(2, n - 1) for _ in range(_WIDE_WITNESS_COUNT))
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


def _sieved_primes(lo: int) -> Iterator[int]:
    """Odd primes from the odd number lo >= 3 up to _SIEVE_LIMIT, ascending."""
    size = _FIRST_SEGMENT_BYTES
    while lo < _SIEVE_LIMIT:
        hi = min(lo + 2 * size, _SIEVE_LIMIT)  # segment: odd n in [lo, hi)
        seg = bytearray([1]) * ((hi - lo + 1) // 2)
        for p in _base_primes():
            if p * p >= hi:
                break
            first = max(p * p, -(-lo // p) * p)
            if first % 2 == 0:
                first += p
            start = (first - lo) // 2
            seg[start::p] = bytes(len(range(start, len(seg), p)))
        yield from compress(range(lo, hi, 2), seg)
        lo = hi
        size = min(2 * size, _SEGMENT_BYTES)


def primes(start: int = 2) -> Iterator[int]:
    """Yield primes >= start in ascending order, indefinitely.

    Below ``DEFAULT_SEARCH_CEILING`` they come from a segmented sieve of
    Eratosthenes over the odd numbers; above it, from Miller-Rabin.
    """
    n = max(2, start)
    if n == 2:
        yield 2
        n = 3
    if n % 2 == 0:
        n += 1
    if n < _SIEVE_LIMIT:
        yield from _sieved_primes(n)
        n = _SIEVE_LIMIT | 1
    while True:
        if is_prime(n):
            yield n
        n += 2


def primes_ascending(
    count: int,
    predicate: Callable[[int], bool] | None = None,
    exclude: Iterable[int] = (),
    ceiling: int = DEFAULT_SEARCH_CEILING,
) -> list[int]:
    """First ``count`` primes, in ascending order, that satisfy ``predicate``.

    ``exclude`` lists primes to skip even if they satisfy the predicate.
    The search stops at ``ceiling`` and raises :class:`SearchExhausted` if the
    quota was not met, so a bad predicate cannot loop forever.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    skip = frozenset(exclude)
    found: list[int] = []
    for q in primes():
        if q > ceiling:
            raise SearchExhausted(
                f"found only {len(found)} of {count} primes below {ceiling}"
            )
        if len(found) == count:
            break
        if q in skip:
            continue
        if predicate is None or predicate(q):
            found.append(q)
        if len(found) == count:
            break
    return found
