import itertools
import math
import random
import sys

import pytest

from towerbound import arith


def test_mul_many_matches_math_prod():
    # independent route: math.prod does a plain running product
    rng = random.Random(20260823)
    for _ in range(50):
        xs = [rng.randrange(1, 10**12) for _ in range(rng.randrange(0, 40))]
        assert arith.mul_many(xs) == math.prod(xs)


def test_mul_many_empty_and_single():
    assert arith.mul_many([]) == 1
    assert arith.mul_many([17]) == 17


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small_range():
    for n in range(-3, 3000):
        assert arith.is_prime(n) == _trial_division_prime(n), n


def test_is_prime_carmichael_and_strong_pseudoprimes():
    # Carmichael numbers fool the Fermat test but not this one.
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 3215031751):
        assert not arith.is_prime(n)
    assert arith.is_prime(2**61 - 1)  # Mersenne prime
    assert not arith.is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_is_prime_large_reproducible():
    n = 10**40 + 121  # beyond the deterministic range
    assert arith.is_prime(n) == arith.is_prime(n)


def test_factorize_and_phi():
    assert arith.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert arith.factorize(1) == {}
    for m in range(1, 200):
        brute = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        assert arith.euler_phi(m) == brute


def test_mult_order_basic():
    assert arith.mult_order(2, 9) == 6
    assert arith.mult_order(2, 7) == 3
    assert arith.mult_order(1, 5) == 1
    assert arith.mult_order(4, 1) == 1


def test_mult_order_minimality():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(2, 500)
        a = rng.randrange(1, m)
        if math.gcd(a, m) != 1:
            with pytest.raises(arith.NotCoprime):
                arith.mult_order(a, m)
            continue
        k = arith.mult_order(a, m)
        assert pow(a, k, m) == 1
        for d in range(1, k):
            if k % d == 0:
                assert pow(a, d, m) != 1


def test_primes_ascending_plain():
    assert arith.primes_ascending(5) == [2, 3, 5, 7, 11]
    assert arith.primes_ascending(0) == []


def test_primes_ascending_predicate_and_exclude():
    got = arith.primes_ascending(4, predicate=lambda q: q % 4 == 1)
    assert got == [5, 13, 17, 29]
    got = arith.primes_ascending(3, exclude={3, 7})
    assert got == [2, 5, 11]


def test_primes_ascending_exhaustion():
    with pytest.raises(arith.SearchExhausted):
        arith.primes_ascending(1, predicate=lambda q: False, ceiling=10_000)


def _odd_trial_division_primes(lo, hi):
    """Primes in [lo, hi) by trial division with 2 and the odd numbers."""
    out = []
    for n in range(max(lo, 2), hi):
        if n == 2 or (n % 2 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))):
            out.append(n)
    return out


def _stream(start, hi):
    return list(itertools.takewhile(lambda q: q < hi, arith.primes(start)))


def test_primes_match_trial_division_across_segments():
    # Starting at 3, the sieve's segments end at 2051, 6147, 14339, 30723,
    # 63491 and 129027 and then advance by 131072; 300000 covers them all.
    oracle = _odd_trial_division_primes(0, 300_000)
    assert _stream(0, 300_000) == oracle
    edges = (2051, 6147, 14339, 30723, 63491, 129027, 260099)
    starts = [0, 1, 2, 3, 4, 5, 9, 10]
    starts += [e + d for e in edges for d in (-2, -1, 0, 1, 2)]
    starts += [2 * 1024, 2 * 1024 + 1, 131072, 131073]
    for start in starts:
        want = [q for q in oracle if start <= q < start + 20_000]
        assert _stream(start, start + 20_000) == want, start


def test_primes_across_the_sieve_limit():
    # The sieve stops below the default ceiling, 10^7; Miller-Rabin goes on.
    limit = arith.DEFAULT_SEARCH_CEILING
    assert limit == 10_000_000
    oracle = _odd_trial_division_primes(limit - 2000, limit + 2000)
    for start in (limit - 2000, limit - 9, limit - 10, limit, limit + 1, limit + 19):
        want = [q for q in oracle if q >= start]
        assert _stream(start, limit + 2000) == want, start
    assert list(itertools.islice(arith.primes(9_999_990), 3)) == [
        9_999_991, 10_000_019, 10_000_079,
    ]


@pytest.mark.parametrize("q", [5, 9_999_991, 10_000_019])
def test_primes_ascending_exhaustion_at_the_ceiling(q):
    # With the ceiling just below a prime the search gives up before it; at
    # the prime itself the prime is found.  Both sides of the sieve limit.
    wanted = lambda n: n >= q  # noqa: E731
    with pytest.raises(arith.SearchExhausted):
        arith.primes_ascending(1, predicate=wanted, ceiling=q - 1)
    assert arith.primes_ascending(1, predicate=wanted, ceiling=q) == [q]
    assert arith.primes_ascending(1, predicate=wanted, ceiling=q + 1) == [q]


def test_parse_and_format_decimal():
    assert arith.parse_decimal(" 12345 ") == 12345
    assert arith.parse_decimal("-17") == -17
    assert arith.format_decimal(10**30) == "1" + "0" * 30
    with pytest.raises(ValueError):
        arith.parse_decimal("12x3")


def _chunked_decimal(n):
    """Independent renderer: peel 100-digit groups off with divmod."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    groups = []
    while True:
        n, r = divmod(n, 10**100)
        groups.append(f"{r:0100d}")
        if n == 0:
            break
    return sign + ("".join(reversed(groups)).lstrip("0") or "0")


def test_format_decimal_beyond_int_str_limit():
    # the interpreter-wide limit (absent before Python 3.10.7) is left alone
    limit_of = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = limit_of()
    rng = random.Random(4300)
    values = [0, 7, -7, 10**511, 10**512, 10**512 - 1, -(10**4300), 10**4300 - 1]
    values += [rng.randrange(10**20000) * rng.choice((-1, 1)) for _ in range(5)]
    values += [10**k + rng.randrange(10**k) for k in (1023, 1024, 5000, 9999)]
    for n in values:
        text = arith.format_decimal(n)
        assert text == _chunked_decimal(n)
    assert arith.format_decimal(10**4300 - 1) == "9" * 4300
    assert arith.format_decimal(-(10**5000)) == "-1" + "0" * 5000
    assert limit_of() == limit
