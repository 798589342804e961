import collections
import functools
import itertools
import math
import random
import re

import pytest

from towerbound import arith, cyclotomic, gf, zpoly
from towerbound.tower import (
    FAMILY_NILPOTENT,
    GroupSpec,
    RelativeCubicBase,
    ValidationFailed,
    build_tower_plan,
)
from towerbound.gf import (
    DiscriminantDivisible,
    ExtensionField,
    NotSquarefree,
    PrimeField,
    ZeroPolynomial,
    build_extension_field,
    distinct_degree_profile,
    irreducible_generator,
    is_inert_in_relative_extension,
    is_irreducible,
)


def test_prime_field_ops():
    K = PrimeField(7)
    assert K.size == 7
    assert K.add(5, 4) == 2
    assert K.mul(3, 5) == 1
    assert K.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        K.inv(0)
    with pytest.raises(ValueError):
        PrimeField(6)


def test_extension_field_construction():
    F4 = build_extension_field(2, 2)
    assert isinstance(F4, ExtensionField)
    assert F4.generator == (1, 1, 1)  # y^2 + y + 1, first in ascending scan
    F8 = build_extension_field(2, 3)
    assert F8.generator == (1, 1, 0, 1)  # y^3 + y + 1
    assert build_extension_field(5, 1) == PrimeField(5)
    with pytest.raises(ValueError):
        ExtensionField(q=2, degree=2, generator=(1, 0, 1))  # (y+1)^2 reducible


def _counted(calls: list, fn):
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


def test_an_extension_field_certifies_its_generator_once(monkeypatch):
    # The scan tests each candidate once, the first irreducible included, and
    # q is proved prime once: the field keeps the scan's verdict.
    tested, proved = [], []
    monkeypatch.setattr(gf, "is_irreducible", _counted(tested, gf.is_irreducible))
    monkeypatch.setattr(arith, "is_prime", _counted(proved, arith.is_prime))
    K = build_extension_field(17, 6)
    assert tested[-1][1] == K.generator
    # c_0 runs fastest, so the generator is candidate number sum(c_i 17^i)
    assert len(tested) == 1 + sum(c * 17**i for i, c in enumerate(K.generator[:-1]))
    assert proved.count((17,)) == 1


def test_extension_field_inverses_and_frobenius():
    rng = random.Random(2024)
    for (q, f) in ((2, 3), (3, 2), (5, 2), (7, 2)):
        K = build_extension_field(q, f)
        assert K.size == q**f
        for _ in range(25):
            a = tuple(rng.randrange(q) for _ in range(f))
            if a == K.zero:
                continue
            assert K.mul(a, K.inv(a)) == K.one
        # x -> x^(q^f) is the identity on the whole field
        for _ in range(10):
            a = tuple(rng.randrange(q) for _ in range(f))
            b = a
            for _ in range(f):
                b = _pow_naive(K, b, q)
            assert b == a


def _pow_naive(K, a, e):
    acc = K.one
    for _ in range(e):
        acc = K.mul(acc, a)
    return acc


def test_is_irreducible_known_cases():
    F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)
    assert is_irreducible(F2, [1, 1, 1])  # x^2+x+1
    assert not is_irreducible(F2, [1, 0, 1])  # (x+1)^2
    assert is_irreducible(F3, [1, 0, 1])  # x^2+1, -1 not a square mod 3
    assert not is_irreducible(F5, [1, 0, 1])  # x^2+1 = (x+2)(x+3) mod 5
    assert is_irreducible(F5, [0, 1])  # x
    assert not is_irreducible(F5, [3])  # units are not irreducible
    with pytest.raises(ZeroPolynomial):
        is_irreducible(F5, [])


def test_is_irreducible_over_extension_field():
    F4 = build_extension_field(2, 2)
    x2_x_1 = [F4.one, F4.one, F4.one]
    # x^2+x+1 splits over F4 (its roots generate F4), so no longer irreducible
    assert not is_irreducible(F4, x2_x_1)
    # x^2 + x + w for a generator w of F4 is irreducible over F4
    w = (0, 1)
    assert is_irreducible(F4, [w, F4.one, F4.one])


def test_distinct_degree_profile_known():
    F2 = PrimeField(2)
    # x(x+1)(x^2+x+1) = x^4 + x, squarefree
    assert distinct_degree_profile(F2, [0, 1, 0, 0, 1]) == ((1, 2), (2, 1))
    assert distinct_degree_profile(F2, [1, 1, 1]) == ((2, 1),)
    with pytest.raises(NotSquarefree):
        distinct_degree_profile(F2, [0, 0, 1])  # x^2
    with pytest.raises(ZeroPolynomial):
        distinct_degree_profile(F2, [0])


def test_profile_degrees_sum():
    rng = random.Random(31337)
    F5 = PrimeField(5)
    done = 0
    while done < 40:
        deg = rng.randrange(2, 9)
        poly = [rng.randrange(5) for _ in range(deg)] + [1]
        try:
            prof = distinct_degree_profile(F5, poly)
        except NotSquarefree:
            continue
        assert sum(d * c for d, c in prof) == deg
        done += 1


def test_irreducible_generator_is_minimal():
    # no monic polynomial earlier in the ascending coefficient scan may be
    # irreducible
    for q, f in ((2, 2), (2, 3), (3, 2), (5, 2)):
        gen = irreducible_generator(q, f)
        K = PrimeField(q)
        idx = sum(c * q**i for i, c in enumerate(gen[:-1]))
        for earlier in range(idx):
            coeffs = []
            v = earlier
            for _ in range(f):
                coeffs.append(v % q)
                v //= q
            assert not is_irreducible(K, coeffs + [1])


def test_relative_inertness_bundled_cubic():
    cubic = [-1, -4, -1, 1]
    assert is_inert_in_relative_extension(cubic, 43, 7) == [True] * 6
    with pytest.raises(cyclotomic.RamifiedPrime):
        is_inert_in_relative_extension(cubic, 7, 7)
    with pytest.raises(DiscriminantDivisible):
        is_inert_in_relative_extension(cubic, 13, 7)  # 13 | disc = 169
    with pytest.raises(ValueError):
        is_inert_in_relative_extension([1, 1, 1, 2], 43, 7)  # not monic


def test_relative_inertness_higher_residue_degree():
    cubic = [-1, -4, -1, 1]
    # 2 has order 3 mod 7, so the check runs over F_8; the answer list still
    # has g = 2 entries
    verdicts = is_inert_in_relative_extension(cubic, 2, 7)
    assert len(verdicts) == 2
    # independent route: the cubic's roots lie in F_8 iff gcd(x^8 - x, cubic)
    # is the whole cubic; count roots by brute force over F_8 instead
    F8 = build_extension_field(2, 3)
    roots = 0
    for coords in itertools.product(range(2), repeat=3):
        x = tuple(coords)
        val = F8.zero
        for c in reversed(cubic):
            val = F8.add(F8.mul(val, x), F8.from_int(c))
        if val == F8.zero:
            roots += 1
    assert (roots == 0) == verdicts[0]


@pytest.mark.parametrize("poly, q, raises", [
    ([1, 0, 1], 2, True),  # (x + 1)^2 mod 2, whose derivative is 0
    ([2, 0, 0, 1], 3, True),  # (x + 2)^3 mod 3, whose derivative is 0
    ([-1, -1, 0, 1], 3, False),  # disc = -23
])
def test_ramification_gate_in_small_characteristic(poly, q, raises):
    if raises:
        with pytest.raises(DiscriminantDivisible, match=f"^{q} divides the discriminant "):
            is_inert_in_relative_extension(poly, q, 7)
    else:
        assert is_inert_in_relative_extension(poly, q, 7) == [False]  # f = 6, degree 3


def test_ramification_gate_matches_the_discriminant():
    # q | disc(f) exactly when f mod q has a repeated factor, for monic f;
    # the message still quotes the discriminant
    rng = random.Random(2027)
    primes = [q for q in range(2, 60) if q != 7 and arith.is_prime(q)]
    raised = 0
    for _ in range(80):
        poly = [rng.randint(-12, 12) for _ in range(rng.randint(1, 5))] + [1]
        disc = zpoly.discriminant(poly)
        for q in primes:
            if disc % q:
                is_inert_in_relative_extension(poly, q, 7)  # passes the gate
                continue
            raised += 1
            with pytest.raises(DiscriminantDivisible) as info:
                is_inert_in_relative_extension(poly, q, 7)
            assert str(info.value) == (
                f"{q} divides the discriminant {disc} of the defining polynomial")
    assert raised > 100


@functools.cache
def _discriminant(def_poly):
    # the sweeps below ask for one polynomial's discriminant at every prime
    return zpoly.discriminant(list(def_poly))


def _inert_over_residue_field(def_poly, q, m):
    """Oracle: test the polynomial over the residue field F_{q^f} itself."""
    sd = cyclotomic.splitting_data(q, m)
    if _discriminant(tuple(def_poly)) % q == 0:
        raise DiscriminantDivisible(q)
    K = build_extension_field(q, sd.f)
    return [gf.is_irreducible(K, [K.from_int(c) for c in def_poly])] * sd.g


def test_inertness_law_matches_residue_field_route():
    # Lidl-Niederreiter: irreducible over F_{q^f} iff irreducible over F_q
    # and gcd(deg, f) = 1.  Degrees 2 to 5 give every f in {1, 2, 3, 6} a
    # degree prime to f and, for f > 1, a degree sharing a factor with f.
    rng = random.Random(3146)
    polys = [(-1, -4, -1, 1)]
    for degree in (2, 3, 3, 4, 5, 5):
        for _ in range(3):
            polys.append(tuple(rng.randint(-9, 9) for _ in range(degree)) + (1,))
    for m in (7, 9):
        by_f = {}
        for q in range(2, 200):
            if m % q and all(q % d for d in range(2, math.isqrt(q) + 1)):
                by_f.setdefault(cyclotomic.splitting_data(q, m).f, []).append(q)
        assert sorted(by_f) == [1, 2, 3, 6]
        for f, qs in sorted(by_f.items()):
            seen = set()
            for q, poly in itertools.product(qs[:3], polys):
                try:
                    want = _inert_over_residue_field(poly, q, m)
                except DiscriminantDivisible:
                    with pytest.raises(DiscriminantDivisible):
                        is_inert_in_relative_extension(list(poly), q, m)
                    continue
                assert is_inert_in_relative_extension(list(poly), q, m) == want, (
                    m, f, q, poly,
                )
                seen.add(want[0])
            assert seen == {True, False}, (m, f)


# Cubics with their conductor sweeps.  The first two are irreducible with
# discriminant f^2 for a prime f = 1 (mod 3), so they carry a residue-class
# table; the others carry an empty one and fail validation: the third because
# 9 is not prime, the fourth because 448 = 1 (mod 3) is not prime, the fifth
# because its group is S_3.
RELATIVE_CUBICS = (
    ((-1, -4, -1, 1), range(1, 61)),  # disc 13^2, the bundled cubic
    ((-1, -2, 1, 1), (13, 14)),  # x^3 + x^2 - 2x - 1, disc 7^2
    ((1, -3, 0, 1), (7, 9)),  # x^3 - 3x + 1, disc 9^2 with 9 not prime
    ((-64, -32, 4, 1), (7, 13)),  # root 4 * a root of the second, disc 448^2
    ((-1, -1, 0, 1), (7, 23)),  # x^3 - x - 1, disc -23, group S_3
)

# Gauss's period cubics of the primes f = 19, 37 and 79 (Berndt, Evans &
# Williams, Gauss and Jacobi Sums, Ch. 3), each swept with a conductor f | c.
PERIOD_CUBICS = (
    ((-7, -6, 1, 1), (1, 4, 9, 19)),  # x^3 + x^2 - 6x - 7
    ((11, -12, 1, 1), (1, 7, 12, 37)),  # x^3 + x^2 - 12x + 11
    ((41, -26, 1, 1), (1, 3, 5, 79)),  # x^3 + x^2 - 26x + 41
)


def test_relative_prime_qualifies_matches_residue_field_route(monkeypatch):
    # Naive oracle: residue degree from splitting_data, then the F_{q^f}
    # route.  The oracle's Rabin test is the one C10 checks on its own.
    # Memoizing it, and the primality proof splitting_data repeats for every
    # conductor, keeps this sweep affordable.
    monkeypatch.setattr(arith, "is_prime", functools.cache(arith.is_prime))
    memo = {}
    rabin = gf.is_irreducible

    def memo_is_irreducible(K, poly):
        key = (K, tuple(poly))
        if key not in memo:
            memo[key] = rabin(K, poly)
        return memo[key]

    monkeypatch.setattr(gf, "is_irreducible", memo_is_irreducible)

    def oracle(base, q):
        try:
            if cyclotomic.splitting_data(q, base.conductor).f != 1:
                return False
            return all(_inert_over_residue_field(base.poly, q, base.conductor))
        except (cyclotomic.RamifiedPrime, DiscriminantDivisible):
            return False

    for (cubic, _), f in zip(PERIOD_CUBICS, (19, 37, 79)):
        assert _discriminant(cubic) == f * f, cubic
    primes = [q for q in range(2, 20_000)
              if all(q % d for d in range(2, math.isqrt(q) + 1))]
    for cubic, conductors in RELATIVE_CUBICS[:2] + PERIOD_CUBICS:
        accepted = 0
        for m in conductors:
            base = RelativeCubicBase(conductor=m, poly=cubic)
            for q in primes:
                got = base.prime_qualifies(q)
                assert got == oracle(base, q), (cubic, m, q)
                accepted += got
        assert accepted > 0, cubic


def test_relative_cubic_without_a_class_table_fails_validation():
    # Only the class law selects primes, so a cubic it does not cover has an
    # empty table and the plan names the failed item instead of searching.
    # Without the discriminant root f the unique prime above p cannot be
    # established either, and p-rationality falls with it.
    group = _order_3_group(7)
    for cubic, conductors in RELATIVE_CUBICS[2:]:
        for m in conductors:
            assert RelativeCubicBase(conductor=m, poly=cubic).classes[1] == frozenset()
        base = RelativeCubicBase(conductor=7, poly=cubic, class_number=1)
        with pytest.raises(ValidationFailed) as exc:
            build_tower_plan(3, group, base, 6)
        assert [i.name for i in exc.value.report.failures] == [
            "base-cubic-cyclic", "unique-prime-above-p", "p-rational",
        ]
    # a polynomial that is not a monic cubic gets an empty table too
    assert RelativeCubicBase(conductor=7, poly=(1, 2, 1)).classes[1] == frozenset()


def _order_3_group(p):
    return GroupSpec(p=p, dimension=3, action_order=3,
                     family=FAMILY_NILPOTENT, twist_exponent=1)


def _has_integer_root(poly):
    """Whether a monic integer cubic has an integer root; any such root divides c0."""
    c0 = poly[0]
    if c0 == 0:
        return True
    def value(x):
        acc = 0
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    return any(value(s * r) == 0 for r in range(1, abs(c0) + 1) if c0 % r == 0 for s in (1, -1))


def test_a_class_table_implies_an_irreducible_cubic():
    # A discriminant f^2, f a prime = 1 (mod 3), rules out an integer root,
    # so the table needs no separate irreducibility test.
    tabled = 0
    for c0, c1, c2 in itertools.product(range(-12, 13), repeat=3):
        cubic = (c0, c1, c2, 1)
        if RelativeCubicBase(conductor=1, poly=cubic).classes[1]:
            assert not _has_integer_root(cubic), cubic
            tabled += 1
    assert tabled == 48


def test_unique_prime_item_matches_the_rabin_test():
    # Oracle: one prime lies above p iff p has one place in Q(zeta_c), of
    # residue degree prime to 3, and the cubic stays irreducible mod p.  The
    # place count and degree are those of p in Q(zeta_r), r the prime-to-p
    # part of c, by splitting_data.  Every c = p * k, k < 40, for p < 60,
    # then c = p up to 2000; the item decides by whether the images of H and
    # p generate (Z/m)*, m the prime-to-p part of the class table's modulus.
    primes = [p for p in range(2, 2000) if arith.is_prime(p)]
    composite = 0
    for cubic, _ in RELATIVE_CUBICS[:2] + PERIOD_CUBICS:
        f = RelativeCubicBase(conductor=1, poly=cubic).cubic_conductor
        seen = set()
        for p in primes:
            if p == f:
                continue
            irreducible = is_irreducible(PrimeField(p), [c % p for c in cubic])
            for c in (p * k for k in range(1, 40 if p < 60 else 2)):
                r = c
                while r % p == 0:
                    r //= p
                sd = cyclotomic.splitting_data(p, r)
                base = RelativeCubicBase(conductor=c, poly=cubic, class_number=1)
                got = next(i.ok for i in base.validate(_order_3_group(p))
                           if i.name == "unique-prime-above-p")
                assert got == (sd.g == 1 and math.gcd(3, sd.f) == 1 and irreducible), (
                    cubic, c, p,
                )
                seen.add(got)
                composite += p < 60
        assert seen == {True, False}, cubic
    assert composite == 3159


# ---------------------------------------------------------------------------
# int codes against coordinate arithmetic done here, without ExtensionField's
# own methods
# ---------------------------------------------------------------------------


def _coord_mul(q, gen, a, b):
    """Product of coordinate tuples: convolve, then reduce modulo the monic generator."""
    f = len(gen) - 1
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, f - 1, -1):
        c = prod[k] % q
        for i, g in enumerate(gen):
            prod[k - f + i] -= c * g
    return tuple(c % q for c in prod[:f])


def _check_codes(K, pairs):
    q, f, gen = K.q, K.degree, K.generator
    C = K.codes
    zero, one = (0,) * f, (1,) + (0,) * (f - 1)
    assert C.encode(zero) == 0 and C.encode(one) == 1
    assert C.decode(C.from_int(q - 1)) == (q - 1,) + (0,) * (f - 1)
    minus_one = C.neg(1)
    for a, b in pairs:
        ca, cb = C.encode(a), C.encode(b)
        assert C.decode(ca) == a and C.decode(cb) == b
        add = tuple((x + y) % q for x, y in zip(a, b))
        sub = tuple((x - y) % q for x, y in zip(a, b))
        prod = _coord_mul(q, gen, a, b)
        assert C.decode(C.mul(ca, cb)) == prod
        assert C.decode(C.neg(ca)) == tuple(-x % q for x in a)
        out = [ca, ca]
        C.axpy(out, 0, 1, [cb])
        C.axpy(out, 1, minus_one, [cb])
        assert [C.decode(c) for c in out] == [add, sub]
        if any(a):
            out = [cb]
            C.axpy(out, 0, ca, [ca])  # b + a * a
            assert C.decode(out[0]) == tuple(
                (x + y) % q for x, y in zip(b, _coord_mul(q, gen, a, a))
            )
            assert _coord_mul(q, gen, a, C.decode(C.inv(ca))) == one
    with pytest.raises(ZeroDivisionError):
        C.inv(C.encode(zero))


SMALL_EXTENSIONS = [(q, f) for q in (2, 3, 5, 7) for f in range(2, 7) if q**f <= 64]


@pytest.mark.parametrize("q,f", SMALL_EXTENSIONS)
def test_codes_match_coordinate_arithmetic_on_every_pair(q, f):
    K = build_extension_field(q, f)
    assert isinstance(K.codes, gf._Zech)
    elements = list(itertools.product(range(q), repeat=f))
    assert sorted(K.codes.encode(a) for a in elements) == list(range(q**f))
    _check_codes(K, itertools.product(elements, repeat=2))


def test_codes_match_coordinate_arithmetic_across_the_table_threshold():
    # F_{2^k} with 2^k <= _ZECH_MAX < 2^(k+1): tables below, coordinates above
    k = gf._ZECH_MAX.bit_length() - 1
    rng = random.Random(1024)
    for degree, kind in ((k, gf._Zech), (k + 1, gf._Coords)):
        K = build_extension_field(2, degree)
        assert isinstance(K.codes, kind)
        pairs = [
            tuple(tuple(rng.randrange(2) for _ in range(degree)) for _ in range(2))
            for _ in range(300)
        ]
        _check_codes(K, pairs)


# ---------------------------------------------------------------------------
# the Rabin test from degree 4, where Frobenius powers go by composition
# ---------------------------------------------------------------------------


class _Tables:
    """A finite field's arithmetic as tables over element indices, built here."""

    def __init__(self, q, gen):
        f = len(gen) - 1
        self.elements = list(itertools.product(range(q), repeat=f))
        index = {a: i for i, a in enumerate(self.elements)}
        self.one = index[(1,) + (0,) * (f - 1)]
        self.sub = [[index[tuple((x - y) % q for x, y in zip(a, b))]
                     for b in self.elements] for a in self.elements]
        self.mul = [[index[_coord_mul(q, gen, a, b) if f > 1 else (a[0] * b[0] % q,)]
                     for b in self.elements] for a in self.elements]

    def monic(self, degree):
        for tail in itertools.product(range(len(self.elements)), repeat=degree):
            yield list(tail) + [self.one]

    def divides(self, g, p):
        r = list(p)
        for k in range(len(p) - len(g), -1, -1):
            c = r[k + len(g) - 1]
            if c:
                for i, gi in enumerate(g):
                    r[k + i] = self.sub[r[k + i]][self.mul[c][gi]]
        return not any(r[: len(g) - 1])

    def irreducible(self, p):
        """No monic divisor of degree 1 .. deg/2: exhaustive."""
        n = len(p) - 1
        return not any(
            self.divides(g, p) for d in range(1, n // 2 + 1) for g in self.monic(d)
        )

    def times(self, a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.sub[out[i + j]][self.sub[0][self.mul[x][y]]]
        return out


@pytest.mark.parametrize("q,f", [(2, 2), (2, 3), (3, 2)])
def test_is_irreducible_degrees_4_to_6_against_divisor_search(q, f):
    K = build_extension_field(q, f)
    T = _Tables(q, K.generator)
    rng = random.Random(q**f)
    Q = len(T.elements)

    def random_monic(degree):
        return [rng.randrange(Q) for _ in range(degree)] + [T.one]

    def irreducible_of(degree):
        while True:
            p = random_monic(degree)
            if T.irreducible(p):
                return p

    for n in (4, 5, 6):
        # random monics until three of each verdict, plus products of two
        # irreducibles of degrees n // 2 and n - n // 2 (the gcd steps' case)
        picked = {True: [], False: []}
        while min(len(v) for v in picked.values()) < 3:
            p = random_monic(n)
            picked[T.irreducible(p)].append(p)
        products = [T.times(irreducible_of(n // 2), irreducible_of(n - n // 2))
                    for _ in range(2)]
        for want, polys in ((True, picked[True]), (False, picked[False] + products)):
            for p in polys:
                assert is_irreducible(K, [T.elements[c] for c in p]) == want, (q, f, p)


@pytest.mark.parametrize("q,f,degrees", [(37, 2, (4, 5)), (11, 3, (4, 5, 6))])
def test_is_irreducible_above_the_table_threshold_follows_lidl_niederreiter(q, f, degrees):
    # An integer polynomial of degree n is irreducible over F_{q^f} iff it is
    # irreducible over F_q and gcd(n, f) = 1; F_q's verdict is an exhaustive
    # divisor search here.
    K = build_extension_field(q, f)
    assert K.size > gf._ZECH_MAX and isinstance(K.codes, gf._Coords)
    Fq = _Tables(q, (0, 1))
    rng = random.Random(q**f)
    for n in degrees:
        seen = {True: 0, False: 0}
        while min(seen.values()) < 2:
            p = [rng.randint(-50, 50) for _ in range(n)] + [1]
            over_q = Fq.irreducible([c % q for c in p])
            if seen[over_q] == 2:
                continue
            seen[over_q] += 1
            want = over_q and math.gcd(n, f) == 1
            assert is_irreducible(K, [K.from_int(c) for c in p]) == want, (q, f, p)


# ---------------------------------------------------------------------------
# field descriptors and malformed coefficients
# ---------------------------------------------------------------------------


def test_an_extension_field_given_a_list_generator_is_hashable_and_pickles():
    import pickle

    K = ExtensionField(2, 2, [1, 1, 1])
    same = ExtensionField(2, 2, (1, 1, 1))
    assert K.generator == (1, 1, 1) and K == same and hash(K) == hash(same)
    assert {K: 1}[same] == 1
    K.codes  # the tables built on first use travel with the field
    back = pickle.loads(pickle.dumps(K))
    assert back == K and hash(back) == hash(K) and back.base == PrimeField(2)
    assert is_irreducible(back, [(0, 1), K.one, K.one])


@pytest.mark.parametrize("q,f", [(2, 2), (37, 2)], ids=["zech", "coords"])
def test_malformed_extension_coefficients_are_refused_by_name(q, f):
    K = build_extension_field(q, f)
    for bad in ((1, 0, 1), 1, "ab"):
        for fn in (is_irreducible, distinct_degree_profile):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                fn(K, [bad, K.one, K.one])
    assert is_irreducible(K, [(1,), K.zero, K.one]) == is_irreducible(K, [K.one, K.zero, K.one])


# ---------------------------------------------------------------------------
# degree profiles of products of chosen irreducibles
# ---------------------------------------------------------------------------


def _random_irreducibles(K, rng, degrees):
    """Distinct random monic irreducibles of the given degrees, in K's codes."""
    found = []
    for d in degrees:
        while True:
            p = [rng.randrange(K.size) for _ in range(d)] + [1]
            if p not in found and is_irreducible(K, _elements(K, p)):
                found.append(p)
                break
    return found


def _elements(K, codes):
    return list(codes) if isinstance(K, PrimeField) else [K.codes.decode(c) for c in codes]


def _product(K, polys):
    C = K if isinstance(K, PrimeField) else K.codes
    return functools.reduce(functools.partial(zpoly.poly_mul, C), polys, [1])


@pytest.mark.parametrize("q,f", [(7, 1), (5, 2), (37, 2)], ids=["F_7", "F_25-zech", "F_1369-coords"])
@pytest.mark.parametrize("degrees", [
    (3, 3, 3), (1, 1, 1, 1), (2, 2),  # all of one degree: x^(Q^d) = x ends the run
    (1, 3, 3), (2, 4, 4), (1, 2, 2, 4),  # factors removed, then x^(Q^d) = x or one factor left
    (5,), (4,), (1,),  # a single irreducible
])
def test_profiles_of_products_of_chosen_irreducibles(q, f, degrees):
    K = build_extension_field(q, f)
    rng = random.Random(q * f * sum(degrees))
    factors = _random_irreducibles(K, rng, degrees)
    want = tuple(sorted(collections.Counter(degrees).items()))
    poly = _elements(K, _product(K, factors))
    assert distinct_degree_profile(K, poly) == want
    unit = _elements(K, [rng.randrange(1, K.size)])[0]  # units are scaled away
    assert distinct_degree_profile(K, [K.mul(unit, c) for c in poly]) == want
    with pytest.raises(NotSquarefree):
        distinct_degree_profile(K, _elements(K, _product(K, factors + factors[-1:])))


def test_the_profile_stops_its_gcds_early(monkeypatch):
    # Phi_55 mod 7 has two factors of degree 20 (7 has order 20 mod 55) and
    # Phi_43 mod 5 is irreducible (5 has order 42 mod 43).  Euclid run to
    # degree 0 at every step, with x^(Q^d) = x found by a gcd, made the
    # profile reduce 304 and 212 times; the degree floor and the exit on
    # x^(Q^d) = x leave 177 and 101.
    calls = []
    counted = _counted(calls, zpoly.poly_mod)
    monkeypatch.setattr(zpoly, "poly_mod", counted)
    monkeypatch.setattr(gf, "poly_mod", counted)
    for m, q, want, full, now in ((55, 7, ((20, 2),), 304, 177), (43, 5, ((42, 1),), 212, 101)):
        calls.clear()
        phi = list(cyclotomic.cyclotomic_polynomial(m).poly)
        assert distinct_degree_profile(PrimeField(q), phi) == want
        assert len(calls) == now < full
