import itertools
import math
import random
from fractions import Fraction

import pytest

from towerbound import report, tower, zpoly


def _add(a, b):
    n = max(len(a), len(b))
    return zpoly.normalize([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                            for i in range(n)])


def _eval_at(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_mul_agrees_with_evaluation():
    """Multiplying then evaluating must equal evaluating then multiplying."""
    rng = random.Random(42)
    for _ in range(100):
        a = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 6))]
        b = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 6))]
        prod = zpoly.mul(a, b)
        for x in (-3, -1, 0, 1, 2, 5):
            assert _eval_at(prod, x) == _eval_at(a, x) * _eval_at(b, x)


def test_divmod_roundtrip():
    rng = random.Random(99)
    for _ in range(100):
        b = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))] + [
            rng.choice([1, -1])
        ]
        q = [rng.randrange(-5, 6) for _ in range(rng.randrange(0, 5))]
        r = [rng.randrange(-5, 6) for _ in range(len(b) - 1)]
        a = _add(zpoly.mul(q, b), r)
        quo, rem = zpoly.divmod_monicish(a, b)
        assert _add(zpoly.mul(quo, b), rem) == zpoly.normalize(a)
        assert len(rem) < len(zpoly.normalize(b)) or not rem


def test_divmod_rejects_nonunit_leading():
    with pytest.raises(ValueError):
        zpoly.divmod_monicish([1, 1], [1, 2])
    # also when deg a < deg b, where the division itself would return at once
    for a in ([1], [], [0, 0]):
        with pytest.raises(ValueError):
            zpoly.divmod_monicish(a, [1, 2, 0])
    with pytest.raises(ValueError):
        zpoly.div_exact([3], [0, 0, 3])
    with pytest.raises(ZeroDivisionError):
        zpoly.divmod_monicish([1, 1], [0, 0])


def test_divmod_by_a_divisor_with_leading_coefficient_minus_one():
    # x^2 + 1 = (-x - 1)(1 - x) + 2, whatever trailing zeros either side carries
    assert zpoly.divmod_monicish([1, 0, 1], [1, -1]) == ([-1, -1], [2])
    assert zpoly.divmod_monicish([1, 0, 1, 0], [1, -1, 0, 0]) == ([-1, -1], [2])
    assert zpoly.divmod_monicish([3, 0], [5, -1]) == ([], [3])
    assert zpoly.divmod_monicish([-7], [0, 0, -1]) == ([], [-7])
    assert zpoly.div_exact([1, 0, -1], [1, -1]) == [1, 1]
    assert zpoly.div_exact([0, 0, 0, -2], [0, -1]) == [0, 0, 2]


def test_untrimmed_inputs_give_trimmed_results():
    assert zpoly.mul([1, 2, 0], [3, 0, 0]) == [3, 6]
    assert zpoly.mul([0, 0], [1, 1]) == []
    assert zpoly.mul((0, 1, 0), (2,)) == [0, 2]
    assert zpoly.derivative([1, 2, 3, 0, 0]) == [2, 6]
    assert zpoly.derivative((5, 0, 0)) == []
    assert zpoly.derivative([]) == []
    assert zpoly.degree([1, 0, 2, 0, 0]) == 2
    assert zpoly.degree((7, 0)) == 0
    assert zpoly.degree([0, 0]) == -1
    assert zpoly.normalize((0, 1, 0)) == [0, 1]


def test_div_exact_raises_on_remainder():
    with pytest.raises(ArithmeticError):
        zpoly.div_exact([1, 0, 1], [1, 1])


def _from_roots(lead, roots):
    """lead * prod(x - r) over the roots, multiplied out by hand."""
    p = [lead]
    for r in roots:
        p = [0] + p  # p * x ...
        for i in range(len(p) - 1):
            p[i] -= r * p[i + 1]  # ... - r * p
    return p


def test_resultant_product_of_root_differences():
    # res(a prod(x - r_i), b prod(x - s_j)) = a^m b^n prod(r_i - s_j), for
    # degrees n and m: an oracle with no determinant, which pins the powers
    # of the leading coefficients and the sign that Euclid's loop carries
    rng = random.Random(5)
    for _ in range(400):
        a, b = (rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(2))
        rs = [rng.randrange(-8, 9) for _ in range(rng.randrange(0, 5))]
        ss = [rng.randrange(-8, 9) for _ in range(rng.randrange(0, 5))]
        want = a ** len(ss) * b ** len(rs) * math.prod(r - s for r in rs for s in ss)
        assert zpoly.resultant(_from_roots(a, rs), _from_roots(b, ss)) == want, (a, rs, b, ss)
    assert zpoly.resultant([], [1, 1]) == zpoly.resultant([2, 1], [0]) == 0


def test_discriminant_is_the_product_of_squared_root_differences():
    # disc(a prod(x - r_i)) = a^(2n-2) prod_{i<j} (r_i - r_j)^2 for degree n
    rng = random.Random(7)
    for _ in range(300):
        a = rng.choice([-2, -1, 1, 1, 1, 3])
        rs = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))]
        want = a ** (2 * len(rs) - 2) * math.prod(
            (r - s) ** 2 for r, s in itertools.combinations(rs, 2))
        assert zpoly.discriminant(_from_roots(a, rs)) == want, (a, rs)


def test_towers_closed_form_cubic_discriminant_matches_zpoly():
    rng = random.Random(11)
    for _ in range(200):
        c, b, a = (rng.randrange(-60, 61) for _ in range(3))
        assert tower._cubic_discriminant(c, b, a) == zpoly.discriminant([c, b, a, 1])


def test_resultant_raises_on_a_fractional_result(monkeypatch):
    # Euclid's loop runs over Q; its result must come out with denominator
    # 1, and one that does not is refused, not truncated to an integer.  A
    # Q whose inverses are off by a factor of 2 leaves such a result.
    monkeypatch.setattr(zpoly.Q, "inv", lambda a: Fraction(1, 2 * a))
    with pytest.raises(ArithmeticError):
        zpoly.resultant([1, 0, 2], [1, 3])


def test_discriminant_quadratic_formula():
    rng = random.Random(6)
    for _ in range(50):
        b, c = rng.randrange(-9, 10), rng.randrange(-9, 10)
        if b * b - 4 * c == 0:
            continue
        assert zpoly.discriminant([c, b, 1]) == b * b - 4 * c


def test_discriminant_pinned_cubic():
    # the bundled relative cubic: x^3 - x^2 - 4x - 1 has discriminant 169
    assert zpoly.discriminant([-1, -4, -1, 1]) == 169


def test_format_poly():
    assert report.format_poly([-1, -4, -1, 1]) == "x^3 - x^2 - 4*x - 1"
    assert report.format_poly([]) == "0"
    assert report.format_poly([5]) == "5"
    assert report.format_poly([0, -1]) == "-x"


# ---------------------------------------------------------------------------
# the kernel over F_q, a Zech-coded field and a coordinate-coded field
# ---------------------------------------------------------------------------

KERNEL_FIELDS = pytest.mark.parametrize("q,f", [(7, 1), (5, 2), (37, 2)],
                                        ids=["F_7", "F_25-zech", "F_1369-coords"])


def _kernel_field(q, f):
    from towerbound import gf
    K = gf.PrimeField(q) if f == 1 else gf.ExtensionField(q, f).codes
    assert f == 1 or isinstance(K, gf._Zech) == (q**f <= gf._ZECH_MAX)
    return K


def _random_poly(rng, K, degree, lead=None):
    """A polynomial in K's codes of exactly the given degree."""
    return [rng.randrange(K.size) for _ in range(degree)] + [lead or rng.randrange(1, K.size)]


def _check_division(K, a, b):
    """a = quo * b + rem with deg rem < deg b, both parts trimmed; poly_mod agrees."""
    quo, rem = zpoly.poly_divmod(K, a, b)
    assert len(rem) < len(b) and (not rem or rem[-1]) and (not quo or quo[-1])
    assert zpoly.poly_sub(K, a, zpoly.poly_mul(K, quo, b)) == rem
    assert zpoly.poly_mod(K, a, b) == rem


@KERNEL_FIELDS
def test_division_identity_over_finite_fields(q, f):
    K = _kernel_field(q, f)
    rng = random.Random(q * f)
    for _ in range(60):
        b = _random_poly(rng, K, rng.randrange(0, 5), lead=rng.choice([1, None]))
        _check_division(K, _random_poly(rng, K, rng.randrange(0, 9)), b)
    _check_division(K, [], [2 % K.size or 1])
    with pytest.raises(ZeroDivisionError):
        zpoly.poly_mod(K, [1, 1], [])


def test_division_identity_over_z_and_q():
    rng = random.Random(12)
    for _ in range(200):
        a = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 9))] + [rng.choice([-2, 1, 5])]
        low = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 5))]
        _check_division(zpoly.Z, a, low + [rng.choice([1, -1])])
        _check_division(zpoly.Q, [Fraction(c, 3) for c in a], low + [rng.choice([2, -3, 7])])


@KERNEL_FIELDS
def test_powmod_matches_repeated_products(q, f):
    K = _kernel_field(q, f)
    rng = random.Random(q + f)
    for degree in (1, 3, 5):
        mod = _random_poly(rng, K, degree)  # not monic: the kernel inverts its lead
        for base in ([0, 1], _random_poly(rng, K, degree + 2)):
            acc = [1]
            for e in range(71):
                assert zpoly.poly_powmod(K, base, e, mod) == acc, (degree, base, e)
                acc = zpoly.poly_mod(K, zpoly.poly_mul(K, acc, base), mod)
            with pytest.raises(ValueError):
                zpoly.poly_powmod(K, base, -1, mod)


@KERNEL_FIELDS
def test_gcd_with_a_degree_floor_matches_the_full_gcd(q, f):
    K = _kernel_field(q, f)
    rng = random.Random(q - f)
    for _ in range(40):
        common = _random_poly(rng, K, rng.randrange(0, 4), lead=1)
        a, b = (zpoly.poly_mul(K, common, _random_poly(rng, K, rng.randrange(0, 5)))
                for _ in range(2))
        g = zpoly.poly_gcd(K, a, b)
        assert g[-1] == 1 and not zpoly.poly_mod(K, g, common)
        assert not zpoly.poly_mod(K, a, g) and not zpoly.poly_mod(K, b, g)
        for floor in range(len(a) + 2):
            got = zpoly.poly_gcd(K, a, b, floor)
            assert got[-1] == 1
            if len(g) > floor:  # deg gcd >= floor: the floor changes nothing
                assert got == g, (a, b, floor)
            else:  # a remainder below the floor, which the gcd divides
                assert len(got) <= floor and not zpoly.poly_mod(K, got, g), (a, b, floor)
