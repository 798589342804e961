import random

import pytest

from towerbound import report, zpoly


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


def test_div_exact_raises_on_remainder():
    with pytest.raises(ArithmeticError):
        zpoly.div_exact([1, 0, 1], [1, 1])


def test_resultant_product_of_root_differences():
    # res((x-a)(x-b), (x-c)(x-d)) = (a-c)(a-d)(b-c)(b-d)
    rng = random.Random(5)
    for _ in range(50):
        a, b, c, d = (rng.randrange(-8, 9) for _ in range(4))
        f = zpoly.mul([-a, 1], [-b, 1])
        g = zpoly.mul([-c, 1], [-d, 1])
        assert zpoly.resultant(f, g) == (a - c) * (a - d) * (b - c) * (b - d)


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
