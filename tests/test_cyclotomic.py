import math
import random

import pytest

from towerbound import arith, zpoly
from towerbound.cyclotomic import (
    CycloElement,
    ElementParseError,
    ModulusMismatch,
    NotTotallySplit,
    RamifiedPrime,
    cyclotomic_polynomial,
    cyclo_mul,
    is_inert,
    match_up_to_unit,
    parse_cyclo_element,
    primes_above,
    splitting_data,
    unit_group_is_cyclic,
)


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1).poly == (-1, 1)
    assert cyclotomic_polynomial(2).poly == (1, 1)
    assert cyclotomic_polynomial(3).poly == (1, 1, 1)
    assert cyclotomic_polynomial(7).poly == (1,) * 7
    assert cyclotomic_polynomial(9).poly == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12).poly == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_multiply_to_xm_minus_1():
    for m in range(1, 41):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = zpoly.mul(prod, list(cyclotomic_polynomial(d).poly))
        want = [0] * m + [1]
        want[0] = -1
        assert prod == want, m


def test_degree_is_phi():
    for m in range(1, 60):
        assert cyclotomic_polynomial(m).phi == arith.euler_phi(m)


def _zeta(mod, k):
    """zeta_m^k, reduced to the power basis."""
    return CycloElement.from_coeffs(mod, [0] * (k % mod.m) + [1])


def _constant(a):
    """The rational integer ``a``, which must have no zeta terms."""
    assert all(c == 0 for c in a.coeffs[1:]), a.coeffs
    return a.coeffs[0] if a.coeffs else 0


def _random_element(rng, mod):
    return CycloElement(
        mod, tuple(rng.randrange(-5, 6) for _ in range(mod.phi))
    )


def test_ring_axioms_seeded():
    rng = random.Random(123)
    for m in (3, 5, 7, 9, 12):
        mod = cyclotomic_polynomial(m)
        for _ in range(20):
            a, b, c = (_random_element(rng, mod) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_zeta_power_order():
    mod = cyclotomic_polynomial(7)
    z = _zeta(mod, 1)
    acc = CycloElement.integer(mod, 1)
    for _ in range(7):
        acc = acc * z
    assert acc == CycloElement.integer(mod, 1)


def test_modulus_mismatch():
    a = CycloElement.integer(cyclotomic_polynomial(3), 1)
    b = CycloElement.integer(cyclotomic_polynomial(5), 1)
    with pytest.raises(ModulusMismatch):
        _ = a + b


# ---------------------------------------------------------------------------
# Naive oracles for the fast paths: the norm as a product of conjugates in
# Z[x]/Phi_m, unit matching by multiplying the target by every zeta^k, and
# the primes above q by scanning every residue for a root of Phi_m.
# ---------------------------------------------------------------------------

ORACLE_CONDUCTORS = tuple(range(1, 41)) + (45, 60, 64, 127)


def _conjugate(a, i):
    """Image under zeta |-> zeta^i, for i coprime to the conductor."""
    m = a.modulus.m
    if math.gcd(i, m) != 1:
        raise arith.NotCoprime(f"{i} is not coprime to {m}")
    raw = [0] * m
    for k, c in enumerate(a.coeffs):
        raw[(k * i) % m] += c
    return CycloElement.from_coeffs(a.modulus, raw)


def _naive_norm(a):
    m = a.modulus.m
    acc = CycloElement.integer(a.modulus, 1)
    for i in range(1, m + 1):
        if math.gcd(i, m) == 1:
            acc = acc * _conjugate(a, i)
    return _constant(acc)


def _naive_match(el, target):
    mod = el.modulus
    tgt = CycloElement.integer(mod, target)
    if el == tgt:
        return (1, 0)
    for k in range(mod.m):
        cand = tgt * _zeta(mod, k)
        if el == cand:
            return (1, k)
        if el == -cand:
            return (-1, k)
    return None


def _eval_mod(p, x, q):
    acc = 0
    for c in reversed(list(p)):
        acc = (acc * x + c) % q
    return acc


def _naive_roots(q, m):
    poly = cyclotomic_polynomial(m).poly
    return tuple(a for a in range(q) if _eval_mod(poly, a, q) == 0)


def _oracle_elements(rng, mod):
    """Zero, sparse, dense and (below conductor 127) huge-coefficient elements."""
    phi = mod.phi
    sparse = [0] * phi
    for _ in range(2):
        sparse[rng.randrange(phi)] += rng.choice((-3, -1, 1, 2))
    out = [
        CycloElement(mod, (0,) * phi),
        CycloElement(mod, tuple(sparse)),
        _random_element(rng, mod),
    ]
    if mod.m < 127:
        out.append(
            CycloElement(
                mod, tuple(rng.randrange(-(10**40), 10**40 + 1) for _ in range(phi))
            )
        )
    return out


def test_conjugate_is_ring_map():
    rng = random.Random(321)
    mod = cyclotomic_polynomial(7)
    for _ in range(20):
        a, b = _random_element(rng, mod), _random_element(rng, mod)
        for i in (2, 3, 6):
            assert _conjugate(a * b, i) == _conjugate(a, i) * _conjugate(b, i)
            assert _conjugate(a + b, i) == _conjugate(a, i) + _conjugate(b, i)
    with pytest.raises(arith.NotCoprime):
        _conjugate(_random_element(rng, mod), 7)


def test_norm_multiplicative_and_integers():
    rng = random.Random(77)
    mod = cyclotomic_polynomial(5)
    for _ in range(15):
        a, b = _random_element(rng, mod), _random_element(rng, mod)
        assert (a * b).norm() == a.norm() * b.norm()
    assert CycloElement.integer(mod, 3).norm() == 3**4
    assert _zeta(mod, 2).norm() == 1


def test_norm_matches_conjugate_product():
    rng = random.Random(2024)
    for m in ORACLE_CONDUCTORS:
        mod = cyclotomic_polynomial(m)
        for a in _oracle_elements(rng, mod):
            assert a.norm() == _naive_norm(a), (m, a.coeffs)


def test_norm_of_integer_minus_zeta_is_phi_m_value():
    # N(x - zeta) = prod (x - zeta^k) = Phi_m(x), coefficients up to 10**40
    for m in ORACLE_CONDUCTORS:
        mod = cyclotomic_polynomial(m)
        for x in (-(10**40), -7, 0, 1, 2, 10**40):
            a = CycloElement.integer(mod, x) - _zeta(mod, 1)
            assert a.norm() == zpoly.eval_at(list(mod.poly), x), (m, x)


def test_match_up_to_unit_matches_naive_loop():
    rng = random.Random(7)
    for m in ORACLE_CONDUCTORS:
        mod = cyclotomic_polynomial(m)
        ks = {0, 1, m // 2, m - 1, rng.randrange(m)}
        targets = (0, 1, -1, 2, -2, -7, 43) if m < 127 else (0, -2, 43)
        for target in targets:
            tgt = CycloElement.integer(mod, target)
            cases = [tgt * _zeta(mod, k) for k in sorted(ks)]
            cases += [-c for c in cases]
            cases += [c + CycloElement.integer(mod, 1) for c in cases]
            cases += [CycloElement.integer(mod, 2 * target)]
            cases += _oracle_elements(rng, mod)[:3]
            for el in cases:
                assert match_up_to_unit(el, target) == _naive_match(el, target), (
                    m, target, el.coeffs,
                )


def test_match_up_to_unit_even_conductor_prefers_smallest_k():
    # For even m, zeta^(k + m/2) = -zeta^k, so both signs match; the smaller
    # exponent wins, and at equal exponent the positive sign.
    for m in (2, 4, 6, 8, 12, 60, 64):
        mod = cyclotomic_polynomial(m)
        for k in range(m):
            for sign in (1, -1):
                z = _zeta(mod, k)
                el = CycloElement.integer(mod, sign * -7) * z
                want = (sign, k) if k < m // 2 else (-sign, k - m // 2)
                assert match_up_to_unit(el, -7) == want == _naive_match(el, -7)


def test_primes_above_matches_root_scan():
    for m in ORACLE_CONDUCTORS:
        phi = arith.euler_phi(m)
        split = [
            q for q in range(2, 40 * m + 50)
            if arith.is_prime(q)
            and (m <= 2 or m % q)
            and splitting_data(q, m).f == 1
        ][:3]
        for q in split:
            roots = tuple(p.root for p in primes_above(q, m))
            assert len(roots) == phi
            assert roots == _naive_roots(q, m), (q, m)


def test_render_and_parse_roundtrip():
    rng = random.Random(55)
    for m in (3, 5, 7, 9):
        mod = cyclotomic_polynomial(m)
        for _ in range(40):
            a = _random_element(rng, mod)
            assert parse_cyclo_element(a.render(), m) == a
            assert parse_cyclo_element(a.render(unicode_ok=False), m) == a


def test_parse_specific_forms():
    mod = cyclotomic_polynomial(7)
    a = parse_cyclo_element("ζ₇⁵ + 2ζ₇³ + 1", 7)
    assert a.coeffs == (1, 0, 0, 2, 0, 1)
    b = parse_cyclo_element("zeta7^5 + 2*zeta7^3 + 1", 7)
    assert a == b
    c = parse_cyclo_element("-zeta^2", 7)  # conductor implied
    assert c == -_zeta(mod, 2)
    d = parse_cyclo_element("zeta7^9", 7)  # exponent folds mod 7
    assert d == _zeta(mod, 2)
    assert _constant(parse_cyclo_element("-14", 7)) == -14


def test_parse_rejects():
    with pytest.raises(ElementParseError):
        parse_cyclo_element("zeta5^2", 7)  # wrong conductor
    for bad in ("", "zeta7^", "x + 1", "zeta7^2^3", "2 -"):
        with pytest.raises(ElementParseError):
            parse_cyclo_element(bad, 7)


def test_parse_rejects_numbers_too_long_to_read():
    # 4401 digits is past CPython's default int-from-text limit of 4300.
    long = "7" * 4401
    for text, term in ((f"1 + {long}*zeta7^2", 2), (f"zeta7^{long}", 1),
                       (f"zeta{long} - 1", 1)):
        with pytest.raises(ElementParseError) as exc:
            parse_cyclo_element(text, 7)
        msg = str(exc.value)
        assert msg.startswith(f"term {term} (") and len(msg) < 120, msg
        assert msg.endswith("holds a number too long to read"), msg


def test_unit_group_is_cyclic_matches_element_orders():
    # (Z/m)* is cyclic iff some unit's order equals its size phi(m).
    for m in range(1, 200):
        units = [a for a in range(1, m + 1) if math.gcd(a, m) == 1]
        cyclic = any(arith.mult_order(a, m) == len(units) for a in units)
        assert unit_group_is_cyclic(m) == cyclic, m


def test_splitting_data_known_cases():
    # (q, m) -> (e, f, g), checked against the order of q mod m by hand
    cases = {
        (2, 3): (1, 2, 1),
        (7, 3): (1, 1, 2),
        (2, 9): (1, 6, 1),
        (43, 7): (1, 1, 6),
        (2, 7): (1, 3, 2),
        (3, 5): (1, 4, 1),
    }
    for (q, m), efg in cases.items():
        sd = splitting_data(q, m)
        assert (sd.e, sd.f, sd.g) == efg
        assert sd.e * sd.f * sd.g == arith.euler_phi(m)


def test_splitting_data_rationals_and_errors():
    sd = splitting_data(7, 1)
    assert (sd.e, sd.f, sd.g) == (1, 1, 1)
    assert splitting_data(7, 2).classification == "totally split"
    with pytest.raises(RamifiedPrime):
        splitting_data(3, 9)
    with pytest.raises(ValueError):
        splitting_data(6, 5)


def test_is_inert_matches_primitive_root():
    for m in (3, 5, 7, 9):
        for q in (2, 5, 11, 13, 17, 19, 23):
            if m % q == 0:
                continue
            brute = {pow(q, k, m) for k in range(arith.euler_phi(m))}
            expected = len(brute) == arith.euler_phi(m)
            assert is_inert(q, m) == expected


def test_primes_above_split_case():
    pins = primes_above(43, 7)
    assert tuple(p.root for p in pins) == (4, 11, 16, 21, 35, 41)
    poly = list(cyclotomic_polynomial(7).poly)
    for p in pins:
        assert zpoly.eval_at(poly, p.root) % 43 == 0
    assert (pins[0].q, pins[0].m, pins[0].root) == (43, 7, 4)


def test_primes_above_requires_total_split():
    with pytest.raises(NotTotallySplit):
        primes_above(2, 7)


def test_match_up_to_unit():
    mod = cyclotomic_polynomial(7)
    t = CycloElement.integer(mod, 43)
    assert match_up_to_unit(t, 43) == (1, 0)
    z2 = _zeta(mod, 2)
    assert match_up_to_unit(-(t * z2), 43) == (-1, 2)
    assert match_up_to_unit(CycloElement.integer(mod, 44), 43) is None


def test_cyclo_mul_matches_pairwise():
    rng = random.Random(9)
    mod = cyclotomic_polynomial(9)
    for _ in range(10):
        els = [_random_element(rng, mod) for _ in range(4)]
        acc = els[0]
        for e in els[1:]:
            acc = acc * e
        assert cyclo_mul(mod, els) == acc
