import math
import random

import pytest

from towerbound import arith, report, zpoly
from test_arith import _twelve_base_battery
from towerbound.gf import PrimeField, distinct_degree_profile
from towerbound.tower import CyclotomicBase
from towerbound.cyclotomic import (
    _TERM,
    _WORD_PRIMES,
    _reduce,
    _translate_marks,
    _word_primes,
    CycloElement,
    ElementParseError,
    ModulusMismatch,
    NotTotallySplit,
    RamifiedPrime,
    cyclotomic_polynomial,
    cyclo_mul,
    match_up_to_unit,
    parse_cyclo_element,
    primes_above,
    splitting_data,
)


def _eval_at(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


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


def test_an_int_times_an_element_raises():
    # Elements are tuples underneath; 2 * a must not repeat the tuple, and an
    # operand that is not an element is Python's TypeError, on either side.
    a = CycloElement.integer(cyclotomic_polynomial(7), 3)
    for op in (lambda: 2 * a, lambda: a * 2, lambda: a + 1, lambda: a - (1, 2),
               lambda: (1, 2) + a, lambda: 1 + a, lambda: (1, 2) - a):
        with pytest.raises(TypeError):
            op()


def test_reduce_folds_mod_x_m_minus_1_like_the_division_by_phi_m():
    # Phi_m divides x^m - 1, so folding before dividing keeps the remainder.
    rng = random.Random(130)
    for m in range(1, 130):
        mod = cyclotomic_polynomial(m)
        for _ in range(20):
            raw = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 3 * m))]
            _, rem = zpoly.divmod_monicish(raw, list(mod.poly))
            assert _reduce(mod, raw) == tuple(rem + [0] * (mod.phi - len(rem))), (m, raw)


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
    # N(x - zeta) = prod (x - zeta^k) = Phi_m(x), coefficients up to 10**40;
    # at prime m, |N| for x = 10**40 is within a factor e^(1/2) of the bound
    for m in ORACLE_CONDUCTORS + (499,):
        mod = cyclotomic_polynomial(m)
        for x in (-(10**40), -7, 0, 1, 2, 10**40):
            a = CycloElement.integer(mod, x) - _zeta(mod, 1)
            assert a.norm() == _eval_at(mod.poly, x), (m, x)


def _per_k_norm(a):
    """The norm as computed before the chirp-z evaluation: per k, term by term.

    a(omega^k) for each k prime to m, modulo primes q = 1 (mod m) below
    2**63 until their product exceeds twice ||a||_1^phi(m), with Garner's CRT.
    """
    m, phi = a.modulus.m, a.modulus.phi
    terms = [(i, c) for i, c in enumerate(a.coeffs) if c]
    if not terms:
        return 0
    units = [k for k in range(m) if math.gcd(k, m) == 1]
    bound = 2 * sum(abs(c) for _, c in terms) ** phi
    residue, modulus, q = 0, 1, (2**63 - 2) // m * m + 1
    while modulus <= bound:
        while not arith.is_prime(q):
            q -= m
        omega = next(w for w in (pow(x, (q - 1) // m, q) for x in range(2, q))
                     if all(pow(w, m // r, q) != 1 for r in arith.factorize(m)))
        powers = [1] * m
        for i in range(1, m):
            powers[i] = powers[i - 1] * omega % q
        reduced = [(i, c % q) for i, c in terms]
        acc = 1
        for k in units:
            acc = acc * sum(c * powers[i * k % m] for i, c in reduced) % q
        residue += modulus * ((acc - residue) * pow(modulus, -1, q) % q)
        modulus, q = modulus * q, q - m
    return residue - modulus if residue > modulus // 2 else residue


def test_norm_matches_the_per_k_loop_it_replaced():
    # By its term count t, a norm takes a chirp product (t > phi/2), shifted
    # chirps, or past the cached tables direct evaluation (t <= 2 sqrt(phi)):
    # each conductor gets t on both sides of both cutoffs, and a fully dense
    # element, except at 499, where the loop would take seconds on those and
    # the next test covers the phi/2 cutoff.  Even conductors take other word
    # primes (q = 1 mod 2m) than the loop does.
    rng = random.Random(499)
    for m in (1, 2, 6, 14, 128, 211, 256, 420, 499):
        mod = cyclotomic_polynomial(m)
        root, half = math.isqrt(4 * mod.phi), mod.phi // 2
        counts = {1, 2, 3, root, root + 1}
        if m < 499:
            counts |= {half, half + 1, mod.phi}
        for t in sorted(c for c in counts if c <= mod.phi):
            coeffs = [0] * mod.phi
            for j in rng.sample(range(mod.phi), t):
                coeffs[j] = rng.choice((-2, -1, 1, 2))
            a = CycloElement(mod, tuple(coeffs))
            assert a.norm() == _per_k_norm(a), (m, t)


def test_norm_on_both_sides_of_half_the_terms_at_the_cap():
    # 1 + zeta + ... + zeta^(t-1) = (zeta^t - 1) / (zeta - 1) is a unit for t
    # prime to 499, so 3 times it has norm 3^498
    mod = cyclotomic_polynomial(499)
    for t in (249, 250):
        assert CycloElement(mod, (3,) * t + (0,) * (mod.phi - t)).norm() == 3**498


@pytest.mark.parametrize("m, coeffs, norm", [
    (1, (-7,), -7),
    (2, (-(10**40),), -(10**40)),
    # |N(a)| meets the bound (m ||a||_2^2 / phi)^(phi/2) = 3 c^2 exactly
    (3, (10**40 + 1, -(10**40 + 1)), 3 * (10**40 + 1) ** 2),
])
def test_norm_at_the_extremes_matches_the_per_k_loop(m, coeffs, norm):
    a = CycloElement(cyclotomic_polynomial(m), coeffs)
    assert a.norm() == _per_k_norm(a) == norm


def test_word_primes_are_the_largest_below_2_63_in_their_class():
    # Every prime q = 1 (mod 2m) from 2^63 down, none skipped, each proved by
    # an independent battery, with psi of order exactly 2m modulo q.
    for m in (1, 2, 3, 4, 7, 101, 499):
        step = 2 * m
        word = _word_primes(m, 6)
        qs = [q for q, _ in word]
        assert len(qs) == 6 and qs == sorted(qs, reverse=True), m
        assert all(2**62 < q < 2**63 and q % step == 1 for q in qs), m
        for q in range(2**63 - 1 - (2**63 - 2) % step, qs[-1] - 1, -step):
            assert _twelve_base_battery(q) == (q in qs), (m, q)
        for q, psi in word:
            orders = [d for d in range(1, step + 1) if step % d == 0 and pow(psi, d, q) == 1]
            assert orders[:1] == [step], (m, q)
    # a call for fewer primes than the cache holds takes its prefix
    _WORD_PRIMES.clear()
    calls = [_word_primes(3, k) for k in (2, 5, 3)]
    _WORD_PRIMES.clear()
    fresh = _word_primes(3, 5)
    assert [len(c) for c in calls] == [2, 5, 3]
    assert all(c == fresh[: len(c)] for c in calls)


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
            assert parse_cyclo_element(report.format_cyclo(a), m) == a
            assert parse_cyclo_element(report.format_cyclo(a, unicode_ok=False), m) == a


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


_UNSUB = {s: d for d, s in zip("0123456789", "₀₁₂₃₄₅₆₇₈₉")}
_UNSUP = {s: d for d, s in zip("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")}


def _translate_marks_loop(s):
    """Reference: rewrite sub/superscript runs into ``{sub}``/``^`` one character at a time."""
    out = []
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


def test_translate_marks_matches_the_character_loop():
    # Seeded strings over everything the grammar and its neighbours use:
    # digits, sub- and superscripts, zeta in both spellings, the three minus
    # signs, the operators and spaces.
    alphabet = ["0", "1", "7", "9", "₀", "₁", "₇", "₉", "⁰", "¹", "²", "³", "⁴",
                "⁹", "ζ", "zeta", "-", "−", "–", "+", "*", "^", "{", "}", " "]
    rng = random.Random(2026)
    for _ in range(20_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert _translate_marks(s) == _translate_marks_loop(s), s


def _parse_with_the_sign_loop(text, m):
    """Reference: the parser as it was, splitting terms one character at a time."""
    mod = cyclotomic_polynomial(m)
    s = text.replace("−", "-").replace("–", "-")
    s = _translate_marks(s).replace("ζ", "zeta")
    s = s.replace(" ", "")
    if not s:
        raise ElementParseError("empty element string")
    terms = []
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
    raw = [0] * m
    for n, t in enumerate(terms, 1):
        mt = _TERM.match(t)
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
        except ValueError:
            shown = t if len(t) <= 40 else f"{t[:20]}...{t[-10:]}"
            raise ElementParseError(
                f"term {n} ({shown!r}, {len(t)} characters) holds a number "
                f"too long to read"
            ) from None
        if cond != m:
            raise ElementParseError(f"conductor {cond_s} in {text!r} does not match {m}")
        if sign_s == "-":
            coef = -coef
        raw[exp % m if has_zeta else 0] += coef
    return CycloElement.from_coeffs(mod, raw)


def _outcome(parse, text, m):
    try:
        return parse(text, m).coeffs
    except ElementParseError as exc:
        return type(exc), str(exc)


def _grammar_element(rng):
    """A valid element, or one a single wrong conductor away from it."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        coef = rng.choice(["", "", "1", "2", "14", "300"])
        if rng.random() < 0.3:
            terms.append(coef or "5")
            continue
        cond = rng.choice(["", "7", "7", "{7}", "₇", "₇", "5", "₅"])
        exp = rng.choice(["", "^2", "^9", "³", "¹⁰", "^0"])
        star = "*" if coef and rng.random() < 0.5 else ""
        terms.append(f"{coef}{star}{rng.choice(['zeta', 'ζ'])}{cond}{exp}")
    text = rng.choice(["", "-", "−", "+"]) + terms[0]
    for t in terms[1:]:
        text += rng.choice([" + ", " - ", " − ", " – ", "+", "-", " +-", "--"]) + t
    return text


def test_parse_matches_the_sign_loop_it_replaced():
    # Seeded strings over the grammar's alphabet, most of them malformed, then
    # grammar-generated elements: both parsers give the same coefficients or
    # raise the same error with the same message.
    alphabet = ["0", "1", "2", "7", "9", "+", "+", "-", "-", "−", "–", " ", "*",
                "^", "{", "}", "zeta", "zeta", "ζ", "ζ", "₁", "₇", "₉", "²", "³", "⁹"]
    rng = random.Random(18)
    parsed = 0
    for i in range(200_000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        m = 7 if i % 4 else rng.choice((1, 2, 9))
        want = _outcome(_parse_with_the_sign_loop, s, m)
        assert _outcome(parse_cyclo_element, s, m) == want, (s, m)
        parsed += not isinstance(want[0], type)
    for _ in range(20_000):
        s = _grammar_element(rng)
        want = _outcome(_parse_with_the_sign_loop, s, 7)
        assert _outcome(parse_cyclo_element, s, 7) == want, s
        parsed += not isinstance(want[0], type)
    assert parsed > 20_000  # the comparison reaches the coefficients, not only errors


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
    # Q(zeta_m)'s class table is the generators of (Z/n)*, n the least
    # conductor: the units whose order is its size phi(n); there are none
    # when the group is not cyclic.  Mod 1 the unit is 0.
    for m in range(1, 200):
        n, residues = CyclotomicBase(m).classes
        assert n == (m // 2 if m % 4 == 2 else m), m
        units = [a for a in range(n) if math.gcd(a, n) == 1]
        generators = {a for a in units if arith.mult_order(a, n) == len(units)}
        assert residues == generators, m
    with pytest.raises(ValueError, match="^conductor 0 must be >= 1$"):
        CyclotomicBase(0).classes


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
    assert report.classification(splitting_data(7, 2)) == "totally split"
    with pytest.raises(RamifiedPrime):
        splitting_data(3, 9)
    with pytest.raises(ValueError):
        splitting_data(6, 5)


def test_two_over_twice_an_odd_conductor_matches_the_profile_of_phi_m():
    # Q(zeta_m) = Q(zeta_(m/2)) for odd m/2, so 2 is unramified there; the
    # degree profile of Phi_m mod 2, a squarefree reduction, is the oracle.
    F2 = PrimeField(2)
    for m in range(2, 200, 4):
        sd = splitting_data(2, m)
        profile = distinct_degree_profile(F2, [c % 2 for c in cyclotomic_polynomial(m).poly])
        assert profile == ((sd.f, sd.g),) and sd.e == 1, m
        if m > 2:
            with pytest.raises(NotTotallySplit):
                primes_above(2, m)
    assert [p.root for p in primes_above(2, 2)] == [1]
    with pytest.raises(RamifiedPrime):
        primes_above(2, 12)


def test_is_inert_matches_primitive_root():
    for m in (3, 5, 7, 9):
        for q in (2, 5, 11, 13, 17, 19, 23):
            if m % q == 0:
                continue
            brute = {pow(q, k, m) for k in range(arith.euler_phi(m))}
            expected = len(brute) == arith.euler_phi(m)
            assert (splitting_data(q, m).g == 1) == expected


def test_primes_above_split_case():
    pins = primes_above(43, 7)
    assert tuple(p.root for p in pins) == (4, 11, 16, 21, 35, 41)
    poly = list(cyclotomic_polynomial(7).poly)
    for p in pins:
        assert _eval_at(poly, p.root) % 43 == 0
    assert (pins[0].q, pins[0].m, pins[0].root) == (43, 7, 4)


def test_primes_above_requires_total_split():
    with pytest.raises(NotTotallySplit):
        primes_above(2, 7)
    for q, m in ((7, 7), (3, 9)):
        with pytest.raises(RamifiedPrime):
            primes_above(q, m)


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
