"""End-to-end acceptance checks, one test per entry in conftest.CRITERIA.

Wherever a value can be recomputed by a second, independent route (a naive
trial-division loop, a brute-force divisor search, a root scan), the test
does so locally instead of trusting the library for both sides.

test_c02 pins a known defect in the published data.  The first bundled
example pins a Kummer element that is not the product of its own pinned
prime list: it carries one extra factor, 431, which is the next qualifying
prime beyond the 42 listed.  The data stay verbatim; the test checks that the
constructed element is the true product, that the pinned one differs from it
by exactly 431, and that the reproduction machinery diagnoses this as
EX1-ALPHA-EXTRA-PRIME instead of silently repairing it.
"""

import itertools
import json
import math
import random
import time

import pytest

from towerbound import report, reproduce
from towerbound.bounds import build_certificate
from towerbound.cyclotomic import (
    CycloElement,
    cyclo_mul,
    cyclotomic_polynomial,
    parse_cyclo_element,
    match_up_to_unit,
    splitting_data,
)
from towerbound.fixtures import build_plan, get_fixture
from towerbound.gf import (
    PrimeField,
    build_extension_field,
    distinct_degree_profile,
    is_inert_in_relative_extension,
    is_irreducible,
)
from towerbound.tower import (
    CyclotomicBase,
    EqualPrimes,
    FAMILY_ABELIAN,
    FAMILY_NILPOTENT,
    GroupSpec,
    build_tower_plan,
    ramified_place_target,
    validate_group,
)


# -- local oracles, deliberately naive --------------------------------------


def _naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _naive_order(q: int, m: int) -> int:
    """Multiplicative order of q modulo m by direct iteration (gcd(q, m) = 1)."""
    k, acc = 1, q % m
    while acc != 1 % m:
        acc = acc * q % m
        k += 1
    return k


def _naive_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def _count_roots_mod(coeffs, q: int) -> int:
    """Number of roots of the integer polynomial (constant first) modulo q."""
    count = 0
    for x in range(q):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        if acc == 0:
            count += 1
    return count


# -- criteria ----------------------------------------------------------------


def test_c01_example1_prime_selection(run_cli):
    fx = get_fixture("example1")
    plan = build_plan("example1")
    assert plan.ramified_target == 42
    assert plan.selected_primes == fx.pinned_primes

    started = time.monotonic()
    code, out, _ = run_cli("inert-primes", "3", "--count", "42", "--exclude", "3")
    elapsed = time.monotonic() - started
    assert code == 0
    assert ", ".join(str(q) for q in fx.pinned_primes) in out
    assert elapsed < 1.0

    # Independent route: a prime is inert in the conductor-3 field exactly
    # when q = 2 (mod 3); 3 itself ramifies and is never picked up.
    found: list[int] = []
    q = 2
    while len(found) < 42:
        if _naive_is_prime(q) and q % 3 == 2:
            found.append(q)
        q += 1
    assert tuple(found) == fx.pinned_primes


def test_c02_example1_pinned_element_is_prime_product(run_cli):
    fx = get_fixture("example1")
    product = math.prod(fx.pinned_primes)

    # The element the method builds is the product of the selected primes.
    assert build_plan("example1").alpha == product

    # The published element is that product times exactly one more prime.
    assert fx.pinned_alpha % product == 0
    extra = fx.pinned_alpha // product
    assert extra == 431

    # Independent route: 431 is the 43rd qualifying prime, the first after
    # the last pinned one (419).
    assert fx.pinned_primes[-1] == 419
    q = 420
    while not (_naive_is_prime(q) and q % 3 == 2):
        q += 1
    assert q == extra

    # The stated digit count matches neither value.
    assert len(str(product)) == 88
    assert len(str(fx.pinned_alpha)) == 90
    assert fx.stated_alpha_digits == 93

    # Reproduction reports the discrepancy as a catalogued warning.
    code, out, err = run_cli("reproduce", "example1", "--n-max", "2")
    assert code == 0, err
    assert "result: pass-with-warnings" in out
    assert "[warning] kummer-element" in out
    lines = [ln for ln in out.splitlines() if "EX1-ALPHA-EXTRA-PRIME" in ln]
    assert len(lines) == 1
    assert "[warning:EX1-ALPHA-EXTRA-PRIME]" in lines[0]
    assert "431" in lines[0] and "419" in lines[0]

    code, out, err = run_cli("reproduce", "example1", "--json", "--n-max", "2")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["result"] == "pass-with-warnings"
    (check,) = [c for c in doc["checks"] if c["name"] == "kummer-element"]
    assert check["status"] == "warning"
    (diag,) = check["diagnostics"]
    assert diag["code"] == "EX1-ALPHA-EXTRA-PRIME"
    assert diag["severity"] == "warning"
    assert "431" in diag["message"] and "419" in diag["message"]


def test_ex1_extra_prime_diagnostic_only_for_the_next_qualifying_prime():
    # 443 also qualifies (prime, 443 = 2 mod 3) but comes after 431, so an α
    # carrying it must not be reported as "the next qualifying prime after
    # 419"; nor may a qualifying prime below 419 (2) or the excluded tower
    # prime (3).  A listed prime (2) squares a factor of α and fails; a
    # cofactor prime to every listed prime (3, 443) is only a warning.
    fx = get_fixture("example1")
    plan = build_plan("example1")
    product = plan.alpha
    for extra in (431, 443, 2, 3):
        assert _naive_is_prime(extra)
        check = reproduce._check_kummer_element(
            fx._replace(pinned_alpha=product * extra), plan
        )
        codes = [d.code for d in check.diagnostics]
        if extra == 431:
            assert (check.status, codes) == ("warning", ["EX1-ALPHA-EXTRA-PRIME"])
            assert "431, which is the next qualifying prime after 419" in (
                check.diagnostics[0].message
            )
        else:
            assert "EX1-ALPHA-EXTRA-PRIME" not in codes, extra
            assert all("next qualifying" not in d.message for d in check.diagnostics)
        if extra == 2:
            assert (check.status, codes) == ("fail", []), extra
        elif extra in (3, 443):
            assert (check.status, codes) == ("warning", ["EX3-ALPHA-COFACTOR"]), extra


def test_c03_example2_list_and_element():
    fx = get_fixture("example2")
    plan = build_plan("example2")
    assert plan.selected_primes == fx.pinned_primes
    assert plan.alpha == fx.pinned_alpha
    assert math.prod(fx.pinned_primes) == fx.pinned_alpha

    # Independent route: inert in the conductor-9 field means the order of q
    # modulo 9 is phi(9) = 6.
    found: list[int] = []
    q = 2
    while len(found) < len(fx.pinned_primes):
        if _naive_is_prime(q) and q % 3 != 0 and _naive_order(q, 9) == 6:
            found.append(q)
        q += 1
    assert tuple(found) == fx.pinned_primes


def test_c04_example2_cli_reproduction(run_cli):
    code, out, err = run_cli("reproduce", "example2", "--n-max", "2")
    assert code == 0, err
    assert "result: pass-with-warnings" in out
    assert "EX2-T-FORMULA" in out
    assert "EX2-DIM-INCONSISTENT" in out
    # the warning cites the relation the pinned count actually satisfies
    assert "t = N + 2dℓ(ℓ−1) = 90" in out

    code, out, _ = run_cli("reproduce", "example2", "--json", "--n-max", "2")
    assert code == 0
    doc = json.loads(out)
    codes = {d["code"] for d in doc["diagnostics"]}
    assert {"EX2-T-FORMULA", "EX2-DIM-INCONSISTENT"} <= codes


def test_c05_example3_per_prime_splitting():
    fx = get_fixture("example3")
    cubic = list(fx.base.poly)
    cyclo7 = list(cyclotomic_polynomial(7).poly)
    places = 0
    for q in fx.pinned_primes:
        assert q % 7 == 1

        data = splitting_data(q, 7)
        assert (data.e, data.f, data.g) == (1, 1, 6)
        assert report.classification(data) == "totally split"

        verdicts = is_inert_in_relative_extension(cubic, q, 7)
        assert verdicts == [True] * 6
        places += len(verdicts)

        # Independent routes: totally split means the conductor-7 polynomial
        # has all six roots modulo q, and a cubic with no root modulo q is
        # irreducible there (degree 3 leaves no other factorization).
        assert _count_roots_mod(cyclo7, q) == 6
        assert _count_roots_mod(cubic, q) == 0

    # 10 rational primes, 6 places each: 60 inert places in total
    assert places == 60
    assert len(build_plan("example3").selected_places) == 60


def test_c06_example3_unit_factorization(run_cli):
    fx = get_fixture("example3")
    mod = cyclotomic_polynomial(7)
    factors = [parse_cyclo_element(s, 7) for s in fx.factor_strings]
    product = cyclo_mul(mod, factors)

    # The six factors multiply to -43 * zeta^2, not to 43 itself.
    assert product.coeffs == (0, 0, -43, 0, 0, 0)
    assert match_up_to_unit(product, 43) == (-1, 2)
    target = CycloElement.integer(mod, 43)
    assert product.coeffs != target.coeffs
    for f in factors:
        assert f.norm() == 43

    args = ["verify-factorization", "--conductor", "7", "--target", "43"]
    for s in fx.factor_strings:
        args += ["--factor", s]
    code, out, _ = run_cli(*args)
    assert code == 0
    assert "status: unit" in out
    assert "FACTOR-UNIT-DISCREPANCY" in out


def test_c07_validation_and_place_targets():
    ok_shapes = [
        GroupSpec(p=3, dimension=1, action_order=2, family=FAMILY_ABELIAN),
        GroupSpec(p=3, dimension=3, action_order=2, family=FAMILY_ABELIAN),
        GroupSpec(
            p=7,
            dimension=3,
            action_order=3,
            family=FAMILY_NILPOTENT,
            twist_exponent=1,
        ),
    ]
    for spec in ok_shapes:
        assert validate_group(spec).passed, spec

    # 3 does not divide 5 - 1, so no order-3 twist acts through Z_5.
    report = validate_group(
        GroupSpec(
            p=5,
            dimension=3,
            action_order=3,
            family=FAMILY_NILPOTENT,
            twist_exponent=1,
        )
    )
    assert not report.passed
    assert any("divides-p-minus-1" in item.name for item in report.failures)

    # An order-2 action forces the abelian family.
    assert not validate_group(
        GroupSpec(
            p=7,
            dimension=3,
            action_order=2,
            family=FAMILY_NILPOTENT,
            twist_exponent=1,
        )
    ).passed

    # The abelian family carries no twist exponent.
    assert not validate_group(
        GroupSpec(
            p=3,
            dimension=1,
            action_order=2,
            family=FAMILY_ABELIAN,
            twist_exponent=1,
        )
    ).passed

    assert ramified_place_target(2, 2, 1, 5) == 42
    assert ramified_place_target(10, 2, 3, 5) == 130
    assert ramified_place_target(6, 3, 3, 3) == 60

    with pytest.raises(EqualPrimes):
        build_tower_plan(
            3,
            GroupSpec(p=3, dimension=1, action_order=2, family=FAMILY_ABELIAN),
            CyclotomicBase(conductor=3),
            1,
        )


def test_c08_ambiguous_margin_identity():
    # The place target is rank_target plus the ground-layer degree, and both
    # sides scale by p^n per layer, so the clamped difference is exactly
    # rank_target * p^n for any parameters.  200 seeded random tuples.
    rng = random.Random(20230817)
    odd_primes = [q for q in range(3, 98) if _naive_is_prime(q)]
    all_primes = [2] + odd_primes
    for _ in range(200):
        ell = rng.choice(odd_primes)
        p = rng.choice(all_primes)
        target = rng.randint(1, 20)
        dim = rng.randint(1, 4)
        order = rng.choice((2, 3))
        n = rng.randint(0, 6)
        t = ramified_place_target(target, order, dim, ell)
        degree0 = order * dim * ell * (ell - 1)
        assert t == target + degree0
        assert max(t * p**n - degree0 * p**n, 0) == target * p**n


def test_c09_profiles_match_splitting_law():
    started = time.monotonic()
    small_primes = [q for q in range(2, 1000) if _naive_is_prime(q)]
    checked = 0
    for m in range(1, 31):
        coeffs = cyclotomic_polynomial(m).poly
        phi = _naive_phi(m)
        for q in small_primes:
            if m % q == 0:
                continue
            data = splitting_data(q, m)
            assert data.f * data.g == phi, (m, q)
            assert data.f == _naive_order(q, m), (m, q)
            # the degree profile of the reduction is the brute-force oracle
            K = PrimeField(q)
            profile = distinct_degree_profile(K, [c % q for c in coeffs])
            assert profile == ((data.f, data.g),), (m, q)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked > 4500
    assert elapsed < 30.0, f"profile sweep took {elapsed:.1f}s"


def test_c10_irreducibility_vs_exhaustive_search():
    fields = [PrimeField(q) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23)] + [
        build_extension_field(2, 2),
        build_extension_field(2, 3),
        build_extension_field(2, 4),
        build_extension_field(3, 2),
        build_extension_field(5, 2),
    ]
    assert sorted(K.size for K in fields) == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
    ]
    for K in fields:
        if isinstance(K, PrimeField):
            elements = list(range(K.q))
        else:
            elements = [
                tuple(t) for t in itertools.product(range(K.q), repeat=K.degree)
            ]
        one = K.one

        def monic_polys(d):
            for tail in itertools.product(elements, repeat=d):
                yield list(tail) + [one]

        def poly_mul(a, b):
            out = [K.zero] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] = K.add(out[i + j], K.mul(ai, bj))
            return tuple(out)

        # Brute-force oracle: any reducible monic quadratic or cubic has a
        # monic linear factor, so the product sets below are exhaustive.
        reducible = {2: set(), 3: set()}
        for a in monic_polys(1):
            for b in monic_polys(1):
                reducible[2].add(poly_mul(a, b))
            for b in monic_polys(2):
                reducible[3].add(poly_mul(a, b))

        counts = {}
        for d in (1, 2, 3):
            found = 0
            for poly in monic_polys(d):
                expected = d == 1 or tuple(poly) not in reducible[d]
                assert is_irreducible(K, poly) == expected, (K, poly)
                found += expected
            counts[d] = found

        # necklace counts of monic irreducibles per degree
        Q = K.size
        assert counts[1] == Q
        assert counts[2] == (Q * Q - Q) // 2
        assert counts[3] == (Q**3 - Q) // 3


def test_c11_certificate_columns():
    fx1 = get_fixture("example1")
    cert1 = build_certificate(build_plan("example1"), av=fx1.av, n_max=4)
    assert [r.ramified_places for r in cert1.rows] == [42, 126, 378, 1134, 3402]
    assert [r.layer_degree for r in cert1.rows] == [40, 120, 360, 1080, 3240]
    assert [r.class_rank_bound for r in cert1.rows] == [2, 6, 18, 54, 162]
    assert [r.fine_claimed for r in cert1.rows] == [2, 6, 18, 54, 162]
    assert [r.fine_conservative for r in cert1.rows] == [0, 4, 16, 52, 160]

    fx3 = get_fixture("example3")
    cert3 = build_certificate(build_plan("example3"), av=fx3.av, n_max=2)
    assert [r.class_rank_bound for r in cert3.rows] == [6, 42, 294]
    assert [r.fine_claimed for r in cert3.rows] == [6, 18, 54]
    assert [r.fine_conservative for r in cert3.rows] == [4, 16, 52]
