import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from towerbound import arith, cyclotomic, report
from towerbound.bounds import build_certificate
from towerbound.fixtures import build_plan, fixture_ids, get_fixture
from towerbound.tower import (
    CyclotomicBase,
    EqualPrimes,
    FAMILY_ABELIAN,
    FAMILY_NILPOTENT,
    GroupSpec,
    RelativeCubicBase,
    ValidationFailed,
    build_tower_plan,
    ramified_place_target,
    select_primes,
    validate_group,
)

SRC = Path(__file__).resolve().parents[1] / "src"

ABELIAN_1 = GroupSpec(p=3, dimension=1, action_order=2)
ABELIAN_3 = GroupSpec(p=3, dimension=3, action_order=2)
NILPOTENT = GroupSpec(
    p=7, dimension=3, action_order=3, family=FAMILY_NILPOTENT, twist_exponent=1
)


def test_validate_group_accepts_bundled_shapes():
    for g in (ABELIAN_1, ABELIAN_3, NILPOTENT):
        assert validate_group(g).passed


def test_validate_group_rejections():
    # order-3 action needs p = 1 mod 3; p = 5 is not
    bad = GroupSpec(p=5, dimension=3, action_order=3, family=FAMILY_NILPOTENT,
                    twist_exponent=1)
    rep = validate_group(bad)
    assert not rep.passed
    assert any("divides-p-minus-1" in i.name for i in rep.failures)

    # an order-2 action only supports the abelian family
    bad = GroupSpec(p=3, dimension=3, action_order=2, family=FAMILY_NILPOTENT,
                    twist_exponent=1)
    assert not validate_group(bad).passed

    # the nilpotent presentation is three-generator
    bad = GroupSpec(p=7, dimension=2, action_order=3, family=FAMILY_NILPOTENT,
                    twist_exponent=1)
    assert not validate_group(bad).passed

    # twist exponent is meaningless for the abelian family
    bad = GroupSpec(p=3, dimension=1, action_order=2, twist_exponent=1)
    assert not validate_group(bad).passed

    # action order p never divides p - 1
    bad = GroupSpec(p=3, dimension=3, action_order=3, family=FAMILY_NILPOTENT,
                    twist_exponent=1)
    assert not validate_group(bad).passed


def test_ramified_place_target_values():
    assert ramified_place_target(2, 2, 1, 5) == 42
    assert ramified_place_target(10, 2, 3, 5) == 130
    assert ramified_place_target(6, 3, 3, 3) == 60
    with pytest.raises(ValueError):
        ramified_place_target(0, 2, 1, 5)
    with pytest.raises(ValueError):
        ramified_place_target(2, 2, 1, 4)


def _cubic(class_number=13, conductor=7):
    return RelativeCubicBase(conductor=conductor, poly=(-1, -4, -1, 1),
                             class_number=class_number)


def test_relative_base_derives_p_rationality():
    items = _cubic().validate(NILPOTENT)
    assert all(i.ok for i in items)
    assert items[-1].name == "p-rational"
    # a class number divisible by p breaks the class-group item, and with it
    # p-rationality, and nothing else
    failed = [i.name for i in _cubic(class_number=14).validate(NILPOTENT) if not i.ok]
    assert failed == ["class-group-p-part-trivial", "p-rational"]


def test_relative_base_over_the_rationals_is_totally_real():
    # Over conductor <= 2 the base is a cyclic cubic field, which has no
    # complex places and no 7th roots of unity; 7 stays inert in it, so the
    # single place above 7 survives.
    failed = [i.name for i in _cubic(conductor=1).validate(NILPOTENT) if not i.ok]
    assert failed == ["base-is-imaginary", "contains-p-th-roots", "p-rational"]


def test_bundled_base_validates_its_own_hypotheses():
    items = get_fixture("example3").base.validate(NILPOTENT)
    assert [(i.name, i.ok, i.detail) for i in items] == [
        ("base-cubic-monic", True, "relative step must be a monic cubic"),
        ("base-action-order-matches-step", True,
         "relative degree 3 must equal the action order 3"),
        ("base-cubic-cyclic", True,
         "the cubic must be irreducible with discriminant f^2 for a prime "
         "f = 1 (mod 3) prime to the conductor"),
        ("base-is-imaginary", True,
         "the cyclotomic subfield has no real places, so neither does any "
         "extension of it [computed-here]"),
        ("contains-p-th-roots", True,
         "conductor 7 supplies the 7th roots of unity [computed-here]"),
        ("unique-prime-above-p", True,
         "7 has a single place in Q(zeta_7), of residue degree 1 prime to 3, "
         "and the cubic stays irreducible in its residue field (disc = 169 is "
         "prime to 7) [computed-here]"),
        ("class-group-p-part-trivial", True,
         "the class group is cyclic of order 13 per standard tables; its "
         "7-part is trivial [external-database]"),
        ("p-rational", True,
         "follows from the roots-of-unity, unique-prime and class-group items"),
    ]


def test_each_base_fact_has_one_name():
    # A fact both bases check carries one name in both lists, and no plan
    # lists a name twice: the three fixtures' and the bundled construct's.
    cubic = get_fixture("example3").base
    for items in (CyclotomicBase(3).validate(ABELIAN_1), cubic.validate(NILPOTENT)):
        assert {"base-is-imaginary", "unique-prime-above-p"} <= {i.name for i in items}
    plans = [build_plan(fid) for fid in fixture_ids()]
    plans.append(build_tower_plan(3, NILPOTENT, cubic, 2))
    for plan in plans:
        names = [i.name for i in plan.validation.items]
        assert len(names) == len(set(names)), names


def test_unique_prime_above_p_over_a_conductor_with_another_prime():
    # Q(zeta_14) = Q(zeta_7): 7 keeps its single place of residue degree 1,
    # so every item holds.  Over conductor 21, 3 generates (Z/7)* and the
    # cubic is irreducible mod 3, but the place's residue field F_(3^6)
    # contains F_(3^3), where the cubic splits.
    assert all(i.ok for i in _cubic(conductor=14).validate(NILPOTENT))
    three = GroupSpec(p=3, dimension=3, action_order=3, family=FAMILY_NILPOTENT,
                      twist_exponent=1)
    failed = [i.name for i in _cubic(conductor=21).validate(three) if not i.ok]
    assert failed == ["unique-prime-above-p", "p-rational"]


def test_cyclotomic_unique_prime_item_matches_splitting_data():
    # Oracle: p has g places in Q(zeta_c), where g is its number of places in
    # Q(zeta_r), r the prime-to-p part of c, as splitting_data computes it.
    primes = [p for p in range(2, 200) if arith.is_prime(p)]
    for c in range(1, 501):
        base = CyclotomicBase(c)
        for p in primes:
            r = c
            while r % p == 0:
                r //= p
            got = next(i.ok for i in base.validate(GroupSpec(p, 1, 2))
                       if i.name == "unique-prime-above-p")
            assert got == (cyclotomic.splitting_data(p, r).g == 1), (c, p)


def test_build_plan_smallest_case():
    plan = build_tower_plan(5, ABELIAN_1, CyclotomicBase(3), 2)
    assert plan.ramified_target == 42
    assert len(plan.selected_primes) == 42
    assert plan.selected_primes[:5] == (2, 5, 11, 17, 23)
    assert 3 not in plan.selected_primes  # p itself never selected
    assert plan.layer_degree == 40
    assert (plan.ramified_target - plan.layer_degree) * 3**2 == 2 * 9
    assert plan.first_effective_layer == 0
    assert plan.gap_rank is None


def test_first_effective_layer_above_0_over_the_bundled_cubic(run_cli):
    # Layer n of the cubic base has degree phi(7) * 7^n = 6 * 7^n, and the
    # bookkeeping starts at the least n where that reaches 2 * dimension:
    # n rises past each dimension 3 * 7^n.
    # Rows below that layer carry the PRE-EFFECTIVE-LAYER caveat.
    argv = ("construct", "--base", "bundled-cubic", "--ell", "3", "--p", "7",
            "--dimension", "4", "--rank-target", "2")
    code, out, err = run_cli(*argv, "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["plan"]["first_effective_layer"] == 1
    caveat = [d for d in doc["certificate"]["diagnostics"]
              if d["code"] == "PRE-EFFECTIVE-LAYER"]
    assert [d["severity"] for d in caveat] == ["warning"]
    assert "layers 0..0 " in caveat[0]["message"]
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert f"  [warning:PRE-EFFECTIVE-LAYER] {caveat[0]['message']}" in out.splitlines()
    for dim, layer in ((3, 0), (4, 1), (21, 1), (22, 2), (147, 2), (148, 3)):
        group = GroupSpec(p=7, dimension=dim, action_order=3)
        plan = build_tower_plan(3, group, get_fixture("example3").base, 2)
        assert plan.first_effective_layer == layer, dim
        assert min(n for n in range(8) if 6 * 7**n >= 2 * dim) == layer, dim
        codes = [d.code for d in build_certificate(plan, n_max=0).diagnostics]
        assert codes.count("PRE-EFFECTIVE-LAYER") == (layer > 0), dim


def test_build_plan_rejects_equal_primes():
    with pytest.raises(EqualPrimes):
        build_tower_plan(3, ABELIAN_1, CyclotomicBase(3), 2)


def test_build_plan_rejects_even_kummer_prime():
    with pytest.raises(ValidationFailed):
        build_tower_plan(2, GroupSpec(p=5, dimension=1, action_order=2),
                         CyclotomicBase(3), 2)


def test_build_plan_non_prime_p_fails_validation_without_running_dependents():
    # p = 1 used to loop forever in the single-place check, p = 0 divided by
    # zero and p = -3 leaked a mult_order message; a subprocess with a
    # timeout keeps a regression from hanging the suite.
    script = """
import json
from towerbound.tower import CyclotomicBase, GroupSpec, ValidationFailed, build_tower_plan
out = []
for p in (1, 0, -3, 4, 9, 10**50 + 1):
    for c in (3, 9):
        try:
            build_tower_plan(5, GroupSpec(p=p, dimension=1, action_order=2), CyclotomicBase(c), 2)
        except ValidationFailed as err:
            out.append([[i.name for i in err.report.items], [i.name for i in err.report.failures]])
print(json.dumps(out))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=20, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    assert len(reports) == 12
    for names, failures in reports:
        assert names == [
            "ell-odd", "p-prime", "dimension-positive", "action-order-at-least-2",
            "abelian-has-no-twist-exponent", "order-2-action-forces-abelian",
            "rank-target-positive", "base-is-imaginary", "base-galois-group-cyclic",
            "base-action-order-2", "base-degree-matches-dimension",
            "unique-prime-above-p",
        ]
        assert failures[0] == "p-prime" and failures[-1] == "unique-prime-above-p"


def test_build_plan_base_compatibility():
    # conductor 5 has phi = 4, which is not 2 * dimension for dimension 1
    with pytest.raises(ValidationFailed) as exc:
        build_tower_plan(7, GroupSpec(p=3, dimension=1, action_order=2),
                         CyclotomicBase(5), 2)
    assert any(
        "degree-matches-dimension" in i.name for i in exc.value.report.failures
    )


def test_build_plan_gap_inflation():
    plan = build_tower_plan(3, GroupSpec(p=7, dimension=1, action_order=2),
                            CyclotomicBase(4), 2, gap_rank=1)
    # target inflated by 2 * gap_rank
    assert plan.effective_rank_target == 4
    assert plan.ramified_target == 4 + 2 * 1 * 3 * 2
    assert plan.gap_rank == 1
    assert plan.rank_target == 2  # the rank the fine rows certify

    # when ell > p the gap outruns the tower and inflation cannot absorb it
    with pytest.raises(ValidationFailed):
        build_tower_plan(5, ABELIAN_1, CyclotomicBase(3), 2, gap_rank=1)


def test_build_plan_primes_override_is_validated():
    base = _cubic()
    # 13 is not totally split downstairs (and divides the cubic's
    # discriminant besides), so it cannot qualify
    with pytest.raises(ValidationFailed):
        build_tower_plan(3, NILPOTENT, base, 6,
                         primes_override=(13, 43, 127, 491, 673, 953, 1499,
                                          1583, 2129, 2311))
    # too few places to cover the target
    with pytest.raises(ValidationFailed):
        build_tower_plan(3, NILPOTENT, base, 6,
                         primes_override=(43, 127, 491))


def test_build_plan_relative_needs_checklist():
    with pytest.raises(ValidationFailed) as exc:
        build_tower_plan(3, NILPOTENT, _cubic(class_number=None), 6)
    failures = exc.value.report.failures
    assert [(i.name, i.detail) for i in failures] == [
        ("class-group-p-part-trivial", "no class number given"),
        ("p-rational",
         "follows from the roots-of-unity, unique-prime and class-group items"),
    ]


def test_relative_base_places():
    plan = build_tower_plan(
        3, NILPOTENT, _cubic(), 6,
        primes_override=(43, 127, 491, 673, 953, 1499, 1583, 2129, 2311, 2591),
    )
    assert len(plan.selected_places) == 60
    first_six = [pl for pl in plan.selected_places if pl.q == 43]
    assert [pl.root for pl in first_six] == [4, 11, 16, 21, 35, 41]


def test_field_diagram_edges():
    plan = build_tower_plan(5, ABELIAN_1, CyclotomicBase(3), 2)
    diagram = report.field_diagram(plan)
    degrees = {(e["from"], e["to"]): e["degree"] for e in diagram["edges"]}
    assert degrees[("K0", "K")] == 2
    assert degrees[("K", "K_zeta")] == 4
    assert degrees[("K_zeta", "L")] == 5
    ids = {n["id"] for n in diagram["nodes"]}
    assert {"K0", "K", "K_zeta", "L", "K_tower", "K_tower_zeta", "L_tower"} <= ids


def _root_free_mod(poly, q):
    """gcd(x^q - x, poly) = 1 over F_q for a monic cubic: no root in F_q."""

    def mulmod(a, b):
        prod = [0] * 5
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for k in (4, 3):  # x^3 = -(c0 + c1 x + c2 x^2)
            top, prod[k] = prod[k], 0
            for i in range(3):
                prod[k - 3 + i] -= top * poly[i]
        return [x % q for x in prod[:3]]

    acc, sq, e = [1, 0, 0], [0, 1, 0], q
    while e:
        if e & 1:
            acc = mulmod(acc, sq)
        sq, e = mulmod(sq, sq), e >> 1
    a, b = [c % q for c in poly], [acc[0], (acc[1] - 1) % q, acc[2]]
    while any(b):  # Euclid over F_q; a stays the remainder sequence's head
        while b and b[-1] == 0:
            b.pop()
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):
            t = a[-1] * inv % q
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - t * c) % q
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def test_bundled_cubic_qualifies_by_residue_class_below_a_million():
    # The residue-class predicate against the definition, prime by prime:
    # q = 1 (mod 7) splits completely in Q(zeta_7), q = 13 divides the
    # discriminant, and the cubic stays inert over F_q iff it has no root.
    cubic = (-1, -4, -1, 1)
    base = RelativeCubicBase(conductor=7, poly=cubic)
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
    accepted = 0
    for q in (q for q in range(limit) if sieve[q]):
        want = q % 7 == 1 and q != 13 and _root_free_mod(cubic, q)
        assert base.prime_qualifies(q) == want, q
        accepted += want
    assert accepted == 8740


def _inert_or_false(q, m):
    try:
        return cyclotomic.splitting_data(q, m).g == 1
    except cyclotomic.RamifiedPrime:
        return False


def _prime_flags(limit):
    """Sieve of Eratosthenes: flags[n] == 1 iff n < limit is prime."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit - 1) + 1):
        if flags[d]:
            flags[d * d::d] = bytes(len(range(d * d, limit, d)))
    return flags


def test_cyclotomic_prime_qualifies_matches_splitting_data():
    # Naive oracle: the route through splitting_data, which proves q prime
    # again and raises for q | m; over m <= 2 it calls every prime inert.
    # Below 61 every conductor, then a sample up to the cap of 500: prime
    # powers, their doubles, and non-cyclic groups (64, 105, 400, 484, 500).
    primes = [q for q in range(2, 20_000)
              if all(q % d for d in range(2, math.isqrt(q) + 1))]
    sample = (61, 64, 81, 98, 105, 121, 125, 127, 162, 169, 243, 250, 256,
              289, 343, 361, 386, 400, 431, 484, 486, 499, 500)
    for m in (*range(1, 61), *sample):
        base = CyclotomicBase(m)
        for q in primes if m < 61 else (q for q in primes if q < 5000):
            assert base.prime_qualifies(q) == _inert_or_false(q, m), (m, q)
    assert CyclotomicBase(500).classes[1] == frozenset()


def test_a_conductor_below_1_is_refused_by_both_bases():
    # The subgroups of (Z/n)* need n >= 1: a base on c = 0 or -3 names its
    # conductor in a ValueError wherever it is asked to decide something.
    for c in (0, -3):
        bases = ((CyclotomicBase(c), ABELIAN_1),
                 (RelativeCubicBase(c, (-1, -4, -1, 1), 13), NILPOTENT))
        for base, group in bases:
            for ask in (lambda: base.classes, lambda: base.prime_qualifies(43),
                        lambda: base.validate(group),
                        lambda: build_tower_plan(5, group, base, 2)):
                with pytest.raises(ValueError, match=f"^conductor {c} must be >= 1$"):
                    ask()


def test_class_walk_matches_is_inert_at_the_sieve_segment_edges():
    # The walk filters whole sieve segments by class.  Starting at 3, the
    # segments end at these edges; the k-th qualifying prime is taken as the
    # last one before each edge and as the first one after it, and the
    # ceiling is put on it and just below it.
    flags = _prime_flags(300_000)
    edges = (2051, 6147, 14339, 30723, 63491, 129027, 260099)
    for c in (3, 9, 499):
        base = CyclotomicBase(c)
        oracle = [q for q in range(300_000) if flags[q] and _inert_or_false(q, c)]
        for edge in edges:
            below = sum(q < edge for q in oracle)
            for k in (below, below + 1):
                want = oracle[:k]
                assert select_primes(base, k) == want, (c, k)
                assert select_primes(base, k, ceiling=want[-1]) == want, (c, k)
                with pytest.raises(arith.SearchExhausted) as exc:
                    select_primes(base, k, ceiling=want[-1] - 1)
                assert str(exc.value) == (
                    f"found only {k - 1} of {k} primes below {want[-1] - 1}"
                )
