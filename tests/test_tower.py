import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from towerbound import cyclotomic
from towerbound.tower import (
    AssumptionChecklist,
    ChecklistItem,
    CyclotomicBase,
    EqualPrimes,
    FAMILY_ABELIAN,
    FAMILY_NILPOTENT,
    GroupSpec,
    RelativeCubicBase,
    ValidationFailed,
    build_tower_plan,
    check_assumption,
    ramified_place_target,
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


def _checklist(**overrides):
    base = dict(
        totally_imaginary=ChecklistItem("totally-imaginary", True, "computed-here"),
        contains_p_roots=ChecklistItem("contains-p-th-roots", True, "computed-here"),
        unique_prime_above_p=ChecklistItem(
            "unique-prime-above-p", True, "computed-here"
        ),
        class_group_p_part_trivial=ChecklistItem(
            "class-group-p-part-trivial", True, "external-database"
        ),
    )
    base.update(overrides)
    return AssumptionChecklist(base_description="test base", **base)


def test_check_assumption_derives_p_rationality():
    rep = check_assumption(_checklist())
    assert rep.passed
    derived = [i for i in rep.items if i.name == "derived:p-rational"]
    assert derived and derived[0].ok

    broken = _checklist(
        class_group_p_part_trivial=ChecklistItem(
            "class-group-p-part-trivial", False, "external-database"
        )
    )
    rep = check_assumption(broken)
    assert not rep.passed
    derived = [i for i in rep.items if i.name == "derived:p-rational"]
    assert derived and not derived[0].ok


def test_build_plan_smallest_case():
    plan = build_tower_plan(5, ABELIAN_1, CyclotomicBase(3), 2)
    assert plan.ramified_target == 42
    assert len(plan.selected_primes) == 42
    assert plan.selected_primes[:5] == (2, 5, 11, 17, 23)
    assert 3 not in plan.selected_primes  # p itself never selected
    assert plan.ramified_lower(0) == 42
    assert plan.degree_lower(0) == 40
    assert plan.ramified_lower(2) - plan.degree_lower(2) == 2 * 9
    assert plan.first_effective_layer == 0
    assert plan.gap_inflation is None


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
    assert plan.gap_inflation is not None
    assert plan.gap_inflation.fine_rank_target == 2

    # when ell > p the gap outruns the tower and inflation cannot absorb it
    with pytest.raises(ValidationFailed):
        build_tower_plan(5, ABELIAN_1, CyclotomicBase(3), 2, gap_rank=1)


def test_build_plan_primes_override_is_validated():
    base = RelativeCubicBase(base_conductor=7, poly=(-1, -4, -1, 1))
    checklist = _checklist()
    # 13 is not totally split downstairs (and divides the cubic's
    # discriminant besides), so it cannot qualify
    with pytest.raises(ValidationFailed):
        build_tower_plan(3, NILPOTENT, base, 6, checklist=checklist,
                         primes_override=(13, 43, 127, 491, 673, 953, 1499,
                                          1583, 2129, 2311))
    # too few places to cover the target
    with pytest.raises(ValidationFailed):
        build_tower_plan(3, NILPOTENT, base, 6, checklist=checklist,
                         primes_override=(43, 127, 491))


def test_build_plan_relative_needs_checklist():
    base = RelativeCubicBase(base_conductor=7, poly=(-1, -4, -1, 1))
    with pytest.raises(ValidationFailed) as exc:
        build_tower_plan(3, NILPOTENT, base, 6)
    assert any("checklist-present" in i.name for i in exc.value.report.failures)


def test_relative_base_places():
    base = RelativeCubicBase(base_conductor=7, poly=(-1, -4, -1, 1))
    plan = build_tower_plan(
        3, NILPOTENT, base, 6, checklist=_checklist(),
        primes_override=(43, 127, 491, 673, 953, 1499, 1583, 2129, 2311, 2591),
    )
    assert len(plan.selected_places) == 60
    first_six = [pl for pl in plan.selected_places if pl.q == 43]
    assert [pl.root for pl in first_six] == [4, 11, 16, 21, 35, 41]


def test_field_diagram_edges():
    plan = build_tower_plan(5, ABELIAN_1, CyclotomicBase(3), 2)
    diagram = plan.field_diagram()
    degrees = {(e["from"], e["to"]): e["degree"] for e in diagram["edges"]}
    assert degrees[("K0", "K")] == 2
    assert degrees[("K", "K_zeta")] == 4
    assert degrees[("K_zeta", "L")] == 5
    ids = {n["id"] for n in diagram["nodes"]}
    assert {"K0", "K", "K_zeta", "L", "K_tower", "K_tower_zeta", "L_tower"} <= ids


def test_cyclotomic_prime_qualifies_matches_splitting_data():
    # Naive oracle: the route through splitting_data, which proves q prime
    # again and raises for q | m; over m <= 2 it calls every prime inert.
    primes = [q for q in range(2, 20_000)
              if all(q % d for d in range(2, math.isqrt(q) + 1))]
    for m in range(1, 61):
        base = CyclotomicBase(m)
        for q in primes:
            try:
                want = cyclotomic.is_inert(q, m)
            except cyclotomic.RamifiedPrime:
                want = False
            assert base.prime_qualifies(q) == want, (m, q)
