import pytest

from towerbound.bounds import (
    AbelianVarietyDesc,
    PlanNotInflated,
    TorsionHypothesisUnmet,
    ambiguous_lower,
    build_certificate,
    fine_selmer_lower,
)
from towerbound.fixtures import build_plan, get_fixture
from towerbound.tower import CyclotomicBase, GroupSpec, build_tower_plan


def test_ambiguous_lower():
    assert ambiguous_lower(42, 40) == 2
    assert ambiguous_lower(90, 120) == 0
    assert ambiguous_lower(0, 1) == 0
    with pytest.raises(ValueError):
        ambiguous_lower(-1, 10)
    with pytest.raises(ValueError):
        ambiguous_lower(5, 0)


def test_fine_selmer_requires_declared_gap():
    plan = build_tower_plan(
        5, GroupSpec(p=3, dimension=1, action_order=2), CyclotomicBase(3), 2
    )
    av = get_fixture("example1").av
    assert av is not None
    with pytest.raises(PlanNotInflated):
        fine_selmer_lower(plan, av, 0)
    with pytest.raises(PlanNotInflated):
        build_certificate(plan, av=av)


def test_fine_selmer_requires_torsion():
    plan = build_plan("example1")
    no_torsion = AbelianVarietyDesc(
        label="37a1", dimension=1, torsion_at_kummer_prime=False, bad_primes=(37,)
    )
    with pytest.raises(TorsionHypothesisUnmet):
        fine_selmer_lower(plan, no_torsion, 1)


def test_fine_selmer_values_example1():
    plan = build_plan("example1")
    av = get_fixture("example1").av
    got = [fine_selmer_lower(plan, av, n) for n in range(5)]
    assert [b.claimed for b in got] == [2, 6, 18, 54, 162]
    assert [b.conservative for b in got] == [0, 4, 16, 52, 160]
    # the pace is min(ell, p) = 3, not ell = 5
    assert got[1].claimed * 3 == got[2].claimed


def test_certificate_rows_and_trace():
    fx = get_fixture("example3")
    plan = build_plan("example3")
    cert = build_certificate(plan, av=fx.av, n_max=2)
    assert [r.class_rank_bound for r in cert.rows] == [6, 42, 294]
    assert [r.fine_claimed for r in cert.rows] == [6, 18, 54]
    assert [r.fine_conservative for r in cert.rows] == [4, 16, 52]
    rules = [t.rule for t in cert.trace]
    assert "class-rank-chain" in rules
    assert "fine-selmer-chain" in rules
    # every trace line carries its rule id in the rendered text
    text = "\n".join(cert.to_text_lines())
    for rule in rules:
        assert f"[{rule}]" in text


def test_certificate_diagnostic_codes():
    fx = get_fixture("example1")
    cert = build_certificate(build_plan("example1"), av=fx.av, n_max=1)
    codes = {d.code for d in cert.diagnostics}
    assert {
        "SCLASS-GAP-DIRECTION",
        "SCLASS-GAP-BASE",
        "FINE-SELMER-FINAL-STEP",
        "UNINFLATED-PLAN",
        "EXTERNAL-DATABASE-FACT",
    } <= codes


def test_certificate_without_variety_has_no_fine_columns():
    cert = build_certificate(build_plan("example2"), n_max=2)
    assert all(r.fine_claimed is None for r in cert.rows)
    assert [r.class_rank_bound for r in cert.rows] == [0, 0, 0]
    codes = {d.code for d in cert.diagnostics}
    assert "EX2-T-FORMULA" in codes and "EX2-DIM-INCONSISTENT" in codes
    assert "SCLASS-GAP-DIRECTION" not in codes


def test_certificate_json_rows_are_numbers_at_desk_scale():
    fx = get_fixture("example1")
    cert = build_certificate(build_plan("example1"), av=fx.av, n_max=3)
    doc = cert.to_json_doc()
    assert doc["rows"][3]["class_rank_bound"] == 54
    assert doc["rows"][0]["fine_selmer_conservative"] == 0
