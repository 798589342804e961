import json

import pytest

from towerbound import arith
from towerbound.bounds import (
    AbelianVarietyDesc,
    PlanNotInflated,
    TorsionHypothesisUnmet,
    _row_digits,
    build_certificate,
)
from towerbound.fixtures import build_plan, get_fixture
from towerbound.tower import CyclotomicBase, GroupSpec, build_tower_plan


def test_fine_selmer_requires_declared_gap():
    plan = build_tower_plan(
        5, GroupSpec(p=3, dimension=1, action_order=2), CyclotomicBase(3), 2
    )
    av = get_fixture("example1").av
    assert av is not None
    with pytest.raises(PlanNotInflated):
        build_certificate(plan, av=av)


def test_fine_selmer_requires_torsion():
    plan = build_plan("example1")
    no_torsion = AbelianVarietyDesc(
        label="37a1", dimension=1, torsion_at_kummer_prime=False, bad_primes=(37,)
    )
    with pytest.raises(TorsionHypothesisUnmet):
        build_certificate(plan, av=no_torsion, n_max=1)


def test_fine_selmer_values_example1():
    plan = build_plan("example1")
    av = get_fixture("example1").av
    got = build_certificate(plan, av=av, n_max=4).rows
    assert [r.fine_claimed for r in got] == [2, 6, 18, 54, 162]
    assert [r.fine_conservative for r in got] == [0, 4, 16, 52, 160]
    # the pace is min(ell, p) = 3, not ell = 5
    assert got[1].fine_claimed * 3 == got[2].fine_claimed


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


@pytest.mark.parametrize("fid", ["example1", "example2", "example3"])
def test_certificate_rows_at_n_max_1000_match_closed_forms(run_cli, fid):
    fx, plan = get_fixture(fid), build_plan(fid)
    g, t, p = plan.group, plan.ramified_target, plan.p
    d0 = g.action_order * plan.ell * (plan.ell - 1) * g.dimension
    code, out, err = run_cli("certificate", fid, "--n-max", "1000", "--json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 1001
    for n, row in enumerate(rows):
        want = {
            "layer": n,
            "ramified_places": t * p**n,
            "layer_degree": d0 * p**n,
            "ambiguous_bound": max(t - d0, 0) * p**n,
            "class_rank_bound": max(t - d0, 0) * p**n,
        }
        if fx.av is not None:
            f, q = plan.rank_target, min(plan.ell, p)
            want["fine_selmer_claimed"] = f * q**n
            want["fine_selmer_conservative"] = max(f * q**n - 2 * fx.av.dimension, 0)
        assert {k: int(v) for k, v in row.items()} == want, n


@pytest.mark.parametrize(
    "fid, p, n_max",
    [("example1", None, 1000), ("example2", None, 1000), ("example3", None, 1000),
     ("example1", 2, 1000), ("example1", 10**60 + 7, 150)],
)
def test_row_digit_estimate_bounds_the_digits_built(fid, p, n_max):
    plan, av = build_plan(fid), get_fixture(fid).av
    if p is not None:  # the fixture's ell over Q(zeta_4) or Q(zeta_3)
        group = GroupSpec(p=p, dimension=1, action_order=2)
        plan = build_tower_plan(plan.ell, group, CyclotomicBase(4 if p == 2 else 3), 2)
        av = None
    cert = build_certificate(plan, av=av, n_max=n_max)
    built = sum(
        len(arith.format_decimal(v))
        for r in cert.rows
        for v in (r.ramified_places, r.layer_degree, r.ambiguous_bound,
                  r.class_rank_bound, r.fine_claimed, r.fine_conservative)
        if v is not None
    )
    top = cert.rows[0]  # each column's cells are its layer-0 cell times b^n
    columns = [(c, plan.p, 0) for c in (top.ramified_places, top.layer_degree,
                                        top.ambiguous_bound, top.class_rank_bound)]
    if av is not None:
        q = min(plan.ell, plan.p)
        columns += [(top.fine_claimed, q, 0), (top.fine_claimed, q, 2 * av.dimension)]
    assert built <= _row_digits(n_max, columns) <= 1.3 * built
