"""Rendering: every JSON document (schema 1) and text block the CLI prints.

Domain objects carry data only; this module turns them into output.  Each
document ``kind`` has one function for its JSON body and one for its text
here, and the CLI calls the one for the format the user asked for.  Objects are read by their attributes, so
this module imports no domain module (only the integer and polynomial
formatters) and any module may import it.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from .arith import format_decimal
from .zpoly import format_poly

__all__ = [
    "SCHEMA_VERSION",
    "json_safe_int",
    "stable_json",
    "wrap_document",
    "document_body",
    "text_block",
    "check_line",
    "field_diagram",
    "certificate_doc",
    "certificate_lines",
]

SCHEMA_VERSION = 1

# JSON numbers are only faithful up to 2**53; bigger integers go out as
# decimal strings so consumers in any language round-trip them exactly.
_JSON_INT_LIMIT = 2**53


def json_safe_int(v: int) -> int | str:
    return v if -_JSON_INT_LIMIT < v < _JSON_INT_LIMIT else format_decimal(v)


def stable_json(doc: Any) -> str:
    """Canonical JSON: sorted keys, two-space indent, ASCII only, newline end.

    Byte-identical output for equal documents is part of the CLI contract.
    """
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def wrap_document(kind: str, body: dict) -> dict:
    doc = {"schema": SCHEMA_VERSION, "kind": kind}
    doc.update(body)
    return doc


def document_body(kind: str, data: dict) -> dict:
    """The body of a ``kind`` document, before :func:`wrap_document`."""
    return _KINDS[kind][0](data)


def text_block(kind: str, data: dict) -> str:
    """The text block of ``kind``, newline-terminated."""
    return "\n".join(_KINDS[kind][1](data)) + "\n"


def _records(items) -> list[dict]:
    """Pure records (diagnostics, trace steps, checks) map 1:1 onto JSON."""
    return [asdict(it) for it in items]


def _diagnostic_line(d) -> str:
    return f"[{d.severity}:{d.code}] {d.message}"


def check_line(item) -> str:
    """One validated condition as ``[ok|FAIL] name (detail)``."""
    mark = "ok" if item.ok else "FAIL"
    tail = f" ({item.detail})" if item.detail else ""
    return f"[{mark}] {item.name}{tail}"


def field_diagram(plan) -> dict:
    """Node/edge description of the field lattice a plan works in."""
    ell = plan.ell
    nodes = [
        {"id": "K0", "label": plan.base.fixed_subfield_label()},
        {"id": "K", "label": plan.base.describe()},
        {"id": "K_zeta", "label": f"K(zeta_{ell})"},
        {"id": "L", "label": f"K(zeta_{ell}, alpha^(1/{ell}))"},
        {"id": "K_tower", "label": "K_tower (pro-p tower over K)"},
        {"id": "K_tower_zeta", "label": f"K_tower(zeta_{ell})"},
        {"id": "L_tower", "label": f"K_tower(zeta_{ell}, alpha^(1/{ell}))"},
    ]
    edges = [
        {"from": "K0", "to": "K", "degree": plan.group.action_order},
        {"from": "K", "to": "K_zeta", "degree": ell - 1},
        {"from": "K_zeta", "to": "L", "degree": ell},
        {"from": "K", "to": "K_tower", "degree": plan.group.describe()},
        {"from": "K_tower", "to": "K_tower_zeta", "degree": None},
        {"from": "K_tower_zeta", "to": "L_tower", "degree": None},
        {"from": "L", "to": "L_tower", "degree": None},
        {"from": "K_zeta", "to": "K_tower_zeta", "degree": None},
    ]
    return {"nodes": nodes, "edges": edges}


def _plan_doc(plan) -> dict:
    alpha = format_decimal(plan.alpha)
    base = {
        "description": plan.base.describe(),
        "conductor": plan.base.cyclotomic_conductor,
    }
    poly = getattr(plan.base, "poly", None)  # a relative base's defining cubic
    if poly is not None:
        base["relative_poly"] = format_poly(list(poly), var="x")
    doc: dict = {
        "ell": plan.ell,
        "p": plan.p,
        "rank_target": plan.rank_target,
        "effective_rank_target": plan.effective_rank_target,
        "group": {**asdict(plan.group), "description": plan.group.describe()},
        "base": base,
        "ramified_target": plan.ramified_target,
        "ramified_target_formula": plan.ramified_target_formula,
        "selected_primes": list(plan.selected_primes),
        "selected_places": [
            {"q": pl.q} if pl.root is None else {"q": pl.q, "root": pl.root}
            for pl in plan.selected_places
        ],
        "alpha": alpha,
        "alpha_digits": len(alpha),
        "first_effective_layer": plan.first_effective_layer,
        "field_diagram": field_diagram(plan),
        "diagnostics": _records(plan.diagnostics),
    }
    if plan.gap_inflation is not None:
        doc["gap_inflation"] = asdict(plan.gap_inflation)
    return doc


def _row_doc(r) -> dict:
    out: dict = {
        "layer": r.layer,
        "ramified_places": json_safe_int(r.ramified_places),
        "layer_degree": json_safe_int(r.layer_degree),
        "ambiguous_bound": json_safe_int(r.ambiguous_bound),
        "class_rank_bound": json_safe_int(r.class_rank_bound),
    }
    if r.fine_claimed is not None:
        out["fine_selmer_claimed"] = json_safe_int(r.fine_claimed)
        out["fine_selmer_conservative"] = json_safe_int(r.fine_conservative or 0)
    return out


def certificate_doc(cert) -> dict:
    """A certificate's JSON; callers reach it as ``BoundCertificate.to_json_doc``."""
    return {
        "n_max": cert.n_max,
        "gap_rank": cert.gap_rank,
        "abelian_variety": asdict(cert.av) if cert.av else None,
        "rows": [_row_doc(r) for r in cert.rows],
        "trace": _records(cert.trace),
        "diagnostics": _records(cert.diagnostics),
    }


def certificate_lines(cert) -> list[str]:
    """A certificate's text; callers reach it as ``BoundCertificate.to_text_lines``."""
    fine = cert.av is not None
    headers = ["layer", "ramified", "degree", "ambiguous", "class-rank"]
    if fine:
        headers += ["fine-claimed", "fine-conservative"]
    table = [headers]
    for r in cert.rows:
        cells = [r.layer, r.ramified_places, r.layer_degree, r.ambiguous_bound,
                 r.class_rank_bound]
        if fine:
            cells += [r.fine_claimed, r.fine_conservative]
        table.append([format_decimal(c) for c in cells])
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    lines.append("")
    lines.append("inequality trace:")
    for t in cert.trace:
        lines.append(f"  [{t.rule}] {t.statement}")
    if cert.diagnostics:
        lines.append("")
        lines.append("caveats:")
        for d in cert.diagnostics:
            lines.append(f"  {_diagnostic_line(d)}")
    return lines


def _run_body(r) -> dict:
    return {
        "fixture": r.fixture_id,
        "title": r.title,
        "checks": _records(r.checks),
        "diagnostics": _records(r.all_diagnostics()),
        "result": r.result,
        "plan": _plan_doc(r.plan) if r.plan else None,
        "certificate": r.certificate.to_json_doc() if r.certificate else None,
    }


def _batch_body(d: dict) -> dict:
    return {"runs": [wrap_document("reproduction", _run_body(r)) for r in d["results"]]}


def _reproduction_lines(d: dict) -> list[str]:
    lines: list[str] = []
    for r in d["results"]:
        if lines:
            lines.append("")
        lines.append(f"reproduction: {r.fixture_id} - {r.title}")
        if r.plan is not None:
            p = r.plan
            lines.append(
                f"  parameters: ell={p.ell} p={p.p} rank-target={p.rank_target} "
                f"group={p.group.describe()} base={p.base.describe()}"
            )
            lines.append(
                f"  selection: {len(p.selected_primes)} primes, "
                f"{len(p.selected_places)} places, alpha has "
                f"{len(format_decimal(p.alpha))} digits"
            )
        lines.append("  checks:")
        for c in r.checks:
            lines.append(f"    [{c.status}] {c.name} - {c.detail}")
        if r.certificate is not None:
            lines.append("")
            lines.append("  certificate:")
            lines.extend("    " + ln for ln in r.certificate.to_text_lines())
        diags = r.all_diagnostics()
        if diags:
            lines.append("")
            lines.append("  diagnostics:")
            for diag in diags:
                lines.append(f"    {_diagnostic_line(diag)}")
        lines.append("")
        lines.append(f"result: {r.result}")
    return lines


def _construction_lines(d: dict) -> list[str]:
    plan = d["plan"]
    alpha = format_decimal(plan.alpha)
    return [
        "construction",
        f"  group: {plan.group.describe()}",
        f"  base: {plan.base.describe()}",
        f"  ramified-place target: {plan.ramified_target}"
        f" (formula value {plan.ramified_target_formula})",
        f"  selected primes ({len(plan.selected_primes)}): "
        + ", ".join(map(str, plan.selected_primes)),
        f"  alpha ({len(alpha)} digits): {alpha}",
        "",
        *d["cert"].to_text_lines(),
    ]


def _factor_check_body(d: dict) -> dict:
    return {
        **d,
        "factors": [f.render(False) for f in d["factors"]],
        "factor_norms": [format_decimal(n) for n in d["factor_norms"]],
        "product": d["product"].render(False),
        "diagnostics": _records(d["diagnostics"]),
    }


def _factor_check_lines(d: dict) -> list[str]:
    return [
        f"conductor: {d['conductor']}",
        f"target: {d['target']}",
        f"factors: {len(d['factors'])} "
        f"(norms: {', '.join(map(format_decimal, d['factor_norms']))})",
        f"product: {d['product'].render()}",
        f"status: {d['status']}",
        *map(_diagnostic_line, d["diagnostics"]),
    ]


def _splitting_body(d: dict) -> dict:
    sd = d["sd"]
    return {
        "conductor": d["conductor"],
        "prime": d["prime"],
        "classification": sd.classification if sd else "ramified",
        "e": sd.e if sd else None,
        "f": sd.f if sd else None,
        "g": sd.g if sd else None,
    }


def _splitting_lines(d: dict) -> list[str]:
    sd = d["sd"]
    head = f"{d['prime']} in Q(zeta_{d['conductor']}): "
    if sd is None:
        return [head + "ramified (divides the conductor)"]
    return [head + f"e={sd.e} f={sd.f} g={sd.g} - {sd.classification}"]


#: kind -> (JSON body, text lines); each function takes the data a command returns
_KINDS = {
    "reproduction": (lambda d: _run_body(*d["results"]), _reproduction_lines),
    "reproduction-batch": (_batch_body, _reproduction_lines),
    "construction": (
        lambda d: {"plan": _plan_doc(d["plan"]), "certificate": d["cert"].to_json_doc()},
        _construction_lines,
    ),
    "certificate": (
        lambda d: {"fixture": d["fixture"], **d["cert"].to_json_doc()},
        lambda d: [f"certificate: {d['fixture']} - {d['title']}",
                   *d["cert"].to_text_lines()],
    ),
    "factor-check": (_factor_check_body, _factor_check_lines),
    "splitting": (_splitting_body, _splitting_lines),
    "inert-primes": (
        dict,  # the data is the body
        lambda d: [f"first {d['count']} primes inert in Q(zeta_{d['conductor']}): "
                   + ", ".join(map(str, d["primes"]))],
    ),
}
