"""Rendering: every JSON document (schema 1) and text block the CLI prints.

Domain objects carry data only; this module alone knows how they look.  One
term renderer writes integer polynomials (``x^3 - x^2 - 4*x - 1``) and
zeta-notation (``2ζ₇³ + 1``, or ``2zeta7^3 + 1`` in ASCII), every integer
through ``arith.format_decimal``; small label functions name the group, the
base field, its fixed subfield and a prime's splitting type.  Certificate
cells are rendered from the (c, b, margin) column table alone.  Canonical JSON
writes each list of two or more flat records (plain-ASCII dicts with the same
keys and int or str values) in one ``%`` pass.  Each document ``kind`` has
one function for its JSON body and one for its text here, and the CLI calls
the one for the format the user asked for.  Objects are read by their
attributes, so this module imports only ``arith`` and any module may import
it.
"""

from __future__ import annotations

from _json import encode_basestring_ascii, make_encoder
from collections.abc import Callable
from functools import cache
from itertools import accumulate, chain, compress, repeat, takewhile
from operator import add, is_, mul

from .arith import exact_decimal_context, format_decimal

__all__ = [
    "SCHEMA_VERSION",
    "json_safe_int",
    "format_poly",
    "format_cyclo",
    "group_label",
    "base_label",
    "fixed_subfield_label",
    "classification",
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


def _terms(coeffs, power: Callable[[int], str], times: str = "") -> str:
    """The nonzero ``c * power(e)``, highest e first, joined by signs; "0" if none."""
    parts: list[str] = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c:
            mag = format_decimal(abs(c))
            body = mag if e == 0 else power(e) if mag == "1" else mag + times + power(e)
            sign = ("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")
            parts.append(sign + body)
    return " ".join(parts) or "0"


def format_poly(p, var: str = "x") -> str:
    """An integer polynomial, constant term first, as ``x^3 - x^2 - 4*x - 1``."""
    return _terms(p, lambda e: var if e == 1 else f"{var}^{e}", "*")


_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def format_cyclo(el, unicode_ok: bool = True) -> str:
    """An element of Z[zeta_m] as ``2ζ₇³ + 1``, or ``2zeta7^3 + 1`` in ASCII."""
    m = str(el.modulus.m)
    if unicode_ok:
        zeta, exp = "ζ" + m.translate(_SUB), lambda e: str(e).translate(_SUP)
    else:
        zeta, exp = "zeta" + m, lambda e: f"^{e}"
    return _terms(el.coeffs, lambda e: zeta + exp(e) if e > 1 else zeta)


def group_label(group) -> str:
    if group.family == "abelian":
        return f"Z_{group.p}^{group.dimension} (abelian)"
    return (
        f"class-2 nilpotent on x, y, z with [x,z] = [y,z] = 1 and "
        f"[x,y] = z^({group.p}^{group.twist_exponent})"
    )


def base_label(base) -> str:
    """Q(zeta_c), or Q(zeta_c)(theta) with the cubic of a relative base."""
    cyclo = f"Q(zeta_{base.conductor})"
    poly = getattr(base, "poly", None)  # a relative base's defining cubic
    return cyclo if poly is None else f"{cyclo}(theta), {format_poly(poly, 'theta')} = 0"


def fixed_subfield_label(base) -> str:
    """K0: the real subfield of Q(zeta_c), or Q(zeta_c) under a relative base."""
    cyclo = f"Q(zeta_{base.conductor})"
    return cyclo + "^+" if getattr(base, "poly", None) is None else cyclo


def classification(sd) -> str:
    """How a prime with splitting data ``sd`` (None when it divides the conductor) splits."""
    if sd is None or sd.e != 1:
        return "ramified"
    if sd.f == 1:
        return "totally split"
    return "inert" if sd.g == 1 else "partially split"


def stable_json(doc: object) -> str:
    """Canonical JSON: sorted keys, two-space indent, ASCII only, newline end.

    For str-keyed documents the bytes are those of ``json.dumps(doc,
    sort_keys=True, indent=2, ensure_ascii=True)``, and byte-identical output
    for equal documents is part of the CLI contract.  ``json.dumps`` runs its
    pure-Python encoder whenever it indents, so containers are laid out here.
    Each container of scalars goes to the C encoder whole.  Each list of two
    or more flat records, dicts with the same str keys and exact int or str
    values whose keys and strings are printable ASCII with no ``"`` or ``\\``,
    is one ``%`` pass over a template per tuple of value types.  Everything
    else is written item by item.
    """
    return _indented(doc, "\n") + "\n"


# Items of exactly these types make a container the C encoder writes whole.
_SCALARS = frozenset({str, int, float, bool, type(None)})
# Printable ASCII but " and \: text of only these bytes needs no escapes.
_PLAIN = bytes(range(32, 127)).translate(None, b'"\\')


def _unencodable(o: object):
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


@cache
def _flat_encoder(pad: str) -> Callable:
    # Encodes a scalar or a container of scalars, its items separated by pad:
    # the C encoder behind ``json``, whose package loads its decoder as well.
    return make_encoder(None, _unencodable, encode_basestring_ascii,
                        None, ": ", "," + pad, True, False, True)


def _indented(o: object, pad: str) -> str:
    """``o`` as indented JSON, its closing bracket after ``pad`` (newline, indent)."""
    inner = pad + "  "
    is_dict = isinstance(o, dict)
    items = o.values() if is_dict else o if isinstance(o, (list, tuple)) else ()
    if _SCALARS.issuperset(map(type, items)):
        text = "".join(_flat_encoder(inner)(o, 0))
        return f"{text[0]}{inner}{text[1:-1]}{pad}{text[-1]}" if items else text
    if is_dict:
        body = f",{inner}".join([f"{encode_basestring_ascii(k)}: {_indented(v, inner)}"
                                 for k, v in sorted(o.items())])
        return f"{{{inner}{body}{pad}}}"
    records = _record_list(o, pad) if len(o) > 1 else None
    return records or f"[{inner}{f',{inner}'.join([_indented(v, inner) for v in o])}{pad}]"


def _record_list(o, pad: str) -> str | None:
    """A list of flat records (see :func:`stable_json`) in one ``%`` pass, or None."""
    first = o[0]
    keys = sorted(first) if type(first) is dict else ()
    if not (keys and {str}.issuperset(map(type, keys)) and {dict}.issuperset(map(type, o))
            and {len(keys)} == set(map(len, o))):
        return None
    # A key missing from a record reads None, which no flat record holds.
    values = tuple(chain.from_iterable(zip(*[map(dict.get, o, repeat(k)) for k in keys])))
    kinds = tuple(map(type, values))
    if not {int, str}.issuperset(kinds):
        return None
    strs = [*keys, *compress(values, map(is_, kinds, repeat(str)))]
    for i in range(0, len(strs), 256):  # in chunks, so as not to copy the whole block
        text = "".join(strs[i:i + 256])
        if not text.isascii() or text.encode().translate(None, _PLAIN):
            return None
    types = list(zip(*[iter(kinds)] * len(keys)))
    inner, slot = pad + "  ", {int: "%d", str: '"%s"'}
    heads = [f'{inner}  "{k.replace("%", "%%")}": ' for k in keys]
    templates = {sig: f"{{{','.join(map(add, heads, map(slot.get, sig)))}{inner}}}"
                 for sig in set(types)}
    return f"[{inner}{f',{inner}'.join(map(templates.__getitem__, types))}{pad}]" % values


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
    """Flat records (diagnostics, trace steps) map 1:1 onto JSON."""
    return [it._asdict() for it in items]


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
        {"id": "K0", "label": fixed_subfield_label(plan.base)},
        {"id": "K", "label": base_label(plan.base)},
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
        {"from": "K", "to": "K_tower", "degree": group_label(plan.group)},
        {"from": "K_tower", "to": "K_tower_zeta", "degree": None},
        {"from": "K_tower_zeta", "to": "L_tower", "degree": None},
        {"from": "L", "to": "L_tower", "degree": None},
        {"from": "K_zeta", "to": "K_tower_zeta", "degree": None},
    ]
    return {"nodes": nodes, "edges": edges}


def _plan_doc(plan) -> dict:
    alpha = format_decimal(plan.alpha)
    base = {
        "description": base_label(plan.base),
        "conductor": plan.base.conductor,
    }
    poly = getattr(plan.base, "poly", None)  # a relative base's defining cubic
    if poly is not None:
        base["relative_poly"] = format_poly(poly)
    group = {k: json_safe_int(v) if type(v) is int else v
             for k, v in plan.group._asdict().items()}
    doc: dict = {
        "ell": json_safe_int(plan.ell),
        "p": json_safe_int(plan.p),
        "rank_target": plan.rank_target,
        "effective_rank_target": plan.effective_rank_target,
        "group": {**group, "description": group_label(plan.group)},
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
    if plan.gap_rank is not None:
        doc["gap_inflation"] = {"fine_rank_target": plan.rank_target,
                                "gap_rank": plan.gap_rank}
    return doc


# From this size on a cell costs less as one exact Decimal product by its
# column's base plus one str, both linear in the digits, than as str on an
# int, which is quadratic in CPython 3.11.
_DECIMAL_CELL = 10**200

_ROW_KEYS = ("layer", "ramified_places", "layer_degree", "ambiguous_bound",
             "class_rank_bound", "fine_selmer_claimed", "fine_selmer_conservative")
_ROW_HEADERS = ("layer", "ramified", "degree", "ambiguous", "class-rank",
                "fine-claimed", "fine-conservative")


def _cell_columns(cert, json_ints: bool) -> list[list]:
    """A certificate's columns, the layers first, each cell a decimal string.

    With ``json_ints`` cells below 2^53 stay ints.  Cell n of the column with
    (c, b, margin) in ``cert.columns`` is max(c * b^n - margin, 0): a running
    int product by b below _DECIMAL_CELL, a running exact Decimal one from
    there on.  Equal columns are rendered once.
    """
    n_max = cert.n_max
    out = [list(range(n_max + 1)) if json_ints else list(map(str, range(n_max + 1)))]
    rendered = {}
    for c, b, margin in dict.fromkeys(cert.columns):
        vals = list(takewhile((_DECIMAL_CELL + margin).__gt__,
                              accumulate(repeat(b, n_max), mul, initial=c)))
        ints = [max(v - margin, 0) for v in vals] if margin else vals
        a = sum(map(_JSON_INT_LIMIT.__gt__, ints)) if json_ints else 0
        cells = [*ints[:a], *map(str, ints[a:])]
        if len(vals) <= n_max:  # from here on c * b^n - margin is past 0
            ctx = exact_decimal_context()
            run = accumulate(repeat(ctx.create_decimal(b), n_max - len(vals)), ctx.multiply,
                             initial=ctx.create_decimal(vals[-1] * b if vals else c))
            if margin:
                run = map(ctx.subtract, run, repeat(ctx.create_decimal(margin)))
            cells += map(str, run)
        rendered[c, b, margin] = cells
    return out + [rendered[col] for col in cert.columns]


def certificate_doc(cert) -> dict:
    """A certificate's JSON; callers reach it as ``BoundCertificate.to_json_doc``."""
    return {
        "n_max": cert.n_max,
        "gap_rank": cert.gap_rank,
        "abelian_variety": cert.av._asdict() if cert.av else None,
        "rows": [dict(zip(_ROW_KEYS, cells)) for cells in zip(*_cell_columns(cert, True))],
        "trace": _records(cert.trace),
        "diagnostics": _records(cert.diagnostics),
    }


def certificate_lines(cert) -> list[str]:
    """A certificate's text; callers reach it as ``BoundCertificate.to_text_lines``."""
    cols = _cell_columns(cert, False)
    widths = [max(len(head), *map(len, col)) for head, col in zip(_ROW_HEADERS, cols)]
    rows = [_ROW_HEADERS, ["-" * w for w in widths], *zip(*cols)]
    lines = ["  ".join(map(str.rjust, row, widths)) for row in rows]
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
        "checks": [{**c._asdict(), "diagnostics": _records(c.diagnostics)} for c in r.checks],
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
                f"group={group_label(p.group)} base={base_label(p.base)}"
            )
            places = len(p.selected_primes) * p.base.places_per_prime
            lines.append(
                f"  selection: {len(p.selected_primes)} primes, {places} places, "
                f"alpha has {len(format_decimal(p.alpha))} digits"
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
        f"  group: {group_label(plan.group)}",
        f"  base: {base_label(plan.base)}",
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
        "target": json_safe_int(d["target"]),
        "factors": [format_cyclo(f, False) for f in d["factors"]],
        "factor_norms": [format_decimal(n) for n in d["factor_norms"]],
        "product": format_cyclo(d["product"], False),
        "diagnostics": _records(d["diagnostics"]),
    }


def _factor_check_lines(d: dict) -> list[str]:
    return [
        f"conductor: {d['conductor']}",
        f"target: {d['target']}",
        f"factors: {len(d['factors'])} "
        f"(norms: {', '.join(map(format_decimal, d['factor_norms']))})",
        f"product: {format_cyclo(d['product'])}",
        f"status: {d['status']}",
        *map(_diagnostic_line, d["diagnostics"]),
    ]


def _splitting_body(d: dict) -> dict:
    sd, diags = d["sd"], d["diagnostics"]
    return {
        "conductor": d["conductor"],
        "prime": json_safe_int(d["prime"]),
        "classification": classification(sd),
        "e": sd.e if sd else None,
        "f": sd.f if sd else None,
        "g": sd.g if sd else None,
        **({"diagnostics": _records(diags)} if diags else {}),  # only with a caveat
    }


def _splitting_lines(d: dict) -> list[str]:
    sd = d["sd"]
    found = ("ramified (divides the conductor)" if sd is None
             else f"e={sd.e} f={sd.f} g={sd.g} - {classification(sd)}")
    return [f"{d['prime']} in Q(zeta_{d['conductor']}): {found}",
            *map(_diagnostic_line, d["diagnostics"])]


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
        lambda d: {**d, "excluded": [json_safe_int(q) for q in d["excluded"]]},
        lambda d: [f"first {d['count']} primes inert in Q(zeta_{d['conductor']}): "
                   + ", ".join(map(str, d["primes"]))],
    ),
}
