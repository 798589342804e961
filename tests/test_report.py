"""The one term renderer in report, checked against the two renderers it replaced, and
the canonical JSON writer's record-list path, checked against ``json.dumps``."""

import json
import random

import pytest

from towerbound import report
from towerbound.arith import format_decimal
from towerbound.cyclotomic import CycloElement, cyclotomic_polynomial, parse_cyclo_element
from towerbound.tower import RelativeCubicBase


def _old_format_poly(p, var="x"):
    """The polynomial renderer as it was, each coefficient through ``str``."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    if not p:
        return "0"
    parts = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            xpart = var if e == 1 else f"{var}^{e}"
            body = xpart if mag == 1 else f"{mag}*{xpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _old_zeta_token(m, e, unicode_ok):
    if unicode_ok:
        tok = "ζ" + str(m).translate(_SUB)
        if e > 1:
            tok += str(e).translate(_SUP)
        return tok
    tok = f"zeta{m}"
    if e > 1:
        tok += f"^{e}"
    return tok


def _old_render_element(el, unicode_ok):
    """The zeta-notation renderer as it was."""
    coeffs = el.coeffs
    m = el.modulus.m
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = format_decimal(mag)
        else:
            tok = _old_zeta_token(m, e, unicode_ok)
            body = tok if mag == 1 else format_decimal(mag) + tok
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    if not parts:
        return "0"
    return " ".join(parts)


def _coefficients(rng, n):
    """n coefficients mixing 0, +-1 and larger values of either sign."""
    pick = (0, 0, 1, -1, rng.randrange(2, 10), -rng.randrange(2, 10**30))
    return [rng.choice(pick) for _ in range(n)]


def test_format_poly_matches_the_old_renderer():
    rng = random.Random(17)
    cases = [[], [0, 0], [1], [-1], [0, 1], [0, -1], [-1, -4, -1, 1], [5, 0, -7]]
    cases += [_coefficients(rng, rng.randrange(0, 9)) for _ in range(400)]
    for p in cases:
        for var in ("x", "theta", "y"):
            assert report.format_poly(p, var) == _old_format_poly(p, var), (p, var)


def test_format_cyclo_matches_the_old_renderer():
    rng = random.Random(19)
    for m in (1, 3, 7, 9, 12, 31):
        mod = cyclotomic_polynomial(m)
        cases = [(0,) * mod.phi, (1,) + (0,) * (mod.phi - 1), (-1,) * mod.phi]
        cases += [tuple(_coefficients(rng, mod.phi)) for _ in range(60)]
        for coeffs in cases:
            el = CycloElement(mod, coeffs)
            for unicode_ok in (True, False):
                text = report.format_cyclo(el, unicode_ok)
                assert text == _old_render_element(el, unicode_ok), (m, coeffs)
                assert parse_cyclo_element(text, m) == el


def test_a_relative_base_with_a_coefficient_past_the_int_string_limit_renders():
    # The old renderer put each coefficient through str and raised ValueError here.
    label = report.base_label(RelativeCubicBase(7, (10**5000, 0, 0, 1)))
    assert label == f"Q(zeta_7)(theta), theta^3 + 1{'0' * 5000} = 0"
    assert len(label) == 5033


class _Int(int):
    pass


class _Str(str):
    pass


# Keys and values a list of flat records may hold, and those that make it not one.
_PLAIN_KEYS = ["a", "b", "layer", "q", "x y", "%", "50%", "%d", "%s", "{", "}", "{0}", "~"]
_UNSAFE_KEYS = ['"', "\\", "a\"b", "\u00e9", "\x00", "\x1f", "\x7f", "\n"]
_PLAIN_VALUES = [0, 1, -1, -42, 2**53 - 1, 2**53 + 1, -(2**53 - 1), -(2**53 + 1), 10**30,
                 "", "0", "-7", "1" * 300, "a b", "%s", "%d", "%%", "{}", "~"]
_UNSAFE_VALUES = ['"', "\\", "1\"2", "\u00e9", "\x00", "\x1f", "\x7f", "\n", "\U0001f600",
                  True, False, None, 0.5, -0.0, _Int(7), _Str("x")]


def _random_records(rng):
    """A list of records with shuffled key orders, and whether they are flat.

    They are flat unless one change breaks it: an unsafe or non-int/str value, an
    unsafe key in every record, another key set in one record, or one record
    emptied.
    """
    keys = rng.sample(_PLAIN_KEYS, rng.randrange(1, 5))
    records = [{k: rng.choice(_PLAIN_VALUES) for k in rng.sample(keys, len(keys))}
               for _ in range(rng.randrange(1, 6))]
    change, victim = rng.randrange(6), rng.choice(records)
    if change == 1:
        victim[rng.choice(keys)] = rng.choice(_UNSAFE_VALUES)
    elif change == 2:
        key = rng.choice(_UNSAFE_KEYS)
        for record in records:
            record[key] = rng.choice(_PLAIN_VALUES)
    elif change == 3:  # a key dropped, one added, or one swapped for another
        how = rng.randrange(3)
        if how != 1:
            del victim[rng.choice(keys)]
        if how != 0:
            victim[rng.choice([k for k in _PLAIN_KEYS if k not in keys])] = 0
    elif change == 4:
        victim.clear()
    flat = change in (0, 5)
    return (tuple(records) if rng.random() < 0.3 else records), flat


def test_record_lists_match_json_dumps():
    rng = random.Random(20261019)
    taken = refused = 0
    for _ in range(1500):
        records, flat = _random_records(rng)
        for doc in (records, {"rows": records, "n": [records, 1]}):
            expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
            assert report.stable_json(doc) == expected, doc
        if len(records) > 1:  # one record takes the item-by-item path
            assert (report._record_list(records, "\n") is not None) == flat, records
            taken, refused = taken + flat, refused + (not flat)
    assert taken > 300 and refused > 600  # both paths run often


def test_stable_json_refuses_what_json_dumps_refuses():
    # report reaches json's C encoder without the json package, so its
    # refusal of a value is written here; the text must stay json's own
    for bad in ({1, 2}, object(), {"a": [1, {2}]}, [{"k": 1}, {"k": frozenset()}]):
        with pytest.raises(TypeError) as ours:
            report.stable_json(bad)
        with pytest.raises(TypeError) as theirs:
            json.dumps(bad, sort_keys=True, indent=2, ensure_ascii=True)
        assert str(ours.value) == str(theirs.value)
