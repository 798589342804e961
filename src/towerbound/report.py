"""Deterministic rendering helpers shared by the CLI surfaces."""

from __future__ import annotations

import json
from typing import Any

from .arith import format_decimal

__all__ = ["SCHEMA_VERSION", "json_safe_int", "stable_json", "wrap_document"]

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
