"""Catalogued reproduction diagnostics.

Every known discrepancy or caveat that reproduction runs can encounter has a
stable code here.  Catalogued diagnostics downgrade what would otherwise be
hard failures into warnings (or notes), so a reproduction can finish with exit
code 0 while still reporting exactly what does not line up.
"""

from __future__ import annotations

from .arith import PROOF_BOUND, WIDE_WITNESS_COUNT, Record

__all__ = ["Diagnostic", "KNOWN_CODES", "make", "probable_primes"]


class Diagnostic(Record):
    """A single catalogued finding attached to a run."""

    code: str
    severity: str  # "warning" or "note"
    message: str


#: code -> (severity, short description of the class of finding)
KNOWN_CODES: dict[str, tuple[str, str]] = {
    "EX1-ALPHA-EXTRA-PRIME": (
        "warning",
        "pinned Kummer element differs from the product of the listed primes "
        "by one extra prime factor",
    ),
    "EX2-T-FORMULA": (
        "warning",
        "pinned ramified-place count disagrees with the count the parameters imply",
    ),
    "EX2-DIM-INCONSISTENT": (
        "warning",
        "stated group dimension is inconsistent with the pinned place count",
    ),
    "EX3-ALPHA-COFACTOR": (
        "warning",
        "pinned Kummer element carries a large cofactor beyond the listed primes",
    ),
    "FACTOR-UNIT-DISCREPANCY": (
        "warning",
        "a product of factors matches the target only up to a root-of-unity sign",
    ),
    "EX3-PRIMES-NOT-MINIMAL": (
        "note",
        "pinned prime list is valid but is not the ascending-minimal choice",
    ),
    "SCLASS-GAP-DIRECTION": (
        "warning",
        "the comparison step between the two class-group variants is used in "
        "the direction favourable to the final bound; treat dependent rows "
        "as conditional",
    ),
    "SCLASS-GAP-BASE": (
        "warning",
        "the gap term grows with the residue characteristic of the Kummer "
        "degree as printed, not the tower characteristic; values follow the "
        "printed convention",
    ),
    "FINE-SELMER-FINAL-STEP": (
        "warning",
        "the last link of the fine-Selmer chain needs the gap term absorbed; "
        "the conservative column subtracts it, the claimed column does not",
    ),
    "UNINFLATED-PLAN": (
        "warning",
        "plan was built without inflating the place count for the gap term "
        "(s0 = 0), so claimed fine-Selmer rows rely on the gap vanishing",
    ),
    "PRE-EFFECTIVE-LAYER": (
        "warning",
        "the rows below the plan's first effective layer are tabulated, not certified",
    ),
    "PROBABLE-PRIME": (
        "warning",
        "a prime the tool names, at or above 2^64, passed a strong-probable-prime "
        "test with random witnesses, which is not a proof of primality",
    ),
    "EXTERNAL-DATABASE-FACT": (
        "note",
        "a hypothesis was discharged using a standard-tables fact rather than "
        "a computation done here",
    ),
}


def make(code: str, message: str) -> Diagnostic:
    """Build a catalogued diagnostic; unknown codes are a programming error."""
    if code not in KNOWN_CODES:
        raise KeyError(f"diagnostic code {code!r} is not catalogued")
    severity = KNOWN_CODES[code][0]
    return Diagnostic(code=code, severity=severity, message=message)


def probable_primes(**named: int) -> tuple[Diagnostic, ...]:
    """PROBABLE-PRIME for each named prime at or above 2^64, in argument order."""
    return tuple(
        make("PROBABLE-PRIME", f"{name} = {x} is at least 2^64, so its primality rests "
             f"on {WIDE_WITNESS_COUNT} strong-probable-prime rounds with random "
             f"witnesses, not on a proof")
        for name, x in named.items() if x >= PROOF_BOUND
    )
