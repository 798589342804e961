"""Certified lower bounds: class-group ranks and fine-Selmer ranks per layer.

The chain runs: ramified-place count at layer n, minus the layer degree,
bounds the rank of the fixed part of the class group from below; that bound
transfers down the tower, and (under the declared hypotheses) across to the
fine Selmer group of an abelian variety, paced by min(ell, p) instead of p.
Every inequality a certificate asserts is listed in its trace with a stable
rule id and the numbers substituted in.
"""

from __future__ import annotations

from . import catalog, report
from .arith import Record
from .catalog import Diagnostic
from .tower import TowerPlan

__all__ = [
    "TorsionHypothesisUnmet",
    "PlanNotInflated",
    "AbelianVarietyDesc",
    "CertificateRow",
    "TraceStep",
    "BoundCertificate",
    "build_certificate",
]


class TorsionHypothesisUnmet(ValueError):
    """Raised when the abelian variety lacks the required rational torsion."""


class PlanNotInflated(ValueError):
    """Raised when fine-Selmer rows are requested from a plan with no declared gap rank."""


class AbelianVarietyDesc(Record):
    """The facts about an abelian variety that the fine-Selmer chain consumes."""

    label: str
    dimension: int
    torsion_at_kummer_prime: bool  # rational torsion point of order ell exists
    bad_primes: tuple[int, ...]
    provenance: str = "external-database"


class CertificateRow(Record):
    """All certified quantities at a single tower layer, in column order."""

    layer: int
    ramified_places: int
    layer_degree: int
    ambiguous_bound: int
    class_rank_bound: int
    fine_claimed: int | None = None
    fine_conservative: int | None = None


class TraceStep(Record):
    """One asserted inequality: a stable rule id plus the instantiated statement."""

    rule: str
    statement: str


class BoundCertificate(Record):
    """Per-layer certified bounds as one column table, with trace and caveats.

    Column (c, b, margin) has the cell max(c * b^n - margin, 0) at layer n, in
    ``CertificateRow`` order; ``rows`` derives the cells as ints.
    """

    av: AbelianVarietyDesc | None
    gap_rank: int | None
    n_max: int
    trace: tuple[TraceStep, ...]
    diagnostics: tuple[Diagnostic, ...]
    columns: tuple[tuple[int, int, int], ...]

    @property
    def rows(self) -> tuple[CertificateRow, ...]:
        """The cells of layers 0..n_max as ints, one row per layer."""
        return tuple(CertificateRow(n, *(max(c * b**n - m, 0) for c, b, m in self.columns))
                     for n in range(self.n_max + 1))

    # Rendering lives in report; the two names stay for callers that know
    # them, bench/tracing.py's bounds.render span among them.
    to_json_doc = report.certificate_doc
    to_text_lines = report.certificate_lines


#: The most decimal digits a certificate's cells may hold, as
#: :func:`_row_digits` estimates them from the column table.  At the budget (a
#: 100-digit p, n_max = 158) building and rendering take about 0.03 s, as text
#: or as canonical JSON, in CPython 3.11 on a 2-core host.  The
#: largest bundled certificate, example3 at n_max = 1000, holds about 2.2 M.
CERTIFICATE_DIGIT_BUDGET = 5_000_000


def _row_digits(n_max: int, columns: list[tuple[int, int, int]]) -> int:
    """Digits, at most, in the cells c * b^n, n = 0..n_max, of the (c, b, margin) columns.

    As c < 2^bits(c) and b <= 2^bits(b - 1), a cell has at most
    (bits(c) + n * bits(b - 1)) * log10(2) + 1 digits; a margin only lowers it.
    """
    bits = sum(
        (n_max + 1) * c.bit_length() + n_max * (n_max + 1) // 2 * (b - 1).bit_length()
        for c, b, _ in columns
        if c
    )
    return bits * 30103 // 100_000 + (n_max + 1) * len(columns)


def build_certificate(
    plan: TowerPlan,
    av: AbelianVarietyDesc | None = None,
    n_max: int = 4,
) -> BoundCertificate:
    """Assemble the per-layer certificate for a plan.

    Class-group columns are always present.  Fine-Selmer columns appear when
    an abelian variety is supplied: the plan must carry a declared gap rank
    (:class:`PlanNotInflated` otherwise), which the certificate states, and
    the variety a rational torsion point of order ell
    (:class:`TorsionHypothesisUnmet` otherwise).  Rows whose digits would
    exceed ``CERTIFICATE_DIGIT_BUDGET`` raise ValueError.  Layers below the
    plan's first effective layer carry a ``PRE-EFFECTIVE-LAYER`` caveat.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    g = plan.group
    d0 = plan.layer_degree
    net = max(plan.ramified_target - d0, 0)
    trace: list[TraceStep] = [
        TraceStep(
            "ramified-count",
            f"ramified(n) = {plan.ramified_target} * {plan.p}^n places of the "
            f"layer ramify in the Kummer step",
        ),
        TraceStep(
            "layer-degree",
            f"degree(n) = {g.action_order} * {plan.ell} * {plan.ell - 1} * "
            f"{g.dimension} * {plan.p}^n = {d0} * {plan.p}^n",
        ),
        TraceStep(
            "ambiguous-bound",
            "rank of the fixed part of the layer class group >= "
            "ramified(n) - degree(n)",
        ),
        TraceStep(
            "class-rank-chain",
            f"class rank at layer n >= max({plan.ramified_target} - {d0}, 0) "
            f"* {plan.p}^n = {net} * {plan.p}^n",
        ),
    ]
    diagnostics: list[Diagnostic] = list(plan.diagnostics)
    if k := plan.first_effective_layer:  # the degree bookkeeping holds from layer k on
        diagnostics.append(catalog.make("PRE-EFFECTIVE-LAYER", f"layers 0..{k - 1} precede "
                                        f"the first effective layer {k}; they are not certified"))
    columns = [(c, plan.p, 0) for c in (plan.ramified_target, d0, net, net)]
    gap_rank: int | None = None
    if av is not None:
        gap_rank = plan.gap_rank
        if gap_rank is None:
            raise PlanNotInflated(
                "plan was built without a declared gap rank; rebuild with gap_rank set"
            )
        if not av.torsion_at_kummer_prime:
            raise TorsionHypothesisUnmet(
                f"{av.label} has no rational torsion point of order {plan.ell}"
            )
        n_fine, q = plan.rank_target, min(plan.ell, plan.p)
        margin = 2 * av.dimension  # the conservative column's, for the variant gap
        columns += [(n_fine, q, 0), (n_fine, q, margin)]
        trace += [
            TraceStep(
                "variant-gap",
                f"gap between the class-group variants <= "
                f"2 * {gap_rank} * {plan.ell}^n (declared gap rank {gap_rank})",
            ),
            TraceStep(
                "fine-selmer-chain",
                f"fine Selmer rank at layer n >= {n_fine} * {q}^n, "
                f"q = min({plan.ell}, {plan.p}) = {q}",
            ),
            TraceStep(
                "conservative-margin",
                f"conservative column subtracts 2 * dim = {margin} "
                f"for the class-group comparison",
            ),
        ]
        for code, message in (
            (
                "SCLASS-GAP-DIRECTION",
                "the variant-comparison step is applied in the direction that "
                "favours the final bound; fine rows are conditional on it",
            ),
            (
                "SCLASS-GAP-BASE",
                f"the gap term uses base {plan.ell} (the Kummer prime) per "
                f"the printed convention, not the tower prime {plan.p}",
            ),
            (
                "FINE-SELMER-FINAL-STEP",
                "the final chain step needs the variant gap absorbed; the "
                "conservative column keeps a margin for it, the claimed "
                "column does not",
            ),
        ):
            diagnostics.append(catalog.make(code, message))
        if gap_rank == 0:
            diagnostics.append(
                catalog.make(
                    "UNINFLATED-PLAN",
                    "declared gap rank is 0, so the place count was not "
                    "inflated; fine rows rely on the gap term vanishing",
                )
            )
        if av.provenance == "external-database":
            diagnostics.append(
                catalog.make(
                    "EXTERNAL-DATABASE-FACT",
                    f"torsion and reduction data for {av.label} come from "
                    f"standard tables, not a computation done here",
                )
            )

    digits = _row_digits(n_max, columns)
    if digits > CERTIFICATE_DIGIT_BUDGET:
        raise ValueError(f"the rows up to layer {n_max} would hold about {digits} "
                         f"digits, above the budget of {CERTIFICATE_DIGIT_BUDGET}")

    return BoundCertificate(
        av=av,
        gap_rank=gap_rank,
        n_max=n_max,
        trace=tuple(trace),
        diagnostics=tuple(diagnostics),
        columns=tuple(columns),
    )
