"""Certified lower bounds: class-group ranks and fine-Selmer ranks per layer.

The chain runs: ramified-place count at layer n, minus the layer degree,
bounds the rank of the fixed part of the class group from below; that bound
transfers down the tower, and (under the declared hypotheses) across to the
fine Selmer group of an abelian variety, paced by min(ell, p) instead of p.
Every inequality a certificate asserts is listed in its trace with a stable
rule id and the numbers substituted in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import catalog, report
from .catalog import Diagnostic
from .tower import TowerPlan

__all__ = [
    "InvalidChain",
    "TorsionHypothesisUnmet",
    "PlanNotInflated",
    "FiniteAbelianGroup",
    "ell_rank",
    "AbelianVarietyDesc",
    "ambiguous_lower",
    "class_rank_lower",
    "class_gap_term",
    "FineSelmerBound",
    "fine_selmer_lower",
    "CertificateRow",
    "TraceStep",
    "BoundCertificate",
    "build_certificate",
]


class InvalidChain(ValueError):
    """Raised when invariant factors do not form a divisibility chain."""


class TorsionHypothesisUnmet(ValueError):
    """Raised when the abelian variety lacks the required rational torsion."""


class PlanNotInflated(ValueError):
    """Raised when fine-Selmer rows are requested from a plan with no declared gap rank."""


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group as its invariant-factor chain d1 | d2 | ... | dk."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        fac = self.invariant_factors
        for d in fac:
            if d < 2:
                raise InvalidChain(f"invariant factor {d} < 2")
        for a, b in zip(fac, fac[1:]):
            if b % a != 0:
                raise InvalidChain(f"{a} does not divide {b}")

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


def ell_rank(group: FiniteAbelianGroup | tuple[int, ...] | list[int], ell: int) -> int:
    """Dimension of G/G^ell over the field with ell elements.

    Equals the number of invariant factors divisible by ell; accepts either a
    :class:`FiniteAbelianGroup` or a bare invariant-factor sequence.
    """
    if not isinstance(group, FiniteAbelianGroup):
        group = FiniteAbelianGroup(tuple(int(d) for d in group))
    if ell < 2:
        raise ValueError("ell must be a prime")
    return sum(1 for d in group.invariant_factors if d % ell == 0)


@dataclass(frozen=True)
class AbelianVarietyDesc:
    """The facts about an abelian variety that the fine-Selmer chain consumes."""

    label: str
    dimension: int
    torsion_at_kummer_prime: bool  # rational torsion point of order ell exists
    bad_primes: tuple[int, ...]
    provenance: str = "external-database"


def ambiguous_lower(ramified_count: int, layer_degree: int) -> int:
    """Lower bound for the rank of the fixed part of the class group.

    The count of ramified places beats the layer degree by the amount that
    must survive into the class group; never negative.
    """
    if ramified_count < 0 or layer_degree < 1:
        raise ValueError("need ramified_count >= 0 and layer_degree >= 1")
    return max(ramified_count - layer_degree, 0)


def class_rank_lower(plan: TowerPlan, n: int) -> int:
    """Certified lower bound for the ell-rank of the class group at layer n."""
    return ambiguous_lower(plan.ramified_lower(n), plan.degree_lower(n))


def class_gap_term(gap_rank: int, ell: int, n: int) -> int:
    """Size of the comparison gap between the two class-group variants.

    2 * gap_rank * ell^n at layer n - note the base is the Kummer prime, not
    the tower prime, following the printed convention (see the catalogued
    SCLASS-GAP-BASE warning).
    """
    if gap_rank < 0 or n < 0:
        raise ValueError("need gap_rank >= 0 and n >= 0")
    return 2 * gap_rank * ell**n


class FineSelmerBound(NamedTuple):
    """Fine-Selmer lower bounds at one layer: as claimed, and with margins."""

    claimed: int
    conservative: int


def fine_selmer_lower(
    plan: TowerPlan,
    av: AbelianVarietyDesc,
    gap_rank: int,
    n: int,
) -> FineSelmerBound:
    """Fine-Selmer rank lower bounds at layer n for the given abelian variety.

    Preconditions: the plan must have been built with a declared gap rank
    (:class:`PlanNotInflated` otherwise) matching ``gap_rank``, and the
    variety must have a rational torsion point of order ell
    (:class:`TorsionHypothesisUnmet` otherwise).

    The claimed column is fine_rank_target * min(ell, p)^n, reading the chain
    the way the worked examples do; the conservative column additionally
    subtracts twice the variety's dimension, the margin the comparison with
    the class group costs in general.
    """
    if n < 0:
        raise ValueError("layer must be >= 0")
    if plan.gap_inflation is None:
        raise PlanNotInflated(
            "plan was built without a declared gap rank; rebuild with gap_rank set"
        )
    if gap_rank != plan.gap_inflation.gap_rank:
        raise ValueError(
            f"gap rank {gap_rank} does not match the plan's declared "
            f"{plan.gap_inflation.gap_rank}"
        )
    if not av.torsion_at_kummer_prime:
        raise TorsionHypothesisUnmet(
            f"{av.label} has no rational torsion point of order {plan.ell}"
        )
    q = plan.min_characteristic
    base = plan.gap_inflation.fine_rank_target * q**n
    claimed = base
    conservative = max(base - 2 * av.dimension, 0)
    return FineSelmerBound(claimed=claimed, conservative=conservative)


@dataclass(frozen=True)
class CertificateRow:
    """All certified quantities at a single tower layer."""

    layer: int
    ramified_places: int
    layer_degree: int
    ambiguous_bound: int
    class_rank_bound: int
    fine_claimed: int | None = None
    fine_conservative: int | None = None


@dataclass(frozen=True)
class TraceStep:
    """One asserted inequality: a stable rule id plus the instantiated statement."""

    rule: str
    statement: str


@dataclass(frozen=True)
class BoundCertificate:
    """Per-layer certified bounds with their inequality trace and caveats."""

    plan: TowerPlan
    av: AbelianVarietyDesc | None
    gap_rank: int | None
    n_max: int
    rows: tuple[CertificateRow, ...]
    trace: tuple[TraceStep, ...]
    diagnostics: tuple[Diagnostic, ...]

    # Rendering lives in report; the two names stay for callers that know
    # them, bench/tracing.py's bounds.render span among them.
    to_json_doc = report.certificate_doc
    to_text_lines = report.certificate_lines


def build_certificate(
    plan: TowerPlan,
    av: AbelianVarietyDesc | None = None,
    gap_rank: int | None = None,
    n_max: int = 4,
) -> BoundCertificate:
    """Assemble the per-layer certificate for a plan.

    Class-group columns are always present.  Fine-Selmer columns appear when
    an abelian variety is supplied, which requires the plan to carry a
    declared gap rank; ``gap_rank`` defaults to the plan's declared value.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    g = plan.group
    d0 = g.action_order * plan.ell * (plan.ell - 1) * g.dimension
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

    fine = av is not None
    if fine:
        if plan.gap_inflation is None:
            raise PlanNotInflated(
                "plan was built without a declared gap rank; rebuild with gap_rank set"
            )
        if gap_rank is None:
            gap_rank = plan.gap_inflation.gap_rank
        q = plan.min_characteristic
        n_fine = plan.gap_inflation.fine_rank_target
        trace.append(
            TraceStep(
                "variant-gap",
                f"gap between the class-group variants <= "
                f"2 * {gap_rank} * {plan.ell}^n (declared gap rank {gap_rank})",
            )
        )
        trace.append(
            TraceStep(
                "fine-selmer-chain",
                f"fine Selmer rank at layer n >= {n_fine} * {q}^n, "
                f"q = min({plan.ell}, {plan.p}) = {q}",
            )
        )
        trace.append(
            TraceStep(
                "conservative-margin",
                f"conservative column subtracts 2 * dim = {2 * av.dimension} "
                f"for the class-group comparison",
            )
        )
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

    rows: list[CertificateRow] = []
    for n in range(n_max + 1):
        ram = plan.ramified_lower(n)
        deg = plan.degree_lower(n)
        amb = ambiguous_lower(ram, deg)
        row = CertificateRow(
            layer=n,
            ramified_places=ram,
            layer_degree=deg,
            ambiguous_bound=amb,
            class_rank_bound=amb,
        )
        if fine:
            assert av is not None and gap_rank is not None
            fs = fine_selmer_lower(plan, av, gap_rank, n)
            row = CertificateRow(
                layer=n,
                ramified_places=ram,
                layer_degree=deg,
                ambiguous_bound=amb,
                class_rank_bound=amb,
                fine_claimed=fs.claimed,
                fine_conservative=fs.conservative,
            )
        rows.append(row)

    return BoundCertificate(
        plan=plan,
        av=av,
        gap_rank=gap_rank if fine else None,
        n_max=n_max,
        rows=tuple(rows),
        trace=tuple(trace),
        diagnostics=tuple(diagnostics),
    )
