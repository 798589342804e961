"""Tower planning: group validation, base-field hypotheses, split-prime selection.

A plan fixes an odd Kummer prime ``ell``, a uniform pro-p group acting through
a finite cyclic quotient, a base field (cyclotomic, or a relative extension of
one), and a rank target.  Building the plan selects enough rational primes -
inert or split-then-inert according to the base - so that the Kummer layer is
ramified at a controlled number of places above each tower level, which is
what the bound chain in :mod:`towerbound.bounds` consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from . import arith, cyclotomic, gf, zpoly
from .catalog import Diagnostic

__all__ = [
    "ValidationFailed",
    "EqualPrimes",
    "CheckItem",
    "ValidationReport",
    "FAMILY_ABELIAN",
    "FAMILY_NILPOTENT",
    "GroupSpec",
    "validate_group",
    "ChecklistItem",
    "AssumptionChecklist",
    "check_assumption",
    "ramified_place_target",
    "CyclotomicBase",
    "RelativeCubicBase",
    "PlaceRef",
    "GapInflation",
    "TowerPlan",
    "build_tower_plan",
]


class EqualPrimes(ValueError):
    """Raised when the Kummer prime and the tower prime coincide."""


@dataclass(frozen=True)
class CheckItem:
    """One validated condition: what was checked, whether it holds, and why."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """The full list of conditions a construction was checked against."""

    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(i.ok for i in self.items)

    @property
    def failures(self) -> tuple[CheckItem, ...]:
        return tuple(i for i in self.items if not i.ok)


class ValidationFailed(Exception):
    """Raised when a construction's preconditions do not hold; carries the report."""

    def __init__(self, report: ValidationReport):
        self.report = report
        names = ", ".join(i.name for i in report.failures) or "unspecified"
        super().__init__(f"validation failed: {names}")


FAMILY_ABELIAN = "abelian"
FAMILY_NILPOTENT = "nilpotent-class-2"


@dataclass(frozen=True)
class GroupSpec:
    """A uniform pro-p group of finite rank with a cyclic action on top.

    ``family`` picks the shape: ``abelian`` is the free abelian pro-p group of
    the given dimension; ``nilpotent-class-2`` is the three-generator group
    with presentation < x, y, z | [x,z] = [y,z] = 1, [x,y] = z^(p^s) >, where
    ``s`` is ``twist_exponent``.  ``action_order`` is the order of the cyclic
    group acting through the base-field step.
    """

    p: int
    dimension: int
    action_order: int
    family: str = FAMILY_ABELIAN
    twist_exponent: int | None = None

    def describe(self) -> str:
        if self.family == FAMILY_ABELIAN:
            return f"Z_{self.p}^{self.dimension} (abelian)"
        return (
            f"class-2 nilpotent on x, y, z with [x,z] = [y,z] = 1 and "
            f"[x,y] = z^({self.p}^{self.twist_exponent})"
        )


def validate_group(spec: GroupSpec) -> ValidationReport:
    """Check that the group spec is a usable uniform pro-p group with its action.

    Key compatibility rules: a degree-2 action (``action_order`` = 2) forces
    the abelian family, and a higher-order action needs its order to divide
    p - 1 so the cyclic twist can act through roots of unity in Z_p.
    """
    items: list[CheckItem] = []
    items.append(CheckItem("p-prime", arith.is_prime(spec.p), f"p = {spec.p}"))
    items.append(
        CheckItem("dimension-positive", spec.dimension >= 1, f"dimension = {spec.dimension}")
    )
    items.append(
        CheckItem(
            "action-order-at-least-2",
            spec.action_order >= 2,
            f"action order = {spec.action_order}",
        )
    )
    if spec.family == FAMILY_ABELIAN:
        items.append(
            CheckItem(
                "abelian-has-no-twist-exponent",
                spec.twist_exponent is None,
                "twist exponent only applies to the nilpotent family",
            )
        )
    elif spec.family == FAMILY_NILPOTENT:
        items.append(
            CheckItem(
                "nilpotent-dimension-3",
                spec.dimension == 3,
                "the three-generator presentation has dimension 3",
            )
        )
        s_ok = spec.twist_exponent is not None and spec.twist_exponent >= 1
        items.append(
            CheckItem(
                "twist-exponent-positive",
                s_ok,
                f"twist exponent = {spec.twist_exponent}",
            )
        )
        if s_ok:
            items.append(
                CheckItem(
                    "nilpotent-uniformity",
                    spec.p > 2 or (spec.twist_exponent or 0) >= 2,
                    "for p = 2 uniformity needs twist exponent >= 2",
                )
            )
    else:
        items.append(
            CheckItem("family-recognized", False, f"unknown family {spec.family!r}")
        )
        return ValidationReport(tuple(items))

    if spec.action_order == 2:
        items.append(
            CheckItem(
                "order-2-action-forces-abelian",
                spec.family == FAMILY_ABELIAN,
                "a degree-2 base step only supports the abelian family",
            )
        )
    else:
        items.append(
            CheckItem(
                "action-order-divides-p-minus-1",
                spec.p % spec.action_order == 1,
                f"need p = 1 mod {spec.action_order}, got p = {spec.p}",
            )
        )
    return ValidationReport(tuple(items))


# ---------------------------------------------------------------------------
# base-field hypothesis checklist (relative bases)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChecklistItem:
    """One hypothesis about the base field, with its provenance.

    ``provenance`` is one of ``computed-here``, ``external-database``, or
    ``asserted``; only the first means this package verified the fact itself.
    """

    name: str
    holds: bool
    provenance: str
    detail: str = ""


@dataclass(frozen=True)
class AssumptionChecklist:
    """The base-field hypotheses a relative construction rests on."""

    base_description: str
    totally_imaginary: ChecklistItem
    contains_p_roots: ChecklistItem
    unique_prime_above_p: ChecklistItem
    class_group_p_part_trivial: ChecklistItem

    def items(self) -> tuple[ChecklistItem, ...]:
        return (
            self.totally_imaginary,
            self.contains_p_roots,
            self.unique_prime_above_p,
            self.class_group_p_part_trivial,
        )


def check_assumption(checklist: AssumptionChecklist) -> ValidationReport:
    """Validate the four base-field hypotheses and derive p-rationality.

    The derived item records that a field containing the p-th roots of unity,
    with a single prime above p and trivial p-part of its class group, is
    p-rational; it holds exactly when items 2-4 hold.
    """
    items = [
        CheckItem(
            f"checklist:{it.name}",
            it.holds,
            f"{it.detail} [{it.provenance}]" if it.detail else f"[{it.provenance}]",
        )
        for it in checklist.items()
    ]
    derived = (
        checklist.contains_p_roots.holds
        and checklist.unique_prime_above_p.holds
        and checklist.class_group_p_part_trivial.holds
    )
    items.append(
        CheckItem(
            "derived:p-rational",
            derived,
            "follows from the roots-of-unity, unique-prime and class-group items",
        )
    )
    return ValidationReport(tuple(items))


# ---------------------------------------------------------------------------
# ramified-place bookkeeping
# ---------------------------------------------------------------------------


def ramified_place_target(
    rank_target: int, action_order: int, dimension: int, ell: int
) -> int:
    """Number of ramified places the ground-layer Kummer step must carry.

    rank_target + action_order * dimension * ell * (ell - 1): the excess of
    this count over the layer degree is what survives to the class-rank bound,
    and the second summand is exactly that degree at the ground layer.
    """
    if rank_target < 1:
        raise ValueError("rank target must be >= 1")
    if action_order < 2 or dimension < 1:
        raise ValueError("need action_order >= 2 and dimension >= 1")
    if ell < 3 or not arith.is_prime(ell):
        raise ValueError("ell must be an odd prime")
    return rank_target + action_order * dimension * ell * (ell - 1)


# ---------------------------------------------------------------------------
# base fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclotomicBase:
    """Base field Q(zeta_c): the degree-2 step is complex conjugation."""

    conductor: int

    @property
    def places_per_prime(self) -> int:
        return 1  # a selected prime must be inert, so it carries one place

    @property
    def degree(self) -> int:
        return arith.euler_phi(self.conductor)

    @property
    def cyclotomic_conductor(self) -> int:
        return self.conductor

    def describe(self) -> str:
        return f"Q(zeta_{self.conductor})"

    def fixed_subfield_label(self) -> str:
        return f"Q(zeta_{self.conductor})^+"

    def validate(self, group: GroupSpec) -> list[CheckItem]:
        items = [
            CheckItem(
                "base-is-imaginary",
                self.conductor >= 3,
                f"conductor {self.conductor} must be >= 3",
            ),
            CheckItem(
                "base-galois-group-cyclic",
                cyclotomic.unit_group_is_cyclic(self.conductor),
                f"(Z/{self.conductor})* must be cyclic",
            ),
            CheckItem(
                "base-action-order-2",
                group.action_order == 2,
                "a cyclotomic base realizes the order-2 action (conjugation)",
            ),
            CheckItem(
                "base-degree-matches-dimension",
                self.degree == 2 * group.dimension,
                f"phi({self.conductor}) = {self.degree}, need 2 * {group.dimension}",
            ),
        ]
        items.append(
            CheckItem(
                "unique-prime-above-p",
                # only for prime p: at p = 1 the p-part loop below never ends
                arith.is_prime(group.p) and self._unique_prime_above(group.p),
                f"p = {group.p} must have a single place in {self.describe()}",
            )
        )
        return items

    def _unique_prime_above(self, p: int) -> bool:
        c = self.conductor
        if c % p == 0:
            # Remove the p-part; p is totally ramified through it.  A single
            # place remains iff p generates the residues mod the prime-to-p part.
            rest = c
            while rest % p == 0:
                rest //= p
            if rest == 1:
                return True
            try:
                return arith.mult_order(p, rest) == arith.euler_phi(rest)
            except arith.NotCoprime:  # pragma: no cover - rest is prime to p
                return False
        return cyclotomic.is_inert(p, c)

    def prime_qualifies(self, q: int) -> bool:
        """Whether the prime ``q`` is inert in Q(zeta_c), as the selection wants.

        ``q`` must already be prime.  It is inert iff it does not divide c and
        generates (Z/c)*; over c <= 2 (the rationals) every prime counts.
        """
        c = self.conductor
        if c <= 2:
            return True
        return c % q != 0 and arith.mult_order(q, c) == arith.euler_phi(c)


@dataclass(frozen=True)
class RelativeCubicBase:
    """Base field Q(zeta_c)(theta) for a monic integer cubic satisfied by theta."""

    base_conductor: int
    poly: tuple[int, ...]  # monic cubic, constant term first

    @property
    def places_per_prime(self) -> int:
        # A qualifying rational prime splits completely downstairs and each of
        # the phi(c) primes there stays inert upstairs.
        return arith.euler_phi(self.base_conductor)

    @property
    def degree(self) -> int:
        return arith.euler_phi(self.base_conductor) * (len(self.poly) - 1)

    @property
    def cyclotomic_conductor(self) -> int:
        return self.base_conductor

    def describe(self) -> str:
        rel = zpoly.format_poly(list(self.poly), var="theta")
        return f"Q(zeta_{self.base_conductor})(theta), {rel} = 0"

    def fixed_subfield_label(self) -> str:
        return f"Q(zeta_{self.base_conductor})"

    def validate(self, group: GroupSpec) -> list[CheckItem]:
        deg = len(self.poly) - 1
        items = [
            CheckItem(
                "base-cubic-monic",
                bool(self.poly) and self.poly[-1] == 1 and deg == 3,
                "relative step must be a monic cubic",
            ),
            CheckItem(
                "base-action-order-matches-step",
                group.action_order == deg,
                f"relative degree {deg} must equal the action order "
                f"{group.action_order}",
            ),
            CheckItem(
                "base-cubic-irreducible",
                self._irreducible_over_q(),
                "the cubic must have no rational root",
            ),
            CheckItem(
                "base-supplies-p-roots",
                self.base_conductor % group.p == 0,
                f"conductor {self.base_conductor} must be divisible by "
                f"p = {group.p} to supply its roots of unity",
            ),
        ]
        return items

    def _irreducible_over_q(self) -> bool:
        # A monic integer cubic is irreducible over Q iff it has no integer
        # root, and any such root divides the constant term.
        poly = list(self.poly)
        if len(poly) != 4 or poly[-1] != 1:
            return False
        c0 = poly[0]
        if c0 == 0:
            return False
        for r in range(1, abs(c0) + 1):
            if c0 % r == 0:
                for cand in (r, -r):
                    if zpoly.eval_at(poly, cand) == 0:
                        return False
        return True

    def prime_qualifies(self, q: int) -> bool:
        """Whether the prime ``q`` splits totally downstairs, then stays inert.

        ``q`` must already be prime.  It splits totally in Q(zeta_c) iff
        q = 1 (mod c), or always over c <= 2.
        """
        c = self.base_conductor
        if c > 2 and q % c != 1:
            return False
        try:
            verdicts = gf.is_inert_in_relative_extension(list(self.poly), q, c)
        except gf.DiscriminantDivisible:
            return False
        return all(verdicts)


BaseField = Union[CyclotomicBase, RelativeCubicBase]


@dataclass(frozen=True)
class PlaceRef:
    """A place of the base field above a selected rational prime."""

    q: int
    root: int | None = None  # root of the conductor's cyclotomic poly mod q


@dataclass(frozen=True)
class GapInflation:
    """Declared intent to read fine-Selmer rows off the plan.

    ``fine_rank_target`` is the rank the fine rows should certify;
    ``gap_rank`` is the declared rank of the comparison gap term between the
    two class-group variants.  A positive gap rank inflates the plan's place
    count so the gap is absorbed; zero declares the gap absent.
    """

    fine_rank_target: int
    gap_rank: int


@dataclass(frozen=True)
class TowerPlan:
    """A fully validated construction plan with its selected data."""

    ell: int
    p: int
    rank_target: int
    effective_rank_target: int
    group: GroupSpec
    base: BaseField
    checklist: AssumptionChecklist | None
    ramified_target: int
    ramified_target_formula: int
    selected_primes: tuple[int, ...]
    selected_places: tuple[PlaceRef, ...]
    alpha: int
    gap_inflation: GapInflation | None
    first_effective_layer: int
    validation: ValidationReport
    diagnostics: tuple[Diagnostic, ...]

    # -- per-layer bookkeeping ----------------------------------------

    def ramified_lower(self, n: int) -> int:
        """Ramified places of the Kummer step at tower layer n (lower bound)."""
        if n < 0:
            raise ValueError("layer must be >= 0")
        return self.ramified_target * self.p**n

    def degree_lower(self, n: int) -> int:
        """Degree of layer n of the Kummer tower over the rationals."""
        if n < 0:
            raise ValueError("layer must be >= 0")
        g = self.group
        return g.action_order * self.ell * (self.ell - 1) * g.dimension * self.p**n

    @property
    def min_characteristic(self) -> int:
        """min(ell, p): the prime whose powers pace the fine-Selmer rows."""
        return min(self.ell, self.p)


def _first_effective_layer(base: BaseField, group: GroupSpec) -> int:
    """Smallest layer from which the degree bookkeeping is in force."""
    base_deg = arith.euler_phi(base.cyclotomic_conductor)
    n = 0
    need = 2 * group.dimension
    while base_deg * group.p**n < need:
        n += 1
    return n


def build_tower_plan(
    ell: int,
    group: GroupSpec,
    base: BaseField,
    rank_target: int,
    *,
    checklist: AssumptionChecklist | None = None,
    gap_rank: int | None = None,
    ramified_target_override: int | None = None,
    primes_override: Sequence[int] | None = None,
    extra_diagnostics: Iterable[Diagnostic] = (),
) -> TowerPlan:
    """Validate every hypothesis and select the split/inert prime data.

    Raises :class:`EqualPrimes` when ell = p and :class:`ValidationFailed`
    (with the full report) when any structural condition fails.  Passing
    ``gap_rank`` declares fine-Selmer intent: a positive value inflates the
    rank target by twice the gap rank so the comparison gap is absorbed,
    which is only possible when ell <= p (otherwise the gap outruns the
    tower's growth and the report says so).

    ``ramified_target_override`` and ``primes_override`` pin the place count
    or the prime list instead of deriving them; overridden data is still
    validated (every pinned prime must qualify and the places must cover the
    target).
    """
    if not arith.is_prime(ell):
        raise ValueError(f"ell = {ell} is not prime")
    if ell == group.p:
        raise EqualPrimes(f"ell = p = {ell}")

    items: list[CheckItem] = []
    items.append(CheckItem("ell-odd", ell % 2 == 1, f"ell = {ell} must be odd"))
    greport = validate_group(group)
    items.extend(greport.items)
    items.append(
        CheckItem("rank-target-positive", rank_target >= 1, f"target = {rank_target}")
    )
    items.extend(base.validate(group))

    relative = isinstance(base, RelativeCubicBase)
    if relative:
        items.append(
            CheckItem(
                "checklist-present",
                checklist is not None,
                "a relative base needs its hypothesis checklist",
            )
        )
        if checklist is not None:
            items.extend(check_assumption(checklist).items)

    gap_inflation: GapInflation | None = None
    effective_target = rank_target
    if gap_rank is not None:
        items.append(
            CheckItem("gap-rank-nonnegative", gap_rank >= 0, f"gap rank = {gap_rank}")
        )
        if gap_rank > 0:
            items.append(
                CheckItem(
                    "gap-absorbable",
                    ell <= group.p,
                    "a positive gap rank can only be absorbed when ell <= p",
                )
            )
            effective_target = rank_target + 2 * gap_rank
        gap_inflation = GapInflation(fine_rank_target=rank_target, gap_rank=gap_rank)

    report = ValidationReport(tuple(items))
    if not report.passed:
        raise ValidationFailed(report)

    formula = ramified_place_target(
        effective_target, group.action_order, group.dimension, ell
    )
    target = ramified_target_override if ramified_target_override is not None else formula

    ppp = base.places_per_prime
    need = -(-target // ppp)  # ceil
    post_items: list[CheckItem] = list(items)
    if primes_override is not None:
        primes = [int(q) for q in primes_override]
        ok_sorted = primes == sorted(primes) and len(set(primes)) == len(primes)
        post_items.append(
            CheckItem("pinned-primes-ascending-distinct", ok_sorted, "")
        )
        for q in primes:
            good = arith.is_prime(q) and q != group.p and base.prime_qualifies(q)
            if not good:
                post_items.append(
                    CheckItem(
                        "pinned-prime-qualifies",
                        False,
                        f"{q} does not qualify for {base.describe()}",
                    )
                )
        post_items.append(
            CheckItem(
                "pinned-places-cover-target",
                len(primes) * ppp >= target,
                f"{len(primes)} primes * {ppp} places >= {target} needed",
            )
        )
    else:
        primes = arith.primes_ascending(
            need,
            predicate=base.prime_qualifies,
            exclude={group.p},
        )
    report = ValidationReport(tuple(post_items))
    if not report.passed:
        raise ValidationFailed(report)

    places: list[PlaceRef] = []
    for q in primes:
        if ppp == 1:
            places.append(PlaceRef(q=q))
        else:
            for pr in cyclotomic.primes_above(q, base.cyclotomic_conductor):
                places.append(PlaceRef(q=q, root=pr.root))

    alpha = arith.mul_many(primes)

    return TowerPlan(
        ell=ell,
        p=group.p,
        rank_target=rank_target,
        effective_rank_target=effective_target,
        group=group,
        base=base,
        checklist=checklist,
        ramified_target=target,
        ramified_target_formula=formula,
        selected_primes=tuple(primes),
        selected_places=tuple(places),
        alpha=alpha,
        gap_inflation=gap_inflation,
        first_effective_layer=_first_effective_layer(base, group),
        validation=report,
        diagnostics=tuple(extra_diagnostics),
    )
