"""Tower planning: group validation, base-field hypotheses, split-prime selection.

A plan fixes an odd Kummer prime ``ell``, a uniform pro-p group acting through
a finite cyclic quotient, a base field (cyclotomic, or a relative extension of
one), and a rank target.  Building the plan selects enough rational primes -
inert or split-then-inert according to the base - so that the Kummer layer is
ramified at a controlled number of places above each tower level, which is
what the bound chain in :mod:`towerbound.bounds` consumes.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence

from . import arith, catalog, cyclotomic
from .arith import FAMILY_ABELIAN, FAMILY_NILPOTENT, EqualPrimes, Record, ValidationFailed
from .catalog import Diagnostic
from .report import base_label

__all__ = [
    "ValidationFailed",
    "EqualPrimes",
    "CheckItem",
    "ValidationReport",
    "FAMILY_ABELIAN",
    "FAMILY_NILPOTENT",
    "GroupSpec",
    "validate_group",
    "ramified_place_target",
    "CyclotomicBase",
    "RelativeCubicBase",
    "select_primes",
    "PlaceRef",
    "TowerPlan",
    "build_tower_plan",
]


class CheckItem(Record):
    """One validated condition: what was checked, whether it holds, and why."""

    name: str
    ok: bool
    detail: str = ""


class ValidationReport(Record):
    """The full list of conditions a construction was checked against."""

    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(i.ok for i in self.items)

    @property
    def failures(self) -> tuple[CheckItem, ...]:
        return tuple(i for i in self.items if not i.ok)


class GroupSpec(Record):
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


@functools.cache
def _classes(base: BaseField) -> tuple[int, frozenset[int]]:
    """(n, the r in H0 that generate H0/H): the classes mod n of the qualifying primes.

    ``base.groups`` is (n, H0, H): the base is the fixed field K of H in
    Q(zeta_n), over the fixed field K0 of H0.  A prime q not dividing n
    splits completely in K0 iff q mod n lies in H0, and then each place
    above it stays inert in the cyclic step K/K0 iff q generates H0/H
    (Washington, Introduction to Cyclotomic Fields, Thm 2.13 and 3.7): no
    q^(k/l) lies in H, for k = [H0 : H] and each prime l | k.  Built once
    per base; empty when H0/H is not cyclic.
    """
    n, h0, h = base.groups
    k = len(h0) // len(h) if h else 1
    ells = arith.factorize(k)
    return n, frozenset(r for r in h0 if all(pow(r, k // l, n) not in h for l in ells))


def _prime_qualifies(base: BaseField, q: int) -> bool:
    """Whether the prime ``q`` qualifies for ``base``: q mod n is in its classes.

    ``q`` must already be prime.  Over Q(zeta_c) it is then inert; over a
    relative cubic base it splits completely in Q(zeta_c), then stays inert.
    """
    n, residues = base.classes
    return q % n in residues


def _single_place(p: int, base: BaseField) -> bool:
    """Whether the prime ``p`` has a single place in the base field.

    With m the prime-to-p part of n, (Z/n)* maps onto (Z/m)* with kernel the
    inertia group of p and Frobenius to p mod m: one place iff the images of
    H and p generate (Z/m)* (Washington, Thm 2.13).
    """
    if not arith.is_prime(p):  # the law is for primes: p = 0 or 1 would pass it at n = 1
        return False
    n, _, h = base.groups
    m = n // p ** arith.factorize(n).get(p, 0)
    seen, coset = set(), {r % m for r in h}
    while not coset <= seen:  # the cosets p^i H of the group they generate
        seen |= coset
        coset = {p * r % m for r in coset}
    return len(seen) == arith.euler_phi(m)


class CyclotomicBase(Record):
    """Base field Q(zeta_c): the degree-2 step is complex conjugation."""

    conductor: int

    @property
    def places_per_prime(self) -> int:
        return 1  # a selected prime must be inert, so it carries one place

    @property
    def degree(self) -> int:
        return arith.euler_phi(self.conductor)

    @property
    @functools.cache
    def groups(self) -> tuple[int, frozenset[int], frozenset[int]]:
        """(n, H0, H) = (``arith.least_conductor(c)``, (Z/n)*, {1}): Q(zeta_c) over Q."""
        if self.conductor < 1:
            raise ValueError(f"conductor {self.conductor} must be >= 1")
        n = arith.least_conductor(self.conductor)
        return n, frozenset(r for r in range(n) if math.gcd(r, n) == 1), frozenset({1 % n})

    classes = property(_classes)
    prime_qualifies = _prime_qualifies

    def validate(self, group: GroupSpec) -> list[CheckItem]:
        return [
            CheckItem(
                "base-is-imaginary",
                self.conductor >= 3,
                f"conductor {self.conductor} must be >= 3",
            ),
            CheckItem(
                "base-galois-group-cyclic",
                bool(self.classes[1]),
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
            CheckItem(
                "unique-prime-above-p",
                _single_place(group.p, self),
                f"p = {group.p} must have a single place in Q(zeta_{self.conductor})",
            ),
        ]


class RelativeCubicBase(Record):
    """Base field Q(zeta_c)(theta) for a monic integer cubic satisfied by theta.

    ``class_number`` is the field's class number, taken from standard tables;
    without it the base cannot vouch for its hypotheses and fails validation.
    """

    conductor: int
    poly: tuple[int, ...]  # monic cubic, constant term first
    class_number: int | None = None

    @property
    def places_per_prime(self) -> int:
        # A qualifying rational prime splits completely downstairs and each of
        # the phi(c) primes there stays inert upstairs.
        return arith.euler_phi(self.conductor)

    @property
    @functools.cache
    def groups(self) -> tuple[int, frozenset[int], frozenset[int]]:
        """(nf, {r = 1 (mod n)}, its cubes mod f), n = ``arith.least_conductor(c)``.

        An irreducible cubic of discriminant f^2, f a prime = 1 (mod 3), has
        field discriminant f^2 (the quotient is a square, and no field has
        discriminant 1), so by the conductor-discriminant formula (Washington,
        Thm 3.11) it cuts out the cubic subfield of Q(zeta_f), the fixed field
        of the cubes mod f.  Any other cubic, or f | n, gives no cubic step
        over Q(zeta_c), and the triple is empty: (1, {}, {}).
        """
        n, f = CyclotomicBase(self.conductor).groups[0], self.cubic_conductor
        if f is None or n % f == 0:
            return 1, frozenset(), frozenset()
        h0 = frozenset(r for r in range(1, n * f, n) if r % f)
        return n * f, h0, frozenset(r for r in h0 if pow(r, (f - 1) // 3, f) == 1)

    classes = property(_classes)
    prime_qualifies = _prime_qualifies

    def validate(self, group: GroupSpec) -> list[CheckItem]:
        """The relative step's shape, then the base-field facts the construction rests on.

        A field containing the p-th roots of unity, with a single prime above
        p and a class number prime to p, is p-rational: the last item.
        """
        p, c, h, f = group.p, self.conductor, self.class_number, self.cubic_conductor
        deg = len(self.poly) - 1
        roots = p > 0 and c % p == 0  # p <= 0 fails p-prime; p = 0 must not divide
        unique = p != f and _single_place(p, self)
        p_part_trivial = h is not None and p > 0 and h % p != 0
        shape = "cyclic of order" if h is not None and arith.is_prime(h) else "of order"
        return [
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
                "base-cubic-cyclic",
                bool(self.classes[1]),
                "the cubic must be irreducible with discriminant f^2 for a "
                "prime f = 1 (mod 3) prime to the conductor",
            ),
            CheckItem(
                "base-is-imaginary",
                c >= 3,
                "the cyclotomic subfield has no real places, so neither does "
                "any extension of it [computed-here]" if c >= 3 else
                f"over conductor {c} the field is a cyclic cubic, which is "
                f"totally real [computed-here]",
            ),
            CheckItem(
                "contains-p-th-roots",
                roots,
                f"conductor {c} {'supplies' if roots else 'does not supply'} "
                f"the {p}th roots of unity [computed-here]",
            ),
            CheckItem(
                "unique-prime-above-p",
                unique,
                f"{p} has a single place in Q(zeta_{c}), of residue degree "
                f"{arith.euler_phi(c // p ** arith.factorize(c).get(p, 0))} prime "
                f"to 3, and the cubic stays irreducible in its residue field "
                f"(disc = {f * f} is prime to {p}) [computed-here]" if unique
                else f"not established: needs {p} to generate (Z/r)* for r the "
                f"prime-to-{p} part of conductor {c}, 3 not dividing phi(r), "
                f"disc = f^2 for a prime f = 1 (mod 3) other than {p}, and {p} "
                f"not a cube mod f [computed-here]",
            ),
            CheckItem(
                "class-group-p-part-trivial",
                p_part_trivial,
                "no class number given" if h is None else
                f"the class group is {shape} {h} per standard tables; its "
                f"{p}-part is {'trivial' if p_part_trivial else 'not trivial'} "
                f"[external-database]",
            ),
            CheckItem(
                "p-rational",
                roots and unique and p_part_trivial,
                "follows from the roots-of-unity, unique-prime and class-group items",
            ),
        ]

    @property
    def cubic_conductor(self) -> int | None:
        """The prime f = 1 (mod 3) with discriminant f^2, or None for any other poly."""
        return _cubic_conductor(self.poly)


def _cubic_discriminant(c: int, b: int, a: int) -> int:
    """disc(x^3 + a x^2 + b x + c), in closed form: the base is a cubic by definition."""
    return a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c


@functools.cache
def _cubic_conductor(poly: tuple[int, ...]) -> int | None:
    """The prime f = 1 (mod 3) with disc(poly) = f^2, or None for any other poly.

    A monic integer cubic with this discriminant is irreducible over Q.
    Three integer roots a, b, c give the square of (a-b)(b-c)(c-a), which
    is even, while f is odd; a root a times an irreducible quadratic g
    gives D g(a)^2, with D the discriminant of g, which is not a square.
    """
    if len(poly) != 4 or poly[-1] != 1:
        return None
    disc = _cubic_discriminant(*poly[:3])
    f = math.isqrt(max(disc, 0))
    if f * f != disc or f % 3 != 1 or not arith.is_prime(f):
        return None
    return f


BaseField = CyclotomicBase | RelativeCubicBase


def select_primes(
    base: BaseField,
    count: int,
    exclude: Iterable[int] = (),
    ceiling: int = arith.DEFAULT_SEARCH_CEILING,
) -> list[int]:
    """The first ``count`` primes that qualify for ``base``, ascending.

    Every base is walked by its residue-class table, a sieve segment at a
    time; ``gf``'s Rabin test is the independent check of the cubic tables.
    """
    return arith.primes_ascending(count, None, exclude, ceiling, classes=base.classes)


class PlaceRef(Record):
    """A place of the base field above a selected rational prime."""

    q: int
    root: int | None = None  # root of the conductor's cyclotomic poly mod q


class TowerPlan(Record):
    """A fully validated construction plan with its selected data.

    ``gap_rank`` is the declared rank of the comparison gap between the two
    class-group variants, or None when the plan declares no fine-Selmer
    intent; a positive one inflates ``effective_rank_target`` by twice
    itself.  :attr:`layer_degree` is the ground layer's degree d0; layer n
    has degree d0 * p^n.  Its places are derived when :attr:`selected_places`
    is read, which only the JSON renderer does, once; a count is
    ``len(selected_primes) * base.places_per_prime``.
    """

    ell: int
    p: int
    rank_target: int
    effective_rank_target: int
    group: GroupSpec
    base: BaseField
    ramified_target: int
    ramified_target_formula: int
    selected_primes: tuple[int, ...]
    alpha: int
    gap_rank: int | None
    first_effective_layer: int
    validation: ValidationReport
    diagnostics: tuple[Diagnostic, ...]

    @property
    def selected_places(self) -> tuple[PlaceRef, ...]:
        """One place per prime, or per root of Phi_c mod q over a relative base."""
        if self.base.places_per_prime == 1:
            return tuple(PlaceRef(q) for q in self.selected_primes)
        m = self.base.conductor
        return tuple(
            PlaceRef(q, pr.root)
            for q in self.selected_primes
            for pr in cyclotomic.primes_above(q, m)
        )

    @property
    def layer_degree(self) -> int:
        """d0 = action_order * ell * (ell - 1) * dimension, as in ramified_place_target."""
        return self.ramified_target_formula - self.effective_rank_target


def _first_effective_layer(base: BaseField, group: GroupSpec) -> int:
    """Smallest layer from which the degree bookkeeping is in force."""
    base_deg = arith.euler_phi(base.conductor)
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
                        f"{q} does not qualify for {base_label(base)}",
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
        primes = select_primes(base, need, exclude={group.p})
    report = ValidationReport(tuple(post_items))
    if not report.passed:
        raise ValidationFailed(report)

    alpha = arith.mul_many(primes)

    return TowerPlan(
        ell=ell,
        p=group.p,
        rank_target=rank_target,
        effective_rank_target=effective_target,
        group=group,
        base=base,
        ramified_target=target,
        ramified_target_formula=formula,
        selected_primes=tuple(primes),
        alpha=alpha,
        gap_rank=gap_rank,
        first_effective_layer=_first_effective_layer(base, group),
        validation=report,
        diagnostics=(*extra_diagnostics, *catalog.probable_primes(ell=ell, p=group.p)),
    )
