"""Bundled worked examples with their published data pinned verbatim.

Each fixture records the printed inputs and outputs of one worked example -
the prime lists, the Kummer element, the stated counts - exactly as
published, even where they are internally inconsistent.  Reproduction runs
recompute everything independently and report discrepancies through the
diagnostic catalogue instead of silently repairing them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog, gf, zpoly
from .bounds import AbelianVarietyDesc, FiniteAbelianGroup, ell_rank
from .tower import (
    AssumptionChecklist,
    ChecklistItem,
    CyclotomicBase,
    FAMILY_ABELIAN,
    FAMILY_NILPOTENT,
    GroupSpec,
    RelativeCubicBase,
    TowerPlan,
    build_tower_plan,
    ramified_place_target,
)

__all__ = [
    "BUNDLED_AV",
    "Fixture",
    "fixture_ids",
    "get_fixture",
    "build_plan",
    "bundled_cubic_base",
]


# ---------------------------------------------------------------------------
# pinned data, verbatim as published
# ---------------------------------------------------------------------------

_EX1_PRIMES = (
    2, 5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89, 101, 107, 113, 131,
    137, 149, 167, 173, 179, 191, 197, 227, 233, 239, 251, 257, 263, 269,
    281, 293, 311, 317, 347, 353, 359, 383, 389, 401, 419,
)

_EX1_ALPHA = int(
    "556482130087816956726678103847022047054729682986681804614281048399"
    "478905195501007583867510"
)

_EX2_PRIMES = (
    2, 5, 11, 23, 29, 41, 47, 59, 83, 101, 113, 131, 137, 149, 167, 173,
    191, 227, 239, 257, 263, 281, 293, 311, 317, 347, 353, 383, 389, 401,
    419, 443, 461, 479, 491, 509, 563, 569, 587, 599, 617, 641, 653, 659,
    677, 743, 761, 797, 821, 839, 857, 887, 911, 929, 941, 947, 977, 983,
    1013, 1019, 1031, 1049, 1091, 1103, 1109, 1163, 1181, 1193, 1217, 1229,
    1283, 1289, 1301, 1307, 1319, 1361, 1373, 1409, 1427, 1433, 1451, 1481,
    1487, 1499, 1523, 1553, 1559, 1571, 1607, 1613,
)

_EX2_ALPHA = int(
    "302669156719085677120110587232345428446547465609771471264087830687"
    "221973823946203120683121105279988012699117394288474908858414443287"
    "091308966386167902242957859532761609270923483095428112544069874627"
    "6229454515840531070329013191741865236750170"
)

_EX3_PRIMES = (43, 127, 491, 673, 953, 1499, 1583, 2129, 2311, 2591)

_EX3_ALPHA = int(
    "78402503779216655405023576089116738265320606062683342998991230977"
    "29859436684020023921188941416161094578321474807227626638759156142079702"
    "108239313497652801991067685041337071171617321114788409671453358754013644971"
)

_EX3_CUBIC = (-1, -4, -1, 1)  # x^3 - x^2 - 4x - 1, constant term first

_EX3_FACTOR_TARGET = 43

_EX3_FACTORS = (
    "ζ₇⁵ + 2ζ₇³ + ζ₇² + 1",
    "ζ₇⁵ + ζ₇⁴ + 2ζ₇² + ζ₇",
    "2ζ₇⁵ + ζ₇⁴ + 2ζ₇³ + ζ₇² + 2ζ₇ + 1",
    "-2ζ₇⁵ - ζ₇⁴ - ζ₇³ - 2ζ₇² - 2ζ₇ - 1",
    "2ζ₇⁴ + ζ₇³ + ζ₇² + ζ₇",
    "ζ₇⁵ + ζ₇⁴ + ζ₇³ + 2ζ₇²",
)

_AV_11A1 = AbelianVarietyDesc(
    label="11a1",
    dimension=1,
    torsion_at_kummer_prime=True,  # rational point of order 5
    bad_primes=(11,),
    provenance="external-database",
)

_AV_19A1 = AbelianVarietyDesc(
    label="19a1",
    dimension=1,
    torsion_at_kummer_prime=True,  # rational point of order 3
    bad_primes=(19,),
    provenance="external-database",
)

#: the bundled abelian varieties by label, as ``construct --av`` offers them
BUNDLED_AV = {av.label: av for av in (_AV_11A1, _AV_19A1)}


@dataclass(frozen=True)
class Fixture:
    """One worked example: its construction inputs and pinned outputs."""

    fixture_id: str
    title: str
    ell: int
    rank_target: int
    group: GroupSpec
    base: CyclotomicBase | RelativeCubicBase
    pinned_primes: tuple[int, ...]
    pinned_alpha: int
    stated_alpha_digits: int | None
    pinned_ramified_count: int | None
    av: AbelianVarietyDesc | None
    declared_gap_rank: int
    factor_target: int | None = None
    factor_strings: tuple[str, ...] | None = None

    @property
    def p(self) -> int:
        return self.group.p


_FIXTURES: dict[str, Fixture] = {
    "example1": Fixture(
        fixture_id="example1",
        title="rank 2 towers over the conductor-3 field, Kummer prime 5",
        ell=5,
        rank_target=2,
        group=GroupSpec(p=3, dimension=1, action_order=2, family=FAMILY_ABELIAN),
        base=CyclotomicBase(conductor=3),
        pinned_primes=_EX1_PRIMES,
        pinned_alpha=_EX1_ALPHA,
        stated_alpha_digits=93,
        pinned_ramified_count=None,
        av=_AV_11A1,
        declared_gap_rank=0,
    ),
    "example2": Fixture(
        fixture_id="example2",
        title="rank 10 towers over the conductor-9 field, Kummer prime 5",
        ell=5,
        rank_target=10,
        group=GroupSpec(p=3, dimension=3, action_order=2, family=FAMILY_ABELIAN),
        base=CyclotomicBase(conductor=9),
        pinned_primes=_EX2_PRIMES,
        pinned_alpha=_EX2_ALPHA,
        stated_alpha_digits=None,
        pinned_ramified_count=90,
        av=None,
        declared_gap_rank=0,
    ),
    "example3": Fixture(
        fixture_id="example3",
        title="rank 6 nilpotent towers over a relative cubic, Kummer prime 3",
        ell=3,
        rank_target=6,
        group=GroupSpec(
            p=7,
            dimension=3,
            action_order=3,
            family=FAMILY_NILPOTENT,
            twist_exponent=1,
        ),
        base=RelativeCubicBase(base_conductor=7, poly=_EX3_CUBIC),
        pinned_primes=_EX3_PRIMES,
        pinned_alpha=_EX3_ALPHA,
        stated_alpha_digits=None,
        pinned_ramified_count=None,
        av=_AV_19A1,
        declared_gap_rank=0,
        factor_target=_EX3_FACTOR_TARGET,
        factor_strings=_EX3_FACTORS,
    ),
}


def fixture_ids() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def get_fixture(fixture_id: str) -> Fixture:
    try:
        return _FIXTURES[fixture_id]
    except KeyError:
        raise KeyError(
            f"unknown fixture {fixture_id!r}; have {', '.join(fixture_ids())}"
        ) from None


def bundled_cubic_base() -> tuple[RelativeCubicBase, AssumptionChecklist]:
    """The relative cubic base of example3 with its hypothesis checklist.

    The checklist is discharged for example3's tower prime p.  Three of its
    four items are computed on the spot; the class-group item rests on the
    standard tables and says so in its provenance.
    """
    fx = get_fixture("example3")
    base, p = fx.base, fx.group.p
    assert isinstance(base, RelativeCubicBase)
    poly = list(base.poly)
    disc = zpoly.discriminant(poly)
    residue = gf.PrimeField(p)
    stays_irreducible = gf.is_irreducible(residue, [c % p for c in poly])
    conductor_is_p_power = _is_power_of(base.base_conductor, p)
    class_group = FiniteAbelianGroup((13,))
    p_part_trivial = ell_rank(class_group, p) == 0
    return base, AssumptionChecklist(
        base_description=base.describe(),
        totally_imaginary=ChecklistItem(
            name="totally-imaginary",
            holds=True,
            provenance="computed-here",
            detail=(
                "the cyclotomic subfield has no real places, so neither does "
                "any extension of it"
            ),
        ),
        contains_p_roots=ChecklistItem(
            name="contains-p-th-roots",
            holds=base.base_conductor % p == 0,
            provenance="computed-here",
            detail=f"conductor {base.base_conductor} supplies the {p}th roots of unity",
        ),
        unique_prime_above_p=ChecklistItem(
            name="unique-prime-above-p",
            holds=conductor_is_p_power and disc % p != 0 and stays_irreducible,
            provenance="computed-here",
            detail=(
                f"{p} is totally ramified through the cyclotomic part and the "
                f"cubic stays irreducible in the residue field "
                f"(disc = {disc} is prime to {p})"
            ),
        ),
        class_group_p_part_trivial=ChecklistItem(
            name="class-group-p-part-trivial",
            holds=p_part_trivial,
            provenance="external-database",
            detail=(
                f"the class group is cyclic of order {class_group.order} per "
                f"standard tables; its {p}-part is trivial"
            ),
        ),
    )


def _is_power_of(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def build_plan(fixture_id: str) -> TowerPlan:
    """Build the tower plan for a fixture, pinning data where the example does.

    example1 derives everything from the parameters.  example2 pins the
    published place count (which disagrees with the formula) and carries the
    two catalogued warnings.  example3 pins the published prime list, which
    qualifies but is not the ascending-minimal choice.
    """
    fx = get_fixture(fixture_id)
    if fixture_id == "example1":
        return build_tower_plan(
            fx.ell,
            fx.group,
            fx.base,
            fx.rank_target,
            gap_rank=fx.declared_gap_rank,
        )
    if fixture_id == "example2":
        formula = ramified_place_target(
            fx.rank_target,
            fx.group.action_order,
            fx.group.dimension,
            fx.ell,
        )
        pinned = fx.pinned_ramified_count
        assert pinned is not None
        per_dim = fx.group.action_order * fx.ell * (fx.ell - 1)
        implied, rem = divmod(pinned - fx.rank_target, per_dim)
        diags = (
            catalog.make(
                "EX2-T-FORMULA",
                f"pinned place count {pinned} differs from the formula value "
                f"{formula} for the stated dimension {fx.group.dimension}; "
                f"the published relation t = N + 2dℓ(ℓ−1) = "
                f"{pinned} holds only with d = {implied}",
            ),
            catalog.make(
                "EX2-DIM-INCONSISTENT",
                f"the pinned count {pinned} matches dimension "
                f"{implied if rem == 0 else 'none'} "
                f"({fx.rank_target} + {per_dim} * {implied} = "
                f"{fx.rank_target + per_dim * implied}), but the stated "
                f"dimension is {fx.group.dimension}; the pinned data is "
                f"reproduced as published, with no guessed repair",
            ),
        )
        return build_tower_plan(
            fx.ell,
            fx.group,
            fx.base,
            fx.rank_target,
            gap_rank=fx.declared_gap_rank,
            ramified_target_override=pinned,
            extra_diagnostics=diags,
        )
    if fixture_id == "example3":
        base, checklist = bundled_cubic_base()
        return build_tower_plan(
            fx.ell,
            fx.group,
            base,
            fx.rank_target,
            checklist=checklist,
            gap_rank=fx.declared_gap_rank,
            primes_override=fx.pinned_primes,
        )
    raise KeyError(f"unknown fixture {fixture_id!r}")
