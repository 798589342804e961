"""Bundled worked examples with their published data pinned verbatim.

Each fixture records the printed inputs and outputs of one worked example -
the prime lists, the Kummer element, the stated counts - exactly as
published, even where they are internally inconsistent.  Reproduction runs
recompute everything independently and report discrepancies through the
diagnostic catalogue instead of silently repairing them.
"""

from __future__ import annotations

from . import catalog
from .arith import BUNDLED_AV_LABELS, FAMILY_ABELIAN, FAMILY_NILPOTENT, FIXTURE_IDS, Record
from .bounds import AbelianVarietyDesc
from .tower import (
    CyclotomicBase,
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
BUNDLED_AV = dict(zip(BUNDLED_AV_LABELS, (_AV_11A1, _AV_19A1)))


class Fixture(Record):
    """One worked example: its construction inputs and pinned outputs."""

    fixture_id: str
    title: str
    ell: int
    rank_target: int
    group: GroupSpec
    base: CyclotomicBase | RelativeCubicBase
    pinned_primes: tuple[int, ...]
    pinned_alpha: int
    stated_alpha_digits: int | None = None
    pinned_ramified_count: int | None = None  # replaces the formula's count
    pins_primes: bool = False  # the plan takes pinned_primes, not a search
    av: AbelianVarietyDesc | None = None
    factor_target: int | None = None
    factor_strings: tuple[str, ...] | None = None


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
        av=_AV_11A1,
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
        pinned_ramified_count=90,
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
        # x^3 - x^2 - 4x - 1 (constant term first) over Q(zeta_7), with the
        # class number the standard tables give
        base=RelativeCubicBase(conductor=7, poly=(-1, -4, -1, 1), class_number=13),
        pinned_primes=_EX3_PRIMES,
        pinned_alpha=_EX3_ALPHA,
        pins_primes=True,
        av=_AV_19A1,
        factor_target=_EX3_FACTOR_TARGET,
        factor_strings=_EX3_FACTORS,
    ),
}


def fixture_ids() -> tuple[str, ...]:
    return FIXTURE_IDS


def get_fixture(fixture_id: str) -> Fixture:
    try:
        return _FIXTURES[fixture_id]
    except KeyError:
        raise KeyError(
            f"unknown fixture {fixture_id!r}; have {', '.join(fixture_ids())}"
        ) from None


def build_plan(fixture_id: str) -> TowerPlan:
    """Build the tower plan for a fixture, pinning what the fixture pins.

    A pinned place count replaces the formula value and carries the two
    catalogued warnings on it (example2); ``pins_primes`` replaces the
    ascending search with the pinned list, which must still qualify
    (example3).
    """
    fx = get_fixture(fixture_id)
    return build_tower_plan(
        fx.ell,
        fx.group,
        fx.base,
        fx.rank_target,
        gap_rank=0,
        ramified_target_override=fx.pinned_ramified_count,
        primes_override=fx.pinned_primes if fx.pins_primes else None,
        extra_diagnostics=_pinned_count_diagnostics(fx),
    )


def _pinned_count_diagnostics(fx: Fixture) -> tuple[catalog.Diagnostic, ...]:
    """EX2-T-FORMULA and EX2-DIM-INCONSISTENT for a pinned place count."""
    pinned, n, dim = fx.pinned_ramified_count, fx.rank_target, fx.group.dimension
    if pinned is None:
        return ()
    formula = ramified_place_target(n, fx.group.action_order, dim, fx.ell)
    per_dim = (formula - n) // dim
    implied, rem = divmod(pinned - n, per_dim)
    return (
        catalog.make(
            "EX2-T-FORMULA",
            f"pinned place count {pinned} differs from the formula value "
            f"{formula} for the stated dimension {dim}; "
            f"the published relation t = N + 2dℓ(ℓ−1) = "
            f"{pinned} holds only with d = {implied}",
        ),
        catalog.make(
            "EX2-DIM-INCONSISTENT",
            f"the pinned count {pinned} matches dimension "
            f"{implied if rem == 0 else 'none'} "
            f"({n} + {per_dim} * {implied} = {n + per_dim * implied}), but the "
            f"stated dimension is {dim}; the pinned data is "
            f"reproduced as published, with no guessed repair",
        ),
    )
