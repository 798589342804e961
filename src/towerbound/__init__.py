"""towerbound: split-prime selection, Kummer tower planning, and certified
per-layer lower bounds for class-group and fine-Selmer ranks over cyclotomic
base fields.

The pieces compose bottom-up: exact integer arithmetic (:mod:`.arith`),
integer and cyclotomic polynomials (:mod:`.zpoly`, :mod:`.cyclotomic`),
finite-field tools (:mod:`.gf`), tower planning (:mod:`.tower`), the bound
chain (:mod:`.bounds`), and the bundled worked examples with their
reproduction harness (:mod:`.fixtures`, :mod:`.reproduce`).
"""

from .arith import is_prime, mul_many, mult_order, primes_ascending
from .bounds import (
    AbelianVarietyDesc,
    BoundCertificate,
    build_certificate,
)
from .cyclotomic import (
    CycloElement,
    SplittingData,
    cyclotomic_polynomial,
    parse_cyclo_element,
    primes_above,
    splitting_data,
)
from .gf import (
    build_extension_field,
    distinct_degree_profile,
    is_inert_in_relative_extension,
    is_irreducible,
)
from .tower import (
    CyclotomicBase,
    GroupSpec,
    RelativeCubicBase,
    TowerPlan,
    build_tower_plan,
    ramified_place_target,
    validate_group,
)
from .fixtures import build_plan, fixture_ids, get_fixture
from .reproduce import run_reproduction

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "is_prime",
    "mul_many",
    "mult_order",
    "primes_ascending",
    "cyclotomic_polynomial",
    "CycloElement",
    "SplittingData",
    "splitting_data",
    "primes_above",
    "parse_cyclo_element",
    "build_extension_field",
    "is_irreducible",
    "distinct_degree_profile",
    "is_inert_in_relative_extension",
    "GroupSpec",
    "validate_group",
    "ramified_place_target",
    "CyclotomicBase",
    "RelativeCubicBase",
    "TowerPlan",
    "build_tower_plan",
    "AbelianVarietyDesc",
    "BoundCertificate",
    "build_certificate",
    "fixture_ids",
    "get_fixture",
    "build_plan",
    "run_reproduction",
]
