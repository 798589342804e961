"""towerbound: split-prime selection, Kummer tower planning, and certified
per-layer lower bounds for class-group and fine-Selmer ranks over cyclotomic
base fields.

The pieces compose bottom-up: exact integer arithmetic (:mod:`.arith`),
integer and cyclotomic polynomials (:mod:`.zpoly`, :mod:`.cyclotomic`),
finite-field tools (:mod:`.gf`), tower planning (:mod:`.tower`), the bound
chain (:mod:`.bounds`), and the bundled worked examples with their
reproduction harness (:mod:`.fixtures`, :mod:`.reproduce`).

Each public name is imported from its module on first access (PEP 562), so
importing the package, or the CLI through it, loads no module it does not use.
"""

__version__ = "0.1.0"

#: each public name's home module, in the order of ``__all__``
_HOMES = {
    **dict.fromkeys(("is_prime", "mul_many", "mult_order", "primes_ascending"), "arith"),
    **dict.fromkeys(("cyclotomic_polynomial", "CycloElement", "SplittingData", "splitting_data",
                     "primes_above", "parse_cyclo_element"), "cyclotomic"),
    **dict.fromkeys(("build_extension_field", "is_irreducible", "distinct_degree_profile",
                     "is_inert_in_relative_extension"), "gf"),
    **dict.fromkeys(("GroupSpec", "validate_group", "ramified_place_target", "CyclotomicBase",
                     "RelativeCubicBase", "TowerPlan", "build_tower_plan"), "tower"),
    **dict.fromkeys(("AbelianVarietyDesc", "BoundCertificate", "build_certificate"), "bounds"),
    **dict.fromkeys(("fixture_ids", "get_fixture", "build_plan"), "fixtures"),
    "run_reproduction": "reproduce",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
