"""Reproduction runs: rebuild each bundled example and diff it against the pin.

Every check recomputes its subject from scratch - prime enumeration, products,
splitting data, factor products - and compares against the pinned values.
Known discrepancies downgrade to catalogued diagnostics so the run can pass
while stating exactly what differs; anything uncatalogued is a hard failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arith, catalog, cyclotomic, gf
from .bounds import BoundCertificate, build_certificate
from .catalog import Diagnostic
from .fixtures import Fixture, build_plan, get_fixture
from .report import wrap_document
from .tower import RelativeCubicBase, TowerPlan, ValidationFailed

__all__ = ["CheckResult", "ReproductionResult", "run_reproduction"]

PASS = "pass"
WARN = "warning"
FAIL = "fail"


@dataclass(frozen=True)
class CheckResult:
    """One reproduction check: recomputed vs pinned, with any diagnostics."""

    name: str
    status: str  # pass | warning | fail
    detail: str
    diagnostics: tuple[Diagnostic, ...] = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


@dataclass(frozen=True)
class ReproductionResult:
    """Everything one reproduction run produced."""

    fixture_id: str
    title: str
    plan: TowerPlan | None
    certificate: BoundCertificate | None
    checks: tuple[CheckResult, ...]

    @property
    def result(self) -> str:
        if any(c.status == FAIL for c in self.checks):
            return "fail"
        has_warning = any(c.status == WARN for c in self.checks) or any(
            d.severity == "warning" for d in self.all_diagnostics()
        )
        return "pass-with-warnings" if has_warning else "pass"

    @property
    def exit_code(self) -> int:
        return 1 if self.result == "fail" else 0

    def all_diagnostics(self) -> tuple[Diagnostic, ...]:
        seen: dict[tuple[str, str], Diagnostic] = {}
        sources: list[tuple[Diagnostic, ...]] = []
        if self.plan is not None:
            sources.append(self.plan.diagnostics)
        for c in self.checks:
            sources.append(c.diagnostics)
        if self.certificate is not None:
            sources.append(self.certificate.diagnostics)
        for group in sources:
            for d in group:
                seen.setdefault((d.code, d.message), d)
        return tuple(seen.values())

    def to_json_doc(self) -> dict:
        body: dict = {
            "fixture": self.fixture_id,
            "title": self.title,
            "checks": [c.to_json() for c in self.checks],
            "diagnostics": [d.to_json() for d in self.all_diagnostics()],
            "result": self.result,
        }
        body["plan"] = self.plan.to_json_doc() if self.plan else None
        body["certificate"] = (
            self.certificate.to_json_doc() if self.certificate else None
        )
        return wrap_document("reproduction", body)

    def to_text_lines(self) -> list[str]:
        lines = [f"reproduction: {self.fixture_id} - {self.title}"]
        if self.plan is not None:
            p = self.plan
            lines.append(
                f"  parameters: ell={p.ell} p={p.p} rank-target={p.rank_target} "
                f"group={p.group.describe()} base={p.base.describe()}"
            )
            lines.append(
                f"  selection: {len(p.selected_primes)} primes, "
                f"{len(p.selected_places)} places, alpha has "
                f"{len(arith.format_decimal(p.alpha))} digits"
            )
        lines.append("  checks:")
        for c in self.checks:
            lines.append(f"    [{c.status}] {c.name} - {c.detail}")
        if self.certificate is not None:
            lines.append("")
            lines.append("  certificate:")
            lines.extend("    " + ln for ln in self.certificate.to_text_lines())
        diags = self.all_diagnostics()
        if diags:
            lines.append("")
            lines.append("  diagnostics:")
            for d in diags:
                lines.append(f"    {d.render()}")
        lines.append("")
        lines.append(f"result: {self.result}")
        return lines


def run_reproduction(fixture_id: str, n_max: int = 4) -> ReproductionResult:
    """Rebuild a bundled example and verify every recomputable claim."""
    fx = get_fixture(fixture_id)
    try:
        plan = build_plan(fixture_id)
    except ValidationFailed as err:
        return ReproductionResult(
            fixture_id=fixture_id,
            title=fx.title,
            plan=None,
            certificate=None,
            checks=(
                CheckResult(
                    "construction",
                    FAIL,
                    "validation failed: " + "; ".join(
                        i.render() for i in err.report.failures
                    ),
                ),
            ),
        )

    checks: list[CheckResult] = [
        CheckResult(
            "construction",
            PASS,
            f"{len(plan.validation.items)} structural conditions verified",
        )
    ]

    if fixture_id in ("example1", "example2"):
        checks.append(_check_enumerated_primes(fx, plan))
    else:
        checks.append(_check_prime_qualification(fx, plan))
        checks.append(_check_prime_minimality(fx, plan))
    checks.append(_check_kummer_element(fx, plan))
    if fx.pinned_ramified_count is not None:
        checks.append(_check_ramified_count(fx, plan))
    if fx.factor_strings is not None:
        checks.append(_check_factorization(fx))

    certificate = build_certificate(plan, av=fx.av, n_max=n_max)
    checks.append(_check_certificate(fx, plan))

    return ReproductionResult(
        fixture_id=fixture_id,
        title=fx.title,
        plan=plan,
        certificate=certificate,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _check_enumerated_primes(fx: Fixture, plan: TowerPlan) -> CheckResult:
    computed = plan.selected_primes
    pinned = fx.pinned_primes
    if computed == pinned:
        return CheckResult(
            "prime-selection",
            PASS,
            f"the first {len(pinned)} qualifying primes match the pinned "
            f"list exactly",
        )
    for i, (a, b) in enumerate(zip(computed, pinned)):
        if a != b:
            return CheckResult(
                "prime-selection",
                FAIL,
                f"lists diverge at position {i}: computed {a}, pinned {b}",
            )
    return CheckResult(
        "prime-selection",
        FAIL,
        f"lengths differ: computed {len(computed)}, pinned {len(pinned)}",
    )


def _check_prime_qualification(fx: Fixture, plan: TowerPlan) -> CheckResult:
    base = fx.base
    assert isinstance(base, RelativeCubicBase)
    conductor = base.base_conductor
    bad: list[str] = []
    for q in fx.pinned_primes:
        sd = cyclotomic.splitting_data(q, conductor)
        if (sd.e, sd.f, sd.g) != (1, 1, arith.euler_phi(conductor)):
            bad.append(f"{q} has (e,f,g)=({sd.e},{sd.f},{sd.g})")
            continue
        verdicts = gf.is_inert_in_relative_extension(list(base.poly), q, conductor)
        if not all(verdicts):
            bad.append(f"{q} does not stay inert in the relative step")
    if bad:
        return CheckResult("prime-qualification", FAIL, "; ".join(bad))
    places = len(plan.selected_places)
    return CheckResult(
        "prime-qualification",
        PASS,
        f"all {len(fx.pinned_primes)} pinned primes split completely "
        f"downstairs and stay inert upstairs; {places} places cover the "
        f"target {plan.ramified_target}",
    )


def _check_prime_minimality(fx: Fixture, plan: TowerPlan) -> CheckResult:
    base = fx.base
    minimal = arith.primes_ascending(
        len(fx.pinned_primes),
        predicate=base.prime_qualifies,
        exclude={fx.group.p},
        ceiling=100_000,
    )
    if tuple(minimal) == fx.pinned_primes:
        return CheckResult(
            "prime-minimality",
            PASS,
            "the pinned list is the ascending-minimal choice",
        )
    diag = catalog.make(
        "EX3-PRIMES-NOT-MINIMAL",
        f"the ascending-minimal qualifying primes are "
        f"{', '.join(map(str, minimal))}; the pinned list "
        f"{', '.join(map(str, fx.pinned_primes))} qualifies but is not minimal",
    )
    return CheckResult(
        "prime-minimality",
        PASS,
        "pinned list qualifies but is not the ascending-minimal choice "
        "(see diagnostics)",
        diagnostics=(diag,),
    )


def _check_kummer_element(fx: Fixture, plan: TowerPlan) -> CheckResult:
    product = plan.alpha
    pinned = fx.pinned_alpha
    stated = fx.stated_alpha_digits
    digit_note = ""
    if stated is not None and stated != len(str(pinned)):
        digit_note = (
            f"; the stated digit count {stated} also disagrees with the "
            f"pinned value's {len(str(pinned))} digits"
        )
    if product == pinned:
        return CheckResult(
            "kummer-element",
            PASS,
            f"the product of the {len(plan.selected_primes)} selected primes "
            f"matches the pinned value ({len(str(pinned))} digits)" + digit_note,
        )
    if pinned % product == 0:
        ratio = pinned // product
        if ratio == _next_qualifying_prime(plan):
            diag = catalog.make(
                "EX1-ALPHA-EXTRA-PRIME",
                f"the pinned value equals the product of the listed primes "
                f"times {ratio}, which is the next qualifying prime after "
                f"{plan.selected_primes[-1]}; the product has "
                f"{len(str(product))} digits, the pinned value "
                f"{len(str(pinned))}" + digit_note,
            )
            return CheckResult(
                "kummer-element",
                WARN,
                "pinned value differs from the recomputed product by one "
                "extra qualifying prime (see diagnostics)",
                diagnostics=(diag,),
            )
        if _valuations_all_one(pinned, plan.selected_primes) and _coprime_cofactor(
            pinned, product, plan.selected_primes
        ):
            diag = catalog.make(
                "EX3-ALPHA-COFACTOR",
                f"the pinned value equals the product of the listed primes "
                f"times a {len(str(ratio))}-digit cofactor coprime to every "
                f"listed prime; each listed prime divides the pinned value "
                f"exactly once, which is all the construction needs",
            )
            return CheckResult(
                "kummer-element",
                WARN,
                "pinned value carries a large cofactor beyond the listed "
                "primes (see diagnostics)",
                diagnostics=(diag,),
            )
    return CheckResult(
        "kummer-element",
        FAIL,
        f"pinned value does not match the recomputed product and the "
        f"difference is not catalogued (product {len(str(product))} digits, "
        f"pinned {len(str(pinned))} digits)",
    )


def _next_qualifying_prime(plan: TowerPlan) -> int:
    """The prime the plan's search would select after its last one.

    That is the first prime above the last selected one that qualifies in
    the base and is not the excluded tower prime p.
    """
    return next(
        q
        for q in arith.primes(plan.selected_primes[-1] + 1)
        if q != plan.p and plan.base.prime_qualifies(q)
    )


def _valuations_all_one(pinned: int, primes: tuple[int, ...]) -> bool:
    for q in primes:
        if pinned % q != 0 or (pinned // q) % q == 0:
            return False
    return True


def _coprime_cofactor(pinned: int, product: int, primes: tuple[int, ...]) -> bool:
    cof = pinned // product
    return all(cof % q != 0 for q in primes)


def _check_ramified_count(fx: Fixture, plan: TowerPlan) -> CheckResult:
    # The catalogued diagnostics were attached when the plan was built;
    # here we just surface the comparison as a warning-status check.
    return CheckResult(
        "ramified-count",
        WARN,
        f"pinned place count {plan.ramified_target} differs from the "
        f"formula value {plan.ramified_target_formula}; the pinned count is "
        f"reproduced as published (see diagnostics)",
    )


def _check_factorization(fx: Fixture) -> CheckResult:
    assert fx.factor_strings is not None and fx.factor_target is not None
    base = fx.base
    assert isinstance(base, RelativeCubicBase)
    m = base.base_conductor
    mod = cyclotomic.cyclotomic_polynomial(m)
    factors = [cyclotomic.parse_cyclo_element(s, m) for s in fx.factor_strings]
    norms = [f.norm() for f in factors]
    product = cyclotomic.cyclo_mul(mod, factors)
    match = cyclotomic.match_up_to_unit(product, fx.factor_target)
    norm_note = (
        f"each factor has norm {fx.factor_target}"
        if all(n == fx.factor_target for n in norms)
        else f"factor norms are {norms}"
    )
    if match is None:
        return CheckResult(
            "factorization",
            FAIL,
            f"the {len(factors)} factors multiply to {product.render(False)}, "
            f"which is not {fx.factor_target} up to a root of unity; {norm_note}",
        )
    sign, k = match
    if (sign, k) == (1, 0):
        return CheckResult(
            "factorization",
            PASS,
            f"the {len(factors)} factors multiply to exactly "
            f"{fx.factor_target}; {norm_note}",
        )
    unit = ("-" if sign < 0 else "") + (f"zeta_{m}^{k}" if k else "1")
    diag = catalog.make(
        "FACTOR-UNIT-DISCREPANCY",
        f"the factors multiply to {product.render(False)}, which is "
        f"{fx.factor_target} times the unit {unit} rather than "
        f"{fx.factor_target} itself; {norm_note}",
    )
    return CheckResult(
        "factorization",
        WARN,
        f"factor product matches {fx.factor_target} only up to the unit "
        f"{unit} (see diagnostics)",
        diagnostics=(diag,),
    )


def _check_certificate(fx: Fixture, plan: TowerPlan) -> CheckResult:
    net = plan.ramified_target - plan.degree_lower(0)
    target = plan.effective_rank_target
    if net >= target:
        return CheckResult(
            "certificate",
            PASS,
            f"the chain certifies {net} * {plan.p}^n, covering the declared "
            f"target {target} * {plan.p}^n at every layer",
        )
    certified = max(net, 0)
    return CheckResult(
        "certificate",
        WARN,
        f"as pinned, the chain certifies only {certified} * {plan.p}^n; the "
        f"declared target {target} * {plan.p}^n is out of reach of the "
        f"pinned place count (see diagnostics)",
    )
