"""Reproduction runs: rebuild each bundled example and diff it against the pin.

Every check recomputes its subject from scratch - prime enumeration, products,
splitting data, factor products - and compares against the pinned values.
Known discrepancies downgrade to catalogued diagnostics so the run can pass
while stating exactly what differs; anything uncatalogued is a hard failure.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import arith, catalog, cyclotomic, gf, zpoly
from .arith import Record
from .bounds import BoundCertificate, build_certificate
from .catalog import Diagnostic
from .fixtures import Fixture, build_plan, get_fixture
from .report import check_line, format_cyclo
from .tower import RelativeCubicBase, TowerPlan, ValidationFailed, select_primes

__all__ = ["CheckResult", "ReproductionResult", "run_reproduction", "factor_check"]

PASS = "pass"
WARN = "warning"
FAIL = "fail"


class CheckResult(Record):
    """One reproduction check: recomputed vs pinned, with any diagnostics."""

    name: str
    status: str  # pass | warning | fail
    detail: str
    diagnostics: tuple[Diagnostic, ...] = ()


class ReproductionResult(Record):
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
        """The plan's, the checks' and the certificate's diagnostics, each once, in order."""
        groups = [c.diagnostics for c in self.checks]
        if self.plan is not None:
            groups.insert(0, self.plan.diagnostics)
        if self.certificate is not None:
            groups.append(self.certificate.diagnostics)
        return tuple(dict.fromkeys(d for group in groups for d in group))


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
                    "validation failed: "
                    + "; ".join(map(check_line, err.report.failures)),
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

    if fx.pins_primes:
        checks.append(_check_prime_qualification(fx, plan))
        checks.append(_check_prime_minimality(fx, plan))
    else:
        checks.append(_check_enumerated_primes(fx, plan))
    checks.append(_check_kummer_element(fx, plan))
    if fx.pinned_ramified_count is not None:
        checks.append(_check_ramified_count(plan))
    if fx.factor_strings is not None:
        checks.append(_check_factorization(fx))

    certificate = build_certificate(plan, av=fx.av, n_max=n_max)
    checks.append(_check_certificate(plan, certificate))

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
    conductor = base.conductor
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
    places = len(plan.selected_primes) * plan.base.places_per_prime
    return CheckResult(
        "prime-qualification",
        PASS,
        f"all {len(fx.pinned_primes)} pinned primes split completely "
        f"downstairs and stay inert upstairs; {places} places cover the "
        f"target {plan.ramified_target}",
    )


def _check_prime_minimality(fx: Fixture, plan: TowerPlan) -> CheckResult:
    base = fx.base
    minimal = select_primes(base, len(fx.pinned_primes), {fx.group.p}, 100_000)
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
        # The listed primes are distinct and divide the pinned value, so each
        # divides it exactly once iff the cofactor is prime to all of them.
        if all(ratio % q for q in plan.selected_primes):
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


def _check_ramified_count(plan: TowerPlan) -> CheckResult:
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
    target = fx.factor_target
    data, unit = factor_check(
        fx.base.conductor, target, fx.factor_strings, note_norms=True
    )
    count, note = len(data["factors"]), _norm_note(data["factor_norms"], target)
    status, detail = {
        "mismatch": (
            FAIL,
            f"the {count} factors multiply to {format_cyclo(data['product'], False)}, "
            f"which is not {target} up to a root of unity; {note}",
        ),
        "exact": (PASS, f"the {count} factors multiply to exactly {target}; {note}"),
        "unit": (
            WARN,
            f"factor product matches {target} only up to the unit {unit} "
            f"(see diagnostics)",
        ),
    }[data["status"]]
    return CheckResult("factorization", status, detail, tuple(data["diagnostics"]))


#: The most work :func:`factor_check` takes on, as :func:`_factor_work` counts
#: it: 6 s at the per-k norm's rate, at most 2.2 s since, in CPython 3.11 on 2 cores.
FACTOR_WORK_BUDGET = 25_000_000


def _factor_work(phi: int, factors: Sequence[cyclotomic.CycloElement]) -> int:
    """Estimated multiply-adds to multiply ``factors`` and take their norms.

    A norm runs over about phi * bits / 63 word primes, bits the length of
    ||a||_1, each costing phi evaluations (a multiply-add per nonzero term,
    plus about two) and a CRT step as long as the primes before it.  A
    product step costs 2 phi per coefficient of the factor, and the product's
    coefficients, of up to P bits for P the factors' bits summed, about
    phi * P^2 / 10^5 to multiply out and render.
    """
    work = total_bits = 0
    for f in factors:
        bits = sum(map(abs, f.coeffs)).bit_length()
        primes = phi * bits // 63 + 1
        work += primes * (phi * (len(f.coeffs) - f.coeffs.count(0) + 2) + primes)
        work += 2 * phi * len(zpoly.normalize(f.coeffs))
        total_bits += bits
    return work + phi * total_bits**2 // 100_000


def factor_check(
    m: int, target: int, factor_strings: Sequence[str], note_norms: bool = False
) -> tuple[dict, str | None]:
    """Multiply zeta-notation factors in Q(zeta_m) and match the product to target.

    Returns the ``factor-check`` document data - conductor, target, factors,
    factor_norms, product, status (exact, unit or mismatch) and diagnostics -
    with the unit, spelled -zeta_m^k, when the match needs one.  A unit match
    carries FACTOR-UNIT-DISCREPANCY, whose message ends in the factor norms
    when ``note_norms`` is set.  Input over ``FACTOR_WORK_BUDGET`` raises ValueError.
    """
    factors = [cyclotomic.parse_cyclo_element(s, m) for s in factor_strings]
    work = _factor_work(arith.euler_phi(m), factors)
    if work > FACTOR_WORK_BUDGET:
        raise ValueError(f"the factors' norms and product would take about {work} "
                         f"multiply-adds, above the budget of {FACTOR_WORK_BUDGET}")
    product = cyclotomic.cyclo_mul(cyclotomic.cyclotomic_polynomial(m), factors)
    norms = [f.norm() for f in factors]
    match = cyclotomic.match_up_to_unit(product, target)
    status = "mismatch" if match is None else "exact" if match == (1, 0) else "unit"
    unit, diags = None, []
    if status == "unit":
        sign, k = match
        unit = ("-" if sign < 0 else "") + (f"zeta_{m}^{k}" if k else "1")
        note = f"; {_norm_note(norms, target)}" if note_norms else ""
        diags.append(
            catalog.make(
                "FACTOR-UNIT-DISCREPANCY",
                f"the factors multiply to {format_cyclo(product, False)}, which is "
                f"{target} times the unit {unit} rather than {target} itself{note}",
            )
        )
    return {
        "conductor": m,
        "target": target,
        "factors": factors,
        "factor_norms": norms,
        "product": product,
        "status": status,
        "diagnostics": diags,
    }, unit


def _norm_note(norms: list[int], target: int) -> str:
    if all(n == target for n in norms):
        return f"each factor has norm {target}"
    return f"factor norms are {norms}"


def _check_certificate(plan: TowerPlan, cert: BoundCertificate) -> CheckResult:
    certified = cert.columns[3][0]  # the class-rank column's c: layer n's is c * p^n
    target = plan.effective_rank_target
    if certified >= target:
        return CheckResult(
            "certificate",
            PASS,
            f"the chain certifies {certified} * {plan.p}^n, covering the declared "
            f"target {target} * {plan.p}^n at every layer",
        )
    return CheckResult(
        "certificate",
        WARN,
        f"as pinned, the chain certifies only {certified} * {plan.p}^n; the "
        f"declared target {target} * {plan.p}^n is out of reach of the "
        f"pinned place count (see diagnostics)",
    )
