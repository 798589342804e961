"""Command-line interface.

Subcommands: reproduce, construct, verify-factorization, split, inert-primes,
certificate.  Text is the default; --json switches to a canonical JSON
document (schema 1) that is byte-identical across runs for the same inputs.
Exit codes: 0 success (possibly with catalogued warnings), 1 a check or
validation failed, 2 malformed input.  Commands raise, and ``main`` maps the
exception through ``_EXIT_CODES`` to one ``<command>: <reason>`` line on
stderr: ValidationFailed (then its failed items), SearchExhausted and
EqualPrimes exit 1; ValueError (parse errors included) and OSError (say, an
unwritable --out) exit 2.  The parser exits 2 on out-of-range numbers:
--n-max must lie in [0, 1000], a cap on the certificate's rows; conductors
must lie in [1, MAX_CONDUCTOR], and --count must be >= 0.  No argv ends in a
traceback, which tests/test_cli_fuzz.py checks on seeded random argv.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import arith, catalog, cyclotomic
from .bounds import AbelianVarietyDesc, build_certificate
from .fixtures import build_plan, bundled_cubic_base, fixture_ids, get_fixture
from .report import stable_json, wrap_document
from .reproduce import run_reproduction
from .tower import (
    CyclotomicBase,
    EqualPrimes,
    FAMILY_ABELIAN,
    FAMILY_NILPOTENT,
    GroupSpec,
    ValidationFailed,
    build_tower_plan,
)

__all__ = ["main", "build_parser", "MAX_CONDUCTOR"]

#: The largest conductor any subcommand accepts.  It bounds the work that
#: grows with the conductor: trial-division factoring of m, m-entry lists,
#: and verify-factorization, whose norm of a dense factor such as
#: zeta^(m-1) + 1 costs about m^3 (3 to 4 s at m = 499 on a 2-core host).
MAX_CONDUCTOR = 500

_BUNDLED_AV = {
    "11a1": ("11a1", 1, True, (11,)),
    "19a1": ("19a1", 1, True, (19,)),
}

#: The exit code of each exception a command may raise, tried in order
#: (EqualPrimes is a ValueError, so it must precede that entry).
_EXIT_CODES = {
    ValidationFailed: 1,
    arith.SearchExhausted: 1,
    EqualPrimes: 1,
    ValueError: 2,
    OSError: 2,
}


def _int_in(lo: int, hi: int | None = None) -> Callable[[str], int]:
    """An argparse type: a decimal integer in [lo, hi], unbounded above if hi is None."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    parse.__name__ = "int"  # keeps argparse's "invalid int value" wording
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="towerbound",
        description=(
            "select split/inert primes over cyclotomic base fields, plan "
            "Kummer towers, and emit certified per-layer rank lower bounds"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a canonical JSON document"
    )
    common.add_argument(
        "--out", type=Path, default=None, help="write the report to this path"
    )
    layered = argparse.ArgumentParser(add_help=False)
    layered.add_argument(
        "--n-max",
        type=_int_in(0, 1000),  # a cap: certificate rows are built eagerly
        default=4,
        help="deepest tower layer to tabulate (default 4)",
    )

    rep = sub.add_parser(
        "reproduce",
        parents=[common, layered],
        help="rebuild a bundled example and diff it against the pinned data",
    )
    rep.add_argument("example", choices=list(fixture_ids()) + ["all"])
    rep.set_defaults(func=cmd_reproduce)

    con = sub.add_parser(
        "construct",
        parents=[common, layered],
        help="build a plan and certificate from explicit parameters",
    )
    con.add_argument("--ell", type=int, required=True, help="odd Kummer prime")
    con.add_argument("--p", type=int, required=True, help="tower prime")
    con.add_argument(
        "--rank-target", type=int, required=True, help="rank to certify at layer 0"
    )
    con.add_argument(
        "--family",
        choices=[FAMILY_ABELIAN, FAMILY_NILPOTENT],
        default=FAMILY_ABELIAN,
    )
    con.add_argument("--dimension", type=int, default=1)
    con.add_argument(
        "--twist-exponent",
        type=int,
        default=None,
        help="exponent s in the nilpotent family's commutator relation",
    )
    con.add_argument(
        "--base",
        choices=["cyclotomic", "bundled-cubic"],
        default="cyclotomic",
        help=(
            "cyclotomic uses --conductor; bundled-cubic is the relative "
            "cubic base shipped with example3, checklist included"
        ),
    )
    con.add_argument("--conductor", type=_int_in(1, MAX_CONDUCTOR), default=None)
    con.add_argument(
        "--gap-rank",
        type=int,
        default=None,
        help="declare fine-Selmer intent with this comparison-gap rank",
    )
    con.add_argument(
        "--av",
        choices=sorted(_BUNDLED_AV),
        default=None,
        help="add fine-Selmer columns for this bundled abelian variety",
    )
    con.set_defaults(func=cmd_construct)

    ver = sub.add_parser(
        "verify-factorization",
        parents=[common],
        help="multiply cyclotomic-integer factors and compare with a target",
    )
    ver.add_argument("--conductor", type=_int_in(1, MAX_CONDUCTOR), required=True)
    ver.add_argument("--target", type=int, required=True)
    ver.add_argument(
        "--factor",
        action="append",
        required=True,
        metavar="ELEMENT",
        help="a factor in zeta notation; repeat per factor",
    )
    ver.set_defaults(func=cmd_verify_factorization)

    spl = sub.add_parser(
        "split",
        parents=[common],
        help="splitting data (e, f, g) of a rational prime in Q(zeta_m)",
    )
    spl.add_argument("prime", type=int)
    spl.add_argument("conductor", type=_int_in(1, MAX_CONDUCTOR))
    spl.set_defaults(func=cmd_split)

    ine = sub.add_parser(
        "inert-primes",
        parents=[common],
        help="first k rational primes inert in Q(zeta_m)",
    )
    ine.add_argument("conductor", type=_int_in(1, MAX_CONDUCTOR))
    ine.add_argument("--count", type=_int_in(0), required=True)
    ine.add_argument(
        "--exclude",
        type=int,
        action="append",
        default=[],
        metavar="PRIME",
        help="skip this prime even if it qualifies; repeatable",
    )
    ine.add_argument(
        "--ceiling", type=int, default=arith.DEFAULT_SEARCH_CEILING
    )
    ine.set_defaults(func=cmd_inert_primes)

    cer = sub.add_parser(
        "certificate",
        parents=[common, layered],
        help="per-layer bound certificate for a bundled example",
    )
    cer.add_argument("example", choices=list(fixture_ids()))
    cer.set_defaults(func=cmd_certificate)

    return parser


def _deliver(args: argparse.Namespace, text: str) -> None:
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_reproduce(args: argparse.Namespace) -> int:
    ids = list(fixture_ids()) if args.example == "all" else [args.example]
    results = [run_reproduction(fid, n_max=args.n_max) for fid in ids]
    if args.json:
        if len(results) == 1:
            doc = results[0].to_json_doc()
        else:
            doc = wrap_document(
                "reproduction-batch",
                {"runs": [r.to_json_doc() for r in results]},
            )
        _deliver(args, stable_json(doc))
    else:
        blocks = []
        for r in results:
            blocks.append("\n".join(r.to_text_lines()))
        _deliver(args, "\n\n".join(blocks) + "\n")
    return max(r.exit_code for r in results)


def cmd_construct(args: argparse.Namespace) -> int:
    group = GroupSpec(
        p=args.p,
        dimension=args.dimension,
        action_order=2 if args.base == "cyclotomic" else 3,
        family=args.family,
        twist_exponent=args.twist_exponent,
    )
    if args.base == "cyclotomic":
        if args.conductor is None:
            raise ValueError("--base cyclotomic requires --conductor")
        base = CyclotomicBase(conductor=args.conductor)
        checklist = None
    else:
        p = get_fixture("example3").group.p
        if args.p != p:
            raise ValueError(f"the bundled cubic base assumes p = {p}")
        base, checklist = bundled_cubic_base()

    av = None
    if args.av is not None:
        label, dim, tors, bad = _BUNDLED_AV[args.av]
        av = AbelianVarietyDesc(
            label=label,
            dimension=dim,
            torsion_at_kummer_prime=tors,
            bad_primes=bad,
        )
        if args.gap_rank is None:
            args.gap_rank = 0

    plan = build_tower_plan(
        args.ell,
        group,
        base,
        args.rank_target,
        checklist=checklist,
        gap_rank=args.gap_rank,
    )
    cert = build_certificate(plan, av=av, n_max=args.n_max)
    if args.json:
        doc = wrap_document(
            "construction",
            {"plan": plan.to_json_doc(), "certificate": cert.to_json_doc()},
        )
        _deliver(args, stable_json(doc))
    else:
        alpha = arith.format_decimal(plan.alpha)
        lines = [
            "construction",
            f"  group: {plan.group.describe()}",
            f"  base: {plan.base.describe()}",
            f"  ramified-place target: {plan.ramified_target}"
            f" (formula value {plan.ramified_target_formula})",
            f"  selected primes ({len(plan.selected_primes)}): "
            + ", ".join(map(str, plan.selected_primes)),
            f"  alpha ({len(alpha)} digits): {alpha}",
            "",
        ]
        lines.extend(cert.to_text_lines())
        _deliver(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify_factorization(args: argparse.Namespace) -> int:
    mod = cyclotomic.cyclotomic_polynomial(args.conductor)
    factors = [cyclotomic.parse_cyclo_element(s, args.conductor) for s in args.factor]
    product = cyclotomic.cyclo_mul(mod, factors)
    norms = [f.norm() for f in factors]
    match = cyclotomic.match_up_to_unit(product, args.target)
    diags = []
    if match is None:
        status = "mismatch"
        code = 1
    elif match == (1, 0):
        status = "exact"
        code = 0
    else:
        status = "unit"
        code = 0
        sign, k = match
        unit = ("-" if sign < 0 else "") + (
            f"zeta_{args.conductor}^{k}" if k else "1"
        )
        diags.append(
            catalog.make(
                "FACTOR-UNIT-DISCREPANCY",
                f"the factors multiply to {product.render(False)}, which is "
                f"{args.target} times the unit {unit} rather than "
                f"{args.target} itself",
            )
        )
    if args.json:
        doc = wrap_document(
            "factor-check",
            {
                "conductor": args.conductor,
                "target": args.target,
                "factors": [f.render(False) for f in factors],
                "factor_norms": [arith.format_decimal(n) for n in norms],
                "product": product.render(False),
                "status": status,
                "diagnostics": [d.to_json() for d in diags],
            },
        )
        _deliver(args, stable_json(doc))
    else:
        lines = [
            f"conductor: {args.conductor}",
            f"target: {args.target}",
            f"factors: {len(factors)} "
            f"(norms: {', '.join(map(arith.format_decimal, norms))})",
            f"product: {product.render()}",
            f"status: {status}",
        ]
        lines.extend(d.render() for d in diags)
        _deliver(args, "\n".join(lines) + "\n")
    return code


def cmd_split(args: argparse.Namespace) -> int:
    try:
        sd = cyclotomic.splitting_data(args.prime, args.conductor)
    except cyclotomic.RamifiedPrime:
        sd = None  # a result, not an error: reported, with exit 1
    if args.json:
        doc = wrap_document(
            "splitting",
            {
                "conductor": args.conductor,
                "prime": args.prime,
                "classification": sd.classification if sd else "ramified",
                "e": sd.e if sd else None,
                "f": sd.f if sd else None,
                "g": sd.g if sd else None,
            },
        )
        _deliver(args, stable_json(doc))
    elif sd:
        _deliver(
            args,
            f"{sd.q} in Q(zeta_{sd.m}): e={sd.e} f={sd.f} g={sd.g} "
            f"- {sd.classification}\n",
        )
    else:
        _deliver(
            args,
            f"{args.prime} in Q(zeta_{args.conductor}): ramified "
            f"(divides the conductor)\n",
        )
    return 0 if sd else 1


def cmd_inert_primes(args: argparse.Namespace) -> int:
    if args.count and not cyclotomic.unit_group_is_cyclic(args.conductor):
        raise arith.SearchExhausted(
            f"found only 0 of {args.count} primes below {args.ceiling}: "
            f"(Z/{args.conductor})* is not cyclic, so no prime is inert in "
            f"Q(zeta_{args.conductor})"
        )
    found = arith.primes_ascending(
        args.count,
        predicate=CyclotomicBase(args.conductor).prime_qualifies,
        exclude=set(args.exclude),
        ceiling=args.ceiling,
    )
    if args.json:
        doc = wrap_document(
            "inert-primes",
            {
                "conductor": args.conductor,
                "count": args.count,
                "excluded": sorted(set(args.exclude)),
                "primes": found,
            },
        )
        _deliver(args, stable_json(doc))
    else:
        _deliver(
            args,
            f"first {args.count} primes inert in Q(zeta_{args.conductor}): "
            + ", ".join(map(str, found))
            + "\n",
        )
    return 0


def cmd_certificate(args: argparse.Namespace) -> int:
    fx = get_fixture(args.example)
    plan = build_plan(args.example)
    cert = build_certificate(plan, av=fx.av, n_max=args.n_max)
    if args.json:
        doc = wrap_document(
            "certificate",
            {"fixture": args.example, **cert.to_json_doc()},
        )
        _deliver(args, stable_json(doc))
    else:
        lines = [f"certificate: {args.example} - {fx.title}"]
        lines.extend(cert.to_text_lines())
        _deliver(args, "\n".join(lines) + "\n")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as err:
        print(f"{args.command}: {err}", file=sys.stderr)
        if isinstance(err, ValidationFailed):
            for item in err.report.failures:
                print(f"  {item.render()}", file=sys.stderr)
        return next(c for exc, c in _EXIT_CODES.items() if isinstance(err, exc))


if __name__ == "__main__":
    raise SystemExit(main())
