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
--n-max must lie in [0, 1000], a cap on the certificate's layers, whose cells'
digits bounds.CERTIFICATE_DIGIT_BUDGET also caps (exit 2); conductors must lie in
[1, MAX_CONDUCTOR]; --ell, --p and split's prime may have at most 100
digits; --count must be >= 0; and inert-primes --ceiling must lie in [0,
arith.DEFAULT_SEARCH_CEILING] (10^7), which bounds the scan.  No argv ends in
a traceback, which tests/test_cli_fuzz.py checks on seeded random argv.

Start-up loads no package module but arith: each command imports the modules
it runs in its own body, so that split, say, never loads gf or the fixtures.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from . import arith

__all__ = ["main", "build_parser", "MAX_CONDUCTOR"]

#: The largest conductor any subcommand accepts.  It bounds the work that
#: grows with the conductor: trial-division factoring of m, m-entry lists,
#: and verify-factorization, whose norm of a dense factor such as
#: zeta^(m-1) + 1 takes 0.15 s at m = 499 and 6 s at 2003 on a 2-core host.
MAX_CONDUCTOR = 500

#: The exit code of each exception a command may raise, tried in order
#: (EqualPrimes is a ValueError, so it must precede that entry).
_EXIT_CODES = {
    arith.ValidationFailed: 1,
    arith.SearchExhausted: 1,
    arith.EqualPrimes: 1,
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


def _prime_int(text: str) -> int:
    """An argparse type for a prime to prove: a decimal integer of at most 100 digits.

    Proving a prime costs about the cube of its digits: 11 ms at 100 digits
    and 1.2 s at 600 in CPython 3.11 on a 2-core host.
    """
    value = int(text)
    if abs(value) >= 10**100:
        digits = len(str(abs(value)))
        raise argparse.ArgumentTypeError(f"must have at most 100 digits, got {digits}")
    return value


_prime_int.__name__ = "int"  # keeps argparse's "invalid int value" wording


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
        "--out", default=None, help="write the report to this path"
    )
    layered = argparse.ArgumentParser(add_help=False)
    layered.add_argument(
        "--n-max",
        type=_int_in(0, 1000),  # a cap: every certificate cell is rendered eagerly
        default=4,
        help="deepest tower layer to tabulate (default 4)",
    )

    rep = sub.add_parser(
        "reproduce",
        parents=[common, layered],
        help="rebuild a bundled example and diff it against the pinned data",
    )
    rep.add_argument("example", choices=list(arith.FIXTURE_IDS) + ["all"])
    rep.set_defaults(func=cmd_reproduce)

    con = sub.add_parser(
        "construct",
        parents=[common, layered],
        help="build a plan and certificate from explicit parameters",
    )
    con.add_argument("--ell", type=_prime_int, required=True, help="odd Kummer prime")
    con.add_argument("--p", type=_prime_int, required=True, help="tower prime")
    con.add_argument(
        "--rank-target", type=int, required=True, help="rank to certify at layer 0"
    )
    con.add_argument(
        "--family",
        choices=[arith.FAMILY_ABELIAN, arith.FAMILY_NILPOTENT],
        default=arith.FAMILY_ABELIAN,
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
            "cubic base shipped with example3, class number included"
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
        choices=sorted(arith.BUNDLED_AV_LABELS),
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
    spl.add_argument("prime", type=_prime_int)
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
        "--ceiling",
        type=_int_in(0, arith.DEFAULT_SEARCH_CEILING),
        default=arith.DEFAULT_SEARCH_CEILING,
        help="search no prime above this (default and largest: %(default)s)",
    )
    ine.set_defaults(func=cmd_inert_primes)

    cer = sub.add_parser(
        "certificate",
        parents=[common, layered],
        help="per-layer bound certificate for a bundled example",
    )
    cer.add_argument("example", choices=list(arith.FIXTURE_IDS))
    cer.set_defaults(func=cmd_certificate)

    return parser


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, document kind, data to render)
# ---------------------------------------------------------------------------


def cmd_reproduce(args: argparse.Namespace) -> tuple[int, str, dict]:
    from .reproduce import run_reproduction

    ids = list(arith.FIXTURE_IDS) if args.example == "all" else [args.example]
    results = [run_reproduction(fid, n_max=args.n_max) for fid in ids]
    kind = "reproduction" if len(results) == 1 else "reproduction-batch"
    return max(r.exit_code for r in results), kind, {"results": results}


def cmd_construct(args: argparse.Namespace) -> tuple[int, str, dict]:
    from .bounds import build_certificate
    from .tower import CyclotomicBase, GroupSpec, build_tower_plan

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
    elif args.conductor is not None:
        raise ValueError("--conductor applies only to --base cyclotomic")
    else:
        from .fixtures import get_fixture

        base = get_fixture("example3").base

    av = None
    if args.av is not None:
        from .fixtures import BUNDLED_AV

        av = BUNDLED_AV[args.av]
        if args.gap_rank is None:
            args.gap_rank = 0

    plan = build_tower_plan(
        args.ell,
        group,
        base,
        args.rank_target,
        gap_rank=args.gap_rank,
    )
    cert = build_certificate(plan, av=av, n_max=args.n_max)
    return 0, "construction", {"plan": plan, "cert": cert}


def cmd_verify_factorization(args: argparse.Namespace) -> tuple[int, str, dict]:
    from .reproduce import factor_check

    data, _ = factor_check(args.conductor, args.target, args.factor)
    return (1 if data["status"] == "mismatch" else 0), "factor-check", data


def cmd_split(args: argparse.Namespace) -> tuple[int, str, dict]:
    from . import catalog, cyclotomic

    try:
        sd = cyclotomic.splitting_data(args.prime, args.conductor)
    except cyclotomic.RamifiedPrime:
        sd = None  # a result, not an error: reported, with exit 1
    data = {"conductor": args.conductor, "prime": args.prime, "sd": sd,
            "diagnostics": catalog.probable_primes(prime=args.prime)}
    return 0 if sd else 1, "splitting", data


def cmd_inert_primes(args: argparse.Namespace) -> tuple[int, str, dict]:
    from .tower import CyclotomicBase, select_primes

    if args.exclude and min(args.exclude) < 2:
        raise ValueError(f"--exclude must be >= 2, got {min(args.exclude)}")
    base = CyclotomicBase(args.conductor)
    if args.count and not base.classes[1]:
        raise arith.SearchExhausted(
            f"found only 0 of {args.count} primes below {args.ceiling}: "
            f"(Z/{args.conductor})* is not cyclic, so no prime is inert in "
            f"Q(zeta_{args.conductor})"
        )
    found = select_primes(base, args.count, args.exclude, args.ceiling)
    return 0, "inert-primes", {
        "conductor": args.conductor,
        "count": args.count,
        "excluded": sorted(set(args.exclude)),
        "primes": found,
    }


def cmd_certificate(args: argparse.Namespace) -> tuple[int, str, dict]:
    from .bounds import build_certificate
    from .fixtures import build_plan, get_fixture

    fx = get_fixture(args.example)
    plan = build_plan(args.example)
    cert = build_certificate(plan, av=fx.av, n_max=args.n_max)
    return 0, "certificate", {"fixture": args.example, "title": fx.title, "cert": cert}


def _deliver(args: argparse.Namespace, kind: str, data: dict) -> None:
    """Render ``kind`` in the one format asked for, to --out or to stdout."""
    from . import report

    if args.json:
        doc = report.wrap_document(kind, report.document_body(kind, data))
        text = report.stable_json(doc)
    else:
        text = report.text_block(kind, data)
    if args.out is not None:
        from pathlib import Path  # here, not at the top: only --out needs it

        out = Path(args.out)
        out.write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code, kind, data = args.func(args)
        _deliver(args, kind, data)
        return code
    except tuple(_EXIT_CODES) as err:
        print(f"{args.command}: {err}", file=sys.stderr)
        if isinstance(err, arith.ValidationFailed):
            from .report import check_line

            for item in err.report.failures:
                print(f"  {check_line(item)}", file=sys.stderr)
        return next(c for exc, c in _EXIT_CODES.items() if isinstance(err, exc))


if __name__ == "__main__":
    raise SystemExit(main())
