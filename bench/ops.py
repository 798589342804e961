"""Seeded workloads: what each one runs, why, and what it must exercise.

A workload is a list of operations (ops) built from a seed alone; the
program only ever sees the generated argv or call arguments.  Sizes are drawn
log-uniformly with one draw per stratum, or fixed where a drawn size would
move a metric by whole steps, so every seed covers the same size range with
about the same total work and only the exact inputs change.

Nothing at module level imports ``towerbound``: the benchmark times the
package's import itself, and ``build_lib_gf`` imports ``gf`` only when it
runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracles

#: Seed used when none is given.
DEFAULT_SEED = 1
#: Kept out of every run made while the benchmark or a change is tuned; a
#: claimed gain must also hold on it.
HELD_OUT_SEED = 8191

#: The bundled relative cubic x^3 - x^2 - 4x - 1 over Q(zeta_7), constant first.
CUBIC = (-1, -4, -1, 1)
#: Kummer prime of the cyclotomic constructs; d0 = 2 * dim * ell * (ell - 1).
ELL = 5


@dataclass
class Op:
    """One operation: a CLI argv or a ``gf`` call, and the oracle for its result.

    ``check(code, out, err)`` returns None or a failure reason; ``code`` is
    the exit code (CLI) and ``out`` the stdout text or the call's return value.
    ``size`` is set on the ops of the workload's scaling sweep.
    """

    label: str
    check: Callable
    argv: list[str] | None = None
    call: tuple[str, tuple] | None = None
    size: float | None = None


@dataclass(frozen=True)
class Workload:
    """A workload's op builder and what its rationale (in BENCHMARK.json) promises."""

    name: str
    build: Callable[[random.Random], list[Op]]
    #: the module(s) expected to carry the largest self-time share
    dominant: tuple[str, ...]
    #: spans that must never be entered on this workload
    zero_calls: tuple[str, ...] = ()
    #: argv that fail at the seed commit; run once, outside the timed ops
    known_defects: tuple[tuple[str, ...], ...] = ()


def log_uniform(rng: random.Random, lo: float, hi: float, n: int) -> list[int]:
    """n integers, one log-uniform draw in each of n equal log-width strata."""
    a, b = math.log(lo), math.log(hi)
    return [round(math.exp(a + (b - a) * (i + rng.random()) / n)) for i in range(n)]


def _expect_exit(code: int, want: int) -> str | None:
    if isinstance(code, BaseException):
        return f"uncaught {type(code).__name__}: {str(code)[:120]}"
    if code != want:
        return f"exit code {code}, expected {want}"
    return None


def _cli_check(oracle: Callable, want: int = 0) -> Callable:
    def check(code, out, err):
        return _expect_exit(code, want) or oracle(out)
    return check


def _json_flag(as_json: bool) -> list[str]:
    return ["--json"] if as_json else []


# ---------------------------------------------------------------------------
# cli-cyclo: prime stream and rendering over cyclotomic bases
# ---------------------------------------------------------------------------

#: (conductor, dimension, p, largest rank target).  Rank targets stop below
#: the point where alpha outgrows CPython's 4300-digit int-to-str limit; the
#: ops past it are ``known_defects``.
_CYCLO_BASES = ((3, 1, 3, 900), (5, 2, 7, 750), (7, 3, 3, 750), (9, 3, 3, 750))

#: (T, d0, p) of the bundled examples: T ramified places at layer 0, d0 the
#: layer-0 degree.  example2 pins the published T = 90.
_FIXTURE_ROWS = {
    "example1": (2 + 2 * 1 * 5 * 4, 2 * 1 * 5 * 4, 3),
    "example2": (90, 2 * 3 * 5 * 4, 3),
    "example3": (6 + 3 * 3 * 3 * 2, 3 * 3 * 3 * 2, 7),
}


def _construct_cyclo(m: int, dim: int, p: int, rank: int, as_json: bool, size: float | None) -> Op:
    d0 = 2 * dim * ELL * (ELL - 1)
    t = rank + d0
    argv = ["construct", "--ell", str(ELL), "--p", str(p), "--dimension", str(dim),
            "--conductor", str(m), "--rank-target", str(rank)] + _json_flag(as_json)

    def oracle(out):
        primes = oracles.inert_primes(m, t, frozenset({p}))
        return oracles.check_construct(out, as_json, primes=primes, t=t, d0=d0, p=p,
                                       n_max=4, roots_mod=None)
    return Op(" ".join(argv), _cli_check(oracle), argv=argv, size=size)


def _inert_primes(m: int, count: int, as_json: bool) -> Op:
    argv = ["inert-primes", str(m), "--count", str(count)] + _json_flag(as_json)
    oracle = lambda out: oracles.check_inert_primes(
        out, as_json, primes=oracles.inert_primes(m, count))
    return Op(" ".join(argv), _cli_check(oracle), argv=argv)


def _inert_none(m: int, count: int) -> Op:
    """(Z/m)* is not cyclic, so no prime is inert and the search must exit 1."""
    argv = ["inert-primes", str(m), "--count", str(count), "--ceiling", "100000"]

    def check(code, out, err):
        if oracles.unit_group_is_cyclic(m):
            return f"(Z/{m})* is cyclic; the op was meant to have no inert primes"
        bad = _expect_exit(code, 1)
        if bad is None and "found only 0 of" not in err:
            bad = f"unexpected stderr {err.strip()[:80]!r}"
        return bad
    return Op(" ".join(argv), check, argv=argv)


def _certificate(fid: str, n_max: int, as_json: bool) -> Op:
    t, d0, p = _FIXTURE_ROWS[fid]
    argv = ["certificate", fid, "--n-max", str(n_max)] + _json_flag(as_json)
    oracle = lambda out: oracles.check_certificate(out, as_json, t=t, d0=d0, p=p, n_max=n_max)
    return Op(" ".join(argv), _cli_check(oracle), argv=argv)


def _reproduce(example: str, as_json: bool) -> Op:
    argv = ["reproduce", example] + _json_flag(as_json)
    fids = sorted(_FIXTURE_ROWS) if example == "all" else [example]
    oracle = lambda out: oracles.check_reproduce(
        out, as_json, fixtures=[_FIXTURE_ROWS[f] for f in fids], n_max=4)
    return Op(" ".join(argv), _cli_check(oracle), argv=argv)


def build_cli_cyclo(rng: random.Random) -> list[Op]:
    # Where one size range is shared by several conductors, the strata are
    # dealt to the conductors in turn, so every seed gives each conductor
    # the same share of the large sizes.
    m3, others = _CYCLO_BASES[0], _CYCLO_BASES[1:]
    ops = [_construct_cyclo(*m3[:3], rank, i % 2 == 1, rank)
           for i, rank in enumerate(log_uniform(rng, 20, m3[3], 30))]
    for i, rank in enumerate(log_uniform(rng, 20, min(b[3] for b in others), 24)):
        ops.append(_construct_cyclo(*others[i % 3][:3], rank, i % 2 == 1, None))
    for i, count in enumerate(log_uniform(rng, 10, 2000, 16)):
        ops.append(_inert_primes((3, 5, 7, 9)[i % 4], count, i % 3 == 0))
    ops += [_inert_none(8, rng.randint(1, 5)), _inert_none(15, rng.randint(1, 5))]
    # example3 sits on the relative cubic base (primes_above, gf), so the
    # examples that exercise it run in cli-cubic instead.  The largest
    # certificates are fixed so that the memory peak does not vary by seed.
    for fid in ("example1", "example2"):
        ops += [_reproduce(fid, False), _reproduce(fid, True)]
        ops += [_certificate(fid, n_max, i % 2 == 1)
                for i, n_max in enumerate(log_uniform(rng, 4, 1000, 12))]
    ops += [_certificate("example1", 1000, False), _certificate("example1", 1000, True)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-cubic: the relative cubic base, where the qualification predicate costs
# ---------------------------------------------------------------------------


def _cubic_qualifies(q: int) -> bool:
    return q % 7 == 1 and oracles.cubic_disc(CUBIC) % q != 0 and not oracles.has_root_mod(CUBIC, q)


def _construct_cubic(rank: int, with_av: bool) -> Op:
    d0 = 3 * 3 * 3 * 2  # action order 3, dimension 3, ell 3
    t = rank + d0
    argv = ["construct", "--base", "bundled-cubic", "--ell", "3", "--p", "7",
            "--family", "nilpotent-class-2", "--dimension", "3", "--twist-exponent", "1",
            "--rank-target", str(rank)]
    if with_av:
        argv += ["--av", "19a1", "--json"]

    def oracle(out):
        primes = oracles.first_primes("cubic", _cubic_qualifies, -(-t // 6), frozenset({7}))
        return oracles.check_construct(out, with_av, primes=primes, t=t, d0=d0, p=7,
                                       n_max=4, roots_mod=7 if with_av else None)
    return Op(" ".join(argv), _cli_check(oracle), argv=argv, size=rank)


def build_cli_cubic(rng: random.Random) -> list[Op]:
    ranks = log_uniform(rng, 30, 300, 100)
    ops = [_construct_cubic(r, i % 4 == 3) for i, r in enumerate(ranks)]
    ops += [_reproduce("all", False), _reproduce("all", True)]
    ops += [_certificate("example3", 1000, False), _certificate("example3", 1000, True)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-factor: ring arithmetic in Z[zeta_m] with verdicts known by construction
# ---------------------------------------------------------------------------


def _render(terms: dict[int, int], m: int) -> str:
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        body = str(abs(c)) if e == 0 else f"{abs(c)}*zeta{m}^{e}"
        parts.append(("- " if c < 0 else "+ ") + body)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def _factor_op(m: int, factors: list[dict[int, int]], target: int, verdict: str,
               as_json: bool, size: float | None) -> Op:
    argv = ["verify-factorization", "--conductor", str(m), "--target", str(target)]
    for f in factors:
        argv += ["--factor", _render(f, m)]
    argv += _json_flag(as_json)

    def check(code, out, err):
        if isinstance(code, BaseException):
            return _expect_exit(code, 0)
        return oracles.check_factorization(out, as_json, code, factors=factors, m=m,
                                           target=target, verdict=verdict)
    return Op(f"verify-factorization m={m} {verdict} x{len(factors)}", check, argv=argv, size=size)


def _cyclotomic_value(m: int, x: int) -> int:
    return sum(c * x**i for i, c in enumerate(oracles.cyclotomic_coeffs(m)))


def _sparse_factor(rng: random.Random, m: int) -> dict[int, int]:
    """Three terms +-zeta^e: a fixed l1 norm keeps the norm's integers one size."""
    while True:
        f = {e: rng.choice((-1, 1)) for e in rng.sample(range(m), 3)}
        if abs(oracles.zeta_value(f, m)) > 1e-3:
            return f


def build_cli_factor(rng: random.Random) -> list[Op]:
    ops = []
    small = (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16)
    for i in range(40):
        m = small[i % len(small)]
        x = rng.randint(1, 3)
        factors = [{0: x, k: -1} for k in range(1, m) if math.gcd(k, m) == 1]
        verdict = "exact"
        if i % 2:  # multiply one factor by zeta^j, or by -zeta^j
            sign = -1 if i % 4 == 3 else 1
            # -zeta^(m/2) = 1 for even m, which would make the product exact
            j = rng.choice([j for j in range(1, m) if sign == 1 or 2 * j != m])
            idx = rng.randrange(len(factors))
            factors[idx] = {(e + j) % m: sign * c for e, c in factors[idx].items()}
            verdict = "unit"
        ops.append(_factor_op(m, factors, _cyclotomic_value(m, x), verdict, i % 4 < 2, None))
    # The sweep's conductors are fixed and the seed draws the factors and
    # targets: a norm costs about phi(m)^3, so a seeded conductor moves the
    # pass time and the 90th percentile by whole steps between neighbouring
    # primes.  Prime conductors make phi(m) = m - 1 grow with m, where
    # between composite neighbours it jumps by up to 3x.
    n = 64
    for i in range(n):
        draw = round(7 * (127 / 7) ** ((i + 0.5) / n))
        m = next(c for c in range(draw, 128) if oracles.is_prime(c))
        while True:
            factors = [_sparse_factor(rng, m) for _ in range(2)]
            target = rng.randint(2, 999)
            if oracles.factor_verdict(factors, m, target) == "mismatch":
                break
        ops.append(_factor_op(m, factors, target, "mismatch", i % 2 == 1, m))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# lib-gf: the public finite-field API, extension fields included
# ---------------------------------------------------------------------------

_FIELDS = [(q, f) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
           for f in range(1, 6) if q**f <= 49]


def _gf_check(oracle: Callable) -> Callable:
    def check(code, out, err):
        if isinstance(code, BaseException):
            return _expect_exit(code, 0)
        want = oracle()
        return None if out == want else f"returned {out!r}, oracle gives {want!r}"
    return check


_SMALL_FIELDS: dict[tuple, oracles.SmallField] = {}


def _irreducible_oracle(q: int, f: int, gen, codes: list[int]) -> bool:
    key = (q, f, gen)
    if key not in _SMALL_FIELDS:
        _SMALL_FIELDS[key] = oracles.SmallField(q, f, gen)
    return oracles.irreducible_by_search(_SMALL_FIELDS[key], codes)


def _inert_oracle(poly: tuple[int, ...], q: int, m: int) -> list[bool]:
    """Lidl-Niederreiter: irreducible over F_q^f iff irreducible over F_q and gcd(3, f) = 1."""
    f = oracles.order_mod(q, m)
    verdict = not oracles.has_root_mod(poly, q) and math.gcd(3, f) == 1
    return [verdict] * (oracles.phi(m) // f)


def _random_cubic(rng: random.Random, q: int, root: bool) -> tuple[int, ...]:
    """A monic cubic prime to q's discriminant, with or without a root mod q."""
    while True:
        poly = (rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6), 1)
        disc = oracles.cubic_disc(poly)
        if disc != 0 and disc % q != 0 and oracles.has_root_mod(poly, q) == root:
            return poly


def build_lib_gf(rng: random.Random) -> list[Op]:
    from towerbound import gf

    ops = []
    for q, f in _FIELDS:
        K = gf.build_extension_field(q, f)
        gen = K.generator if f > 1 else None  # SmallField re-checks it without gf
        for degree in (2, 3, 4):
            # two irreducible and two reducible polynomials: the verdict
            # decides how much of the Rabin test runs
            picked = {True: [], False: []}
            while any(len(v) < 2 for v in picked.values()):
                codes = [rng.randrange(q**f) for _ in range(degree)] + [1]
                verdict = _irreducible_oracle(q, f, gen, codes)
                if len(picked[verdict]) < 2:
                    picked[verdict].append(codes)
            for codes in picked[True] + picked[False]:
                if f == 1:
                    poly = codes
                else:
                    poly = [tuple(c // q**i % q for i in range(f)) for c in codes]
                oracle = partial(_irreducible_oracle, q, f, gen, codes)
                ops.append(Op(f"is_irreducible F_{q}^{f} deg {degree}", _gf_check(oracle),
                              call=("is_irreducible", (K, poly)), size=q**f))
    # Residue degree f of q in Q(zeta_m) is the order of q mod m; these primes
    # give f = 1, 2, 3 and 6 for both conductors.
    degree_primes = {
        7: {1: (29, 43, 71), 2: (13, 41, 83), 3: (2, 11, 23), 6: (3, 5, 17)},
        9: {1: (19, 37, 73), 2: (17, 53, 71), 3: (7, 13, 31), 6: (2, 5, 11)},
    }
    for m, by_f in degree_primes.items():
        for primes in by_f.values():
            for q, root in [(q, r) for q in primes for r in (False, True)]:
                poly = _random_cubic(rng, q, root)
                ops.append(Op(f"is_inert_in_relative_extension q={q} m={m}",
                              _gf_check(partial(_inert_oracle, poly, q, m)),
                              call=("is_inert_in_relative_extension", (list(poly), q, m))))
    draws = log_uniform(rng, 2, 200, 48)
    rng.shuffle(draws)
    for m, draw in zip(log_uniform(rng, 5, 60, 48), draws):
        q = next(q for q in range(draw, 400) if oracles.is_prime(q) and m % q)
        phi_m = [c % q for c in oracles.cyclotomic_coeffs(m)]
        f = oracles.order_mod(q, m)
        want = ((f, oracles.phi(m) // f),)
        ops.append(Op(f"distinct_degree_profile m={m} q={q}", _gf_check(lambda w=want: w),
                      call=("distinct_degree_profile", (gf.PrimeField(q), phi_m))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-cyclo", build_cli_cyclo,
            dominant=("arith",), zero_calls=("cyclotomic.primes_above",),
            known_defects=(
                ("construct", "--ell", "5", "--p", "3", "--conductor", "3", "--rank-target", "1500"),
                ("construct", "--ell", "5", "--p", "3", "--conductor", "3", "--rank-target", "3000",
                 "--json"),
            ),
        ),
        Workload(
            "cli-cubic", build_cli_cubic,
            dominant=("cyclotomic",),
        ),
        Workload(
            "cli-factor", build_cli_factor,
            dominant=("cyclotomic", "zpoly"), zero_calls=("arith.primes_ascending",),
        ),
        Workload(
            "lib-gf", build_lib_gf,
            dominant=("gf",), zero_calls=("arith.primes_ascending",),
        ),
    )
}


def build(workload: str, seed: int) -> list[Op]:
    """The op list of ``workload`` for ``seed``; equal seeds give equal lists."""
    return WORKLOADS[workload].build(random.Random(f"{workload}:{seed}"))
