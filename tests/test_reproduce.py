"""Reproduction's failure branches, reached by tampering with a bundled example.

Each test swaps one piece of a fixture's pinned data (or the Rabin test's
verdict) for a wrong one, then asserts the check that catches it - its name,
status and detail - and that ``towerbound reproduce`` prints it and exits 1.
"""

from towerbound import fixtures, gf, tower
from towerbound.reproduce import run_reproduction


def _tamper(monkeypatch, fid, **changes):
    fx = fixtures._FIXTURES[fid]
    monkeypatch.setitem(fixtures._FIXTURES, fid, fx._replace(**changes))


def _assert_check(run_cli, fid, name, status, detail):
    result = run_reproduction(fid)
    assert result.result == "fail"
    check = next(c for c in result.checks if c.name == name)
    assert (check.status, check.detail) == (status, detail)
    code, out, err = run_cli("reproduce", fid)
    assert (code, err) == (1, "")
    assert f"    [{status}] {name} - {detail}\n" in out
    assert out.endswith("result: fail\n")


def test_swapped_primes_diverge(run_cli, monkeypatch):
    primes = list(fixtures.get_fixture("example1").pinned_primes)
    primes[3], primes[4] = primes[4], primes[3]
    _tamper(monkeypatch, "example1", pinned_primes=tuple(primes))
    _assert_check(run_cli, "example1", "prime-selection", "fail",
                  "lists diverge at position 3: computed 17, pinned 23")


def test_dropped_last_prime_differs_in_length(run_cli, monkeypatch):
    primes = fixtures.get_fixture("example1").pinned_primes
    _tamper(monkeypatch, "example1", pinned_primes=primes[:-1])
    _assert_check(run_cli, "example1", "prime-selection", "fail",
                  "lengths differ: computed 42, pinned 41")


def test_minimal_pinned_primes_pass_minimality(run_cli, monkeypatch):
    # The minimal list qualifies, but the pinned alpha is not its product.
    minimal = (29, 43, 71, 113, 127, 197, 211, 379, 449, 491)
    _tamper(monkeypatch, "example3", pinned_primes=minimal)
    _assert_check(run_cli, "example3", "prime-minimality", "pass",
                  "the pinned list is the ascending-minimal choice")
    _assert_check(run_cli, "example3", "kummer-element", "fail",
                  "pinned value does not match the recomputed product and the "
                  "difference is not catalogued (product 22 digits, pinned 211 "
                  "digits)")


def test_changed_factor_mismatches_and_lists_the_norms(run_cli, monkeypatch):
    factors = list(fixtures.get_fixture("example3").factor_strings)
    assert factors[0] == "ζ₇⁵ + 2ζ₇³ + ζ₇² + 1"
    factors[0] = "ζ₇⁵ + 2ζ₇³ + ζ₇² + 3"
    _tamper(monkeypatch, "example3", factor_strings=tuple(factors))
    _assert_check(run_cli, "example3", "factorization", "fail",
                  "the 6 factors multiply to 44zeta7^5 + 42zeta7^4 + "
                  "46zeta7^3 - 5zeta7^2 + 54zeta7 + 22, which is not 43 up to a "
                  "root of unity; factor norms are [203, 43, 43, 43, 43, 43]")


def test_primes_that_do_not_stay_inert_are_listed(run_cli, monkeypatch):
    monkeypatch.setattr(gf, "is_inert_in_relative_extension",
                        lambda poly, q, m: [False] * 6)
    primes = fixtures.get_fixture("example3").pinned_primes
    _assert_check(run_cli, "example3", "prime-qualification", "fail", "; ".join(
        f"{q} does not stay inert in the relative step" for q in primes))


def test_pinned_prime_that_does_not_qualify_fails_construction(run_cli, monkeypatch):
    primes = fixtures.get_fixture("example3").pinned_primes
    _tamper(monkeypatch, "example3", pinned_primes=(13,) + primes[1:])
    _assert_check(run_cli, "example3", "construction", "fail",
                  "validation failed: [FAIL] pinned-prime-qualifies (13 does "
                  "not qualify for Q(zeta_7)(theta), theta^3 - theta^2 - "
                  "4*theta - 1 = 0)")
    assert run_reproduction("example3").plan is None


def test_pinned_prime_that_does_not_split_totally_is_caught_by_its_efg(run_cli, monkeypatch):
    # A wrong class table lets 13 through, though 13 = 6 (mod 7) has residue
    # degree 2 in Q(zeta_7); splitting_data, the independent route, finds it.
    n, residues = fixtures.get_fixture("example3").base.classes
    monkeypatch.setattr(tower.RelativeCubicBase, "classes",
                        property(lambda base: (n, residues | {13 % n})))
    primes = fixtures.get_fixture("example3").pinned_primes
    _tamper(monkeypatch, "example3", pinned_primes=(13,) + primes[1:])
    _assert_check(run_cli, "example3", "prime-qualification", "fail",
                  "13 has (e,f,g)=(1,2,3)")
