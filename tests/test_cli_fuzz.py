"""The CLI's error model: every argv ends with exit 0, 1 or 2 and no traceback.

A seeded fuzz draws argv from each subcommand's flags; the named tests below
pin the inputs that used to end in a traceback, a hang or a wrong exit code.
"""

import json
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# 10**18 + 3 is a prime conductor that trial division cannot factor in time.
VALUES = ["-3", "-1", "0", "1", "2", "4", "7", "9", str(10**18 + 3), str(10**50),
          "x", ""]
RANKS = ["-1", "0", "1", "2", "5"]
FACTORS = ["1", "zeta+1", "2*zeta^3 - 1", "zeta5+1", "x", "", "7" * 4401]
EXAMPLES = ["example1", "example2", "example3", "all", "example9"]
SUBCOMMANDS = (
    "reproduce", "construct", "verify-factorization", "split", "inert-primes",
    "certificate",
)


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when the body runs past ``seconds`` (POSIX only)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _maybe(rng, flag, good=(), p=0.8):
    """``[flag, value]`` with probability p: a well-formed value half the time."""
    if rng.random() >= p:
        return []
    return [flag, rng.choice(good if good and rng.random() < 0.5 else VALUES)]


def _argv(rng, outs):
    cmd = rng.choice(SUBCOMMANDS)
    argv = [cmd]
    if cmd in ("reproduce", "certificate"):
        argv += [rng.choice(EXAMPLES)] + _maybe(rng, "--n-max", ("1", "4", "1000"))
    elif cmd == "construct":
        argv += _maybe(rng, "--ell", ("3", "5", "7"), 0.9)
        argv += _maybe(rng, "--p", ("2", "3", "7"), 0.9)
        argv += ["--rank-target", rng.choice(RANKS)] if rng.random() < 0.9 else []
        argv += _maybe(rng, "--dimension", ("1", "2", "3"), 0.5)
        argv += _maybe(rng, "--conductor", ("3", "5", "7", "9"))
        argv += _maybe(rng, "--base", ("cyclotomic", "bundled-cubic"), 0.4)
        argv += _maybe(rng, "--family", ("abelian", "nilpotent-class-2"), 0.3)
        argv += _maybe(rng, "--twist-exponent", ("1", "2"), 0.3)
        argv += ["--gap-rank", rng.choice(RANKS)] if rng.random() < 0.3 else []
        argv += _maybe(rng, "--av", ("11a1", "19a1"), 0.2)
        argv += _maybe(rng, "--n-max", ("1", "4"), 0.4)
    elif cmd == "verify-factorization":
        argv += _maybe(rng, "--conductor", ("3", "7", "9"), 0.9)
        argv += _maybe(rng, "--target", ("1", "7"), 0.9)
        for _ in range(rng.randint(0, 3)):
            argv += ["--factor", rng.choice(FACTORS)]
    elif cmd == "split":
        argv += [rng.choice(VALUES) for _ in range(2 if rng.random() < 0.8 else 1)]
    else:
        argv += [rng.choice(VALUES)] + _maybe(rng, "--count", ("1", "5"), 0.9)
        argv += _maybe(rng, "--exclude", p=0.3) + ["--ceiling", "2000"]
    if rng.random() < 0.4:
        argv.append("--json")
    if rng.random() < 0.2:
        argv += ["--out", rng.choice(outs)]
    return argv


def test_seeded_argv_fuzz_ends_in_0_1_or_2(run_cli, tmp_path):
    rng = random.Random(20261018)
    outs = [
        str(tmp_path / "report.txt"),
        str(tmp_path / "missing" / "report.txt"),
        str(tmp_path),
    ]
    seen = set()
    for _ in range(200):
        argv = _argv(rng, outs)
        # An exception escaping main is what prints a traceback from the
        # console script, so calling main in-process is a strict check.
        with _deadline(10):
            code, out, err = run_cli(*argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, argv
        for stream in (out, err):
            assert stream == "" or stream.endswith("\n"), (argv, stream[-80:])
        seen.add(code)
    assert seen == {0, 1, 2}


def test_p_zero_fails_validation(run_cli):
    code, out, err = run_cli(
        "construct", "--ell", "5", "--p", "0", "--rank-target", "2",
        "--conductor", "3",
    )
    assert (code, out) == (1, "")
    assert err.startswith("construct: validation failed: p-prime, ")
    assert "  [FAIL] p-prime (p = 0)\n" in err
    assert "  [FAIL] unique-prime-above-p (p = 0 must have" in err


@pytest.mark.parametrize("p", ["1", "-3"])
def test_p_one_and_negative_p_end_in_a_subprocess(p):
    # p = 1 used to loop forever; a subprocess with a timeout keeps a
    # regression from hanging the suite.
    proc = subprocess.run(
        [sys.executable, "-m", "towerbound", "construct", "--ell", "5",
         "--p", p, "--rank-target", "2", "--conductor", "3"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("construct: validation failed: p-prime, ")
    assert "Traceback" not in proc.stderr
    assert "mult_order" not in proc.stderr


def test_conductor_zero_is_malformed(run_cli):
    for argv in (
        ("construct", "--ell", "5", "--p", "3", "--rank-target", "2",
         "--conductor", "0"),
        ("verify-factorization", "--conductor", "0", "--target", "1",
         "--factor", "1"),
        ("split", "7", "0"),
        ("inert-primes", "0", "--count", "0"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert "conductor: must be in [1, 500], got 0\n" in err, argv
        assert "euler_phi" not in err


@pytest.mark.parametrize("n_max", ["-1", "1001"])
def test_n_max_outside_0_to_1000_is_malformed(run_cli, n_max):
    for argv in (
        ("construct", "--ell", "5", "--p", "3", "--rank-target", "2",
         "--conductor", "3"),
        ("certificate", "example1"),
        ("reproduce", "example1"),
    ):
        code, out, err = run_cli(*argv, "--n-max", n_max)
        assert (code, out) == (2, ""), argv
        assert f"--n-max: must be in [0, 1000], got {n_max}\n" in err, argv


def test_n_max_1000_is_accepted(run_cli):
    code, out, _ = run_cli("certificate", "example1", "--n-max", "1000", "--json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 1001


def test_unwritable_out_is_malformed(run_cli, tmp_path):
    for target in (tmp_path / "missing" / "report.txt", tmp_path):
        code, out, err = run_cli(
            "certificate", "example1", "--n-max", "1", "--out", str(target)
        )
        assert (code, out) == (2, ""), target
        assert err.startswith("certificate: [Errno ") and err.count("\n") == 1


def test_count_below_zero_is_malformed(run_cli):
    code, out, err = run_cli("inert-primes", "3", "--count", "-1")
    assert (code, out) == (2, "")
    assert "--count: must be >= 0, got -1\n" in err


def test_non_prime_ell_is_malformed(run_cli):
    code, out, err = run_cli(
        "construct", "--ell", "9", "--p", "3", "--rank-target", "2",
        "--conductor", "3",
    )
    assert (code, out, err) == (2, "", "construct: ell = 9 is not prime\n")


def test_equal_primes_fail(run_cli):
    code, out, err = run_cli(
        "construct", "--ell", "3", "--p", "3", "--rank-target", "2",
        "--conductor", "3",
    )
    assert (code, out, err) == (1, "", "construct: ell = p = 3\n")


def test_usage_checks_in_construct_are_malformed(run_cli):
    code, _, err = run_cli("construct", "--ell", "5", "--p", "3", "--rank-target", "2")
    assert (code, err) == (2, "construct: --base cyclotomic requires --conductor\n")
    code, _, err = run_cli(
        "construct", "--ell", "3", "--p", "5", "--rank-target", "2",
        "--base", "bundled-cubic",
    )
    assert (code, err) == (2, "construct: the bundled cubic base assumes p = 7\n")


def test_huge_conductor_for_verify_factorization_is_malformed(run_cli):
    code, out, err = run_cli(
        "verify-factorization", "--conductor", str(10**50), "--target", "1",
        "--factor", "1",
    )
    assert (code, out) == (2, "")
    assert f"--conductor: must be in [1, 500], got {10**50}\n" in err


@pytest.mark.parametrize("argv", [
    ("split", "5", str(10**18 + 3)),
    ("inert-primes", str(10**18 + 3), "--count", "1"),
    ("construct", "--ell", "5", "--p", "3", "--conductor", str(10**18 + 3),
     "--rank-target", "2"),
    ("verify-factorization", "--conductor", str(10**18 + 3), "--target", "1",
     "--factor", "1"),
])
def test_huge_prime_conductor_is_malformed_at_once(argv):
    # Factoring such a conductor by trial division used to run for hours; a
    # subprocess with a timeout keeps a regression from hanging the suite.
    proc = subprocess.run(
        [sys.executable, "-m", "towerbound", *argv],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert f"conductor: must be in [1, 500], got {10**18 + 3}\n" in proc.stderr


def test_conductor_cap_is_500_on_every_subcommand(run_cli):
    from towerbound.cli import MAX_CONDUCTOR

    assert MAX_CONDUCTOR == 500
    cases = (
        # (argv, exit code at conductor 500): (Z/500)* is not cyclic, so the
        # construction fails validation; the others succeed
        (("construct", "--ell", "5", "--p", "3", "--rank-target", "2",
          "--conductor"), 1),
        (("verify-factorization", "--target", "1", "--factor", "1",
          "--conductor"), 0),
        (("split", "7"), 0),
        (("inert-primes", "--count", "0"), 0),
    )
    for argv, code in cases:
        got, _, err = run_cli(*argv, "500")
        assert got == code and "must be in" not in err, (argv, err)
        got, out, err = run_cli(*argv, "501")
        assert (got, out) == (2, ""), argv
        assert "conductor: must be in [1, 500], got 501\n" in err, argv


def test_dense_factor_at_the_conductor_cap_fits_the_budget(run_cli):
    # The costliest input per conductor: zeta^(m-1) + 1 reduces to a dense
    # element, whose norm costs about m^3 (286 s at m = 2003).  At the
    # largest prime below the cap it must stay inside the fuzz's budget.
    with _deadline(10):
        code, out, err = run_cli(
            "verify-factorization", "--conductor", "499", "--target", "1",
            "--factor", "zeta499^498 + 1",
        )
    assert code == 1, err  # 1 + zeta^-1 is a unit but not a root of unity
    assert "factors: 1 (norms: 1)\n" in out
    assert "status: mismatch\n" in out
