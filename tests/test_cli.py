import json
import math
import time

from towerbound.fixtures import get_fixture

SIX_FACTORS = get_fixture("example3").factor_strings


def test_reproduce_examples_exit_zero(run_cli):
    for fid in ("example1", "example2", "example3"):
        code, out, err = run_cli("reproduce", fid, "--n-max", "1")
        assert code == 0, (fid, err)
        assert "result: pass-with-warnings" in out


def test_reproduce_json_is_deterministic(run_cli):
    code1, out1, _ = run_cli("reproduce", "example3", "--json", "--n-max", "2")
    code2, out2, _ = run_cli("reproduce", "example3", "--json", "--n-max", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert doc["kind"] == "reproduction"
    assert doc["result"] == "pass-with-warnings"


def test_reproduce_all(run_cli):
    code, out, _ = run_cli("reproduce", "all", "--json", "--n-max", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "reproduction-batch"
    assert [r["fixture"] for r in doc["runs"]] == [
        "example1", "example2", "example3",
    ]


def test_reproduce_out_writes_file(run_cli, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        "reproduce", "example1", "--json", "--n-max", "1", "--out", str(target)
    )
    assert code == 0
    assert "wrote" in out
    doc = json.loads(target.read_text())
    assert doc["fixture"] == "example1"


def test_verify_factorization_trivial(run_cli):
    code, out, _ = run_cli(
        "verify-factorization", "--conductor", "3", "--target", "7",
        "--factor", "7",
    )
    assert code == 0
    assert "status: exact" in out


def test_verify_factorization_six_factors(run_cli):
    args = ["verify-factorization", "--conductor", "7", "--target", "43"]
    for f in SIX_FACTORS:
        args += ["--factor", f]
    code, out, _ = run_cli(*args)
    assert code == 0
    assert "status: unit" in out
    assert "FACTOR-UNIT-DISCREPANCY" in out


def test_verify_factorization_mismatch_exits_1(run_cli):
    code, out, _ = run_cli(
        "verify-factorization", "--conductor", "3", "--target", "7",
        "--factor", "2",
    )
    assert code == 1
    assert "status: mismatch" in out


def test_verify_factorization_parse_error_exits_2(run_cli):
    code, _, err = run_cli(
        "verify-factorization", "--conductor", "3", "--target", "7",
        "--factor", "zeta5 + 1",
    )
    assert code == 2
    assert "does not match" in err


def test_split_command(run_cli):
    code, out, _ = run_cli("split", "43", "7", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["e"], doc["f"], doc["g"]) == (1, 1, 6)
    assert doc["classification"] == "totally split"

    code, out, _ = run_cli("split", "2", "9")
    assert code == 0 and "inert" in out

    # a prime dividing the conductor ramifies: reported, but exit 1
    code, out, _ = run_cli("split", "3", "9")
    assert code == 1 and "ramified" in out

    code, _, err = run_cli("split", "6", "9")
    assert code == 2


def test_inert_primes_command(run_cli):
    code, out, _ = run_cli("inert-primes", "3", "--count", "5", "--exclude", "3")
    assert code == 0
    assert "2, 5, 11, 17, 23" in out

    # --exclude removes otherwise-qualifying primes from the stream
    code, out, _ = run_cli(
        "inert-primes", "3", "--count", "3", "--exclude", "5", "--exclude", "11"
    )
    assert code == 0
    assert "2, 17, 23" in out

    # (Z/8)* is not cyclic, so no prime is ever inert; bounded search fails
    code, out, _ = run_cli(
        "inert-primes", "8", "--count", "1", "--ceiling", "50000", "--json"
    )
    assert code == 1


def test_certificate_command_json(run_cli):
    code, out, _ = run_cli("certificate", "example3", "--json", "--n-max", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "certificate"
    rows = doc["rows"]
    assert [r["class_rank_bound"] for r in rows] == [6, 42, 294]
    assert [r["fine_selmer_claimed"] for r in rows] == [6, 18, 54]


def test_construct_cyclotomic(run_cli):
    code, out, _ = run_cli(
        "construct", "--ell", "5", "--p", "3", "--rank-target", "2",
        "--dimension", "1", "--conductor", "3", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "construction"
    assert doc["plan"]["ramified_target"] == 42
    assert len(doc["plan"]["selected_primes"]) == 42
    assert doc["certificate"]["rows"][0]["class_rank_bound"] == 2


def test_construct_validation_failure_exits_1(run_cli):
    code, _, err = run_cli(
        "construct", "--ell", "7", "--p", "3", "--rank-target", "2",
        "--dimension", "1", "--conductor", "5",
    )
    assert code == 1
    assert "validation failed" in err


def test_construct_bundled_cubic(run_cli):
    code, out, _ = run_cli(
        "construct", "--ell", "3", "--p", "7", "--rank-target", "6",
        "--dimension", "3", "--family", "nilpotent-class-2",
        "--twist-exponent", "1", "--base", "bundled-cubic", "--json",
        "--n-max", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["plan"]["ramified_target"] == 60
    # derived ascending-minimal selection, not the pinned list
    assert doc["plan"]["selected_primes"][:3] == [29, 43, 71]


def test_usage_error_exits_2(run_cli):
    code, _, _ = run_cli("reproduce", "example9")
    assert code == 2
    code, _, _ = run_cli()
    assert code == 2


def _chunked_decimal(n):
    """Independent renderer: peel 100-digit groups off with divmod."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    groups = []
    while True:
        n, r = divmod(n, 10**100)
        groups.append(f"{r:0100d}")
        if n == 0:
            break
    return sign + ("".join(reversed(groups)).lstrip("0") or "0")


def test_verify_factorization_norm_beyond_int_str_limit(run_cli):
    # N(1 + a*zeta^3) over Q(zeta_31) is prod (1 + a*zeta^k) = sum_{j<=30} (-a)^j,
    # about 6000 digits for a = 10**200.
    a, a_text = 10**200, "1" + "0" * 200
    want = _chunked_decimal(sum((-a) ** j for j in range(31)))
    assert len(want) == 6000
    args = ["verify-factorization", "--conductor", "31", "--target", "5",
            "--factor", f"{a_text}*zeta31^3+1"]
    code, out, err = run_cli(*args)
    assert code == 1, err
    assert f"factors: 1 (norms: {want})\n" in out
    assert "status: mismatch" in out
    code, out, err = run_cli(*args, "--json")
    assert code == 1, err
    doc = json.loads(out)
    assert doc["factor_norms"] == [want]
    assert doc["factors"] == [f"{a_text}zeta31^3 + 1"]


def test_verify_factorization_conductor_421_is_fast(run_cli):
    # N(zeta^5 + 1) = Phi_421(-1) = 1 and N(zeta^7 - 1) = Phi_421(1) = 421.
    start = time.perf_counter()
    code, out, err = run_cli(
        "verify-factorization", "--conductor", "421", "--target", "7",
        "--factor", "zeta421^5 + 1", "--factor", "zeta421^7 - 1",
    )
    elapsed = time.perf_counter() - start
    assert code == 1, err
    assert "factors: 2 (norms: 1, 421)" in out
    assert "status: mismatch" in out
    assert elapsed < 5.0, elapsed


def test_inert_primes_long_scan_is_fast(run_cli):
    # 100000 primes inert in Q(zeta_9), about 300000 candidates up to 4.25
    # million: 0.4 s through the sieve, 18 s when every candidate cost
    # several Miller-Rabin proofs.
    start = time.perf_counter()
    code, out, err = run_cli("inert-primes", "9", "--count", "100000")
    elapsed = time.perf_counter() - start
    assert code == 0, err
    found = [int(q) for q in out.split(": ", 1)[1].split(", ")]
    assert len(found) == 100_000
    assert found[:6] == [2, 5, 11, 23, 29, 41]
    assert found[-1] == 4253153
    assert found == sorted(set(found))
    assert {q % 9 for q in found} == {2, 5}  # the generators of (Z/9)*
    assert elapsed < 2.0, elapsed


def test_construct_alpha_beyond_int_str_limit(run_cli):
    # 1540 primes inert in Q(zeta_3) multiply to an alpha of about 6500 digits.
    args = ["construct", "--ell", "5", "--p", "3", "--conductor", "3",
            "--rank-target", "1500"]
    code, out, err = run_cli(*args)
    assert code == 0, err
    listed = next(ln for ln in out.splitlines() if "selected primes (1540)" in ln)
    primes = [int(q) for q in listed.split(": ", 1)[1].split(", ")]
    want = _chunked_decimal(math.prod(primes))
    assert len(want) > 4300
    assert f"  alpha ({len(want)} digits): {want}\n" in out
    code, out, err = run_cli(*args, "--json")
    assert code == 0, err
    plan = json.loads(out)["plan"]
    assert plan["selected_primes"] == primes
    assert (plan["alpha"], plan["alpha_digits"]) == (want, len(want))


def test_certificate_cells_beyond_int_str_limit(run_cli):
    # With p = 10**50 + 151 (prime, 2 mod 3) the layer-90 row has ~4500 digits.
    p = 10**50 + 151
    args = ["construct", "--ell", "5", "--p", str(p), "--conductor", "3",
            "--rank-target", "1", "--n-max", "90"]
    ramified, degree = 41 * p**90, 40 * p**90
    code, out, err = run_cli(*args)
    assert code == 0, err
    row = out.splitlines()[7 + 2 + 90].split()
    assert row == ["90"] + [_chunked_decimal(v) for v in (ramified, degree, p**90, p**90)]
    code, out, err = run_cli(*args, "--json")
    assert code == 0, err
    last = json.loads(out)["certificate"]["rows"][-1]
    assert last["ramified_places"] == _chunked_decimal(ramified)
    assert last["class_rank_bound"] == _chunked_decimal(p**90)


def test_verify_factorization_coefficient_too_long_to_read(run_cli):
    code, out, err = run_cli(
        "verify-factorization", "--conductor", "7", "--target", "1",
        "--factor", "7" * 4401 + "*zeta7^2 + 1",
    )
    assert (code, out) == (2, "")
    assert err.startswith("verify-factorization: term 1 (")
    assert "4409 characters) holds a number too long to read\n" in err
    assert "set_int_max_str_digits" not in err


def test_inert_primes_none_when_unit_group_not_cyclic(run_cli):
    # (Z/8)* is not cyclic: exit 1 before any scan, at the default ceiling.
    start = time.perf_counter()
    code, out, err = run_cli("inert-primes", "8", "--count", "1")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert err == (
        "inert-primes: found only 0 of 1 primes below 10000000: (Z/8)* is not "
        "cyclic, so no prime is inert in Q(zeta_8)\n"
    )
    code, out, err = run_cli("inert-primes", "8", "--count", "0", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["primes"] == []
