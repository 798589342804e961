import json
import math
import random
import shlex
import time

import pytest

from test_golden import GOLDEN
from test_golden import SIX_FACTORS as QUOTED_SIX_FACTORS
from towerbound import cyclotomic, report
from towerbound.bounds import BoundCertificate, build_certificate
from towerbound.fixtures import BUNDLED_AV, build_plan, get_fixture
from towerbound.tower import FAMILY_ABELIAN, CyclotomicBase, GroupSpec, build_tower_plan

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


def test_verify_factorization_lone_sign_exits_2(run_cli):
    for factor in ("--1", "1-+2"):
        code, out, err = run_cli("verify-factorization", "--conductor", "7",
                                 "--target", "7", f"--factor={factor}")
        assert (code, out) == (2, "")
        assert err == f"verify-factorization: bad term '-' in {factor!r}\n"


def test_verify_factorization_term_ending_in_a_newline_exits_2(run_cli):
    # The grammar has no newline; "$" alone would accept one ending a term.
    code, out, err = run_cli("verify-factorization", "--conductor", "7", "--target", "3",
                             "--factor", "1\n+2")
    assert (code, out) == (2, "")
    assert err == "verify-factorization: bad term '1\\n' in '1\\n+2'\n"


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


def test_split_reads_twice_an_odd_conductor_at_its_half(run_cli):
    # Q(zeta_m) = Q(zeta_(m/2)) for odd m/2, so 2 does not ramify there.
    for argv, line in (
        (("split", "2", "6"), "2 in Q(zeta_6): e=1 f=2 g=1 - inert\n"),
        (("split", "2", "10"), "2 in Q(zeta_10): e=1 f=4 g=1 - inert\n"),
        (("split", "2", "14"), "2 in Q(zeta_14): e=1 f=3 g=2 - partially split\n"),
        (("inert-primes", "6", "--count", "3"),
         "first 3 primes inert in Q(zeta_6): 2, 5, 11\n"),
        (("inert-primes", "3", "--count", "3"),
         "first 3 primes inert in Q(zeta_3): 2, 5, 11\n"),
    ):
        assert run_cli(*argv) == (0, line, ""), argv


def test_construct_flags_a_tower_prime_past_2_64_as_probable(run_cli):
    # The first prime above 2^64 that is 2 mod 3; is_prime only tests it.
    p = "18446744073709551629"
    argv = ("construct", "--ell", "5", "--p", p, "--conductor", "3", "--rank-target", "2")
    message = (f"p = {p} is at least 2^64, so its primality rests on 40 "
               f"strong-probable-prime rounds with random witnesses, not on a proof")
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out.endswith(f"caveats:\n  [warning:PROBABLE-PRIME] {message}\n")
    code, out, err = run_cli(*argv, "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    want = [{"code": "PROBABLE-PRIME", "message": message, "severity": "warning"}]
    assert doc["plan"]["diagnostics"] == doc["certificate"]["diagnostics"] == want
    code, out, _ = run_cli("construct", "--ell", "5", "--p", str(2**53 + 57),
                           "--conductor", "3", "--rank-target", "2")
    assert code == 0 and "PROBABLE-PRIME" not in out and "caveats" not in out


def test_split_flags_a_prime_past_2_64_as_probable(run_cli):
    q = "18446744073709551629"
    message = (f"prime = {q} is at least 2^64, so its primality rests on 40 "
               f"strong-probable-prime rounds with random witnesses, not on a proof")
    code, out, err = run_cli("split", q, "7")
    assert (code, out, err) == (
        0, f"{q} in Q(zeta_7): e=1 f=1 g=6 - totally split\n"
           f"[warning:PROBABLE-PRIME] {message}\n", "")
    code, out, err = run_cli("split", q, "7", "--json")
    assert (code, err) == (0, "")
    want = [{"code": "PROBABLE-PRIME", "message": message, "severity": "warning"}]
    assert json.loads(out)["diagnostics"] == want
    code, out, _ = run_cli("split", str(2**64 - 59), "7", "--json")  # the largest prime below
    assert code == 0 and "diagnostics" not in json.loads(out)


def test_json_integers_the_user_sets_past_2_53_are_strings(run_cli):
    # JSON numbers are exact only below 2**53; 2**53 + 57 is the first prime
    # past it that is 2 mod 3, so it has a single place in Q(zeta_3).
    big, p = str(2**60), 2**53 + 57
    runs = {
        ("split", "9007199254740997", "7"): lambda d: d["prime"] == "9007199254740997",
        ("verify-factorization", "--conductor", "3", "--target", big, "--factor", big):
            lambda d: (d["status"], d["target"], d["product"]) == ("exact", big, big),
        ("construct", "--ell", "5", "--p", str(p), "--conductor", "3", "--rank-target",
         "2", "--n-max", "1"):
            lambda d: (d["plan"]["p"], d["plan"]["ell"], d["plan"]["group"]["p"])
            == (str(p), 5, str(p)),
        ("inert-primes", "5", "--count", "2", "--exclude", big, "--exclude", "2"):
            lambda d: d["excluded"] == [2, big],
    }
    for argv, holds in runs.items():
        code, out, err = run_cli(*argv, "--json")
        assert (code, err) == (0, ""), argv
        assert holds(json.loads(out)), argv


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


CUBIC_CONSTRUCT = (
    "construct", "--ell", "3", "--p", "7", "--dimension", "3",
    "--family", "nilpotent-class-2", "--twist-exponent", "1",
    "--base", "bundled-cubic",
)


def test_text_cubic_output_finds_no_roots(run_cli, monkeypatch):
    # Text prints no places, only their count, so it never derives them.
    want = run_cli(*CUBIC_CONSTRUCT, "--rank-target", "300")
    assert want[0] == 0, want[2]

    def no_roots(q, m):
        raise AssertionError(f"primes_above({q}, {m}) called")

    monkeypatch.setattr(cyclotomic, "primes_above", no_roots)
    assert run_cli(*CUBIC_CONSTRUCT, "--rank-target", "300") == want
    code, out, err = run_cli("reproduce", "example3")
    assert code == 0, err
    assert "selection: 10 primes, 60 places," in out


def test_json_cubic_places_are_the_roots_of_phi7(run_cli):
    code, out, err = run_cli(*CUBIC_CONSTRUCT, "--rank-target", "30", "--json")
    assert code == 0, err
    plan = json.loads(out)["plan"]
    primes = plan["selected_primes"]
    # Oracle: scan every residue; the roots of Phi_7 mod q are the r != 1 with r^7 = 1.
    roots = {q: [r for r in range(2, q) if pow(r, 7, q) == 1] for q in primes}
    assert all(len(rs) == 6 for rs in roots.values())
    assert plan["selected_places"] == [{"q": q, "root": r} for q in primes for r in roots[q]]


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


_ROW_KEYS = ("layer", "ramified_places", "layer_degree", "ambiguous_bound",
             "class_rank_bound", "fine_selmer_claimed", "fine_selmer_conservative")


def _check_certificate_cells(run_cli, args, cert):
    """Each cell that ``args`` prints, as text and as JSON, against the row ints."""
    rows = [[v for v in r if v is not None] for r in cert.rows]
    code, out, err = run_cli(*args)
    assert code == 0, err
    lines = out.splitlines()
    top = next(i for i, ln in enumerate(lines) if ln.split()[:2] == ["layer", "ramified"])
    assert lines[top + 2 + len(rows)] == ""
    table = [ln.split() for ln in lines[top + 2 : top + 2 + len(rows)]]
    assert table == [[_chunked_decimal(v) for v in r] for r in rows]
    code, out, err = run_cli(*args, "--json")
    assert code == 0, err
    doc = json.loads(out)
    got = doc.get("certificate", doc)["rows"]
    want = [dict(zip(_ROW_KEYS, r)) for r in rows]
    # JSON keeps cells below 2^53 as numbers and writes the rest as strings
    assert got == [{k: v if v < 2**53 else _chunked_decimal(v) for k, v in r.items()}
                   for r in want]


def _first_decimal_layer(cert):
    """The first layer with a cell that report renders from a Decimal."""
    return next((r.layer for r in cert.rows
                 if max(v for v in r if v is not None) >= report._DECIMAL_CELL), None)


@pytest.mark.parametrize("fid", ["example1", "example2", "example3"])
def test_certificate_cells_match_the_row_ints_around_the_decimal_crossover(run_cli, fid):
    fx = get_fixture(fid)
    plan = build_plan(fid)
    cross = _first_decimal_layer(build_certificate(plan, fx.av, 1000))
    assert 200 < cross < 500  # cells reach 10^200 at layer 233 (example3) to 417
    for n_max in (0, 1, 4, cross - 1, cross, cross + 1, 1000):
        cert = build_certificate(plan, fx.av, n_max)
        _check_certificate_cells(run_cli, ["certificate", fid, "--n-max", str(n_max)], cert)


def test_certificate_cells_match_the_row_ints_past_the_int_str_limit(run_cli):
    # p = 10^50 + 151: layer 90 holds ~4500 digits; the fine columns run on
    # q = 5 and the conservative one is floored at 0 on layer 0.
    p, av = 10**50 + 151, BUNDLED_AV["11a1"]
    plan = build_tower_plan(5, GroupSpec(p, 1, 2, FAMILY_ABELIAN), CyclotomicBase(3), 1,
                            gap_rank=0)
    cert = build_certificate(plan, av, 90)
    assert _first_decimal_layer(cert) == 4 and cert.rows[0].fine_conservative == 0
    args = ["construct", "--ell", "5", "--p", str(p), "--conductor", "3",
            "--rank-target", "1", "--n-max", "90", "--av", "11a1"]
    _check_certificate_cells(run_cli, args, cert)


def test_no_renderer_reads_the_row_ints(run_cli, monkeypatch):
    # Cells are rendered from the column table alone; rows is a derived view.
    argvs = [(*argv, *fmt)
             for argv in [("certificate", fid, "--n-max", "1000")
                          for fid in ("example1", "example2", "example3")]
             + [("reproduce", "all")]
             for fmt in ((), ("--json",))]
    want = [run_cli(*argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in want)

    def no_rows(cert):
        raise AssertionError("a renderer read BoundCertificate.rows")

    monkeypatch.setattr(BoundCertificate, "rows", property(no_rows))
    assert [run_cli(*argv) for argv in argvs] == want


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


@pytest.mark.parametrize("value", ["-7", "0", "1"])
def test_inert_primes_refuses_an_exclude_below_2(run_cli, value):
    # No prime is below 2; the refusal precedes the search, as on a conductor
    # whose unit group leaves nothing to search.
    for conductor in ("9", "8"):
        code, out, err = run_cli("inert-primes", conductor, "--count", "3", "--exclude", "5",
                                 "--exclude", value, "--json")
        assert (code, out) == (2, "")
        assert err == f"inert-primes: --exclude must be >= 2, got {value}\n"


def _reference_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def test_stable_json_matches_json_dumps_on_every_golden_document(run_cli, monkeypatch):
    docs = []
    writer = report.stable_json

    def recording(doc):
        docs.append(doc)
        return writer(doc)

    monkeypatch.setattr(report, "stable_json", recording)
    for argv, *_ in GOLDEN:
        run_cli(*shlex.split(argv.format(six=QUOTED_SIX_FACTORS)))
    # 20 of the 23 --json argv emit a document; the other three fail first
    assert len(docs) == 20
    assert {doc["kind"] for doc in docs} == set(report._KINDS)
    for doc in docs:
        assert writer(doc) == _reference_json(doc)


@pytest.mark.parametrize("argv", [
    # places with roots, and seven-key certificate rows
    "construct --base bundled-cubic --ell 3 --p 7 --family nilpotent-class-2 --dimension 3"
    " --twist-exponent 1 --rank-target 300 --av 19a1 --json",
    # more than 900 one-key places
    "construct --ell 5 --p 3 --dimension 1 --conductor 3 --rank-target 900 --json",
    "certificate example1 --n-max 1000 --json",
    # records nested in records, which are written item by item
    "reproduce all --json",
])
def test_stable_json_matches_json_dumps_on_record_lists(run_cli, monkeypatch, argv):
    docs = []
    writer = report.stable_json
    monkeypatch.setattr(report, "stable_json", lambda doc: docs.append(doc) or writer(doc))
    code, out, _ = run_cli(*shlex.split(argv))
    assert code == 0 and len(docs) == 1
    assert out == writer(docs[0]) == _reference_json(docs[0])


_TEXT = "az AZ_09\"\\/\x00\x01\x1f\x7f\n\t\u00e9\u03b6\u2028\U0001f600"


class _Int(int):
    """Scalar subclasses take the writer's item-by-item path."""


class _Str(str):
    pass


def _random_doc(rng, depth=0):
    kind = rng.randrange(10 if depth < 5 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice([0, 1, -1, 2**53, -(2**53), 2**53 + 1, 10**40, -(10**30),
                           0.5, -0.0, _Int(7), _Str("\u00e9")])
    if kind == 3:
        return rng.randrange(-10**6, 10**6)
    if kind == 4:
        return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(6)))
    if kind == 5:
        return rng.choice([[], {}, (), [[]], {"": {}}, [{}, []]])
    items = [_random_doc(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {"".join(rng.choice(_TEXT) for _ in range(rng.randrange(4))): v
            for v in items}


def test_stable_json_matches_json_dumps_on_random_documents():
    rng = random.Random(20261018)
    for _ in range(3000):
        doc = _random_doc(rng)
        assert report.stable_json(doc) == _reference_json(doc), doc
