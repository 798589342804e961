"""What the package's layout keeps: the import rules between its modules, read
from their source with ``ast``, and the names the benchmark's tracer wraps."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

from towerbound import arith, gf, zpoly

PKG = Path(__file__).resolve().parents[1] / "src" / "towerbound"


def _package_imports(module: str) -> set[str]:
    """The sibling modules ``towerbound.<module>`` imports, by bare name."""
    tree = ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import a, b
                found.update(alias.name for alias in node.names)
            elif node.level == 1:  # from .a import b
                found.add(node.module.split(".")[0])
            elif (node.module or "").startswith("towerbound"):
                parts = node.module.split(".")
                found.update(parts[1:2] or (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "towerbound" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_the_rabin_test_stays_with_the_verifiers():
    # Besides the package's re-exports, reproduce alone calls gf, as the
    # independent check of the class tables; asserting that it does also
    # keeps the rules below from passing on a reader that finds no imports
    modules = [m.stem for m in PKG.glob("*.py") if m.stem != "__init__"]
    assert {m for m in modules if "gf" in _package_imports(m)} == {"reproduce"}


def test_tower_selects_primes_without_gf():
    # Prime selection walks residue-class tables; gf's Rabin test is the
    # independent verifier of those tables, so tower must not reach it.
    assert "gf" not in _package_imports("tower")


def _used_names(module: str, owner: str) -> tuple[set[str], set[str]]:
    """(names ``module`` reads off ``owner.``, every name and attribute it uses)."""
    tree = ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))
    via, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id == owner:
                via.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.ImportFrom) and node.module == owner:
            via.update(alias.name for alias in node.names)
    return via, used


def test_tower_decides_splitting_without_its_checking_route():
    # Selection and validation read the base's subgroups of (Z/n)*;
    # splitting_data, which runs mult_order, is the independent route that
    # checks both, so
    # tower runs no mult_order and takes from cyclotomic only the places
    # above a split prime.  Requiring primes_above keeps the rule from
    # passing on a reader that finds nothing.
    via, used = _used_names("tower", "cyclotomic")
    assert via == {"primes_above"}
    assert "mult_order" not in used


def test_cyclotomic_builds_no_sieve_of_its_own():
    # The word primes behind the norms are filtered by arith.is_prime alone;
    # arith's prime stream is the package's one sieve.
    via, used = _used_names("cyclotomic", "arith")
    assert "is_prime" in via
    assert "primes" not in via and "bytearray" not in used


def test_tower_asks_no_polynomial_kernel():
    # A relative cubic's discriminant comes in closed form; zpoly's resultant
    # runs over Q, on Fractions, and stays off prime selection.
    assert "zpoly" not in _package_imports("tower")


def test_gf_runs_on_zpolys_kernel():
    # One kernel for Z, Q and F_q: each kernel name gf reads is zpoly's own
    # object, and no module-level function of gf takes a kernel name, so a
    # second copy cannot come back beside the first.
    kernel = {name for name in vars(zpoly) if name.startswith("poly_")}
    via, _ = _used_names("gf", "zpoly")
    assert {"poly_mul", "poly_divmod", "poly_gcd", "poly_derivative"} <= via & kernel
    assert all(getattr(gf, name) is getattr(zpoly, name) for name in via & kernel)
    tree = ast.parse((PKG / "gf.py").read_text(encoding="utf-8"))
    defined = {node.name.lstrip("_") for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "is_irreducible" in defined
    assert not defined & (kernel | {name.removeprefix("poly_") for name in kernel})


def test_report_imports_only_the_formatters():
    assert _package_imports("report") <= {"arith"}


DISPLAY_METHODS = {"describe", "render", "fixed_subfield_label", "classification", "__str__"}


def test_domain_classes_do_not_render_themselves():
    # report alone knows how output looks.  The bounds aliases of report's
    # certificate functions are assignments, not definitions, and stay.
    methods = set()
    for module in ("tower", "cyclotomic", "gf", "bounds", "zpoly"):
        tree = ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))
        methods |= {(module, cls.name, node.name)
                    for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert ("cyclotomic", "CycloElement", "norm") in methods  # the reader finds methods
    assert not {m for m in methods if m[2] in DISPLAY_METHODS}


def _tracing():
    """bench/tracing.py as a module, imported without installing its hooks."""
    path = PKG.parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracers_hooks_resolve_in_the_package():
    # The tracer wraps functions and methods by name, and a name that no
    # longer resolves would only show when a traced run starts.
    tracing = _tracing()
    for module, cls, method in tracing.METHODS:
        owner = getattr(importlib.import_module(f"towerbound.{module}"), cls)
        assert callable(getattr(owner, method)), (module, cls, method)
    spans = {n.rsplit(".", 1)[0] for n, _ in tracing.LAYER_METRICS
             if n.endswith((".calls", ".self_s"))}
    assert "arith.primes_ascending" in spans
    for span in spans - set(tracing.METHODS.values()):
        module, function = span.split(".")
        assert callable(getattr(importlib.import_module(f"towerbound.{module}"),
                                function, None)), span
    # the prime-search wrapper passes the predicate second, by position
    params = list(inspect.signature(arith.primes_ascending).parameters)
    assert params[1] == "predicate"


def test_the_cli_starts_without_dataclasses_or_inspect():
    # Start-up (`setup_s`) is importing the CLI and building its parser, and a
    # fresh `python -S` interpreter, where no site hook preloads anything,
    # shows what that alone loads.  inspect pulls in ast, dis and tokenize,
    # and dataclasses imports inspect.  The json package loads its decoder
    # and scanner besides the C encoder report uses (1.5 ms), and
    # typing.NamedTuple compiled every record field's annotation.  decimal,
    # random (wide primes only) and pathlib (--out only) are imported where
    # they are needed.  Under -S on a 2-core host, import plus parser went
    # from 31 to 19 ms (medians of 20 alternating runs, BENCH_cold-start.json).
    env = {**os.environ, "PYTHONPATH": str(PKG.parent)}
    code = ("import sys, towerbound.cli; towerbound.cli.build_parser(); "
            "print(sorted({'dataclasses', 'decimal', 'inspect', 'json', 'pathlib', "
            "'random', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[]\n"


def test_the_cli_paths_leave_fractions_unimported():
    # zpoly's resultant runs over Q on Fractions, and fractions loads decimal.
    # The CLI's discriminant questions take the closed form and the
    # repeated-factor gate instead, as a fresh interpreter shows.
    env = {**os.environ, "PYTHONPATH": str(PKG.parent)}
    code = ("import contextlib, io, sys, towerbound.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['reproduce', 'all']), cli.main(["
            "'construct', '--base', 'bundled-cubic', '--ell', '3', '--p', '7', "
            "'--family', 'nilpotent-class-2', '--dimension', '3', "
            "'--twist-exponent', '1', '--rank-target', '300', '--json'])]\n"
            "print(codes, 'fractions' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[0, 0] False\n"
