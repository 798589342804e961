"""What the package's layout keeps: the import rules between its modules, read
from their source with ``ast``, and the names the benchmark's tracer wraps."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

from towerbound import arith

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
    # Selection and validation read arith.unit_generators; splitting_data,
    # which runs mult_order, is the independent route that checks both, so
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
    # Importing them cost about two thirds of the CLI's start-up (`setup_s`):
    # inspect pulls in ast, dis and tokenize.  decimal (about 1.8 ms) is
    # imported only when a value is large enough to need it.  A fresh
    # interpreter shows what importing the CLI alone loads.
    env = {**os.environ, "PYTHONPATH": str(PKG.parent)}
    code = ("import sys, towerbound.cli; "
            "print(sorted({'dataclasses', 'decimal', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[]\n"
