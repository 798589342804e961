"""The package's records against ``typing.NamedTuple``: each ``class X(Record)``
body, run again with that base, gives the same named tuple, and built records
survive pickling."""

import __future__
import ast
import importlib
import pickle
import typing
from pathlib import Path

import pytest

from towerbound.bounds import build_certificate
from towerbound.fixtures import build_plan, get_fixture
from towerbound.reproduce import run_reproduction

PKG = Path(__file__).resolve().parents[1] / "src" / "towerbound"


def _record_classes() -> list[tuple[str, str, str]]:
    """(module, class name, class source) for each ``class X(Record)`` in the package."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef) and [ast.unparse(b) for b in node.bases] == ["Record"]:
                found.append((path.stem, node.name, ast.get_source_segment(source, node)))
    return found


RECORDS = _record_classes()


def _typing_twin(module, name: str, source: str) -> type:
    """The class body in ``source`` as ``typing.NamedTuple`` builds it, in ``module``."""
    header, body = source.split("\n", 1)
    assert header == f"class {name}(Record):"
    code = compile(f"class {name}(typing.NamedTuple):\n{body}", module.__file__, "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {**vars(module), "typing": typing}
    exec(code, namespace)
    return namespace[name]


def test_every_record_class_is_found():
    # keeps the parity test below from passing on a reader that finds nothing
    assert len(RECORDS) == 19
    assert {"Diagnostic", "TowerPlan", "BoundCertificate", "ReproductionResult"} <= {
        name for _, name, _ in RECORDS}


@pytest.mark.parametrize(("module", "name", "source"), RECORDS, ids=[r[1] for r in RECORDS])
def test_a_record_is_the_named_tuple_typing_built(module, name, source):
    mod = importlib.import_module(f"towerbound.{module}")
    cls, twin = getattr(mod, name), _typing_twin(mod, name, source)
    assert cls._fields == twin._fields == tuple(twin.__annotations__)
    assert cls._field_defaults == twin._field_defaults
    for attr in ("__doc__", "__module__", "__qualname__"):
        assert getattr(cls, attr) == getattr(twin, attr), attr
    assert cls.__mro__ == (cls, tuple, object)
    # the body's methods and properties, and nothing else, were copied over;
    # typing alone keeps the class statement's bases
    assert vars(cls).keys() == vars(twin).keys() - {"__orig_bases__"}


def test_built_records_survive_a_pickle_round_trip():
    for fixture_id in ("example1", "example3"):  # a cyclotomic and a relative-cubic base
        plan = build_plan(fixture_id)
        certificate = build_certificate(plan, av=get_fixture(fixture_id).av, n_max=2)
        result = run_reproduction(fixture_id, n_max=2)
        for record in (plan, certificate, result):
            back = pickle.loads(pickle.dumps(record))
            assert type(back) is type(record) and back == record
