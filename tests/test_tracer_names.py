"""The traced benchmark run wraps hkflow callables that perfbench/tracer.py
names in its FUNCTIONS and METHODS lists; a name that no longer resolves
breaks that run.  The lists are read from the source with ast, so nothing
under perfbench/ is imported or written."""
import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_list(name: str) -> list:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACER} assigns no {name}")


def test_traced_functions_resolve():
    entries = _tracer_list("FUNCTIONS")
    missing = [f"{mod}.{attr}" for _, mod, attr in entries
               if not callable(getattr(importlib.import_module(mod), attr,
                                       None))]
    assert entries and not missing


def test_traced_methods_are_defined_on_their_class():
    entries = _tracer_list("METHODS")
    missing = [f"{mod}.{cls}.{attr}" for _, mod, cls, attr in entries
               if attr not in vars(getattr(importlib.import_module(mod), cls))]
    assert entries and not missing
