"""The package's top-level names."""
import ast
from pathlib import Path

import hkflow

INIT = Path(hkflow.__file__)


def test_all_lists_exactly_the_imported_names():
    """__all__ restates the names that __init__.py imports, for tools that
    read it; the two lists must not drift apart."""
    imported = set()
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    assert set(hkflow.__all__) == imported
    assert len(hkflow.__all__) == len(set(hkflow.__all__))
