"""Source-level checks on the package itself."""

import ast
import pathlib

import ncbinom

PACKAGE = pathlib.Path(ncbinom.__file__).parent

# perfbench's tracer patches it by name; no verifier calls it
KEPT_FOR_THE_TRACER = {"apply_assigned"}


def test_every_top_level_function_and_class_is_used_in_src_or_exported():
    # a definition that only tests call belongs in tests/oracles.py, not in the package
    defined, used_by = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[own] = path.name
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            used_by.setdefault(own, set()).update(names)
    # a reference from a definition's own body (recursion) does not count
    unused = {name for name in defined
              if not any(name in names for owner, names in used_by.items() if owner != name)}
    assert unused - set(ncbinom.__all__) == KEPT_FOR_THE_TRACER
