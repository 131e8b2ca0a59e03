"""Source-level checks on the package itself."""

import ast
import pathlib
from collections import Counter

import ncbinom

PACKAGE = pathlib.Path(ncbinom.__file__).parent

# perfbench's tracer patches it by name; no verifier calls it
KEPT_FOR_THE_TRACER = {"apply_assigned"}
# perfbench reads them off the scalars it builds and traces
READ_BY_PERFBENCH = {"CycloScalar.coords", "CycloScalar.is_rational"}


NAMES, ATTRIBUTES = (ast.Name, ast.Attribute), (ast.Attribute,)


def _references(node, kinds) -> Counter:
    """Every name or attribute, of the ast node types `kinds`, referenced under node, counted."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, kinds))


def test_every_function_class_and_method_is_used_in_src_or_exported():
    # a definition that only tests call belongs in tests/oracles.py, not in the package
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    definitions = {}  # name -> (node, the kinds of reference that reach it)
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions[stmt.name] = stmt, NAMES
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    # a method, dunders aside, is reached only as an attribute, not by a
                    # parameter or local of its name
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        definitions[f"{stmt.name}.{item.name}"] = item, ATTRIBUTES
    used = {kinds: sum((_references(tree, kinds) for tree in trees), Counter())
            for kinds in (NAMES, ATTRIBUTES)}
    # a reference from a definition's own body (recursion) does not count
    unused = {name for name, (node, kinds) in definitions.items()
              if used[kinds][node.name] == _references(node, kinds)[node.name]}
    assert unused - set(ncbinom.__all__) == KEPT_FOR_THE_TRACER | READ_BY_PERFBENCH
