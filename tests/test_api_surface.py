"""The package's public surface: every public module-level function and
class, and every public method of such a class, has a caller in the package
or the benchmark, apart from a fixed few that only the tests call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "causalmed"

#: Public names that no code in ``src/`` or ``bench/`` refers to; the tests
#: call them.
TEST_ONLY = {
    "mediation.effect_triple",
    "scm.sample",
    "scm.format_scm",
    "data.Column.build",
    "data.Column.label",
    "glm.FitResult.coef",
}


def public(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def public_definitions():
    """``module.name`` for each public module-level function and class, and
    ``module.Class.name`` for each public method (properties included) of
    such a class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in filter(public, ast.parse(path.read_text()).body):
            yield f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in filter(public, node.body):
                    yield f"{path.stem}.{node.name}.{item.name}"


def referenced_names():
    """The identifiers that code in ``src/`` or ``bench/`` reads or imports,
    as (names, attributes): names and imported names, and the attribute
    names it reads, so a name inside a docstring or comment does not count."""
    names, attributes = set(), set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names, attributes


def test_public_names_without_a_caller_are_the_test_only_few():
    """A module-level name counts as referenced by any use; a method only by
    an attribute access, so a local variable of the same name does not
    count."""
    names, attributes = referenced_names()
    unreferenced = set()
    for name in public_definitions():
        attr = name.rpartition(".")[2]
        is_method = name.count(".") == 2
        if attr not in attributes and (is_method or attr not in names):
            unreferenced.add(name)
    assert unreferenced == TEST_ONLY
