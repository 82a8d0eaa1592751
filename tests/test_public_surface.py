"""Dead-code guard: every function, class and public method of haltlab has a
caller in the package, or checks a statement of the paper and is listed in
the table of the haltlab docstring.

The scan reads src/haltlab/*.py with ast. A definition counts as used when
its name appears, as a name or an attribute, anywhere in the package outside
its own body; the re-exports in __init__.py do not count.
"""

import ast
import collections
import importlib
import pathlib
import re

import haltlab

PACKAGE = pathlib.Path(haltlab.__file__).resolve().parent
# a row of the statement table: four spaces and a dotted module.name
TABLE_ROW = re.compile(r"^    ([a-z_]+(?:\.\w+)+)$", re.MULTILINE)


def statement_table():
    return TABLE_ROW.findall(haltlab.__doc__)


def names_used(node):
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def definitions(module, tree):
    """(qualified name, node) of each top-level function and class and each
    public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def unused_definitions():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    used = sum((names_used(tree) for tree in trees.values()), collections.Counter())
    unused = set()
    for module, tree in trees.items():
        for qualified, node in definitions(module, tree):
            if used[node.name] == names_used(node)[node.name]:
                unused.add(qualified)
    return unused


def resolve(dotted):
    module, *attrs = dotted.split(".")
    target = importlib.import_module(f"haltlab.{module}")
    for attr in attrs:
        target = getattr(target, attr)
    return target


def test_every_unused_definition_checks_a_paper_statement():
    assert unused_definitions() <= set(statement_table())


def test_the_statement_table_resolves():
    table = statement_table()
    assert table and len(table) == len(set(table))
    for dotted in table:
        assert callable(resolve(dotted)), dotted


def test_every_export_resolves():
    assert len(haltlab.__all__) == len(set(haltlab.__all__))
    for name in haltlab.__all__:
        assert hasattr(haltlab, name), name
