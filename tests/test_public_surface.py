"""Dead-code guard: every function, class and public method of haltlab has a
caller in the package, or checks a statement of the paper and is listed in
the table of the haltlab docstring; and every parameter with a default is
passed somewhere, or its function is in that table.

The scans read src/haltlab/*.py with ast. A definition counts as used when
its name appears, as a name or an attribute, anywhere in the package outside
its own body; the re-exports in __init__.py do not count. A parameter counts
as passed when some call of the function's name in src/haltlab or tests,
outside the function's own body, gives it by keyword or by position, or
passes *args or **kwargs.
"""

import ast
import collections
import importlib
import pathlib
import re

import haltlab

PACKAGE = pathlib.Path(haltlab.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent
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


def package_trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def unused_definitions():
    trees = package_trees()
    used = sum((names_used(tree) for tree in trees.values()), collections.Counter())
    unused = set()
    for module, tree in trees.items():
        for qualified, node in definitions(module, tree):
            if used[node.name] == names_used(node)[node.name]:
                unused.add(qualified)
    return unused


def defaulted_parameters(node, method):
    """(name, position) of each parameter of a function with a default; the
    position counts the positional arguments of a call, None for a
    keyword-only parameter. A method's self or cls is not counted (the
    package has no static methods)."""
    args = node.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional):
        if position >= first_default:
            yield arg.arg, position - method
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def passes(call, name, position):
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def never_passed_defaults():
    trees = package_trees()
    callers = list(trees.values()) + [
        ast.parse(path.read_text(encoding="utf-8")) for path in sorted(TESTS.rglob("*.py"))
    ]
    calls = collections.defaultdict(list)
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append(node)
    exempt = set(statement_table())
    flagged = set()
    for module, tree in trees.items():
        for qualified, node in definitions(module, tree):
            if not isinstance(node, ast.FunctionDef) or qualified in exempt:
                continue
            inside = {id(n) for n in ast.walk(node)}
            outside = [call for call in calls[node.name] if id(call) not in inside]
            method = qualified.count(".") == 2
            for name, position in defaulted_parameters(node, method):
                if not any(passes(call, name, position) for call in outside):
                    flagged.add(f"{qualified}({name}=)")
    return flagged


def resolve(dotted):
    module, *attrs = dotted.split(".")
    target = importlib.import_module(f"haltlab.{module}")
    for attr in attrs:
        target = getattr(target, attr)
    return target


def test_every_unused_definition_checks_a_paper_statement():
    assert unused_definitions() <= set(statement_table())


def test_every_default_is_passed_somewhere():
    assert never_passed_defaults() == set()


def test_the_statement_table_resolves():
    table = statement_table()
    assert table and len(table) == len(set(table))
    for dotted in table:
        assert callable(resolve(dotted)), dotted


def test_every_export_resolves():
    assert len(haltlab.__all__) == len(set(haltlab.__all__))
    for name in haltlab.__all__:
        assert hasattr(haltlab, name), name
