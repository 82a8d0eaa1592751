"""Dead-code guard: every function, class and public method of haltlab has a
caller in the package, or checks a statement of the paper and is listed in
the table of the haltlab docstring; and every parameter with a default is
passed somewhere, or its function is in that table.

The scans read src/haltlab/*.py with ast. A definition counts as used when
its name appears, as a name or an attribute, anywhere in the package outside
its own body; the re-exports in __init__.py do not count. A parameter counts
as passed when some call of the function's name in src/haltlab or tests,
outside the function's own body, gives it by keyword or by position, or
passes *args or **kwargs. No row of that table may be reached from a
cli._cmd_* handler, following by name the definitions each reached body
uses, as the table is for what no subcommand calls. And every module-level
UPPER_CASE constant is read somewhere in src/haltlab, tests or perfbench,
outside its own assignment. Every limit is such a constant: only vm, which
picks its kernel by HALTLAB_KERNEL, reads the environment.
"""

import ast
import collections
import importlib
import pathlib
import re

import haltlab

PACKAGE = pathlib.Path(haltlab.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
CONSTANT = re.compile(r"^[A-Z][A-Z0-9_]*$")
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


def reached_from_subcommands():
    """Names of the package's definitions that some cli._cmd_* handler
    reaches: the names its body uses, then the names used by every
    definition of those names, and so on."""
    trees = package_trees()
    bodies = collections.defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies[node.name].append(node)
    todo = [
        node.name
        for node in trees["cli"].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    reached = set(todo)
    while todo:
        for node in bodies[todo.pop()]:
            for name in names_used(node).keys() & bodies.keys() - reached:
                reached.add(name)
                todo.append(name)
    return reached


def test_no_statement_is_reached_from_a_subcommand():
    """Rows of the statement table are exempt from the default guard, so a
    row that a subcommand reaches would escape it."""
    reached = reached_from_subcommands()
    assert reached >= {"_cmd_density", "exclusion_report", "induced_distribution"}
    assert {row for row in statement_table() if row.rsplit(".", 1)[1] in reached} == set()


def test_every_export_resolves():
    assert len(haltlab.__all__) == len(set(haltlab.__all__))
    for name in haltlab.__all__:
        assert hasattr(haltlab, name), name


def unread_constants():
    """Module-level UPPER_CASE names of src/haltlab that nothing reads: a
    read is a name or an attribute in load context, and an assignment's
    own targets are stores, so they do not count."""
    assigned = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned.update(
                    f"{path.stem}.{t.id}"
                    for t in targets
                    if isinstance(t, ast.Name) and CONSTANT.match(t.id)
                )
    read = set()
    for path in [*PACKAGE.glob("*.py"), *TESTS.rglob("*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return {name for name in assigned if name.split(".")[1] not in read}


def test_every_constant_is_read():
    assert unread_constants() == set()


def test_only_vm_reads_the_environment():
    readers = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if {"environ", "getenv"} & names_used(ast.parse(path.read_text(encoding="utf-8"))).keys()
    }
    assert readers == {"vm"}
