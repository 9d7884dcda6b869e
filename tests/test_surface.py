"""The library's public surface: every public function or method defined in
`src/ttc` is referenced somewhere in `src/ttc` or `perfbench/`, apart from
the test-only entry points named here, and is entered by the library's real
traffic: the benchmark's validation of its workloads and every CLI command.
Every private one is referenced in `src/ttc` outside its own body.  A
re-export in `__init__.py` is an import, not a reference."""

import ast
import contextlib
import importlib
import io
import pathlib
import re
import sys
from collections import Counter

import pytest

from ttc import TtcSyntaxError, parse_workspace
from ttc.cli import main

ROOT = pathlib.Path(__file__).parent.parent

# Public, but called only by the tests.  The list is empty and may only
# stay so: a public function without a library caller fails the test below.
TEST_ONLY = set()


def public_definitions() -> set[str]:
    """The public module-level functions and methods of `src/ttc`, as
    "module.name" or "module.Class.name"."""
    found = set()
    for path in (ROOT / "src" / "ttc").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                found.add("%s.%s" % (path.stem, node.name))
            elif isinstance(node, ast.ClassDef):
                found.update(
                    "%s.%s.%s" % (path.stem, node.name, item.name) for item in node.body if isinstance(item, ast.FunctionDef)
                )
    return {name for name in found if not name.split(".")[-1].startswith("_")}


def referenced_names() -> set[str]:
    """Every name read as a variable or an attribute in `src/ttc` and
    `perfbench/`."""
    paths = [*(ROOT / "src" / "ttc").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_library_caller():
    referenced = referenced_names()
    unreferenced = {name for name in public_definitions() if name.split(".")[-1] not in referenced}
    assert unreferenced - TEST_ONLY == set(), "public, but only the tests call it"
    assert TEST_ONLY - unreferenced == set(), "has a library caller now: remove it from TEST_ONLY"


def names_read(tree: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_private_function_has_a_library_caller():
    """A private module-level function or method of `src/ttc` (not a
    special method) is read somewhere in `src/ttc` outside its own body, so
    a refactor leaves no helper behind that only the tests call."""
    modules = [ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "ttc").glob("*.py")]
    reads = sum(map(names_read, modules), Counter())
    private = [
        item
        for module in modules
        for node in module.body
        for item in (node.body if isinstance(node, ast.ClassDef) else [node])
        if isinstance(item, ast.FunctionDef) and item.name.startswith("_") and not item.name.endswith("__")
    ]
    assert len(private) > 40  # not vacuous
    uncalled = sorted(f.name for f in private if reads[f.name] == names_read(f)[f.name])
    assert uncalled == [], "private, but only the tests call it"


FIXTURES = str(ROOT / "tests" / "data" / "fixtures.ttc")

# every CLI command, with the formats it accepts
ALL = ("text", "json", "dot")
CLI_CALLS = [
    (["run", "--machine", "quadratic", "--input", "a(a(e))"], ("text", "json")),
    (["run", "--machine", "quadratic_la", "--input", "a(a(e))"], ("text", "json")),
    (["run", "--chain", "copying", "--input", "a(e)"], ("text", "json")),
    (["domaut", "--machine", "quadratic"], ALL),
    (["hat", "--t1", "ex4_t1", "--t2", "ex4_t2"], ALL),
    (["product", "--t1", "ex4_t1", "--t2", "ex4_t2"], ALL),
    (["build-m", "--t1", "ex4_t1", "--t2", "ex4_t2"], ALL),
    (["decompose-la", "--machine", "quadratic_la"], ALL),
    (["fuse", "--t1", "quadratic", "--t2", "quad_out_id"], ALL),
    (["--seed", "1", "reduce", "--chain", "rnd_chain3"], ALL),
    (["check", "--chain", "worked"], ALL),
    (["--seed", "1", "check", "--chain", "rnd_pair"], ALL),  # refuted on the chain itself
    (["check", "--machine", "quadratic_la"], ALL),
    (["trace", "--machine", "quadratic", "--input", "a(a(e))"], ALL),
]


def traffic():
    """One malformed workspace, every CLI command in each format on the
    fixtures, and the benchmark's validation of each workload at seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
        workspaces = importlib.import_module("workspaces")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    with pytest.raises(TtcSyntaxError):
        parse_workspace("transducer oops {")
    for argv, formats in CLI_CALLS:
        for fmt in formats:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                status = main(["-w", FIXTURES, *argv, "--format", fmt])
            assert status in (0, 1), (argv, fmt, err.getvalue())
    for workload, make in sorted(workspaces.WORKLOADS.items()):
        _, errors = workloads.validate(workload, make(1))
        assert errors == [], workload


def code_of(name: str):
    """The code object of a "module.name" or "module.Class.name" definition;
    a property's getter, a classmethod's function."""
    module, *path = name.split(".")
    obj = importlib.import_module("ttc.%s" % module)
    for part in path:
        obj = vars(obj)[part]
    obj = getattr(obj, "fget", None) or getattr(obj, "__func__", obj)
    return obj.__code__


def test_every_public_function_is_entered_by_the_real_traffic():
    waiting = {code_of(name): name for name in public_definitions()}

    def profile(frame, event, arg):
        # the profile goes off once every public function has been entered
        if event == "call" and waiting.pop(frame.f_code, None) and not waiting:
            sys.setprofile(None)

    sys.setprofile(profile)
    try:
        traffic()
    finally:
        sys.setprofile(None)
    never = sorted(waiting.values())
    assert never == [], "public, but the benchmark's validation and the CLI never enter %s" % never


# The functions of `src/ttc` that recurse, directly or through others, so a
# deep enough tree or right-hand side can exhaust the interpreter's stack.
# A new one shows up here; one given an explicit stack leaves the set.
RECURSIVE = {
    "_class_trees",
    "_evaluate",
    "_expand",
    "_label",
    "_random_rhs",
}


def test_recursion_inventory():
    """The functions on a cycle of the call graph of `src/ttc`, whose edges
    are the calls each function (nested ones included) makes by bare name."""
    calls: dict[str, set[str]] = {}
    for path in (ROOT / "src" / "ttc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                calls.setdefault(node.name, set()).update(
                    c.func.id for c in ast.walk(node) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                )

    def on_cycle(f):
        seen, todo = set(), list(calls[f])
        while todo:
            g = todo.pop()
            if g == f:
                return True
            if g in calls and g not in seen:
                seen.add(g)
                todo.extend(calls[g])
        return False

    assert {f for f in calls if on_cycle(f)} == RECURSIVE


def test_no_private_parameters():
    """No function or method of `src/ttc` takes a `_`-prefixed parameter:
    a mode a caller must remember to pass is a fact the callee can read off
    its input, or a second function."""
    private = []
    for path in (ROOT / "src" / "ttc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                private += ["%s: %s(%s)" % (path.name, getattr(node, "name", "lambda"), p.arg) for p in params if p.arg.startswith("_")]
    assert private == []


def readme_identifiers() -> list[str]:
    """The inline code spans of README.md outside fenced blocks that are a
    dotted or underscored identifier: `name`, `module.name`, `Class.name`,
    any of them with `()`."""
    lines, fenced = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            lines.append(line)
    spans = [span.strip() for span in re.findall(r"`([^`]+)`", "\n".join(lines))]
    identifier = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?")
    return [span for span in spans if identifier.fullmatch(span) and ("." in span or "_" in span)]


def code_identifiers() -> set[str]:
    """Every identifier of the code in `src/ttc`, `tests/` and
    `perfbench/`: module and package names and the names defined or read
    there, keyword and attribute names, and the string constants that are
    identifiers, such as the keys of a report's stats."""
    paths = [*(ROOT / "src" / "ttc").glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    found = {"ttc", *(path.stem for path in paths)}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                found.add(node.arg)
            elif isinstance(node, ast.alias):
                found.update((node.asname or node.name).split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                found.add(node.value)
    return found


def test_readme_names_only_code_that_exists():
    """Each part of each identifier the README quotes names an identifier
    of the code, so a renamed or deleted function, memo or stat does not
    live on in the documentation."""
    spans = readme_identifiers()
    assert len(spans) > 80  # not vacuous
    known = code_identifiers()
    missing = sorted({span for span in spans if not all(part in known for part in span.removesuffix("()").split("."))})
    assert missing == []
