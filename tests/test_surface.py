"""The library's public surface: every public function or method defined in
`src/ttc` is referenced somewhere in `src/ttc` or `perfbench/`, apart from
the test-only entry points named here.  A re-export in `__init__.py` is an
import, not a reference."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parent.parent

# Public, but called only by the tests.  The list is empty and may only
# stay so: a public function without a library caller fails the test below.
TEST_ONLY = set()


def public_definitions() -> set[str]:
    """The public module-level functions and methods of `src/ttc`, as
    "name" or "Class.name"."""
    found = set()
    for path in (ROOT / "src" / "ttc").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                found.add(node.name)
            elif isinstance(node, ast.ClassDef):
                found.update("%s.%s" % (node.name, item.name) for item in node.body if isinstance(item, ast.FunctionDef))
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
