"""The benchmark under `perfbench/` imports names from `ttc`; a name deleted
from the library would break the benchmark without failing any other test,
so every such import is resolved here without running the benchmark."""

import ast
import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def ttc_imports():
    """(file, module, name) for every `from ttc... import name` and
    (file, module, None) for every `import ttc...` in perfbench/*.py."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "ttc":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names if alias.name.split(".")[0] == "ttc"]
    return found


def test_every_benchmark_import_from_ttc_resolves():
    found = ttc_imports()
    assert any(name is not None for _, _, name in found)
    for filename, module, name in found:
        imported = importlib.import_module(module)
        if name is not None:
            assert hasattr(imported, name) or importlib.util.find_spec("%s.%s" % (module, name)), (
                "%s imports %s from %s, which does not define it" % (filename, name, module)
            )
