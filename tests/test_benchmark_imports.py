"""The benchmark under `perfbench/` imports names from `ttc`; a name deleted
from the library would break the benchmark without failing any other test,
so every such import is resolved here without running the benchmark."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


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


def test_the_benchmark_loads_no_front_end_module():
    """Importing `ttc` and the benchmark's workloads and tracing loads
    neither the CLI, the renderer nor the random-machine generator, so an
    edit to those is neither set up nor timed by the benchmark."""
    probe = (
        "import sys; sys.path.insert(0, %r); import ttc, workloads, tracing; "
        "print(sorted(m for m in ('ttc.cli', 'ttc.render', 'ttc.generate') if m in sys.modules))" % str(PERFBENCH)
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
