"""The runtime needs numpy only: importing the package and its CLI loads no scipy, and
no numpy.polynomial until a quadrature needs it.  Modules share helpers by public name only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_and_cli_import_no_scipy():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = (
        "import sys, subtrial, subtrial.cli; print(subtrial.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    package_file, scipy_modules, polynomial_modules = run.stdout.splitlines()
    assert Path(package_file).resolve().is_relative_to(SRC)
    assert scipy_modules == "[]"
    assert polynomial_modules == "[]"


# the array type and numpy's math-named kernels are shared low-level aliases, not helpers
SHARED_PRIVATE = {("distributions", "_ARRAY"), ("distributions", "_NUMPY")}


def test_no_module_imports_a_private_name_from_a_sibling():
    found = []
    for path in sorted((SRC / "subtrial").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("subtrial")):
                sibling = (node.module or "").rpartition(".")[2]
                found += [
                    f"{path.name}: {sibling}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and (sibling, alias.name) not in SHARED_PRIVATE
                ]
    assert found == []
