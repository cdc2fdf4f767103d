"""carrysim depends on numpy alone: its modules import nothing else outside
the standard library, even where the test environment has more installed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "carrysim"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "carrysim"}


def imported_packages(source: str) -> set[str]:
    """The top-level package of every absolute import in ``source``."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imports_are_read_from_every_form_of_import():
    source = "import scipy.linalg as la\nfrom sklearn import svm\nfrom . import models\n"
    assert imported_packages(source) == {"scipy", "sklearn"}


def test_carrysim_imports_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "models.py" in modules
    outside = {
        path.name: sorted(imported_packages(path.read_text()) - ALLOWED) for path in modules
    }
    assert {name: roots for name, roots in outside.items() if roots} == {}


def test_import_and_the_exact_axis_map_load_neither_numpy_polynomial_nor_scipy():
    # both cost set-up time and memory in every fresh interpreter
    program = (
        "import sys, carrysim\n"
        "model = carrysim.load_model_file(sys.argv[1]).map_model(carrysim.IntegrationConfig(64))\n"
        "assert model.exact_axial_fixed_points() is not None\n"
        "print(sorted(m for m in sys.modules if m.startswith(('numpy.polynomial', 'scipy'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    model = PACKAGE.parents[1] / "models" / "periodic_lv2.json"
    result = subprocess.run(
        [sys.executable, "-c", program, str(model)],
        env=env, capture_output=True, text=True, check=True,
    )  # fmt: skip
    assert result.stdout == "[]\n"
