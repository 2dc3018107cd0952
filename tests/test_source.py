"""Checks on the source text of the fdlink package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fdlink"

# Names imported on purpose without a use in their module. simulator.py
# imports build_design_matrix and tsvd_estimate because perfbench/bench.py
# wraps the frame's layers where run_frame looks them up, on
# fdlink.simulator. __init__.py is not checked: its imports are the
# package's re-exported API.
EXEMPT = {"simulator.py": {"build_design_matrix", "tsvd_estimate"}}
MODULES = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def _unused_imports(tree):
    """Names bound by an import statement and never read in the module.

    `import a.b` binds `a` only to load the submodule `a.b`; such an import
    is made for that side effect and is not counted.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.Import) and alias.asname is None \
                        and "." in alias.name:
                    continue
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {name: line for name, line in bound.items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    exempt = EXEMPT.get(path.name, set())
    unused = _unused_imports(ast.parse(path.read_text()))
    assert set(unused) <= exempt, {n: line for n, line in unused.items()
                                   if n not in exempt}


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import os\nimport numpy.fft\nfrom . import numerics\n"
                     "from .waveform import full_bins as fb\nnumerics.svd\n")
    assert _unused_imports(tree) == {"os": 1, "fb": 4}


def _private_imports(tree):
    """Underscored names imported from a sibling module, with their lines."""
    return {alias.name: node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_from_sibling_modules(path):
    # a module's underscored names are its own: another module that needs
    # one calls a public function of the owner instead
    assert _private_imports(ast.parse(path.read_text())) == {}


def test_private_import_check_sees_an_underscored_name():
    tree = ast.parse("from . import numerics\nfrom .beamforming import "
                     "(_bin_cov, rate_bits)\nfrom os import _exit\n")
    assert _private_imports(tree) == {"_bin_cov": 2}
