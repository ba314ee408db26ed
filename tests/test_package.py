"""The package's public surface: its exports and the README's examples."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import spinlight
from spinlight import gaussian, interaction, maxwell_bloch, protocols

README = Path(__file__).resolve().parent.parent / "README.md"
LAYERS = (gaussian, interaction, maxwell_bloch, protocols)


def _package_imports():
    """{module name: names} of the package's ``from .module import ...`` lines."""
    tree = ast.parse(Path(spinlight.__file__).read_text())
    imports = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, set()).update(a.name for a in node.names)
    return imports


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_package_exports_each_layer_all(module):
    taken = _package_imports()[module.__name__.rpartition(".")[2]]
    assert taken == set(module.__all__)
    for name in module.__all__:
        assert getattr(spinlight, name) is getattr(module, name), name


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_readme_has_python_blocks():
    assert len(_python_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_python_block_runs(index):
    code = compile(_python_blocks()[index], f"README.md python block {index}", "exec")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, {"__name__": f"readme_{index}"})
