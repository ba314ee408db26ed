"""The package's public surface: its exports and the README's examples."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import pytest

import spinlight
from spinlight import gaussian, interaction, maxwell_bloch, protocols

README = Path(__file__).resolve().parent.parent / "README.md"
LAYERS = (gaussian, interaction, maxwell_bloch, protocols)


def _routines(namespace, names):
    """The ``names`` that ``namespace`` binds to a function or a class."""
    return {name for name in names
            if inspect.isfunction(value := getattr(namespace, name)) or inspect.isclass(value)}


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_package_exports_each_layer_all(module):
    for name in module.__all__:
        assert getattr(spinlight, name) is getattr(module, name), name
    # No function or class reaches the package but through a layer's __all__.
    assert _routines(spinlight, dir(spinlight)) == {
        name for layer in LAYERS for name in _routines(layer, layer.__all__)}


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def test_readme_has_python_blocks():
    assert len(_python_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_python_block_runs(index):
    code = compile(_python_blocks()[index], f"README.md python block {index}", "exec")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, {"__name__": f"readme_{index}"})
