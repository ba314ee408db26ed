"""The traced benchmark's function names against the package.

``bench/spans.py`` wraps each public function a layer module defines: a name
in its ``__all__`` bound to a function whose ``__module__`` is that module.
``bench/worker.py`` reads the span of every name in ``TIMED_FUNCTIONS`` and of
``cli.main``, so a renamed or moved function would stop a traced run with a
``KeyError``, and a span note that reads a field a result no longer has
would stop it too.  These tests read ``bench/`` and change nothing in it.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        patch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_timed_names_are_public_layer_functions(worker):
    for label in [*worker.TIMED_FUNCTIONS, "cli.main"]:
        layer, name = label.split(".")
        module = worker.LAYERS[layer]
        assert name in module.__all__, f"{label} is not in {module.__name__}.__all__"
        function = getattr(module, name)
        assert inspect.isfunction(function), f"{label} is not a function"
        assert function.__module__ == module.__name__, f"{label} is defined elsewhere"


def test_the_dense_build_note_reads_a_real_transfer_map(worker, reference_params):
    from spinlight import Grid, build_transfer

    grid = Grid(n_z=3, n_tau=2)
    tm = build_transfer(reference_params, grid)
    note = worker.SPAN_NOTES["maxwell_bloch.build_transfer"]
    # 6 cells; a 10 x 10 signal block and 10 x 24 noise columns of 8 bytes.
    assert note((reference_params, grid), {}, tm) == (6, 2720, 10)


@pytest.mark.xfail(strict=True, raises=AttributeError, reason=(
    "the note reads ProtocolReport.records, which reports now carry as .outcomes; "
    "mended with ROADMAP item 7's bench trace, which then removes this marker"))
def test_the_teleport_note_reads_a_real_teleport_result(worker):
    from spinlight import entangle, make_plans, teleport

    plans = make_plans(1.5, 0.2)
    pair, _ = entangle(plans["entangle1"], plans["entangle2"], forced_outcomes=(0.0, 0.0))
    args = (pair, (0.0, 0.0), plans["local1"], plans["local2"])
    result = teleport(*args, forced_outcomes=(0.0, 0.0))
    note = worker.SPAN_NOTES["protocols.teleport"]
    # The local Bell measurement's two outcomes reach the report.
    assert note(args, {"forced_outcomes": (0.0, 0.0)}, result) == 2
