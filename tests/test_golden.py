"""CLI artifacts on fixed (config, seed) runs against the committed goldens.

The goldens in ``tests/golden/`` were captured with ``capture.py`` before the
protocols moved to deferred measurement and before ``mb-validate`` moved to
the adjoint Maxwell-Bloch extraction.  ``derive`` touches neither and must
stay byte-identical.  ``entangle``, ``teleport``, ``sweep`` and
``mb-validate`` sum in a different order than at capture and may move in the
last digits: keys, strings, booleans and integers (so every ``is_argmax`` row
and every grid size) must match exactly, floats within 1e-11 relative.
"""

import json
import math
from pathlib import Path

import pytest

from golden.capture import CASES, run_case

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
BYTE_IDENTICAL = ("derive",)
REL_TOL = 1e-11


def _assert_close(got, want, path="$"):
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys differ"
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{path}: {got!r} != {want!r}"
        )
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name, tmp_path):
    code, data = run_case(name, tmp_path)
    assert code == EXIT_CODES[name]
    golden = GOLDEN / f"{name}.json"
    if code != 0:
        assert not golden.exists()
        return
    want = golden.read_bytes()
    if CASES[name][1][0] in BYTE_IDENTICAL:
        assert data == want
    else:
        _assert_close(json.loads(data), json.loads(want))
