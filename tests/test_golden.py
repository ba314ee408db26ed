"""CLI artifacts on fixed (config, seed) runs against the committed goldens.

The goldens in ``tests/golden/`` were captured with ``capture.py`` before the
protocols moved to deferred measurement and before ``mb-validate`` moved to
the adjoint Maxwell-Bloch extraction.  ``derive`` touches neither and must
stay byte-identical.  ``entangle``, ``teleport``, ``sweep`` and
``mb-validate`` sum in a different order than at capture and may move in the
last digits: keys, strings, booleans and integers (so every ``is_argmax`` row
and every grid size) must match exactly, floats within 1e-11 relative.

The CSV goldens were captured later, before the CLI moved to one renderer,
and follow the same classes: ``derive`` byte-identical; elsewhere the ``#``
echo lines and the header exactly, integer and non-numeric cells exactly and
the other numeric cells within 1e-11 relative.

The sampled entangle and teleport goldens (all but the outcome-free
``teleport-reference.csv`` and ``teleport-lossy.csv``) were recaptured when a
run's trials moved to one outcome stream on its seed; their trial 0 kept its
bytes.  ``mb-validate-reference`` (JSON and CSV) was recaptured when
``eps_*_eff`` moved from 1 - b^2 to the exact -expm1(2 n h): its ``dev_eps_*``
cells, |eps_eff - eps| / eps, had carried that rounding about 300 times
enlarged, 2e-11 to 5e-11 off the 50-digit value.
"""

import json
import math
from pathlib import Path

import pytest

from conftest import reference_json_text
from golden.capture import CASES, exit_code_key, run_case

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_text_matches_reference_writer(name, tmp_path):
    # The value comparison above would pass a layout slip; this pins the
    # text.  Every float is written with 17 digits, so parsing it back and
    # writing it again gives the same bytes.
    code, data = run_case(name, tmp_path)
    if code != 0:
        return
    assert data.decode() == reference_json_text(json.loads(data)) + "\n"


def _assert_csv_cell_close(got, want, where):
    try:
        want_value = float(want)
    except ValueError:
        want_value = None
    if want_value is None or want.lstrip("-").isdigit():
        assert got == want, f"{where}: {got!r} != {want!r}"
    else:
        assert math.isclose(float(got), want_value, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{where}: {got!r} != {want!r}"
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_artifact_matches_golden(name, tmp_path):
    code, data = run_case(name, tmp_path, "csv")
    assert code == EXIT_CODES[exit_code_key(name, "csv")]
    golden = GOLDEN / f"{name}.csv"
    if code != 0:
        assert not golden.exists()
        return
    want = golden.read_bytes()
    if CASES[name][1][0] in BYTE_IDENTICAL:
        assert data == want
        return
    got_lines, want_lines = data.decode().split("\n"), want.decode().split("\n")
    assert len(got_lines) == len(want_lines)
    echo = sum(line.startswith("#") for line in want_lines)
    # The echo lines and the header line.
    assert got_lines[:echo + 1] == want_lines[:echo + 1]
    for number, (got, want) in enumerate(zip(got_lines, want_lines)):
        if number <= echo:
            continue
        got_cells, want_cells = got.split(","), want.split(",")
        assert len(got_cells) == len(want_cells), f"line {number + 1}: cell counts differ"
        for column, (g, w) in enumerate(zip(got_cells, want_cells)):
            _assert_csv_cell_close(g, w, f"line {number + 1}, column {column + 1}")


def test_capture_format_filter_rewrites_only_that_format(tmp_path, monkeypatch):
    from golden import capture

    codes = {"derive-reference": 5, "derive-reference.csv": 9, "kept": 7}
    (tmp_path / "exit_codes.json").write_text(json.dumps(codes))
    (tmp_path / "derive-reference.json").write_bytes(b"untouched")
    monkeypatch.setattr(capture, "HERE", tmp_path)
    capture.main(["--format", "csv", "derive-reference"])
    assert (tmp_path / "derive-reference.json").read_bytes() == b"untouched"
    assert (tmp_path / "derive-reference.csv").read_bytes() == (
        GOLDEN / "derive-reference.csv").read_bytes()
    assert json.loads((tmp_path / "exit_codes.json").read_text()) == dict(
        codes, **{"derive-reference.csv": 0})

    # A format alone recaptures every case in it and keeps the other's codes.
    capture.main(["--format", "json"])
    written = {path.name for path in tmp_path.iterdir()}
    assert written == {"exit_codes.json", "derive-reference.csv"} | {
        f"{name}.json" for name in CASES if EXIT_CODES[name] == 0}
    assert json.loads((tmp_path / "exit_codes.json").read_text()) == dict(
        codes, **{"derive-reference.csv": 0}, **{name: EXIT_CODES[name] for name in CASES})


def test_capture_unknown_format_exits_nonzero_naming_it(tmp_path, monkeypatch, capsys):
    from golden import capture

    monkeypatch.setattr(capture, "HERE", tmp_path)
    with pytest.raises(SystemExit) as stopped:
        capture.main(["--format", "xml", "derive-reference"])
    assert stopped.value.code != 0
    assert "'xml'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_capture_into_writes_to_that_directory_only(tmp_path, monkeypatch):
    from golden import capture

    home, into = tmp_path / "home", tmp_path / "new" / "into"
    home.mkdir()
    monkeypatch.setattr(capture, "HERE", home)
    capture.main(["--into", str(into), "--format", "csv", "derive-reference"])
    assert list(home.iterdir()) == []
    assert {path.name for path in into.iterdir()} == {"exit_codes.json", "derive-reference.csv"}
    assert (into / "derive-reference.csv").read_bytes() == (
        GOLDEN / "derive-reference.csv").read_bytes()
    assert json.loads((into / "exit_codes.json").read_text()) == {"derive-reference.csv": 0}
