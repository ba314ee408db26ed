"""CLI artifacts on fixed (config, seed) runs against the committed goldens.

The JSON goldens in ``tests/golden/`` were captured with ``capture.py``
before the protocols moved to deferred measurement and before
``mb-validate`` moved to the adjoint Maxwell-Bloch extraction, the CSV
goldens later, before the CLI moved to one renderer.  Each artifact is held
to them by ``capture.match``: ``derive`` touches neither change and must stay
byte-identical; ``entangle``, ``teleport``, ``sweep`` and ``mb-validate`` sum
in a different order than at capture and may move in the last digits, with
every key, string, boolean and integer (so every ``is_argmax`` row and every
grid size) exact and floats within 1e-11 relative.

The sampled entangle and teleport goldens (all but the outcome-free
``teleport-reference.csv`` and ``teleport-lossy.csv``) were recaptured when a
run's trials moved to one outcome stream on its seed; their trial 0 kept its
bytes.  ``mb-validate-reference`` (JSON and CSV) was recaptured when
``eps_*_eff`` moved from 1 - b^2 to the exact -expm1(2 n h): its ``dev_eps_*``
cells, |eps_eff - eps| / eps, had carried that rounding about 300 times
enlarged, 2e-11 to 5e-11 off the 50-digit value.

The ``local`` goldens (``teleport-local`` and ``sweep-local``, JSON and CSV),
the only cases with their own local transmission loss and local round
strength, were captured while the teleport stage's Bell push still carried
sample 2; they stayed byte-identical when it stopped.
"""

import json
import math
from pathlib import Path

import pytest

from conftest import reference_json_text
from golden.capture import CASES, FORMATS, exit_code_key, match, run_case

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_matches_golden(name, tmp_path):
    code, data = run_case(name, tmp_path)
    assert code == EXIT_CODES[name]
    golden = GOLDEN / f"{name}.json"
    if code != 0:
        assert not golden.exists()
        return
    match(name, "json", data, golden.read_bytes())


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_text_matches_reference_writer(name, tmp_path):
    # The value comparison above would pass a layout slip; this pins the
    # text.  Every float is written with 17 digits, so parsing it back and
    # writing it again gives the same bytes.
    code, data = run_case(name, tmp_path)
    if code != 0:
        return
    assert data.decode() == reference_json_text(json.loads(data)) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_artifact_matches_golden(name, tmp_path):
    code, data = run_case(name, tmp_path, "csv")
    assert code == EXIT_CODES[exit_code_key(name, "csv")]
    golden = GOLDEN / f"{name}.csv"
    if code != 0:
        assert not golden.exists()
        return
    match(name, "csv", data, golden.read_bytes())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_bytes_do_not_depend_on_the_block_size(name, fmt, tmp_path, monkeypatch):
    # No golden table is longer than the writers' default block; at 7 rows a
    # block every table longer than that crosses a seam, with the same bytes.
    from spinlight import cli

    whole = run_case(name, tmp_path, fmt)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    assert run_case(name, tmp_path, fmt) == whole


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


def test_capture_compare_classifies_each_file(tmp_path, capsys):
    from golden import capture

    first, second = tmp_path / "a", tmp_path / "b"
    for tree in (first, second):
        tree.mkdir()
        for name in ("derive-reference.json", "sweep-lossy.json"):
            (tree / name).write_bytes((GOLDEN / name).read_bytes())
    text = (GOLDEN / "sweep-lossy.json").read_text()
    value = json.loads(text)["points"][0]["f_simulated"]
    moved = math.nextafter(value, 1.0)
    (second / "sweep-lossy.json").write_text(
        text.replace(format(value, ".17g"), format(moved, ".17g"), 1))
    # 803 floats: four in each of the 200 points, bar the last kappa2, which
    # the file writes as the integer 10, and four outside them.
    close = ("sweep-lossy.json: close: 1 of 803 floats moved, "
             f"largest relative change {(moved - value) / moved:.2g}")
    assert capture.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "derive-reference.json: identical", close,
    ]

    (second / "derive-reference.json").write_text("{}\n")
    (first / "exit_codes.json").write_text("{}\n")
    (second / "sweep-lossy.json").write_text(
        text.replace('"is_argmax": false', '"is_argmax": true', 1))
    assert capture.main(["--compare", str(first), str(second)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "derive-reference.json: different: bytes differ",
        f"exit_codes.json: different: missing from {second}",
        "sweep-lossy.json: different: $.points[0].is_argmax: True != False",
    ]


def test_capture_compare_reads_exit_codes_as_a_mapping(tmp_path, capsys):
    from golden import capture

    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    (first / "exit_codes.json").write_text(json.dumps(EXIT_CODES, indent=2) + "\n")
    reordered = dict(reversed(list(EXIT_CODES.items())))
    (second / "exit_codes.json").write_text(json.dumps(reordered, indent=2) + "\n")
    assert capture.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == "exit_codes.json: identical\n"

    reordered["sweep-lossy.csv"] = 4
    (second / "exit_codes.json").write_text(json.dumps(reordered, indent=2) + "\n")
    assert capture.main(["--compare", str(first), str(second)]) == 1
    assert capsys.readouterr().out == "exit_codes.json: different: sweep-lossy.csv: 4 != 0\n"
