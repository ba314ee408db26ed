"""CLI artifacts on fixed (config, seed) runs against the committed goldens.

``capture.py`` writes the goldens in ``tests/golden/``, one JSON and one CSV
artifact per case and the exit code of every run in ``exit_codes.json``.
Every artifact is held to its golden byte for byte, and each exit code to
its entry; a change that moves a float's last bit recaptures the goldens it
moves and names them.  The float rules of ``capture.match`` serve only
``capture.py --compare``'s report of how far a change moved them.

The goldens were last recaptured whole with the package as it stood after
the engine's one summation order, on which 17 of the 22 artifacts had moved
since their capture by at most 3e-12 relative (``sweep-corner``); ``derive``
and ``mb-validate`` (JSON and CSV) and ``teleport-local.csv`` kept their
bytes, and every exit code its value.  No artifact float passes through a
BLAS product.  The golden artifacts come out with the same bytes whichever
SIMD kernels numpy dispatches to: the cross-kernel test below captures them
twice, once with numpy's dispatched CPU features off and OpenBLAS on its
oldest x86-64 kernels.  That holds for these cases only: ``_overlap``'s
``np.exp`` (manual-gain ``teleport`` past 64 trials) and ``_segmented_sums``'
``np.expm1`` (``mb-validate`` at other ladders) move a last bit with the
dispatch elsewhere; README names both reproducers.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import reference_json_text
from golden.capture import CASES, FORMATS, case_argv, exit_code_key, run_case

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
    assert data == golden.read_bytes()


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
    assert data == golden.read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_bytes_do_not_depend_on_the_block_size(name, fmt, tmp_path, monkeypatch):
    # No golden table is longer than the writers' default block; at 7 rows a
    # block every table longer than that crosses a seam, with the same bytes.
    from spinlight import cli

    whole = run_case(name, tmp_path, fmt)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    assert run_case(name, tmp_path, fmt) == whole


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_an_artifact_on_stdout_is_all_that_stdout_gets(name, fmt, tmp_path, capsys):
    # Without --out the artifact takes stdout, and the summary that a run
    # with --out prints to stdout goes to stderr.
    from spinlight.cli import main

    code, _ = run_case(name, tmp_path, fmt)
    to_file = capsys.readouterr()
    assert main(case_argv(name, tmp_path, fmt)) == code == EXIT_CODES[exit_code_key(name, fmt)]
    stdout, stderr = capsys.readouterr()
    golden = GOLDEN / f"{name}.{fmt}"
    assert stdout.encode() == (golden.read_bytes() if code == 0 else b"")
    assert stderr == to_file.out + to_file.err
    assert (to_file.out == "") == (code not in (0, 2, 3))


# Prints numpy's dispatched CPU feature groups that are on in the process.
_ENABLED_GROUPS = """
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
print(" ".join(sorted(g for g in umath.__cpu_dispatch__ if umath.__cpu_features__[g])))
"""


def _child(argv, env):
    """Run ``python argv`` under ``env``; returns its stdout."""
    return subprocess.run([sys.executable, *argv], env=env, check=True,
                          capture_output=True, text=True).stdout


def _capture(into, env):
    """``capture.py --into`` in a child process under ``env``; returns the files it wrote."""
    _child([str(GOLDEN / "capture.py"), "--into", str(into)], env)
    return {path.name: path.read_bytes() for path in into.iterdir()}


def test_artifacts_do_not_depend_on_the_cpu_kernels(tmp_path):
    # The same capture twice: with numpy's SIMD dispatch and OpenBLAS's kernel
    # as this CPU picks them, and with every dispatched feature group off and
    # OpenBLAS on Prescott.  A BLAS product or a dispatched ufunc whose last
    # bit differs between kernels would change an artifact.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {name: value for name, value in os.environ.items()
           if name not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    groups = _child(["-c", _ENABLED_GROUPS], env).strip()
    old = dict(env, OPENBLAS_CORETYPE="Prescott", NPY_DISABLE_CPU_FEATURES=groups)
    assert _child(["-c", _ENABLED_GROUPS], old) == "\n"
    default = _capture(tmp_path / "default", env)
    assert len(default) == 2 * len(CASES) - sum(code != 0 for code in EXIT_CODES.values()) + 1
    assert _capture(tmp_path / "old", old) == default


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
