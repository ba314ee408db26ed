"""Command-line front end.

Subcommands::

    spinlight derive      --config run.cfg        channel coefficients + regime checks
    spinlight entangle    --config run.cfg        two-round entanglement generation
    spinlight teleport    --config run.cfg        entangle + local Bell + displacement
    spinlight sweep       --config run.cfg        kappa2 / eta_t trade-off table
    spinlight mb-validate --config run.cfg        grid convergence of the channel

Flags: ``--config PATH`` (required), ``--seed N``, ``--trials N``,
``--out PATH``, ``--format {json,csv}``, before or after the command.  The
last four set the config keys ``seed``, ``trials``, ``output.path`` and
``output.format`` (``_FLAGS``), and each is read as that key's value in the
file is, so a bad one is a config error naming its key.  Flags override
``SPINLIGHT_*`` environment variables, which override the file.

Exit codes: 0 success; 1 usage or configuration error; 2 regime warnings from
``derive``; 3 tolerance failure in ``mb-validate``; 4 numerical failure (an
``ArithmeticError``, such as a non-positive variance).

Every artifact embeds the fully resolved configuration and the seed, floats
are emitted with 17 significant digits, and a sampled run's outcomes come
from one generator on its seed, as :func:`~spinlight.protocols.run_trials`
draws them, so identical (config, seed) pairs give byte-identical artifacts.

Each subcommand only computes: it returns its JSON payload, its CSV table,
its summary lines and its exit code.  ``main`` renders the artifact in the
configured format, writes it to the configured path or to stdout, and prints
the summary.  ``entangle`` and ``teleport`` run all their trials in one
:func:`~spinlight.protocols.run_trials` call, and ``sweep`` hands over the
columns of :func:`~spinlight.protocols.lossy_fidelity_sweep`.  Every table
is a ``_Table`` of its columns wherever it goes (the sweep's points, the
mb-validate rows, a run's per-trial records, the CSV body): numpy arrays of
one cell per row, or values that every row shares.  Both writers are chunk
generators: they render a table a block of at most ``_BLOCK_ROWS`` rows at a
time with one row template, the JSON writer in the bytes of the list of
dicts it stands for, and every other value the JSON writer renders value by
value.

How an artifact is written: ``main`` opens it only once the payload is
computed, so a run that fails with a declared error (exit 1 or 4) never
opens it, and an existing file keeps its bytes.  The file is opened in place,
without truncation, and every chunk goes through one handle; then it is cut
to the length written.  A write that fails part way leaves a prefix of the
new artifact, with none of the old one after it.  Pipes and devices (stdout,
a FIFO, ``/dev/null``) get the same chunks and are never cut.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import stat
import sys
from typing import NamedTuple

import numpy as np

from .config import (
    ConfigError,
    _parse_scalar,
    apply_env_overrides,
    parse_config_text,
    resolve_run_config,
)
from .interaction import validate_regime
from .maxwell_bloch import Grid, extract_collective_grids
from .protocols import (
    classical_bound_check,
    fidelity_ideal,
    fidelity_lossy,
    lossy_fidelity_sweep,
    optimal_kappa2,
    run_trials,
    squeezing_parameter,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REGIME_WARNING = 2
EXIT_TOLERANCE_FAILURE = 3
EXIT_NUMERICAL = 4


def _format_scalar(value):
    """Text of one scalar: ``true``/``false``, floats to 17 digits, None (missing) empty."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


class _Table(NamedTuple):
    """A table of ``length`` rows held as its columns, one per ``str`` key of ``header``.

    A column is a 1-d numpy array of one cell per row, or one value that every
    row shares.  In JSON it is a list of one dict per row, each row rendered
    by ``template(pad, specs)`` (by default :func:`_row_template` of the
    header); in CSV the header line and one line per row.
    """

    header: tuple
    length: int
    columns: tuple
    template: object = None

    def block(self, start, stop, template, sep, cell_text):
        """Rows start:stop in ``template(specs)``, joined by ``sep``.

        ``specs`` holds one %-conversion per column.  A float column keeps its
        Python floats for ``%.17g`` and an integer column its ints for ``%d``,
        which give the writers' text; a boolean column gives ``true`` and
        ``false``, as both writers do, and any other column ``cell_text`` of
        each cell, for ``%s``.  A shared value's text is written into its
        conversion.
        """
        specs, columns = [], []
        for column in self.columns:
            if not isinstance(column, np.ndarray):
                specs.append(cell_text(column).replace("%", "%%"))
                continue
            cells = column[start:stop].tolist()
            if column.dtype.kind == "f":
                specs.append("%.17g")
            elif column.dtype.kind in "iu":
                specs.append("%d")
            else:
                specs.append("%s")
                text = _BOOL_TEXT.__getitem__ if column.dtype.kind == "b" else cell_text
                cells = list(map(text, cells))
            columns.append(cells)
        rows = [None] * (len(columns) * (stop - start))
        for number, cells in enumerate(columns):
            rows[number::len(columns)] = cells
        return sep.join([template(tuple(specs))] * (stop - start)) % tuple(rows)


# Rows that the writers render, and write, at a time.
_BLOCK_ROWS = 4096

_ENCODE_STR = json.encoder.encode_basestring_ascii

# Text of a boolean in both writers; a numpy boolean is an equal key.
_BOOL_TEXT = {False: "false", True: "true"}

# JSON text of the common leaf types, keyed by exact type (bool is not int here).
_LEAF_TEXT = {
    float: "%.17g".__mod__,
    int: str,
    str: _ENCODE_STR,
    bool: _BOOL_TEXT.__getitem__,
    np.bool_: _BOOL_TEXT.__getitem__,
    type(None): lambda value: "null",
}


@functools.lru_cache(maxsize=1024, typed=True)
def _key_text(key):
    """Encoded dict key with its separator; typed, since 1 and True are equal keys."""
    return _ENCODE_STR(str(key)) + ": "


@functools.lru_cache(maxsize=64)
def _row_template(header, pad, specs=None):
    """%-template of one JSON table row whose own line starts with ``pad``.

    Each key's value is its %-conversion in ``specs``, by default ``%s``.
    """
    row_pad = pad + "  "
    keys = [_key_text(key).replace("%", "%%") + spec
            for key, spec in zip(header, specs or ("%s",) * len(header))]
    return "{" + row_pad + ("," + row_pad).join(keys) + pad + "}"


# Tag and register position of each pulse's record, in measurement order: a
# measured pulse leaves the register, so each sits right after the samples.
_PULSES = (("entangle:round1", 2), ("entangle:round2", 2),
           ("teleport:round1", 3), ("teleport:round2", 3))


def _record_template(pad, specs):
    """%-template of one trial's record whose own line starts with ``pad``.

    ``specs`` are the %-conversions of the trial number and of each pulse's
    outcome, in round order.
    """
    item_pad = pad + "  "
    pulse_pad = item_pad + "  "
    pulses = [
        _row_template(("round_tag", "mode", "quadrature", "outcome"), pulse_pad,
                      (_ENCODE_STR(tag), str(mode), '"x"', spec))
        for (tag, mode), spec in zip(_PULSES, specs[1:])
    ]
    outcomes = "[" + pulse_pad + ("," + pulse_pad).join(pulses) + item_pad + "]"
    return _row_template(("trial", "outcomes"), pad, (specs[0], outcomes))


def _records(outcomes):
    """The per-trial records of a run's (trials, rounds) outcome array.

    In JSON each is ``{"trial": t, "outcomes": [...]}``, whose outcomes table
    has one row per measured pulse: its round tag, register position,
    quadrature and outcome.
    """
    trials, rounds = outcomes.shape
    return _Table(("trial",) + tuple(tag for tag, _ in _PULSES[:rounds]), trials,
                  (np.arange(trials), *outcomes.T), _record_template)


def _blocks(count):
    """``(start, stop)`` of each run of at most ``_BLOCK_ROWS`` of ``count`` rows."""
    return [(start, min(start + _BLOCK_ROWS, count)) for start in range(0, count, _BLOCK_ROWS)]


def _json_chunks(obj, pad):
    """The text of :func:`_json_value` in chunks.

    A table comes a block of rows at a time, and a dict one item at a time,
    so that no chunk holds more than one block.  Other values are one chunk
    each.
    """
    if isinstance(obj, _Table):
        if not obj.length:
            yield "[]"
            return
        item_pad = pad + "  "
        template = functools.partial(obj.template or functools.partial(_row_template, obj.header),
                                     item_pad)
        cell_text = functools.partial(_json_value, pad=item_pad + "  ")
        opener = "[" + item_pad
        for start, stop in _blocks(obj.length):
            yield opener + obj.block(start, stop, template, "," + item_pad, cell_text)
            opener = "," + item_pad
        yield pad + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        item_pad = pad + "  "
        opener = "{" + item_pad
        for key, value in obj.items():
            if isinstance(value, (dict, _Table)):
                yield opener + _key_text(key)
                yield from _json_chunks(value, item_pad)
            else:
                yield opener + _key_text(key) + _json_value(value, item_pad)
            opener = "," + item_pad
        yield pad + "}"
    else:
        yield _json_value(obj, pad)


def _json_text(obj, indent=0):
    """JSON text with a two-space indent, ASCII escapes and 17-digit floats."""
    return "".join(_json_chunks(obj, "\n" + "  " * indent))


def _json_value(obj, pad):
    """Text of one value whose own line starts with ``pad``; leaves inline."""
    if (leaf := _LEAF_TEXT.get(type(obj))) is not None:
        return leaf(obj)
    if isinstance(obj, (dict, _Table)):
        return "".join(_json_chunks(obj, pad))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        item_pad = pad + "  "
        text = ("," + item_pad).join([_json_value(value, item_pad) for value in obj])
        return "[" + item_pad + text + pad + "]"
    # Other numpy scalars, subclasses and anything else (bool has no subclasses).
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_scalar(obj)
    return _ENCODE_STR(str(obj))


def _csv_chunks(echo, table):
    """``#``-prefixed config echo and the table's header, then its rows a block per chunk."""
    lines = [f"# {key} = {_format_scalar(value)}\n" for key, value in echo.items()]
    lines.append(",".join(table.header) + "\n")
    yield "".join(lines)

    def template(specs):
        return ",".join(specs) + "\n"

    for start, stop in _blocks(table.length):
        yield table.block(start, stop, template, "", _format_scalar)


def _csv_text(echo, table):
    """The CSV artifact of ``table`` under the config ``echo``, as one string."""
    return "".join(_csv_chunks(echo, table))


def _write_artifact(path, chunks):
    """Write the text ``chunks`` to ``path``, or to stdout if ``path`` is empty.

    The file is opened in place, without truncation (mode 0o666 less the
    umask if it is created, a symlink followed), and every chunk goes through
    one handle.  Then a regular file is cut to the bytes written, or, if a
    write raised, to the bytes that reached it: a prefix of the new artifact.
    A pipe or device is never cut.  Truncating an existing file to zero
    before the write would make ext4 (``auto_da_alloc``) start writeback at
    close, which took longer than rendering an mb-validate artifact.
    """
    if not path:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline="\n") as handle:
        try:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, csv_table, summary_lines, exit_code)


def _kappa_identity(physical, channel):
    """2 sqrt(eps_p eps_a) Delta / sqrt(gamma gamma'), which equals kappa; None at a zero rate.

    Where a product leaves the normal floats (gamma = gamma' = 1e-200
    underflows to 0), the square roots are taken factor by factor.
    """
    gamma, gamma_prime = physical.gamma, physical.gamma_prime
    if not (gamma > 0 and gamma_prime > 0):
        return None
    eps, rates = channel.eps_p * channel.eps_a, gamma * gamma_prime
    if all(sys.float_info.min <= product <= sys.float_info.max for product in (eps, rates)):
        return 2.0 * math.sqrt(eps) * physical.Delta / math.sqrt(rates)
    return (2.0 * math.sqrt(channel.eps_p) * math.sqrt(channel.eps_a) * physical.Delta
            / (math.sqrt(gamma) * math.sqrt(gamma_prime)))


def _cmd_derive(cfg):
    if cfg.physical is None:
        raise ConfigError("physical", "derive needs the physical.* section")
    channel = cfg.channel
    report = validate_regime(cfg.physical, channel)
    payload = {
        "command": "derive",
        "kappa": channel.kappa,
        "eps_p": channel.eps_p,
        "eps_a": channel.eps_a,
        "kappa_identity": _kappa_identity(cfg.physical, channel),
        **dataclasses.asdict(report),
        "regime_pass": report.all_pass,
        "config": cfg.echo,
    }
    header = tuple(k for k in payload if k not in ("command", "config"))
    # Inputs near the float range can overflow a reported figure (the Fresnel
    # number A / (lambda0 L) at physical.area = 1.7e308).
    for name in header:
        if isinstance(payload[name], float) and not math.isfinite(payload[name]):
            raise ArithmeticError(f"{name} = {payload[name]!r} is not finite")
    summary = [f"{name} = {_format_scalar(payload[name])}"
               for name in ("kappa", "eps_p", "eps_a", "fresnel")]
    summary.append("regime: " + ("PASS" if report.all_pass else "WARN"))
    code = EXIT_OK if report.all_pass else EXIT_REGIME_WARNING
    return payload, _Table(header, 1, tuple(payload[k] for k in header)), summary, code


def _cmd_entangle(cfg):
    outcomes, report, _ = run_trials(cfg.plans, np.random.default_rng(cfg.seed), cfg.trials)
    payload = {
        "command": "entangle",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "epr_x": report.epr_x,
        "epr_p": report.epr_p,
        "r": report.r,
        "r_closed_form": squeezing_parameter(cfg.plans["entangle2"].kappa),
        "records": _records(outcomes),
        "config": cfg.echo,
    }
    if cfg.trials > 1:
        payload["monte_carlo"] = {
            "round1_mean": float(outcomes[:, 0].mean()),
            "round1_var": float(outcomes[:, 0].var(ddof=1)),
            "round2_mean": float(outcomes[:, 1].mean()),
            "round2_var": float(outcomes[:, 1].var(ddof=1)),
        }
    table = _Table(
        ("trial", "outcome_round1", "outcome_round2", "epr_x", "epr_p", "r"),
        cfg.trials,
        (np.arange(cfg.trials), *outcomes.T, report.epr_x, report.epr_p, report.r),
    )
    summary = [f"{name} = {_format_scalar(getattr(report, name))}"
               for name in ("epr_x", "epr_p", "r")]
    return payload, table, summary, EXIT_OK


def _cmd_teleport(cfg):
    kappa2 = cfg.plans["entangle2"].kappa
    outcomes, report, fidelities = run_trials(
        cfg.plans, np.random.default_rng(cfg.seed), cfg.trials, cfg.input_mean, cfg.gain
    )
    fidelity = float(fidelities[0])
    payload = {
        "command": "teleport",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "fidelity_simulated": fidelity,
        "fidelity_ideal_closed_form": fidelity_ideal(kappa2) if kappa2 > 0 else None,
        "fidelity_lossy_closed_form": fidelity_lossy(kappa2, cfg.eta_t)
        if kappa2 > 0
        else None,
        "classical_bound_exceeded": classical_bound_check(fidelity),
        "epr_x": report.epr_x,
        "epr_p": report.epr_p,
        "r": report.r,
        "input_mean": list(cfg.input_mean),
        "records": _records(outcomes),
        "config": cfg.echo,
    }
    table = _Table(
        ("trial", "fidelity_simulated", "fidelity_ideal_closed_form",
         "fidelity_lossy_closed_form", "classical_bound_exceeded"),
        cfg.trials,
        (np.arange(cfg.trials), fidelities,
         payload["fidelity_ideal_closed_form"], payload["fidelity_lossy_closed_form"],
         classical_bound_check(fidelities)),
    )
    summary = [f"fidelity = {_format_scalar(fidelity)}",
               f"classical bound exceeded: {_format_scalar(payload['classical_bound_exceeded'])}"]
    return payload, table, summary, EXIT_OK


def _cmd_sweep(cfg):
    if cfg.sweep is None:
        raise ConfigError("sweep.min", "sweep needs a sweep.* section")
    kappa2, f_simulated, f_closed_form, best = lossy_fidelity_sweep(
        cfg.sweep.values(),
        cfg.eta_t,
        kappa1_multiplier=cfg.kappa1_multiplier,
        eps_p=cfg.channel.eps_p,
        eps_a=cfg.channel.eps_a,
        eta_d=cfg.eta_d,
        eta_t_local=cfg.eta_t_local,
    )
    is_argmax = np.zeros(len(kappa2), bool)
    is_argmax[best] = True
    table = _Table(("kappa2", "eta_t", "f_simulated", "f_closed_form", "is_argmax"),
                   len(kappa2), (kappa2, cfg.eta_t, f_simulated, f_closed_form, is_argmax))
    payload = {
        "command": "sweep",
        "seed": cfg.seed,
        "eta_t": cfg.eta_t,
        "kappa2_optimal_closed_form": optimal_kappa2(cfg.eta_t) if cfg.eta_t > 0 else None,
        "points": table,
        "config": cfg.echo,
    }
    summary = [f"argmax kappa2 = {_format_scalar(kappa2[best])} "
               f"(f = {_format_scalar(f_simulated[best])})"]
    return payload, table, summary, EXIT_OK


def _cmd_mb_validate(cfg):
    if cfg.physical is None:
        raise ConfigError("physical", "mb-validate needs the physical.* section")
    channel = cfg.channel
    sizes = cfg.mb.grids()
    grids = [Grid(n_z=n, n_tau=n) for n in sizes]
    fields = ("kappa_eff", "eps_p_eff", "eps_a_eff",
              "signal_leak", "noise_var_light_x", "noise_var_atom_x")
    values = np.array([[getattr(extraction, name) for name in fields]
                       for extraction in extract_collective_grids(channel, grids)])
    column = {"grid": np.array(sizes), **dict(zip(fields, values.T))}
    # A coefficient that is 0 (kappa underflows at physical.rho = 1e-310) has
    # no relative deviation; its row reports the effective value instead.
    for name in ("kappa", "eps_p", "eps_a"):
        eff, analytic = column[name + "_eff"], getattr(channel, name)
        column["dev_" + name] = np.abs(eff - analytic) / analytic if analytic > 0 else eff
    header = ("grid", "kappa_eff", "eps_p_eff", "eps_a_eff",
              "dev_kappa", "dev_eps_p", "dev_eps_a",
              "signal_leak", "noise_var_light_x", "noise_var_atom_x")
    table = _Table(header, len(sizes), tuple(column[name] for name in header))
    final = {name: cells[-1] for name, cells in column.items()}
    within = bool(
        final["dev_kappa"] <= cfg.mb.tol_kappa
        and final["dev_eps_p"] <= cfg.mb.tol_eps
        and final["dev_eps_a"] <= cfg.mb.tol_eps
    )
    payload = {
        "command": "mb-validate",
        "seed": cfg.seed,
        "kappa_analytic": channel.kappa,
        "eps_p_analytic": channel.eps_p,
        "eps_a_analytic": channel.eps_a,
        "rows": table,
        "within_tolerance": within,
        "config": cfg.echo,
    }
    summary = [
        f"final grid {final['grid']}x{final['grid']}: "
        f"dev_kappa = {_format_scalar(final['dev_kappa'])}, "
        f"dev_eps_p = {_format_scalar(final['dev_eps_p'])}, "
        f"dev_eps_a = {_format_scalar(final['dev_eps_a'])}",
        "tolerance: " + ("PASS" if within else "FAIL"),
    ]
    return payload, table, summary, EXIT_OK if within else EXIT_TOLERANCE_FAILURE


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


_COMMANDS = {
    "derive": _cmd_derive,
    "entangle": _cmd_entangle,
    "teleport": _cmd_teleport,
    "sweep": _cmd_sweep,
    "mb-validate": _cmd_mb_validate,
}


# The config key that each flag sets.
_FLAGS = {"seed": "seed", "trials": "trials", "out": "output.path", "format": "output.format"}


@functools.cache
def _build_parser():
    """The argument parser, built on the first call rather than at import.

    Parsing keeps no state in the parser, so every call shares one.
    """
    parser = _Parser(prog="spinlight", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the run config file")
    for flag, key in _FLAGS.items():
        parser.add_argument(f"--{flag}", help=f"sets the config key {key}")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    try:
        with open(args.config) as handle:
            mapping = parse_config_text(handle.read())
        mapping = apply_env_overrides(mapping, os.environ)
        for flag, key in _FLAGS.items():
            if (value := getattr(args, flag)) is not None:
                mapping[key] = _parse_scalar(key, value)
        cfg = resolve_run_config(mapping)
        payload, table, summary, code = _COMMANDS[args.command](cfg)
        if cfg.out_format == "csv":
            chunks = _csv_chunks(cfg.echo, table)
        else:
            chunks = itertools.chain(_json_chunks(payload, "\n"), ["\n"])
        _write_artifact(cfg.out_path, chunks)
        for line in summary:
            print(line)
        return code
    except (ConfigError, OSError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
