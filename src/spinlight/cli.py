"""Command-line front end.

Subcommands::

    spinlight derive      --config run.cfg        channel coefficients + regime checks
    spinlight entangle    --config run.cfg        two-round entanglement generation
    spinlight teleport    --config run.cfg        entangle + local Bell + displacement
    spinlight sweep       --config run.cfg        kappa2 / eta_t trade-off table
    spinlight mb-validate --config run.cfg        grid convergence of the channel

Flags: ``--config PATH`` (required), ``--seed N``, ``--trials N``,
``--out PATH``, ``--format {json,csv}``, before or after the command, as
``--flag VALUE`` or ``--flag=VALUE``; the last of a repeated flag wins.  A
flag is spelled in full (``--conf`` is an unknown flag), and ``--flag VALUE``
takes a next argument that starts with ``-`` only if it is a negative
number or ``-`` itself, so ``--seed -1`` reaches the config layer.
``-h``/``--help`` prints the help to stdout and exits 0; any other malformed
line prints the usage line and one ``error: ...`` line to stderr and exits 1
(``_read_argv``).  The last four flags set the config keys ``seed``,
``trials``, ``output.path`` and ``output.format`` (``_FLAGS``), and each is
read as that key's value in the file is, so a bad one is a config error
naming its key.  Flags override ``SPINLIGHT_*`` environment variables, which
override the file.  The config file is read as UTF-8; a byte that is not
UTF-8 is a config error.

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
the summary: to stdout after a file, to stderr after an artifact on stdout,
so that stdout holds the artifact alone.  ``entangle`` and ``teleport`` run
all their trials in one :func:`~spinlight.protocols.run_trials` call, and
``sweep`` hands over the columns of
:func:`~spinlight.protocols.lossy_fidelity_sweep`.  Every table is a
``_Table`` of its columns wherever it goes (the sweep's points, the
mb-validate rows, a run's per-trial records, the CSV body): numpy arrays of
one cell per row, or values that every row shares.  Both writers are chunk
generators, and both take a table's rows from ``_Table.blocks``, at most
``_BLOCK_ROWS`` rows at a time in one row template; in JSON a table has the
bytes of the list of dicts it stands for.  ``_json_chunks`` renders a dict or
list an item at a time and a leaf as one chunk, so no chunk holds more than
one block wherever a table is nested.

The writers take exactly what the commands make, and raise ``TypeError`` on
anything else: ``bool``, ``int``, ``float``, ``str`` and ``None`` leaves,
``dict``s with ``str`` keys, ``list``s and ``_Table``s.  A leaf's text is one
lookup by exact type (``_leaf_text``): in ``_LEAF_TEXT`` for JSON, in
``_CSV_TEXT`` for CSV and the summaries.

How an artifact is written: ``main`` opens it only once the payload is
computed, so a run that fails with a declared error (exit 1 or 4) never
opens it, and an existing file keeps its bytes.  The file is opened in place,
without truncation, and every chunk goes through one binary handle, encoded;
then it is cut to the length written.  A write that fails part way leaves a
prefix of the new artifact, with none of the old one after it.  Pipes and
devices (stdout, a FIFO, ``/dev/null``) get the same chunks and are never
cut.
"""

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


class _Table(NamedTuple):
    """A table of ``length`` rows held as its columns, one per ``str`` key of ``header``.

    A column is a 1-d float64, int64 or bool array of one cell per row, or
    one leaf that every row shares; any other column makes the writers raise
    ``TypeError``.  In JSON it is a list of one dict per row, each row rendered
    by ``template(pad, specs)`` (by default :func:`_row_template` of the
    header); in CSV the header line and one line per row.  Both writers take
    the rows from :meth:`blocks`.
    """

    header: tuple
    length: int
    columns: tuple
    template: object = None

    def blocks(self, template, sep, texts):
        """The rows in ``template(specs)``, joined by ``sep``, ``_BLOCK_ROWS`` at a time.

        ``specs`` holds one %-conversion per column, by the column's dtype
        kind (``_KIND_SPECS``): a float column keeps its Python floats for
        ``%.17g`` and an integer column its ints for ``%d``, which give the
        writers' text, and a boolean column gives ``true`` and ``false`` for
        ``%s``.  A shared leaf's text by ``texts`` (:func:`_leaf_text`) is
        written into its conversion.  Any other column raises ``TypeError``.
        """
        for start in range(0, self.length, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, self.length)
            specs, columns = [], []
            for column in self.columns:
                if not isinstance(column, np.ndarray):
                    specs.append(_leaf_text(texts, column).replace("%", "%%"))
                    continue
                if (spec := _KIND_SPECS.get(column.dtype.kind)) is None:
                    raise TypeError(f"the artifact writers take no {column.dtype} column")
                cells = column[start:stop].tolist()
                if column.dtype.kind == "b":
                    cells = list(map(_BOOL_TEXT.__getitem__, cells))
                specs.append(spec)
                columns.append(cells)
            rows = [None] * (len(columns) * (stop - start))
            for number, cells in enumerate(columns):
                rows[number::len(columns)] = cells
            yield sep.join([template(tuple(specs))] * (stop - start)) % tuple(rows)


# Rows that the writers render, and write, at a time.
_BLOCK_ROWS = 4096

_ENCODE_STR = json.encoder.encode_basestring_ascii

# Text of a boolean in both writers.
_BOOL_TEXT = {False: "false", True: "true"}

# %-conversion of a table column by its dtype kind: float, integer, boolean.
_KIND_SPECS = {"f": "%.17g", "i": "%d", "b": "%s"}

# JSON text of each leaf type, keyed by exact type (bool is not int here).
_LEAF_TEXT = {
    float: "%.17g".__mod__,
    int: str,
    str: _ENCODE_STR,
    bool: _BOOL_TEXT.__getitem__,
    type(None): lambda value: "null",
}

# CSV and summary text of each leaf type: a string as it is, a missing value empty.
_CSV_TEXT = {**_LEAF_TEXT, str: str, type(None): lambda value: ""}


def _leaf_text(texts, value):
    """Text of the leaf ``value`` by ``texts``; ``TypeError`` naming any type not in it."""
    if (text := texts.get(type(value))) is None:
        raise TypeError(f"the artifact writers take no {type(value).__name__}")
    return text(value)


# Text of one CSV cell or summary figure: floats to 17 digits, None (missing) empty.
_format_scalar = functools.partial(_leaf_text, _CSV_TEXT)


def _key_text(key):
    """Encoded dict key with its separator."""
    return _ENCODE_STR(key) + ": "


@functools.lru_cache(maxsize=64)
def _row_template(header, pad, specs):
    """%-template of one JSON table row whose own line starts with ``pad``.

    Each key's value is its %-conversion in ``specs``.
    """
    row_pad = pad + "  "
    keys = [_key_text(key).replace("%", "%%") + spec for key, spec in zip(header, specs)]
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


def _json_chunks(obj, pad):
    """JSON text of ``obj``, whose own line starts with ``pad``, in chunks.

    A table comes a block of rows at a time, and a dict or list an item at a
    time, each item's opener and key glued to the first chunk of its value,
    so that no chunk holds more than one block.  A leaf is one chunk, and
    any other value raises ``TypeError``.
    """
    item_pad = pad + "  "
    if isinstance(obj, _Table):
        template = functools.partial(obj.template or functools.partial(_row_template, obj.header),
                                     item_pad)
        opener = "[" + item_pad
        for block in obj.blocks(template, "," + item_pad, _LEAF_TEXT):
            yield opener + block
            opener = "," + item_pad
        yield pad + "]" if obj.length else "[]"
    elif isinstance(obj, (dict, list)):
        keyed = isinstance(obj, dict)
        brackets = "{}" if keyed else "[]"
        keys = map(_key_text, obj) if keyed else itertools.repeat("")
        opener = brackets[0] + item_pad
        for key, value in zip(keys, obj.values() if keyed else obj):
            # A leaf is rendered here, without a generator of its own.
            if (leaf := _LEAF_TEXT.get(type(value))) is not None:
                yield opener + key + leaf(value)
            else:
                chunks = _json_chunks(value, item_pad)
                yield opener + key + next(chunks)
                yield from chunks
            opener = "," + item_pad
        yield pad + brackets[1] if obj else brackets
    else:
        yield _leaf_text(_LEAF_TEXT, obj)


def _csv_chunks(echo, table):
    """``#``-prefixed config echo and the table's header, then its rows a block per chunk."""
    lines = ["# " + key + " = " + _format_scalar(value) + "\n" for key, value in echo.items()]
    lines.append(",".join(table.header) + "\n")
    yield "".join(lines)
    yield from table.blocks(lambda specs: ",".join(specs) + "\n", "", _CSV_TEXT)


def _write_artifact(path, chunks):
    """Write the text ``chunks`` to ``path``, or to stdout if ``path`` is empty.

    The file is opened in place, without truncation (mode 0o666 less the
    umask if it is created, a symlink followed), and every chunk goes through
    one binary handle, encoded as UTF-8.  Then a regular file is cut to the
    bytes written, or, if a write raised, to the bytes that reached it: a
    prefix of the new artifact.  A pipe or device is never cut.  Truncating
    an existing file to zero before the write would make ext4
    (``auto_da_alloc``) start writeback at close, which took longer than
    rendering an mb-validate artifact.
    """
    if not path:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as handle:
        try:
            for chunk in chunks:
                handle.write(chunk.encode())
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
    summary = [f"argmax kappa2 = {_format_scalar(kappa2[best].item())} "
               f"(f = {_format_scalar(f_simulated[best].item())})"]
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
    final = {name: cells[-1].item() for name, cells in column.items()}
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


_COMMANDS = {
    "derive": _cmd_derive,
    "entangle": _cmd_entangle,
    "teleport": _cmd_teleport,
    "sweep": _cmd_sweep,
    "mb-validate": _cmd_mb_validate,
}


# The config key that each flag sets.
_FLAGS = {"seed": "seed", "trials": "trials", "out": "output.path", "format": "output.format"}

_USAGE = ("usage: spinlight {" + ",".join(_COMMANDS) + "} --config PATH "
          "[--seed N] [--trials N] [--out PATH] [--format {json,csv}]\n")

_HELP = _USAGE + """
Commands:
  derive        channel coefficients + regime checks
  entangle      two-round entanglement generation
  teleport      entangle + local Bell + displacement
  sweep         kappa2 / eta_t trade-off table
  mb-validate   grid convergence of the channel

Flags, before or after the command, as --flag VALUE or --flag=VALUE; the last
of a repeated flag wins:
  --config PATH          the run config file, UTF-8 (required)
  --seed N               sets the config key seed
  --trials N             sets the config key trials
  --out PATH             sets the config key output.path
  --format {json,csv}    sets the config key output.format
  -h, --help             print this help and exit
"""

# Every flag that takes a value.
_FLAG_NAMES = ("--config", *(f"--{flag}" for flag in _FLAGS))


def _usage_error(message):
    sys.stderr.write(f"{_USAGE}error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _is_flag(arg):
    """Whether ``arg`` is a flag: it starts with ``-`` and is not ``-`` or a negative number."""
    return arg[:1] == "-" and arg[1:2] not in "0123456789."


def _read_argv(argv):
    """The command, the config path and the other flags' values, by flag, of a command line.

    Reads left to right.  ``-h`` or ``--help`` prints the help to stdout and
    exits 0; the first malformed argument prints the usage and an error line
    to stderr and exits 1 (both by ``SystemExit``).  ``--flag VALUE`` takes
    the next argument unless that is itself a flag; ``--flag=VALUE`` takes
    any text.  A flag is spelled in full: ``--conf`` is no ``--config``.
    """
    command, values = None, {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            sys.stdout.write(_HELP)
            raise SystemExit(EXIT_OK)
        if not _is_flag(arg):
            if command is not None:
                _usage_error(f"unexpected argument {arg!r}")
            if arg not in _COMMANDS:
                _usage_error(f"unknown command {arg!r} (choose from {', '.join(_COMMANDS)})")
            command = arg
            continue
        name, equals, value = arg.partition("=")
        if name not in _FLAG_NAMES:
            _usage_error(f"unknown flag {arg!r}")
        if not equals:
            value = next(args, None)
            if value is None or _is_flag(value):
                _usage_error(f"flag {name} expects a value")
        values[name[2:]] = value
    if command is None:
        _usage_error("no command given")
    if "config" not in values:
        _usage_error("the flag --config is required")
    return command, values.pop("config"), values


def main(argv=None):
    try:
        command, config_path, flags = _read_argv(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code

    try:
        with open(config_path, "rb", buffering=0) as handle:
            mapping = parse_config_text(handle.read().decode("utf-8"))
        mapping = apply_env_overrides(mapping, os.environ)
        for flag, key in _FLAGS.items():
            if flag in flags:
                mapping[key] = _parse_scalar(key, flags[flag])
        cfg = resolve_run_config(mapping)
        payload, table, summary, code = _COMMANDS[command](cfg)
        if cfg.out_format == "csv":
            chunks = _csv_chunks(cfg.echo, table)
        else:
            chunks = itertools.chain(_json_chunks(payload, "\n"), ["\n"])
        _write_artifact(cfg.out_path, chunks)
        # An artifact on stdout keeps stdout to itself.
        (sys.stdout if cfg.out_path else sys.stderr).writelines(line + "\n" for line in summary)
        return code
    except (ConfigError, OSError, ValueError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
