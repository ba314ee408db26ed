"""Command-line front end.

Subcommands::

    spinlight derive      --config run.cfg        channel coefficients + regime checks
    spinlight entangle    --config run.cfg        two-round entanglement generation
    spinlight teleport    --config run.cfg        entangle + local Bell + displacement
    spinlight sweep       --config run.cfg        kappa2 / eta_t trade-off table
    spinlight mb-validate --config run.cfg        grid convergence of the channel

Common flags: ``--config PATH`` (required), ``--seed N``, ``--trials N``,
``--out PATH``, ``--format {json,csv}``.  Flags override ``SPINLIGHT_*``
environment variables, which override the file.

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
:func:`~spinlight.protocols.run_trials` call, and ``sweep`` builds its rows
from the columns of :func:`~spinlight.protocols.lossy_fidelity_table`.  A
table is a ``_Table`` value wherever it goes (the sweep's points, the
mb-validate rows, each trial's outcomes, the CSV body).  Both writers render
it with one row template, the JSON writer in the bytes of the list of dicts
it stands for; every other value the JSON writer renders value by value.
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .config import (
    ConfigError,
    _format_scalar,
    apply_env_overrides,
    parse_config_text,
    resolve_run_config,
)
from .interaction import validate_regime
from .maxwell_bloch import Grid, extract_collective_grids
from .protocols import (
    _PULSES,
    classical_bound_check,
    fidelity_ideal,
    fidelity_lossy,
    lossy_fidelity_table,
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
    """A table: a tuple of ``str`` keys and rows of cells, one cell per key.

    In JSON it is a list of one dict per row, keyed by the header; in CSV the
    header line and one line per row.
    """

    header: tuple
    rows: list


_ENCODE_STR = json.encoder.encode_basestring_ascii

# JSON text of the common leaf types, keyed by exact type (bool is not int here).
_LEAF_TEXT = {
    float: "%.17g".__mod__,
    int: str,
    str: _ENCODE_STR,
    bool: lambda value: "true" if value else "false",
    np.bool_: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}
# CSV text of the same types: strings and None as they print.
_CSV_LEAF_TEXT = {**_LEAF_TEXT, str: str, type(None): str}


@functools.lru_cache(maxsize=1024, typed=True)
def _key_text(key):
    """Encoded dict key with its separator; typed, since 1 and True are equal keys."""
    return _ENCODE_STR(str(key)) + ": "


@functools.lru_cache(maxsize=64)
def _row_template(header, pad):
    """%-template of one JSON table row whose own line starts with ``pad``."""
    row_pad = pad + "  "
    keys = [_key_text(key).replace("%", "%%") + "%s" for key in header]
    return "{" + row_pad + ("," + row_pad).join(keys) + pad + "}"


def _rows_text(rows, template, sep, leaf_text, other):
    """``rows`` in ``template`` (one %s per cell), joined by ``sep``.

    Each cell's text is ``leaf_text`` of its exact type, else ``other(cell)``.
    """
    text = leaf_text.get
    cells = [(text(type(cell)) or other)(cell) for cell in itertools.chain.from_iterable(rows)]
    return sep.join([template] * len(rows)) % tuple(cells)


def _json_text(obj, indent=0):
    """JSON text with a two-space indent, ASCII escapes and 17-digit floats."""
    return _json_value(obj, "\n" + "  " * indent)


def _json_value(obj, pad):
    """Text of one value whose own line starts with ``pad``; leaves inline."""
    leaf_text = _LEAF_TEXT.get
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        item_pad = pad + "  "
        items = [
            _key_text(key)
            + (leaf(value) if (leaf := leaf_text(type(value))) else _json_value(value, item_pad))
            for key, value in obj.items()
        ]
        return "{" + item_pad + ("," + item_pad).join(items) + pad + "}"
    if isinstance(obj, _Table):
        if not obj.rows:
            return "[]"
        item_pad = pad + "  "
        template = _row_template(obj.header, item_pad)
        cell_text = functools.partial(_json_value, pad=item_pad + "  ")
        text = _rows_text(obj.rows, template, "," + item_pad, _LEAF_TEXT, cell_text)
        return "[" + item_pad + text + pad + "]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        item_pad = pad + "  "
        text = ("," + item_pad).join([
            leaf(value) if (leaf := leaf_text(type(value))) else _json_value(value, item_pad)
            for value in obj
        ])
        return "[" + item_pad + text + pad + "]"
    if (leaf := leaf_text(type(obj))) is not None:
        return leaf(obj)
    # Other numpy scalars, subclasses and anything else (bool has no subclasses).
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_scalar(obj)
    return _ENCODE_STR(str(obj))


def _csv_text(echo, table):
    """``#``-prefixed config echo, then the table's header and rows."""
    lines = [f"# {key} = {_format_scalar(value)}\n" for key, value in echo.items()]
    lines.append(",".join(table.header) + "\n")
    template = ",".join(["%s"] * len(table.header)) + "\n"
    lines.append(_rows_text(table.rows, template, "", _CSV_LEAF_TEXT, _format_scalar))
    return "".join(lines)


def _records(outcomes):
    """Per-trial record rows of a (trials, rounds) outcome array."""
    return [{"trial": trial, "outcomes": _Table(("round_tag", "mode", "quadrature", "outcome"), [
        (tag, mode, "x", outcome) for (tag, mode), outcome in zip(_PULSES, row)
    ])} for trial, row in enumerate(outcomes.tolist())]


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, csv_table, summary_lines, exit_code)


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
        "kappa_identity": 2.0
        * math.sqrt(channel.eps_p * channel.eps_a)
        * cfg.physical.Delta
        / math.sqrt(cfg.physical.gamma * cfg.physical.gamma_prime)
        if cfg.physical.gamma > 0 and cfg.physical.gamma_prime > 0
        else None,
        "fresnel": report.fresnel,
        "fresnel_ok": report.fresnel_ok,
        "eps_small": report.eps_small,
        "kappa_vs_sqrt_n": report.kappa_vs_sqrt_n,
        "detuning_large": report.detuning_large,
        "jump_count_estimate": report.jump_count_estimate,
        "regime_pass": report.all_pass,
        "config": cfg.echo,
    }
    header = tuple(k for k in payload if k not in ("command", "config"))
    summary = [f"{name} = {_format_scalar(payload[name])}"
               for name in ("kappa", "eps_p", "eps_a", "fresnel")]
    summary.append("regime: " + ("PASS" if report.all_pass else "WARN"))
    code = EXIT_OK if report.all_pass else EXIT_REGIME_WARNING
    return payload, _Table(header, [[payload[k] for k in header]]), summary, code


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
        [[i, *row, report.epr_x, report.epr_p, report.r]
         for i, row in enumerate(outcomes.tolist())],
    )
    summary = [f"{name} = {_format_scalar(getattr(report, name))}"
               for name in ("epr_x", "epr_p", "r")]
    return payload, table, summary, EXIT_OK


def _cmd_teleport(cfg):
    kappa2 = cfg.plans["entangle2"].kappa
    outcomes, report, fidelities = run_trials(
        cfg.plans, np.random.default_rng(cfg.seed), cfg.trials, cfg.input_mean, cfg.gain
    )
    fidelities = fidelities.tolist()
    fidelity = fidelities[0]
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
        [[i, value, payload["fidelity_ideal_closed_form"],
          payload["fidelity_lossy_closed_form"], classical_bound_check(value)]
         for i, value in enumerate(fidelities)],
    )
    summary = [f"fidelity = {_format_scalar(fidelity)}",
               f"classical bound exceeded: {_format_scalar(payload['classical_bound_exceeded'])}"]
    return payload, table, summary, EXIT_OK


def _cmd_sweep(cfg):
    if cfg.sweep is None:
        raise ConfigError("sweep.min", "sweep needs a sweep.* section")
    kappa2, f_simulated, f_closed_form, best = lossy_fidelity_table(
        cfg.sweep.values(),
        cfg.eta_t,
        kappa1_multiplier=cfg.kappa1_multiplier,
        eps_p=cfg.channel.eps_p,
        eps_a=cfg.channel.eps_a,
        eta_d=cfg.eta_d,
        eta_t_local=cfg.eta_t_local,
    )
    is_argmax = [False] * len(kappa2)
    is_argmax[best] = True
    rows = list(zip(kappa2.tolist(), [cfg.eta_t] * len(kappa2), f_simulated.tolist(),
                    f_closed_form.tolist(), is_argmax))
    table = _Table(("kappa2", "eta_t", "f_simulated", "f_closed_form", "is_argmax"), rows)
    payload = {
        "command": "sweep",
        "seed": cfg.seed,
        "eta_t": cfg.eta_t,
        "kappa2_optimal_closed_form": optimal_kappa2(cfg.eta_t) if cfg.eta_t > 0 else None,
        "points": table,
        "config": cfg.echo,
    }
    kappa2_best, _, f_best = rows[best][:3]
    summary = [f"argmax kappa2 = {_format_scalar(kappa2_best)} (f = {_format_scalar(f_best)})"]
    return payload, table, summary, EXIT_OK


def _cmd_mb_validate(cfg):
    if cfg.physical is None:
        raise ConfigError("physical", "mb-validate needs the physical.* section")
    channel = cfg.channel
    table = _Table((
        "grid", "kappa_eff", "eps_p_eff", "eps_a_eff",
        "dev_kappa", "dev_eps_p", "dev_eps_a",
        "signal_leak", "noise_var_light_x", "noise_var_atom_x",
    ), [])
    grids = [Grid(n_z=n, n_tau=n, L=cfg.physical.L, T=cfg.physical.T) for n in cfg.mb.grids()]
    for grid, extraction in zip(grids, extract_collective_grids(channel, grids)):
        dev_kappa = abs(extraction.kappa_eff - channel.kappa) / channel.kappa
        dev_eps_p, dev_eps_a = (
            abs(eff - eps) / eps if eps > 0 else eff
            for eff, eps in ((extraction.eps_p_eff, channel.eps_p),
                             (extraction.eps_a_eff, channel.eps_a))
        )
        table.rows.append([
            grid.n_z, extraction.kappa_eff, extraction.eps_p_eff, extraction.eps_a_eff,
            dev_kappa, dev_eps_p, dev_eps_a,
            extraction.signal_leak, extraction.noise_var_light_x,
            extraction.noise_var_atom_x,
        ])
    final = table.rows[-1]
    within = (
        final[4] <= cfg.mb.tol_kappa
        and final[5] <= cfg.mb.tol_eps
        and final[6] <= cfg.mb.tol_eps
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
        f"final grid {final[0]}x{final[0]}: dev_kappa = {_format_scalar(final[4])}, "
        f"dev_eps_p = {_format_scalar(final[5])}, dev_eps_a = {_format_scalar(final[6])}",
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


@functools.cache
def _build_parser():
    """The argument parser, built on the first call rather than at import.

    Parsing keeps no state in the parser, so every call shares one.
    """
    parser = _Parser(prog="spinlight", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the run config file")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--trials", type=int, default=None)
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--format", choices=("json", "csv"), default=None)
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
        if args.seed is not None:
            mapping["seed"] = args.seed
        if args.trials is not None:
            mapping["trials"] = args.trials
        if args.out is not None:
            mapping["output.path"] = args.out
        if args.format is not None:
            mapping["output.format"] = args.format
        cfg = resolve_run_config(mapping)
        payload, table, summary, code = _COMMANDS[args.command](cfg)
        if cfg.out_format == "csv":
            text = _csv_text(cfg.echo, table)
        else:
            text = _json_text(payload) + "\n"
        if cfg.out_path:
            with open(cfg.out_path, "w", newline="\n") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
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
