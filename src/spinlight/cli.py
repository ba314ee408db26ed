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
``derive``; 3 tolerance failure in ``mb-validate``.

Every artifact embeds the fully resolved configuration and the seed, floats
are emitted with 17 significant digits, and per-trial RNG streams are derived
as ``seed XOR trial_index``, so identical (config, seed) pairs give
byte-identical artifacts no matter how trials are scheduled.

Each subcommand only computes: it returns its JSON payload, its CSV header
and rows, its summary lines and its exit code.  ``main`` renders the
artifact in the configured format, writes it to the configured path or to
stdout, and prints the summary.  ``entangle`` and ``teleport`` run all their
trials in one :func:`~spinlight.protocols.run_trials` call, and ``sweep``
builds its rows from the columns of
:func:`~spinlight.protocols.lossy_fidelity_table`.  The JSON writer renders
a table (a list of flat dicts sharing their ``str`` keys and one leaf type
per key, such as the sweep's points) with one %-template for the whole
table, and everything else value by value, in the same bytes.
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .config import (
    ConfigError,
    apply_env_overrides,
    parse_config_text,
    resolve_run_config,
)
from .interaction import validate_regime
from .maxwell_bloch import Grid, extract_collective_from_channel
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


def _fmt(value):
    """Text form of one scalar; floats carry 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


_ENCODE_STR = json.encoder.encode_basestring_ascii

# %-format of the leaf types a table template formats by itself; the other
# leaf types go through _LEAF_TEXT first and into a %s.
_TEMPLATE_FORMAT = {float: "%.17g", int: "%d"}

# Text of the common leaf types, keyed by exact type (bool is not int here).
_LEAF_TEXT = {
    float: _TEMPLATE_FORMAT[float].__mod__,
    int: str,
    str: _ENCODE_STR,
    bool: lambda value: "true" if value else "false",
    np.bool_: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


@functools.lru_cache(maxsize=1024, typed=True)
def _key_text(key):
    """Encoded dict key with its separator; typed, since 1 and True are equal keys."""
    return _ENCODE_STR(str(key)) + ": "


def _table_text(rows, pad):
    """Text of a list's items if they form a table, else None.

    A table is a list of non-empty dicts with the same ``str`` keys in the
    same order, where each key holds one exact ``_LEAF_TEXT`` type in every
    row; ``rows[0]`` must be a dict.  Its rows, each on a line starting with
    ``pad``, are rendered with one %-template for the whole table, in the
    bytes the generic path would give.
    """
    keys = tuple(rows[0])
    if (
        not keys
        or set(map(type, rows)) != {dict}
        or set(map(tuple, rows)) != {keys}
        or set(map(type, itertools.chain.from_iterable(rows))) != {str}
    ):
        return None
    columns = list(zip(*map(dict.values, rows)))
    pieces = []
    for number, (key, column) in enumerate(zip(keys, columns)):
        kinds = set(map(type, column))
        kind = kinds.pop()
        if kinds or kind not in _LEAF_TEXT:
            return None
        if kind not in _TEMPLATE_FORMAT:
            columns[number] = map(_LEAF_TEXT[kind], column)
        pieces.append(_key_text(key).replace("%", "%%") + _TEMPLATE_FORMAT.get(kind, "%s"))
    row_pad = pad + "  "
    template = "{" + row_pad + ("," + row_pad).join(pieces) + pad + "}"
    return ("," + pad).join([template] * len(rows)) % tuple(
        itertools.chain.from_iterable(zip(*columns))
    )


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
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        item_pad = pad + "  "
        text = _table_text(obj, item_pad) if type(obj[0]) is dict else None
        if text is None:
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
        return _fmt(obj)
    return _ENCODE_STR(str(obj))


def _csv_text(echo, header, rows):
    lines = [f"# {key} = {_fmt(value)}" for key, value in echo.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _trial_rngs(cfg):
    """One generator per trial, by the documented rule: seed XOR trial index."""
    return [np.random.default_rng(cfg.seed ^ trial) for trial in range(cfg.trials)]


def _records(outcomes):
    """Per-trial record rows of a (trials, rounds) outcome array."""
    return [{"trial": trial, "outcomes": [
        {"round_tag": tag, "mode": mode, "quadrature": "x", "outcome": outcome}
        for (tag, mode), outcome in zip(_PULSES, row)
    ]} for trial, row in enumerate(outcomes.tolist())]


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, csv_header, csv_rows, summary_lines,
# exit_code)


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
    header = [k for k in payload if k not in ("command", "config")]
    summary = [f"{name} = {_fmt(payload[name])}"
               for name in ("kappa", "eps_p", "eps_a", "fresnel")]
    summary.append("regime: " + ("PASS" if report.all_pass else "WARN"))
    code = EXIT_OK if report.all_pass else EXIT_REGIME_WARNING
    return payload, header, [[payload[k] for k in header]], summary, code


def _cmd_entangle(cfg):
    outcomes, report, _ = run_trials(cfg.plans, _trial_rngs(cfg))
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
    header = ["trial", "outcome_round1", "outcome_round2", "epr_x", "epr_p", "r"]
    rows = [[i, *row, report.epr_x, report.epr_p, report.r]
            for i, row in enumerate(outcomes.tolist())]
    summary = [f"epr_x = {_fmt(report.epr_x)}", f"epr_p = {_fmt(report.epr_p)}",
               f"r = {_fmt(report.r)}"]
    return payload, header, rows, summary, EXIT_OK


def _cmd_teleport(cfg):
    kappa2 = cfg.plans["entangle2"].kappa
    outcomes, report, fidelities = run_trials(cfg.plans, _trial_rngs(cfg), cfg.input_mean, cfg.gain)
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
    header = ["trial", "fidelity_simulated", "fidelity_ideal_closed_form",
              "fidelity_lossy_closed_form", "classical_bound_exceeded"]
    rows = [
        [i, value, payload["fidelity_ideal_closed_form"],
         payload["fidelity_lossy_closed_form"], classical_bound_check(value)]
        for i, value in enumerate(fidelities)
    ]
    summary = [f"fidelity = {_fmt(fidelity)}",
               f"classical bound exceeded: {_fmt(payload['classical_bound_exceeded'])}"]
    return payload, header, rows, summary, EXIT_OK


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
    header = ["kappa2", "eta_t", "f_simulated", "f_closed_form", "is_argmax"]
    is_argmax = [False] * len(kappa2)
    is_argmax[best] = True
    rows = list(zip(kappa2.tolist(), [cfg.eta_t] * len(kappa2), f_simulated.tolist(),
                    f_closed_form.tolist(), is_argmax))
    payload = {
        "command": "sweep",
        "seed": cfg.seed,
        "eta_t": cfg.eta_t,
        "kappa2_optimal_closed_form": optimal_kappa2(cfg.eta_t) if cfg.eta_t > 0 else None,
        "points": [dict(zip(header, row)) for row in rows],
        "config": cfg.echo,
    }
    summary = [f"argmax kappa2 = {_fmt(rows[best][0])} (f = {_fmt(rows[best][2])})"]
    return payload, header, rows, summary, EXIT_OK


def _cmd_mb_validate(cfg):
    if cfg.physical is None:
        raise ConfigError("physical", "mb-validate needs the physical.* section")
    channel = cfg.channel
    header = [
        "grid", "kappa_eff", "eps_p_eff", "eps_a_eff",
        "dev_kappa", "dev_eps_p", "dev_eps_a",
        "signal_leak", "noise_var_light_x", "noise_var_atom_x",
    ]
    rows = []
    for size in cfg.mb.grids():
        grid = Grid(n_z=size, n_tau=size, L=cfg.physical.L, T=cfg.physical.T)
        extraction = extract_collective_from_channel(channel, grid)
        dev_kappa = abs(extraction.kappa_eff - channel.kappa) / channel.kappa
        dev_eps_p = (
            abs(extraction.eps_p_eff - channel.eps_p) / channel.eps_p
            if channel.eps_p > 0
            else extraction.eps_p_eff
        )
        dev_eps_a = (
            abs(extraction.eps_a_eff - channel.eps_a) / channel.eps_a
            if channel.eps_a > 0
            else extraction.eps_a_eff
        )
        rows.append([
            size, extraction.kappa_eff, extraction.eps_p_eff, extraction.eps_a_eff,
            dev_kappa, dev_eps_p, dev_eps_a,
            extraction.signal_leak, extraction.noise_var_light_x,
            extraction.noise_var_atom_x,
        ])
    final = rows[-1]
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
        "rows": [dict(zip(header, row)) for row in rows],
        "within_tolerance": within,
        "config": cfg.echo,
    }
    summary = [
        f"final grid {final[0]}x{final[0]}: dev_kappa = {_fmt(final[4])}, "
        f"dev_eps_p = {_fmt(final[5])}, dev_eps_a = {_fmt(final[6])}",
        "tolerance: " + ("PASS" if within else "FAIL"),
    ]
    return payload, header, rows, summary, EXIT_OK if within else EXIT_TOLERANCE_FAILURE


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
        payload, header, rows, summary, code = _COMMANDS[args.command](cfg)
        if cfg.out_format == "csv":
            text = _csv_text(cfg.echo, header, rows)
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


if __name__ == "__main__":
    sys.exit(main())
