"""Run one benchmark workload in this interpreter and print its result as JSON.

Started by ``run.py`` in a fresh interpreter per workload, so peak RSS belongs
to that workload alone.  One client drives ``spinlight.cli.main`` in a closed
loop from this single process and thread: the next op starts when the
previous one has returned.  The first op is a warm-up and is not timed; the
last repeats the warm-up's inputs and must give identical artifact bytes.

With ``--trace 0`` every op runs untraced and the end-to-end figures are
reported; ``setup_s`` is the median time to ``import spinlight.cli`` in fresh
interpreters started at even intervals between the ops.  With ``--trace 1``
each input runs twice in a row, untraced and then under the span recorder,
and the per-layer figures are reported per traced op together with the
tracing overhead.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spinlight
from spinlight import cli, config, gaussian, interaction, maxwell_bloch, protocols

from spans import SpanRecorder

# README reference operating point: kappa = 5, eps_p = eps_a = 1/120.
PHYSICAL = """\
physical.lambda0 = 6.283185307179586e-07
physical.length = 0.02
physical.rho = 5e12 cm^-3
physical.gamma = 3.141592653589793e7
physical.gamma_prime = 3.141592653589793e7
physical.delta = 9.42477796076938e9
"""

# Distinct inputs generated per run; op k uses input k modulo this.
POOL = 16

# Fresh interpreters timed for setup_s, spread evenly over the run so that
# they see the same machine load as the ops.
SETUP_SAMPLES = 9

IMPORT_PROBE = """\
import sys, time
start = time.perf_counter()
import spinlight.cli
elapsed = time.perf_counter() - start
if not spinlight.cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"spinlight imported from {spinlight.cli.__file__}, not {sys.argv[1]}")
print(repr(elapsed))
"""


class LossySweep:
    """``spinlight sweep`` over kappa2 in [0.2, 10] at a drawn (eta_t, eta_d)."""

    command = "sweep"
    unit = "points"
    steps = 100
    units_per_op = steps

    def make_input(self, rng):
        eta_t = float(rng.uniform(0.05, 0.8))
        eta_d = float(rng.choice([0.0, 0.05]))
        text = PHYSICAL + (
            f"noise.eta_t = {eta_t!r}\nnoise.eta_d = {eta_d!r}\n"
            f"sweep.min = 0.2\nsweep.max = 10.0\nsweep.steps = {self.steps}\n"
        )
        return text, [], {"eta_t": eta_t}

    def check(self, code, payload, expect):
        if code != 0:
            return f"exit {code}"
        eta_t = expect["eta_t"]
        points = payload["points"]
        if len(points) != self.steps:
            return f"{len(points)} points"
        # eta_t^(-1/4) is the loss-only optimum.  The reference point's
        # damping (eps_p = eps_a = 1/120 per pass) moves the exact optimum
        # down by up to one grid step at the low end of the eta_t range
        # (1.08 steps at eta_t = 0.0525), so two steps are allowed.
        step = 9.8 / (self.steps - 1)
        best = [p for p in points if p["is_argmax"]]
        if len(best) != 1 or abs(best[0]["kappa2"] - eta_t ** -0.25) > 2 * step:
            return f"argmax {best} not within two steps of eta_t^(-1/4)"
        bound = 1.0 / (1.0 + math.sqrt(eta_t))
        if not all(0.0 <= p["f_simulated"] <= bound for p in points):
            return "f_simulated outside [0, 1/(1+sqrt(eta_t))]"
        return None


class MbLadder:
    """``spinlight mb-validate`` on the reference point, default ladder 4..64."""

    command = "mb-validate"
    unit = "cells"
    grids = (4, 8, 16, 32, 64)
    units_per_op = sum(n * n for n in grids)

    def make_input(self, rng):
        seed = int(rng.integers(0, 2**32))
        return PHYSICAL, ["--seed", str(seed)], {"seed": seed}

    def check(self, code, payload, expect):
        if code != 0:
            return f"exit {code}"
        rows = payload["rows"]
        if [row["grid"] for row in rows] != list(self.grids):
            return f"grid ladder {[row['grid'] for row in rows]}"
        final = rows[-1]
        if not (final["dev_kappa"] <= 0.01 and final["dev_eps_p"] <= 0.05
                and final["dev_eps_a"] <= 0.05 and payload["within_tolerance"]):
            return f"final-grid deviations out of tolerance: {final}"
        return None


WORKLOADS = {
    "lossy-sweep": LossySweep(),
    "mb-ladder": MbLadder(),
}

LAYERS = {
    "gaussian": gaussian,
    "interaction": interaction,
    "protocols": protocols,
    "maxwell_bloch": maxwell_bloch,
    "config": config,
    "cli": cli,
}

GAUSSIAN_FUNCTIONS = ("homodyne", "loss_channel", "append_vacuum", "rotate",
                      "displace", "marginal", "variance_of", "fidelity_coherent")
TIMED_FUNCTIONS = (
    [f"gaussian.{fn}" for fn in GAUSSIAN_FUNCTIONS]
    + ["interaction.apply_pass", "interaction.derive_channel",
       "protocols.entangle", "protocols.teleport", "protocols.lossy_fidelity_sweep",
       "maxwell_bloch.build_transfer", "maxwell_bloch.build_transfer_from_channel",
       "maxwell_bloch.extract_collective"]
)

SPAN_NOTES = {
    # (grid cells, transfer-map bytes, output rows) of each dense build
    "maxwell_bloch.build_transfer": lambda args, kwargs, tm: (
        tm.n_z * tm.n_tau, tm.signal.nbytes + tm.noise.nbytes, tm.signal.shape[0]),
    # measurement records that reach the teleport report
    "protocols.teleport": lambda args, kwargs, result: len(result[1].records),
}


class Run:
    """Inputs, op loop and correctness bookkeeping of one benchmark run."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.out = workdir / "artifact"
        rng = np.random.default_rng(seed)
        self.inputs = []
        for i in range(POOL):
            text, flags, expect = workload.make_input(rng)
            path = workdir / f"input-{i}.cfg"
            path.write_text(text)
            argv = [workload.command, "--config", str(path), "--out", str(self.out)]
            self.inputs.append((argv + flags, expect))
        self.attempted = 0
        self.failures = []
        self.artifact_bytes = []

    def op(self, index, expect_bytes=None):
        """Run input ``index``; returns (seconds, artifact bytes)."""
        argv, expect = self.inputs[index % POOL]
        gc.collect()
        sink = io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed op, not a dead run
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        data = self.out.read_bytes() if code == 0 else b""
        try:
            error = self.workload.check(code, json.loads(data) if data else {}, expect)
        except (KeyError, TypeError, ValueError) as exc:
            error = f"malformed artifact: {exc!r}"
        if not error and expect_bytes is not None and data != expect_bytes:
            error = "repeating op 0 gave different artifact bytes"
        if error:
            self.failures.append(f"op {index}: {error}")
        self.artifact_bytes.append(len(data))
        return elapsed, data


def tail(latencies_ms):
    """Highest percentile with at least 10 ops beyond it, its label and count."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def import_seconds():
    """Time to ``import spinlight.cli`` in a fresh interpreter."""
    src = str(Path(spinlight.__file__).parent.parent)
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise RuntimeError(f"import probe failed: {probe.stderr.strip()}")
    return float(probe.stdout)


def untraced(run, seconds):
    _, first = run.op(0)
    latencies = []
    setup = []
    index = 1
    start = time.perf_counter()
    while (now := time.perf_counter()) < start + seconds:
        if now >= start + len(setup) * seconds / SETUP_SAMPLES:
            setup.append(import_seconds())
        latencies.append(run.op(index)[0])
        index += 1
    run.op(0, expect_bytes=first)
    ms = [1e3 * t for t in latencies]
    (run.out.parent / "latencies_ms.json").write_text(json.dumps(ms))
    tail_ms, tail_pct, n = tail(ms)
    rate = run.workload.units_per_op * len(latencies) / sum(latencies)
    metrics = {
        "work_per_s": (rate, "1/s"),
        f"{run.workload.unit}_per_s": (rate, "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    diagnostics = {
        "units_per_op": run.workload.units_per_op,
        "timed_ops": n,
        "op_ms_tail_percentile": tail_pct,
        "op_ms_max": max(ms),
        "setup_samples_s": setup,
    }
    return metrics, diagnostics


def traced(run, seconds, spans_path):
    recorder = SpanRecorder(LAYERS, SPAN_NOTES)
    _, first = run.op(0)
    plain, with_spans = [], []
    index = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        plain.append(run.op(index)[0])
        recorder.op = len(with_spans)
        recorder.install()
        try:
            with_spans.append(run.op(index)[0])
        finally:
            recorder.uninstall()
        index += 1
    run.op(0, expect_bytes=first)
    recorder.write(spans_path)
    return layer_metrics(recorder, len(with_spans), sum(with_spans), sum(plain),
                         run.artifact_bytes)


def layer_metrics(recorder, ops, traced_s, untraced_s, artifact_bytes):
    name, parent, _, start, end, self_s = recorder.arrays()
    ids = {label: i for i, label in enumerate(recorder.names)}
    size = len(recorder.names)
    calls = np.bincount(name, minlength=size)
    self_ms = np.bincount(name, weights=self_s, minlength=size) * 1e3
    metrics = {}

    def per_op(label, suffix, table, unit):
        metrics[f"{label}.{suffix}"] = (float(table[ids[label]]) / ops, unit)

    for label in TIMED_FUNCTIONS:
        per_op(label, "calls", calls, "count")
        per_op(label, "self_ms", self_ms, "ms")
    per_op("gaussian.GaussianState", "constructions", calls, "count")
    per_op("gaussian.GaussianState", "self_ms", self_ms, "ms")

    teleport = ids["protocols.teleport"]
    in_teleport = recorder.has_ancestor(name, parent, teleport)
    homodynes = int(np.sum(in_teleport & (name == ids["gaussian.homodyne"])))
    useful = sum(recorder.notes[i] for i in np.flatnonzero(name == teleport))
    metrics["protocols.teleport.homodyne_per_call"] = (
        homodynes / calls[teleport] if calls[teleport] else 0.0, "count")
    metrics["protocols.teleport.useful_homodyne_ratio"] = (
        useful / homodynes if homodynes else 0.0, "ratio")

    builds = np.flatnonzero(name == ids["maxwell_bloch.build_transfer"])
    notes = [recorder.notes[i] for i in builds]
    max_cells = max((note[0] for note in notes), default=0)
    at_max = [i for i, note in zip(builds, notes) if note[0] == max_cells]
    metrics["maxwell_bloch.build_transfer.ms_at_max_grid"] = (
        1e3 * float(np.mean(end[at_max] - start[at_max])) if at_max else 0.0, "ms")
    top = next((note for note in notes if note[0] == max_cells), (0, 0, 0))
    metrics["maxwell_bloch.transfer_bytes_at_max_grid"] = (top[1], "B")
    metrics["maxwell_bloch.useful_row_ratio"] = (4 / top[2] if top[2] else 0.0, "ratio")

    layer_ms = {layer: 0.0 for layer in LAYERS}
    for i, layer in enumerate(recorder.layer_of):
        layer_ms[layer] += self_ms[i]
    metrics["config.self_ms"] = (layer_ms["config"] / ops, "ms")
    per_op("cli.main", "self_ms", self_ms, "ms")
    metrics["cli.artifact_bytes"] = (statistics.mean(artifact_bytes), "B")
    for layer, total in layer_ms.items():
        metrics[f"{layer}.self_share"] = (total / (1e3 * traced_s), "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    diagnostics = {
        "traced_ops": ops,
        "spans": int(name.size),
        "self_share_sum": sum(layer_ms.values()) / (1e3 * traced_s),
    }
    return metrics, diagnostics


def environment(seed):
    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")), model)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "spinlight": spinlight.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "workload_seed": seed,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, args.workdir)
    if args.trace:
        metrics, diagnostics = traced(run, args.seconds, args.workdir / "spans.npz")
    else:
        metrics, diagnostics = untraced(run, args.seconds)
    metrics["failed_op_ratio"] = (len(run.failures) / run.attempted, "ratio")
    diagnostics.update(
        failures=run.failures[:10],
        environment=environment(args.seed),
    )
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "diagnostics": diagnostics,
    }))


if __name__ == "__main__":
    sys.exit(main())
