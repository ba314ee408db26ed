"""spinlight benchmark: one workload per invocation, run from a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen is recorded in BENCHMARK.json):

    lossy-sweep  ``spinlight sweep``: kappa2 trade-off at a drawn eta_t, eta_d
    mb-ladder    ``spinlight mb-validate`` over the default 4..64 grid ladder

The program under test is imported from ``src/`` of the checkout this file
sits in; nothing is installed.  The workload runs in a fresh interpreter of
its own (``worker.py``) with BLAS and OpenMP pinned to one thread.  Inputs,
artifacts, per-op latencies and the span dump of a traced run go to
``.bench_work/<workload>/``.

Prints one diagnostics line and then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1`` its
``per_layer`` list.  The diagnostics line carries the environment, op counts,
the tail percentile and every other figure with its unit: the workload's
throughput under its own name (``points_per_s`` or ``cells_per_s``),
``op_ms_p50``, ``op_ms_tail`` and ``failed_op_ratio``.

``work_per_s`` (units of work over the summed time of the timed ops) is the
gated speed figure.  On a shared 2-vCPU virtual machine (Xeon, Python 3.11,
numpy 2.4) the speed of a fixed loop drifts by up to 2x over tens of seconds
under load from other guests, and the share of a run spent slow varies from
run to run.  The median and the tail percentile jump between the fast and the
slow level as that share crosses their rank; the mean follows the share
smoothly and is the steadiest of the three.  Runs of 50 s keep the quartile
spread of ten runs of the mean near 0.15 to 0.19 of the median there.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def child_env():
    """Environment of every child: the checkout's sources, one BLAS thread."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("SPINLIGHT_")
        and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args, env):
    workdir = ROOT / ".bench_work" / args.workload
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", str(workdir)],
        env=env, capture_output=True, text=True, timeout=args.seconds + 120,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "spinlight" / "cli.py").is_file():
        sys.exit(f"no spinlight sources under {SRC}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    try:
        result = run_worker(args, env)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        sys.exit(f"benchmark failed: {exc}")

    metrics = result["metrics"]
    missing = [m["name"] for m in wanted
               if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    if missing:
        sys.exit(f"benchmark failed: metrics missing or with the wrong unit: {missing}")
    reported = {m["name"]: metrics.pop(m["name"]) for m in wanted}
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "diagnostics": result["diagnostics"],
        "other_metrics": metrics,
    }))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported,
    }))


if __name__ == "__main__":
    main()
