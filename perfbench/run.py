"""belllab end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a belllab checkout.  Builds the workload's command list
from the seed, then starts fresh interpreters on perfbench/worker.py with the
checkout's ``src`` on PYTHONPATH: a few that only time set-up, then one that
runs the workload in a closed loop (one caller, commands back to back) and
checks every output.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Timings are in reference seconds: each is scaled by a calibration kernel
timed next to it (calib.py), which takes out the host's speed drift.  A full
record of the run, with every time as measured, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# Set-up is timed this many times per run, each in a fresh interpreter, and
# reported as the median: single samples spread by 30%.
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # belllab's own thread pools stay at their default of one thread.
    env.pop("BELLLAB_THREADS", None)
    # One BLAS thread: with two vCPUs a second BLAS thread contends with
    # whatever else runs on the host, and a 256x256 product then swings by 3x.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(job: dict, env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_setups(job: dict, env: dict):
    """SETUP_SAMPLES set-up times in reference seconds, and as measured."""
    scaled, measured = [], []
    for _ in range(SETUP_SAMPLES):
        result = run_worker(job, env, WORKER_TIMEOUT_S)
        measured.append(result["setup_s"])
        scaled.append(result["setup_s"] * result["setup_factor"])
    return scaled, measured


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(w, setups, main) -> dict:
    lat = main["latencies"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(main["walls"]), "unit": "s"},
        "cmd_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "cmd_tail_ms": {"value": nearest_rank(lat, w.tail_pct) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(main) -> dict:
    units = {"calls": "count", "self_ms": "ms", "objective_us": "us", "shots": "count", "mshots_per_s": "1e6/s"}
    return {name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
            for name, value in main["per_layer"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "belllab" / "cli.py").is_file():
        return fail(f"no belllab sources under {root / 'src'}; run from the root of a belllab checkout")
    w = WORKLOADS[args.workload]
    env = worker_env(root)
    OUT.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    job = {"mode": "setup", "warmup": w.warmup}
    try:
        # the first import in a checkout compiles bytecode; users pay that once
        run_worker(job, env, WORKER_TIMEOUT_S)
        setups, measured_setups = timed_setups(job, env)
        commands = w.commands(args.seed)
        job.update(
            mode="run" if args.trace == 0 else "trace",
            commands=commands,
            rounds=w.rounds(args.seconds, len(commands)),
            kernel=w.kernel,
            every=w.every,
            spans_path=str(OUT / f"{w.name}-spans.tsv"),
        )
        result = run_worker(job, env, WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(f"workload {w.name}: {exc}")

    expected = str(root / "src" / "belllab")
    correct = (not result["warmup_problems"]) and result["belllab_file"].startswith(expected)
    if args.trace == 0:
        metrics = end_to_end(w, setups, result)
        print(f"perfbench: {w.name} as measured, before scaling to the reference host speed: "
              f"set-up {statistics.median(measured_setups):.4f} s, "
              f"command p50 {statistics.median(result['measured_latencies']) * 1e3:.4f} ms", file=sys.stderr)
    else:
        metrics = per_layer(result)
        overhead = result["traced_wall_s"] - result["untraced_wall_s"]
        print(f"perfbench: {w.name} traced wall {result['traced_wall_s']:.4f} s over "
              f"{result['traced_rounds']} rounds, untraced {result['untraced_wall_s']:.4f} s, "
              f"overhead {overhead:+.4f} s; wrappers in {', '.join(result['patched'])}", file=sys.stderr)
    for failure in result.get("failures", []):
        print(f"perfbench: command {failure['command']} failed: {failure['problems']}", file=sys.stderr)
    record = dict(result, setups=setups, measured_setups=measured_setups, metrics=metrics, workload=w.name,
                  seed=args.seed, seconds=args.seconds, trace=args.trace, correct=correct)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
