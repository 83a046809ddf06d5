"""Episode-throughput benchmark of `fsosr.pipeline.run_eval`.

    python3 perfbench/run.py --workload std-full --seed 11 --seconds 20 --trace 0

Generates the workload's FSOF file from the seed, times `run_eval` on it in a
child process (`measure.py`) for about `--seconds` seconds, checks every bundle,
and prints one line per metric followed by a JSON result line. `--trace 0`
reports the end-to-end metrics of BENCHMARK.json, `--trace 1` its per-module
metrics. Exits 1 when the measurement could not be made, 2 when the checkout
holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

W.pin_threads()

TIME_LIMIT_S = 175.0  # a run must end within 180 s
IMPORT_REPEATS = 5
SETUP_REPEATS = 5
MEASURE = Path(__file__).with_name("measure.py")


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"env: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas['name']} {blas['version']} "
        f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} "
        f"OMP_NUM_THREADS={os.environ['OMP_NUM_THREADS']}"
    )


def cli_import_seconds() -> float:
    """Median wall time of a fresh interpreter running `import fsosr.cli`,
    after one untimed run that leaves the byte-code cache warm."""
    env = dict(os.environ, PYTHONPATH=str(W.SRC))
    times = []
    for _ in range(IMPORT_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fsosr.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def setup_seconds(args, input_path: Path) -> float:
    """Median set-up time over SETUP_REPEATS fresh processes. In one
    long-lived process it depended on what the allocator had kept from
    earlier loads and flipped between two values 1.6x apart."""
    cmd = [sys.executable, str(MEASURE), "setup", args.workload, str(args.seed), str(input_path)]
    return statistics.median(
        float(subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60).stdout)
        for _ in range(SETUP_REPEATS)
    )


def measure(args, input_path: Path, golden_path: Path, work: Path, deadline: float) -> dict:
    """Run measure.py in its own session, so that on timeout its pool workers
    are killed with it."""
    cmd = [
        sys.executable, str(MEASURE), args.workload,
        str(args.seed), str(input_path), str(golden_path), str(args.seconds),
        str(args.trace), str(work),
    ]
    child = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit("perfbench: measurement exceeded the time limit")
    if code != 0:
        raise SystemExit(f"perfbench: measurement failed with exit code {code}")
    return json.loads((work / "measured.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + TIME_LIMIT_S
    W.import_program()
    bench = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if args.trace else "end_to_end"]

    print(environment(), flush=True)
    work = W.WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        data = W.WORKLOADS[args.workload]["data"]
        input_path = work / "input.fsof"
        golden_path = work / "golden.fsof"
        generate_s = W.write_input(data, args.seed, input_path)
        W.write_input(data, W.GOLDEN_SEED, golden_path)
        extra = {}
        if args.trace:
            extra["episode.generate_s"] = generate_s
            extra["cli.import_s"] = cli_import_seconds()
        else:
            extra["setup_s"] = setup_seconds(args, input_path)
        measured = measure(args, input_path, golden_path, work, deadline)
        file_mb = input_path.stat().st_size / 1e6
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            W.WORK_DIR.rmdir()
        except OSError:
            pass

    values = dict(measured["metrics"], **extra)
    if args.trace:
        values["dataset_io.file_mb"] = file_mb
        values["dataset_io.read_mb_per_s"] = file_mb / values["dataset_io.read_s"]
    samples = values.pop("_samples")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{samples['calls']} timed calls, {samples['episodes']} episodes")
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<30} {value:>14.6g} {spec['unit']}")
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
