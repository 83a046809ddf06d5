"""The measuring child of `run.py`: times `run_eval` on a generated input and
checks its bundles. It runs in its own process so that its peak RSS is the
program's, not the input generator's.

    python3 perfbench/measure.py WORKLOAD SEED INPUT GOLDEN_INPUT SECONDS TRACE WORKDIR
    python3 perfbench/measure.py setup WORKLOAD SEED INPUT

Writes `WORKDIR/measured.json`; exits 1 when no timed call succeeded. The
second form prints one set-up time.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads as W

W.pin_threads()
W.import_program()

from fsosr.dataset_io import read_dataset  # noqa: E402
from fsosr.pipeline import run_eval, validate_dataset_for_config  # noqa: E402

import spans as T  # noqa: E402

BASELINE = json.loads((Path(__file__).parent / "baseline.json").read_text())


class Runner:
    """Calls run_eval, counts attempts and failures, and holds the bundle
    every later call must reproduce byte for byte."""

    def __init__(self, workload: str, dataset: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.dataset = dataset
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reference: tuple[str, str] | None = None
        self.bundle = None

    def call(self, compare: bool = True, **overrides):
        """One run_eval call with RunConfig fields overridden; returns (wall
        seconds, bundle), or None when it raised. A bundle that differs from
        the first compared one counts as failed but keeps its timing."""
        out = self.workdir / f"bundle-{self.attempted}"
        cfg = W.run_config(self.workload, self.dataset, self.seed, W.EPISODES_PER_CALL, str(out))
        cfg = dataclasses.replace(cfg, **overrides)
        self.attempted += 1
        try:
            start = time.perf_counter()
            bundle = run_eval(cfg)
            wall = time.perf_counter() - start
            texts = ((out / "episodes.csv").read_text(), (out / "summary.json").read_text())
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if compare:
            if self.reference is None:
                self.reference, self.bundle = texts, bundle
            elif texts != self.reference:
                print(f"perfbench: bundle of call {self.attempted} differs from the first",
                      file=sys.stderr)
                self.failed += 1
        return wall, bundle


def check_golden(runner: Runner, golden_input: str) -> None:
    """The fixed-input check, also the warm-up: GOLDEN_EPISODES episodes of the
    GOLDEN_SEED input must reproduce the seed commit's values within
    `tolerance.golden_rel`, relative to values above 1 and absolute below."""
    result = runner.call(compare=False, dataset=golden_input, master_seed=W.GOLDEN_SEED,
                         num_episodes=W.GOLDEN_EPISODES, dump_last_bank=True)
    if result is None:
        return
    expected = BASELINE["golden"][runner.workload]
    tol = BASELINE["tolerance"]["golden_rel"]
    for key, got in W.golden_values(result[1]).items():
        want = expected[key]
        if len(got) != len(want) or any(
            abs(a - b) > tol * max(1.0, abs(b)) for a, b in zip(got, want)
        ):
            print(f"perfbench: golden {key} {got} != {want}", file=sys.stderr)
            runner.failed += 1
            return


def check_band(runner: Runner) -> None:
    """The seeded input's aggregate must lie within the stated tolerance of the
    seed commit's mean over its reference seeds."""
    expected = BASELINE["band"][runner.workload]
    tol = BASELINE["tolerance"]["band_abs"]
    for key in ("mean_auroc", "mean_accuracy"):
        got = runner.bundle.aggregate[key]
        if abs(got - expected[key]) > tol:
            print(f"perfbench: {key} {got} outside {expected[key]} +- {tol}", file=sys.stderr)
            runner.failed += 1


def setup_seconds(workload: str, seed: int, dataset: str) -> float:
    """One load plus validation of the workload file in this fresh process,
    as each run_eval and each pool worker pays it, in reference seconds."""
    cfg = W.run_config(workload, dataset, seed, W.EPISODES_PER_CALL, None)
    T.calibrate()  # the first call pays numpy's lazy set-up
    before = T.calibrate()
    start = time.perf_counter()
    validate_dataset_for_config(read_dataset(dataset), cfg)
    elapsed = time.perf_counter() - start
    return T.reference_seconds(elapsed, (before + T.calibrate()) / 2)


def peak_rss_mb() -> float:
    """ru_maxrss (KiB on Linux) of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed_call(runner: Runner, workers: int) -> tuple[float, list[tuple[int, float]]] | None:
    """One call under the episode timer: its wall time less the calibrations,
    and each episode's time, all in reference seconds."""
    path = str(runner.workdir / "episode_times.txt")
    with T.episode_timer(path):
        result = runner.call(workers=workers)
    rows = T.read_episode_times(path)
    if result is None:
        return None
    if len(rows) != W.EPISODES_PER_CALL:
        raise SystemExit(f"perfbench: {len(rows)} episode timings for one call")
    wall = T.reference_wall(result[0], [row[1:] for row in rows], workers)
    return wall, [(index, T.reference_seconds(s, (b + a) / 2)) for index, s, b, a in rows]


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Timed calls for `seconds`. Throughput is the median over calls; an
    episode's time is its median over calls, and p50 and p90 are taken over the
    EPISODES_PER_CALL episodes."""
    workers = W.workers(runner.workload)
    walls: list[float] = []
    per_episode: dict[int, list[float]] = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        result = timed_call(runner, workers)
        if result is not None:
            walls.append(result[0])
            for index, s in result[1]:
                per_episode.setdefault(index, []).append(s)
    if not walls:
        return {}
    episode_s = [statistics.median(v) for v in per_episode.values()]
    agg = runner.bundle.aggregate
    return {
        "episodes_per_s": W.EPISODES_PER_CALL / statistics.median(walls),
        "episode_ms_p50": 1e3 * statistics.median(episode_s),
        "episode_ms_p90": 1e3 * statistics.quantiles(episode_s, n=10)[8],
        "peak_rss_mb": peak_rss_mb(),
        "mean_auroc": agg["mean_auroc"],
        "mean_accuracy": agg["mean_accuracy"],
        "_samples": {"calls": len(walls), "episodes": W.EPISODES_PER_CALL * len(walls)},
    }


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Alternates untraced and traced calls of one worker; with more workers
    also times the pool path untraced, for parallel efficiency. Traced calls
    run one worker because spans stay in the process that records them."""
    workers = W.workers(runner.workload)
    single: list[float] = []
    pooled: list[float] = []
    traced: list[float] = []
    tracer = T.Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        result = timed_call(runner, 1)
        if result is not None:
            single.append(result[0])
        if workers > 1:
            result = timed_call(runner, workers)
            if result is not None:
                pooled.append(result[0])
        first = len(tracer.episodes)
        with tracer.installed():
            result = runner.call(workers=1)
        if result is not None:
            traced.append(T.reference_wall(result[0], tracer.episodes[first:], 1))
    if not (single and traced and (pooled or workers == 1)):
        return {}
    tracer.write_spans(spans_path)
    metrics = tracer.report(episodes=W.EPISODES_PER_CALL * len(traced), calls=len(traced))
    single_s = statistics.median(single)
    metrics["pipeline.parallel_efficiency"] = (
        single_s / (workers * statistics.median(pooled)) if workers > 1 else 1.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(traced) / single_s
    metrics["_samples"] = {"calls": len(traced), "episodes": W.EPISODES_PER_CALL * len(traced)}
    return metrics


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        print(setup_seconds(argv[1], int(argv[2]), argv[3]))
        return 0
    workload, seed, input_path, golden_input, seconds, trace, workdir = argv
    runner = Runner(workload, input_path, int(seed), Path(workdir))
    check_golden(runner, golden_input)
    if W.workers(workload) > 1:
        # the one-worker bundle every pool-path bundle must equal byte for byte
        runner.call(workers=1)
    if trace == "1":
        W.OUT_DIR.mkdir(exist_ok=True)
        metrics = per_layer(runner, float(seconds), W.OUT_DIR / f"spans-{workload}.jsonl")
    else:
        metrics = end_to_end(runner, float(seconds))
    if not metrics:
        print("perfbench: no timed call succeeded", file=sys.stderr)
        return 1
    check_band(runner)
    report = {"attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    (Path(workdir) / "measured.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
