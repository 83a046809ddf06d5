"""The benchmark's per-module run wraps names on `fsosr.pipeline` and reads
what they take and return. This runs it on a small evaluation, so a change to
those names or types fails here rather than only in the benchmark. Its
fixed-input check runs here too, on every workload."""

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fsosr.pipeline import RunConfig, run_eval

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
BASELINE = SPANS.with_name("baseline.json")


def _workloads():
    path = SPANS.with_name("workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# workloads.py imports only the standard library at its top, so it loads at
# collection and its workload names become the golden test's ids
W = _workloads()


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_traced_run_records_mining_and_loss_curves(spans, benchmark_dataset, tmp_path):
    path, ds, _ = benchmark_dataset
    tracer = spans.Tracer()
    cfg = RunConfig(dataset=str(path), num_episodes=2, num_background=1, output_dir=str(tmp_path))
    with tracer.installed():
        bundle = run_eval(cfg)
    assert len(bundle.episodes) == 2
    assert tracer.mined == [(25, ds.height, ds.width, ds.channels, cfg.iterations)] * 2
    assert len(tracer.norm_ratios) == 50
    assert [len(curve) for curve in tracer.loss_curves] == [cfg.epochs + 1] * 2
    report = tracer.report(episodes=2, calls=1)
    assert report["procam.supports_mined"] == 25
    # every item is pooled once, when the dataset is built; episodes gather
    # rows of the pooled matrix and call no pooling at all
    assert report["featmap.pool_calls"] == 0
    assert report["finetune.epochs"] == cfg.epochs
    # the known and the unknown queries of an episode are scored in one call
    assert report["classifier.predict_calls"] == 1
    assert report["pipeline.bundle_bytes"] > 0
    # accuracy and auroc once per episode on its arrays, aggregate once per run
    names = [span.name for span in tracer.spans]
    assert (names.count("accuracy"), names.count("auroc"), names.count("aggregate")) == (2, 2, 1)
    assert report["metrics.score_ms"] > 0


@pytest.fixture(scope="module")
def golden_input(tmp_path_factory):
    """The GOLDEN_SEED input of a workload's data kind, written once per kind."""
    root, written = tmp_path_factory.mktemp("golden"), {}

    def path(data):
        if data not in written:
            written[data] = root / f"{data}.fsof"
            W.write_input(data, W.GOLDEN_SEED, written[data])
        return written[data]

    return path


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_golden_values_match_baseline(golden_input, workload):
    # the benchmark's fixed-input check (perfbench/measure.py check_golden):
    # GOLDEN_EPISODES episodes of the GOLDEN_SEED input reproduce the
    # baseline's values within golden_rel, relative above 1, absolute below
    data = str(golden_input(W.WORKLOADS[workload]["data"]))
    cfg = W.run_config(workload, data, W.GOLDEN_SEED, W.GOLDEN_EPISODES, None)
    bundle = run_eval(dataclasses.replace(cfg, dump_last_bank=True))
    baseline = json.loads(BASELINE.read_text())
    expected, tol = baseline["golden"][workload], baseline["tolerance"]["golden_rel"]
    got = W.golden_values(bundle)
    assert got.keys() == expected.keys()
    for key, values in got.items():
        assert len(values) == len(expected[key]), key
        for a, b in zip(values, expected[key]):
            assert abs(a - b) <= tol * max(1.0, abs(b)), (key, a, b)


def test_setup_entry_prints_one_set_up_time(benchmark_dataset):
    # perfbench/measure.py's second form loads and validates the input with
    # read_dataset and validate_dataset_for_config, outside run_eval
    path, _, _ = benchmark_dataset
    measure = SPANS.with_name("measure.py")
    child = subprocess.run(
        [sys.executable, str(measure), "setup", "std-full", "1", str(path)],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    [line] = child.stdout.splitlines()
    seconds = float(line)
    assert math.isfinite(seconds) and seconds > 0
