"""The benchmark's per-module run wraps names on `fsosr.pipeline` and reads
what they take and return. This runs it on a small evaluation, so a change to
those names or types fails here rather than only in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import pytest

from fsosr.pipeline import RunConfig, run_eval

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
    # one pooling call each for the supports, the known and the unknown queries
    assert report["featmap.pool_calls"] == 3
    assert report["finetune.epochs"] == cfg.epochs
    assert report["pipeline.bundle_bytes"] > 0
    # accuracy and auroc once per episode on its arrays, aggregate once per run
    names = [span.name for span in tracer.spans]
    assert (names.count("accuracy"), names.count("auroc"), names.count("aggregate")) == (2, 2, 1)
    assert report["metrics.score_ms"] > 0
