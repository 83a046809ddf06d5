"""Acceptance suite: one test per release criterion, each printing a verdict
line with its runtime. Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np
import pytest

from fsosr.classifier import build_known_prototypes, init_background
from fsosr.episode import EpisodeSpec, derive_episode_seed, sample_episode
from fsosr.featmap import minmax_norm
from fsosr.finetune import (
    GRADCHECK_THRESHOLD,
    FinetuneConfig,
    finetune_bank,
    gradcheck_report,
)
from fsosr.metrics import auroc
from fsosr.pipeline import RunConfig, run_eval
from fsosr.procam import ProCamConfig, cam, mask_iou, mine
from fsosr.dataset_io import read_dataset, write_dataset
from fsosr.episode import FeatureDataset


def _verdict(name, passed, elapsed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name} ({elapsed:.1f}s) {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_gradient_correctness():
    start = time.time()
    report = gradcheck_report(seed=2024, trials=20)
    elapsed = time.time() - start
    detail = f"prototype max rel err {report['prototype_gradient']:.2e}"
    ok = report["prototype_gradient"] < GRADCHECK_THRESHOLD and elapsed < 10.0
    _verdict("criterion 1: gradient correctness", ok, elapsed, detail)


def _pairwise_auroc(known, unknown):
    u = np.asarray(unknown)[:, None]
    k = np.asarray(known)[None, :]
    return float(((u > k).sum() + 0.5 * (u == k).sum()) / (u.size * k.size))


def _sweep_auroc(known, unknown, n_thresholds=10001):
    known = np.asarray(known, dtype=float)
    unknown = np.asarray(unknown, dtype=float)
    lo = min(known.min(), unknown.min()) - 1.0
    hi = max(known.max(), unknown.max()) + 1.0
    thresholds = np.linspace(hi, lo, n_thresholds)
    tpr = (unknown[None, :] >= thresholds[:, None]).mean(axis=1)
    fpr = (known[None, :] >= thresholds[:, None]).mean(axis=1)
    tpr = np.concatenate([[0.0], tpr, [1.0]])
    fpr = np.concatenate([[0.0], fpr, [1.0]])
    return float(np.trapezoid(tpr, fpr))


def test_criterion_2_auroc_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(99)
    worst_pair, worst_sweep = 0.0, 0.0
    for trial in range(100):
        n_known = int(rng.integers(5, 60))
        n_unknown = int(rng.integers(5, 60))
        if trial % 4 == 0:  # heavy ties: few distinct values
            known = rng.integers(0, 4, n_known) * 0.25
            unknown = rng.integers(0, 4, n_unknown) * 0.25
        elif trial % 4 == 1:  # all constant on one side
            known = np.full(n_known, 0.5)
            unknown = np.round(rng.uniform(0, 1, n_unknown), 3)
        else:  # lattice-valued scores (sweep stays exact)
            known = np.round(rng.uniform(0, 1, n_known), 3)
            unknown = np.round(rng.uniform(0.2, 1.2, n_unknown), 3)
        got = auroc(known.tolist(), unknown.tolist())
        worst_pair = max(worst_pair, abs(got - _pairwise_auroc(known, unknown)))
        worst_sweep = max(worst_sweep, abs(got - _sweep_auroc(known, unknown)))
    elapsed = time.time() - start
    ok = worst_pair < 1e-9 and worst_sweep < 1e-6 and elapsed < 5.0
    _verdict(
        "criterion 2: AUROC oracle equivalence", ok, elapsed,
        f"pairwise dev {worst_pair:.2e}, sweep dev {worst_sweep:.2e}",
    )


def test_criterion_3_procam_reductions_and_invariants():
    start = time.time()
    rng = np.random.default_rng(7)
    ok = True
    detail = ""
    for _ in range(50):
        fvals = rng.normal(size=(5, 5, 6))
        w = rng.normal(size=6)
        # tau=1 min-max reduction equality (exact), mining a one-map stack
        [single], _, _ = mine(fvals[None], w[None], ProCamConfig(iterations=1))
        expected = minmax_norm(cam(fvals, w))
        if not np.array_equal(single, expected):
            ok, detail = False, "tau=1 reduction mismatch"
            break
        [vals], _, trace = mine(fvals[None], w[None], ProCamConfig(iterations=4))
        # mask range
        if vals.min() < 0.0 or vals.max() > 1.0:
            ok, detail = False, "mask out of range"
            break
        # coverage monotonicity of the running sum
        running = np.zeros((5, 5))
        for [mask] in trace:
            nxt = running + mask
            if not np.all(nxt >= running - 1e-15):
                ok, detail = False, "coverage not monotone"
                break
            running = nxt
        # scale invariance across three orders of magnitude
        for alpha in (0.01, 1.0, 100.0):
            [scaled], _, _ = mine(alpha * fvals[None], w[None], ProCamConfig(iterations=4))
            if np.abs(scaled - vals).max() > 1e-9:
                ok, detail = False, f"scale invariance broken at alpha={alpha}"
                break
        if not ok:
            break
    elapsed = time.time() - start
    ok = ok and elapsed < 5.0
    _verdict("criterion 3: mining reductions and invariants", ok, elapsed, detail)


def test_criterion_4_trend_reproduction(benchmark_dataset):
    start = time.time()
    path, _, _ = benchmark_dataset
    common = dict(dataset=str(path), num_episodes=200, master_seed=123, num_background=1)
    baseline = run_eval(
        RunConfig(use_background_classes=False, score_kind="neg_max_known", **common)
    ).aggregate
    full = run_eval(RunConfig(**common)).aggregate
    gap = 100 * (full["mean_auroc"] - baseline["mean_auroc"])
    acc_drop = 100 * (baseline["mean_accuracy"] - full["mean_accuracy"])
    elapsed = time.time() - start
    detail = (
        f"baseline acc/auroc {100 * baseline['mean_accuracy']:.2f}/{100 * baseline['mean_auroc']:.2f}, "
        f"full {100 * full['mean_accuracy']:.2f}/{100 * full['mean_auroc']:.2f}, "
        f"gap {gap:+.2f} (need >= 2), acc drop {acc_drop:+.2f} (cap 1)"
    )
    ok = gap >= 2.0 and acc_drop <= 1.0 and elapsed < 120.0
    _verdict("criterion 4: trend reproduction", ok, elapsed, detail)


def test_criterion_5_tau_sweep_direction(benchmark_dataset):
    start = time.time()
    path, ds, masks = benchmark_dataset
    # mask quality: mining with the exact class signature direction
    signatures = np.eye(ds.channels)
    mean_ious = []
    for tau in (1, 2, 3, 4):
        cfg = ProCamConfig(iterations=tau)
        # each item mined as a one-map stack
        vals = [
            mask_iou(mine(ds.values[[i]].astype(np.float64), signatures[[label]], cfg)[0][0], masks[i])
            for i, label in enumerate(ds.labels)
        ]
        mean_ious.append(float(np.mean(vals)))
    non_decreasing = all(mean_ious[i] <= mean_ious[i + 1] + 1e-12 for i in range(3))
    # detection direction: the tau effect surfaces under a stronger background
    # loss weight; lr, epochs and the rest stay at their defaults
    common = dict(dataset=str(path), num_episodes=200, master_seed=123, num_background=1,
                  bkg_loss_weight=0.2)
    auroc_tau1 = run_eval(RunConfig(iterations=1, **common)).aggregate["mean_auroc"]
    auroc_tau4 = run_eval(RunConfig(iterations=4, **common)).aggregate["mean_auroc"]
    elapsed = time.time() - start
    detail = (
        f"IoU by tau {[round(v, 3) for v in mean_ious]}, "
        f"auroc tau4-tau1 {100 * (auroc_tau4 - auroc_tau1):+.2f}"
    )
    ok = non_decreasing and auroc_tau4 >= auroc_tau1 and elapsed < 180.0
    _verdict("criterion 5: tau sweep direction", ok, elapsed, detail)


def test_criterion_6_finetune_descent(benchmark_dataset):
    start = time.time()
    _, ds, _ = benchmark_dataset
    descended = 0
    n_episodes = 200
    for i in range(n_episodes):
        episode = sample_episode(ds, EpisodeSpec(), derive_episode_seed(123, i, 0))
        sup = ds.embeddings[episode.support]
        labels = episode.support_labels
        known = build_known_prototypes(sup, labels, 5, 5)
        stack = ds.values[episode.support].astype(np.float64)
        _, bgs, _ = mine(stack, known[labels], ProCamConfig(iterations=4))
        background = init_background(ds.channels, "random", 1, seed=derive_episode_seed(123, i, 1))
        _, report = finetune_bank(np.vstack([known, background]), 5, sup, labels, bgs, FinetuneConfig())
        if report.per_epoch_totals[-1] < report.per_epoch_totals[0]:
            descended += 1
    elapsed = time.time() - start
    fraction = descended / n_episodes
    ok = fraction >= 0.95 and elapsed < 60.0
    _verdict(
        "criterion 6: fine-tune descent", ok, elapsed,
        f"{descended}/{n_episodes} episodes descended",
    )


def test_criterion_7_determinism(benchmark_dataset, tmp_path):
    start = time.time()
    path, _, _ = benchmark_dataset
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / name
        run_eval(RunConfig(dataset=str(path), num_episodes=100, master_seed=55,
                           num_background=1, workers=workers, output_dir=str(out)))
        outputs.append(((out / "episodes.csv").read_bytes(), (out / "summary.json").read_bytes()))
    elapsed = time.time() - start
    identical = outputs[0] == outputs[1] == outputs[2]
    ok = identical and elapsed < 120.0
    _verdict(
        "criterion 7: determinism across reruns and worker counts", ok, elapsed,
        "byte-identical bundles" if identical else "bundles differ",
    )


def test_criterion_8_format_round_trip(tmp_path):
    start = time.time()
    rng = np.random.default_rng(11)
    h, w, d = 8, 8, 16
    vals = rng.normal(size=(1000, h, w, d)).astype(np.float32).astype(np.float64)
    ds = FeatureDataset(vals, np.arange(1000) % 10)
    path = tmp_path / "large.fsof"
    write_dataset(ds, path)
    expected_size = 10 + 1000 * (10 + 4 * h * w * d)
    size_ok = path.stat().st_size == expected_size
    back = read_dataset(path)
    values_ok = np.array_equal(ds.labels, back.labels) and np.array_equal(ds.values, back.values)
    elapsed = time.time() - start
    ok = size_ok and values_ok and elapsed < 5.0
    _verdict(
        "criterion 8: format round trip", ok, elapsed,
        f"size {'exact' if size_ok else 'WRONG'}, values {'identical' if values_ok else 'DIFFer'}",
    )


def test_criterion_9_init_strategy_ablation(benchmark_dataset, tmp_path):
    start = time.time()
    path, _, _ = benchmark_dataset
    aggregates = {}
    for kind in ("random", "avg", "global"):
        bundle = run_eval(RunConfig(dataset=str(path), num_episodes=60, master_seed=321,
                                    num_background=1, init_kind=kind))
        agg = bundle.aggregate
        aggregates[kind] = agg
        assert agg["n_episodes"] == 60
        assert 0.0 <= agg["mean_auroc"] <= 1.0 and 0.0 <= agg["mean_accuracy"] <= 1.0
    out1, out2 = tmp_path / "rep1", tmp_path / "rep2"
    run_eval(RunConfig(dataset=str(path), num_episodes=60, master_seed=321,
                       num_background=1, init_kind="random", output_dir=str(out1)))
    run_eval(RunConfig(dataset=str(path), num_episodes=60, master_seed=321,
                       num_background=1, init_kind="random", output_dir=str(out2)))
    repeatable = (out1 / "episodes.csv").read_bytes() == (out2 / "episodes.csv").read_bytes()
    elapsed = time.time() - start
    summary = ", ".join(
        f"{kind} acc/auroc {100 * a['mean_accuracy']:.1f}/{100 * a['mean_auroc']:.1f}"
        for kind, a in aggregates.items()
    )
    ok = repeatable and elapsed < 120.0
    _verdict("criterion 9: init-strategy ablation harness", ok, elapsed, summary)
