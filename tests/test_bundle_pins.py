"""Pinned `episodes.csv` bytes of `fsosr eval` on the standard benchmark file
(the `gen-synthetic --benchmark` output, whose bytes
test_dataset_io.py pins): 200 episodes, seed 123, one background row unless a
mode says otherwise. A change to what an episode samples, mines, fine-tunes or
scores moves a digest. `summary.json` is compared only between worker counts:
its fine-tuned bank is only tolerance-equal across code versions (README,
Reproducibility)."""

import hashlib

import pytest

from fsosr import cli

# flags after the common ones, and the sha256 of the episodes.csv they write;
# the dump and pooled-AUROC flags add to summary.json only
MODES = {
    "full": ([], "5430b8fcedab180df3cdd25ab70b0c753fc1ad35e355fe4543b81c46ac33510b"),
    "no-background": (
        ["--no-background"], "63b0eccb01da8da43aeba8ed9e370fe2a1ee35823c269e232f7c10385811cd31"
    ),
    "no-finetune": (
        ["--no-finetune"], "7465634952e43b03e63695a161fad93bff0928d40f940d7ba93cb5fa1a48959c"
    ),
    "init-avg": (
        ["--init", "avg"], "9a47f1a2b8c87bf85d31786050267cbcff7532ab1f511d63c5d2944aa00313e0"
    ),
    "init-global": (
        ["--init", "global"], "26b541ffc4d3eaad0cb1658c84b4354cf1346599964c541c6b73b8953b9e52b8"
    ),
    "freeze-known-3-rows": (
        ["--freeze-known", "--n-background", "3"],
        "4f68583b5d72d958b0ffc18a891e47dc43f047a699ba054e23876af8c6caf6ed",
    ),
    "fixed-labels-softmax-dump": (
        ["--fixed-pseudo-labels", "--norm", "softmax", "--dump-last-bank"],
        "e86d28be1cfdc8d0e7c15972a50470a45885b59e6863f93b34490e9879c21d25",
    ),
    "two-workers-pooled-dump": (
        ["--workers", "2", "--pooled-auroc", "--dump-last-bank"],
        "5430b8fcedab180df3cdd25ab70b0c753fc1ad35e355fe4543b81c46ac33510b",
    ),
    "pooled-dump": (
        ["--pooled-auroc", "--dump-last-bank"],
        "5430b8fcedab180df3cdd25ab70b0c753fc1ad35e355fe4543b81c46ac33510b",
    ),
    "no-background-dump": (
        ["--no-background", "--dump-last-bank"],
        "63b0eccb01da8da43aeba8ed9e370fe2a1ee35823c269e232f7c10385811cd31",
    ),
}


@pytest.fixture(scope="module")
def bundles(benchmark_dataset, tmp_path_factory):
    """Each mode's (episodes.csv, summary.json) bytes, one eval run each."""
    path, _, _ = benchmark_dataset
    root = tmp_path_factory.mktemp("pins")
    common = ["eval", "--dataset", str(path), "--num-episodes", "200", "--seed", "123",
              "--n-background", "1"]
    out = {}
    for name, (flags, _) in MODES.items():
        assert cli.main(common + flags + ["--out", str(root / name)]) == 0
        out[name] = ((root / name / "episodes.csv").read_bytes(), (root / name / "summary.json").read_bytes())
    return out


@pytest.mark.parametrize("mode", MODES)
def test_episodes_csv_is_pinned(bundles, mode):
    assert hashlib.sha256(bundles[mode][0]).hexdigest() == MODES[mode][1]


def test_two_workers_write_the_one_worker_bundle(bundles):
    assert bundles["two-workers-pooled-dump"] == bundles["pooled-dump"]
