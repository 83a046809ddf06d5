"""Workload definitions shared by run.py, measure.py and reference.py. Each
workload is a synthetic input (made from the seed) plus the `RunConfig` fields
that select the path through `run_eval`."""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"  # inputs and bundles, removed when a run ends
OUT_DIR = ROOT / ".perfbench-out"  # spans of the last traced run per workload

# Every workload evaluates this many episodes per run_eval call: enough for a
# mean AUROC that moves little between seeds, few enough that one run holds
# several calls to take a median over.
EPISODES_PER_CALL = 100
# The fixed-input check: this seed and episode count, whatever --seed is.
GOLDEN_SEED = 0
GOLDEN_EPISODES = 10

WORKLOADS: dict[str, dict] = {
    "std-full": {"data": "std", "run": {"n_way": 5}},
    "std-base": {
        "data": "std",
        "run": {"n_way": 5, "use_background_classes": False, "score_kind": "neg_max_known"},
    },
    "wide-full": {"data": "wide", "run": {"n_way": 10}},
    "std-full-2w": {"data": "std", "run": {"n_way": 5, "workers": 2}},
}


def pin_threads() -> None:
    """One BLAS thread per process, so workers x BLAS threads stays within the
    cores. Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program() -> None:
    """Put the program's sources on the path, or stop with exit code 2 when the
    checkout does not hold them."""
    if not (SRC / "fsosr" / "pipeline.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def workers(workload: str) -> int:
    return WORKLOADS[workload]["run"].get("workers", 1)


def synthetic_config(data: str, seed: int):
    from fsosr.episode import benchmark_config

    std = benchmark_config(seed)
    if data == "std":
        return std
    # The ResNet-12 feature shape (5x5x640) with the standard signal, noise and
    # background settings; benchmark_config's 6x6 regions do not fit a 5x5 map,
    # so the regions are laid out from the seed.
    return dataclasses.replace(
        std, num_classes=24, height=5, width=5, channels=640, fg_regions=None
    )


def write_input(data: str, seed: int, path) -> float:
    """Write the synthetic FSOF input for `seed`; returns the seconds it took."""
    from fsosr.dataset_io import write_dataset
    from fsosr.episode import generate_synthetic

    start = time.perf_counter()
    dataset, _ = generate_synthetic(synthetic_config(data, seed))
    write_dataset(dataset, path)
    return time.perf_counter() - start


def run_config(workload: str, dataset: str, seed: int, episodes: int, output_dir: str | None):
    from fsosr.pipeline import RunConfig

    return RunConfig(
        dataset=dataset,
        num_background=1,
        num_episodes=episodes,
        master_seed=seed,
        output_dir=output_dir,
        **WORKLOADS[workload]["run"],
    )


def golden_values(bundle) -> dict[str, list[float]]:
    """What the golden check compares: per-episode accuracy and AUROC, and,
    since both are rank-based, the last episode's prototype row norms and
    fine-tune loss curve, which move with any change to the arithmetic."""
    import numpy as np

    bank = bundle.last_bank
    rows = bank["known_weights"] + bank["background_weights"]
    return {
        "accuracy": [row["accuracy"] for row in bundle.episodes],
        "auroc": [row["auroc"] for row in bundle.episodes],
        "row_norms": [float(np.linalg.norm(row)) for row in rows],
        "loss_curve": list(bundle.last_loss["per_epoch_totals"]) if bundle.last_loss else [],
    }
