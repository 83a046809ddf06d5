"""Episodic few-shot open-set recognition on precomputed convolutional feature
maps: prototype classifiers with extra background rows, progressive
activation-map mining of background features, and episodic fine-tuning."""

import os

# One BLAS thread per process, whatever the environment: OpenBLAS's bytes for
# the fine-tune Gram product depend on its thread count. Read at numpy's import.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .classifier import build_known_prototypes, init_background, predict
from .episode import (
    EpisodeSpec,
    FeatureDataset,
    SyntheticConfig,
    benchmark_config,
    generate_synthetic,
    sample_episode,
)
from .featmap import minmax_norm, spatial_avg_pool
from .finetune import FinetuneConfig, finetune_bank
from .pipeline import RunConfig, run_eval
from .procam import ProCamConfig, cam, mine

__all__ = [
    "EpisodeSpec",
    "FeatureDataset",
    "FinetuneConfig",
    "ProCamConfig",
    "RunConfig",
    "SyntheticConfig",
    "benchmark_config",
    "build_known_prototypes",
    "cam",
    "finetune_bank",
    "generate_synthetic",
    "init_background",
    "mine",
    "minmax_norm",
    "predict",
    "run_eval",
    "sample_episode",
    "spatial_avg_pool",
]

__version__ = "0.1.0"
