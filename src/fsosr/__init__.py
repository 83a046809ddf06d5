"""Episodic few-shot open-set recognition on precomputed convolutional feature
maps: prototype classifiers with extra background rows, progressive
activation-map mining of background features, and episodic fine-tuning."""

from .classifier import (
    InitStrategy,
    Prediction,
    PrototypeBank,
    ScoreVector,
    build_known_prototypes,
    cosine_scores,
    init_background,
    predict,
    unknownness_score,
)
from .episode import (
    Episode,
    EpisodeSpec,
    FeatureDataset,
    SyntheticConfig,
    benchmark_config,
    derive_episode_seed,
    generate_synthetic,
    sample_episode,
)
from .featmap import (
    ActivationMap,
    EmbeddingVector,
    FeatureMap,
    mask_apply,
    minmax_norm,
    spatial_avg_pool,
    spatial_softmax,
)
from .finetune import FinetuneConfig, LossReport, finetune_bank, grad_wrt_prototypes
from .metrics import AggregateMetrics, EpisodeMetrics, accuracy, aggregate, auroc
from .pipeline import ResultsBundle, RunConfig, gradcheck_report, run_eval
from .procam import ProCamConfig, ProCamResult, background_embedding, cam, mask_iou, procam, procam_for_support

__all__ = [
    "ActivationMap",
    "AggregateMetrics",
    "EmbeddingVector",
    "Episode",
    "EpisodeMetrics",
    "EpisodeSpec",
    "FeatureDataset",
    "FeatureMap",
    "FinetuneConfig",
    "InitStrategy",
    "LossReport",
    "Prediction",
    "ProCamConfig",
    "ProCamResult",
    "PrototypeBank",
    "ResultsBundle",
    "RunConfig",
    "ScoreVector",
    "SyntheticConfig",
    "accuracy",
    "aggregate",
    "auroc",
    "background_embedding",
    "benchmark_config",
    "build_known_prototypes",
    "cam",
    "cosine_scores",
    "derive_episode_seed",
    "finetune_bank",
    "generate_synthetic",
    "grad_wrt_prototypes",
    "gradcheck_report",
    "init_background",
    "mask_apply",
    "mask_iou",
    "minmax_norm",
    "predict",
    "procam",
    "procam_for_support",
    "run_eval",
    "sample_episode",
    "spatial_avg_pool",
    "spatial_softmax",
    "unknownness_score",
]

__version__ = "0.1.0"
