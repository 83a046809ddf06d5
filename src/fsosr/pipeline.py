"""End-to-end episode evaluation: configuration, the per-episode pipeline
(sample, prototype, mine, fine-tune, score), results bundles on disk, and the
randomized finite-difference gradient check harness."""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .classifier import (
    INIT_AVG,
    INIT_GLOBAL,
    INIT_KINDS,
    SCORE_KINDS,
    PrototypeBank,
    build_known_prototypes,
    init_background,
    predict,
)
from .dataset_io import read_dataset
from .episode import EpisodeSpec, FeatureDataset, derive_episode_seed, sample_episode
from .featmap import FeatureMap
# Pooling happens once, when the dataset is built, and no episode calls this;
# it stays importable here because the benchmark's tracer wraps every name it
# times (perfbench/spans.py TRACED) on this module.
from .featmap import spatial_avg_pool  # noqa: F401
from .finetune import FinetuneConfig, finetune_bank, grad_wrt_prototypes, prototype_batch_loss
from .metrics import accuracy, aggregate, auroc
from .procam import ProCamConfig, procam_for_support

BUNDLE_FORMAT_VERSION = 1


@dataclass
class RunConfig:
    """Everything a full evaluation run needs. The stage toggles compose the
    ablation ladder: plain prototype classifier, plus background rows, plus
    mined-background fine-tuning of the background rows only (freeze_known),
    plus fine-tuning all rows, with iterations > 1 switching single-pass
    activation maps to progressive mining."""

    dataset: str
    n_way: int = EpisodeSpec.n_way
    k_shot: int = EpisodeSpec.k_shot
    n_query: int = EpisodeSpec.n_query
    n_open_classes: int = EpisodeSpec.n_open_classes
    n_open_query: int | None = None
    iterations: int = ProCamConfig.iterations
    norm_kind: str = ProCamConfig.norm_kind
    epochs: int = FinetuneConfig.epochs
    learning_rate: float = FinetuneConfig.learning_rate
    bkg_loss_weight: float = FinetuneConfig.bkg_loss_weight
    temperature: float = FinetuneConfig.temperature
    reassign_each_epoch: bool = FinetuneConfig.reassign_each_epoch
    init_kind: str = "random"
    num_background: int = 2
    num_episodes: int = 600
    master_seed: int = 0
    use_background_classes: bool = True
    use_procam_finetune: bool = True
    freeze_known: bool = FinetuneConfig.freeze_known
    score_kind: str = "margin"
    pooled_auroc: bool = False
    output_dir: str | None = None
    workers: int = 1
    dump_last_bank: bool = False

    def __post_init__(self) -> None:
        """Fail at construction on any setting an episode would reject: the
        episode, mining and fine-tune configs validate themselves here once."""
        if self.init_kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.init_kind!r}, expected one of {INIT_KINDS}")
        if self.score_kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.score_kind!r}, expected one of {SCORE_KINDS}")
        self.episode_spec(0)
        self.procam_config()
        self.finetune_config()
        if self.num_episodes < 1:
            raise ValueError("num_episodes must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.use_background_classes and self.num_background < 1:
            raise ValueError("background classes enabled but num_background < 1")

    def resolved_open_query(self) -> int:
        return self.n_query if self.n_open_query is None else self.n_open_query

    def _stage(self, config, **given):
        """A stage config whose fields are this config's fields of the same
        names, except those given."""
        return config(
            **{f.name: getattr(self, f.name) for f in fields(config) if f.name not in given},
            **given,
        )

    def episode_spec(self, seed: int) -> EpisodeSpec:
        return self._stage(EpisodeSpec, n_open_query=self.resolved_open_query(), seed=seed)

    def procam_config(self) -> ProCamConfig:
        return self._stage(ProCamConfig)

    def finetune_config(self) -> FinetuneConfig:
        return self._stage(FinetuneConfig)

    def snapshot(self) -> dict:
        """Result-affecting configuration only. Execution details (workers,
        output paths, dump flags) are excluded so identical configs yield
        byte-identical bundles no matter how the run was executed."""
        episode = asdict(self.episode_spec(0))
        del episode["seed"]
        return {
            "dataset": self.dataset,
            "episode": episode,
            "procam": asdict(self.procam_config()),
            "finetune": asdict(self.finetune_config()),
            "init": {"kind": self.init_kind, "num_background": self.num_background},
            "stages": {
                "use_background_classes": self.use_background_classes,
                "use_procam_finetune": self.use_procam_finetune,
                "score_kind": self.score_kind,
            },
            "num_episodes": self.num_episodes,
            "master_seed": self.master_seed,
            "pooled_auroc": self.pooled_auroc,
        }


@dataclass
class ResultsBundle:
    """Per-episode rows plus the aggregate, reproducible bit-for-bit from the
    config snapshot and master seed."""

    format_version: int
    config: dict
    episodes: list[dict]
    aggregate: dict
    pooled_auroc: float | None = None
    last_bank: dict | None = None
    last_loss: dict | None = None

    def episodes_csv_text(self) -> str:
        lines = ["episode,seed,accuracy,auroc"]
        for row in self.episodes:
            lines.append(f"{row['episode']},{row['seed']},{row['accuracy']!r},{row['auroc']!r}")
        return "\n".join(lines) + "\n"

    def summary_json_text(self) -> str:
        payload = {
            "format_version": self.format_version,
            "config": self.config,
            "aggregate": self.aggregate,
        }
        if self.pooled_auroc is not None:
            payload["pooled_auroc"] = self.pooled_auroc
        if self.last_bank is not None:
            payload["last_bank"] = self.last_bank
        if self.last_loss is not None:
            payload["last_loss"] = self.last_loss
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write(self, output_dir) -> tuple[Path, Path]:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "episodes.csv"
        json_path = out / "summary.json"
        csv_path.write_text(self.episodes_csv_text())
        json_path.write_text(self.summary_json_text())
        return csv_path, json_path


def validate_dataset_for_config(ds: FeatureDataset, cfg: RunConfig) -> None:
    """Fail with a descriptive error before any episode runs."""
    need_classes = cfg.n_way + cfg.n_open_classes
    if ds.num_classes < need_classes:
        raise ValueError(
            f"dataset has {ds.num_classes} classes but episodes need {need_classes} "
            f"({cfg.n_way} closed + {cfg.n_open_classes} open)"
        )
    need_items = max(cfg.k_shot + cfg.n_query, cfg.resolved_open_query())
    smallest = min((len(idx), c) for c, idx in ds.class_index.items())
    if smallest[0] < need_items:
        raise ValueError(
            f"class {smallest[1]} has {smallest[0]} items but episodes may need {need_items}"
        )


def evaluate_episode(
    ds: FeatureDataset, cfg: RunConfig, index: int, carried: np.ndarray | None = None
) -> dict:
    """Run the full pipeline for episode `index` and return a plain record:
    sample, build known prototypes, mine backgrounds, init and fine-tune the
    background rows, then score the known and the unknown queries, each group
    as one matrix. The background rows start from `carried` when given (the
    previous episode's rows under init=global), else from init_background with
    the episode's own seed; the record's "background" holds their final
    values. Only the last episode of a run with dump_last_bank serialises its
    bank and loss report. Any failure is re-raised as a RuntimeError naming
    the episode index and sample seed, chained to the original exception."""
    sample_seed = derive_episode_seed(cfg.master_seed, index, stream=0)
    try:
        episode = sample_episode(ds, cfg.episode_spec(sample_seed))
        support = ds.embeddings[episode.support]
        bank = build_known_prototypes(support, episode.support_labels, cfg.n_way, cfg.k_shot)

        loss_report = None
        if cfg.use_background_classes:
            needs_mining = cfg.use_procam_finetune or cfg.init_kind == INIT_AVG
            bg_embeddings = None
            if needs_mining:
                maps = [
                    (FeatureMap.view(ds.values[i]), c)
                    for i, c in zip(episode.support, episode.support_labels)
                ]
                pairs = procam_for_support(maps, bank, cfg.procam_config())
                bg_embeddings = np.stack([bg.values for _, bg in pairs])
            if carried is not None:
                bank = bank.with_background(carried)
            else:
                init_seed = derive_episode_seed(cfg.master_seed, index, stream=1)
                bank = init_background(
                    bank, cfg.init_kind, cfg.num_background, init_seed, bg_embeddings
                )
            if cfg.use_procam_finetune:
                bank, loss_report = finetune_bank(
                    bank, support, episode.support_labels, bg_embeddings, cfg.finetune_config()
                )

        rows, known_scores = predict(bank, ds.embeddings[episode.known_queries], cfg.score_kind)
        _, unknown_scores = predict(bank, ds.embeddings[episode.unknown_queries], cfg.score_kind)
        dump = cfg.dump_last_bank and index == cfg.num_episodes - 1
        return {
            "episode": index,
            "seed": sample_seed,
            "accuracy": accuracy(rows, episode.known_labels),
            "auroc": auroc(known_scores, unknown_scores),
            "known_scores": known_scores,
            "unknown_scores": unknown_scores,
            "background": bank.background_weights,
            "bank": bank.to_dict() if dump else None,
            "loss": loss_report.to_dict() if dump and loss_report else None,
        }
    except Exception as exc:
        raise RuntimeError(
            f"episode {index} (sample seed {sample_seed}) failed: {type(exc).__name__}: {exc}"
        ) from exc


_WORKER_STATE: dict = {}


def _worker_init(cfg: RunConfig, ds: FeatureDataset) -> None:
    _WORKER_STATE["cfg"] = cfg
    _WORKER_STATE["ds"] = ds


def _worker_run(index: int) -> dict:
    return evaluate_episode(_WORKER_STATE["ds"], _WORKER_STATE["cfg"], index)


def run_eval(cfg: RunConfig, ds: FeatureDataset | None = None) -> ResultsBundle:
    """Evaluate num_episodes episodes and assemble (and optionally write) the
    results bundle. ds is cfg.dataset when the caller has read it already;
    pool workers evaluate on this same ds, which they inherit when forked.
    Under init=global each episode starts
    from the previous episode's final background rows, so it always runs on a
    single worker."""
    if ds is None:
        ds = read_dataset(cfg.dataset)
    validate_dataset_for_config(ds, cfg)

    workers = 1 if cfg.init_kind == INIT_GLOBAL else cfg.workers
    if workers == 1:
        records, carried = [], None
        for i in range(cfg.num_episodes):
            records.append(evaluate_episode(ds, cfg, i, carried))
            if cfg.init_kind == INIT_GLOBAL:
                carried = records[-1]["background"]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(cfg, ds)
        ) as pool:
            records = list(pool.map(_worker_run, range(cfg.num_episodes), chunksize=8))

    agg = aggregate([r["accuracy"] for r in records], [r["auroc"] for r in records])

    pooled = None
    if cfg.pooled_auroc:
        pooled = auroc(
            np.concatenate([r["known_scores"] for r in records]),
            np.concatenate([r["unknown_scores"] for r in records]),
        )

    bundle = ResultsBundle(
        format_version=BUNDLE_FORMAT_VERSION,
        config=cfg.snapshot(),
        episodes=[
            {"episode": r["episode"], "seed": r["seed"], "accuracy": r["accuracy"], "auroc": r["auroc"]}
            for r in records
        ],
        aggregate=agg,
        pooled_auroc=pooled,
        last_bank=records[-1]["bank"],
        last_loss=records[-1]["loss"],
    )
    if cfg.output_dir is not None:
        bundle.write(cfg.output_dir)
    return bundle


def finite_difference(fn: Callable[[np.ndarray], float], x0: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Fourth-order central finite differences of a scalar function, entry by
    entry: (-f(x+2h) + 8f(x+h) - 8f(x-h) + f(x-2h)) / 12h. Its truncation error
    is O(h^4), so a large step keeps round-off small as well."""
    x = np.array(x0, dtype=np.float64, copy=True)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        probes = []
        for offset in (2.0, 1.0, -1.0, -2.0):
            flat[i] = orig + offset * step
            probes.append(fn(x))
        flat[i] = orig
        out[i] = (8.0 * (probes[1] - probes[2]) - (probes[0] - probes[3])) / (12.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float((np.abs(analytic - numeric) / denom).max())


DEFAULT_PROTOTYPE_SHAPES: tuple[tuple[int, int, int], ...] = (
    (5, 1, 8),
    (5, 2, 8),
    (5, 5, 8),
    (5, 1, 64),
    (5, 2, 64),
    (5, 5, 64),
)
GRADCHECK_THRESHOLD = 1e-4


def _random_prototype_case(rng: np.random.Generator, shape: tuple[int, int, int]):
    """A random bank and batch: embeddings, joint row labels, item weights."""
    n_known, n_background, dim = shape
    num_rows = n_known + n_background
    rows = rng.normal(size=(num_rows, dim))
    bank = PrototypeBank(rows[:n_known], rows[n_known:])
    labels, embeddings = [], []
    for _ in range(num_rows):
        labels.append(int(rng.integers(0, num_rows)))
        embeddings.append(rng.normal(size=dim))
    labels = np.array(labels)
    return bank, np.array(embeddings), labels, np.where(labels < n_known, 1.0, 0.05)


def gradcheck_report(
    seed: int = 0,
    trials: int = 20,
    prototype_shapes: Sequence[tuple[int, int, int]] = DEFAULT_PROTOTYPE_SHAPES,
    temperature: float = 10.0,
    perturb: float = 0.0,
) -> dict:
    """Randomized finite-difference check of the analytic prototype gradient,
    the one finetune_bank steps along.

    `perturb` adds a constant offset to the analytic gradient; it exists so a
    broken gradient demonstrably fails the check.
    """
    rng = np.random.default_rng(seed)
    proto_err = 0.0
    for t in range(trials):
        bank, embeddings, labels, weights = _random_prototype_case(
            rng, tuple(prototype_shapes[t % len(prototype_shapes)])
        )
        analytic = grad_wrt_prototypes(bank, embeddings, labels, weights, temperature) + perturb
        numeric = finite_difference(
            lambda w: prototype_batch_loss(
                w.reshape(bank.num_rows, bank.dim), embeddings, labels, weights, temperature
            ),
            bank.all_weights().reshape(-1),
        ).reshape(bank.num_rows, bank.dim)
        proto_err = max(proto_err, max_relative_error(analytic, numeric))

    return {
        "prototype_gradient": proto_err,
        "threshold": GRADCHECK_THRESHOLD,
        "passed": proto_err < GRADCHECK_THRESHOLD,
    }


def gradcheck_command(
    seed: int = 0, trials: int = 20, perturb: float = 0.0, printer: Callable[[str], None] = print
) -> int:
    """Run the gradient check, print one result line, return a shell exit code
    (0 pass, 1 fail)."""
    report = gradcheck_report(seed=seed, trials=trials, perturb=perturb)
    verdict = "PASS" if report["passed"] else "FAIL"
    printer(
        f"prototype_gradient: max relative error {report['prototype_gradient']:.3e} "
        f"(threshold {report['threshold']:.0e}) {verdict}"
    )
    return 0 if report["passed"] else 1
