"""End-to-end episode evaluation: configuration, the per-episode pipeline
(sample, prototype, mine, fine-tune, score) and results bundles on disk."""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import operator
import os
import sys
import traceback
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .classifier import (
    INIT_AVG,
    INIT_GLOBAL,
    INIT_KINDS,
    SCORE_KINDS,
    build_known_prototypes,
    init_background,
    predict,
)
from .dataset_io import read_dataset
from .episode import EpisodeSpec, FeatureDataset, derive_episode_seed, sample_episode
# Pooling happens once, when the dataset is built, and no episode calls this;
# it stays importable here because the benchmark's tracer wraps every name it
# times (perfbench/spans.py TRACED) on this module.
from .episode import spatial_avg_pool  # noqa: F401
from .finetune import FinetuneConfig, finetune_bank
from .metrics import accuracy, aggregate, auroc
from .procam import ProCamConfig, mine

BUNDLE_FORMAT_VERSION = 1
CHUNK_EPISODES = 8  # episodes a process of a run claims at a time
BUNDLE_FILES = ("episodes.csv", "summary.json")  # what ResultsBundle.write writes into its directory


@dataclass(frozen=True)
class RunConfig:
    """Everything a full evaluation run needs. The stage toggles compose the
    ablation ladder: plain prototype classifier, plus background rows, plus
    mined-background fine-tuning of the background rows only (freeze_known),
    plus fine-tuning all rows, with iterations > 1 switching single-pass
    activation maps to progressive mining. Frozen, so that the stage configs
    built at construction always match its fields."""

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
        episode, mining and fine-tune configs validate themselves here once,
        and stay as the attributes `episode`, `procam` and `finetune`."""
        if self.init_kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.init_kind!r}, expected one of {INIT_KINDS}")
        if self.score_kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.score_kind!r}, expected one of {SCORE_KINDS}")
        open_query = self.n_query if self.n_open_query is None else self.n_open_query
        self._stage("episode", EpisodeSpec, n_open_query=open_query)
        self._stage("procam", ProCamConfig)
        self._stage("finetune", FinetuneConfig)
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.num_episodes < 1:
            raise ValueError("num_episodes must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.use_background_classes and self.num_background < 1:
            raise ValueError("background classes enabled but num_background < 1")
        mined = self.n_way * self.k_shot  # one background per support item
        if self.use_background_classes and self.init_kind == INIT_AVG and self.num_background > mined:
            raise ValueError(
                f"avg initialization averages the n_way * k_shot = {mined} mined backgrounds, "
                f"so num_background must be <= {mined} (got {self.num_background})"
            )

    def _stage(self, name: str, config, **given) -> None:
        """Set attribute `name` to a stage config whose fields are this
        config's fields of the same names, except those given."""
        fixed = {f.name: getattr(self, f.name) for f in fields(config) if f.name not in given}
        object.__setattr__(self, name, config(**fixed, **given))

    def snapshot(self) -> dict:
        """Result-affecting configuration only. Execution details (workers,
        output paths, dump flags) are excluded so identical configs yield
        byte-identical bundles no matter how the run was executed."""
        return {
            "dataset": self.dataset,
            "episode": asdict(self.episode),
            "procam": asdict(self.procam),
            "finetune": asdict(self.finetune),
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
            "format_version": BUNDLE_FORMAT_VERSION,
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
        csv_path, json_path = (out / name for name in BUNDLE_FILES)
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
    need_items = max(cfg.k_shot + cfg.n_query, cfg.episode.n_open_query)
    smallest = min((len(idx), c) for c, idx in enumerate(ds.class_index))
    if smallest[0] < need_items:
        raise ValueError(
            f"class {smallest[1]} has {smallest[0]} items but episodes may need {need_items}"
        )


class _Held:
    """One item's map or embedding array, held as it is, for the benchmark's
    tracer: it reads a map's height, width and channels and each pair's values
    from procam_for_support's arguments and return."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


def procam_for_support(
    supports: list[tuple[_Held, int]], known: np.ndarray, cfg: ProCamConfig, foregrounds: np.ndarray
) -> list[tuple[_Held, _Held]]:
    """The (foreground, background) pair of every (map, label) support, in
    order: the maps are mined as one stack, widened to float64 as it is built,
    each with its label's row of the known prototypes, and the foregrounds are
    the caller's pooled (n, d) rows."""
    stack = np.array([fmap.values for fmap, _ in supports], dtype=np.float64)
    _, backgrounds, _ = mine(stack, known[[label for _, label in supports]], cfg)
    return [(_Held(fg), _Held(bg)) for fg, bg in zip(foregrounds, backgrounds)]


def evaluate_episode(
    ds: FeatureDataset, cfg: RunConfig, index: int, carried: np.ndarray | None = None
) -> dict:
    """Run the full pipeline for episode `index` and return a plain record:
    sample, build known prototypes, mine backgrounds, init and fine-tune the
    background rows, then score the known queries and the unknown ones after
    them as one matrix. The background rows start from `carried` when given
    (the previous episode's rows under init=global), else from init_background
    with the episode's own seed. The record holds the episode's index, seed,
    accuracy, AUROC and both score arrays, its final float64 "bank" with the
    known rows first, and its fine-tune "loss" report (None when nothing was
    fine-tuned). Any failure is re-raised as a RuntimeError naming the
    episode index and sample seed, chained to the original exception."""
    sample_seed = derive_episode_seed(cfg.master_seed, index, stream=0)
    try:
        episode = sample_episode(ds, cfg.episode, sample_seed)
        support = ds.embeddings[episode.support]
        bank = build_known_prototypes(support, episode.support_labels, cfg.n_way, cfg.k_shot)

        loss_report = None
        if cfg.use_background_classes:
            needs_mining = cfg.use_procam_finetune or cfg.init_kind == INIT_AVG
            bg_embeddings = None
            if needs_mining:
                # Python ints: the maps are indexed one at a time
                maps = [
                    (_Held(ds.values[i]), c)
                    for i, c in zip(episode.support.tolist(), episode.support_labels.tolist())
                ]
                pairs = procam_for_support(maps, bank, cfg.procam, support)
                bg_embeddings = np.array([bg.values for _, bg in pairs])
            if carried is None:
                init_seed = derive_episode_seed(cfg.master_seed, index, stream=1)
                carried = init_background(
                    bank.shape[1], cfg.init_kind, cfg.num_background, init_seed, bg_embeddings
                )
            bank = np.concatenate([bank, carried])
            if cfg.use_procam_finetune:
                bank, loss_report = finetune_bank(
                    bank, cfg.n_way, support, episode.support_labels, bg_embeddings, cfg.finetune
                )

        n_known = len(episode.known_queries)
        queries = np.concatenate([episode.known_queries, episode.unknown_queries])
        rows, scores = predict(bank, cfg.n_way, ds.embeddings[queries], cfg.score_kind)
        known_scores, unknown_scores = scores[:n_known], scores[n_known:]
        return {
            "episode": index,
            "seed": sample_seed,
            "accuracy": accuracy(rows[:n_known], episode.known_labels),
            "auroc": auroc(known_scores, unknown_scores),
            "known_scores": known_scores,
            "unknown_scores": unknown_scores,
            "bank": bank,
            "loss": loss_report,
        }
    except Exception as exc:
        raise RuntimeError(
            f"episode {index} (sample seed {sample_seed}) failed: {type(exc).__name__}: {exc}"
        ) from exc


class _ChildTraceback(Exception):
    """The formatted traceback of a failure in a child process, as the cause
    of the error the child sent back."""

    def __str__(self) -> str:
        return self.args[0]


def _claim(counter) -> int:
    with counter.get_lock():
        chunk = counter.value
        counter.value = chunk + 1
    return chunk


def _evaluate_chunks(ds: FeatureDataset, cfg: RunConfig, counter, chunk: int) -> tuple[list[dict], tuple | None]:
    """Evaluate chunk `chunk`, then each chunk claimed from `counter`, until
    the chunks run out or an episode fails, which moves `counter` past the
    last chunk so that no process claims another. Returns the fields run_eval
    reads of each record (scores only for pooled_auroc, bank and loss only
    for a dump_last_bank run's last episode) and the failure as (episode
    index, exception), or None."""
    keep = ("episode", "seed", "accuracy", "auroc") + (("known_scores", "unknown_scores") if cfg.pooled_auroc else ())
    records, carried = [], None
    while (first := chunk * CHUNK_EPISODES) < cfg.num_episodes:
        for index in range(first, min(first + CHUNK_EPISODES, cfg.num_episodes)):
            try:
                record = evaluate_episode(ds, cfg, index, carried)
            except Exception as exc:
                with counter.get_lock():
                    counter.value = cfg.num_episodes
                return records, (index, exc)
            if cfg.init_kind == INIT_GLOBAL:
                carried = record["bank"][cfg.n_way :]
            records.append({k: record[k] for k in keep})
            if cfg.dump_last_bank and index == cfg.num_episodes - 1:
                records[-1].update(bank=record["bank"], loss=record["loss"])
        chunk = _claim(counter)
    return records, None


def _child(ds: FeatureDataset, cfg: RunConfig, counter, conn) -> None:
    """A child process's part of a run: the records of the chunks it claims
    and its failure, with the failure's traceback as text, sent through
    `conn` in one message at the end."""
    records, failure = _evaluate_chunks(ds, cfg, counter, _claim(counter))
    if failure is not None:
        failure = (*failure, "".join(traceback.format_exception(failure[1])))
    conn.send((records, failure))


def _evaluate_all(ds: FeatureDataset, cfg: RunConfig, processes: int) -> list[dict]:
    """Every episode's record, in order, from this process, which claims
    chunk 0 first, and processes - 1 children, forked on Linux (elsewhere
    started by the default method, which pickles the dataset into each), all
    claiming chunks from one shared counter. Every child is joined before
    this returns or raises; a failed run raises the lowest-indexed failing
    episode's error, chained in a child's case to the child's traceback."""
    if processes == 1:  # the interface of a multiprocessing Value, unshared
        counter = SimpleNamespace(value=0, get_lock=contextlib.nullcontext)
    else:
        context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
        counter = context.Value("q", 0)
    chunk = _claim(counter)
    children = []
    try:
        for _ in range(processes - 1):
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=_child, args=(ds, cfg, counter, writer))
            child.start()
            children.append((child, reader))
            writer.close()  # so that a child that dies leaves its reader at end of file
        records, failure = _evaluate_chunks(ds, cfg, counter, chunk)
        failures = [] if failure is None else [failure]
        for child, reader in children:
            try:
                theirs, failure = reader.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a worker process exited with code {child.exitcode} "
                                   "before sending its episodes") from None
            records += theirs
            if failure is not None:
                index, exc, text = failure
                exc.__cause__ = _ChildTraceback(text)
                failures.append((index, exc))
    except BaseException:  # an interrupt, or a child gone: no child waits for a reader
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, reader in children:
            child.join()
            reader.close()
    if failures:
        raise min(failures, key=operator.itemgetter(0))[1]
    return sorted(records, key=operator.itemgetter("episode"))


def run_eval(cfg: RunConfig, ds: FeatureDataset | None = None) -> ResultsBundle:
    """Evaluate num_episodes episodes and assemble (and optionally write) the
    results bundle. ds is cfg.dataset when the caller has read it already;
    child processes evaluate on this same ds. A run takes as many processes
    as cfg.workers, this one included, but no more than there are chunks of
    CHUNK_EPISODES episodes or CPUs this process may run on. Under
    init=global each episode starts from the previous episode's final
    background rows, so such a run takes one process."""
    if ds is None:
        ds = read_dataset(cfg.dataset)
    validate_dataset_for_config(ds, cfg)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    processes = 1 if cfg.init_kind == INIT_GLOBAL else min(cfg.workers, -(-cfg.num_episodes // CHUNK_EPISODES), cpus)
    records = _evaluate_all(ds, cfg, processes)

    agg = aggregate([r["accuracy"] for r in records], [r["auroc"] for r in records])

    pooled = None
    if cfg.pooled_auroc:
        pooled = auroc(
            np.concatenate([r["known_scores"] for r in records]),
            np.concatenate([r["unknown_scores"] for r in records]),
        )

    bank, loss = records[-1].get("bank"), records[-1].get("loss")
    bundle = ResultsBundle(
        config=cfg.snapshot(),
        episodes=[
            {"episode": r["episode"], "seed": r["seed"], "accuracy": r["accuracy"], "auroc": r["auroc"]}
            for r in records
        ],
        aggregate=agg,
        pooled_auroc=pooled,
        last_bank=None if bank is None else {
            "dim": bank.shape[1],
            "num_known": cfg.n_way,
            "num_background": len(bank) - cfg.n_way,
            "known_weights": bank[: cfg.n_way].tolist(),
            "background_weights": bank[cfg.n_way :].tolist(),
        },
        last_loss=None if loss is None else asdict(loss),
    )
    if cfg.output_dir is not None:
        bundle.write(cfg.output_dir)
    return bundle
