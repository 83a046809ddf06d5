import argparse
import contextlib
import dataclasses
import functools
import io
import json
import multiprocessing
import operator
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsosr.classifier import INIT_KINDS, SCORE_KINDS, build_known_prototypes, init_background, predict
from fsosr.dataset_io import DatasetFormatError, read_dataset, write_dataset
from fsosr.episode import (
    EpisodeSpec,
    FeatureDataset,
    SyntheticConfig,
    benchmark_config,
    derive_episode_seed,
    generate_synthetic,
    sample_episode,
    spatial_avg_pool,
)
from fsosr.finetune import FinetuneConfig, finetune_bank, gradcheck_report
from fsosr.metrics import accuracy, auroc
from fsosr.pipeline import RunConfig, evaluate_episode, run_eval, validate_dataset_for_config
from fsosr.procam import NORM_KINDS, cam, mask_iou, mine
import fsosr
from fsosr import cli, finetune, pipeline


# JSON nested past the parser's recursion limit, and the error json.loads
# gives for it. Python 3.12 counts C recursion apart from sys.getrecursionlimit(),
# so the nesting goes well past both.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
try:
    json.loads(DEEP_JSON)
    DEEP_JSON_ERROR = None  # parsed: the heatmap case below fails
except RecursionError as exc:
    DEEP_JSON_ERROR = f"RecursionError: {exc}"


@pytest.fixture(scope="module")
def heatmap_bundles(benchmark_dataset, tmp_path_factory):
    """A directory holding a 3-episode run of the benchmark file (run/), a
    directory without summary.json (empty/), the run's summary under another
    format version (future/) and with a version of another type that equals 1
    (boolversion/, floatversion/), four malformed summaries (notjson/, list/,
    noconfig/, and deep/, nested past the JSON parser's limit), the run's
    summary naming copies of the benchmark file beside ground-truth masks
    that do not fit them: 60 items (short/) and two channels (wide/), the
    run's summary with 12 closed classes, more than the file has room for
    beside 5 open ones (shortfall/), and the run's summary naming a relative
    path that is not there (moved/)."""
    path, _, _ = benchmark_dataset
    root = tmp_path_factory.mktemp("bundles")
    run_eval(small_cfg(path, num_episodes=3, output_dir=str(root / "run")))
    (root / "empty").mkdir()
    text = (root / "run" / "summary.json").read_text()
    summaries = {
        "future": {**json.loads(text), "format_version": pipeline.BUNDLE_FORMAT_VERSION + 1},
        "notjson": "{not json",
        "deep": DEEP_JSON,
        "list": [1, 2],
        "noconfig": {"format_version": pipeline.BUNDLE_FORMAT_VERSION},
        "boolversion": {**json.loads(text), "format_version": True},
        "floatversion": {**json.loads(text), "format_version": 1.0},
        "shortfall": json.loads(text),
    }
    summaries["shortfall"]["config"]["episode"]["n_way"] = 12
    summaries["moved"] = json.loads(text)
    summaries["moved"]["config"]["dataset"] = "moved.fsof"
    for name, shape in [("short", (60, 8, 8, 1)), ("wide", (360, 8, 8, 2))]:
        shutil.copyfile(path, root / f"{name}.fsof")
        masks = FeatureDataset(np.zeros(shape, np.float32), np.arange(shape[0]) % 12)
        write_dataset(masks, cli.masks_path(root / f"{name}.fsof"))
        summaries[name] = json.loads(text)
        summaries[name]["config"]["dataset"] = f"{name}.fsof"
    for name, summary in summaries.items():
        (root / name).mkdir()
        body = summary if isinstance(summary, str) else json.dumps(summary)
        (root / name / "summary.json").write_text(body)
    return root


def small_cfg(path, **kw):
    defaults = dict(
        dataset=str(path),
        n_way=5,
        k_shot=5,
        n_query=5,
        n_open_classes=5,
        n_open_query=5,
        num_episodes=4,
        master_seed=77,
        num_background=1,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def _uniform_dataset(num_classes, items_per_class):
    labels = np.arange(num_classes * items_per_class) % num_classes
    return FeatureDataset(np.ones((len(labels), 1, 1, 2), np.float32), labels)


_BANK = np.eye(3)[:, :2] + 0.1  # two known rows and one background row, d = 2

# inputs a validated RunConfig never hands a stage function, by the check that
# once rejected each inside it, with the error numpy or Python raises instead
PRECONDITION_BREACHES = {
    "sample-classes": (
        lambda: sample_episode(_uniform_dataset(5, 8), EpisodeSpec(n_way=3, n_open_classes=3), 0),
        ValueError,
    ),
    "sample-items": (
        lambda: sample_episode(
            _uniform_dataset(10, 8), EpisodeSpec(n_way=2, k_shot=5, n_query=5, n_open_classes=2), 0
        ),
        ValueError,
    ),
    "prototypes-n-way": (lambda: build_known_prototypes(np.zeros((0, 3)), np.zeros(0, int), 0, 1), ValueError),
    "prototypes-k-shot": (lambda: build_known_prototypes(np.zeros((0, 3)), np.zeros(0, int), 2, 0), ValueError),
    "prototypes-rank": (lambda: build_known_prototypes(np.ones(4), [0, 0, 1, 1], 2, 2), IndexError),
    "prototypes-label-count": (
        lambda: build_known_prototypes(np.ones((3, 2)), [0, 0, 1, 1], 2, 2), IndexError
    ),
    "init-negative": (lambda: init_background(2, "random", -1, 0), ValueError),
    "init-avg-zero": (lambda: init_background(2, "avg", 0, 0, np.ones((3, 2))), ValueError),
    "predict-rank": (lambda: predict(np.eye(4), 3, np.ones(4)), IndexError),
    "predict-width": (lambda: predict(np.eye(4), 3, np.ones((1, 5))), ValueError),
    "finetune-no-background-row": (
        lambda: finetune_bank(_BANK[:2], 2, np.ones((1, 2)), [0], np.ones((1, 2)), FinetuneConfig()),
        IndexError,
    ),
    "finetune-no-supports": (
        lambda: finetune_bank(_BANK, 2, np.zeros((0, 2)), [], np.ones((1, 2)), FinetuneConfig()),
        ValueError,
    ),
    "finetune-no-backgrounds": (
        lambda: finetune_bank(_BANK, 2, np.ones((1, 2)), [0], np.zeros((0, 2)), FinetuneConfig()),
        ZeroDivisionError,
    ),
    "finetune-width": (
        lambda: finetune_bank(_BANK, 2, np.ones((1, 3)), [0], np.ones((1, 3)), FinetuneConfig()),
        ValueError,
    ),
    "finetune-label-count": (
        lambda: finetune_bank(_BANK, 2, np.eye(2), [0], np.ones((1, 2)), FinetuneConfig()),
        ValueError,
    ),
    "cam-width": (lambda: cam(np.zeros((4, 2, 2, 3)), np.ones((4, 2))), ValueError),
    "init-avg-none": (lambda: init_background(2, "avg", 1, 0, None), AttributeError),
    "init-avg-empty": (lambda: init_background(2, "avg", 1, 0, np.empty((0, 2))), ValueError),
}


# the map shapes the oracle's datasets take: the standard benchmark's 8 x 8
# maps, ResNet-12's 5 x 5 x 640 and a small odd grid
ORACLE_SHAPES = ((8, 8, 16), (5, 5, 640), (3, 4, 12))


@st.composite
def _oracle_runs(draw) -> tuple[SyntheticConfig, RunConfig]:
    """A small generated dataset and a run over every episode toggle, with
    learning rates from none to high enough that some episodes re-base."""
    n_way, k_shot, n_query = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_open, open_query = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    height, width, channels = draw(st.sampled_from(ORACLE_SHAPES))
    data = dataclasses.replace(
        benchmark_config(draw(st.integers(0, 3))), num_classes=n_way + n_open + draw(st.integers(0, 2)),
        items_per_class=max(k_shot + n_query, open_query) + draw(st.integers(0, 2)),
        height=height, width=width, channels=channels, fg_regions=None,
    )
    init_kind, num_background = draw(st.sampled_from(INIT_KINDS)), draw(st.integers(1, 4))
    if init_kind == "avg":  # each row averages at least one of the n_way * k_shot mined backgrounds
        num_background = min(num_background, n_way * k_shot)
    return data, RunConfig(
        dataset="in-memory", n_way=n_way, k_shot=k_shot, n_query=n_query, n_open_classes=n_open,
        n_open_query=open_query, iterations=draw(st.integers(1, 4)),
        norm_kind=draw(st.sampled_from(NORM_KINDS)), epochs=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([0.0, 0.002, 0.1, 0.5, 1.0])),
        reassign_each_epoch=draw(st.booleans()), init_kind=init_kind, num_background=num_background,
        num_episodes=draw(st.integers(1, 10)), master_seed=draw(st.integers(0, 2**16)),
        use_background_classes=draw(st.booleans()), use_procam_finetune=draw(st.booleans()),
        freeze_known=draw(st.booleans()), score_kind=draw(st.sampled_from(SCORE_KINDS)),
        workers=draw(st.integers(1, 2)),
    )


def _scripted_records(ds: FeatureDataset, cfg: RunConfig) -> list[dict]:
    """A run's episodes written out one by one from the stage functions: the
    prototypes as plain class-block means of the sampler's rows, the maps
    widened and mined, the background rows started from the episode's own
    seed (under init=global only the first; later ones carry the previous
    episode's final rows), fine-tuned, and the known queries scored with the
    unknown ones after them."""
    records, carried = [], None
    for index in range(cfg.num_episodes):
        seed = derive_episode_seed(cfg.master_seed, index, 0)
        episode = sample_episode(ds, cfg.episode, seed)
        support, labels = ds.embeddings[episode.support], episode.support_labels
        bank = support.reshape(cfg.n_way, cfg.k_shot, -1).mean(axis=1)
        if cfg.use_background_classes:
            mined = None
            if cfg.use_procam_finetune or cfg.init_kind == "avg":
                _, mined, _ = mine(ds.values[episode.support].astype(np.float64), bank[labels], cfg.procam)
            if carried is None or cfg.init_kind != "global":
                init_seed = derive_episode_seed(cfg.master_seed, index, 1)
                carried = init_background(ds.channels, cfg.init_kind, cfg.num_background, init_seed, mined)
            bank = np.vstack([bank, carried])
            if cfg.use_procam_finetune:
                bank, _ = finetune_bank(bank, cfg.n_way, support, labels, mined, cfg.finetune)
            carried = bank[cfg.n_way :]
        n_known = len(episode.known_queries)
        queries = ds.embeddings[np.concatenate([episode.known_queries, episode.unknown_queries])]
        rows, scores = predict(bank, cfg.n_way, queries, cfg.score_kind)
        records.append({
            "seed": seed,
            "accuracy": accuracy(rows[:n_known], episode.known_labels),
            "auroc": auroc(scores[:n_known], scores[n_known:]),
            "known_scores": scores[:n_known],
            "unknown_scores": scores[n_known:],
            "background": bank[cfg.n_way :],
        })
    return records


class TestRunEval:
    def test_no_background_equals_neg_max_known(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        a = run_eval(small_cfg(path, use_background_classes=False, score_kind="margin"))
        b = run_eval(small_cfg(path, use_background_classes=False, score_kind="neg_max_known"))
        assert a.episodes == b.episodes

    def test_single_episode_rerun_is_byte_identical(self, benchmark_dataset, tmp_path):
        path, _, _ = benchmark_dataset
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_eval(small_cfg(path, num_episodes=1, output_dir=str(out1)))
        run_eval(small_cfg(path, num_episodes=1, output_dir=str(out2)))
        assert (out1 / "episodes.csv").read_bytes() == (out2 / "episodes.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_pool_workers_use_the_run_dataset(self, benchmark_dataset, tmp_path):
        # the file is gone once read, so a worker that read it again would fail
        path, _, _ = benchmark_dataset
        gone = tmp_path / "gone.fsof"
        gone.write_bytes(path.read_bytes())
        ds = read_dataset(gone)
        gone.unlink()
        one, two = (
            run_eval(small_cfg(gone, num_episodes=12, workers=w, dump_last_bank=True), ds)
            for w in (1, 2)
        )
        assert one.episodes_csv_text() == two.episodes_csv_text()
        assert one.summary_json_text() == two.summary_json_text()

    @pytest.mark.skipif(sys.platform != "linux", reason="pool workers are forked on Linux only")
    def test_pool_workers_inherit_the_dataset_whatever_the_default_start_method(
        self, benchmark_dataset, monkeypatch
    ):
        # Python 3.14 makes forkserver the default on Linux, which would pickle
        # the dataset into every worker
        path, _, _ = benchmark_dataset
        ds = read_dataset(path)

        def refuse(self):
            raise pickle.PicklingError("the dataset must be inherited, not pickled")

        monkeypatch.setattr(FeatureDataset, "__reduce__", refuse)
        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("forkserver", force=True)
        try:
            one, two = (run_eval(small_cfg(path, num_episodes=12, workers=w), ds) for w in (1, 2))
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert one.episodes_csv_text() == two.episodes_csv_text()
        assert one.summary_json_text() == two.summary_json_text()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(run=_oracle_runs())
    def test_records_match_a_plain_per_episode_script(self, run):
        data, cfg = run
        ds = generate_synthetic(data)[0]
        # every record run_eval assembles, from its own loop or back from the pool
        records, inner = [], pipeline.evaluate_episode

        def evaluate(*args):
            records.append(inner(*args))
            return records[-1]

        class Pool(pipeline.ProcessPoolExecutor):
            def map(self, *args, **kwargs):
                records.extend(super().map(*args, **kwargs))
                return iter(records)

        with mock.patch.object(pipeline, "evaluate_episode", evaluate), \
                mock.patch.object(pipeline, "ProcessPoolExecutor", Pool):
            bundle = run_eval(cfg, ds)
        expected = _scripted_records(ds, cfg)
        assert [r["episode"] for r in records] == list(range(cfg.num_episodes))
        assert bundle.episodes == [{k: r[k] for k in ("episode", "seed", "accuracy", "auroc")} for r in records]
        for record, want in zip(records, expected, strict=True):
            for key, value in want.items():
                same = _same_bits(record[key], value) if isinstance(value, np.ndarray) else record[key] == value
                assert same, key

    @pytest.mark.parametrize("shape", ["std", "wide"])
    def test_foregrounds_are_the_pooled_support_maps(self, benchmark_dataset, monkeypatch, shape):
        # the support rows evaluate_episode hands mining are, bit for bit, the
        # pooled stack of the mined maps, which mining used to compute itself;
        # so the background/foreground norm ratio read from the pairs is too
        if shape == "std":
            ds = benchmark_dataset[1]
        else:
            ds = generate_synthetic(dataclasses.replace(
                benchmark_config(), num_classes=10, items_per_class=10,
                height=5, width=5, channels=640, fg_regions=None,
            ))[0]
        mined = []
        inner = pipeline.procam_for_support

        def spy(supports, bank, cfg, foregrounds):
            pairs = inner(supports, bank, cfg, foregrounds)
            mined.append((supports, pairs))
            return pairs

        monkeypatch.setattr(pipeline, "procam_for_support", spy)
        cfg = small_cfg("in-memory", num_episodes=2)
        for index in range(2):
            evaluate_episode(ds, cfg, index)
        assert len(mined) == 2
        for supports, pairs in mined:
            pooled = spatial_avg_pool(np.stack([m.values for m, _ in supports], dtype=np.float64))
            assert np.stack([fg.values for fg, _ in pairs]).tobytes() == pooled.tobytes()

    @pytest.mark.parametrize("setting", [{}, {"use_background_classes": False}])
    def test_each_episode_scored_in_one_pass(self, benchmark_dataset, monkeypatch, setting):
        # known and unknown queries go to predict as one gathered matrix, the
        # known ones first; its rows split into what scoring each group alone gives
        ds = benchmark_dataset[1]
        calls = []
        inner = pipeline.predict

        def spy(bank, num_known, queries, score_kind):
            calls.append((bank, num_known, queries, score_kind))
            return inner(bank, num_known, queries, score_kind)

        monkeypatch.setattr(pipeline, "predict", spy)
        cfg = small_cfg("in-memory", num_episodes=3, **setting)
        records = [evaluate_episode(ds, cfg, index) for index in range(3)]
        assert len(calls) == 3
        for index, (bank, num_known, queries, score_kind), record in zip(range(3), calls, records):
            seed = derive_episode_seed(cfg.master_seed, index, 0)
            episode = sample_episode(ds, cfg.episode, seed)
            n_known = len(episode.known_queries)
            known, unknown = ds.embeddings[episode.known_queries], ds.embeddings[episode.unknown_queries]
            np.testing.assert_array_equal(queries, np.concatenate([known, unknown]))
            rows, scores = inner(bank, num_known, queries, score_kind)
            known_rows, known_scores = inner(bank, num_known, known, score_kind)
            _, unknown_scores = inner(bank, num_known, unknown, score_kind)
            np.testing.assert_array_equal(rows[:n_known], known_rows)
            np.testing.assert_allclose(scores[:n_known], known_scores, rtol=0, atol=1e-15)
            np.testing.assert_allclose(scores[n_known:], unknown_scores, rtol=0, atol=1e-15)
            assert record["known_scores"].tobytes() == scores[:n_known].tobytes()
            assert record["unknown_scores"].tobytes() == scores[n_known:].tobytes()
            assert record["accuracy"] == accuracy(known_rows, episode.known_labels)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_norm_fails_with_episode_context(self, benchmark_dataset, monkeypatch, workers):
        path, _, _ = benchmark_dataset
        # two chunks on two CPUs, so that workers=2 starts a pool: one chunk would run in-process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = small_cfg(path, learning_rate=1e300, workers=workers, num_episodes=pipeline.CHUNK_EPISODES + 1)
        seed = derive_episode_seed(cfg.master_seed, 0, 0)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError) as info:
            run_eval(cfg)
        message = str(info.value)
        assert message.startswith(f"episode 0 (sample seed {seed}) failed:")
        assert "non-finite norm" in message
        # the fine-tune step that diverged is named
        assert "epoch 0" in message
        # in a pool worker the chained cause arrives as the remote traceback
        cause = info.value.__cause__
        assert isinstance(cause, ValueError) if workers == 1 else "ValueError" in str(cause)

    @pytest.mark.parametrize(
        "workers, episodes, cpus, started",
        [
            (2, 100, 2, 2),  # the two-worker benchmark workload on a 2-CPU host
            (100000, 100, 2, 2),
            (100000, 20, 64, 3),  # ceil(20 / 8) chunks
            (3, 600, 64, 3),
            (2, 8, 64, 1),
            (100000, 600, ("cpu_count", 4), 4),  # no sched_getaffinity on this platform
            (100000, 600, ("cpu_count", None), 1),
        ],
    )
    def test_pool_starts_no_more_workers_than_chunks_or_cpus(
        self, benchmark_dataset, monkeypatch, workers, episodes, cpus, started
    ):
        path, ds, _ = benchmark_dataset
        seen = {}

        class Stop(Exception):
            pass

        class StandIn:
            """Records the pool's size and chunk size, and starts nothing."""

            def __init__(self, max_workers, **kwargs):
                seen["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                seen["chunksize"] = chunksize
                raise Stop

        def stop(*args):
            raise Stop

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", StandIn)
        monkeypatch.setattr(pipeline, "evaluate_episode", stop)  # an in-process run stops at episode 0
        if isinstance(cpus, tuple):
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus[1])
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        with pytest.raises(Stop):
            run_eval(small_cfg(path, num_episodes=episodes, workers=workers), ds)
        # a run that would start one worker runs in this process: no executor is constructed
        assert seen == ({"max_workers": started, "chunksize": pipeline.CHUNK_EPISODES} if started > 1 else {})

    def test_validation_errors_before_running(self, benchmark_dataset):
        path, ds, _ = benchmark_dataset
        with pytest.raises(ValueError, match="classes"):
            validate_dataset_for_config(ds, small_cfg(path, n_way=10, n_open_classes=10))
        with pytest.raises(ValueError, match="items"):
            validate_dataset_for_config(ds, small_cfg(path, k_shot=20, n_query=20))

    @pytest.mark.parametrize("call, error", PRECONDITION_BREACHES.values(), ids=PRECONDITION_BREACHES)
    def test_stage_precondition_breach_still_raises(self, call, error):
        # the stage functions leave these inputs to the run boundary's checks;
        # called directly they must still raise, never return a result
        with pytest.raises(error):
            call()

    def test_pooled_auroc_mode(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        bundle = run_eval(small_cfg(path, pooled_auroc=True))
        assert bundle.pooled_auroc is not None
        assert 0.0 <= bundle.pooled_auroc <= 1.0
        assert "pooled_auroc" in bundle.summary_json_text()

    def test_dump_last_bank(self, benchmark_dataset, tmp_path):
        # 10 episodes put the last one in the pool's second chunk of 8
        path, _, _ = benchmark_dataset
        summaries = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            bundle = run_eval(small_cfg(
                path, num_episodes=10, dump_last_bank=True, workers=workers, output_dir=str(out)
            ))
            assert bundle.last_bank is not None
            assert bundle.last_bank["num_known"] == 5
            assert bundle.last_bank["num_background"] == 1
            assert bundle.last_loss is not None
            assert len(bundle.last_loss["per_epoch_totals"]) == 21
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]

    def test_only_last_episode_serialises_its_bank(self, benchmark_dataset):
        path, ds, _ = benchmark_dataset
        cfg = small_cfg(path, num_episodes=2, dump_last_bank=True)
        first, last = evaluate_episode(ds, cfg, 0), evaluate_episode(ds, cfg, 1)
        assert first["bank"] is None and first["loss"] is None
        assert last["bank"]["background_weights"] == last["background"].tolist()
        assert len(last["loss"]["per_epoch_totals"]) == 21

    @pytest.mark.parametrize(
        "setting",
        [{}, dict(use_procam_finetune=False), dict(init_kind="global")],
        ids=["full", "no-finetune", "global"],
    )
    def test_record_background_owns_its_data(self, benchmark_dataset, setting):
        # a view of the episode's bank would keep the whole bank alive with
        # every record a run holds
        path, ds, _ = benchmark_dataset
        cfg = small_cfg(path, num_background=3, **setting)
        first = evaluate_episode(ds, cfg, 0)
        second = evaluate_episode(ds, cfg, 1, first["background"])
        for record in (first, second):
            assert record["background"].shape == (3, ds.channels)
            assert record["background"].base is None

    def test_ablation_ladder_all_rungs_run(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        rungs = [
            dict(use_background_classes=False),
            dict(use_procam_finetune=False),
            dict(freeze_known=True, iterations=1),
            dict(iterations=1),
            dict(iterations=4),
            dict(norm_kind="softmax"),
        ]
        for rung in rungs:
            bundle = run_eval(small_cfg(path, num_episodes=2, **rung))
            assert len(bundle.episodes) == 2

    def test_global_init_persists_across_episodes(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        bundle = run_eval(small_cfg(path, init_kind="global", workers=4))
        assert len(bundle.episodes) == 4  # forced single worker, still completes

    def test_global_strategy_weights_carry_over(self, benchmark_dataset):
        path, ds, _ = benchmark_dataset
        cfg = small_cfg(path, init_kind="global")
        after_first = evaluate_episode(ds, cfg, 0)["background"]
        after_second = evaluate_episode(ds, cfg, 1, after_first)["background"]
        # fine-tuning moved the carried rows on between episodes
        assert not np.array_equal(after_first, after_second)

    @pytest.mark.parametrize("finetune", [True, False])
    def test_global_run_equals_manual_chain(self, benchmark_dataset, finetune):
        path, _, _ = benchmark_dataset
        ds = read_dataset(path)  # the float32 values run_eval reads, not the generator's
        cfg = small_cfg(
            path, init_kind="global", use_procam_finetune=finetune, dump_last_bank=True
        )
        bundle = run_eval(cfg)
        carried, chain = None, []
        for index in range(cfg.num_episodes):
            record = evaluate_episode(ds, cfg, index, carried)
            chain.append({k: record[k] for k in ("episode", "seed", "accuracy", "auroc")})
            carried = record["background"]
        assert bundle.episodes == chain
        assert bundle.last_bank["background_weights"] == carried.tolist()
        first = evaluate_episode(ds, cfg, 0)["background"]
        if finetune:
            assert not np.array_equal(carried, first)
        else:  # nothing moves the rows, so every episode keeps episode 0's
            assert carried.tobytes() == first.tobytes()

    def test_global_episode_zero_equals_random(self, benchmark_dataset):
        path, ds, _ = benchmark_dataset
        glob = small_cfg(path, init_kind="global", num_episodes=1)
        rand = small_cfg(path, init_kind="random", num_episodes=1)
        assert run_eval(glob).episodes == run_eval(rand).episodes
        a, b = evaluate_episode(ds, glob, 0), evaluate_episode(ds, rand, 0)
        assert a["background"].tobytes() == b["background"].tobytes()

    def test_snapshot_excludes_execution_details(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        snap = small_cfg(path, workers=3, output_dir="/tmp/x", dump_last_bank=True).snapshot()
        text = json.dumps(snap)
        assert "workers" not in text and "output_dir" not in text and "dump" not in text

    def test_open_query_defaults_to_n_query(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        cfg = small_cfg(path, n_open_query=None)
        assert cfg.episode.n_open_query == cfg.n_query

    def test_config_validation(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        with pytest.raises(ValueError, match="score kind"):
            small_cfg(path, score_kind="nope")
        with pytest.raises(ValueError, match="num_background"):
            small_cfg(path, num_background=0, use_background_classes=True)

    def test_avg_init_needs_a_mined_background_per_row(self, benchmark_dataset):
        path, ds, _ = benchmark_dataset
        with pytest.raises(ValueError, match=r"num_background must be <= 25 \(got 26\)"):
            small_cfg(path, init_kind="avg", num_background=26)
        # the most it allows runs; without background rows the count is unused
        cfg = small_cfg(path, init_kind="avg", num_background=25, num_episodes=1)
        assert evaluate_episode(ds, cfg, 0)["background"].shape == (25, ds.channels)
        small_cfg(path, init_kind="avg", num_background=26, use_background_classes=False)

    def test_stage_configs_built_once(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        cfg = small_cfg(path, epochs=3, iterations=2)
        assert cfg.procam is cfg.procam
        assert cfg.finetune is cfg.finetune
        assert (cfg.procam.iterations, cfg.finetune.epochs) == (2, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epochs = 5
        # a changed copy builds its own
        changed = dataclasses.replace(cfg, epochs=5, n_query=7, n_open_query=None)
        assert changed.finetune.epochs == 5 and changed.finetune is not cfg.finetune
        assert changed.procam == cfg.procam and changed.episode.n_open_query == 7

    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(epochs=0), "epochs"),
            (dict(n_way=1), "n_way"),
            (dict(iterations=0), "iterations"),
            (dict(norm_kind="zscore"), "norm kind"),
        ],
    )
    def test_stage_settings_fail_at_construction(self, benchmark_dataset, setting, message):
        # rejected by RunConfig itself, not inside episode 0's RuntimeError
        path, _, _ = benchmark_dataset
        with pytest.raises(ValueError, match=message):
            small_cfg(path, **setting)


class TestGradcheck:
    def test_default_check_passes(self):
        report = gradcheck_report(seed=1, trials=4)
        assert report["passed"]
        assert report["prototype_gradient"] < 1e-4

    def test_passes_across_seeds(self):
        for seed in range(10):
            report = gradcheck_report(seed=seed, trials=2)
            assert report["passed"], f"seed {seed}: {report}"

    def test_default_seed_has_wide_margin(self):
        # the fourth-order stencil keeps finite-difference round-off far below
        # the 1e-4 threshold on the default run
        assert gradcheck_report(seed=0)["prototype_gradient"] < 1e-5

    def test_perturbed_gradient_fails(self, capsys, monkeypatch):
        exact = finetune.finetune_bank

        def perturbed(*args):
            bank, report = exact(*args)
            return bank + 1e-2, report

        monkeypatch.setattr(finetune, "finetune_bank", perturbed)
        code = cli.main(["gradcheck", "--seed", "1", "--trials", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    @pytest.mark.parametrize("change", [
        lambda cfg: dataclasses.replace(cfg, bkg_loss_weight=2 * cfg.bkg_loss_weight),
        lambda cfg: dataclasses.replace(cfg, freeze_known=True),
    ], ids=["doubled-background-weight", "frozen-known-rows"])
    def test_check_covers_background_loss_and_every_row(self, monkeypatch, change):
        # a step that weighs the pseudo-unknowns twice, or leaves the known
        # rows in place, fails: gradcheck checks the step finetune_bank takes
        exact = finetune.finetune_bank
        monkeypatch.setattr(finetune, "finetune_bank", lambda *a: exact(*a[:-1], change(a[-1])))
        assert not gradcheck_report(seed=1, trials=2)["passed"]

    def test_command_reports_pass(self, capsys):
        code = cli.main(["gradcheck", "--seed", "1", "--trials", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 1
        assert out.startswith("prototype_gradient:")

    def test_command_defaults_are_the_report_defaults(self, capsys):
        # seed and trial count are declared by gradcheck_report alone; the
        # digits depend on the BLAS build, so they are compared, not pinned
        assert cli.main(["gradcheck"]) == 0
        error = gradcheck_report()["prototype_gradient"]
        assert capsys.readouterr().out == (
            f"prototype_gradient: max relative error {error:.3e} (threshold 1e-04) PASS\n"
        )


class TestCli:
    def test_end_to_end_commands(self, tmp_path, capsys):
        data = tmp_path / "synth.fsof"
        assert cli.main([
            "gen-synthetic", "--out", str(data), "--classes", "10", "--items-per-class", "12",
            "--channels", "16", "--seed", "5",
        ]) == 0
        assert data.exists()
        assert cli.masks_path(data).exists()
        # the masks file holds one H x W x 1 map per item
        masks_ds = read_dataset(cli.masks_path(data))
        assert masks_ds.channels == 1
        assert len(masks_ds) == 120

        assert cli.main(["inspect", str(data)]) == 0
        out = capsys.readouterr().out
        assert "items: 120" in out and "classes: 10" in out

        run_dir = tmp_path / "run"
        assert cli.main([
            "eval", "--dataset", str(data), "--out", str(run_dir),
            "--num-episodes", "3", "--n-query", "4", "--open-query", "4",
            "--epochs", "5", "--n-background", "1", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "auroc" in out
        assert (run_dir / "episodes.csv").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["aggregate"]["n_episodes"] == 3
        assert summary["config"]["episode"]["n_query"] == 4

        heat_dir = tmp_path / "heat"
        argv = ["heatmap", "--bundle", str(run_dir), "--episode", "2", "--out", str(heat_dir)]
        assert cli.main(argv) == 0
        files = sorted(p.name for p in heat_dir.iterdir())
        # 25 supports, each with its final mask and one mask per mining pass
        assert len(files) == 25 * 5
        assert "support00_mask.pgm" in files and "support24_iter3.pgm" in files
        for f in heat_dir.iterdir():
            assert f.read_bytes().startswith(b"P5\n8 8\n255\n")
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote 125 heatmaps for episode 2 to {heat_dir}"
        assert len(lines) == 27 and lines[-1].startswith("mean IoU ")

    def test_bundles_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # OpenBLAS gives thread-dependent bytes for the fine-tune Gram product of
        # a 10-way episode's 640-channel rows; each run is a fresh process, since
        # BLAS takes its thread count when numpy is first imported
        data = tmp_path / "wide.fsof"
        assert cli.main([
            "gen-synthetic", "--out", str(data), "--classes", "12", "--items-per-class", "10",
            "--height", "5", "--width", "5", "--channels", "640", "--seed", "1",
        ]) == 0
        src = str(Path(fsosr.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        bundles = []
        for threads in (None, "1", "2"):
            out = tmp_path / f"run-{threads}"
            subprocess.run(
                [
                    sys.executable, "-m", "fsosr.cli", "eval", "--dataset", str(data),
                    "--out", str(out), "--n-way", "10", "--open-classes", "2", "--n-query", "5",
                    "--open-query", "5", "--n-background", "1", "--num-episodes", "2",
                    "--seed", "1", "--dump-last-bank",
                ],
                env=env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads},
                check=True, capture_output=True, timeout=120,
            )
            bundles.append([(out / name).read_bytes() for name in ("episodes.csv", "summary.json")])
        assert bundles[0] == bundles[1] == bundles[2]

    @pytest.mark.parametrize("unbuffered", ["", "1"])  # the first print fails, or the last flush
    @pytest.mark.parametrize("command", ["inspect", "gen-synthetic"])
    def test_closed_stdout_is_exit_1_and_nothing_on_stderr(self, benchmark_dataset, tmp_path, command, unbuffered):
        data = tmp_path / "d.fsof"
        argv = {"inspect": [str(benchmark_dataset[0])], "gen-synthetic": ["--out", str(data)]}[command]
        src = str(Path(fsosr.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               "PYTHONUNBUFFERED": unbuffered}
        read, write = os.pipe()
        os.close(read)  # the reader has gone before the command prints
        try:
            child = subprocess.run([sys.executable, "-m", "fsosr.cli", command, *argv], stdout=write,
                                   stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (child.returncode, child.stderr) == (1, b"")
        if command == "gen-synthetic":  # what was written before the print stays
            assert len(read_dataset(data)) == len(read_dataset(cli.masks_path(data)))

    def test_gradcheck_command(self, capsys):
        assert cli.main(["gradcheck", "--seed", "2", "--trials", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gen_synthetic_benchmark_preset(self, tmp_path, benchmark_dataset, capsys):
        out = tmp_path / "bench.fsof"
        assert cli.main(["gen-synthetic", "--out", str(out), "--benchmark"]) == 0
        # byte-identical to the session benchmark file (same config, same seed)
        reference_path, _, _ = benchmark_dataset
        assert out.read_bytes() == reference_path.read_bytes()

    def test_eval_defaults_are_run_config_defaults(self, benchmark_dataset, tmp_path):
        path, _, _ = benchmark_dataset
        out = tmp_path / "run"
        assert cli.main(["eval", "--dataset", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"] == RunConfig(dataset=str(path)).snapshot()

    def test_gen_synthetic_defaults_are_synthetic_config_defaults(self, default_dataset, tmp_path):
        out, reference = tmp_path / "default.fsof", tmp_path / "reference.fsof"
        assert cli.main(["gen-synthetic", "--out", str(out)]) == 0
        write_dataset(default_dataset[0], reference)
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "command, config, other",
        [
            ("eval", RunConfig, {"out"}),
            ("gen-synthetic", SyntheticConfig, {"out", "benchmark"}),
        ],
    )
    def test_every_flag_sets_a_config_field(self, command, config, other):
        # a flag whose dest is no field would never reach the config
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = [a for a in sub.choices[command]._actions if a.dest != "help"]
        names = {f.name for f in dataclasses.fields(config)}
        assert {a.dest for a in flags} >= other
        for action in flags:
            assert action.dest in names | other, action.option_strings
            if action.dest in names:
                # the default is the config class's, so the parser holds none
                assert action.default is argparse.SUPPRESS, action.option_strings

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--epochs", "0"], "epochs must be >= 1"),
            (["eval", "--n-way", "1"], "n_way must be >= 2"),
            (["eval", "--workers", "0"], "workers must be >= 1"),
            (["heatmap", "--bundle", "run", "--episode", "3"], "episode 3 outside [0, 3)"),
            (["gen-synthetic", "--classes", "0"], "num_classes must be >= 1"),
            (
                ["gen-synthetic", "--channels", "2"],
                "channels must be >= num_classes + 1 to allocate orthogonal signatures "
                "(got 2 for 5 classes)",
            ),
            (
                ["eval", "--n-way", "12"],
                "dataset has 12 classes but episodes need 17 (12 closed + 5 open)",
            ),
            (
                ["heatmap", "--bundle", "empty", "--episode", "0"],
                "cannot open bundle summary empty/summary.json: No such file or directory",
            ),
            (["eval", "--learning-rate", "nan"], "learning_rate must be finite and >= 0"),
            (["eval", "--bkg-loss-weight", "inf"], "bkg_loss_weight must be finite and > 0"),
            (
                ["eval", "--no-finetune", "--temperature", "nan"],
                "temperature must be finite and > 0",
            ),
            (["gen-synthetic", "--signal-strength", "nan"], "signal_strength must be finite and >= 0"),
            (["gen-synthetic", "--noise-sigma", "inf"], "noise_sigma must be finite and >= 0"),
            (["gen-synthetic", "--seed", "-1"], "seed must be >= 0"),
            (["gen-synthetic", "--benchmark", "--seed", "-1"], "seed must be >= 0"),
            (["eval", "--seed", "-1"], "master_seed must be >= 0"),
            (["gradcheck", "--trials", "0"], "trials must be >= 1"),
            (["gradcheck", "--trials", "-2"], "trials must be >= 1"),
            (["gradcheck", "--seed", "-1"], "seed must be >= 0"),
            (
                ["eval", "--init", "avg", "--n-background", "30"],
                "avg initialization averages the n_way * k_shot = 25 mined backgrounds, "
                "so num_background must be <= 25 (got 30)",
            ),
            (
                ["heatmap", "--bundle", "future", "--episode", "0"],
                f"future/summary.json has format version {pipeline.BUNDLE_FORMAT_VERSION + 1}, "
                f"expected {pipeline.BUNDLE_FORMAT_VERSION}",
            ),
            (["heatmap", "--bundle", "run", "--episode", "-1"], "episode -1 outside [0, 3)"),
            (
                ["heatmap", "--bundle", "notjson", "--episode", "0"],
                "notjson/summary.json is not a bundle summary (JSONDecodeError: Expecting "
                "property name enclosed in double quotes: line 1 column 2 (char 1))",
            ),
            (
                ["heatmap", "--bundle", "list", "--episode", "0"],
                "list/summary.json is not a bundle summary "
                "(AttributeError: 'list' object has no attribute 'get')",
            ),
            (
                ["heatmap", "--bundle", "noconfig", "--episode", "0"],
                "noconfig/summary.json is not a bundle summary (KeyError: 'config')",
            ),
            (
                ["heatmap", "--bundle", "short", "--episode", "0"],
                "short.masks.fsof holds masks of shape (60, 8, 8, 1), expected (360, 8, 8, 1)",
            ),
            (
                ["heatmap", "--bundle", "wide", "--episode", "0"],
                "wide.masks.fsof holds masks of shape (360, 8, 8, 2), expected (360, 8, 8, 1)",
            ),
            (
                ["heatmap", "--bundle", "boolversion", "--episode", "0"],
                "boolversion/summary.json has format version True, "
                f"expected {pipeline.BUNDLE_FORMAT_VERSION}",
            ),
            (
                ["heatmap", "--bundle", "floatversion", "--episode", "0"],
                "floatversion/summary.json has format version 1.0, "
                f"expected {pipeline.BUNDLE_FORMAT_VERSION}",
            ),
            (
                ["heatmap", "--bundle", "shortfall", "--episode", "0"],
                "dataset has 12 classes but episodes need 17 (12 closed + 5 open)",
            ),
            (
                ["heatmap", "--bundle", "moved", "--episode", "0"],
                "cannot open dataset moved.fsof: No such file or directory (a relative path in "
                "moved/summary.json is taken from the directory fsosr eval ran in)",
            ),
            pytest.param(
                ["gen-synthetic", "--signal-strength", "1e39"],
                "signal_strength must be below 3.4028235e+38, float32's largest value",
                id="argv31-item 0 has a non-finite value or spatial mean",
            ),
            (
                ["gen-synthetic", "--noise-sigma", "1e20", "--bkg-noise-mean", "1e20"],
                "noise_sigma * bkg_noise_mean must be below 3.4028235e+38, float32's largest value",
            ),
            (
                ["heatmap", "--bundle", "deep", "--episode", "0"],
                f"deep/summary.json is not a bundle summary ({DEEP_JSON_ERROR})",
            ),
        ],
    )
    def test_rejected_setting_is_a_usage_error(
        self, benchmark_dataset, heatmap_bundles, tmp_path, monkeypatch, capsys, argv, message
    ):
        path, _, _ = benchmark_dataset
        where = ["--out", str(tmp_path / "out")]
        if argv[0] == "gradcheck":
            where = []
        elif argv[0] == "heatmap":  # bundles named relative to their directory
            monkeypatch.chdir(heatmap_bundles)
        elif argv[0] != "gen-synthetic":
            where += ["--dataset", str(path)]
        with pytest.raises(SystemExit) as info:
            cli.main(argv + where)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err == f"fsosr {argv[0]}: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, target, reason",
        [
            (["eval", "--out", "file"], "file", "File exists"),
            (["eval", "--out", "file/sub"], "file/sub", "Not a directory"),
            (["heatmap", "--bundle", "run", "--episode", "0", "--out", "file"], "file", "File exists"),
            (["gen-synthetic", "--out", "dir"], "dir", "Is a directory"),
            # a bundle file's slot taken by a directory
            (["eval", "--out", "taken-csv"], "taken-csv/episodes.csv", "Is a directory"),
            (["eval", "--out", "taken-json"], "taken-json/summary.json", "Is a directory"),
            (["gen-synthetic", "--out", "."], ".", "Is a directory"),
            # a later file's slot taken: claimed with the others, before the data or the first PGM is written
            (["gen-synthetic", "--out", "d.fsof", "--classes", "6"], "d.masks.fsof", "Is a directory"),
            (["heatmap", "--bundle", "run", "--episode", "0", "--out", "heat"], "heat/support03_mask.pgm",
             "Is a directory"),
            # a FIFO in a bundle file's slot, opened without waiting for a reader
            (["eval", "--out", "fifo"], "fifo/episodes.csv", "No such device or address"),
        ],
    )
    def test_unwritable_output_is_a_usage_error(
        self, benchmark_dataset, heatmap_bundles, tmp_path, monkeypatch, capsys, argv, target, reason
    ):
        path, _, _ = benchmark_dataset
        monkeypatch.chdir(tmp_path)
        Path("file").write_text("")
        Path("dir").mkdir()
        Path("taken-csv/episodes.csv").mkdir(parents=True)
        Path("taken-json/summary.json").mkdir(parents=True)
        Path("d.masks.fsof").mkdir()
        Path("d.fsof").write_bytes(b"an earlier dataset")
        Path("heat/support03_mask.pgm").mkdir(parents=True)
        Path("heat/support00_mask.pgm").write_bytes(b"P5\n1 1\n255\n\x07")  # an earlier PGM
        Path("fifo").mkdir()
        os.mkfifo("fifo/episodes.csv")
        before = _tree(Path())
        if argv[0] == "eval":
            argv = argv + ["--dataset", str(path)]
            # the paths are checked before episode 0 runs
            monkeypatch.setattr(pipeline, "evaluate_episode", lambda *a: pytest.fail("an episode ran"))
        if argv[0] == "gen-synthetic":  # both files are checked before the data is made
            monkeypatch.setattr(cli, "generate_synthetic", lambda **kw: pytest.fail("data generated"))
        argv = [str(heatmap_bundles / "run") if a == "run" else a for a in argv]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err == f"fsosr {argv[0]}: error: cannot write {target}: {reason}\n"
        # nothing made is left (taken-json/episodes.csv, opened before summary.json, is
        # removed), and no earlier file is rewritten
        assert _tree(Path()) == before

    def test_failed_episode_removes_the_directories_eval_made(self, benchmark_dataset, tmp_path, capsys):
        path, _, _ = benchmark_dataset
        (tmp_path / "kept").mkdir()
        out = tmp_path / "kept" / "new" / "run"
        argv = ["eval", "--dataset", str(path), "--out", str(out), "--num-episodes", "1",
                "--learning-rate", "1e300"]
        assert cli.main(argv) == 1
        assert "episode 0" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert not any((tmp_path / "kept").iterdir())

    # a warning (numpy's overflow) would print a second line outside pytest; as
    # an error, in forked workers too, it replaces the message
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_episode_is_one_error_line_and_exit_code_1(
        self, benchmark_dataset, tmp_path, capfd, workers
    ):
        # capfd: a forked worker writes to the inherited descriptor, not to sys.stderr
        path, _, _ = benchmark_dataset
        out = tmp_path / "out"
        argv = ["eval", "--dataset", str(path), "--out", str(out), "--num-episodes", "16",
                "--learning-rate", "1e300", "--workers", workers]
        assert cli.main(argv) == 1
        seed = derive_episode_seed(0, 0, 0)
        assert capfd.readouterr().err == (
            f"fsosr eval: error: episode 0 (sample seed {seed}) failed: ValueError: after the "
            "fine-tune step at epoch 0 (learning rate 1e+300), prototype row 0 has non-finite norm\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["inspect", "eval", "heatmap"])
    def test_missing_dataset_is_a_usage_error(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.fsof")
        out = ["--out", str(tmp_path / "out")]
        # the heatmap reads the dataset a finished run names in its summary
        bundle = tmp_path / "run"
        bundle.mkdir()
        summary = {"format_version": pipeline.BUNDLE_FORMAT_VERSION,
                   "config": RunConfig(dataset=missing).snapshot()}
        (bundle / "summary.json").write_text(json.dumps(summary))
        argv = {
            "inspect": [missing],
            "eval": ["--dataset", missing] + out,
            "heatmap": ["--bundle", str(bundle), "--episode", "0"] + out,
        }[command]
        with pytest.raises(SystemExit) as info:
            cli.main([command] + argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err == f"fsosr {command}: error: cannot open dataset {missing}: No such file or directory\n"
        assert not (tmp_path / "out").exists()

    def test_bad_dataset_is_not_a_usage_error(self, tmp_path):
        bad = tmp_path / "bad.fsof"
        bad.write_bytes(b"NOPE")
        with pytest.raises(DatasetFormatError):
            cli.main(["eval", "--dataset", str(bad), "--out", str(tmp_path / "out")])

    def test_output_dir_env_default(self, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, "/some/dir")
        parser = cli.build_parser()
        args = parser.parse_args(["eval", "--dataset", "x"])
        assert args.out == "/some/dir"


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_SWITCH = (None, None)  # a flag without a value
_AT_LEAST_1 = (st.integers(1, 4), st.integers(-1, 0))
_NON_NEGATIVE = (
    st.sampled_from(["0", "1e-3", "0.5", "2", "1e39", "1e300"]), st.sampled_from(["-1", "nan", "inf", "-inf"])
)
_POSITIVE = (st.sampled_from(["1e-3", "0.5", "2", "10", "1e300"]), st.sampled_from(["0", "-1", "nan", "inf"]))

# per flag, values its config accepts and values it rejects. Small sizes keep
# a generated dataset tiny (the benchmark preset's 6 MB file is left to
# test_gen_synthetic_benchmark_preset); every run has at most 5 episodes and
# 2 workers, so it starts at most one pool process
GEN_FLAGS = {
    "--classes": (st.integers(1, 8), st.integers(-1, 0)),
    "--items-per-class": (st.integers(1, 8), st.integers(-1, 0)),
    "--height": _AT_LEAST_1,
    "--width": _AT_LEAST_1,
    "--channels": (st.integers(1, 12), st.integers(-1, 0)),
    **dict.fromkeys(
        ("--signal-strength", "--noise-sigma", "--bkg-strength", "--bkg-noise-mean", "--bkg-noise-scale"),
        _NON_NEGATIVE,
    ),
    "--seed": (st.integers(0, 3), st.just(-1)),
}
_EPISODE_SIZE = (st.integers(1, 2), st.integers(-1, 0))
EVAL_FLAGS = {  # the first six always given: an episode shape most draws' datasets fit
    "--num-episodes": (st.integers(1, 5), st.integers(-1, 0)),
    "--n-way": (st.integers(2, 3), st.integers(0, 1)),
    "--k-shot": _EPISODE_SIZE,
    "--n-query": _EPISODE_SIZE,
    "--open-classes": _EPISODE_SIZE,
    "--open-query": _EPISODE_SIZE,
    "--iterations": _AT_LEAST_1,
    "--norm": (st.sampled_from(NORM_KINDS), None),
    "--epochs": _AT_LEAST_1,
    "--learning-rate": _NON_NEGATIVE,
    "--bkg-loss-weight": _POSITIVE,
    "--temperature": _POSITIVE,
    "--fixed-pseudo-labels": _SWITCH,
    "--init": (st.sampled_from(INIT_KINDS), None),
    "--n-background": (st.integers(1, 6), st.integers(-1, 0)),
    "--seed": (st.integers(0, 3), st.just(-1)),
    "--no-background": _SWITCH,
    "--no-finetune": _SWITCH,
    "--freeze-known": _SWITCH,
    "--score-kind": (st.sampled_from(SCORE_KINDS), None),
    "--pooled-auroc": _SWITCH,
    "--workers": (st.integers(1, 2), st.just(0)),
    "--dump-last-bank": _SWITCH,
}


@st.composite
def _flag_set(draw, flags: dict, given: int = 0) -> list[str]:
    """Some of `flags` (the first `given` always), each with a value it
    accepts, and at most one of them with a value it rejects. A value is given
    as --name=value, which argparse takes even when it starts with a minus."""
    bad = draw(st.none() | st.sampled_from([name for name, (_, rejected) in flags.items() if rejected is not None]))
    argv = []
    for i, (name, (accepted, rejected)) in enumerate(flags.items()):
        if i >= given and name != bad and not draw(st.booleans()):
            continue
        argv.append(name if accepted is None else f"{name}={draw(rejected if name == bad else accepted)}")
    return argv


def _tree(root: Path) -> dict:
    """Every path under `root`, with a regular file's bytes (None for a
    directory or a FIFO, which is never opened)."""
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def _ends_as_contracted(argv: list[str], out: str, cwd: Path) -> tuple[int, list[bytes]]:
    """Run `fsosr argv` in `cwd`, check that it ended one of the three allowed
    ways and return its exit code and, on success, the files it wrote to `out`."""
    before, home, err = _tree(cwd), os.getcwd(), io.StringIO()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(home)
    err = err.getvalue()
    if code == 0:
        out = cwd / out
        files = sorted(out.iterdir()) if out.is_dir() else [out]
        return code, [f.read_bytes() for f in files]
    # a usage error (2) or, from eval alone, a failed episode (1): one line, no output
    assert code == 2 or (code == 1 and argv[0] == "eval"), (code, argv, err)
    failed = argv[0] == "eval" and code == 1
    assert err.startswith(f"fsosr {argv[0]}: error: {'episode ' if failed else ''}"), (argv, err)
    assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert _tree(cwd) == before, argv  # nothing made is left, and no earlier file is rewritten
    return code, []


# the shapes an --out is drawn from, and those a directory output can be written to
OUT_SHAPES = ("new", "file", "dir", ".", "under-file", "fifo")
DIR_SHAPES = ("new", "dir", ".")


def _out_slot(cwd: Path, name: str, shape: str) -> str:
    """In a new directory `cwd`, an --out of the given shape: `name` new, or
    taken by a file, a directory or a FIFO; `.`; or a path under a file."""
    cwd.mkdir()
    if shape in ("file", "under-file"):
        (cwd / name).write_bytes(b"an earlier file")
    elif shape == "dir":
        (cwd / name).mkdir()
    elif shape == "fifo":
        os.mkfifo(cwd / name)
    return {".": ".", "under-file": f"{name}/sub"}.get(shape, name)


@pytest.fixture(scope="module")
def tiny_fsof(tmp_path_factory):
    """A 10-class file of 3 x 3 x 12 maps, room for any drawn episode shape,
    for eval draws whose generation failed."""
    path = tmp_path_factory.mktemp("tiny") / "tiny.fsof"
    ds, _ = generate_synthetic(SyntheticConfig(num_classes=10, items_per_class=10, height=3, width=3, channels=12))
    write_dataset(ds, path)
    return path


# a numpy warning (an overflow, say) would print more lines outside pytest; as
# an error, in a forked worker too, it takes the place of the message
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    gen=_flag_set(GEN_FLAGS), ev=_flag_set(EVAL_FLAGS, given=6), masks_taken=st.booleans(),
    episode=st.integers(0, 5), pgm_taken=st.sampled_from([None, "support00_mask.pgm", "support01_iter0.pgm"]),
    gen_out=st.sampled_from(OUT_SHAPES), eval_out=st.sampled_from(OUT_SHAPES), heat_out=st.sampled_from(OUT_SHAPES),
)
@example(  # a failed episode in a pool worker, which few draws reach
    gen=[], ev=["--num-episodes=9", "--n-way=2", "--k-shot=1", "--n-query=1", "--open-classes=1",
                "--open-query=1", "--learning-rate=1e300", "--workers=2"],
    masks_taken=False, episode=0, pgm_taken=None, gen_out="new", eval_out="new", heat_out="new",
)
@example(  # both slots taken, with earlier files beside them
    gen=[], ev=["--num-episodes=1", "--n-way=2", "--k-shot=1", "--n-query=1", "--open-classes=1", "--open-query=1"],
    masks_taken=True, episode=0, pgm_taken="support01_iter0.pgm", gen_out="file", eval_out="dir", heat_out="dir",
)
def test_cli_run_ends_one_of_three_ways(
    tiny_fsof, gen, ev, masks_taken, episode, pgm_taken, gen_out, eval_out, heat_out
):
    """Any gen-synthetic and eval flag set, an inspect of the generated file,
    and a heatmap of one episode of a finished eval, each writing to an --out
    drawn from OUT_SHAPES, ends with exit 0 and output that a rerun reproduces
    byte for byte, exit 2 and one usage-error line, or (eval) exit 1 and the
    one-line episode failure: never a traceback. A failure leaves the tree
    beside its output as it was, also when a directory holds the place of the
    masks file or of a PGM."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = _out_slot(tmp / "gen", "gen.fsof", gen_out)
        masks = tmp / "gen" / cli.masks_path(out)
        if masks_taken and masks.parent.is_dir():
            masks.mkdir()
        code, written = _ends_as_contracted(["gen-synthetic", "--out", out, *gen], out, tmp / "gen")
        assert code == 2 or (gen_out in ("new", "file") and not masks_taken)
        if code == 0:
            data = tmp / "gen" / out
            assert _ends_as_contracted(["inspect", str(data)], out, tmp / "gen") == (0, written)
            rerun = _out_slot(tmp / "gen2", "gen.fsof", gen_out)
            assert _ends_as_contracted(["gen-synthetic", "--out", rerun, *gen], rerun, tmp / "gen2") == (0, written)
        else:
            data = tiny_fsof
        runs = [["eval", "--dataset", str(data), "--out", _out_slot(tmp / name, "run", eval_out), *ev]
                for name in ("a", "b")]
        code, written = _ends_as_contracted(runs[0], runs[0][4], tmp / "a")
        assert code == 2 or eval_out in DIR_SHAPES
        if code == 0:
            assert _ends_as_contracted(runs[1], runs[1][4], tmp / "b") == (0, written)
            heat = _out_slot(tmp / "h", "heat", heat_out)
            if pgm_taken and heat_out in DIR_SHAPES:
                (tmp / "h" / heat / pgm_taken).mkdir(parents=True)
            argv = ["heatmap", "--bundle", str(tmp / "a" / runs[0][4]), "--episode", str(episode), "--out", heat]
            num_episodes = int(ev[0].split("=")[1])  # the first flag given, always --num-episodes
            ok = episode < num_episodes and heat_out in DIR_SHAPES and not pgm_taken
            assert _ends_as_contracted(argv, heat, tmp / "h")[0] == (0 if ok else 2)


class TestHeatmap:
    """`fsosr heatmap` replays the mining of one episode of a finished run."""

    @staticmethod
    def _recording(calls: list, fn):
        def record(*args):
            calls.append(fn(*args))
            return calls[-1]

        return record

    @pytest.mark.parametrize("iterations", [1, 4])
    @pytest.mark.parametrize("norm", ["minmax", "softmax"])
    def test_masks_and_backgrounds_are_the_evals(
        self, benchmark_dataset, tmp_path, monkeypatch, capsys, norm, iterations
    ):
        path, _, _ = benchmark_dataset
        # every mining call of a 3-episode eval, and the pairs procam_for_support returns
        eval_mined, eval_pairs = [], []
        monkeypatch.setattr(pipeline, "mine", self._recording(eval_mined, mine))
        monkeypatch.setattr(
            pipeline, "procam_for_support", self._recording(eval_pairs, pipeline.procam_for_support)
        )
        run = tmp_path / "run"
        assert cli.main([
            "eval", "--dataset", str(path), "--out", str(run), "--num-episodes", "3",
            "--seed", "123", "--iterations", str(iterations), "--norm", norm, "--epochs", "2",
        ]) == 0
        assert len(eval_mined) == len(eval_pairs) == 3
        monkeypatch.undo()
        # the heatmap's mining call and the maps it writes
        mined, written = [], {}
        monkeypatch.setattr(cli, "mine", self._recording(mined, mine))
        monkeypatch.setattr(cli, "export_heatmap", lambda m, p: written.setdefault(Path(p).name, m))
        capsys.readouterr()
        out = tmp_path / "heat"
        assert cli.main(["heatmap", "--bundle", str(run), "--episode", "2", "--out", str(out)]) == 0
        [(masks, backgrounds, trace)] = mined
        want_masks, want_backgrounds, want_trace = eval_mined[2]
        assert _same_bits(masks, want_masks) and _same_bits(backgrounds, want_backgrounds)
        assert len(trace) == len(want_trace) == iterations
        assert all(_same_bits(step, want) for step, want in zip(trace, want_trace))
        assert _same_bits(backgrounds, np.stack([bg.values for _, bg in eval_pairs[2]]))
        assert len(written) == 25 * (1 + iterations)
        for j in range(25):
            assert _same_bits(written[f"support{j:02d}_mask.pgm"], masks[j])
            for t in range(iterations):
                assert _same_bits(written[f"support{j:02d}_iter{t}.pgm"], trace[t][j])
        # the benchmark file has no ground-truth masks beside it
        assert capsys.readouterr().out == f"wrote {len(written)} heatmaps for episode 2 to {out}\n"

    def test_corrupted_summary_is_one_usage_error_line(self, heatmap_bundles, tmp_path, capsys):
        """Every value the heatmap reads from a run's summary.json, and each
        object holding them, swapped for a seeded value of another JSON type,
        deleted, or nested past the parser's limit: each corruption ends in exit
        code 2 and one usage-error line, and writes nothing."""
        summary = json.loads((heatmap_bundles / "run" / "summary.json").read_text())
        read = [("format_version",), ("config",)]
        read += [("config", key) for key in ("dataset", "master_seed", "num_episodes", "episode", "procam")]
        read += [("config", part, key) for part in ("episode", "procam") for key in summary["config"][part]]
        others = [None, True, 2, 2.5, "2", [2], {"n_way": 2}]
        rng = np.random.default_rng(29)
        out = tmp_path / "out"
        for i, (path, kind) in enumerate((path, kind) for path in read for kind in ("swap", "delete", "deep")):
            doc = json.loads(json.dumps(summary))
            *parents, last = path
            holder = functools.reduce(operator.getitem, parents, doc)
            if kind == "delete":
                del holder[last]
            else:
                swaps = [v for v in others if type(v) is not type(holder[last])]
                holder[last] = swaps[rng.integers(len(swaps))] if kind == "swap" else "@deep@"
            bundle = tmp_path / str(i)
            bundle.mkdir()
            (bundle / "summary.json").write_text(json.dumps(doc).replace('"@deep@"', DEEP_JSON))
            with pytest.raises(SystemExit) as info:
                cli.main(["heatmap", "--bundle", str(bundle), "--episode", "0", "--out", str(out)])
            err = capsys.readouterr().err
            assert info.value.code == 2, (path, kind)
            assert err.startswith("fsosr heatmap: error: ") and err.count("\n") == 1, (path, kind, err)
            assert not out.exists(), (path, kind)

    def test_iou_printed_beside_a_masks_file(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "synth.fsof"
        assert cli.main(["gen-synthetic", "--out", str(data), "--seed", "4"]) == 0
        run = tmp_path / "run"
        assert cli.main([
            "eval", "--dataset", str(data), "--out", str(run), "--num-episodes", "2",
            "--n-way", "2", "--k-shot", "3", "--open-classes", "2", "--epochs", "2",
        ]) == 0
        mined = []
        monkeypatch.setattr(cli, "mine", self._recording(mined, mine))
        argv = ["heatmap", "--bundle", str(run), "--episode", "1", "--out", str(tmp_path / "heat")]
        capsys.readouterr()
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        # episode 1 of the run: its supports' ground truth against the masks mined
        cfg = RunConfig(dataset=str(data), n_way=2, k_shot=3, n_open_classes=2)
        support = sample_episode(read_dataset(data), cfg.episode, derive_episode_seed(0, 1)).support
        truth = read_dataset(cli.masks_path(data)).values[support, ..., 0]
        ious = [mask_iou(mask, gt) for mask, gt in zip(mined[0][0], truth)]
        assert len(ious) == 6
        assert lines[1:] == [
            *(f"support {j} (item {i}): IoU {iou:.3f}" for j, (i, iou) in enumerate(zip(support, ious))),
            f"mean IoU {np.mean(ious):.3f}",
        ]
        # without the masks file there is nothing to score against
        cli.masks_path(data).unlink()
        assert cli.main(argv) == 0
        assert "IoU" not in capsys.readouterr().out
