import json

import numpy as np
import pytest

from fsosr.classifier import InitStrategy, build_known_prototypes, init_background, predict
from fsosr.dataset_io import read_dataset
from fsosr.episode import derive_episode_seed, sample_episode
from fsosr.featmap import spatial_avg_pool
from fsosr.finetune import finetune_bank
from fsosr.metrics import accuracy, auroc
from fsosr.pipeline import (
    RunConfig,
    gradcheck_command,
    gradcheck_report,
    run_eval,
    validate_dataset_for_config,
)
from fsosr.procam import procam_for_support
from fsosr import cli


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

    def test_matches_scripted_pipeline(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        cfg = small_cfg(path, num_episodes=3)
        bundle = run_eval(cfg)
        ds = read_dataset(path)
        for index in range(3):
            seed = derive_episode_seed(cfg.master_seed, index, 0)
            episode = sample_episode(ds, cfg.episode_spec(seed))
            sup = spatial_avg_pool(np.stack([f.values for f, _ in episode.support]))
            labels = np.array([c for _, c in episode.support])
            bank = build_known_prototypes(sup, labels, cfg.n_way, cfg.k_shot)
            pairs = procam_for_support(list(episode.support), bank, cfg.procam_config())
            bgs = np.stack([b.values for _, b in pairs])
            strategy = InitStrategy("random", seed=derive_episode_seed(cfg.master_seed, index, 1))
            bank = init_background(bank, strategy, cfg.num_background, bgs)
            bank, _ = finetune_bank(bank, sup, labels, bgs, cfg.finetune_config())
            known = spatial_avg_pool(np.stack([f.values for f, _ in episode.known_queries]))
            unknown = spatial_avg_pool(np.stack([f.values for f in episode.unknown_queries]))
            rows, ks = predict(bank, known, cfg.score_kind)
            _, us = predict(bank, unknown, cfg.score_kind)
            acc_pairs = [
                (None if row >= bank.num_known else row, truth)
                for row, (_, truth) in zip(rows, episode.known_queries)
            ]
            row = bundle.episodes[index]
            assert row["seed"] == seed
            assert row["accuracy"] == accuracy(acc_pairs)
            assert row["auroc"] == auroc(ks, us)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_norm_fails_with_episode_context(self, benchmark_dataset, workers):
        path, _, _ = benchmark_dataset
        cfg = small_cfg(path, learning_rate=1e300, workers=workers)
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

    def test_validation_errors_before_running(self, benchmark_dataset):
        path, ds, _ = benchmark_dataset
        with pytest.raises(ValueError, match="classes"):
            validate_dataset_for_config(ds, small_cfg(path, n_way=10, n_open_classes=10))
        with pytest.raises(ValueError, match="items"):
            validate_dataset_for_config(ds, small_cfg(path, k_shot=20, n_query=20))

    def test_pooled_auroc_mode(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        bundle = run_eval(small_cfg(path, pooled_auroc=True))
        assert bundle.pooled_auroc is not None
        assert 0.0 <= bundle.pooled_auroc <= 1.0
        assert "pooled_auroc" in bundle.summary_json_text()

    def test_dump_last_bank(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        bundle = run_eval(small_cfg(path, num_episodes=2, dump_last_bank=True))
        assert bundle.last_bank is not None
        assert bundle.last_bank["num_known"] == 5
        assert bundle.last_bank["num_background"] == 1
        assert bundle.last_loss is not None
        assert len(bundle.last_loss["per_epoch_totals"]) == 21

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
        from fsosr.pipeline import evaluate_episode

        path, ds, _ = benchmark_dataset
        cfg = small_cfg(path, init_kind="global")
        strategy = InitStrategy("global", seed=derive_episode_seed(cfg.master_seed, 0, 1))
        evaluate_episode(ds, cfg, 0, strategy)
        after_first = np.array(strategy.persisted_weights)
        evaluate_episode(ds, cfg, 1, strategy)
        after_second = np.array(strategy.persisted_weights)
        # fine-tuning wrote updated rows back between episodes
        assert not np.array_equal(after_first, after_second)

    def test_snapshot_excludes_execution_details(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        snap = small_cfg(path, workers=3, output_dir="/tmp/x", dump_last_bank=True).snapshot()
        text = json.dumps(snap)
        assert "workers" not in text and "output_dir" not in text and "dump" not in text

    def test_open_query_defaults_to_n_query(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        cfg = small_cfg(path, n_open_query=None)
        assert cfg.resolved_open_query() == cfg.n_query

    def test_config_validation(self, benchmark_dataset):
        path, _, _ = benchmark_dataset
        with pytest.raises(ValueError, match="score kind"):
            small_cfg(path, score_kind="nope")
        with pytest.raises(ValueError, match="num_background"):
            small_cfg(path, num_background=0, use_background_classes=True)


class TestGradcheck:
    def test_default_check_passes(self):
        report = gradcheck_report(seed=1, trials=4, prototype_shapes=((3, 1, 4), (3, 2, 4)))
        assert report["passed"]
        assert report["prototype_gradient"] < 1e-4

    def test_passes_across_seeds(self):
        for seed in range(10):
            report = gradcheck_report(seed=seed, trials=2, prototype_shapes=((4, 2, 6),))
            assert report["passed"], f"seed {seed}: {report}"

    def test_default_seed_has_wide_margin(self):
        # the fourth-order stencil keeps finite-difference round-off far below
        # the 1e-4 threshold on the default run
        assert gradcheck_report(seed=0)["prototype_gradient"] < 1e-5

    def test_perturbed_gradient_fails(self, capsys):
        code = gradcheck_command(seed=1, trials=2, perturb=1e-2)
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_command_reports_pass(self, capsys):
        code = gradcheck_command(seed=1, trials=2)
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 1
        assert out.startswith("prototype_gradient:")


class TestCli:
    def test_end_to_end_commands(self, tmp_path, capsys):
        data = tmp_path / "synth.fsof"
        assert cli.main([
            "gen-synthetic", "--out", str(data), "--classes", "10", "--items-per-class", "12",
            "--channels", "16", "--seed", "5",
        ]) == 0
        assert data.exists()
        assert cli.masks_path(data).exists()
        # mask sidecar holds one H x W x 1 map per item
        masks_ds = read_dataset(cli.masks_path(data))
        assert masks_ds.channels == 1
        assert len(masks_ds.items) == 120

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
        assert cli.main([
            "heatmap", "--dataset", str(data), "--item", "0", "--out", str(heat_dir),
            "--iterations", "3",
        ]) == 0
        files = sorted(p.name for p in heat_dir.iterdir())
        assert "item0000_cam.pgm" in files and "item0000_mask.pgm" in files
        assert sum(1 for f in files if "iter" in f) == 3
        for f in heat_dir.iterdir():
            assert f.read_bytes().startswith(b"P5\n")

    def test_gradcheck_command(self, capsys):
        assert cli.main(["gradcheck", "--seed", "2", "--trials", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gen_synthetic_benchmark_preset(self, tmp_path, benchmark_dataset, capsys):
        out = tmp_path / "bench.fsof"
        assert cli.main(["gen-synthetic", "--out", str(out), "--benchmark"]) == 0
        # byte-identical to the session benchmark file (same config, same seed)
        reference_path, _, _ = benchmark_dataset
        assert out.read_bytes() == reference_path.read_bytes()

    def test_output_dir_env_default(self, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, "/some/dir")
        parser = cli.build_parser()
        args = parser.parse_args(["eval", "--dataset", "x"])
        assert args.out == "/some/dir"
