"""Command-line interface: dataset generation, inspection, evaluation runs,
heatmap export, and gradient checking."""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .classifier import INIT_KINDS, SCORE_KINDS, build_known_prototypes
from .dataset_io import export_heatmap, read_dataset, write_dataset
from .episode import FeatureDataset, SyntheticConfig, benchmark_config, generate_synthetic
from .episode import derive_episode_seed, sample_episode
from .finetune import gradcheck_report
from .pipeline import BUNDLE_FILES, BUNDLE_FORMAT_VERSION, RunConfig, run_eval, validate_dataset_for_config
from .procam import NORM_KINDS, mask_iou, mine

OUTPUT_DIR_ENV = "FSOSR_OUTPUT_DIR"


def _default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, "fsosr-out")


def masks_path(dataset_path) -> Path:
    p = Path(dataset_path)
    return p.with_name(p.stem + ".masks" + p.suffix) if p.suffix else Path(str(p) + ".masks")


def _usage_error(args: argparse.Namespace, message) -> SystemExit:
    """One `fsosr <command>: error: ...` line on stderr and exit code 2, as
    argparse reports a bad flag."""
    sys.stderr.write(f"fsosr {args.command}: error: {message}\n")
    return SystemExit(2)


def _config(args: argparse.Namespace, make, **settings):
    """make(**settings), where a setting it rejects with a ValueError is a
    usage error."""
    try:
        return make(**settings)
    except ValueError as exc:
        raise _usage_error(args, exc) from exc


def _settings(args: argparse.Namespace, *other: str) -> dict:
    """The settings given on the command line, each under its config field's
    name: every parsed flag except the named non-config arguments."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", *other)}


@contextmanager
def _file_errors(args: argparse.Namespace, message: str, hint=""):
    """A block where an OSError is a usage error: message, its reason, hint."""
    try:
        yield
    except OSError as exc:
        raise _usage_error(args, f"{message}: {exc.strerror or exc}{hint}") from exc


@contextmanager
def _writing(args: argparse.Namespace, files):
    """A block that writes `files`, each claimed first: its directory made and
    the file opened to append, which never truncates nor waits on a FIFO, so an
    unwritable slot is a usage error before any work, and earlier outputs stay
    as they were. A block that fails removes what was made here, last first."""
    made = []
    try:
        for path in files:
            made += reversed([p for p in (path, path.parent, *path.parent.parents) if not p.exists()])
            with _file_errors(args, f"cannot write {path.parent}"):
                path.parent.mkdir(parents=True, exist_ok=True)
            with _file_errors(args, f"cannot write {path}"):
                os.close(os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT | getattr(os, "O_NONBLOCK", 0)))
        yield
    except BaseException:
        for p in filter(Path.exists, reversed(made)):
            p.rmdir() if p.is_dir() else p.unlink()
        raise


def _read(args: argparse.Namespace, path, load=read_dataset, what="dataset", hint=""):
    """load(path), where a file that cannot be opened is a usage error naming
    it as `what`, then the hint; a malformed one still raises (a dataset
    DatasetFormatError)."""
    with _file_errors(args, f"cannot open {what} {path}", hint):
        return load(path)


def _cmd_gen_synthetic(args: argparse.Namespace) -> int:
    if "benchmark" in args:
        # the preset ignores the size flags; a given --seed replaces its own
        cfg = _config(args, benchmark_config, **({"seed": args.seed} if "seed" in args else {}))
    else:
        cfg = _config(args, SyntheticConfig, **_settings(args, "out"))
    out, mask_file = Path(args.out), masks_path(args.out)
    with _writing(args, [out, mask_file]):
        ds, masks = _config(args, generate_synthetic, cfg=cfg)
        write_dataset(ds, out)
        # ground-truth masks ride along as a second dataset of H x W x 1 maps
        write_dataset(FeatureDataset(masks[..., None].astype(np.float32), ds.labels), mask_file)
    print(f"wrote {len(ds)} items ({ds.num_classes} classes, "
          f"{ds.height}x{ds.width}x{ds.channels}) to {out}")
    print(f"wrote ground-truth masks to {mask_file}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    ds = _read(args, args.dataset)
    print(f"dataset: {args.dataset}")
    print(f"items: {len(ds)}")
    print(f"classes: {ds.num_classes}")
    print(f"map shape: {ds.height}x{ds.width}x{ds.channels}")
    values = ds.values
    print(f"value range: [{values.min():.6g}, {values.max():.6g}], "
          f"mean {values.mean(dtype=np.float64):.6g}")
    for c, items in enumerate(ds.class_index):
        print(f"class {c}: {len(items)} items")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config(args, RunConfig, output_dir=args.out, **_settings(args, "out"))
    ds = _read(args, cfg.dataset)
    _config(args, validate_dataset_for_config, ds=ds, cfg=cfg)
    try:
        with _writing(args, [Path(args.out) / name for name in BUNDLE_FILES]):  # before episode 0
            bundle = run_eval(cfg, ds)
    except RuntimeError as exc:  # a failed episode, named with its seed: exit 1, not a usage error
        sys.stderr.write(f"fsosr {args.command}: error: {exc}\n")
        return 1
    agg = bundle.aggregate
    print(f"episodes: {agg['n_episodes']}")
    print(f"accuracy: {100 * agg['mean_accuracy']:.2f}% +/- {100 * agg['ci95_accuracy']:.2f}")
    print(f"auroc:    {100 * agg['mean_auroc']:.2f}% +/- {100 * agg['ci95_auroc']:.2f}")
    if bundle.pooled_auroc is not None:
        print(f"pooled auroc: {100 * bundle.pooled_auroc:.2f}%")
    print(f"results written to {args.out}")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    summary = Path(args.bundle) / "summary.json"
    try:  # a summary.json that is not a bundle's (not JSON, no config) is a usage error
        bundle = json.loads(_read(args, summary, Path.read_text, "bundle summary"))
        version = bundle.get("format_version")
        if type(version) is not int or version != BUNDLE_FORMAT_VERSION:  # True and 1.0 equal 1
            raise _usage_error(args, f"{summary} has format version {version}, expected {BUNDLE_FORMAT_VERSION}")
        # the run's episode and mining settings, each of the type a run's own snapshot gives it
        settings, typed = ({k: snap[k] for k in ("dataset", "master_seed", "num_episodes")}
                           | snap["episode"] | snap["procam"]
                           for snap in (bundle["config"], RunConfig(dataset="").snapshot()))
        for key, value in typed.items():
            if type(settings[key]) is not type(value):  # JSON keeps 2, 2.0, true and null apart
                raise TypeError(f"config {key} is {type(settings[key]).__name__}, expected {type(value).__name__}")
        cfg = _config(args, RunConfig, **settings)
    except (ValueError, AttributeError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: deep JSON
        raise _usage_error(args, f"{summary} is not a bundle summary ({type(exc).__name__}: {exc})") from exc
    if not 0 <= args.episode < cfg.num_episodes:
        raise _usage_error(args, f"episode {args.episode} outside [0, {cfg.num_episodes})")
    ds = _read(args, cfg.dataset, hint="" if Path(cfg.dataset).is_absolute() else
               f" (a relative path in {summary} is taken from the directory fsosr eval ran in)")
    _config(args, validate_dataset_for_config, ds=ds, cfg=cfg)
    truth_path = masks_path(cfg.dataset)  # gen-synthetic's ground truth, an H x W x 1 map per item
    truth = _read(args, truth_path).values if truth_path.exists() else None
    if truth is not None and truth.shape != (len(ds), ds.height, ds.width, 1):
        raise _usage_error(args, f"{truth_path} holds masks of shape {truth.shape}, "
                                 f"expected {(len(ds), ds.height, ds.width, 1)}")
    # the calls evaluate_episode makes: the same sample, prototypes and mining stack
    episode = sample_episode(ds, cfg.episode, derive_episode_seed(cfg.master_seed, args.episode, stream=0))
    support, labels = episode.support, episode.support_labels
    known = build_known_prototypes(ds.embeddings[support], labels, cfg.n_way, cfg.k_shot)
    masks, _, trace = mine(ds.values[support], known[labels], cfg.procam)
    out = Path(args.out)
    maps = {out / f"support{j:02d}_{kind}.pgm": m for j, mask in enumerate(masks)
            for kind, m in (("mask", mask), *((f"iter{t}", step[j]) for t, step in enumerate(trace)))}
    with _writing(args, maps):
        for path, m in maps.items():
            export_heatmap(m, path)
    print(f"wrote {len(maps)} heatmaps for episode {args.episode} to {out}")
    if truth is not None:
        ious = [mask_iou(mask, gt) for mask, gt in zip(masks, truth[support, ..., 0])]
        for j, (item, iou) in enumerate(zip(support, ious)):
            print(f"support {j} (item {item}): IoU {iou:.3f}")
        print(f"mean IoU {np.mean(ious):.3f}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    report = _config(args, gradcheck_report, **_settings(args))
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"prototype_gradient: max relative error {report['prototype_gradient']:.3e} "
          f"(threshold {report['threshold']:.0e}) {verdict}")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsosr",
        description="Few-shot open-set recognition on precomputed feature maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # On gen-synthetic, eval and gradcheck a flag left out is absent from the
    # namespace, so each setting takes its default from its config class or
    # function alone.
    gen = sub.add_parser("gen-synthetic", help="generate a synthetic benchmark dataset",
                         argument_default=argparse.SUPPRESS)
    gen.add_argument("--out", required=True, help="output dataset file")
    gen.add_argument("--benchmark", action="store_true",
                     help="use the standard benchmark configuration (ignores the size flags)")
    gen.add_argument("--classes", dest="num_classes", type=int)
    gen.add_argument("--items-per-class", type=int)
    gen.add_argument("--height", type=int)
    gen.add_argument("--width", type=int)
    gen.add_argument("--channels", type=int)
    gen.add_argument("--signal-strength", type=float)
    gen.add_argument("--noise-sigma", type=float)
    gen.add_argument("--bkg-strength", type=float)
    gen.add_argument("--bkg-noise-mean", type=float,
                     help="per-item background-energy shift mean, in units of --noise-sigma")
    gen.add_argument("--bkg-noise-scale", type=float,
                     help="per-item background-energy shift spread, in units of --noise-sigma")
    gen.add_argument("--seed", type=int,
                     help="generator seed (default 0, or 7 with --benchmark)")
    gen.set_defaults(func=_cmd_gen_synthetic)

    ins = sub.add_parser("inspect", help="print a dataset summary")
    ins.add_argument("dataset")
    ins.set_defaults(func=_cmd_inspect)

    ev = sub.add_parser("eval", help="run an episodic evaluation",
                        argument_default=argparse.SUPPRESS)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--out", default=_default_output_dir(),
                    help=f"output directory (default from ${OUTPUT_DIR_ENV} or ./fsosr-out)")
    ev.add_argument("--n-way", type=int)
    ev.add_argument("--k-shot", type=int)
    ev.add_argument("--n-query", type=int)
    ev.add_argument("--open-classes", dest="n_open_classes", type=int)
    ev.add_argument("--open-query", dest="n_open_query", type=int,
                    help="queries per open class (default: same as --n-query)")
    ev.add_argument("--iterations", type=int, help="activation-map mining passes")
    ev.add_argument("--norm", dest="norm_kind", choices=NORM_KINDS)
    ev.add_argument("--epochs", type=int)
    ev.add_argument("--learning-rate", type=float)
    ev.add_argument("--bkg-loss-weight", type=float)
    ev.add_argument("--temperature", type=float)
    ev.add_argument("--fixed-pseudo-labels", dest="reassign_each_epoch", action="store_false",
                    help="assign background pseudo-labels once instead of every epoch")
    ev.add_argument("--init", dest="init_kind", choices=INIT_KINDS)
    ev.add_argument("--n-background", dest="num_background", type=int)
    ev.add_argument("--num-episodes", type=int)
    ev.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    ev.add_argument("--no-background", dest="use_background_classes", action="store_false",
                    help="disable background rows (plain prototype classifier)")
    ev.add_argument("--no-finetune", dest="use_procam_finetune", action="store_false",
                    help="keep background rows at their initialization")
    ev.add_argument("--freeze-known", action="store_true",
                    help="fine-tune background rows only")
    ev.add_argument("--score-kind", choices=SCORE_KINDS)
    ev.add_argument("--pooled-auroc", action="store_true",
                    help="also report one AUROC over all episodes' scores pooled")
    ev.add_argument("--workers", type=int)
    ev.add_argument("--dump-last-bank", action="store_true",
                    help="include the last episode's classifier bank in summary.json")
    ev.set_defaults(func=_cmd_eval)

    hm = sub.add_parser("heatmap", help="export one episode's mined support masks as PGM images")
    hm.add_argument("--bundle", required=True, help="output directory of a finished eval run")
    hm.add_argument("--episode", type=int, required=True, help="index of the run's episode to replay")
    hm.add_argument("--out", default=_default_output_dir())
    hm.set_defaults(func=_cmd_heatmap)

    gc = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences",
                        argument_default=argparse.SUPPRESS)
    gc.add_argument("--seed", type=int)
    gc.add_argument("--trials", type=int)
    gc.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, not at exit, so a reader that has gone is caught below
    except BrokenPipeError:  # stdout's reader has gone: exit 1, and nothing more is printed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
