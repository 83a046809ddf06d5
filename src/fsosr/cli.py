"""Command-line interface: dataset generation, inspection, evaluation runs,
heatmap export, and gradient checking."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .classifier import INIT_KINDS, SCORE_KINDS
from .dataset_io import export_heatmap, read_dataset, write_dataset
from .episode import FeatureDataset, SyntheticConfig, benchmark_config, generate_synthetic
from .featmap import NORM_KINDS, FeatureMap, minmax_norm
from .finetune import gradcheck_command
from .pipeline import RunConfig, run_eval, validate_dataset_for_config
from .procam import ProCamConfig, cam, procam

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


def _read(args: argparse.Namespace, path) -> FeatureDataset:
    """read_dataset(path), where a file that cannot be opened is a usage
    error; a malformed one still raises DatasetFormatError."""
    try:
        return read_dataset(path)
    except OSError as exc:
        raise _usage_error(args, f"cannot open dataset {path}: {exc.strerror or exc}") from exc


def _cmd_gen_synthetic(args: argparse.Namespace) -> int:
    if "benchmark" in args:
        # the preset ignores the size flags; a given --seed replaces its own
        cfg = _config(args, benchmark_config, **({"seed": args.seed} if "seed" in args else {}))
    else:
        cfg = _config(args, SyntheticConfig, **_settings(args, "out"))
    ds, masks = generate_synthetic(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(ds, out)
    # ground-truth masks ride along as a second dataset of H x W x 1 maps
    mask_values = np.stack(masks, dtype=np.float32)[..., None]
    mask_file = masks_path(out)
    write_dataset(FeatureDataset(mask_values, ds.labels, class_names=ds.class_names), mask_file)
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
    for c in range(ds.num_classes):
        name = ds.class_names[c] if ds.class_names else f"class_{c}"
        print(f"  {c}: {name} ({len(ds.class_index[c])} items)")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config(args, RunConfig, output_dir=args.out, **_settings(args, "out"))
    ds = _read(args, cfg.dataset)
    _config(args, validate_dataset_for_config, ds=ds, cfg=cfg)
    bundle = run_eval(cfg, ds)
    agg = bundle.aggregate
    print(f"episodes: {agg['n_episodes']}")
    print(f"accuracy: {100 * agg['mean_accuracy']:.2f}% +/- {100 * agg['ci95_accuracy']:.2f}")
    print(f"auroc:    {100 * agg['mean_auroc']:.2f}% +/- {100 * agg['ci95_auroc']:.2f}")
    if bundle.pooled_auroc is not None:
        print(f"pooled auroc: {100 * bundle.pooled_auroc:.2f}%")
    print(f"results written to {args.out}")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    cfg = _config(args, ProCamConfig, **_settings(args, "dataset", "item", "out"))
    ds = _read(args, args.dataset)
    if not 0 <= args.item < len(ds):
        raise _usage_error(args, f"item {args.item} outside [0, {len(ds)})")
    # the one item mined, widened to double precision
    fmap, label = FeatureMap(ds.values[args.item]), int(ds.labels[args.item])
    # class prototype = mean pooled embedding over every item of the class
    weight = ds.embeddings[ds.class_index[label]].mean(axis=0)
    result = procam(fmap, weight, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"item{args.item:04d}"
    export_heatmap(minmax_norm(cam(fmap.values, weight)), out / f"{stem}_cam.pgm")
    export_heatmap(result.final_mask, out / f"{stem}_mask.pgm")
    for i, mask in enumerate(result.per_iteration_masks):
        export_heatmap(mask, out / f"{stem}_iter{i}.pgm")
    print(f"wrote {2 + len(result.per_iteration_masks)} heatmaps for item {args.item} "
          f"(class {label}) to {out}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    return _config(args, gradcheck_command, seed=args.seed, trials=args.trials)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsosr",
        description="Few-shot open-set recognition on precomputed feature maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # On gen-synthetic, eval and heatmap a flag left out is absent from the
    # namespace, so each setting takes its default from its config class alone.
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

    hm = sub.add_parser("heatmap", help="export mining masks for one item as PGM images",
                        argument_default=argparse.SUPPRESS)
    hm.add_argument("--dataset", required=True)
    hm.add_argument("--item", type=int, required=True)
    hm.add_argument("--out", default=_default_output_dir())
    hm.add_argument("--iterations", type=int)
    hm.add_argument("--norm", dest="norm_kind", choices=NORM_KINDS)
    hm.set_defaults(func=_cmd_heatmap)

    gc = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--trials", type=int, default=20)
    gc.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
