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
from .featmap import NORM_KINDS, NORM_MINMAX, FeatureMap, minmax_norm, spatial_avg_pool
from .pipeline import RunConfig, gradcheck_command, run_eval, validate_dataset_for_config
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


def _read(args: argparse.Namespace, path) -> FeatureDataset:
    """read_dataset(path), where a file that cannot be opened is a usage
    error; a malformed one still raises DatasetFormatError."""
    try:
        return read_dataset(path)
    except OSError as exc:
        raise _usage_error(args, f"cannot open dataset {path}: {exc.strerror or exc}") from exc


def _cmd_gen_synthetic(args: argparse.Namespace) -> int:
    if args.benchmark:
        cfg = benchmark_config(seed=7 if args.seed is None else args.seed)
    else:
        cfg = _config(
            args,
            SyntheticConfig,
            num_classes=args.classes,
            items_per_class=args.items_per_class,
            height=args.height,
            width=args.width,
            channels=args.channels,
            signal_strength=args.signal_strength,
            noise_sigma=args.noise_sigma,
            bkg_strength=args.bkg_strength,
            bkg_noise_mean=args.bkg_noise_mean,
            bkg_noise_scale=args.bkg_noise_scale,
            seed=0 if args.seed is None else args.seed,
        )
    ds, masks = generate_synthetic(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(ds, out)
    # ground-truth masks ride along as a second dataset of H x W x 1 maps
    mask_items = [
        (FeatureMap(mask.astype(np.float64)[:, :, None]), label)
        for mask, (_, label) in zip(masks, ds.items)
    ]
    mask_file = masks_path(out)
    write_dataset(FeatureDataset(mask_items, class_names=ds.class_names), mask_file)
    print(f"wrote {len(ds.items)} items ({ds.num_classes} classes, "
          f"{ds.height}x{ds.width}x{ds.channels}) to {out}")
    print(f"wrote ground-truth masks to {mask_file}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    ds = _read(args, args.dataset)
    print(f"dataset: {args.dataset}")
    print(f"items: {len(ds.items)}")
    print(f"classes: {ds.num_classes}")
    print(f"map shape: {ds.height}x{ds.width}x{ds.channels}")
    values = np.stack([f.values for f, _ in ds.items])
    print(f"value range: [{values.min():.6g}, {values.max():.6g}], mean {values.mean():.6g}")
    for c in range(ds.num_classes):
        name = ds.class_names[c] if ds.class_names else f"class_{c}"
        print(f"  {c}: {name} ({len(ds.class_index[c])} items)")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _config(
        args,
        RunConfig,
        dataset=args.dataset,
        n_way=args.n_way,
        k_shot=args.k_shot,
        n_query=args.n_query,
        n_open_classes=args.open_classes,
        n_open_query=args.open_query,
        iterations=args.iterations,
        norm_kind=args.norm,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        bkg_loss_weight=args.bkg_loss_weight,
        temperature=args.temperature,
        reassign_each_epoch=not args.fixed_pseudo_labels,
        init_kind=args.init,
        num_background=args.n_background,
        num_episodes=args.num_episodes,
        master_seed=args.seed,
        use_background_classes=not args.no_background,
        use_procam_finetune=not args.no_finetune,
        freeze_known=args.freeze_known,
        score_kind=args.score_kind,
        pooled_auroc=args.pooled_auroc,
        output_dir=args.out,
        workers=args.workers,
        dump_last_bank=args.dump_last_bank,
    )
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
    cfg = _config(args, ProCamConfig, iterations=args.iterations, norm_kind=args.norm)
    ds = _read(args, args.dataset)
    if not 0 <= args.item < len(ds.items):
        raise _usage_error(args, f"item {args.item} outside [0, {len(ds.items)})")
    fmap, label = ds.items[args.item]
    # class prototype = mean pooled embedding over every item of the class
    same_class = np.stack([f.values for f, lab in ds.items if lab == label])
    weight = spatial_avg_pool(same_class).mean(axis=0)
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
    return gradcheck_command(seed=args.seed, trials=args.trials)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsosr",
        description="Few-shot open-set recognition on precomputed feature maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="generate a synthetic benchmark dataset")
    gen.add_argument("--out", required=True, help="output dataset file")
    gen.add_argument("--benchmark", action="store_true",
                     help="use the standard benchmark configuration (ignores the size flags)")
    gen.add_argument("--classes", type=int, default=5)
    gen.add_argument("--items-per-class", type=int, default=20)
    gen.add_argument("--height", type=int, default=8)
    gen.add_argument("--width", type=int, default=8)
    gen.add_argument("--channels", type=int, default=16)
    gen.add_argument("--signal-strength", type=float, default=1.0)
    gen.add_argument("--noise-sigma", type=float, default=0.1)
    gen.add_argument("--bkg-strength", type=float, default=0.05)
    gen.add_argument("--bkg-noise-mean", type=float, default=0.0,
                     help="per-item background-energy shift mean, in units of --noise-sigma")
    gen.add_argument("--bkg-noise-scale", type=float, default=0.0,
                     help="per-item background-energy shift spread, in units of --noise-sigma")
    gen.add_argument("--seed", type=int, default=None,
                     help="generator seed (default 0, or 7 with --benchmark)")
    gen.set_defaults(func=_cmd_gen_synthetic)

    ins = sub.add_parser("inspect", help="print a dataset summary")
    ins.add_argument("dataset")
    ins.set_defaults(func=_cmd_inspect)

    ev = sub.add_parser("eval", help="run an episodic evaluation")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--out", default=_default_output_dir(),
                    help=f"output directory (default from ${OUTPUT_DIR_ENV} or ./fsosr-out)")
    ev.add_argument("--n-way", type=int, default=5)
    ev.add_argument("--k-shot", type=int, default=5)
    ev.add_argument("--n-query", type=int, default=10)
    ev.add_argument("--open-classes", type=int, default=5)
    ev.add_argument("--open-query", type=int, default=None,
                    help="queries per open class (default: same as --n-query)")
    ev.add_argument("--iterations", type=int, default=4, help="activation-map mining passes")
    ev.add_argument("--norm", choices=NORM_KINDS, default=NORM_MINMAX)
    ev.add_argument("--epochs", type=int, default=20)
    ev.add_argument("--learning-rate", type=float, default=0.002)
    ev.add_argument("--bkg-loss-weight", type=float, default=0.05)
    ev.add_argument("--temperature", type=float, default=10.0)
    ev.add_argument("--fixed-pseudo-labels", action="store_true",
                    help="assign background pseudo-labels once instead of every epoch")
    ev.add_argument("--init", choices=INIT_KINDS, default="random")
    ev.add_argument("--n-background", type=int, default=2)
    ev.add_argument("--num-episodes", type=int, default=600)
    ev.add_argument("--seed", type=int, default=0, help="master seed")
    ev.add_argument("--no-background", action="store_true",
                    help="disable background rows (plain prototype classifier)")
    ev.add_argument("--no-finetune", action="store_true",
                    help="keep background rows at their initialization")
    ev.add_argument("--freeze-known", action="store_true",
                    help="fine-tune background rows only")
    ev.add_argument("--score-kind", choices=SCORE_KINDS, default="margin")
    ev.add_argument("--pooled-auroc", action="store_true",
                    help="also report one AUROC over all episodes' scores pooled")
    ev.add_argument("--workers", type=int, default=1)
    ev.add_argument("--dump-last-bank", action="store_true",
                    help="include the last episode's classifier bank in summary.json")
    ev.set_defaults(func=_cmd_eval)

    hm = sub.add_parser("heatmap", help="export mining masks for one item as PGM images")
    hm.add_argument("--dataset", required=True)
    hm.add_argument("--item", type=int, required=True)
    hm.add_argument("--out", default=_default_output_dir())
    hm.add_argument("--iterations", type=int, default=4)
    hm.add_argument("--norm", choices=NORM_KINDS, default=NORM_MINMAX)
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
