"""Command-line front end.

Exit codes: 0 success (or no detection), 1 fire detected (``detect`` only),
2 usage error, 3 data/format error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import arch, pipeline
from .dataio import SynthConfig, synth_dataset
from .errors import CorruptFileError, WhtFireError
from .fwht import fwht, ifwht
from .nn import TrainConfig

EXIT_OK = 0
EXIT_DETECTED = 1
EXIT_USAGE = 2
EXIT_DATA = 3

_ARCHES = ("resnet50", "wht-resnet50-preset", "toy-conv", "toy-wht")


def _probability(text: str) -> float:
    """argparse type for a decision threshold: a finite number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"{text} is outside [0, 1]")
    return value


def _width(text: str) -> int:
    """argparse type for a toy-net width: a power of two >= 8."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 8 or value & (value - 1):
        raise argparse.ArgumentTypeError(f"{value} is not a power of two >= 8")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whtfire",
        description="Walsh-Hadamard transform layers and block-grid smoke detection",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--precision", choices=("f32", "f64"), default="f32")
    parser.add_argument("--out-dir", default="out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="fast Walsh-Hadamard transform of a text vector")
    p.set_defaults(run=_cmd_transform)
    p.add_argument("--input", required=True, help="text file, one value per line")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--normalized", action="store_true")

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--count", type=int, default=20, help="images per class")
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--contrast", type=float, default=0.8)

    p = sub.add_parser("train", help="train a toy variant from scratch")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--manifest", required=True)
    p.add_argument("--variant", choices=arch.TOY_VARIANTS, default="wht")
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--width", type=_width, default=8)
    p.add_argument("--input-size", type=int, choices=arch.TOY_INPUT_SIZES, default=32)

    p = sub.add_parser("finetune", help="fine-tune from a source checkpoint")
    p.set_defaults(run=_cmd_finetune)
    p.add_argument("--source", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--lr", type=float, default=pipeline.FINETUNE_LEARNING_RATE)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--freeze-stem", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)

    p = sub.add_parser("detect", help="block-grid detection over one image")
    p.set_defaults(run=_cmd_detect)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--tau", type=_probability, default=0.5)
    p.add_argument("--draw-scores", action="store_true")

    p = sub.add_parser("params", help="parameter-count table for an architecture")
    p.set_defaults(run=_cmd_params)
    p.add_argument("--arch", choices=_ARCHES, required=True)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--width", type=_width, default=8)

    p = sub.add_parser("bench", help="transform timing report")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--sizes", default=None,
                   help="comma-separated powers of two, e.g. 1024,4096,65536")
    return parser


def _cmd_transform(args) -> int:
    values = []
    for number, line in enumerate(Path(args.input).read_text().splitlines(), start=1):
        for token in line.split():
            try:
                values.append(float(token))
            except ValueError:
                raise CorruptFileError(
                    f"{args.input}, line {number}: {token!r} is not a number"
                ) from None
    x = np.array(values, dtype=np.float64)
    out = ifwht(x, args.normalized) if args.inverse else fwht(x, args.normalized)
    for v in out:
        print(f"{v:.12g}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    config = SynthConfig(
        seed=args.seed, count_per_class=args.count,
        resolution=args.resolution, smoke_contrast=args.contrast,
    )
    manifest = synth_dataset(config, args.out_dir)
    print(f"wrote {2 * args.count} images and {Path(args.out_dir) / 'manifest.csv'}")
    return EXIT_OK


def _cmd_train(args) -> int:
    dtype = np.float64 if args.precision == "f64" else np.float32
    config = TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, momentum=args.momentum,
        batch_size=args.batch_size, seed=args.seed,
    )
    record, _, ckpt = pipeline.train(
        args.manifest, args.variant, config, args.out_dir,
        width=args.width, input_size=args.input_size, dtype=dtype,
    )
    last = record.epochs[-1] if record.epochs else None
    if last:
        print(f"epoch {last['epoch']}: loss {last['train_loss']:.4f} "
              f"val_f1 {last['val']['f1']:.4f}")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    config = TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, momentum=args.momentum,
        batch_size=args.batch_size, seed=args.seed,
    )
    record, _, ckpt = pipeline.finetune(
        args.source, args.manifest, config, args.out_dir,
        freeze_stem=args.freeze_stem,
    )
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    metrics, cm = pipeline.evaluate(args.checkpoint, args.manifest)
    print(pipeline.format_metrics_table(metrics, cm))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"metrics": metrics.as_dict(),
               "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn}}
    (out_dir / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_detect(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid, detected = pipeline.detect(
        args.checkpoint, args.image, args.tau,
        out_overlay=out_dir / "overlay.ppm",
        out_json=out_dir / "scores.json",
        draw_scores=args.draw_scores,
    )
    rows, cols = grid.scores.shape
    kind = "fallback" if grid.fallback else "grid"
    print(f"{kind} scores {rows}x{cols}; max {grid.scores.max():.4f}; "
          f"detected={detected}")
    return EXIT_DETECTED if detected else EXIT_OK


def _cmd_params(args) -> int:
    if args.arch == "resnet50":
        desc = arch.resnet50_descriptor(args.classes)
    elif args.arch == "wht-resnet50-preset":
        desc = arch.wht_resnet50_descriptor(args.classes)
    else:
        variant = arch.ARCH_NAME_TO_VARIANT[args.arch]
        desc = arch.toy_descriptor(variant, width=args.width)
    total = arch.count_params(desc)
    for name, kind, count in arch.param_table(desc):
        print(f"{name:<28} {kind:<10} {count:>12,}")
    print(f"{'total':<28} {'':<10} {total:>12,}")
    if desc.assumptions:
        print("assumptions:")
        for line in desc.assumptions:
            print(f"  - {line}")
    reference = arch.REFERENCE_PARAM_COUNTS.get(
        "wht-resnet50" if args.arch == "wht-resnet50-preset" else args.arch
    )
    if reference and args.classes == 2:
        delta = total - reference
        print(f"reference count {reference:,} (delta {delta:+,}, "
              f"{100.0 * delta / reference:+.4f}%)")
    return EXIT_OK


def _cmd_bench(args) -> int:
    sizes = None
    if args.sizes:
        sizes = [int(s) for s in args.sizes.split(",")]
    report = pipeline.bench(sizes, seed=args.seed)
    for e in report["entries"]:
        line = f"N={e['n']:>8} fwht {e['fwht_seconds'] * 1e3:9.3f} ms"
        if "naive_seconds" in e:
            line += (f"   naive {e['naive_seconds'] * 1e3:9.3f} ms"
                     f"   speedup {e['speedup']:.1f}x")
        print(line)
    for r in report["doubling_ratios"]:
        print(f"N {r['from']:>8} -> {r['to']:>8}: time ratio {r['time_ratio']:.2f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (WhtFireError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
