"""Command-line front end.

Exit codes: 0 success (or no detection); 1 fire detected (``detect`` only);
2 usage error, argparse refused an argument; 3 data/format error, a
``WhtFireError`` or ``OSError``; 4 internal error.  Any other exception is
a bug, or a ``MemoryError``, and propagates out of ``main``; ``main_entry``,
the process boundary, prints its traceback to stderr and exits 4, so that
status 1 always means a detection.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import arch, pipeline
from .dataio import SynthConfig, _write_json, checkpoint_load, synth_dataset
from .errors import CorruptFileError, WhtFireError
from .fwht import fwht, ifwht
from .nn import TrainConfig

EXIT_OK = 0
EXIT_DETECTED = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text, then refuse a value not ``ok``."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):  # a comparison with nan is False
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_NON_NEGATIVE = _checked(int, lambda n: n >= 0, "an integer >= 0")
_POSITIVE = _checked(int, lambda n: n >= 1, "an integer >= 1")
_UNIT = _checked(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")
_LEARNING_RATE = _checked(float, lambda x: 0.0 < x < float("inf"), "a finite number > 0")
_WIDTH = _checked(int, lambda n: n >= 8 and not n & (n - 1), "a power of two >= 8")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whtfire",
        description="Walsh-Hadamard transform layers and block-grid smoke detection",
        epilog="exit status: 0 success or no detection, 1 fire detected (detect), "
               "2 usage error, 3 data or format error, 4 internal error "
               "(a bug or out of memory; the traceback goes to stderr)",
    )
    parser.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    parser.add_argument("--out-dir", default="out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="fast Walsh-Hadamard transform of a text vector")
    p.set_defaults(run=_cmd_transform)
    p.add_argument("--input", required=True, help="text file, one value per line")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--normalized", action="store_true")

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--count", type=_POSITIVE, default=20, help="images per class")
    p.add_argument("--resolution", type=_checked(int, lambda n: n >= 8, "an integer >= 8"),
                   default=32)
    p.add_argument("--contrast", type=_UNIT, default=0.8)

    # the options train and finetune share; --lr differs in its default
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--manifest", required=True)
    training.add_argument("--epochs", type=_NON_NEGATIVE, default=25)
    training.add_argument("--momentum", default=0.9, type=_checked(
        float, lambda x: 0.0 <= x < 1.0, "a number in [0, 1)"))
    training.add_argument("--batch-size", type=_POSITIVE, default=8)

    p = sub.add_parser("train", parents=[training], help="train a toy variant from scratch")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--variant", choices=arch.TOY_VARIANTS, default="wht")
    p.add_argument("--lr", type=_LEARNING_RATE, default=0.01)
    p.add_argument("--width", type=_WIDTH, default=8)
    p.add_argument("--input-size", type=int, choices=arch.TOY_INPUT_SIZES, default=32)

    p = sub.add_parser("finetune", parents=[training], help="fine-tune from a source checkpoint")
    p.set_defaults(run=_cmd_finetune)
    p.add_argument("--source", required=True)
    p.add_argument("--lr", type=_LEARNING_RATE, default=pipeline.FINETUNE_LEARNING_RATE)
    p.add_argument("--freeze-stem", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)

    p = sub.add_parser("detect", help="block-grid detection over one image", description=(
        "Block-grid detection over one image.  Old outputs are written over in place: a "
        "reader of overlay.ppm mid-write can see two frames mixed under a valid header."))
    p.set_defaults(run=_cmd_detect)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--tau", type=_UNIT, default=pipeline.DECISION_THRESHOLD)
    p.add_argument("--draw-scores", action="store_true")

    p = sub.add_parser("params", help="parameter-count table for a toy architecture")
    p.set_defaults(run=_cmd_params)
    p.add_argument("--arch", choices=arch.ARCH_NAME_TO_VARIANT, required=True)
    p.add_argument("--width", type=_WIDTH, default=8)

    p = sub.add_parser("bench", help="transform timing report")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--sizes", default=None, type=_checked(
        lambda text: [int(s) for s in text.split(",")],
        lambda sizes: all(n >= 1 and not n & (n - 1) for n in sizes),
        "comma-separated powers of two",
    ), help="comma-separated powers of two, e.g. 1024,4096,65536")
    return parser


def _cmd_transform(args) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFileError(
            f"{args.input}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    values = []
    for number, line in enumerate(text.splitlines(), start=1):
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
    synth_dataset(config, args.out_dir)
    print(f"wrote {2 * args.count} images and {Path(args.out_dir) / 'manifest.csv'}")
    return EXIT_OK


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs, learning_rate=args.lr, momentum=args.momentum,
        batch_size=args.batch_size, seed=args.seed,
    )


def _cmd_train(args) -> int:
    net = arch.build_toy_net(args.variant, args.width, args.input_size, seed=args.seed)
    record, _, ckpt = pipeline.fit(net, args.manifest, _train_config(args), args.out_dir)
    last = record.epochs[-1] if record.epochs else None
    if last:
        print(f"epoch {last['epoch']}: loss {last['train_loss']:.4f} "
              f"val_f1 {last['val']['f1']:.4f}")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    _, _, ckpt = pipeline.fit(
        checkpoint_load(args.source), args.manifest, _train_config(args), args.out_dir,
        frozen={"stem.weight"} if args.freeze_stem else frozenset(), source=args.source,
    )
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    metrics, cm = pipeline.evaluate(args.checkpoint, args.manifest)
    print(pipeline.format_metrics_table(metrics, cm))
    _write_json({"metrics": metrics.as_dict(), "confusion": asdict(cm)},
                Path(args.out_dir) / "metrics.json")
    return EXIT_OK


def _cmd_detect(args) -> int:
    out_dir = Path(args.out_dir)
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
    desc = arch.toy_descriptor(arch.ARCH_NAME_TO_VARIANT[args.arch], width=args.width)
    for name, kind, count in arch.param_table(desc):
        print(f"{name:<28} {kind:<10} {count:>12,}")
    print(f"{'total':<28} {'':<10} {arch.count_params(desc):>12,}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    report = pipeline.bench(args.sizes, seed=args.seed)
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
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (WhtFireError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main_entry() -> None:
    try:
        code = main()
    except Exception:  # Python's own status for it, 1, would read as a detection
        traceback.print_exc()
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
