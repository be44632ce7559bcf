"""Training, evaluation, full-image detection, and benchmarks.

``fit`` is the one trainer: scratch and fine-tuning runs differ only in the
net it trains in place, a seeded init or a loaded checkpoint.  Every run is
deterministic given its seed: the train/validation split, the per-epoch
shuffles, and the batch order all come from one seeded generator, so
identical invocations produce byte-identical checkpoints and records.
"""

from __future__ import annotations

import math
import statistics
import timeit
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .arch import (
    Network,
    build_toy_net,
    check_network,
    network_backward,
    network_forward,
    param_specs,
)
from .dataio import (
    Manifest,
    _write_json,
    checkpoint_load,
    checkpoint_save,
    load_manifest,
    ppm_read,
    ppm_write,
)
from .errors import (
    ArchMismatchError,
    EmptyDatasetError,
    LengthNotPowerOfTwoError,
    NonFiniteScoreError,
    ShapeMismatchError,
    SingleClassDatasetError,
    SizeTooLargeError,
    TrainingDivergedError,
)
from .fwht import fwht, hadamard_matrix
from .nn import SgdOptimizer, TrainConfig, softmax, softmax_cross_entropy
from .tiling import render_overlay, score_grid, score_grid_json

FINETUNE_LEARNING_RATE = 0.001
VALIDATION_FRACTION = 0.2
DECISION_THRESHOLD = 0.5
# Samples per forward when evaluating.  32 measured slower: evaluating 128
# patches right after a 10-epoch train took x1.38 (x1.35 on one BLAS thread)
# the time at 8, median of 10 alternating pairs on a 2-vCPU Xeon
# (BENCH_train_step.json, "eval_batch").
EVAL_BATCH = 8
MAX_BENCH_SIZE = 1 << 22
NAIVE_BENCH_LIMIT = 1 << 12
BENCH_RUNS = 5  # timed repetitions per size; the median is reported
BENCH_RUN_SECONDS = 0.02  # each timed repetition loops the call for about this long


# -- metrics -------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    zero_division: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {**asdict(self), "zero_division": list(self.zero_division)}


def compute_metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, precision, recall, and their harmonic-mean F1.

    Zero-denominator cases yield 0.0 and are named in ``zero_division``.
    """
    total = cm.total
    if total == 0:
        raise EmptyDatasetError("confusion matrix is empty")
    flags = []
    accuracy = (cm.tp + cm.tn) / total
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision, flags = 0.0, flags + ["precision"]
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall, flags = 0.0, flags + ["recall"]
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, flags = 0.0, flags + ["f1"]
    return Metrics(accuracy, precision, recall, f1, tuple(flags))


def format_metrics_table(metrics: Metrics, cm: ConfusionMatrix) -> str:
    rows = [
        ("accuracy", metrics.accuracy),
        ("precision", metrics.precision),
        ("recall", metrics.recall),
        ("f1", metrics.f1),
    ]
    lines = [f"{name:<10} {value:8.4f}" for name, value in rows]
    lines.append(
        f"tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn} total={cm.total}"
    )
    if metrics.zero_division:
        lines.append("zero-denominator: " + ", ".join(metrics.zero_division))
    return "\n".join(lines)


# -- dataset handling ------------------------------------------------------------

def load_dataset(manifest, net: Network):
    """A manifest's images as one (N, S, S, 3) array of ``net``'s input, and its labels."""
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    if len(manifest) == 0:
        raise EmptyDatasetError("manifest has no entries")
    size = net.descriptor.input_size
    pixels = np.empty((len(manifest), size, size, 3), dtype=np.uint8)
    for i, path in enumerate(manifest.paths()):
        image = ppm_read(path)
        if image.shape != pixels.shape[1:]:
            raise ShapeMismatchError(
                f"{path}: {image.shape[1]}x{image.shape[0]} image, network input {size}x{size}"
            )
        pixels[i] = image
    images = np.empty(pixels.shape, dtype=net.dtype)
    # one pass: each byte / 255 in float64, then cast to the net's dtype
    np.divide(pixels, 255.0, out=images, dtype=np.float64)
    return images, manifest.labels()


def _as_network(net_or_checkpoint) -> Network:
    if isinstance(net_or_checkpoint, Network):
        return net_or_checkpoint
    return checkpoint_load(net_or_checkpoint)


def confusion_from_scores(labels: np.ndarray, scores: np.ndarray) -> ConfusionMatrix:
    preds = scores >= DECISION_THRESHOLD
    pos = labels == 1
    return ConfusionMatrix(
        tp=int(np.sum(preds & pos)),
        fp=int(np.sum(preds & ~pos)),
        fn=int(np.sum(~preds & pos)),
        tn=int(np.sum(~preds & ~pos)),
    )


def _fire_probabilities(net: Network, images: np.ndarray) -> np.ndarray:
    logits = np.concatenate([
        network_forward(net, images[start : start + EVAL_BATCH], backward=False)[0]
        for start in range(0, len(images), EVAL_BATCH)
    ])
    return softmax(logits.astype(np.float64))[:, 1]


def evaluate(net_or_checkpoint, manifest):
    """Patch-level metrics at the 0.5 decision threshold; non-finite probabilities raise."""
    net = _as_network(net_or_checkpoint)
    images, labels = load_dataset(manifest, net)
    # an overflowing net's probabilities are non-finite, and the check below
    # reports that, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        probs = _fire_probabilities(net, images)
    bad = int(np.sum(~np.isfinite(probs)))
    if bad:
        raise NonFiniteScoreError(
            f"the network gives {bad} of {len(probs)} samples a non-finite fire probability"
        )
    cm = confusion_from_scores(labels, probs)
    return compute_metrics(cm), cm


# -- training ---------------------------------------------------------------------

@dataclass
class RunRecord:
    config: TrainConfig
    arch: str
    epochs: list[dict] = field(default_factory=list)
    final_checkpoint: str = ""
    transfer_source: str | None = None
    early_stop_reason: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def fit(net: Network, manifest, config: TrainConfig, out_dir, *,
        frozen=frozenset(), source=None):
    """Train ``net`` in place on ``manifest``; returns (RunRecord, net, path).

    A net whose checkpoint would not load (``arch.check_network``) and
    ``frozen``, names of its tensors never updated, are refused before the
    manifest is read or ``out_dir`` made.  ``source``, the checkpoint a
    fine-tuned net was loaded from, is ``run.json``'s ``transfer_source``.
    """
    check_network(net)
    if missing := set(frozen) - net.parameters.keys():
        raise ArchMismatchError(
            f"{net.descriptor.name} has no {', '.join(sorted(missing))} to freeze")
    images, labels = load_dataset(manifest, net)
    both = set(np.unique(labels))
    if both != {0, 1}:
        raise SingleClassDatasetError(
            f"training needs both classes, manifest has labels {sorted(both)}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(images))
    n_val = max(1, int(round(VALIDATION_FRACTION * len(images))))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    opt = SgdOptimizer(config.learning_rate, config.momentum, frozen)
    bounded = [(net.parameters[name], spec.lower)
               for name, spec in param_specs(net.descriptor).items()
               if spec.lower is not None]
    record = RunRecord(config, net.descriptor.name,
                       transfer_source=None if source is None else str(source))
    # a diverging run overflows on its way to NaN; the loss and the validation
    # probabilities below detect that, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = train_idx[rng.permutation(len(train_idx))]
            losses = []
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                logits, caches = network_forward(net, images[batch])
                batch_losses, dlogits = softmax_cross_entropy(logits, labels[batch])
                # network_backward sums over the batch; 1/B makes it the mean loss's grads
                dlogits *= net.dtype.type(1.0 / len(batch))
                opt.step(net.parameters, network_backward(net, caches, dlogits))
                for value, lower in bounded:
                    np.maximum(value, lower, out=value)
                losses.append(batch_losses)
            probs = _fire_probabilities(net, images[val_idx])
            bad = int(np.sum(~np.isfinite(probs)))
            # both classes make N >= 2, so n_val < N and every epoch has a batch
            train_loss = float(np.mean(np.concatenate(losses)))
            loss_diverged = not math.isfinite(train_loss)
            record.epochs.append({
                "epoch": epoch,
                "train_loss": None if loss_diverged else train_loss,
                # a finite loss can still leave an overflowed network behind
                "val": None if bad else compute_metrics(
                    confusion_from_scores(labels[val_idx], probs)).as_dict(),
            })
            if loss_diverged:
                record.early_stop_reason = f"mean training loss {train_loss} in epoch {epoch}"
            elif bad:
                record.early_stop_reason = (
                    f"{bad} of {len(probs)} validation probabilities non-finite in epoch {epoch}")
            if record.early_stop_reason is not None:
                _write_json(record.as_dict(), out_dir / "run.json")
                raise TrainingDivergedError(
                    f"training diverged ({record.early_stop_reason}); no checkpoint written, "
                    f"see {out_dir / 'run.json'}"
                )
    ckpt_path = out_dir / "checkpoint.whtc"
    checkpoint_save(net, {}, ckpt_path)  # the run's settings are in run.json
    record.final_checkpoint = str(ckpt_path)
    _write_json(record.as_dict(), out_dir / "run.json")
    return record, net, ckpt_path


def train(manifest, variant: str, config: TrainConfig, out_dir, *,
          width: int = 8, input_size: int = 32):
    """``fit`` a float32 toy variant from scratch; the benchmark calls this form."""
    return fit(build_toy_net(variant, width, input_size, seed=config.seed),
               manifest, config, out_dir)


# -- detection -----------------------------------------------------------------

def detect(net_or_checkpoint, image_path, threshold: float = DECISION_THRESHOLD, *,
           out_overlay, out_json, draw_scores: bool = False):
    """Score a full frame block-by-block, then always write both the overlay
    and the scores JSON, creating their directories; returns (ScoreGrid, detected).

    Nothing is written if scoring raises, as it does for a threshold outside
    [0, 1].  ``tiling.score_grid`` only scores.  Old outputs are written over
    in place: a reader of the overlay mid-write can see two frames mixed.
    """
    net = _as_network(net_or_checkpoint)
    image = ppm_read(image_path)
    grid = score_grid(net, image, threshold)
    Path(out_overlay).parent.mkdir(parents=True, exist_ok=True)
    ppm_write(render_overlay(image, grid, draw_scores), out_overlay)
    _write_json(score_grid_json(grid, str(image_path)), out_json)
    return grid, grid.any_detection


# -- benchmarking ------------------------------------------------------------------

def _median_seconds(fun) -> float:
    """Median seconds per call of ``fun`` over ``BENCH_RUNS`` repetitions of
    ``timeit``, each looping it for about ``BENCH_RUN_SECONDS``; ``timeit``
    switches the garbage collector off while it times."""
    timer = timeit.Timer(fun)
    timer.timeit(1)  # warm up caches before measuring
    reps = max(1, int(BENCH_RUN_SECONDS / max(timer.timeit(1), 1e-7)))
    return statistics.median(timer.repeat(BENCH_RUNS, reps)) / reps


def bench(sizes=None, seed: int = 0) -> dict:
    """Median fast-transform time per size; naive matrix product for small N."""
    if sizes is None:
        sizes = [1 << k for k in (10, 12, 14, 15, 16, 17, 18, 19, 20)]
    rng = np.random.default_rng(seed)
    entries = []
    for n in sizes:
        if n > MAX_BENCH_SIZE:
            raise SizeTooLargeError(f"size {n} exceeds {MAX_BENCH_SIZE}")
        if n < 1 or n & (n - 1):
            raise LengthNotPowerOfTwoError(f"bench size {n} not a power of two")
        x = rng.standard_normal(n)
        t_fast = _median_seconds(lambda: fwht(x))
        entry = {"n": n, "fwht_seconds": t_fast}
        if n <= NAIVE_BENCH_LIMIT:
            h = hadamard_matrix(n.bit_length() - 1).astype(np.float64)
            t_naive = _median_seconds(lambda: x @ h)
            entry["naive_seconds"] = t_naive
            entry["speedup"] = t_naive / t_fast
        entries.append(entry)
    ratios = []
    for prev, cur in zip(entries, entries[1:]):
        if cur["n"] == 2 * prev["n"]:
            ratios.append({
                "from": prev["n"],
                "to": cur["n"],
                "time_ratio": cur["fwht_seconds"] / prev["fwht_seconds"],
            })
    return {"entries": entries, "doubling_ratios": ratios}
