"""Training, fine-tuning, evaluation, full-image detection, and benchmarks.

Every run is deterministic given its seed: the train/validation split, the
per-epoch shuffles, and the batch order all come from one seeded generator,
so identical invocations produce byte-identical checkpoints and records.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .arch import (
    ARCH_NAME_TO_VARIANT,
    Network,
    build_toy_net,
    network_backward,
    network_forward,
    param_specs,
)
from .dataio import (
    Manifest,
    SynthConfig,
    checkpoint_load,
    checkpoint_save,
    load_manifest,
    ppm_read,
    ppm_write,
    synth_dataset,
)
from .errors import (
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
EVAL_BATCH = 8  # samples per forward when evaluating
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
    images = np.empty((len(manifest), size, size, 3), dtype=net.dtype)
    for i, path in enumerate(manifest.paths()):
        image = ppm_read(path)
        if image.shape != images.shape[1:]:
            raise ShapeMismatchError(
                f"{path}: {image.shape[1]}x{image.shape[0]} image, network input {size}x{size}"
            )
        images[i] = image
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
        network_forward(net, images[start : start + EVAL_BATCH])[0]
        for start in range(0, len(images), EVAL_BATCH)
    ])
    return softmax(logits.astype(np.float64))[:, 1]


def evaluate(net_or_checkpoint, manifest):
    """Patch-level metrics at the 0.5 decision threshold; non-finite probabilities raise."""
    net = _as_network(net_or_checkpoint)
    images, labels = load_dataset(manifest, net)
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
    variant: str
    epochs: list[dict] = field(default_factory=list)
    final_checkpoint: str = ""
    transfer_source: str | None = None
    early_stop_reason: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def _write_run_json(record: RunRecord, out_dir: Path) -> None:
    # strict JSON: a non-finite number fails here instead of writing NaN
    text = json.dumps(record.as_dict(), indent=2, allow_nan=False)
    (out_dir / "run.json").write_text(text + "\n")


def _run_training(net: Network, manifest, config: TrainConfig, variant: str,
                  out_dir: Path, frozen: frozenset[str] = frozenset(),
                  transfer_source: str | None = None):
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
    record = RunRecord(config, variant, transfer_source=transfer_source)
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
        train_loss = float(np.mean(np.concatenate(losses))) if losses else None
        loss_diverged = train_loss is not None and not math.isfinite(train_loss)
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
            break
    if record.early_stop_reason is not None:
        _write_run_json(record, out_dir)
        raise TrainingDivergedError(
            f"training diverged ({record.early_stop_reason}); no checkpoint written, "
            f"see {out_dir / 'run.json'}"
        )
    ckpt_path = out_dir / "checkpoint.whtc"
    metadata = {
        "epoch": str(config.epochs),
        "learning_rate": repr(config.learning_rate),
        "momentum": repr(config.momentum),
        "batch_size": str(config.batch_size),
        "variant": variant,
    }
    if transfer_source:
        metadata["transfer_source"] = transfer_source
    checkpoint_save(net, metadata, ckpt_path)
    record.final_checkpoint = str(ckpt_path)
    _write_run_json(record, out_dir)
    return record, net, ckpt_path


def train(manifest, variant: str, config: TrainConfig, out_dir, *,
          width: int = 8, input_size: int = 32, dtype=np.float32,
          threshold_trainable: bool = False):
    """Train a toy variant from scratch; returns (RunRecord, Network, path)."""
    net = build_toy_net(variant, width, input_size, seed=config.seed,
                        dtype=dtype, threshold_trainable=threshold_trainable)
    return _run_training(net, manifest, config, variant, Path(out_dir))


def finetune(source_checkpoint, manifest, config: TrainConfig, out_dir, *,
             freeze_stem: bool = False):
    """Continue training, on a new manifest, whichever network the checkpoint holds."""
    net = checkpoint_load(source_checkpoint)
    frozen = frozenset({"stem.weight"}) if freeze_stem else frozenset()
    return _run_training(
        net, manifest, config, ARCH_NAME_TO_VARIANT[net.descriptor.name], Path(out_dir),
        frozen=frozen, transfer_source=str(source_checkpoint),
    )


# -- detection -----------------------------------------------------------------

def detect(net_or_checkpoint, image_path, threshold: float = DECISION_THRESHOLD,
           out_overlay=None, out_json=None, draw_scores: bool = False):
    """Score a full frame block-by-block; returns (ScoreGrid, detected)."""
    net = _as_network(net_or_checkpoint)
    image = ppm_read(image_path)
    grid = score_grid(net, image, threshold)
    if out_overlay is not None:
        Path(out_overlay).parent.mkdir(parents=True, exist_ok=True)
        ppm_write(render_overlay(image, grid, draw_scores), out_overlay)
    if out_json is not None:
        out_json = Path(out_json)
        out_json.parent.mkdir(parents=True, exist_ok=True)
        payload = score_grid_json(grid, str(image_path))
        out_json.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return grid, grid.any_detection


# -- transfer experiment -----------------------------------------------------------

def transfer_experiment(seed: int, workdir, *, variant: str = "wht",
                        width: int = 8, input_size: int = 32, epochs: int = 25,
                        source_count: int = 48, target_count: int = 12,
                        eval_count: int = 40, source_contrast: float = 0.9,
                        target_contrast: float = 0.25) -> dict:
    """One seed of the source->target protocol.

    A source model is trained on plentiful high-contrast synthetic data;
    the target domain has few, low-contrast samples.  The scratch arm and
    the fine-tuned arm get the same epoch budget on the target data and are
    compared on a held-out target-domain evaluation set.
    """
    workdir = Path(workdir)
    source_man = synth_dataset(
        SynthConfig(seed=1000 + seed, count_per_class=source_count,
                    resolution=input_size, smoke_contrast=source_contrast),
        workdir / "source_data",
    )
    target_man = synth_dataset(
        SynthConfig(seed=2000 + seed, count_per_class=target_count,
                    resolution=input_size, smoke_contrast=target_contrast),
        workdir / "target_data",
    )
    eval_man = synth_dataset(
        SynthConfig(seed=3000 + seed, count_per_class=eval_count,
                    resolution=input_size, smoke_contrast=target_contrast),
        workdir / "eval_data",
    )
    _, _, source_ckpt = train(
        source_man, variant,
        TrainConfig(epochs=epochs, learning_rate=0.01, seed=seed),
        workdir / "source_run", width=width, input_size=input_size,
    )
    _, scratch_net, _ = train(
        target_man, variant,
        TrainConfig(epochs=epochs, learning_rate=0.01, seed=seed),
        workdir / "scratch_run", width=width, input_size=input_size,
    )
    _, tuned_net, _ = finetune(
        source_ckpt, target_man,
        TrainConfig(epochs=epochs, learning_rate=FINETUNE_LEARNING_RATE, seed=seed),
        workdir / "finetune_run",
    )
    scratch_metrics, _ = evaluate(scratch_net, eval_man)
    tuned_metrics, _ = evaluate(tuned_net, eval_man)
    return {
        "seed": seed,
        "scratch": scratch_metrics.as_dict(),
        "finetuned": tuned_metrics.as_dict(),
        "scratch_f1": scratch_metrics.f1,
        "finetuned_f1": tuned_metrics.f1,
    }


# -- benchmarking ------------------------------------------------------------------

def _median_seconds(fun) -> float:
    fun()  # warm up caches before measuring
    t0 = time.perf_counter()
    fun()
    est = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(BENCH_RUN_SECONDS / est))
    samples = []
    for _ in range(BENCH_RUNS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fun()
        samples.append((time.perf_counter() - t0) / reps)
    samples.sort()
    return samples[len(samples) // 2]


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
