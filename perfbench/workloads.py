"""The four workloads: seeded set-up, one timed operation, and its oracle.

Each workload calls the library only through module attributes
(``pipeline.detect``, ``fwht.fwht``, ...) so that a traced run sees the
calls, and it hands the library nothing but the files and arrays that
``inputs`` generated from the seed.  Checks run after the timed
operation and never inside it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

pipeline = importlib.import_module("whtfire.pipeline")
arch = importlib.import_module("whtfire.arch")
dataio = importlib.import_module("whtfire.dataio")
tiling = importlib.import_module("whtfire.tiling")
fwht_mod = importlib.import_module("whtfire.fwht")
nn = importlib.import_module("whtfire.nn")

# Oracle tolerances, stated once.
WINDOW_SCORE_ATOL = 1e-5       # |grid score - per-window forward_classify|
ROUND_TRIP_ATOL = 1e-12        # |ifwht(fwht(x)) - x| for x ~ N(0, 1), float64
COEFF_ATOL_PER_ABS_SUM = 1e-12 # |coefficient - oracle| / sum(|x|)
JSON_SCORE_ATOL = 5e-7 + 1e-12 # scores.json holds scores rounded to 6 places
ORACLE_ROWS = 2                # rows per row block checked against hadamard_matrix
ORACLE_COEFFS = 2              # coefficients per long vector checked by direct sum
DETECT_THRESHOLD = 0.5
GREEN = (0, 255, 0)
RED = (255, 0, 0)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` serves its tests."""

    per_class: int = 64
    epochs: int = 10
    frame_height: int = 1080
    frame_width: int = 1920
    row_lengths: tuple[int, ...] = (1 << 6, 1 << 8, 1 << 12)
    vector_lengths: tuple[int, ...] = (1 << 16, 1 << 18, 1 << 20)
    row_elements: int = 1 << 20
    oracle_windows: int = 4
    # The trained net must beat chance (0.5) clearly on the held-out set;
    # the full-size 10-epoch net reaches 0.75-0.86 across seeds.
    accuracy_floor: float = 0.6


FULL = Sizes()
TINY = Sizes(per_class=6, epochs=2, frame_height=448, frame_width=672,
             row_lengths=(1 << 3, 1 << 6, 1 << 12), vector_lengths=(1 << 13, 1 << 14),
             row_elements=1 << 13, oracle_windows=2, accuracy_floor=0.0)


@dataclass
class Outcome:
    """What one operation returned, plus the seconds of its named phases."""

    result: object
    phases: dict[str, float] = field(default_factory=dict)


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """Defaults shared by the workloads; each defines setup, op, check, summary."""

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def warm_up(self, state: dict) -> None:
        self.op(state, 0)

    def trace_context(self, state: dict) -> dict:
        """Frames per operation, windows per frame, grid pixels per frame."""
        return {"frames": 0, "windows": 0, "grid_px": 0}

    def provenance(self, state: dict) -> dict:
        return {}


# -- train-wht32 ---------------------------------------------------------------

class TrainWht32(Workload):
    """``pipeline.train`` of the wht toy net, then ``pipeline.evaluate``."""

    variant = "wht"
    width = 8
    input_size = 32
    batch_size = 8

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        train_man = inputs.write_patch_set(seed, inputs.STREAM_TRAIN, s.per_class,
                                           self.input_size, workdir / "train")
        eval_man = inputs.write_patch_set(seed, inputs.STREAM_EVAL, s.per_class,
                                          self.input_size, workdir / "eval")
        files = sorted(workdir.glob("*/*"))
        return {
            "seed": seed,
            "train_manifest": train_man,
            "eval_manifest": eval_man,
            "run_dir": workdir / "run",
            "inputs_sha256": inputs.sha256_files(workdir, files),
            "checkpoint_sha256": None,
            "eval": None,
        }

    def _config(self, state: dict, epochs: int):
        return nn.TrainConfig(epochs=epochs, batch_size=self.batch_size, seed=state["seed"])

    def warm_up(self, state: dict) -> None:
        _, _, ckpt = pipeline.train(state["train_manifest"], self.variant,
                                    self._config(state, 1), state["run_dir"],
                                    width=self.width, input_size=self.input_size)
        pipeline.evaluate(ckpt, state["eval_manifest"])

    def op(self, state: dict, index: int) -> Outcome:
        t0 = time.perf_counter()
        record, _, ckpt = pipeline.train(state["train_manifest"], self.variant,
                                         self._config(state, self.sizes.epochs),
                                         state["run_dir"], width=self.width,
                                         input_size=self.input_size)
        t1 = time.perf_counter()
        metrics, cm = pipeline.evaluate(ckpt, state["eval_manifest"])
        t2 = time.perf_counter()
        return Outcome((record, Path(ckpt), metrics, cm),
                       {"train": t1 - t0, "eval": t2 - t1})

    def check(self, state: dict, index: int, result) -> list[str]:
        record, ckpt, metrics, cm = result
        state["eval"] = metrics
        bad = []
        losses = [e["train_loss"] for e in record.epochs]
        if len(losses) != self.sizes.epochs or not all(
                loss is not None and math.isfinite(loss) for loss in losses):
            bad.append(f"non-finite or missing training losses {losses}"
                       + (" but a checkpoint was saved" if ckpt.exists() else ""))
        try:
            net = dataio.checkpoint_load(ckpt)
        except Exception as exc:  # any failure to reload is this operation's failure
            return bad + [f"checkpoint does not reload: {exc!r}"]
        if net.descriptor.name != "toy-wht" or not all(
                np.all(np.isfinite(p)) for p in net.parameters.values()):
            bad.append("reloaded checkpoint is not a finite toy-wht net")
        digest = _sha256(ckpt)
        if state["checkpoint_sha256"] is None:
            state["checkpoint_sha256"] = digest
        elif digest != state["checkpoint_sha256"]:
            bad.append("same-seed training produced a different checkpoint")
        if cm.total != 2 * self.sizes.per_class:
            bad.append(f"evaluated {cm.total} samples, expected {2 * self.sizes.per_class}")
        if not metrics.accuracy >= self.sizes.accuracy_floor:
            bad.append(f"held-out accuracy {metrics.accuracy:.3f} < {self.sizes.accuracy_floor}")
        return bad

    def summary(self, state: dict, ops: list) -> tuple[dict, dict]:
        trained = 2 * self.sizes.per_class * self.sizes.epochs * len(ops)
        evaluated = 2 * self.sizes.per_class * len(ops)
        main = trained / sum(o.phases["train"] for o in ops)
        side = evaluated / sum(o.phases["eval"] for o in ops)
        named = {
            "train_samples_per_s": (main, "samples/s"),
            "eval_samples_per_s": (side, "samples/s"),
            "eval_f1": (state["eval"].f1, "ratio"),
            "eval_accuracy": (state["eval"].accuracy, "ratio"),
        }
        return {"main_per_s": main, "side_per_s": side}, named

    def provenance(self, state: dict) -> dict:
        return {"checkpoint_sha256": state["checkpoint_sha256"]}


# -- detect-* -------------------------------------------------------------------

class Detect(Workload):
    """``pipeline.detect(checkpoint, frame, out_overlay, out_json)``, as the CLI."""

    frames = ((0, True), (1, False))  # (frame index, carries smoke)
    width = 8

    def __init__(self, sizes: Sizes, variant: str, block: int):
        super().__init__(sizes)
        self.variant = variant
        self.block = block

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        frames, paths = [], []
        for index, smoke in self.frames:
            pixels = inputs.frame(seed, index, s.frame_height, s.frame_width, smoke)
            path = workdir / f"frame{index}.ppm"
            inputs.write_p6(pixels, path)
            frames.append(pixels)
            paths.append(path)
        net = arch.build_toy_net(self.variant, self.width, self.block, seed=seed)
        ckpt = workdir / "detector.whtc"
        dataio.checkpoint_save(net, {"variant": self.variant}, ckpt)
        rows, cols = s.frame_height // self.block, s.frame_width // self.block
        return {
            "seed": seed,
            "frames": frames,
            "frame_paths": paths,
            "checkpoint": ckpt,
            "oracle_net": dataio.checkpoint_load(ckpt),
            "grid": (rows, cols),
            "out_dir": workdir / "out",
            "inputs_sha256": inputs.sha256_files(workdir, paths + [ckpt]),
        }

    def op(self, state: dict, index: int) -> Outcome:
        which = index % len(self.frames)
        out = state["out_dir"]
        overlay, scores_json = out / f"overlay{which}.ppm", out / f"scores{which}.json"
        grid, detected = pipeline.detect(state["checkpoint"], state["frame_paths"][which],
                                         out_overlay=overlay, out_json=scores_json)
        return Outcome((which, grid, detected, overlay, scores_json))

    def check(self, state: dict, index: int, result) -> list[str]:
        which, grid, detected, overlay, scores_path = result
        rows, cols = state["grid"]
        scores = np.asarray(grid.scores)
        bad = check_score_grid(scores, (rows - 1, cols - 1))
        if grid.fallback or bad:
            return bad or ["detect fell back to one whole-image score"]
        if detected != bool(np.any(scores >= DETECT_THRESHOLD)):
            bad.append("detected flag disagrees with the scores")
        rng = np.random.default_rng([state["seed"], 5, index])
        picks = [(int(rng.integers(rows - 1)), int(rng.integers(cols - 1)))
                 for _ in range(self.sizes.oracle_windows)]
        oracle = window_oracle(state["oracle_net"], state["frames"][which], self.block, picks)
        bad += check_windows(scores, picks, oracle)
        payload = json.loads(scores_path.read_text())
        if payload["grid"] != [rows, cols] or payload["block"] != [self.block, self.block]:
            bad.append("scores.json grid or block is wrong")
        elif not np.allclose(np.array(payload["scores"]), scores, rtol=0, atol=JSON_SCORE_ATOL):
            bad.append("scores.json disagrees with the returned grid")
        pixels = inputs.read_p6(overlay)
        if pixels.shape != state["frames"][which].shape:
            bad.append(f"overlay shape {pixels.shape}")
        else:
            for r, c in picks:
                want = RED if scores[r, c] >= DETECT_THRESHOLD else GREEN
                if tuple(pixels[r * self.block + 1, c * self.block + 1]) != want:
                    bad.append(f"overlay border of block ({r}, {c}) is not {want}")
        return bad

    def summary(self, state: dict, ops: list) -> tuple[dict, dict]:
        rows, cols = state["grid"]
        frames_per_s = len(ops) / sum(o.seconds for o in ops)
        p50 = statistics.median(o.seconds for o in ops)
        named = {
            "detect_frame_p50_s": (p50, "s"),
            "detect_frames_per_s": (frames_per_s, "frames/s"),
        }
        return {"main_per_s": frames_per_s,
                "side_per_s": frames_per_s * (rows - 1) * (cols - 1)}, named

    def trace_context(self, state: dict) -> dict:
        rows, cols = state["grid"]
        return {"frames": 1, "windows": (rows - 1) * (cols - 1),
                "grid_px": rows * cols * self.block * self.block}


def check_score_grid(scores: np.ndarray, shape: tuple[int, int]) -> list[str]:
    """Shape (R-1, C-1), every value finite and in [0, 1]."""
    if scores.shape != shape:
        return [f"score grid {scores.shape}, expected {shape}"]
    if not np.all(np.isfinite(scores)):
        return ["score grid holds non-finite values"]
    if scores.min() < 0.0 or scores.max() > 1.0:
        return ["score grid leaves [0, 1]"]
    return []


def window_oracle(net, pixels: np.ndarray, block: int, picks) -> list[float]:
    """Per-window reference: forward_classify(net, downsample_window(window))."""
    out = []
    for r, c in picks:
        window = pixels[r * block : (r + 2) * block, c * block : (c + 2) * block]
        patch = tiling.downsample_window(window.astype(np.float64) / 255.0)
        out.append(float(arch.forward_classify(net, patch)[1]))
    return out


def check_windows(scores: np.ndarray, picks, oracle) -> list[str]:
    return [
        f"window ({r}, {c}) scored {scores[r, c]:.8f}, oracle {want:.8f}"
        for (r, c), want in zip(picks, oracle)
        if not abs(scores[r, c] - want) <= WINDOW_SCORE_ATOL
    ]


# -- transform-long ---------------------------------------------------------------

class TransformLong(Workload):
    """``fwht`` then ``ifwht`` on row blocks and on single long vectors."""

    def setup(self, seed: int, workdir: Path) -> dict:
        s = self.sizes
        rows, vectors = inputs.transform_arrays(seed, s.row_lengths, s.vector_lengths,
                                                s.row_elements)
        return {"seed": seed, "rows": rows, "vectors": vectors,
                "inputs_sha256": inputs.sha256_arrays(rows + vectors)}

    def op(self, state: dict, index: int) -> Outcome:
        outputs, phases = [], {}
        for phase in ("rows", "vectors"):
            t0 = time.perf_counter()
            for x in state[phase]:
                y = fwht_mod.fwht(x)
                outputs.append((x, y, fwht_mod.ifwht(y)))
            phases[phase] = time.perf_counter() - t0
        return Outcome(outputs, phases)

    def check(self, state: dict, index: int, result) -> list[str]:
        rng = np.random.default_rng([state["seed"], 6, index])
        bad = []
        for x, y, z in result:
            bad += check_round_trip(x, z)
            if x.ndim == 2:
                for r in rng.integers(x.shape[0], size=ORACLE_ROWS):
                    bad += check_row(x[r], y[r])
            else:
                bad += check_coefficients(x, y, rng.integers(x.size, size=ORACLE_COEFFS))
        return bad

    def summary(self, state: dict, ops: list) -> tuple[dict, dict]:
        # fwht and ifwht each count as one transform of every element
        row_elems = 2 * sum(x.size for x in state["rows"]) * len(ops)
        vec_elems = 2 * sum(x.size for x in state["vectors"]) * len(ops)
        main = row_elems / sum(o.phases["rows"] for o in ops)
        side = vec_elems / sum(o.phases["vectors"] for o in ops)
        named = {
            "fwht_rows_melem_per_s": (main * 1e-6, "Melem/s"),
            "fwht_long_melem_per_s": (side * 1e-6, "Melem/s"),
        }
        return {"main_per_s": main, "side_per_s": side}, named


def hadamard_product(row: np.ndarray) -> np.ndarray:
    """``hadamard_matrix(m) @ row``, without the full matrix above order 2^8.

    Above order 2^8 it applies H_(2^(a+b)) = H_(2^a) kron H_(2^b) as
    H_(2^a) @ X @ H_(2^b).T on the row reshaped to (2^a, 2^b); the full
    order-4096 matrix alone would take 128 MiB and swamp the workload's
    peak memory.
    """
    m = row.size.bit_length() - 1
    if m <= 8:
        return fwht_mod.hadamard_matrix(m) @ row
    lo = m // 2
    h_hi, h_lo = fwht_mod.hadamard_matrix(m - lo), fwht_mod.hadamard_matrix(lo)
    return (h_hi @ row.reshape(1 << (m - lo), 1 << lo) @ h_lo.T).ravel()


def check_round_trip(x: np.ndarray, z: np.ndarray) -> list[str]:
    if z.shape != x.shape or not np.all(np.abs(z - x) <= ROUND_TRIP_ATOL):
        return [f"ifwht(fwht(x)) != x for shape {x.shape}"]
    return []


def check_row(row: np.ndarray, coeffs: np.ndarray) -> list[str]:
    """One transformed row against hadamard_matrix(m) @ row."""
    err = float(np.max(np.abs(coeffs - hadamard_product(row))))
    if not err <= COEFF_ATOL_PER_ABS_SUM * float(np.abs(row).sum()):
        return [f"row of length {row.size} differs from hadamard_matrix @ row by {err:.3g}"]
    return []


def check_coefficients(x: np.ndarray, coeffs: np.ndarray, ks) -> list[str]:
    """Sampled coefficients against the direct sum of x_i (-1)^popcount(i & k)."""
    idx = np.arange(x.size)
    tol = COEFF_ATOL_PER_ABS_SUM * float(np.abs(x).sum())
    bad = []
    for k in ks:
        signs = np.where(np.bitwise_count(idx & int(k)) & 1, -1.0, 1.0)
        want = float(x @ signs)
        if not abs(coeffs[k] - want) <= tol:
            bad.append(f"coefficient {int(k)} of length {x.size}: {coeffs[k]:.12g} != {want:.12g}")
    return bad


def make(name: str, sizes: Sizes = FULL):
    """The workload object for a benchmark workload name."""
    if name == "train-wht32":
        return TrainWht32(sizes)
    if name == "detect-wht-b32":
        return Detect(sizes, "wht", 32)
    if name == "detect-conv-b224":
        return Detect(sizes, "conv-baseline", 224)
    if name == "transform-long":
        return TransformLong(sizes)
    raise KeyError(name)
