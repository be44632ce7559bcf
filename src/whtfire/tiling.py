"""Block grid over high-resolution frames and 2x2-block window scoring.

A frame is the (H, W, 3) uint8 array of ``dataio`` (see its docstring),
and stays bytes here: scoring pools the bytes (``nn.mean_pool``'s one loop,
exact uint16 row sums) straight into the net's dtype and scales only the pooled,
quarter-size array to [0, 1], so a float32 net's frame is never held in
float64, and the overlay is drawn in byte colours on a copy of the frame.
Its borders are written as whole strips: the top and bottom ones as lines
across a block row, the left and right ones from a materialised colour
array, so each write copies contiguous runs rather than one pixel at a time.

An image is cut into an R x C grid of S x S blocks, where S is the
network's input size (floor division; leftover pixels on the right/bottom
are ignored).  Each interior block anchors a window made of itself plus its
right, bottom, and bottom-right neighbours, giving (R-1)*(C-1) overlapping
windows.  A window is mean-pooled 2x2 back to block resolution before
classification, by the same ``nn.mean_pool`` that the network's avgpool2
layers run, and per-anchor scores are rendered as coloured block borders.
A ``fallback`` grid, with no 2x2 window (R or C is 1), is the one-window
case of per-window scoring: its whole block area pooled down to one block.

Scoring pools the R x C block area once: since every window starts on a
block boundary, its pooled patch is a slice of the pooled frame.  When
every layer before ``gap`` is local (``arch.feature_stride``), the windows
also share all per-pixel work: the feature map is computed once per block
row, as a (1, H, W, C) batch on the calling thread, each window's ``gap``
is a sum of four block sums of it, and the dense head classifies all
windows as one (B, C) batch.  Otherwise (conv3x3, whose zero padding
differs at window edges) the slices go to ``arch.fire_probabilities``, the
path evaluation takes: chunks of ``arch._CHUNK_PX`` input pixels (8 windows
at 32 px, one at 224 px) mapped on min(usable CPUs, chunks) threads.
Both run the executor without backward caches (``arch._run_layers``), so a
row or a chunk holds only the current layer's input and output, its
working arrays, and each residual block's input until its ``add_skip``:
measured with tracemalloc, a block-32 wht row (1, 16, 944, 3) peaks at
~3.0 of its first-stage (1, 16, 944, 8) float32 maps, and a 224 px conv
window at ~3.3 of its (1, 224, 224, 8) ones (~5.1 MiB; conv3x3 pads and
multiplies one band of rows at a time).  Each pool thread holds one
chunk's working set, which glibc's per-thread malloc arenas keep between
frames, so scoring memory grows with the usable CPUs, up to the chunk count.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .arch import Network, feature_map, feature_stride, fire_probabilities, head_classify
from .dataio import _check_frame
from .errors import (BadThresholdError, BlockLargerThanImageError, NonFiniteScoreError,
                     ShapeMismatchError)
from .nn import mean_pool

GREEN = (0, 255, 0)
RED = (255, 0, 0)
BORDER_PX = 3


@dataclass(frozen=True)
class GridSpec:
    """The R x C grid of square ``block`` x ``block`` blocks that fits in an image."""

    image_height: int
    image_width: int
    block: int

    def __post_init__(self):
        if min(self.image_height, self.image_width, self.block) <= 0:
            raise ShapeMismatchError("all extents must be positive")
        if self.rows == 0 or self.cols == 0:
            raise BlockLargerThanImageError(
                f"{self.block}x{self.block} block does not fit in "
                f"{self.image_height}x{self.image_width} image"
            )

    @property
    def rows(self) -> int:
        return self.image_height // self.block

    @property
    def cols(self) -> int:
        return self.image_width // self.block

    @property
    def fallback(self) -> bool:
        """No 2x2 window fits (R or C is 1): the whole block area is one window."""
        return min(self.rows, self.cols) < 2

    @property
    def windows(self) -> tuple[int, int]:
        """The shape of the scores: one per anchor, or one on a fallback grid."""
        return (1, 1) if self.fallback else (self.rows - 1, self.cols - 1)


def _checked_threshold(threshold) -> float:
    """``threshold`` as a float (a numpy scalar is not JSON); ``BadThresholdError``
    unless it is a real number in [0, 1], which NaN and bools are not."""
    if not (isinstance(threshold, numbers.Real) and not isinstance(threshold, bool)
            and 0 <= threshold <= 1):
        raise BadThresholdError(f"threshold {threshold!r} is not in [0, 1]")
    return float(threshold)


@dataclass
class ScoreGrid:
    spec: GridSpec
    scores: np.ndarray
    threshold: float = 0.5

    def __post_init__(self):
        self.threshold = _checked_threshold(self.threshold)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != self.spec.windows:
            raise ShapeMismatchError(
                f"scores shape {self.scores.shape} != expected {self.spec.windows}"
            )
        bad = int(np.sum(~np.isfinite(self.scores)))
        if bad:
            raise NonFiniteScoreError(
                f"the network gives {bad} of {self.scores.size} windows a non-finite score"
            )

    @property
    def fallback(self) -> bool:
        return self.spec.fallback

    @property
    def any_detection(self) -> bool:
        return bool(np.any(self.scores >= self.threshold))


def downsample_window(window: np.ndarray, dtype=np.float64) -> np.ndarray:
    """2x2 mean pooling (``nn.mean_pool``): a two-block-square window back
    to block resolution; bytes pool into the float type ``dtype``."""
    return mean_pool(window, 2, 2, dtype)


def score_grid(net: Network, image: np.ndarray, threshold: float = 0.5) -> ScoreGrid:
    """Classify every 2x2-block window of the byte frame ``image``; scores
    land at their anchor index.

    Blocks are the network's S x S input.  The R x C block area is pooled
    once with ``downsample_window`` into the net's dtype and divided by 255
    in it; window (r, c) is the S x S slice of it at offset (r*S/2, c*S/2).
    For a float32 net each pooled value has the bits of the float64 one
    converted: the byte sum s <= 1020 gives the exact s/4, and
    ``f32(f32(s/4) / 255)`` equals ``f32(s/4 / 255)`` for all 1,021 sums.
    A ``fallback`` grid's block area pools in float64.  Each score equals
    ``forward_classify(net, downsample_window(window / 255))[1]`` up to
    float rounding.  Windows share the feature map (see the module docstring)
    when ``arch.feature_stride`` allows it and S/2 is a multiple of the
    stride.  Otherwise ``arch.fire_probabilities`` classifies the slices; a
    ``fallback`` grid's one window, its block area pooled to one S x S patch,
    is one chunk, on the calling thread.  A bad threshold is refused before
    any scoring.  Numpy's overflow and invalid warnings are off: ``ScoreGrid``
    refuses the non-finite scores they would foretell.
    """
    threshold = _checked_threshold(threshold)
    _check_frame(image)
    block = net.descriptor.input_size
    spec = GridSpec(image.shape[0], image.shape[1], block)
    rows, cols = spec.rows, spec.cols
    area = image[: rows * block, : cols * block]
    if spec.fallback:
        pooled = mean_pool(area, rows, cols)  # float64
    else:
        pooled = downsample_window(area, net.dtype)
    pooled /= pooled.dtype.type(255)  # bytes pool exactly, then scale once
    half = block // 2  # one block, in pooled pixels
    stride = feature_stride(net.descriptor)
    if spec.fallback or stride is None or half % stride:
        patches = [pooled[r * half : r * half + block, c * half : c * half + block]
                   for r, c in np.ndindex(spec.windows)]
        scores = fire_probabilities(net, patches)
        return ScoreGrid(spec, scores.reshape(spec.windows), threshold)
    fb = half // stride  # one block, in feature pixels
    with np.errstate(over="ignore", invalid="ignore"):
        # one block row at a time bounds the transient feature maps
        sums = np.stack([
            feature_map(net, pooled[None, r * half : (r + 1) * half])[0]
            .reshape(fb, cols, fb, -1).sum(axis=(0, 2))
            for r in range(rows)
        ])
        gap = (sums[:-1, :-1] + sums[:-1, 1:] + sums[1:, :-1] + sums[1:, 1:]) / (4 * fb * fb)
        probs = head_classify(net, gap.reshape((rows - 1) * (cols - 1), -1))
    return ScoreGrid(spec, probs[:, 1].reshape(rows - 1, cols - 1), threshold)


# 5x7 bitmap glyphs for burned-in probabilities.
_FONT = {
    "0": ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    "1": ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    "2": ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    "3": ("11110", "00001", "00001", "01110", "00001", "00001", "11110"),
    "4": ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    "5": ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    "6": ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    "7": ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    "8": ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    "9": ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
    ".": ("00000", "00000", "00000", "00000", "00000", "01100", "01100"),
}


@functools.cache
def _glyph(ch: str, pixel: int) -> np.ndarray:
    """The boolean (7 * pixel, 5 * pixel) stamp of ``ch``, a digit or '.'."""
    bits = np.array([[bit == "1" for bit in row] for row in _FONT[ch]])
    stamp = bits.repeat(pixel, axis=0).repeat(pixel, axis=1)
    stamp.flags.writeable = False
    return stamp


def _draw_text(canvas: np.ndarray, y: int, x: int, text: str,
               color: np.ndarray, pixel: int) -> None:
    """Stamp ``text`` at (y, x) in the byte colour ``color``, one masked
    write per glyph, clipped to the canvas."""
    for ch in text:
        stamp = _glyph(ch, pixel)
        region = canvas[y : y + stamp.shape[0], x : x + stamp.shape[1]]
        region[stamp[: region.shape[0], : region.shape[1]]] = color
        x += 6 * pixel


def render_overlay(image: np.ndarray, grid: ScoreGrid,
                   draw_scores: bool = False) -> np.ndarray:
    """Copy of the byte frame ``image`` with a 3-pixel border per block.

    Every block is coloured by its nearest anchor's window score (green
    below the threshold, red at or above it), so the last block row/column
    repeats its neighbour's colour; a fallback grid colours every block by
    its one score.  ``draw_scores`` burns each anchor's score (every block's,
    on a fallback grid) into its top-left corner in the block's colour.
    Digits are drawn first and may spill right and down into later blocks,
    whose borders then cover them, as drawing block by block would.  Pixels
    outside borders and digits, and the residual margin, are untouched.  A
    frame of another extent than the grid's is refused.
    """
    _check_frame(image)
    spec, block = grid.spec, grid.spec.block
    if image.shape[:2] != (spec.image_height, spec.image_width):
        raise ShapeMismatchError(f"a {spec.image_height}x{spec.image_width} frame's grid "
                                 f"cannot draw on a {image.shape[0]}x{image.shape[1]} frame")
    out = np.array(image, copy=True)
    rows, cols = spec.rows, spec.cols
    n_r, n_c = grid.scores.shape
    nearest = np.pad(grid.scores, ((0, rows - n_r), (0, cols - n_c)), mode="edge")
    colors = np.where((nearest >= grid.threshold)[..., None],
                      np.array(RED, np.uint8), np.array(GREEN, np.uint8))
    if draw_scores:
        pixel = max(1, block // 56)
        for r, c in np.ndindex((rows, cols) if grid.fallback else (n_r, n_c)):
            _draw_text(out, r * block + 2 * BORDER_PX, c * block + 2 * BORDER_PX,
                       f"{nearest[r, c]:.2f}", colors[r, c], pixel)
    # splitting the axes makes these views: writes land in ``out``
    area = out[: rows * block, : cols * block]
    lines = np.repeat(colors, block, axis=1)[:, None]  # (R, 1, C*S, 3)
    block_rows = area.reshape(rows, block, cols * block, 3)
    block_rows[:, :BORDER_PX] = lines
    block_rows[:, -BORDER_PX:] = lines
    # materialised, so each (BORDER_PX, 3) run is one contiguous copy
    sides = np.repeat(colors[:, None, :, None], BORDER_PX, axis=3)
    blocks = area.reshape(rows, block, cols, block, 3)
    blocks[:, :, :, :BORDER_PX] = sides
    blocks[:, :, :, -BORDER_PX:] = sides
    return out


def score_grid_json(grid: ScoreGrid, image_path: str) -> dict:
    """Stable machine-readable form: scores row-major at 6 decimal places."""
    spec = grid.spec
    return {
        "image": image_path,
        "block": [spec.block, spec.block],
        "grid": [spec.rows, spec.cols],
        "threshold": grid.threshold,
        "fallback": grid.fallback,
        "scores": [[round(s, 6) for s in row] for row in grid.scores.tolist()],
    }
