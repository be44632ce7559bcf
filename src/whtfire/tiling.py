"""Block grid over high-resolution frames and 2x2-block window scoring.

An image is cut into an R x C grid of S x S blocks, where S is the
network's input size (floor division; leftover pixels on the right/bottom
are ignored).  Each interior block anchors a window made of itself plus its
right, bottom, and bottom-right neighbours, giving (R-1)*(C-1) overlapping
windows.  A window is mean-pooled 2x2 back to block resolution before
classification, by the same ``nn.mean_pool`` that the network's avgpool2
layers run, and per-anchor scores are rendered as coloured block borders.
A grid with no 2x2 window (R or C is 1) is scored once instead, from its
whole block area pooled down to one block, and marked ``fallback``.

Scoring pools the R x C block area once: since every window starts on a
block boundary, its pooled patch is a slice of the pooled frame.  When
every layer before ``gap`` is local (``arch.feature_stride``), the windows
also share all per-pixel work: the feature map is computed once per block
row, as a (1, H, W, C) batch, each window's ``gap`` is a sum of four block
sums of it, and the dense head classifies all windows as one (B, C) batch.
Otherwise (conv3x3, whose zero padding differs at window edges) each slice
runs through ``forward_classify`` alone, as a batch of one: a 224 px conv
window's forward holds ~15 MiB, so larger batches raise the peak memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arch import Network, feature_map, feature_stride, forward_classify, head_classify
from .errors import BlockLargerThanImageError, NonFiniteScoreError
from .nn import mean_pool

GREEN = (0.0, 1.0, 0.0)
RED = (1.0, 0.0, 0.0)
BORDER_PX = 3


@dataclass(frozen=True)
class GridSpec:
    """The R x C grid of square ``block`` x ``block`` blocks that fits in an image."""

    image_height: int
    image_width: int
    block: int

    def __post_init__(self):
        if min(self.image_height, self.image_width, self.block) <= 0:
            raise ValueError("all extents must be positive")
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


@dataclass
class ScoreGrid:
    spec: GridSpec
    scores: np.ndarray
    threshold: float = 0.5
    fallback: bool = False

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.fallback:
            expected = (1, 1)
        else:
            expected = (self.spec.rows - 1, self.spec.cols - 1)
        if self.scores.shape != expected:
            raise ValueError(
                f"scores shape {self.scores.shape} != expected {expected}"
            )
        bad = int(np.sum(~np.isfinite(self.scores)))
        if bad:
            raise NonFiniteScoreError(
                f"the network gives {bad} of {self.scores.size} windows a non-finite score"
            )

    @property
    def any_detection(self) -> bool:
        return bool(np.any(self.scores >= self.threshold))


def downsample_window(window: np.ndarray) -> np.ndarray:
    """2x2 mean pooling (``nn.mean_pool``): a two-block-square window back
    to block resolution."""
    return mean_pool(window, 2, 2)


def score_grid(net: Network, image: np.ndarray, threshold: float = 0.5) -> ScoreGrid:
    """Classify every 2x2-block window of ``image``; scores land at their anchor index.

    Blocks are the network's S x S input.  The R x C block area is pooled
    once with ``downsample_window``; window (r, c) is the S x S slice of it
    at offset (r*S/2, c*S/2).  Each score equals
    ``forward_classify(net, downsample_window(window))[1]`` up to float
    rounding.  Windows share the feature map (see the module docstring)
    when ``arch.feature_stride`` allows it and S/2 is a multiple of the
    stride; otherwise each slice is classified on its own.  A grid with no
    2x2 window gives the 1x1 ``fallback`` grid: the block area mean-pooled
    to one S x S patch and classified once.
    """
    block = net.descriptor.input_size
    spec = GridSpec(image.shape[0], image.shape[1], block)
    rows, cols = spec.rows, spec.cols
    area = image[: rows * block, : cols * block]
    if rows < 2 or cols < 2:
        score = forward_classify(net, mean_pool(area, rows, cols))[1]
        return ScoreGrid(spec, np.array([[score]]), threshold, fallback=True)
    pooled = downsample_window(area)
    half = block // 2  # one block, in pooled pixels
    stride = feature_stride(net.descriptor)
    if stride is None or half % stride:
        scores = np.array([
            [forward_classify(net, pooled[r * half : r * half + block,
                                          c * half : c * half + block])[1]
             for c in range(cols - 1)]
            for r in range(rows - 1)
        ])
        return ScoreGrid(spec, scores, threshold)
    fb = half // stride  # one block, in feature pixels
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
def _glyph(ch: str, pixel: int) -> np.ndarray | None:
    """The boolean (7 * pixel, 5 * pixel) stamp of ``ch``, or None if unknown."""
    rows = _FONT.get(ch)
    if rows is None:
        return None
    bits = np.array([[bit == "1" for bit in row] for row in rows])
    stamp = bits.repeat(pixel, axis=0).repeat(pixel, axis=1)
    stamp.flags.writeable = False
    return stamp


def _draw_text(canvas: np.ndarray, y: int, x: int, text: str,
               color, pixel: int) -> None:
    """Stamp ``text`` at (y, x), one masked write per glyph, clipped to the canvas."""
    col = np.asarray(color, dtype=canvas.dtype)
    for ch in text:
        stamp = _glyph(ch, pixel)
        if stamp is not None:
            region = canvas[y : y + stamp.shape[0], x : x + stamp.shape[1]]
            region[stamp[: region.shape[0], : region.shape[1]]] = col
        x += 6 * pixel


def render_overlay(image: np.ndarray, grid: ScoreGrid,
                   draw_scores: bool = False) -> np.ndarray:
    """Copy of the image with a 3-pixel border per block.

    Every block is coloured by its nearest anchor's window score (green
    below the threshold, red at or above it), so the last block row/column
    repeats its neighbour's colour; a fallback grid colours every block by
    its one score.  ``draw_scores`` burns each anchor's score (every block's,
    on a fallback grid) into its top-left corner in the block's colour.
    Digits are drawn first and may spill right and down into later blocks,
    whose borders then cover them, as drawing block by block would.  Pixels
    outside borders and digits, and the residual margin, are untouched.
    """
    out = np.array(image, copy=True)
    spec, block = grid.spec, grid.spec.block
    rows, cols = spec.rows, spec.cols
    n_r, n_c = grid.scores.shape
    nearest = np.pad(grid.scores, ((0, rows - n_r), (0, cols - n_c)), mode="edge")
    colors = np.where((nearest >= grid.threshold)[..., None],
                      np.asarray(RED, dtype=out.dtype), np.asarray(GREEN, dtype=out.dtype))
    if draw_scores:
        pixel = max(1, block // 56)
        for r, c in np.ndindex((rows, cols) if grid.fallback else (n_r, n_c)):
            _draw_text(out, r * block + 2 * BORDER_PX, c * block + 2 * BORDER_PX,
                       f"{nearest[r, c]:.2f}", colors[r, c], pixel)
    # splitting both axes makes this a view: writes land in ``out``
    blocks = out[: rows * block, : cols * block].reshape(rows, block, cols, block, -1)
    strip = colors[:, None, :, None]
    blocks[:, :BORDER_PX] = strip
    blocks[:, -BORDER_PX:] = strip
    blocks[:, :, :, :BORDER_PX] = strip
    blocks[:, :, :, -BORDER_PX:] = strip
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
        "scores": [
            [round(float(s), 6) for s in row] for row in grid.scores
        ],
    }
