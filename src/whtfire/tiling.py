"""Block grid over high-resolution frames and 2x2-block window scoring.

An image is cut into an R x C grid of fixed-size blocks (floor division;
leftover pixels on the right/bottom are ignored).  Each interior block
anchors a window made of itself plus its right, bottom, and bottom-right
neighbours, giving (R-1)*(C-1) overlapping windows.  A window is mean-pooled
2x2 back to block resolution before classification, by the same
``nn.mean_pool`` that the network's avgpool2 layers run, and per-anchor
scores are rendered as coloured block borders.

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

from dataclasses import dataclass

import numpy as np

from .arch import Network, feature_map, feature_stride, forward_classify, head_classify
from .errors import (BlockLargerThanImageError, DegenerateGridError, NonFiniteScoreError,
                     ShapeMismatchError)
from .nn import mean_pool

GREEN = (0.0, 1.0, 0.0)
RED = (1.0, 0.0, 0.0)
BORDER_PX = 3


def grid_dims(image_height: int, image_width: int,
              block_height: int, block_width: int) -> tuple[int, int]:
    """(R, C) block-row/column counts: exact floor division."""
    if min(image_height, image_width, block_height, block_width) <= 0:
        raise ValueError("all extents must be positive")
    rows = image_height // block_height
    cols = image_width // block_width
    if rows == 0 or cols == 0:
        raise BlockLargerThanImageError(
            f"{block_height}x{block_width} block does not fit in "
            f"{image_height}x{image_width} image"
        )
    return rows, cols


@dataclass(frozen=True)
class GridSpec:
    image_height: int
    image_width: int
    block_height: int = 224
    block_width: int = 224

    def __post_init__(self):
        grid_dims(self.image_height, self.image_width,
                  self.block_height, self.block_width)

    @property
    def rows(self) -> int:
        return self.image_height // self.block_height

    @property
    def cols(self) -> int:
        return self.image_width // self.block_width


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


def score_grid(net: Network, image: np.ndarray, spec: GridSpec,
               threshold: float = 0.5) -> ScoreGrid:
    """Classify every 2x2-block window; scores land at their anchor index.

    The R x C block area is pooled once with ``downsample_window``; window
    (r, c) is the block-sized slice of it at offset (r*bh/2, c*bw/2).  Each
    score equals ``forward_classify(net, downsample_window(window))[1]`` up
    to float rounding.  Windows share the feature map (see the module
    docstring) when ``arch.feature_stride`` allows it and the half-block
    offsets are multiples of the stride; otherwise each slice is classified
    on its own.
    """
    rows, cols = spec.rows, spec.cols
    if rows < 2 or cols < 2:
        raise DegenerateGridError(
            f"grid {rows}x{cols} has no 2x2 window; need R >= 2 and C >= 2"
        )
    bh, bw = spec.block_height, spec.block_width
    size = net.descriptor.input_size
    if (bh, bw) != (size, size):
        raise ShapeMismatchError(
            f"{bh}x{bw} blocks do not match the {size}x{size} network input"
        )
    pooled = downsample_window(image[: rows * bh, : cols * bw])
    hb, wb = bh // 2, bw // 2  # one block, in pooled pixels
    stride = feature_stride(net.descriptor)
    if stride is None or hb % stride or wb % stride:
        scores = np.array([
            [forward_classify(net, pooled[r * hb : r * hb + bh,
                                          c * wb : c * wb + bw])[1]
             for c in range(cols - 1)]
            for r in range(rows - 1)
        ])
        return ScoreGrid(spec, scores, threshold)
    fh, fw = hb // stride, wb // stride  # one block, in feature pixels
    # one block row at a time bounds the transient feature maps
    sums = np.stack([
        feature_map(net, pooled[None, r * hb : (r + 1) * hb])[0]
        .reshape(fh, cols, fw, -1).sum(axis=(0, 2))
        for r in range(rows)
    ])
    gap = (sums[:-1, :-1] + sums[:-1, 1:] + sums[1:, :-1] + sums[1:, 1:]) / (
        4 * fh * fw
    )
    probs = head_classify(net, gap.reshape((rows - 1) * (cols - 1), -1))
    return ScoreGrid(spec, probs[:, 1].reshape(rows - 1, cols - 1), threshold)


def whole_image_score(net: Network, image: np.ndarray, spec: GridSpec,
                      threshold: float = 0.5) -> ScoreGrid:
    """Degenerate-grid fallback: pool the whole block area to one patch."""
    rows, cols = spec.rows, spec.cols
    crop = image[: rows * spec.block_height, : cols * spec.block_width]
    patch = mean_pool(crop, rows, cols)
    score = forward_classify(net, patch)[1]
    return ScoreGrid(spec, np.array([[score]]), threshold, fallback=True)


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


def _draw_text(canvas: np.ndarray, y: int, x: int, text: str,
               color, pixel: int) -> None:
    col = np.asarray(color, dtype=canvas.dtype)
    for ch in text:
        glyph = _FONT.get(ch)
        if glyph is None:
            x += 6 * pixel
            continue
        for gy, row in enumerate(glyph):
            for gx, bit in enumerate(row):
                if bit == "1":
                    y0, x0 = y + gy * pixel, x + gx * pixel
                    canvas[y0 : y0 + pixel, x0 : x0 + pixel] = col
        x += 6 * pixel


def render_overlay(image: np.ndarray, grid: ScoreGrid,
                   draw_scores: bool = False) -> np.ndarray:
    """Copy of the image with a 3-pixel border per block.

    Anchor blocks are coloured by their own window score (green below the
    threshold, red at or above it); the last block row/column carries the
    nearest anchor's colour but no burned-in score.  Pixels outside borders
    (and optional score digits) are untouched.
    """
    out = np.array(image, copy=True)
    spec = grid.spec
    bh, bw = spec.block_height, spec.block_width
    n_r, n_c = grid.scores.shape
    for r in range(spec.rows):
        for c in range(spec.cols):
            score = grid.scores[min(r, n_r - 1), min(c, n_c - 1)]
            color = np.asarray(
                RED if score >= grid.threshold else GREEN, dtype=out.dtype
            )
            y0, x0 = r * bh, c * bw
            y1, x1 = y0 + bh, x0 + bw
            out[y0 : y0 + BORDER_PX, x0:x1] = color
            out[y1 - BORDER_PX : y1, x0:x1] = color
            out[y0:y1, x0 : x0 + BORDER_PX] = color
            out[y0:y1, x1 - BORDER_PX : x1] = color
            is_anchor = grid.fallback or (r < n_r and c < n_c)
            if draw_scores and is_anchor:
                pixel = max(1, min(bh, bw) // 56)
                _draw_text(out, y0 + 2 * BORDER_PX, x0 + 2 * BORDER_PX,
                           f"{score:.2f}", color, pixel)
    return out


def score_grid_json(grid: ScoreGrid, image_path: str) -> dict:
    """Stable machine-readable form: scores row-major at 6 decimal places."""
    spec = grid.spec
    return {
        "image": image_path,
        "block": [spec.block_height, spec.block_width],
        "grid": [spec.rows, spec.cols],
        "threshold": grid.threshold,
        "fallback": grid.fallback,
        "scores": [
            [round(float(s), 6) for s in row] for row in grid.scores
        ],
    }
