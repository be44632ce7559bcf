"""Deliberately naive reference implementations that the tests judge against."""

import numpy as np

from whtfire.errors import DegenerateGridError, LengthMismatchError, LengthNotPowerOfTwoError
from whtfire.tiling import BORDER_PX


def dyadic_convolve_bruteforce(x, h) -> np.ndarray:
    """O(N^2) dyadic convolution ``y[k] = sum_i x[i] * h[k XOR i]``.

    The independent oracle for the transform-domain identity
    ``fwht(x (*) h) == fwht(x) * fwht(h)``.
    """
    xv = np.asarray(x, dtype=np.float64)
    hv = np.asarray(h, dtype=np.float64)
    if xv.ndim != 1 or hv.ndim != 1:
        raise LengthMismatchError("dyadic convolution expects 1-D sequences")
    if xv.shape[0] != hv.shape[0]:
        raise LengthMismatchError(
            f"length mismatch: {xv.shape[0]} vs {hv.shape[0]}"
        )
    n = xv.shape[0]
    if n < 1 or n & (n - 1):
        raise LengthNotPowerOfTwoError(f"length {n} is not a power of two")
    y = np.zeros(n, dtype=np.float64)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += xv[i] * hv[k ^ i]
        y[k] = acc
    return y


def extract_windows(image: np.ndarray, spec):
    """All ((r, c), window) pairs; window (r, c) covers blocks (r..r+1, c..c+1)."""
    rows, cols = spec.rows, spec.cols
    if rows < 2 or cols < 2:
        raise DegenerateGridError(f"grid {rows}x{cols} has no 2x2 window")
    bh, bw = spec.block_height, spec.block_width
    out = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            win = image[r * bh : (r + 2) * bh, c * bw : (c + 2) * bw]
            out.append(((r, c), win))
    return out


def border_mask(spec) -> np.ndarray:
    """Boolean (H, W) mask of all pixels any border may touch."""
    mask = np.zeros((spec.image_height, spec.image_width), dtype=bool)
    bh, bw = spec.block_height, spec.block_width
    for r in range(spec.rows):
        for c in range(spec.cols):
            y0, x0 = r * bh, c * bw
            y1, x1 = y0 + bh, x0 + bw
            mask[y0 : y0 + BORDER_PX, x0:x1] = True
            mask[y1 - BORDER_PX : y1, x0:x1] = True
            mask[y0:y1, x0 : x0 + BORDER_PX] = True
            mask[y0:y1, x1 - BORDER_PX : x1] = True
    return mask
