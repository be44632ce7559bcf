"""Minimal dense-tensor layers with explicit forward/backward passes.

Maps are (B, H, W, C) and vectors (B, C): every op takes a leading batch
axis, and every backward sums its parameter gradients over it.  Each
forward returns a ``LayerIO(output, cache)`` pair whose cache feeds the
matching backward; a cache holds arrays the forward made anyway, or its
inputs, so inference, which drops it, builds nothing it does not read
(relu's cache is its output, whose positive entries are the pass mask).
Training runs in float32; gradient checks run the same code in float64.
``mean_pool`` is the one mean pooling: avgpool2 layers run it on maps,
and ``tiling`` on (H, W, C) frames and windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadLabelError, OddDimensionsError, ShapeMismatchError


class LayerIO(NamedTuple):
    output: np.ndarray
    cache: tuple


@dataclass
class TrainConfig:
    epochs: int = 25
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


# -- convolutions ---------------------------------------------------------

_CONV_BAND_PX = 8192  # output pixels per band of conv3x3_forward: 36 rows at 224 px


def conv3x3_forward(x: np.ndarray, w: np.ndarray) -> LayerIO:
    """3x3 cross-correlation with padding 1, stride 1 and no bias.

    ``x`` is (B, H, W, Cin), ``w`` is (3, 3, Cin, Cout); the output keeps
    the spatial extents.  It is made in bands of output rows holding about
    ``_CONV_BAND_PX`` pixels of the batch: each band's zero-padded input
    rows are copied into one band-size buffer, and its 9 tap products are
    added to it in order, so neither a padded map nor a product's
    temporary is ever larger than a band.  ``matmul`` already stacks over
    the row axis, so every row gets the same product call on the same
    values as in one whole-map pass: the bits do not depend on the band.
    The cache is ``(x, w)``; the backward pads ``x`` itself.
    """
    if x.ndim != 4 or w.shape[:2] != (3, 3) or w.ndim != 4:
        raise ShapeMismatchError(f"bad conv shapes {x.shape} / {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeMismatchError(
            f"input channels {x.shape[3]} != kernel channels {w.shape[2]}"
        )
    b, hh, ww, cin = x.shape
    out = np.zeros((b, hh, ww, w.shape[3]), dtype=x.dtype)
    band = max(1, _CONV_BAND_PX // (b * ww))
    # padded row p of the band at r is input row r - 1 + p; rows and
    # columns outside the map stay 0
    xp = np.zeros((b, band + 2, ww + 2, cin), dtype=x.dtype)
    for r in range(0, hh, band):
        rows = out[:, r : r + band]
        n = rows.shape[1]
        lo, hi = max(r - 1, 0), min(r + n + 1, hh)
        xp[:, lo - r + 1 : hi - r + 1, 1:-1] = x[:, lo:hi]
        xp[:, hi - r + 1 :] = 0  # below the map's last row
        for di in range(3):
            for dj in range(3):
                rows += xp[:, di : di + n, dj : dj + ww] @ w[di, dj]
    return LayerIO(out, (x, w))


def conv3x3_backward(cache: tuple, dy: np.ndarray):
    x, w = cache
    hh, ww = dy.shape[1:3]
    if dy.shape[3] != w.shape[3]:
        raise ShapeMismatchError("upstream gradient channel mismatch")
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            win = (slice(None), slice(di, di + hh), slice(dj, dj + ww))
            dw[di, dj] = np.tensordot(xp[win], dy, axes=([0, 1, 2], [0, 1, 2]))
            dxp[win] += dy @ w[di, dj].T
    return dxp[:, 1:-1, 1:-1], dw


def pointwise_forward(x: np.ndarray, w: np.ndarray) -> LayerIO:
    """1x1 convolution: per-pixel channel mixing, no bias."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError(
            f"input channels {x.shape[-1]} != weight rows {w.shape[0]}"
        )
    return LayerIO(x @ w, (x, w))


def pointwise_backward(cache: tuple, dy: np.ndarray):
    # dw and dx as one (rows, C) product each.  The forward keeps ``x @ w``: as one
    # product, a 224 px window's stem wakes a second BLAS thread (2x CPU per detect)
    x, w = cache
    rows = dy.reshape(-1, w.shape[1])
    dw = x.reshape(-1, w.shape[0]).T @ rows
    dx = (rows @ w.T).reshape(x.shape)
    return dx, dw


# -- dense / activations ---------------------------------------------------

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> LayerIO:
    """Affine map of each (Cin,) row of a (B, Cin) ``x``."""
    if x.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatchError(
            f"dense shapes do not line up: {x.shape}, {w.shape}, {b.shape}"
        )
    return LayerIO(x @ w + b, (x, w))


def dense_backward(cache: tuple, dy: np.ndarray):
    x, w = cache
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


def relu_forward(x: np.ndarray) -> LayerIO:
    """max(x, 0); the cache is the output itself, whose sign is the pass mask."""
    y = np.maximum(x, 0)
    return LayerIO(y, (y,))


def relu_backward(cache: tuple, dy: np.ndarray):
    # y > 0 exactly where x > 0: a NaN stays NaN and both zeros map to a zero
    (y,) = cache
    return dy * (y > 0)


def gap_forward(x: np.ndarray) -> LayerIO:
    """Global average pooling (B, H, W, C) -> (B, C)."""
    if x.ndim != 4:
        raise ShapeMismatchError(f"expected a (B, H, W, C) map, got {x.shape}")
    return LayerIO(x.mean(axis=(1, 2)), (x.shape,))


def gap_backward(cache: tuple, dy: np.ndarray):
    (x_shape,) = cache
    scale = 1.0 / (x_shape[1] * x_shape[2])
    dx = np.broadcast_to((dy * scale)[:, None, None, :], x_shape)
    return dx.astype(dy.dtype, copy=True)


_BYTE_POOL_BAND = 32  # output rows per pass of mean_pool's byte path: ~0.5 MiB at 1080p


def mean_pool(x: np.ndarray, factor_y: int, factor_x: int) -> np.ndarray:
    """Integer-factor mean pooling of the two axes before the channel axis.

    Works on (H, W, C) images and (B, H, W, C) maps alike.  The strided
    slices are summed in row-major cell order, then divided once, which
    for 2x2 rounds exactly as a reshape-mean does.  Floating inputs keep
    their dtype; any other input pools to float64.

    Bytes pooled over at most 257 cells sum exactly in uint16 (255 * 257
    = 65,535): the ``factor_y`` row slabs are added whole, then the
    ``factor_x`` column groups one channel at a time, so every add runs
    along a row rather than over C values.  The sums convert to float64
    and divide once, which rounds as the float64 sums of the strided
    slices do, so both paths give the same bits.  This runs on bands of
    ``_BYTE_POOL_BAND`` output rows, so the uint16 sums stay small beside
    the float64 result.
    """
    h, w = x.shape[-3:-1]
    if h % factor_y or w % factor_x:
        raise OddDimensionsError(
            f"extents {h}x{w} not divisible by {factor_y}x{factor_x}"
        )
    if x.dtype == np.uint8 and factor_y * factor_x <= 257:
        lead, c = x.shape[:-3], x.shape[-1]
        slabs = x.reshape(*lead, h // factor_y, factor_y, w * c)
        out = np.empty((*lead, h // factor_y, w // factor_x, c))
        for r in range(0, h // factor_y, _BYTE_POOL_BAND):
            part = slice(r, r + _BYTE_POOL_BAND)
            band = slabs[..., part, :, :]
            rows = np.empty(band.shape[:-2] + band.shape[-1:], np.uint16)
            _add_u16([band[..., i, :] for i in range(factor_y)], rows)
            groups = rows.reshape(*rows.shape[:-1], w // factor_x, factor_x, c)
            sums = np.empty(groups.shape[:-2] + (c,), np.uint16)
            for k in range(c):
                _add_u16([groups[..., j, k] for j in range(factor_x)], sums[..., k])
            np.divide(sums, factor_y * factor_x, out=out[..., part, :, :], dtype=np.float64)
        return out
    dtype = x.dtype if np.issubdtype(x.dtype, np.inexact) else np.float64
    acc = x[..., ::factor_y, ::factor_x, :].astype(dtype)
    for i in range(factor_y):
        for j in range(factor_x):
            if i or j:
                acc += x[..., i::factor_y, j::factor_x, :]
    acc /= factor_y * factor_x
    return acc


def _add_u16(parts: list, out: np.ndarray) -> None:
    """Write the sum of the same-shape views ``parts``, in order, to the uint16 ``out``."""
    if len(parts) == 1:
        out[...] = parts[0]
        return
    np.add(parts[0], parts[1], out=out, dtype=np.uint16)
    for part in parts[2:]:
        out += part


def avgpool2_forward(x: np.ndarray) -> LayerIO:
    """2x2 mean pooling with stride 2; spatial extents must be even."""
    return LayerIO(mean_pool(x, 2, 2), (x.shape,))


def avgpool2_backward(cache: tuple, dy: np.ndarray):
    """``dy * 0.25`` broadcast into one array through its (B, H/2, 2, W/2, 2, C) view."""
    (x_shape,) = cache
    b, h, w, c = dy.shape
    dx = np.empty(x_shape, dtype=dy.dtype)
    dx.reshape(b, h, 2, w, 2, c)[...] = (dy * 0.25)[:, :, None, :, None, :]
    return dx


def gain_forward(x: np.ndarray, g: np.ndarray) -> LayerIO:
    """Learnable scalar gain (shape-(1,) parameter)."""
    return LayerIO(x * g[0], (x, g))


def gain_backward(cache: tuple, dy: np.ndarray):
    x, g = cache
    dg = np.array([np.sum(dy * x)], dtype=g.dtype)
    dx = dy * g[0]
    return dx, dg


# -- loss -------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of (B, K) logits; each row is one sample."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Return (losses, dlogits) for (B, K) logits and B integer labels.

    losses[i] = -log softmax(logits[i])[labels[i]], a float64 (B,) array;
    dlogits = softmax - onehot, in the dtype of ``logits``.
    """
    labels = np.asarray(labels)
    k = logits.shape[1]
    if np.any((labels < 0) | (labels >= k)):
        raise BadLabelError(f"labels {labels.tolist()} not all in [0, {k})")
    rows = np.arange(len(labels))
    z = logits.astype(np.float64) - np.max(logits, axis=1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(z), axis=1))
    losses = logsumexp - z[rows, labels]
    p = np.exp(z - logsumexp[:, None])
    p[rows, labels] -= 1.0
    return losses, p.astype(logits.dtype, copy=False)


# -- optimization -------------------------------------------------------------

class SgdOptimizer:
    """SGD with classical momentum over a named parameter map.

    velocity <- momentum * velocity - lr * grad; param <- param + velocity.
    Names listed in ``frozen`` are never updated.
    """

    def __init__(self, learning_rate: float, momentum: float = 0.0,
                 frozen: frozenset[str] = frozenset()):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.frozen = frozenset(frozen)
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        for name, p in params.items():
            if name in self.frozen:
                continue
            g = grads[name]
            if g.shape != p.shape:
                raise ShapeMismatchError(
                    f"gradient shape {g.shape} != parameter shape {p.shape} for {name}"
                )
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(p)
                self.velocity[name] = v
            v *= p.dtype.type(self.momentum)
            v -= p.dtype.type(self.learning_rate) * g
            p += v
