"""Minimal dense-tensor layers with explicit forward/backward passes.

Maps are (B, H, W, C) and vectors (B, C): every op takes a leading batch
axis, and every backward sums its parameter gradients over it.  Each
forward returns a ``LayerIO(output, cache)`` pair whose cache feeds the
matching backward.  Training runs in float32; gradient checks run the
same code in float64.  ``mean_pool`` is the one mean pooling: avgpool2
layers run it on maps, and ``tiling`` on (H, W, C) frames and windows.
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

def conv3x3_forward(x: np.ndarray, w: np.ndarray) -> LayerIO:
    """3x3 cross-correlation with padding 1, stride 1 and no bias.

    ``x`` is (B, H, W, Cin), ``w`` is (3, 3, Cin, Cout); the output keeps
    the spatial extents.
    """
    if x.ndim != 4 or w.shape[:2] != (3, 3) or w.ndim != 4:
        raise ShapeMismatchError(f"bad conv shapes {x.shape} / {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeMismatchError(
            f"input channels {x.shape[3]} != kernel channels {w.shape[2]}"
        )
    hh, ww = x.shape[1:3]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.zeros((x.shape[0], hh, ww, w.shape[3]), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            out += xp[:, di : di + hh, dj : dj + ww] @ w[di, dj]
    return LayerIO(out, (xp, w))


def conv3x3_backward(cache: tuple, dy: np.ndarray):
    xp, w = cache
    hh, ww = dy.shape[1:3]
    if dy.shape[3] != w.shape[3]:
        raise ShapeMismatchError("upstream gradient channel mismatch")
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
    x, w = cache
    dw = x.reshape(-1, w.shape[0]).T @ dy.reshape(-1, w.shape[1])
    dx = dy @ w.T
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
    return LayerIO(np.maximum(x, 0), (x > 0,))


def relu_backward(cache: tuple, dy: np.ndarray):
    (mask,) = cache
    return dy * mask


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


def mean_pool(x: np.ndarray, factor_y: int, factor_x: int) -> np.ndarray:
    """Integer-factor mean pooling of the two axes before the channel axis.

    Works on (H, W, C) images and (B, H, W, C) maps alike.  The strided
    slices are summed in row-major cell order, then divided once, which
    for 2x2 rounds exactly as a reshape-mean does.  Floating inputs keep
    their dtype; any other input pools to float64.
    """
    h, w = x.shape[-3:-1]
    if h % factor_y or w % factor_x:
        raise OddDimensionsError(
            f"extents {h}x{w} not divisible by {factor_y}x{factor_x}"
        )
    dtype = x.dtype if np.issubdtype(x.dtype, np.inexact) else np.float64
    acc = x[..., ::factor_y, ::factor_x, :].astype(dtype)
    for i in range(factor_y):
        for j in range(factor_x):
            if i or j:
                acc += x[..., i::factor_y, j::factor_x, :]
    acc /= factor_y * factor_x
    return acc


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
