"""Minimal dense-tensor layers with explicit forward/backward passes.

Feature maps are (H, W, C) arrays, parameters are plain numpy arrays, and
every forward returns a ``LayerIO(output, cache)`` pair whose cache feeds
the matching backward.  Training runs in float32; gradient checks run the
same code in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadLabelError, ShapeMismatchError


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

def conv3x3_forward(x: np.ndarray, w: np.ndarray, stride: int = 1) -> LayerIO:
    """3x3 cross-correlation with padding 1 and no bias.

    ``x`` is (H, W, Cin), ``w`` is (3, 3, Cin, Cout); stride 1 preserves
    the spatial extents.
    """
    if x.ndim != 3 or w.shape[:2] != (3, 3) or w.ndim != 4:
        raise ShapeMismatchError(f"bad conv shapes {x.shape} / {w.shape}")
    if x.shape[2] != w.shape[2]:
        raise ShapeMismatchError(
            f"input channels {x.shape[2]} != kernel channels {w.shape[2]}"
        )
    hh, ww = x.shape[:2]
    ho = (hh - 1) // stride + 1
    wo = (ww - 1) // stride + 1
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((ho, wo, w.shape[3]), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            sl = xp[di : di + stride * ho : stride, dj : dj + stride * wo : stride]
            out += sl @ w[di, dj]
    return LayerIO(out, (xp, w, stride, x.shape))


def conv3x3_backward(cache: tuple, dy: np.ndarray):
    xp, w, stride, x_shape = cache
    ho, wo = dy.shape[:2]
    if dy.shape[2] != w.shape[3]:
        raise ShapeMismatchError("upstream gradient channel mismatch")
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            sl = xp[di : di + stride * ho : stride, dj : dj + stride * wo : stride]
            dw[di, dj] = np.tensordot(sl, dy, axes=([0, 1], [0, 1]))
            dxp[di : di + stride * ho : stride, dj : dj + stride * wo : stride] += (
                dy @ w[di, dj].T
            )
    dx = dxp[1 : 1 + x_shape[0], 1 : 1 + x_shape[1]]
    return dx, dw


def pointwise_forward(x: np.ndarray, w: np.ndarray) -> LayerIO:
    """1x1 convolution: per-pixel channel mixing, no bias."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError(
            f"input channels {x.shape[-1]} != weight rows {w.shape[0]}"
        )
    return LayerIO(x @ w, (x, w))


def pointwise_backward(cache: tuple, dy: np.ndarray):
    x, w = cache
    dw = np.tensordot(x, dy, axes=(list(range(x.ndim - 1)),) * 2)
    dx = dy @ w.T
    return dx, dw


# -- dense / activations ---------------------------------------------------

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> LayerIO:
    """Affine map of the last axis; ``x`` is (Cin,) or (B, Cin)."""
    if x.ndim not in (1, 2) or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatchError(
            f"dense shapes do not line up: {x.shape}, {w.shape}, {b.shape}"
        )
    return LayerIO(x @ w + b, (x, w))


def dense_backward(cache: tuple, dy: np.ndarray):
    x, w = cache
    dw = np.outer(x, dy)
    db = dy.copy()
    dx = w @ dy
    return dx, dw, db


def relu_forward(x: np.ndarray) -> LayerIO:
    return LayerIO(np.maximum(x, 0), (x > 0,))


def relu_backward(cache: tuple, dy: np.ndarray):
    (mask,) = cache
    return dy * mask


def gap_forward(x: np.ndarray) -> LayerIO:
    """Global average pooling (H, W, C) -> (C,)."""
    if x.ndim != 3:
        raise ShapeMismatchError(f"expected a (H, W, C) map, got {x.shape}")
    return LayerIO(x.mean(axis=(0, 1)), (x.shape,))


def gap_backward(cache: tuple, dy: np.ndarray):
    (x_shape,) = cache
    scale = 1.0 / (x_shape[0] * x_shape[1])
    return np.broadcast_to(dy * scale, x_shape).astype(dy.dtype, copy=True)


def avgpool2_forward(x: np.ndarray) -> LayerIO:
    """2x2 mean pooling with stride 2; spatial extents must be even."""
    hh, ww, c = x.shape
    if hh % 2 or ww % 2:
        raise ShapeMismatchError(f"2x2 pooling needs even extents, got {x.shape}")
    out = x.reshape(hh // 2, 2, ww // 2, 2, c).mean(axis=(1, 3))
    return LayerIO(out.astype(x.dtype, copy=False), (x.shape,))


def avgpool2_backward(cache: tuple, dy: np.ndarray):
    (x_shape,) = cache
    dx = np.repeat(np.repeat(dy, 2, axis=0), 2, axis=1) * dy.dtype.type(0.25)
    return dx.astype(dy.dtype, copy=False).reshape(x_shape)


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
    """Softmax over the last axis; leading axes index independent samples."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, label: int):
    """Return (loss, dlogits) for one sample.

    loss = -log softmax(logits)[label]; dlogits = softmax - onehot.
    """
    k = logits.shape[0]
    if not 0 <= label < k:
        raise BadLabelError(f"label {label} outside [0, {k})")
    z = logits.astype(np.float64) - float(np.max(logits))
    logsumexp = np.log(np.sum(np.exp(z)))
    loss = float(logsumexp - z[label])
    p = np.exp(z - logsumexp)
    p[label] -= 1.0
    return loss, p.astype(logits.dtype, copy=False)


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


# -- verification --------------------------------------------------------------

def gradient_check(fun: Callable[[np.ndarray], float], x: np.ndarray,
                   analytic: np.ndarray, epsilon: float = 1e-5) -> float:
    """Max relative error between ``analytic`` and central differences of ``fun``.

    ``fun`` maps the (mutated in place, then restored) float64 array ``x``
    to a scalar.  The relative error denominator is
    max(1, |analytic|, |numeric|) per component.
    """
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != x.shape:
        raise ShapeMismatchError("analytic gradient shape differs from point shape")
    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        lp = fun(x)
        flat[i] = orig - epsilon
        lm = fun(x)
        flat[i] = orig
        nflat[i] = (lp - lm) / (2.0 * epsilon)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
