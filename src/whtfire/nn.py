"""Minimal dense-tensor layers with explicit forward/backward passes.

Maps are (B, H, W, C) and vectors (B, C): every op takes a leading batch
axis, and every backward sums its parameter gradients over it.  Each
forward returns a ``LayerIO(output, cache)`` pair whose cache feeds the
matching backward; a cache holds arrays the forward made anyway, or its
inputs, so inference, which drops it, builds nothing it does not read
(relu's cache is its output, whose positive entries are the pass mask).
Every backward takes ``(cache, dy, input_grad=True)`` and returns ``(dx,
*tensor grads)``, dx None when ``input_grad`` is False (the first layer's
input gradient has no reader).  Training runs in float32, gradient checks in
float64.  conv3x3's two passes share one loop of padded row bands, and its
``dx`` is a forward pass: a tracer counts it under ``conv3x3_forward``.
``mean_pool`` is the one 2x2 mean pooling: avgpool2 layers run it on maps,
and ``tiling`` on (H, W, C) frames and windows.  One banded loop serves
floats and bytes: it adds the row pairs, then each pixel's column pair as
one stacked product with 0.25s, so avgpool2 rounds as
``((x00 + x10) + (x01 + x11)) * 0.25``, and a NaN or infinity spoils every
channel of its pooled pixel and nothing else.  Bytes add their rows
exactly in uint16 and pool into the float type ``dtype``: float64 by
default, the net's dtype when ``tiling`` scores a frame.
"""

from __future__ import annotations

import functools
import itertools
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
        _check_field_types(self, ("epochs", "batch_size", "seed"), ("learning_rate", "momentum"))
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _check_field_types(config, ints: tuple, reals: tuple) -> None:
    """Turn a config's numpy scalar fields into Python numbers (JSON cannot
    hold numpy scalars), then refuse, with a ``ValueError`` naming the
    field, any of ``ints`` that is not an int and any of ``reals`` that is
    neither an int nor a float.  A bool is neither."""
    for name, value in vars(config).items():
        if isinstance(value, np.generic):
            setattr(config, name, value.item())
    for names, types, kind in ((ints, (int,), "an int"), (reals, (int, float), "a real number")):
        for name in names:
            if type(value := getattr(config, name)) not in types:
                raise ValueError(f"{name} must be {kind}, got {value!r}")


# -- convolutions ---------------------------------------------------------

_CONV_BAND_PX = 8192  # output pixels per band of conv3x3: 36 rows at 224 px


def _padded_bands(x: np.ndarray):
    """Yield ``(r, n, xp)`` for bands of output rows r .. r + n - 1 of a (B, H, W, C)
    map, ~``_CONV_BAND_PX`` pixels and at most H rows.  ``xp[:, : n + 2]`` is input
    rows r - 1 .. r + n, zero-padded, in one buffer that each yield overwrites."""
    b, hh, ww, cin = x.shape
    # range needs a step >= 1; a batch with no pixel in a row runs as one empty band
    band = max(1, min(hh, _CONV_BAND_PX // (b * ww or 1)))
    xp = np.zeros((b, band + 2, ww + 2, cin), dtype=x.dtype)
    for r in range(0, hh, band):
        n = min(band, hh - r)
        lo, hi = max(r - 1, 0), min(r + n + 1, hh)
        xp[:, lo - r + 1 : hi - r + 1, 1:-1] = x[:, lo:hi]
        xp[:, hi - r + 1 :] = 0  # below the map's last row
        yield r, n, xp


def conv3x3_forward(x: np.ndarray, w: np.ndarray) -> LayerIO:
    """3x3 cross-correlation with padding 1, stride 1 and no bias.

    ``x`` is (B, H, W, Cin), ``w`` is (3, 3, Cin, Cout); the output keeps
    the spatial extents.  Each of the ``_padded_bands`` that the backward
    shares adds its 9 tap products in order: no padded map or product
    outgrows a band, and as ``matmul`` stacks over rows, no bit depends on it.
    """
    if x.ndim != 4 or w.shape[:2] != (3, 3) or w.ndim != 4:
        raise ShapeMismatchError(f"bad conv shapes {x.shape} / {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeMismatchError(f"input channels {x.shape[3]} != kernel channels {w.shape[2]}")
    out = np.zeros((*x.shape[:3], w.shape[3]), dtype=x.dtype)
    for r, n, xp in _padded_bands(x):
        rows = out[:, r : r + n]
        for di, dj in itertools.product(range(3), repeat=2):
            rows += xp[:, di : di + n, dj : dj + x.shape[2]] @ w[di, dj]
    return LayerIO(out, (x, w))


def conv3x3_backward(cache: tuple, dy: np.ndarray, input_grad: bool = True):
    """``dx`` is a forward pass of ``dy`` with the kernel turned 180 degrees
    and its channels swapped (a tracer counts it under ``conv3x3_forward``);
    ``dw`` adds each tap's product over the forward's padded bands of ``x``."""
    x, w = cache
    if dy.shape[3] != w.shape[3]:
        raise ShapeMismatchError("upstream gradient channel mismatch")
    dx = conv3x3_forward(dy, w[::-1, ::-1].swapaxes(2, 3)).output if input_grad else None
    dw = np.zeros_like(w)
    for r, n, xp in _padded_bands(x):
        for di, dj in itertools.product(range(3), repeat=2):
            dw[di, dj] += np.tensordot(xp[:, di : di + n, dj : dj + x.shape[2]],
                                       dy[:, r : r + n], axes=([0, 1, 2], [0, 1, 2]))
    return dx, dw


def pointwise_forward(x: np.ndarray, w: np.ndarray) -> LayerIO:
    """1x1 convolution: per-pixel channel mixing, no bias."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatchError(
            f"input channels {x.shape[-1]} != weight rows {w.shape[0]}"
        )
    return LayerIO(x @ w, (x, w))


def pointwise_backward(cache: tuple, dy: np.ndarray, input_grad: bool = True):
    # dw and dx as one (rows, C) product each.  The forward keeps ``x @ w``: as one
    # product, a 224 px window's stem wakes a second BLAS thread (2x CPU per detect)
    x, w = cache
    rows = dy.reshape(-1, w.shape[1])
    dw = x.reshape(-1, w.shape[0]).T @ rows
    dx = (rows @ w.T).reshape(x.shape) if input_grad else None
    return dx, dw


# -- dense / activations ---------------------------------------------------

def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> LayerIO:
    """Affine map of each (Cin,) row of a (B, Cin) ``x``."""
    if x.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatchError(
            f"dense shapes do not line up: {x.shape}, {w.shape}, {b.shape}"
        )
    return LayerIO(x @ w + b, (x, w))


def dense_backward(cache: tuple, dy: np.ndarray, input_grad: bool = True):
    x, w = cache
    return (dy @ w.T if input_grad else None), x.T @ dy, dy.sum(axis=0)


def relu_forward(x: np.ndarray) -> LayerIO:
    """max(x, 0); the cache is the output itself, whose sign is the pass mask."""
    y = np.maximum(x, 0)
    return LayerIO(y, (y,))


def relu_backward(cache: tuple, dy: np.ndarray, input_grad: bool = True):
    # y > 0 exactly where x > 0: a NaN stays NaN and both zeros map to a zero
    (y,) = cache
    return (dy * (y > 0) if input_grad else None,)


def gap_forward(x: np.ndarray) -> LayerIO:
    """Global average pooling (B, H, W, C) -> (B, C); a map of zero area has no mean."""
    if x.ndim != 4:
        raise ShapeMismatchError(f"expected a (B, H, W, C) map, got {x.shape}")
    if 0 in x.shape[1:3]:
        empty = "height" if x.shape[1] == 0 else "width"
        raise ShapeMismatchError(f"gap cannot average a map of {empty} 0, got {x.shape}")
    return LayerIO(x.mean(axis=(1, 2)), (x.shape,))


def gap_backward(cache: tuple, dy: np.ndarray, input_grad: bool = True):
    (x_shape,) = cache
    scale = 1.0 / (x_shape[1] * x_shape[2])
    dx = np.broadcast_to((dy * scale)[:, None, None, :], x_shape)  # a view
    return (dx.astype(dy.dtype, copy=True) if input_grad else None,)


_POOL_BAND = 32  # output rows per pass of mean_pool: a 1080p band's row sums are 0.35 MiB


def mean_pool(x: np.ndarray, dtype=np.float64) -> np.ndarray:
    """2x2 mean pooling of the two axes before the channel axis, whose
    extents must be even, on (H, W, C) images and (B, H, W, C) maps alike.
    Floating inputs keep their dtype; any other input pools to the float
    type ``dtype``.

    Bands of ``_POOL_BAND`` output rows add their two row slabs, bytes
    exactly in uint16, then sum each output pixel's column pair as one
    product with two stacked identities times 0.25 (``_column_sum``).  So
    it rounds as ``((x00 + x10) + (x01 + x11)) * 0.25``, where a
    reshape-mean adds in another order and can differ in the last bit, and
    rounds a byte mean once.  The product stays stacked per output row,
    ``(..., rows, W/2, 2*C) @ P``, as ``pointwise_forward`` keeps ``x @ w``:
    as one 2-D product, a 224 px window's pooling wakes a second BLAS
    thread while the window threads already use both CPUs
    (``detect-conv-b224`` went 0.078 -> 0.127 s a frame,
    BENCH_detect_passes.json).  Stacked, each row gets the same call
    whatever the band.  A NaN or infinity in a cell makes every channel of
    its pooled pixel non-finite (0 * inf is NaN), and no other pixel.
    """
    h, w = x.shape[-3:-1]
    if h % 2 or w % 2:
        raise OddDimensionsError(f"extents {h}x{w} are not both even")
    lead, c = x.shape[:-3], x.shape[-1]
    dtype = x.dtype if np.issubdtype(x.dtype, np.inexact) else np.dtype(dtype)
    acc = np.uint16 if x.dtype == np.uint8 else dtype
    pairs = _column_sum(c, dtype)
    slabs = x.reshape(*lead, h // 2, 2, w * c)
    out = np.empty((*lead, h // 2, w // 2, c), dtype)
    for r in range(0, h // 2, _POOL_BAND):
        band = slabs[..., r : r + _POOL_BAND, :, :]
        rows = np.add(band[..., 0, :], band[..., 1, :], dtype=acc)
        np.matmul(rows.astype(dtype, copy=False).reshape(*rows.shape[:-1], w // 2, 2 * c),
                  pairs, out=out[..., r : r + _POOL_BAND, :, :])
    return out


@functools.cache
def _column_sum(c: int, dtype: np.dtype) -> np.ndarray:
    """The read-only (2 * C, C) matrix of two stacked C x C identities times
    0.25: a row of two pixels times it is their channel-wise sum, quartered."""
    matrix = np.tile(np.eye(c, dtype=dtype) * dtype.type(0.25), (2, 1))
    matrix.flags.writeable = False
    return matrix


def avgpool2_forward(x: np.ndarray) -> LayerIO:
    """2x2 mean pooling with stride 2; spatial extents must be even."""
    return LayerIO(mean_pool(x), (x.shape,))


def avgpool2_backward(cache: tuple, dy: np.ndarray, input_grad: bool = True):
    """``dy * 0.25``, scaled at the pooled size, then repeated twice along
    each spatial axis; both repeats write contiguous arrays."""
    (x_shape,) = cache
    if not input_grad:
        return (None,)
    dx = np.repeat(np.repeat(dy * 0.25, 2, axis=1), 2, axis=2)
    if dx.shape != x_shape:
        raise ShapeMismatchError(f"gradient {dy.shape} does not pool from {x_shape}")
    return (dx,)


def gain_forward(x: np.ndarray, g: np.ndarray) -> LayerIO:
    """Learnable scalar gain (shape-(1,) parameter)."""
    return LayerIO(x * g[0], (x, g))


def gain_backward(cache: tuple, dy: np.ndarray, input_grad: bool = True):
    # dg is one dot product: no full-size dy * x is made to be summed
    x, g = cache
    dg = np.array([np.vdot(dy, x)], dtype=g.dtype)
    return (dy * g[0] if input_grad else None), dg


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
