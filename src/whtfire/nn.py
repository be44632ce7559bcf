"""Minimal dense-tensor layers with explicit forward/backward passes.

Maps are (B, H, W, C) and vectors (B, C): every op takes a leading batch
axis, and every backward sums its parameter gradients over it.  Each
forward returns a ``LayerIO(output, cache)`` pair whose cache feeds the
matching backward; a cache holds arrays the forward made anyway, or its
inputs, so inference, which drops it, builds nothing it does not read
(relu's cache is its output, whose positive entries are the pass mask).
Every backward with tensors takes ``input_grad``: when False it forms no
``dx`` and returns None in its place (the first layer's input gradient has
no reader).  Training runs in float32; gradient checks run the same code
in float64.  conv3x3's two passes share one loop of padded row bands, and
its ``dx`` is a forward pass: a tracer counts it under ``conv3x3_forward``.
``mean_pool`` is the one mean pooling: avgpool2 layers run it on maps,
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
    band = max(1, min(hh, _CONV_BAND_PX // (b * ww)))  # range needs a step >= 1
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


_POOL_BAND = 32  # output rows per pass of mean_pool: a 1080p band's row sums are 0.35 MiB


def mean_pool(x: np.ndarray, factor_y: int, factor_x: int,
              dtype=np.float64) -> np.ndarray:
    """Integer-factor mean pooling of the two axes before the channel axis.

    Works on (H, W, C) images and (B, H, W, C) maps alike.  Floating inputs
    keep their dtype; any other input pools to ``dtype``, a float type
    (default float64).

    One loop serves every input, in bands of ``_POOL_BAND`` output rows.
    Each band adds its ``factor_y`` row slabs, each a contiguous run of W*C
    values, then sums each output pixel's ``factor_x`` column groups as one
    product with a stacked 0/1 identity matrix (``_column_sum``); a
    power-of-two cell count folds its exact 1/count into the matrix, any
    other divides once at the end.  So 2x2 rounds as ``((x00 + x10) +
    (x01 + x11)) * 0.25``; a reshape-mean adds the four in another order
    and can differ in the last bit.  Bytes over at most 257 cells add their
    rows in uint16, exactly (255 * 257 = 65,535), and integer sums that
    small stay exact through the product: the mean is rounded once.
    The product stays stacked per output row, ``(..., rows, W/fx, fx*C) @
    P``, as ``pointwise_forward`` keeps ``x @ w``: as one 2-D product, a
    224 px window's pooling wakes a second BLAS thread while the window
    threads already use both CPUs (``detect-conv-b224`` went 0.078 -> 0.127
    s a frame, BENCH_detect_passes.json).  Stacked, each row gets the same
    call whatever the band.  A NaN or infinity in a cell makes every
    channel of its pooled pixel non-finite (0 * inf is NaN), and no other
    pixel.
    """
    h, w = x.shape[-3:-1]
    if h % factor_y or w % factor_x:
        raise OddDimensionsError(
            f"extents {h}x{w} not divisible by {factor_y}x{factor_x}"
        )
    lead, c = x.shape[:-3], x.shape[-1]
    count = factor_y * factor_x
    dtype = x.dtype if np.issubdtype(x.dtype, np.inexact) else np.dtype(dtype)
    acc = np.uint16 if x.dtype == np.uint8 and count <= 257 else dtype
    exact = count & (count - 1) == 0  # 1/count is a power of two
    pairs = _column_sum(c, factor_x, dtype, 1 / count if exact else 1)
    slabs = x.reshape(*lead, h // factor_y, factor_y, w * c)
    out = np.empty((*lead, h // factor_y, w // factor_x, c), dtype)
    for r in range(0, h // factor_y, _POOL_BAND):
        band = slabs[..., r : r + _POOL_BAND, :, :]
        rows = np.empty(band.shape[:-2] + band.shape[-1:], acc)
        _add_into([band[..., i, :] for i in range(factor_y)], rows)
        shape = (*rows.shape[:-1], w // factor_x, factor_x * c)
        np.matmul(rows.astype(dtype, copy=False).reshape(shape), pairs,
                  out=out[..., r : r + _POOL_BAND, :, :])
    if not exact:
        out /= count
    return out


@functools.cache
def _column_sum(c: int, factor_x: int, dtype: np.dtype, scale: float) -> np.ndarray:
    """The read-only (factor_x * C, C) matrix of ``factor_x`` stacked C x C
    identities times ``scale``: a row of ``factor_x`` pixels times it is
    their channel-wise sum, scaled."""
    matrix = np.tile(np.eye(c, dtype=dtype) * dtype.type(scale), (factor_x, 1))
    matrix.flags.writeable = False
    return matrix


def _add_into(parts: list, out: np.ndarray) -> None:
    """Write the sum of the same-shape views ``parts``, in order, to ``out``,
    adding in ``out``'s dtype."""
    if len(parts) == 1:
        out[...] = parts[0]
        return
    np.add(parts[0], parts[1], out=out, dtype=out.dtype)
    for part in parts[2:]:
        out += part


def avgpool2_forward(x: np.ndarray) -> LayerIO:
    """2x2 mean pooling with stride 2; spatial extents must be even."""
    return LayerIO(mean_pool(x, 2, 2), (x.shape,))


def avgpool2_backward(cache: tuple, dy: np.ndarray):
    """``dy * 0.25``, scaled at the pooled size, then repeated twice along
    each spatial axis; both repeats write contiguous arrays."""
    (x_shape,) = cache
    dx = np.repeat(np.repeat(dy * 0.25, 2, axis=1), 2, axis=2)
    if dx.shape != x_shape:
        raise ShapeMismatchError(f"gradient {dy.shape} does not pool from {x_shape}")
    return dx


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
