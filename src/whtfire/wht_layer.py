"""Transform-domain layer: WHT -> per-bin scaling -> hard threshold -> IWHT.

The transform runs along the channel axis independently at each spatial
position, so a (B, H, W, N) batch of feature maps (or any array whose last
axis holds the N channels) keeps its shape, and the layer owns exactly N
trainable values (plus one optional threshold).
With ``scale == 1`` and ``threshold == 0`` the layer is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CacheMissingError,
    ChannelCountNotPowerOfTwoError,
    ShapeMismatchError,
)
from .fwht import fwht, ifwht
from .nn import LayerIO


@dataclass
class WhtLayerParams:
    """Trainable state: one scale per transform bin, one scalar threshold."""

    scale: np.ndarray
    threshold: float = 0.0
    threshold_trainable: bool = False

    def __post_init__(self):
        self.scale = np.asarray(self.scale)
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")

    @classmethod
    def identity(cls, n: int, dtype=np.float64, threshold_trainable: bool = False):
        return cls(np.ones(n, dtype=dtype), 0.0, threshold_trainable)


def _check_channels(x: np.ndarray, scale: np.ndarray) -> int:
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ChannelCountNotPowerOfTwoError(
            f"channel count {n} is not a power of two"
        )
    if scale.shape != (n,):
        raise ShapeMismatchError(
            f"scale shape {scale.shape} does not match channel count {n}"
        )
    return n


def wht_layer_forward(x: np.ndarray, params: WhtLayerParams) -> LayerIO:
    """Per position: u = scale * fwht(x); keep |u| >= threshold; ifwht back."""
    scale = params.scale
    _check_channels(x, scale)
    lam = float(params.threshold)
    t = fwht(x, axis=-1)
    u = t * scale
    mask = np.abs(u) >= lam
    v = u * mask
    out = ifwht(v, axis=-1, overwrite=True)
    cache = (t, u, mask, scale, lam, params.threshold_trainable)
    return LayerIO(out, cache)


def wht_layer_backward(cache: tuple, dy: np.ndarray):
    """Straight-through backward: the pass mask is treated as constant.

    Returns (dx, dscale, dthreshold).  The threshold gradient uses the
    soft-threshold surrogate -sign(u) on the pass region when the
    threshold is trainable, and is 0.0 otherwise.
    """
    if cache is None:
        raise CacheMissingError("wht layer backward needs the forward cache")
    t, u, mask, scale, lam, threshold_trainable = cache
    if dy.shape != u.shape:
        raise ShapeMismatchError(
            f"upstream gradient shape {dy.shape} != layer shape {u.shape}"
        )
    g = ifwht(dy, axis=-1)          # dL/dv, since the inverse transform is symmetric
    du = g * mask
    dscale = np.sum(du * t, axis=tuple(range(du.ndim - 1)))
    dx = fwht(du * scale, axis=-1, overwrite=True)
    if threshold_trainable:
        dthreshold = float(-np.sum(np.sign(u) * mask * g))
    else:
        dthreshold = 0.0
    return dx, dscale.astype(scale.dtype, copy=False), dthreshold

