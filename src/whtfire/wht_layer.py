"""Transform-domain layer: WHT -> per-bin scaling -> hard threshold -> IWHT.

The transform runs along the channel axis independently at each spatial
position, so a (B, H, W, N) batch of feature maps (or any array whose last
axis holds the N channels) keeps its shape.  The layer takes its tensors
like every other layer kind: an (N,) ``scale`` and, when the threshold is
trainable, a (1,) ``lam``; without ``lam`` the threshold is 0.
With ``scale == 1`` and a zero threshold the layer is the identity.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CacheMissingError,
    ChannelCountNotPowerOfTwoError,
    ShapeMismatchError,
)
from .fwht import fwht, ifwht
from .nn import LayerIO


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


def wht_layer_forward(x: np.ndarray, scale: np.ndarray,
                      lam: np.ndarray | None = None) -> LayerIO:
    """Per position: u = scale * fwht(x); keep |u| >= lam[0]; ifwht back."""
    _check_channels(x, scale)
    t = fwht(x, axis=-1)
    u = t * scale
    mask = np.abs(u) >= (0.0 if lam is None else lam[0])
    out = ifwht(u * mask, axis=-1)
    return LayerIO(out, (t, u, mask, scale, lam))


def wht_layer_backward(cache: tuple, dy: np.ndarray):
    """Straight-through backward: the pass mask is treated as constant.

    Returns (dx, dscale), and also a (1,) dlam in ``lam``'s dtype when the
    forward pass had a threshold tensor.  dlam is the soft-threshold
    surrogate: -sign(u) times the gradient reaching u, summed over the
    pass region.
    """
    if cache is None:
        raise CacheMissingError("wht layer backward needs the forward cache")
    t, u, mask, scale, lam = cache
    if dy.shape != u.shape:
        raise ShapeMismatchError(
            f"upstream gradient shape {dy.shape} != layer shape {u.shape}"
        )
    g = ifwht(dy, axis=-1)          # dL/dv, since the inverse transform is symmetric
    du = g * mask
    dscale = np.sum(du * t, axis=tuple(range(du.ndim - 1))).astype(scale.dtype, copy=False)
    dx = fwht(du * scale, axis=-1)
    if lam is None:
        return dx, dscale
    return dx, dscale, np.asarray([-np.sum(np.sign(u) * mask * g)], dtype=lam.dtype)
