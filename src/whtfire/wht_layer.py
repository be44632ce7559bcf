"""Transform-domain layer: WHT -> per-bin scaling -> hard threshold -> IWHT.

The transform runs along the channel axis independently at each spatial
position, so a (B, H, W, N) batch of feature maps (or any array whose last
axis holds the N channels) keeps its shape.  The layer takes its tensors
like every other layer kind: an (N,) ``scale`` and, when the threshold is
trainable, a (1,) ``lam``; without ``lam`` the threshold is 0.
With ``scale == 1`` and a zero threshold the layer is the identity.

Without ``lam`` the threshold |u| >= 0 passes every finite bin, so the
layer is exactly the N x N dyadic convolution W = H diag(scale) H / N (the
WHT's convolution theorem): a pointwise layer with N parameters, whose bin
pass fraction is 1.0 by construction.  Up to ``_PRODUCT_MAX_CHANNELS`` it
runs as that one product; wider, and whenever ``lam`` is set, it runs the
two transforms.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CacheMissingError,
    ChannelCountNotPowerOfTwoError,
    ShapeMismatchError,
)
from .fwht import _factor, fwht, ifwht
from .nn import LayerIO

# Widest channel count at which the threshold-free layer runs as one N x N
# product.  The product costs N multiply-adds per element against the two
# transforms' ~2 log2 N, but it is one BLAS call instead of a dozen numpy
# passes; building W and H M costs ~3 N^3 per call whatever the map size.
# Forward + backward in float32 on a 2-vCPU host (BENCH_fwht_plan.json),
# transforms over product: on (8, 32, 32, N) maps 4.4x at N = 8, 3.1x at 64
# and 1.3-1.9x at 256-512.  On the smaller maps the toy net also runs, down
# to one 8 x 8 map per sample, the product still wins >= 1.5x at N <= 64
# but loses at N >= 128 (0.08-0.44x on one 8 x 8 map), so it stops at 64.
_PRODUCT_MAX_CHANNELS = 64


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
    n = _check_channels(x, scale)
    if lam is None and n <= _PRODUCT_MAX_CHANNELS:
        # fwht's dtype rule, then numpy's promotion with scale, as below
        dtype = np.result_type(np.float32 if x.dtype == np.float32 else np.float64, scale).type
        h = _factor(n, dtype)
        w = (h * scale) @ h
        w *= dtype(1.0 / n)
        return LayerIO((x.reshape(-1, n) @ w).reshape(x.shape), (x, w, scale))
    t = fwht(x)
    u = t * scale
    mask = np.abs(u) >= (0.0 if lam is None else lam[0])
    u *= mask  # a multiply, not a masked write: a NaN bin stays NaN
    return LayerIO(ifwht(u), (t, mask, scale, lam))


def wht_layer_backward(cache: tuple, dy: np.ndarray, input_grad: bool = True):
    """Straight-through backward: the pass mask is treated as constant.

    Returns (dx, dscale), and also a (1,) dlam in ``lam``'s dtype when the
    forward pass had a threshold tensor; dx is None unless ``input_grad``.
    dlam is the soft-threshold surrogate: -sign(u) times the gradient
    reaching u, summed over the pass region.  On the product path,
    dx = dy W (W is symmetric) and dscale_k = (H M H)_kk / N with
    M = x^T dy summed over positions.
    """
    if cache is None:
        raise CacheMissingError("wht layer backward needs the forward cache")
    if dy.shape != cache[0].shape:
        raise ShapeMismatchError(
            f"upstream gradient shape {dy.shape} != layer shape {cache[0].shape}"
        )
    if len(cache) == 3:  # the product path's (x, W, scale)
        x, w, scale = cache
        n = scale.shape[0]
        m = x.reshape(-1, n).T @ dy.reshape(-1, n)
        h = _factor(n, w.dtype.type)
        dscale = np.sum((h @ m) * h, axis=1) * w.dtype.type(1.0 / n)
        dx = (dy.reshape(-1, n) @ w).reshape(dy.shape) if input_grad else None
        return dx, dscale.astype(scale.dtype, copy=False)
    t, mask, scale, lam = cache
    du = ifwht(dy)  # dL/dv, since the inverse transform is symmetric
    du *= mask
    dscale = np.sum(du * t, axis=tuple(range(du.ndim - 1))).astype(scale.dtype, copy=False)
    dx = fwht(du * scale) if input_grad else None
    if lam is None:
        return dx, dscale
    return dx, dscale, np.asarray([-np.sum(np.sign(t * scale) * du)], dtype=lam.dtype)
