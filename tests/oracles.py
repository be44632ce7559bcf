"""Deliberately naive reference implementations that the tests judge against,
the one spy that more than one test file uses, and the hand-built arm that
no library variant names."""

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from whtfire import arch
from whtfire.errors import LengthNotPowerOfTwoError, ShapeMismatchError, WhtFireError
from whtfire.fwht import _FACTOR_ORDER, _factor, hadamard_matrix
from whtfire.tiling import _FONT, BORDER_PX, GREEN, RED


class LengthMismatchError(WhtFireError, ValueError):
    """Two sequences that must share a length do not."""


class DegenerateGridError(WhtFireError, ValueError):
    """Grid too small to form any 2x2 block window."""


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


def fwht_remainder_last(x) -> np.ndarray:
    """``fwht`` with the Kronecker factors of N = 2^m in the order
    [16, ..., 16, 2^(m % 4)], the remainder last.

    At N = 16^a both orders make the same products, so ``fwht`` must match
    this bit for bit there; other N only to rounding.
    """
    y = np.asarray(x)
    dtype = np.float32 if y.dtype == np.float32 else np.float64
    y = y.astype(dtype)
    shape, q = y.shape, y.shape[-1]
    while q > 1:
        k = min(q, 16)
        q //= k
        h = hadamard_matrix(k.bit_length() - 1).astype(dtype)
        y = y.reshape(-1, k) @ h if q == 1 else h @ y.reshape(-1, k, q)
    return y.reshape(shape)


def ifwht_separate_pass(y) -> np.ndarray:
    """``fwht_remainder_last`` followed by its own pass scaling by 1/N."""
    out = fwht_remainder_last(y)
    out *= out.dtype.type(1.0 / out.shape[-1])
    return out


def transform_whole_passes(x, inverse: bool) -> np.ndarray:
    """``fwht``'s factor plan with every pass over the whole array at once.

    The same products on the same values as the chunked passes, so
    ``fwht`` and ``ifwht`` must match this bit for bit at any chunk size.
    """
    y = np.asarray(x)
    n = y.shape[-1]
    dtype = np.float32 if y.dtype == np.float32 else np.float64
    y = y.astype(dtype, copy=False)
    if n == 1:
        return y.copy()
    shape = y.shape
    k = 1 << ((n.bit_length() - 2) % _FACTOR_ORDER + 1)  # 2^(m % 4), or 16 if 4 | m
    q = n // k
    while q > 1:
        y = _factor(k, dtype) @ y.reshape(-1, k, q)
        k = 1 << _FACTOR_ORDER
        q //= k
    h = _factor(k, dtype, n) if inverse else _factor(k, dtype)
    return (y.reshape(-1, k) @ h).reshape(shape)


def unit_to_bytes(x) -> np.ndarray:
    """Values in [0, 1] as the bytes ``clip(rint(x * 255), 0, 255)``."""
    return np.clip(np.rint(np.asarray(x) * 255.0), 0, 255).astype(np.uint8)


def identity_arm(width: int = 8, input_size: int = 32) -> arch.ArchDescriptor:
    """The wht toy net with its ``wht`` layers dropped, named ``toy-identity``.

    Each block is then pointwise, relu and gain: the ablation that shows what
    the spectral layer adds.  Every ``skip_from`` is remapped to the new
    index of the layer it reads.
    """
    toy = arch.toy_descriptor("wht", width, input_size)
    kept = [i for i, layer in enumerate(toy.layers) if layer.kind != "wht"]
    new_index = {old: new for new, old in enumerate(kept)}
    layers = tuple(
        dataclasses.replace(toy.layers[i], skip_from=new_index.get(toy.layers[i].skip_from))
        for i in kept
    )
    return arch.ArchDescriptor("toy-identity", layers, input_size)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """A checkpoint's header object and its tensors, read with no library code.

    The file is the magic, the version and the header length as u32s, the
    JSON header, then each tensor of the header's ``tensors`` as
    little-endian float32, in sorted name order.
    """
    raw = Path(path).read_bytes()
    (size,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + size])
    tensors, at = {}, 12 + size
    for name in sorted(header["tensors"]):
        shape = tuple(header["tensors"][name])
        count = int(np.prod(shape))
        tensors[name] = np.frombuffer(raw, "<f4", count, at).reshape(shape)
        at += 4 * count
    assert at == len(raw)
    return header, tensors


def write_checkpoint(net, path, metadata=()) -> None:
    """Write ``net`` in the layout ``read_checkpoint`` reads, with no check of
    its tensors: the files ``checkpoint_save`` refuses, for the loader to refuse."""
    desc = net.descriptor
    header = json.dumps({
        **dict(metadata), "arch": desc.name, "input_size": desc.input_size,
        "layers": [dataclasses.asdict(layer) for layer in desc.layers], "seed": net.seed,
        "tensors": {name: list(t.shape) for name, t in net.parameters.items()},
    }).encode()
    tensors = [np.asarray(net.parameters[name], "<f4").tobytes() for name in sorted(net.parameters)]
    Path(path).write_bytes(b"".join([b"WHTC", struct.pack("<2I", 3, len(header)), header,
                                     *tensors]))


def extract_windows(image: np.ndarray, spec):
    """All ((r, c), window) pairs; window (r, c) covers blocks (r..r+1, c..c+1)."""
    rows, cols = spec.rows, spec.cols
    if rows < 2 or cols < 2:
        raise DegenerateGridError(f"grid {rows}x{cols} has no 2x2 window")
    b = spec.block
    out = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            win = image[r * b : (r + 2) * b, c * b : (c + 2) * b]
            out.append(((r, c), win))
    return out


def border_mask(spec) -> np.ndarray:
    """Boolean (H, W) mask of all pixels any border may touch."""
    mask = np.zeros((spec.image_height, spec.image_width), dtype=bool)
    b = spec.block
    for r in range(spec.rows):
        for c in range(spec.cols):
            y0, x0 = r * b, c * b
            y1, x1 = y0 + b, x0 + b
            mask[y0 : y0 + BORDER_PX, x0:x1] = True
            mask[y1 - BORDER_PX : y1, x0:x1] = True
            mask[y0:y1, x0 : x0 + BORDER_PX] = True
            mask[y0:y1, x1 - BORDER_PX : x1] = True
    return mask


def draw_text_per_pixel(canvas: np.ndarray, y: int, x: int, text: str,
                        color, pixel: int) -> None:
    """Burn ``text`` into ``canvas`` with one slice write per lit glyph pixel."""
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


def render_overlay_per_block(image: np.ndarray, grid, draw_scores: bool = False) -> np.ndarray:
    """The overlay drawn block by block: each block's borders, then its digits.

    A byte frame gets the byte colours ``RED``/``GREEN``; a float frame in
    [0, 1] gets them divided by 255, as overlays were first drawn.
    """
    out = np.array(image, copy=True)
    unit = 1 if out.dtype == np.uint8 else 255
    spec = grid.spec
    b = spec.block
    n_r, n_c = grid.scores.shape
    for r in range(spec.rows):
        for c in range(spec.cols):
            score = grid.scores[min(r, n_r - 1), min(c, n_c - 1)]
            color = (np.array(RED if score >= grid.threshold else GREEN) / unit
                     ).astype(out.dtype)
            y0, x0 = r * b, c * b
            y1, x1 = y0 + b, x0 + b
            out[y0 : y0 + BORDER_PX, x0:x1] = color
            out[y1 - BORDER_PX : y1, x0:x1] = color
            out[y0:y1, x0 : x0 + BORDER_PX] = color
            out[y0:y1, x1 - BORDER_PX : x1] = color
            is_anchor = grid.fallback or (r < n_r and c < n_c)
            if draw_scores and is_anchor:
                pixel = max(1, b // 56)
                draw_text_per_pixel(out, y0 + 2 * BORDER_PX, x0 + 2 * BORDER_PX,
                                    f"{score:.2f}", color, pixel)
    return out


def gradient_check(fun, x, analytic, epsilon: float = 1e-5) -> float:
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


def conv3x3_whole_map(x, w) -> np.ndarray:
    """3x3 convolution (padding 1) as 9 tap products over the whole padded
    map, each added to a zero-initialised output in tap order."""
    hh, ww = x.shape[1:3]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.zeros((x.shape[0], hh, ww, w.shape[3]), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            out += xp[:, di : di + hh, dj : dj + ww] @ w[di, dj]
    return out


def conv3x3_backward_whole_map(cache, dy, input_grad: bool = True):
    """conv3x3's backward on the whole padded map: each tap's ``dw`` as one
    tensordot, and ``dx`` scattered tap by tap into a padded buffer, then
    cropped."""
    x, w = cache
    hh, ww = dy.shape[1:3]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp) if input_grad else None
    for di in range(3):
        for dj in range(3):
            win = (slice(None), slice(di, di + hh), slice(dj, dj + ww))
            dw[di, dj] = np.tensordot(xp[win], dy, axes=([0, 1, 2], [0, 1, 2]))
            if input_grad:
                dxp[win] += dy @ w[di, dj].T
    return (dxp[:, 1:-1, 1:-1] if input_grad else None), dw


def avgpool2_reshape_mean(x) -> np.ndarray:
    """2x2 mean pooling of a (B, H, W, C) map as a reshape and a mean."""
    b, hh, ww, c = x.shape
    out = x.reshape(b, hh // 2, 2, ww // 2, 2, c).mean(axis=(2, 4))
    return out.astype(x.dtype, copy=False)


def avgpool2_rows_first(x) -> np.ndarray:
    """2x2 mean pooling of a (B, H, W, C) float map as
    ``((x00 + x10) + (x01 + x11)) * 0.25``, in ``x``'s dtype: each column's
    two rows first, then the two columns, then the exact quarter."""
    top, bottom = x[:, 0::2], x[:, 1::2]
    left = top[:, :, 0::2] + bottom[:, :, 0::2]
    right = top[:, :, 1::2] + bottom[:, :, 1::2]
    return (left + right) * x.dtype.type(0.25)


def mean_pool_strided(x, factor_y: int, factor_x: int) -> np.ndarray:
    """Mean pooling as float sums of the strided cell slices, in row-major
    cell order, divided once; non-float input pools to float64."""
    dtype = x.dtype if np.issubdtype(x.dtype, np.inexact) else np.float64
    acc = x[..., ::factor_y, ::factor_x, :].astype(dtype)
    for i in range(factor_y):
        for j in range(factor_x):
            if i or j:
                acc += x[..., i::factor_y, j::factor_x, :]
    acc /= factor_y * factor_x
    return acc


def avgpool2_backward_broadcast(cache, dy) -> np.ndarray:
    """avgpool2's adjoint: ``dy * 0.25`` broadcast into one array through
    its (B, H/2, 2, W/2, 2, C) view."""
    (x_shape,) = cache
    b, h, w, c = dy.shape
    dx = np.empty(x_shape, dtype=dy.dtype)
    dx.reshape(b, h, 2, w, 2, c)[...] = (dy * 0.25)[:, :, None, :, None, :]
    return dx


def network_backward_pending(net, caches, dlogits) -> dict:
    """Backpropagation through a map of pending gradients, one per layer.

    Every parameter gradient starts at zero and is added to; every
    layer's input gradient, layer 0's too, is formed as a fresh ``0 + dx``
    sum, and an ``add_skip`` adds its gradient to its source layer's
    pending entry.
    """
    layers = net.descriptor.layers
    params = net.parameters
    grads = {name: np.zeros_like(p) for name, p in params.items()}
    pending = {len(layers) - 1: dlogits}
    for idx in range(len(layers) - 1, -1, -1):
        g = pending.pop(idx, None)
        if g is None:
            continue
        layer = layers[idx]
        if layer.kind == "add_skip":
            dx = g
            j = layer.skip_from
            pending[j] = pending.get(j, 0) + g
        else:
            kind, names = layer._runnable
            dx, *dparams = kind.backward(caches[idx], g)
            for name, d in zip(names, dparams):
                grads[name] += d
        if idx > 0:
            pending[idx - 1] = pending.get(idx - 1, 0) + dx
    return grads


def record_backward_flags(monkeypatch) -> list:
    """The ``backward`` flag of every executor run from here on."""
    flags = []
    run = arch._run_layers

    def recording(net, x, layers, backward=False):
        flags.append(backward)
        return run(net, x, layers, backward)

    monkeypatch.setattr(arch, "_run_layers", recording)
    return flags
