"""One contract for every layer kind in ``arch._KINDS``: a new kind gets it by adding a row.

A row holds layers (the kind under test last), the shape of its seeded input
((B, H, W, C), or (B, C) for dense), check (a)'s bound and what (a) skips.
Rows run on the executor, ``arch._run_layers``; ``add_skip`` has no passes,
so its row is a small net whose backward is ``network_backward`` (no dx).

(a) float64 central differences of dx and every tensor gradient on two samples,
    within 1e-6 for a kind nonlinear in x, else 1e-9 (1e-8 for conv3x3 and the
    transform-path wht, whose sums are the longest);
(b) a batch's forward is its halves' (>= 2 rows each: one row may round otherwise)
    bit for bit; its tensor gradients are the halves' sums within ``BATCH_EPS``
    epsilons of their largest entry;
(c) a local kind's forward of an aligned window is that window of its forward, exactly;
(d) float32 and float64 are kept by the output and every gradient;
(e) ``input_grad=False`` gives dx None and the same tensor gradients, bit for bit;
(f) an empty batch or a map of zero area gives the output shape with that extent 0
    and zero tensor gradients, or a ``WhtFireError``: no other exception, no warning.
"""

import functools
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

from whtfire import arch, wht_layer
from whtfire.errors import WhtFireError
from whtfire.fwht import fwht
from oracles import gradient_check

DTYPES = (np.float32, np.float64)
BATCH_EPS = 64
WIDE = 2 * wht_layer._PRODUCT_MAX_CHANNELS  # wht's transform path even without λ


class Row(NamedTuple):
    layers: tuple
    shape: tuple
    tol: float
    skip: tuple = ()  # "x" or tensor names
    settle: Callable = lambda x, tensors: None  # moves the input off a kink, in place


def one(kind, width, out=None, **fields):
    return (arch.LayerDescriptor(kind, width, out or width, name=kind, **fields),)


def off_relu_kink(x, tensors):
    x[np.abs(x) < 0.1] += 0.5


def off_threshold(x, tensors):
    # λ halves the widest gap of the middle |u|: no central difference moves a bin across it
    u = np.sort(np.abs(fwht(x) * tensors["wht.scale"]), axis=None)[x.size // 4 : -x.size // 4]
    i = np.argmax(np.diff(u))
    assert u[i + 1] - u[i] > 2e-3
    tensors["wht.lambda"][:] = (u[i] + u[i + 1]) / 2


ROWS = {
    "pointwise": Row(one("pointwise", 3, 2), (4, 2, 3, 3), 1e-9),
    "conv3x3": Row(one("conv3x3", 2, 3), (4, 4, 4, 2), 1e-8),
    "relu": Row(one("relu", 2), (4, 3, 4, 2), 1e-6, settle=off_relu_kink),
    **{f"wht-c{c}": Row(one("wht", c), (4, 1, 3, c), 1e-9 if c < WIDE else 1e-8)
       for c in (8, WIDE)},
    # λ's gradient is a surrogate, which test_wht_layer judges
    **{f"wht-c{c}-lambda": Row(one("wht", c, threshold_trainable=True), (4, 1, 3, c), 1e-6,
                               ("wht.lambda",), off_threshold) for c in (8, WIDE)},
    "gain": Row(one("gain", 2), (4, 3, 4, 2), 1e-9),
    # the gain's gradient comes back both through the pointwise layer and the skip
    "add_skip": Row(one("gain", 2) + one("pointwise", 2)
                    + (arch.LayerDescriptor("add_skip", 2, 2, skip_from=0),),
                    (4, 2, 4, 2), 1e-9, ("x",)),
    "avgpool2": Row(one("avgpool2", 2), (4, 4, 6, 2), 1e-9),
    "gap": Row(one("gap", 2), (4, 3, 5, 2), 1e-9),
    "dense": Row(one("dense", 4, 3), (4, 4), 1e-9),
}


def rows(where=lambda row: True):
    return [pytest.param(row, id=name) for kind in arch._KINDS
            for name, row in ROWS.items() if row.layers[-1].kind == kind and where(row)]


def run(row, x, tensors, dy=None, input_grad=True):
    """The output; with ``dy``, dx (None for several layers) and tensor gradients by name."""
    net = arch.Network(arch.ArchDescriptor(row.layers[-1].kind, row.layers), tensors, 0)
    y, caches = arch._run_layers(net, x, row.layers, backward=dy is not None)
    if dy is None:
        return y
    if len(row.layers) > 1:
        return None, arch.network_backward(net, caches, dy)
    kind, names = row.layers[0]._runnable
    dx, *grads = kind.backward(caches[0], dy, input_grad)
    return dx, dict(zip(names, grads, strict=True))


def inputs(row, dtype=np.float64):
    """The row's seeded x, tensors by name and dy, in ``dtype``."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=row.shape)
    specs = arch.param_specs(arch.ArchDescriptor("", row.layers))
    tensors = {name: rng.normal(size=spec.shape) for name, spec in specs.items()}
    row.settle(x, tensors)
    dy = rng.normal(size=run(row, x, tensors).shape)
    return x.astype(dtype), {n: t.astype(dtype) for n, t in tensors.items()}, dy.astype(dtype)


def test_every_kind_has_a_row():
    assert {row.layers[-1].kind for row in ROWS.values()} == arch._KINDS.keys()


@pytest.mark.parametrize("row", rows())
def test_central_differences(row):
    x, tensors, dy = inputs(row)
    x, dy = x[:2], dy[:2]
    dx, grads = run(row, x, tensors, dy)
    assert grads.keys() == tensors.keys()

    def loss(name, v):
        at = (v, tensors) if name == "x" else (x, {**tensors, name: v})
        return float(np.sum(run(row, *at) * dy))

    points = {"x": (x, dx), **{name: (t, grads[name]) for name, t in tensors.items()}}
    errors = {name: gradient_check(functools.partial(loss, name), *point)
              for name, point in points.items() if name not in row.skip}
    assert max(errors.values()) <= row.tol, errors


@pytest.mark.parametrize("row", rows())
def test_a_batch_is_its_halves(row):
    halves = (slice(None, 2), slice(2, None))  # every row has a batch of 4
    for dtype in DTYPES:
        x, tensors, dy = inputs(row, dtype)
        parts = [run(row, x[half], tensors) for half in halves]
        assert np.concatenate(parts).tobytes() == run(row, x, tensors).tobytes()
        parts = [run(row, x[half], tensors, dy[half])[1] for half in halves]
        for name, got in run(row, x, tensors, dy)[1].items():
            want = parts[0][name] + parts[1][name]
            bound = BATCH_EPS * np.finfo(dtype).eps * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("row", rows(lambda row: all(arch._kind(layer).local
                                                     for layer in row.layers)))
def test_a_window_of_a_local_map(row):
    for dtype in DTYPES:
        x, tensors, _ = inputs(row, dtype)
        y = run(row, x, tensors)
        step = x.shape[2] // y.shape[2]  # input pixels per output pixel
        r, c = max(x.shape[1] - 2, 0), x.shape[2] - 2  # the last two rows and columns
        assert c > 0 and r % step == c % step == 0
        window = run(row, x[:, r:, c:], tensors)
        assert window.tobytes() == y[:, r // step :, c // step :].tobytes()


@pytest.mark.parametrize("row", rows())
def test_dtypes_are_kept(row):
    for dtype in DTYPES:
        x, tensors, dy = inputs(row, dtype)
        dx, grads = run(row, x, tensors, dy)
        made = [run(row, x, tensors), *grads.values()] + ([] if dx is None else [dx])
        assert {a.dtype for a in made} == {np.dtype(dtype)}


@pytest.mark.parametrize("row", rows(lambda row: "x" not in row.skip))
def test_no_input_grad_keeps_the_tensor_grads(row):
    for dtype in DTYPES:
        x, tensors, dy = inputs(row, dtype)
        full_dx, full = run(row, x, tensors, dy)
        dx, grads = run(row, x, tensors, dy, input_grad=False)
        assert dx is None and full_dx.shape == x.shape
        assert [g.tobytes() for g in grads.values()] == [g.tobytes() for g in full.values()]


@pytest.mark.parametrize("row", rows())
def test_empty_input(row):
    _, tensors, dy = inputs(row)
    for axis in range(len(row.shape) - 1):  # the batch, then each spatial extent
        x = np.zeros(row.shape[:axis] + (0,) + row.shape[axis + 1 :])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                y = run(row, x, tensors)
                dx, grads = run(row, x, tensors, np.zeros_like(y))
            except WhtFireError:
                continue
        assert y.shape == dy.shape[:axis] + (0,) + dy.shape[axis + 1 :]
        assert dx is None or dx.shape == x.shape
        assert all(g.shape == tensors[n].shape and not g.any() for n, g in grads.items())
