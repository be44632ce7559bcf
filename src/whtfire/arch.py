"""Architecture descriptors, parameter counting, and runnable toy networks.

A descriptor lists a network's layers; its parameters are materialized as
named numpy tensors, and every layer kind it may name can run.  The toy
networks come in a conv baseline and a spectral variant that differ in
exactly one layer per residual block; their names (``ARCH_NAME_TO_VARIANT``)
are read only here and by the command line.  Any other descriptor that
passes ``check_descriptor`` runs as well, and is saved and loaded by its
layer list.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import nn, wht_layer
from .errors import (
    BadWidthError,
    InvalidDescriptorError,
    ShapeMismatchError,
)

TOY_INPUT_SIZES = (32, 64, 224)
ARCH_NAME_TO_VARIANT = {"toy-conv": "conv-baseline", "toy-wht": "wht"}
_VARIANT_TO_ARCH_NAME = {v: k for k, v in ARCH_NAME_TO_VARIANT.items()}
TOY_VARIANTS = tuple(_VARIANT_TO_ARCH_NAME)


@dataclass(frozen=True)
class LayerDescriptor:
    kind: str
    in_channels: int = 0
    out_channels: int = 0
    threshold_trainable: bool = False
    skip_from: int | None = None
    name: str = ""

    @functools.cached_property
    def _runnable(self) -> tuple[_Kind, tuple[str, ...]]:
        """This layer's kind and tensor names; kept on the layer."""
        kind = _kind(self)
        return kind, tuple(self.name + spec.suffix for spec in kind.params(self))


@dataclass(frozen=True)
class ArchDescriptor:
    name: str
    layers: tuple[LayerDescriptor, ...]
    input_size: int | None = None


@dataclass
class Network:
    descriptor: ArchDescriptor
    parameters: dict[str, np.ndarray]
    seed: int

    def __post_init__(self):
        if isinstance(self.seed, np.integer):  # JSON cannot hold a numpy scalar
            self.seed = int(self.seed)

    @property
    def dtype(self):
        return next(iter(self.parameters.values())).dtype


# -- the table of layer kinds --------------------------------------------------

class ParamSpec(NamedTuple):
    """One tensor of a layer: name suffix, shape, initial value, lower bound.

    ``fill`` is the constant every element starts at; None draws fan-in
    scaled uniform values.  ``lower``, when set, is a bound that training
    keeps and ``checkpoint_load`` checks.
    """

    suffix: str
    shape: tuple[int, ...]
    fill: float | None = None
    lower: float | None = None


def _no_params(layer):
    return ()


@dataclass(frozen=True)
class _Kind:
    """One layer kind: its tensors, its passes and whether it is local.

    ``params(layer)`` gives one ``ParamSpec`` per tensor; counting,
    instantiation, training's bounds and checkpoint loading all read it.
    ``forward(x, *tensors)`` returns a ``LayerIO`` and
    ``backward(cache, dy, input_grad)`` returns ``(dx, *tensor grads)``: the
    cache holds whatever of the tensors the gradients need, and dx is None
    when ``input_grad`` is False (only kinds with tensors are asked that).
    Only ``add_skip`` has no passes: it is wiring in the executor.  A
    ``local`` kind computes each output pixel from its own input pixel
    (avgpool2: its aligned 2x2 cell), so a map of a whole frame restricts
    exactly to aligned windows.
    """

    params: Callable = _no_params
    forward: Callable | None = None
    backward: Callable | None = None
    local: bool = False


def _ops(module, op: str, params: Callable = _no_params, local: bool = False) -> _Kind:
    """The kind run by ``module.<op>_forward`` and ``module.<op>_backward``.

    Both are looked up when the layer runs, so rebinding them (as a tracer
    does) reaches every call.
    """
    forward_name, backward_name = f"{op}_forward", f"{op}_backward"

    def forward(x, *tensors):
        return getattr(module, forward_name)(x, *tensors)

    def backward(cache, dy, input_grad=True):
        run = getattr(module, backward_name)
        out = run(cache, dy) if input_grad else run(cache, dy, input_grad=False)
        return out if isinstance(out, tuple) else (out,)

    return _Kind(params, forward, backward, local)


def _affine(*kernel, bias: bool = False):
    """A fan-in (*kernel, in, out) weight, plus a zero (out,) bias if ``bias``."""
    def params(layer):
        weight = (ParamSpec(".weight", (*kernel, layer.in_channels, layer.out_channels)),)
        return weight + ((ParamSpec(".bias", (layer.out_channels,), 0.0),) if bias else ())
    return params


def _wht_params(layer):
    n = layer.out_channels
    if layer.in_channels != n or n < 1 or (n & (n - 1)):
        raise InvalidDescriptorError(
            f"wht layer needs equal power-of-two channels, got "
            f"{layer.in_channels}->{layer.out_channels}"
        )
    # scale 1 and threshold 0 start the layer as the identity
    lam = (ParamSpec(".lambda", (1,), 0.0, lower=0.0),) if layer.threshold_trainable else ()
    return (ParamSpec(".scale", (n,), 1.0),) + lam


_KINDS = {
    "pointwise": _ops(nn, "pointwise", _affine(), local=True),
    # not local: its zero padding at a window's edge differs from the frame
    "conv3x3": _ops(nn, "conv3x3", _affine(3, 3)),
    "relu": _ops(nn, "relu", local=True),
    "wht": _ops(wht_layer, "wht_layer", _wht_params, local=True),
    "gain": _ops(nn, "gain", lambda layer: (ParamSpec("", (1,), 1.0),), local=True),
    "add_skip": _Kind(local=True),
    "avgpool2": _ops(nn, "avgpool2", local=True),
    "gap": _ops(nn, "gap"),
    "dense": _ops(nn, "dense", _affine(bias=True)),
}


def _kind(layer: LayerDescriptor) -> _Kind:
    kind = _KINDS.get(layer.kind)
    if kind is None:
        raise InvalidDescriptorError(f"unknown layer kind {layer.kind!r}")
    return kind


def check_descriptor(desc: ArchDescriptor) -> None:
    """Refuse a descriptor that would not run, or would run wrong; run by
    ``toy_descriptor`` and ``checkpoint_save``, and on every descriptor
    ``checkpoint_load`` rebuilds.

    Field types are exact (a bool is not an int).  Each layer takes the width
    it is given, 3 at the input, and only pointwise, conv3x3 and dense change
    it.  An ``add_skip`` reads an earlier output of its width, with no
    ``avgpool2`` between.  Map kinds precede the one ``gap``, ``dense`` alone
    follows it, and the last width is 2.  Tensor names are unique, and the
    ``avgpool2`` layers halve ``input_size`` (a ``TOY_INPUT_SIZES``) to whole pixels.
    """
    def refuse(why: str):
        raise InvalidDescriptorError(f"{desc.name}: {why}")

    if type(desc.input_size) is not int or desc.input_size not in TOY_INPUT_SIZES:
        refuse(f"input_size must be one of {TOY_INPUT_SIZES}, got {desc.input_size!r}")
    widths: list[int] = []  # each layer's output width
    tensor_names: set[str] = set()
    width, gap = 3, False
    for i, layer in enumerate(desc.layers):
        if not (type(layer.kind) is type(layer.name) is str
                and type(layer.in_channels) is type(layer.out_channels) is int
                and type(layer.threshold_trainable) is bool
                and (layer.skip_from is None or type(layer.skip_from) is int)):
            refuse(f"layer {i} has a field of the wrong type: {layer}")
        for name in layer._runnable[1]:  # an unknown kind raises here
            if name in tensor_names:
                refuse(f"layer {i} repeats the tensor name {name!r}")
            tensor_names.add(name)
        if layer.in_channels != width:
            refuse(f"layer {i} takes {layer.in_channels} channels, is given {width}")
        if layer.out_channels < 1 or (
                layer.kind not in ("pointwise", "conv3x3", "dense")
                and layer.out_channels != width):
            refuse(f"layer {i} ({layer.kind}) cannot give {layer.out_channels} channels")
        if layer.kind == "add_skip":
            j = layer.skip_from
            if j is None or not 0 <= j < i:
                refuse(f"layer {i} adds layer {j}, which is not an earlier layer")
            if widths[j] != width or any(
                    earlier.kind == "avgpool2" for earlier in desc.layers[j + 1 : i]):
                refuse(f"layer {i} adds layer {j}, whose output has another shape")
        if layer.kind == "gap" and gap:
            refuse(f"layer {i} is a second gap")
        if gap != (layer.kind == "dense"):
            refuse(f"layer {i} ({layer.kind}) is on the wrong side of gap")
        gap = gap or layer.kind == "gap"
        width = layer.out_channels
        widths.append(width)
    if not gap:
        refuse("no gap layer")
    if width != 2:
        refuse(f"the last layer gives {width} channels, not 2 classes")
    pools = sum(layer.kind == "avgpool2" for layer in desc.layers)
    if desc.input_size % 2**pools:
        refuse(f"{pools} avgpool2 layers do not halve {desc.input_size} px to whole extents")


# -- parameter counting -----------------------------------------------------

def count_params(arch: ArchDescriptor) -> int:
    """Exact trainable-parameter count for a descriptor."""
    return sum(count for _, _, count in param_table(arch))


def param_table(arch: ArchDescriptor) -> list[tuple[str, str, int]]:
    """(name, kind, count) rows for every parameterized layer."""
    rows = []
    for layer in arch.layers:
        c = sum(math.prod(spec.shape) for spec in _kind(layer).params(layer))
        if c:
            rows.append((layer.name or layer.kind, layer.kind, c))
    return rows


# -- runnable toy networks ----------------------------------------------------

def toy_descriptor(variant: str, width: int = 8, input_size: int = 32,
                   threshold_trainable: bool = False) -> ArchDescriptor:
    """Three-residual-block toy net; ``variant`` picks conv3x3 or wht blocks."""
    if variant not in TOY_VARIANTS:
        raise InvalidDescriptorError(f"unknown variant {variant!r}")
    if width < 8 or (width & (width - 1)):
        raise BadWidthError(f"width must be a power of two >= 8, got {width}")
    layers = [LayerDescriptor("pointwise", 3, width, name="stem")]
    for b in range(3):
        block_in = len(layers) - 1  # index of the layer producing this block's input
        layers.append(
            LayerDescriptor("pointwise", width, width, name=f"block{b}.pw")
        )
        layers.append(LayerDescriptor("relu", width, width, name=f"block{b}.relu"))
        if variant == "wht":
            layers.append(
                LayerDescriptor(
                    "wht", width, width,
                    threshold_trainable=threshold_trainable, name=f"wht{b}",
                )
            )
        else:
            layers.append(
                LayerDescriptor("conv3x3", width, width, name=f"block{b}.conv")
            )
        layers.append(LayerDescriptor("gain", width, width, name=f"block{b}.gain"))
        layers.append(
            LayerDescriptor("add_skip", width, width, skip_from=block_in,
                            name=f"block{b}.skip")
        )
        if b < 2:
            layers.append(
                LayerDescriptor("avgpool2", width, width, name=f"block{b}.pool")
            )
    layers.append(LayerDescriptor("gap", width, width, name="head.gap"))
    layers.append(LayerDescriptor("dense", width, 2, name="head"))
    desc = ArchDescriptor(
        name=_VARIANT_TO_ARCH_NAME[variant],
        layers=tuple(layers),
        input_size=input_size,
    )
    check_descriptor(desc)
    return desc


def param_specs(arch: ArchDescriptor) -> dict[str, ParamSpec]:
    """Each named tensor's spec, in layer order, for an instantiable descriptor."""
    specs: dict[str, ParamSpec] = {}
    for layer in arch.layers:
        kind, names = layer._runnable
        specs.update(zip(names, kind.params(layer)))
    return specs


def init_parameters(arch: ArchDescriptor, seed: int,
                    dtype=np.float32) -> dict[str, np.ndarray]:
    """Each tensor's fill, or fan-in-scaled uniform draws in layer order."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, spec in param_specs(arch).items():
        if spec.fill is not None:
            params[name] = np.full(spec.shape, spec.fill, dtype=dtype)
        else:
            bound = float(np.sqrt(3.0 / math.prod(spec.shape[:-1])))
            params[name] = rng.uniform(-bound, bound, size=spec.shape).astype(dtype)
    return params


def build_toy_net(variant: str, width: int = 8, input_size: int = 32,
                  seed: int = 0, dtype=np.float32,
                  threshold_trainable: bool = False) -> Network:
    """Instantiate a runnable toy network with seeded parameters."""
    desc = toy_descriptor(variant, width, input_size, threshold_trainable)
    return Network(desc, init_parameters(desc, seed, dtype), seed)


# -- execution ----------------------------------------------------------------

def _run_layers(net: Network, x: np.ndarray, layers, backward: bool = False):
    """The executor: run ``layers`` in order on a batch ``x``.

    Returns (final output, per-layer caches) when ``backward``, for
    ``network_backward``; otherwise (final output, None), and each cache is
    dropped as soon as its layer returns.  Maps are (B, H, W, C) and
    vectors (B, C); every kind acts on the channel axis or the two spatial
    axes before it, so ``x`` may have any spatial extent.  Only the outputs
    that a later ``add_skip`` reads are held, and only while the run lasts.
    The run drops its own reference to ``x`` at the start, so an input the
    caller does not keep (``network_forward``'s centered copy) is freed as
    soon as the first layer's output replaces it.  Without caches the run
    thus holds the current layer's input and output, its working arrays,
    and the held outputs; nothing else reads the running output, so
    ``add_skip`` adds into it, unless it is itself held or the add would
    promote its dtype.
    """
    params = net.parameters
    sources = {layer.skip_from for layer in layers if layer.kind == "add_skip"}
    held: dict[int, np.ndarray] = {}
    caches: list[tuple | None] | None = [] if backward else None
    cur = x
    del x  # so the input is freed once the first layer replaces ``cur``
    for idx, layer in enumerate(layers):
        cache = None  # the last layer's, dropped before this one runs
        if layer.kind == "add_skip":
            skip = held[layer.skip_from]
            if backward or idx - 1 in sources or np.result_type(cur, skip) != cur.dtype:
                cur = cur + skip
            else:
                cur += skip
        else:
            kind, names = layer._runnable
            cur, cache = kind.forward(cur, *[params[n] for n in names])
        if idx in sources:
            held[idx] = cur
        if backward:
            caches.append(cache)
    return cur, caches


def _centered(net: Network, x: np.ndarray) -> np.ndarray:
    # center [0,1] inputs so first-layer features are zero-mean
    return np.asarray(x, dtype=net.dtype) - net.dtype.type(0.5)


def _gap_index(desc: ArchDescriptor) -> int:
    for idx, layer in enumerate(desc.layers):
        if layer.kind == "gap":
            return idx
    raise InvalidDescriptorError(f"{desc.name} has no gap layer")


def network_forward(net: Network, x: np.ndarray, backward: bool = True):
    """Run the descriptor on a (B, S, S, 3) batch; returns ((B, K) logits, caches).

    ``backward=False`` is inference: no cache is kept and caches is None
    (see ``_run_layers``); the logits are the same bits either way.
    """
    desc = net.descriptor
    size = desc.input_size
    if x.shape[1:] != (size, size, 3):
        raise ShapeMismatchError(f"expected a (B, {size}, {size}, 3) batch, got {x.shape}")
    return _run_layers(net, _centered(net, x), desc.layers, backward)


def feature_map(net: Network, images: np.ndarray) -> np.ndarray:
    """The (B, H', W', C) maps that ``gap`` would average, for images of any extent.

    Runs the layers before ``gap`` on a (B, H, W, 3) batch.  Each
    ``avgpool2`` halves the extents, which must then be even.
    """
    desc = net.descriptor
    layers = desc.layers[: _gap_index(desc)]
    return _run_layers(net, _centered(net, images), layers)[0]


def head_classify(net: Network, pooled: np.ndarray) -> np.ndarray:
    """Class probabilities for (B, C) ``gap`` outputs: the layers after ``gap``
    then softmax, for all B rows in one call; returns (B, classes)."""
    desc = net.descriptor
    layers = desc.layers[_gap_index(desc) + 1 :]
    logits = _run_layers(net, np.asarray(pooled, dtype=net.dtype), layers)[0]
    return nn.softmax(logits.astype(np.float64))


def feature_stride(desc: ArchDescriptor) -> int | None:
    """Input pixels per ``feature_map`` pixel along each axis.

    None when a layer before ``gap`` mixes neighbouring pixels (conv3x3),
    so windows of one frame cannot share a feature map.
    """
    before_gap = desc.layers[: _gap_index(desc)]
    if not all(_kind(layer).local for layer in before_gap):
        return None
    return 2 ** sum(layer.kind == "avgpool2" for layer in before_gap)


def network_backward(net: Network, caches: list,
                     dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate (B, K) ``dlogits``; returns named grads summed over the batch.

    One gradient walks the layers last to first; an ``add_skip`` parks it for
    its source layer to add once.  Each grad is the array its layer returns.
    Layer 0's input gradient has no reader, so it is not formed: that layer
    computes only its tensors' gradients, and is skipped if it has none.
    """
    grads: dict[str, np.ndarray] = {}
    parked: dict[int, np.ndarray] = {}
    g = dlogits
    for idx in range(len(net.descriptor.layers) - 1, -1, -1):
        layer = net.descriptor.layers[idx]
        if idx in parked:
            g = g + parked.pop(idx)
        if layer.kind == "add_skip":
            j = layer.skip_from
            parked[j] = parked[j] + g if j in parked else g
        else:
            kind, names = layer._runnable
            if idx or names:
                g, *dparams = kind.backward(caches[idx], g, input_grad=idx > 0)
                grads.update(zip(names, dparams))
    return grads


def forward_classify(net: Network, patch: np.ndarray) -> np.ndarray:
    """Class probabilities (sums to 1) for one (S, S, 3) input patch."""
    logits, _ = network_forward(net, np.asarray(patch)[None], backward=False)
    return nn.softmax(logits[0].astype(np.float64))
