"""Architecture descriptors, parameter counting, and runnable toy networks.

Two kinds of descriptors live here: counting-only descriptors for the
full-scale residual backbones (never instantiated; used to audit published
parameter counts) and small runnable descriptors whose parameters are
materialized as named numpy tensors.  The runnable toy networks come in a
conv baseline and a spectral variant that differ in exactly one layer per
residual block.
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

# Published reference counts for the full-scale backbones (2-class heads).
# Only the plain residual-50 count is an audit target; the spectral variant
# is compared directionally: its exact layer replacement policy is not recoverable.
REFERENCE_PARAM_COUNTS = {
    "resnet50": 23_512_146,
    "wht-resnet50-preset": 20_580_290,
}


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
        """This layer's kind and tensor names, if it can run; kept on the layer."""
        kind = _kind(self)
        if kind.forward is None and self.kind != "add_skip":
            raise InvalidDescriptorError(f"layer kind {self.kind!r} cannot be instantiated")
        return kind, tuple(self.name + spec.suffix for spec in kind.params(self))


@dataclass(frozen=True)
class ArchDescriptor:
    name: str
    layers: tuple[LayerDescriptor, ...]
    input_size: int | None = None
    width: int | None = None
    assumptions: tuple[str, ...] = ()


@dataclass
class Network:
    descriptor: ArchDescriptor
    parameters: dict[str, np.ndarray]
    seed: int

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
    ``backward(cache, dy)`` returns ``(dx, *tensor grads)``: the cache holds
    whatever of the tensors the gradients need.
    Kinds without passes are counted only (``add_skip`` is wiring in the
    executor).  A ``local`` kind computes each output pixel from its own
    input pixel (avgpool2: its aligned 2x2 cell), so a map of a whole frame
    restricts exactly to aligned windows.
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

    def backward(cache, dy):
        out = getattr(module, backward_name)(cache, dy)
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
    "conv7x7": _Kind(_affine(7, 7)),
    "batchnorm": _Kind(lambda layer: (ParamSpec(".gamma", (layer.out_channels,), 1.0),
                                      ParamSpec(".beta", (layer.out_channels,), 0.0))),
    "maxpool": _Kind(),
}


def _kind(layer: LayerDescriptor) -> _Kind:
    kind = _KINDS.get(layer.kind)
    if kind is None:
        raise InvalidDescriptorError(f"unknown layer kind {layer.kind!r}")
    return kind


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


# -- counting descriptors for the full-scale backbones ------------------------

_RESNET50_ASSUMPTIONS = (
    "bottleneck blocks [1x1, 3x3, 1x1] with expansion 4",
    "stage depths [3, 4, 6, 3], widths [64, 128, 256, 512]",
    "7x7 stem conv (3->64), bias-free convolutions throughout",
    "batchnorm affine pairs (2 per channel) counted after every conv",
    "1x1 projection shortcut on the first block of each stage",
    "head: global average pool + dense 2048 -> num_classes with bias",
)


def resnet50_descriptor(num_classes: int = 2,
                        spectral_stages: tuple[int, ...] = ()) -> ArchDescriptor:
    """Counting descriptor for the 50-layer bottleneck residual network.

    ``spectral_stages`` lists 1-based stage indices whose 3x3 convolutions
    are replaced by channel-axis spectral layers of equal width.
    """
    layers = [
        LayerDescriptor("conv7x7", 3, 64, name="stem.conv"),
        LayerDescriptor("batchnorm", 64, 64, name="stem.bn"),
        LayerDescriptor("maxpool", 64, 64, name="stem.pool"),
    ]
    in_ch = 64
    for stage, (depth, mid) in enumerate(
        zip((3, 4, 6, 3), (64, 128, 256, 512)), start=1
    ):
        out_ch = 4 * mid
        for block in range(depth):
            p = f"stage{stage}.block{block}"
            layers.append(LayerDescriptor("pointwise", in_ch, mid, name=f"{p}.reduce"))
            layers.append(LayerDescriptor("batchnorm", mid, mid, name=f"{p}.bn1"))
            if stage in spectral_stages:
                layers.append(
                    LayerDescriptor("wht", mid, mid, name=f"{p}.wht")
                )
            else:
                layers.append(
                    LayerDescriptor("conv3x3", mid, mid, name=f"{p}.conv")
                )
            layers.append(LayerDescriptor("batchnorm", mid, mid, name=f"{p}.bn2"))
            layers.append(LayerDescriptor("pointwise", mid, out_ch, name=f"{p}.expand"))
            layers.append(LayerDescriptor("batchnorm", out_ch, out_ch, name=f"{p}.bn3"))
            if block == 0:
                layers.append(
                    LayerDescriptor("pointwise", in_ch, out_ch, name=f"{p}.shortcut")
                )
                layers.append(
                    LayerDescriptor("batchnorm", out_ch, out_ch, name=f"{p}.bn_sc")
                )
            in_ch = out_ch
    layers.append(LayerDescriptor("gap", in_ch, in_ch, name="head.gap"))
    layers.append(
        LayerDescriptor("dense", in_ch, num_classes, name="head.fc")
    )
    if spectral_stages:
        name = "wht-resnet50-preset"
        assumptions = _RESNET50_ASSUMPTIONS + (
            f"3x3 convolutions replaced by spectral layers in stages "
            f"{sorted(spectral_stages)}",
        )
    else:
        name = "resnet50"
        assumptions = _RESNET50_ASSUMPTIONS
    return ArchDescriptor(
        name=name,
        layers=tuple(layers),
        assumptions=assumptions,
    )


def wht_resnet50_descriptor(num_classes: int = 2) -> ArchDescriptor:
    """Preset: replace the 3x3 convolutions of stages 3-4 with spectral layers."""
    return resnet50_descriptor(num_classes, spectral_stages=(3, 4))


# -- runnable toy networks ----------------------------------------------------

def toy_descriptor(variant: str, width: int = 8, input_size: int = 32,
                   threshold_trainable: bool = False) -> ArchDescriptor:
    """Three-residual-block toy net; ``variant`` picks conv3x3 or wht blocks."""
    if variant not in TOY_VARIANTS:
        raise InvalidDescriptorError(f"unknown variant {variant!r}")
    if width < 8 or (width & (width - 1)):
        raise BadWidthError(f"width must be a power of two >= 8, got {width}")
    if input_size not in TOY_INPUT_SIZES:
        raise InvalidDescriptorError(
            f"input_size must be one of {TOY_INPUT_SIZES}, got {input_size}"
        )
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
    return ArchDescriptor(
        name=_VARIANT_TO_ARCH_NAME[variant],
        layers=tuple(layers),
        input_size=input_size,
        width=width,
    )


def param_specs(arch: ArchDescriptor) -> dict[str, ParamSpec]:
    """Each named tensor's spec, in layer order, for an instantiable descriptor."""
    specs: dict[str, ParamSpec] = {}
    for layer in arch.layers:
        kind, names = layer._runnable  # rejects counting-only kinds
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
            g, *dparams = kind.backward(caches[idx], g)
            grads.update(zip(names, dparams))
    return grads


def forward_classify(net: Network, patch: np.ndarray) -> np.ndarray:
    """Class probabilities (sums to 1) for one (S, S, 3) input patch."""
    logits, _ = network_forward(net, np.asarray(patch)[None], backward=False)
    return nn.softmax(logits[0].astype(np.float64))
