"""Architecture descriptors, parameter counting, and runnable toy networks.

Two kinds of descriptors live here: counting-only descriptors for the
full-scale residual backbones (never instantiated; used to audit published
parameter counts) and small runnable descriptors whose parameters are
materialized as named numpy tensors.  The runnable toy networks come in a
conv baseline and a spectral variant that differ in exactly one layer per
residual block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import (
    BadWidthError,
    InvalidDescriptorError,
    ShapeMismatchError,
)
from .wht_layer import WhtLayerParams, wht_layer_backward, wht_layer_forward

TOY_INPUT_SIZES = (32, 64, 224)
TOY_VARIANTS = ("conv-baseline", "wht")
ARCH_NAME_TO_VARIANT = {"toy-conv": "conv-baseline", "toy-wht": "wht"}

# Published reference counts for the full-scale backbones (2-class heads).
# Only the plain residual-50 count is an audit target; the spectral and
# all-spectral variants are compared directionally because the exact layer
# replacement policy behind them is not recoverable.
REFERENCE_PARAM_COUNTS = {
    "resnet50": 23_512_146,
    "wht-resnet50": 20_580_290,
    "htma-resnet50": 11_797_826,
}


@dataclass(frozen=True)
class LayerDescriptor:
    kind: str
    in_channels: int = 0
    out_channels: int = 0
    spatial: int | None = None
    bias: bool = False
    threshold_trainable: bool = False
    skip_from: int | None = None
    name: str = ""


@dataclass(frozen=True)
class ArchDescriptor:
    name: str
    layers: tuple[LayerDescriptor, ...]
    num_classes: int = 2
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


# -- parameter counting -----------------------------------------------------

def _layer_param_count(layer: LayerDescriptor) -> int:
    k = layer.kind
    if k == "conv3x3":
        return 9 * layer.in_channels * layer.out_channels + (
            layer.out_channels if layer.bias else 0
        )
    if k == "conv7x7":
        return 49 * layer.in_channels * layer.out_channels + (
            layer.out_channels if layer.bias else 0
        )
    if k in ("pointwise", "dense"):
        return layer.in_channels * layer.out_channels + (
            layer.out_channels if layer.bias else 0
        )
    if k == "wht":
        n = layer.out_channels
        if layer.in_channels != n or n < 1 or (n & (n - 1)):
            raise InvalidDescriptorError(
                f"wht layer needs equal power-of-two channels, got "
                f"{layer.in_channels}->{layer.out_channels}"
            )
        return n + (1 if layer.threshold_trainable else 0)
    if k == "batchnorm":
        return 2 * layer.out_channels
    if k == "gain":
        return 1
    if k in ("relu", "gap", "add_skip", "avgpool2", "maxpool"):
        return 0
    raise InvalidDescriptorError(f"unknown layer kind {k!r}")


def count_params(arch: ArchDescriptor) -> int:
    """Exact trainable-parameter count for a descriptor."""
    return sum(_layer_param_count(layer) for layer in arch.layers)


def param_table(arch: ArchDescriptor) -> list[tuple[str, str, int]]:
    """(name, kind, count) rows for every parameterized layer."""
    rows = []
    for layer in arch.layers:
        c = _layer_param_count(layer)
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
        LayerDescriptor("conv7x7", 3, 64, spatial=7, name="stem.conv"),
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
                    LayerDescriptor("conv3x3", mid, mid, spatial=3, name=f"{p}.conv")
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
        LayerDescriptor("dense", in_ch, num_classes, bias=True, name="head.fc")
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
        num_classes=num_classes,
        assumptions=assumptions,
    )


def wht_resnet50_descriptor(num_classes: int = 2) -> ArchDescriptor:
    """Preset: replace the 3x3 convolutions of stages 3-4 with spectral layers."""
    return resnet50_descriptor(num_classes, spectral_stages=(3, 4))


# -- runnable toy networks ----------------------------------------------------

def toy_descriptor(variant: str, width: int = 8, input_size: int = 32,
                   threshold_trainable: bool = False) -> ArchDescriptor:
    """Three-residual-block toy net; ``variant`` picks conv3x3 or wht blocks."""
    if variant not in ("conv-baseline", "wht"):
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
                LayerDescriptor("conv3x3", width, width, spatial=3,
                                name=f"block{b}.conv")
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
    layers.append(LayerDescriptor("dense", width, 2, bias=True, name="head"))
    return ArchDescriptor(
        name="toy-wht" if variant == "wht" else "toy-conv",
        layers=tuple(layers),
        num_classes=2,
        input_size=input_size,
        width=width,
    )


def param_shapes(arch: ArchDescriptor) -> dict[str, tuple[int, ...]]:
    """Named tensor shapes, in layer order, for an instantiable descriptor."""
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in arch.layers:
        k = layer.kind
        if k == "pointwise":
            shapes[f"{layer.name}.weight"] = (layer.in_channels, layer.out_channels)
        elif k == "conv3x3":
            shapes[f"{layer.name}.weight"] = (
                3, 3, layer.in_channels, layer.out_channels,
            )
        elif k == "dense":
            shapes[f"{layer.name}.weight"] = (layer.in_channels, layer.out_channels)
            if layer.bias:
                shapes[f"{layer.name}.bias"] = (layer.out_channels,)
        elif k == "wht":
            shapes[f"{layer.name}.scale"] = (layer.out_channels,)
            if layer.threshold_trainable:
                shapes[f"{layer.name}.lambda"] = (1,)
        elif k == "gain":
            shapes[f"{layer.name}"] = (1,)
        elif k in ("relu", "gap", "add_skip", "avgpool2"):
            continue
        else:
            raise InvalidDescriptorError(
                f"layer kind {k!r} cannot be instantiated"
            )
    return shapes


def init_parameters(arch: ArchDescriptor, seed: int,
                    dtype=np.float32) -> dict[str, np.ndarray]:
    """Fan-in-scaled uniform init; spectral scales start at 1 (identity)."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(arch).items():
        if name.endswith(".scale"):
            params[name] = np.ones(shape, dtype=dtype)
        elif name.endswith(".lambda"):
            params[name] = np.zeros(shape, dtype=dtype)
        elif name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=dtype)
        elif len(shape) == 1:  # scalar gain
            params[name] = np.ones(shape, dtype=dtype)
        else:
            fan_in = int(np.prod(shape[:-1]))
            bound = float(np.sqrt(3.0 / fan_in))
            params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return params


def build_toy_net(variant: str, width: int = 8, input_size: int = 32,
                  seed: int = 0, dtype=np.float32,
                  threshold_trainable: bool = False) -> Network:
    """Instantiate a runnable toy network with seeded parameters."""
    desc = toy_descriptor(variant, width, input_size, threshold_trainable)
    return Network(desc, init_parameters(desc, seed, dtype), seed)


# -- execution ----------------------------------------------------------------

def _run_layers(net: Network, x: np.ndarray, layers):
    """The executor: run ``layers`` in order on ``x``.

    Returns (final output, per-layer outputs, per-layer caches).  Every
    layer kind acts on the trailing (channel) axis or on the two spatial
    axes before it, so ``x`` may have any spatial extent.
    """
    params = net.parameters
    cur = x
    outputs: list[np.ndarray] = []
    caches: list[tuple | None] = []
    for layer in layers:
        k = layer.kind
        if k == "pointwise":
            cur, cache = nn.pointwise_forward(cur, params[f"{layer.name}.weight"])
        elif k == "conv3x3":
            cur, cache = nn.conv3x3_forward(cur, params[f"{layer.name}.weight"])
        elif k == "relu":
            cur, cache = nn.relu_forward(cur)
        elif k == "wht":
            lam_arr = params.get(f"{layer.name}.lambda")
            lp = WhtLayerParams(
                params[f"{layer.name}.scale"],
                float(lam_arr[0]) if lam_arr is not None else 0.0,
                layer.threshold_trainable,
            )
            cur, cache = wht_layer_forward(cur, lp)
        elif k == "gain":
            cur, cache = nn.gain_forward(cur, params[layer.name])
        elif k == "add_skip":
            cur = cur + outputs[layer.skip_from]
            cache = None
        elif k == "avgpool2":
            cur, cache = nn.avgpool2_forward(cur)
        elif k == "gap":
            cur, cache = nn.gap_forward(cur)
        elif k == "dense":
            cur, cache = nn.dense_forward(
                cur, params[f"{layer.name}.weight"], params[f"{layer.name}.bias"]
            )
        else:
            raise InvalidDescriptorError(f"layer kind {k!r} cannot be executed")
        outputs.append(cur)
        caches.append(cache)
    return cur, outputs, caches


def _centered(net: Network, x: np.ndarray) -> np.ndarray:
    # center [0,1] inputs so first-layer features are zero-mean
    return np.asarray(x, dtype=net.dtype) - net.dtype.type(0.5)


def _gap_index(desc: ArchDescriptor) -> int:
    for idx, layer in enumerate(desc.layers):
        if layer.kind == "gap":
            return idx
    raise InvalidDescriptorError(f"{desc.name} has no gap layer")


def network_forward(net: Network, x: np.ndarray):
    """Run the descriptor; returns (logits, per-layer outputs, per-layer caches)."""
    desc = net.descriptor
    expected = (desc.input_size, desc.input_size, 3)
    if x.shape != expected:
        raise ShapeMismatchError(f"expected input {expected}, got {x.shape}")
    return _run_layers(net, _centered(net, x), desc.layers)


def feature_map(net: Network, image: np.ndarray) -> np.ndarray:
    """The (H', W', C) map that ``gap`` would average, for an image of any extent.

    Runs the layers before ``gap`` on an (H, W, 3) image.  Each
    ``avgpool2`` halves the extents, which must then be even.
    """
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeMismatchError(f"expected an (H, W, 3) image, got {image.shape}")
    desc = net.descriptor
    layers = desc.layers[: _gap_index(desc)]
    return _run_layers(net, _centered(net, image), layers)[0]


def head_classify(net: Network, pooled: np.ndarray) -> np.ndarray:
    """Class probabilities for (B, C) ``gap`` outputs: the layers after ``gap``
    then softmax, for all B rows in one call; returns (B, num_classes)."""
    desc = net.descriptor
    layers = desc.layers[_gap_index(desc) + 1 :]
    logits = _run_layers(net, np.asarray(pooled, dtype=net.dtype), layers)[0]
    return nn.softmax(logits.astype(np.float64))


# Layer kinds whose output at a pixel depends only on that pixel of their
# input (or, for avgpool2, on its aligned 2x2 cell), so a map computed over
# a whole frame restricts exactly to any suitably aligned window of it.
# conv3x3 is absent: its zero padding at a window's edge differs from the
# frame's neighbouring pixels.
_LOCAL_KINDS = frozenset({"pointwise", "relu", "wht", "gain", "add_skip", "avgpool2"})


def feature_stride(desc: ArchDescriptor) -> int | None:
    """Input pixels per ``feature_map`` pixel along each axis.

    None when a layer before ``gap`` mixes neighbouring pixels (conv3x3),
    so windows of one frame cannot share a feature map.
    """
    before_gap = desc.layers[: _gap_index(desc)]
    if any(layer.kind not in _LOCAL_KINDS for layer in before_gap):
        return None
    return 2 ** sum(layer.kind == "avgpool2" for layer in before_gap)


def network_backward(net: Network, caches: list, outputs: list,
                     dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate through the recorded forward pass; returns named grads."""
    desc = net.descriptor
    grads = {name: np.zeros_like(p) for name, p in net.parameters.items()}
    pending: dict[int, np.ndarray] = {len(desc.layers) - 1: dlogits}
    for idx in range(len(desc.layers) - 1, -1, -1):
        g = pending.pop(idx, None)
        if g is None:
            continue
        layer = desc.layers[idx]
        k = layer.kind
        if k == "pointwise":
            dx, dw = nn.pointwise_backward(caches[idx], g)
            grads[f"{layer.name}.weight"] += dw
        elif k == "conv3x3":
            dx, dw = nn.conv3x3_backward(caches[idx], g)
            grads[f"{layer.name}.weight"] += dw
        elif k == "relu":
            dx = nn.relu_backward(caches[idx], g)
        elif k == "wht":
            dx, dscale, dlam = wht_layer_backward(caches[idx], g)
            grads[f"{layer.name}.scale"] += dscale
            if layer.threshold_trainable:
                grads[f"{layer.name}.lambda"] += np.asarray([dlam], dtype=net.dtype)
        elif k == "gain":
            dx, dg = nn.gain_backward(caches[idx], g)
            grads[layer.name] += dg
        elif k == "add_skip":
            dx = g
            j = layer.skip_from
            pending[j] = pending.get(j, 0) + g
        elif k == "avgpool2":
            dx = nn.avgpool2_backward(caches[idx], g)
        elif k == "gap":
            dx = nn.gap_backward(caches[idx], g)
        elif k == "dense":
            dx, dw, db = nn.dense_backward(caches[idx], g)
            grads[f"{layer.name}.weight"] += dw
            grads[f"{layer.name}.bias"] += db
        else:  # pragma: no cover - guarded in forward
            raise InvalidDescriptorError(k)
        if idx > 0:
            pending[idx - 1] = pending.get(idx - 1, 0) + dx
    return grads


def forward_classify(net: Network, patch: np.ndarray) -> np.ndarray:
    """Class probabilities (sums to 1) for one input patch."""
    logits, _, _ = network_forward(net, patch)
    return nn.softmax(logits.astype(np.float64))
