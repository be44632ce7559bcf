"""Bit-exact file formats: P6 pixmaps, CSV manifests, binary checkpoints,
JSON records, and a seeded synthetic smoke/background image generator.

A frame is an (H, W, 3) uint8 array on both sides of a pixmap file:
``ppm_read`` gives one, ``ppm_write`` takes only one, and ``synth_dataset``
turns ``synth_image``'s [0, 1] floats into one.  ``_check_frame`` is the one
test of that form, shared by ``ppm_write`` and ``tiling``.

A checkpoint holds what ``checkpoint_load`` needs to rebuild and check the
network: its descriptor keys, its init seed and its tensors, plus whatever
metadata the caller passes.  The settings of a run live in its ``run.json``.

Every writer is deterministic and stamps no time: same inputs, same bytes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arch import (
    ARCH_NAME_TO_VARIANT,
    ArchDescriptor,
    Network,
    param_specs,
    toy_descriptor,
)
from .errors import (
    ArchMismatchError,
    BadMagicError,
    CorruptFileError,
    ManifestError,
    ShapeMismatchError,
    TensorShapeMismatchError,
    TruncatedFileError,
    UnsupportedMaxvalError,
    VersionMismatchError,
)

CHECKPOINT_MAGIC = b"WHTC"
CHECKPOINT_VERSION = 1


# -- P6 pixmap codec ----------------------------------------------------------

def ppm_read(path) -> np.ndarray:
    """Read a binary P6 pixmap (maxval 255) as its (H, W, 3) uint8 bytes.

    The array is a read-only view of the file's payload, not a copy:
    callers scale it to floats (``u / 255.0``) on the arrays they need,
    and ``tiling.render_overlay`` draws on a copy of it.
    """
    raw = Path(path).read_bytes()
    if raw[:2] != b"P6":
        raise BadMagicError(f"{path}: expected P6 magic, got {raw[:2]!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(raw):
            raise TruncatedFileError(f"{path}: header ended early")
        ch = raw[pos : pos + 1]
        if ch == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(raw) and raw[pos : pos + 1].isdigit():
                pos += 1
            try:
                fields.append(int(raw[start:pos]))
            except ValueError as exc:  # more digits than int() converts
                raise CorruptFileError(f"{path}: header number: {exc}") from None
        else:
            raise BadMagicError(f"{path}: unexpected header byte {ch!r}")
    width, height, maxval = fields
    sep = raw[pos : pos + 1]
    if sep and not sep.isspace():
        raise BadMagicError(f"{path}: unexpected header byte {sep!r} after maxval")
    if maxval != 255:
        raise UnsupportedMaxvalError(f"{path}: maxval {maxval} unsupported")
    if width == 0 or height == 0:
        raise CorruptFileError(f"{path}: a {width}x{height} pixmap has no pixels")
    pos += 1  # single whitespace byte after maxval
    need = width * height * 3
    found = max(len(raw) - pos, 0)
    if found < need:
        raise TruncatedFileError(f"{path}: expected {need} pixel bytes, found {found}")
    # frombuffer with an offset views the payload; slicing ``raw`` would copy it
    return np.frombuffer(raw, np.uint8, count=need, offset=pos).reshape(height, width, 3)


def _check_frame(image: np.ndarray) -> None:
    if image.dtype != np.uint8 or image.ndim != 3 or image.shape[2] != 3:
        raise ShapeMismatchError(
            f"expected an (H, W, 3) uint8 frame, got {image.dtype} {image.shape}"
        )


def ppm_write(image: np.ndarray, path) -> None:
    """Write an (H, W, 3) uint8 frame as binary P6 with maxval 255."""
    arr = np.asarray(image)
    _check_frame(arr)
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        f.write(np.ascontiguousarray(arr))


def _write_json(payload, path) -> None:
    """Strict, indented JSON: a non-finite number raises instead of writing NaN."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


# -- dataset manifests ----------------------------------------------------------

@dataclass
class Manifest:
    """(relative path, label) rows with labels 0 = background, 1 = smoke."""

    entries: list[tuple[str, int]]
    root: Path

    def paths(self):
        return [self.root / p for p, _ in self.entries]

    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.entries], dtype=np.int64)

    def __len__(self):
        return len(self.entries)


def load_manifest(path) -> Manifest:
    path = Path(path)
    entries: list[tuple[str, int]] = []
    seen: set[str] = set()
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(",")
        if len(parts) != 2:
            raise ManifestError(f"{path}:{lineno}: expected 'path,label'")
        rel, label_text = parts[0].strip(), parts[1].strip()
        if label_text not in ("0", "1"):
            raise ManifestError(
                f"{path}:{lineno}: label must be 0 or 1, got {label_text!r}"
            )
        if "\0" in rel:  # open() refuses such a path with a plain ValueError
            raise ManifestError(f"{path}:{lineno}: NUL byte in path {rel!r}")
        if rel in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate path {rel!r}")
        seen.add(rel)
        entries.append((rel, int(label_text)))
    return Manifest(entries, path.parent)


def save_manifest(manifest: Manifest, path) -> None:
    lines = [f"{rel},{label}" for rel, label in manifest.entries]
    Path(path).write_text("\n".join(lines) + "\n")


# -- synthetic data ----------------------------------------------------------

@dataclass
class SynthConfig:
    seed: int = 0
    count_per_class: int = 20
    resolution: int = 32
    smoke_contrast: float = 0.8

    def __post_init__(self):
        if self.count_per_class < 1:
            raise ValueError("count_per_class must be >= 1")
        if not 0.0 <= self.smoke_contrast <= 1.0:
            raise ValueError("smoke_contrast must be in [0, 1]")
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8")


def _bilinear_upsample(coarse: np.ndarray, size: int) -> np.ndarray:
    gh, gw = coarse.shape[:2]
    ys = np.linspace(0.0, gh - 1.0, size)
    xs = np.linspace(0.0, gw - 1.0, size)
    y0 = np.minimum(ys.astype(int), gh - 2)
    x0 = np.minimum(xs.astype(int), gw - 2)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    tl = coarse[y0][:, x0]
    tr = coarse[y0][:, x0 + 1]
    bl = coarse[y0 + 1][:, x0]
    br = coarse[y0 + 1][:, x0 + 1]
    return (
        tl * (1 - wy) * (1 - wx)
        + tr * (1 - wy) * wx
        + bl * wy * (1 - wx)
        + br * wy * wx
    )


def synth_image(config: SynthConfig, index: int, label: int) -> np.ndarray:
    """One deterministic sample: textured ground, optional smoke blobs."""
    rng = np.random.default_rng([config.seed, index, label])
    res = config.resolution
    base = np.array([
        0.30 + rng.uniform(-0.08, 0.08),
        0.34 + rng.uniform(-0.08, 0.08),
        0.22 + rng.uniform(-0.06, 0.06),
    ])
    coarse = rng.uniform(-0.12, 0.12, size=(res // 8 + 2, res // 8 + 2, 3))
    img = base + _bilinear_upsample(coarse, res)
    img += rng.normal(0.0, 0.02, size=(res, res, 3))
    img *= rng.uniform(0.75, 1.05)  # global illumination jitter
    if label == 1:
        yy, xx = np.mgrid[0:res, 0:res]
        n_blobs = int(rng.integers(1, 4))
        for _ in range(n_blobs):
            cy = rng.uniform(0.2, 0.8) * res
            cx = rng.uniform(0.2, 0.8) * res
            sigma = rng.uniform(res / 10.0, res / 5.0)
            amp = config.smoke_contrast * rng.uniform(0.6, 1.0)
            blob = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2))
            # blend towards light smoke grey
            img += blob[:, :, None] * (np.array([0.88, 0.88, 0.90]) - img)
    return np.clip(img, 0.0, 1.0)


def synth_dataset(config: SynthConfig, out_dir) -> Manifest:
    """Write ``count_per_class`` pixmaps per class plus ``manifest.csv``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries: list[tuple[str, int]] = []
    for label, prefix in ((0, "bg"), (1, "smoke")):
        for i in range(config.count_per_class):
            rel = f"{prefix}_{i:04d}.ppm"
            unit = synth_image(config, i, label)  # already clipped to [0, 1]
            ppm_write(np.rint(unit * 255.0).astype(np.uint8), out_dir / rel)
            entries.append((rel, label))
    manifest = Manifest(entries, out_dir)
    save_manifest(manifest, out_dir / "manifest.csv")
    return manifest


# -- checkpoints ----------------------------------------------------------------

def _descriptor_metadata(desc: ArchDescriptor) -> dict[str, str]:
    return {
        "arch": desc.name,
        "width": str(desc.width),
        "input_size": str(desc.input_size),
        "threshold_trainable": str(
            int(any(l.kind == "wht" and l.threshold_trainable for l in desc.layers))
        ),
    }


def checkpoint_save(net: Network, metadata: dict[str, str], path) -> None:
    """Serialize named float32 tensors plus string metadata; sorted, stable."""
    meta = dict(metadata)
    meta.update(_descriptor_metadata(net.descriptor))
    meta.setdefault("seed", str(net.seed))
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    parts.append(struct.pack("<I", len(meta)))
    for key in sorted(meta):
        kb = key.encode(), str(meta[key]).encode()
        parts.append(struct.pack("<I", len(kb[0])))
        parts.append(kb[0])
        parts.append(struct.pack("<I", len(kb[1])))
        parts.append(kb[1])
    tensors = net.parameters
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        t = np.ascontiguousarray(tensors[name], dtype=np.float32)
        nb = name.encode()
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<I", t.ndim))
        parts.append(struct.pack(f"<{t.ndim}I", *t.shape))
        parts.append(t.tobytes())
    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, raw: bytes, label: str):
        self.raw = raw
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise TruncatedFileError(f"{self.label}: ran out of bytes")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        """A u32-length-prefixed UTF-8 string."""
        raw = self.take(self.u32())
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise CorruptFileError(
                f"{self.label}: undecodable text at byte {self.pos - len(raw)}"
            ) from exc


def _meta_int(meta: dict[str, str], key: str, default: str | None = None) -> int:
    value = meta.get(key, default)
    if value is None:
        raise ArchMismatchError(f"checkpoint metadata lacks {key!r}")
    try:
        return int(value)
    except ValueError:
        raise ArchMismatchError(
            f"checkpoint metadata {key!r} is {value!r}, not an integer"
        ) from None


def _rebuild_descriptor(meta: dict[str, str]) -> ArchDescriptor:
    name = meta.get("arch", "")
    variant = ARCH_NAME_TO_VARIANT.get(name)
    if variant is None:
        raise ArchMismatchError(f"unknown architecture {name!r} in checkpoint")
    return toy_descriptor(
        variant,
        width=_meta_int(meta, "width"),
        input_size=_meta_int(meta, "input_size"),
        threshold_trainable=bool(_meta_int(meta, "threshold_trainable", "0")),
    )


def checkpoint_load(path) -> Network:
    """Restore the network a checkpoint holds.

    Checks the magic, the version, the tensor names and shapes of the
    architecture its metadata names, and that values are finite and λ >= 0.
    """
    rd = _Reader(Path(path).read_bytes(), str(path))
    if rd.take(4) != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint file")
    version = rd.u32()
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(
            f"{path}: version {version}, expected {CHECKPOINT_VERSION}"
        )
    meta: dict[str, str] = {}
    for _ in range(rd.u32()):
        key = rd.text()
        meta[key] = rd.text()
    tensors: dict[str, tuple[tuple[int, ...], np.ndarray]] = {}  # (shape, flat values)
    for _ in range(rd.u32()):
        name = rd.text()
        rank = rd.u32()
        shape = struct.unpack(f"<{rank}I", rd.take(4 * rank))
        count = math.prod(shape)  # a Python int: a huge shape cannot wrap to 0
        tensors[name] = shape, np.frombuffer(rd.take(4 * count), dtype="<f4")
    desc = _rebuild_descriptor(meta)
    specs = param_specs(desc)
    if set(specs) != set(tensors):
        missing = sorted(set(specs) - set(tensors))
        extra = sorted(set(tensors) - set(specs))
        raise ArchMismatchError(
            f"{path}: tensor names disagree with architecture "
            f"(missing {missing}, extra {extra})"
        )
    params: dict[str, np.ndarray] = {}
    for name, spec in specs.items():
        shape, values = tensors[name]
        if shape != spec.shape:
            raise TensorShapeMismatchError(
                f"{path}: tensor {name} has shape {shape}, expected {spec.shape}"
            )
        t = values.reshape(shape).astype(np.float32)  # after the check: numpy caps the rank
        # training writes only finite values and keeps thresholds, the only
        # bounded tensors, at or above their bound of 0
        if not np.all(np.isfinite(t)):
            raise CorruptFileError(f"{path}: tensor {name} holds a non-finite value")
        if spec.lower is not None and np.any(t < spec.lower):
            raise CorruptFileError(f"{path}: threshold {name} is negative")
        params[name] = t
    return Network(desc, params, seed=_meta_int(meta, "seed", "0"))
