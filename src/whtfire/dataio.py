"""Bit-exact file formats: P6 pixmaps, CSV manifests, binary checkpoints,
JSON records, and a seeded synthetic smoke/background image generator.

A frame is an (H, W, 3) uint8 array on both sides of a pixmap file:
``ppm_read`` gives one, ``ppm_write`` takes only one, and ``synth_dataset``
turns ``synth_image``'s [0, 1] floats into one.  ``_check_frame`` is the one
test of that form, shared by ``ppm_write`` and ``tiling``.

A checkpoint is the magic ``WHTC``, the version (3) and the header's length
as little-endian u32s, one UTF-8 JSON header object, then each tensor's
little-endian float32 bytes in sorted name order, and nothing after.  The
header holds what ``checkpoint_load`` needs to rebuild and check the
network: the descriptor's name (``arch``, free text), ``input_size`` and
``layers`` (one object of ``LayerDescriptor``'s fields per layer), the init
``seed`` and ``tensors`` (each name's shape), plus whatever metadata the
caller passes.  So every network that ``arch.check_network`` passes is
saved and loaded the same way, and ``checkpoint_save`` refuses the others.
The settings of a run live in its ``run.json``.

A JSON record (``scores.json``, ``run.json``, ``metrics.json``) is compact
``json.dumps`` text and a newline; ``_write_json`` says why.

Every writer is deterministic and stamps no time: same inputs, same bytes.
All of them write through ``_write_file``, which writes over the bytes a
path already holds instead of truncating it first: ``detect`` rewrites the
same overlay and ``scores.json`` every frame, and emptying a file of
megabytes before refilling it can cost more than the write.  A regular
file is then cut to the new length if it was longer.  A write that fails
part-way leaves only the bytes it wrote, never the new bytes followed by
the tail of the old file, so a failed overlay reads as truncated.  A new
file gets the mode bits ``open(path, "wb")`` would give it.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .arch import (ArchDescriptor, LayerDescriptor, Network, check_network, check_tensors,
                   param_specs)
from .errors import (
    ArchMismatchError,
    BadMagicError,
    BadMetadataError,
    CorruptFileError,
    ManifestError,
    ShapeMismatchError,
    TruncatedFileError,
    UnsupportedMaxvalError,
    VersionMismatchError,
)
from .nn import _check_field_types

CHECKPOINT_MAGIC = b"WHTC"
CHECKPOINT_VERSION = 3
_LAYER_KEYS = frozenset(field.name for field in fields(LayerDescriptor))


# -- P6 pixmap codec ----------------------------------------------------------

# whitespace and comments (``#`` to the end of the line), then a header number;
# it always matches, so an empty number marks the end of the file or a bad byte
_HEADER_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\d*)")


def ppm_read(path) -> np.ndarray:
    """Read a binary P6 pixmap (maxval 255) as its (H, W, 3) uint8 bytes.

    The array is a read-only view of the file's payload, not a copy:
    callers scale it to floats (``u / 255.0``) on the arrays they need,
    and ``tiling.render_overlay`` draws on a copy of it.
    """
    raw = Path(path).read_bytes()
    if raw[:2] != b"P6":
        raise BadMagicError(f"{path}: expected P6 magic, got {raw[:2]!r}")
    if raw[2:3] not in (b"", b"#") and not raw[2:3].isspace():  # a comment is whitespace
        raise BadMagicError(f"{path}: no whitespace after P6 magic, got {raw[2:3]!r}")
    pos = 2
    fields = []
    for _ in range(3):
        match = _HEADER_FIELD.match(raw, pos)
        pos, digits = match.end(), match[1]
        if not digits:
            if pos == len(raw):
                raise TruncatedFileError(f"{path}: header ended early")
            raise BadMagicError(f"{path}: unexpected header byte {raw[pos : pos + 1]!r}")
        try:
            fields.append(int(digits))
        except ValueError as exc:  # more digits than int() converts
            raise CorruptFileError(f"{path}: header number: {exc}") from None
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
    _write_file(path, b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]),
                np.ascontiguousarray(arr))


def _write_file(path, *chunks) -> None:
    """Write the byte buffers ``chunks``, in order, over the file at ``path``.

    The file is opened without truncation.  A regular file that held more
    bytes than were written is then cut to those written, also when a
    write raises part-way.  Other files (``os.devnull``, a pipe) are never
    cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        old = os.fstat(fd)
        written = 0
        try:
            for chunk in chunks:
                view = memoryview(chunk).cast("B")
                while view:
                    n = os.write(fd, view)
                    written += n
                    view = view[n:]
        finally:  # no tail of the old bytes may follow the new ones
            if stat.S_ISREG(old.st_mode) and old.st_size > written:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _write_json(payload, path) -> None:
    """Strict, compact JSON: ``json.dumps(payload, allow_nan=False)`` and a
    newline, so a NaN or an infinity raises ``ValueError`` before the file
    is opened instead of writing NaN.

    Compact because any ``indent`` runs ``json``'s pure-Python encoder: a
    1080p frame's 32 x 59 block-32 score grid took 0.59-0.61 ms and ~18.9 kB
    compact, against 1.4-1.6 ms and ~30.5 kB with ``indent=2`` (2-vCPU
    host, median of 9 x 50 calls).
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _write_file(path, (json.dumps(payload, allow_nan=False) + "\n").encode())


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
    """Write the rows as UTF-8, the encoding ``load_manifest`` reads, whatever the locale."""
    lines = [f"{rel},{label}" for rel, label in manifest.entries]
    _write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


# -- synthetic data ----------------------------------------------------------

@dataclass
class SynthConfig:
    seed: int = 0
    count_per_class: int = 20
    resolution: int = 32
    smoke_contrast: float = 0.8

    def __post_init__(self):
        _check_field_types(self, ("seed", "count_per_class", "resolution"), ("smoke_contrast",))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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

def _header(net: Network, metadata: dict[str, str]) -> dict:
    """The header object of ``net``'s checkpoint: ``metadata``, then the five
    keys ``checkpoint_load`` reads, which no metadata key overrides."""
    desc = net.descriptor
    layers = [{key: getattr(layer, key) for key in _LAYER_KEYS} for layer in desc.layers]
    return {**metadata, "arch": desc.name, "input_size": desc.input_size, "layers": layers,
            "seed": net.seed,
            "tensors": {name: list(t.shape) for name, t in net.parameters.items()}}


def checkpoint_save(net: Network, metadata: dict[str, str], path) -> None:
    """Write ``net`` as a version-3 checkpoint (see the module docstring).

    A network that ``arch.check_network`` refuses, and so ``checkpoint_load``
    would refuse, raises before the file is opened, and so does metadata
    that JSON cannot hold (``BadMetadataError``).
    """
    check_network(net)
    try:
        header = json.dumps(_header(net, metadata), sort_keys=True,
                            separators=(",", ":"), allow_nan=False).encode()
    except (TypeError, ValueError) as exc:
        raise BadMetadataError(f"checkpoint metadata JSON cannot hold: {exc}") from exc
    parts = [CHECKPOINT_MAGIC, struct.pack("<2I", CHECKPOINT_VERSION, len(header)), header]
    parts += (np.ascontiguousarray(net.parameters[name], dtype="<f4")
              for name in sorted(net.parameters))
    _write_file(path, b"".join(parts))


def _no_repeated_keys(pairs: list) -> dict:
    row = dict(pairs)
    if len(row) != len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"the key {next(k for k in keys if keys.count(k) > 1)!r} repeats")
    return row


def _field(header: dict, key: str, kind: type):
    """``header[key]``, which must be of exactly the type ``kind`` (a bool is not an int)."""
    value = header.get(key)
    if type(value) is not kind:
        raise ArchMismatchError(
            f"checkpoint header {key!r} is {value!r:.40}, not of type {kind.__name__}"
        )
    return value


def checkpoint_load(path) -> Network:
    """Restore the network a checkpoint holds.

    Checks the magic and the version, that the header is UTF-8 JSON that
    repeats no key at any level, and that its ``arch``, ``input_size``,
    ``seed``, ``layers`` and ``tensors`` have their JSON types.  Checks that
    the payload holds exactly the bytes ``tensors`` declares.  Rebuilds the
    descriptor and refuses it, or the tensor names and shapes, as
    ``arch.check_tensors`` does.  Then checks that the values are finite and
    λ >= 0.
    """
    raw = Path(path).read_bytes()

    def need(size: int) -> None:
        if len(raw) < size:
            raise TruncatedFileError(f"{path}: ran out of bytes ({len(raw)} of {size})")

    need(4)
    if raw[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint file")
    need(8)
    version = struct.unpack_from("<I", raw, 4)[0]
    if version != CHECKPOINT_VERSION:
        raise VersionMismatchError(f"{path}: version {version}, expected {CHECKPOINT_VERSION}")
    need(12)
    at = 12 + struct.unpack_from("<I", raw, 8)[0]  # the payload's first byte
    need(at)
    try:
        header = json.loads(raw[12:at].decode(), object_pairs_hook=_no_repeated_keys)
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"{path}: undecodable text at byte {12 + exc.start}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise CorruptFileError(f"{path}: the header does not parse: {exc}") from None
    if type(header) is not dict:
        raise CorruptFileError(f"{path}: the header is not a JSON object")
    rows = header.get("layers")
    if type(rows) is not list or not all(
            type(row) is dict and row.keys() == _LAYER_KEYS for row in rows):
        raise ArchMismatchError(
            f"checkpoint header 'layers' is not a list of objects with the keys "
            f"{sorted(_LAYER_KEYS)}"
        )
    desc = ArchDescriptor(_field(header, "arch", str),
                          tuple(LayerDescriptor(**row) for row in rows),
                          _field(header, "input_size", int))
    seed = _field(header, "seed", int)
    shapes = _field(header, "tensors", dict)
    offsets = {}  # each tensor's first byte; the payload holds them in sorted name order
    for name in sorted(shapes):
        dims = shapes[name]
        if type(dims) is not list or not all(type(d) is int and d >= 0 for d in dims):
            raise ArchMismatchError(
                f"checkpoint header 'tensors' gives {name} the shape {dims!r:.40}")
        offsets[name] = at
        at += 4 * math.prod(dims)  # a Python int: a huge shape cannot wrap to 0
    need(at)
    if len(raw) > at:
        raise CorruptFileError(f"{path}: {len(raw) - at} bytes follow the last tensor")
    check_tensors(desc, shapes, str(path))
    params: dict[str, np.ndarray] = {}
    for name, spec in param_specs(desc).items():
        t = np.frombuffer(raw, "<f4", math.prod(spec.shape), offsets[name])
        t = t.reshape(spec.shape).astype(np.float32)  # after the check: numpy caps the rank
        # training writes only finite values and keeps thresholds, the only
        # bounded tensors, at or above their bound of 0
        if not np.all(np.isfinite(t)):
            raise CorruptFileError(f"{path}: tensor {name} holds a non-finite value")
        if spec.lower is not None and np.any(t < spec.lower):
            raise CorruptFileError(f"{path}: threshold {name} is negative")
        params[name] = t
    return Network(desc, params, seed=seed)
