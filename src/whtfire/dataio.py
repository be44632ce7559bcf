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
caller passes.  So every descriptor that ``arch.check_descriptor`` passes is
saved and loaded the same way, and ``checkpoint_save`` refuses the others.
The settings of a run live in its ``run.json``.

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
import stat
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .arch import ArchDescriptor, LayerDescriptor, Network, check_descriptor, param_specs
from .errors import (
    ArchMismatchError,
    BadMagicError,
    BadMetadataError,
    CorruptFileError,
    ManifestError,
    ShapeMismatchError,
    TensorShapeMismatchError,
    TruncatedFileError,
    UnsupportedMaxvalError,
    VersionMismatchError,
)

CHECKPOINT_MAGIC = b"WHTC"
CHECKPOINT_VERSION = 3
_LAYER_KEYS = frozenset(field.name for field in fields(LayerDescriptor))


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
    """Strict, indented JSON: the bytes of ``json.dumps(payload, indent=2,
    allow_nan=False)`` and a newline, so a non-finite number raises instead
    of writing NaN.

    Any ``indent`` runs ``json``'s pure-Python encoder value by value.  So
    ``_json_text`` writes objects with string keys and lists of float lists
    (score grids) itself, joining ``float.__repr__`` of each value, as
    ``json`` does, with the same separators, and hands every other value to
    ``json.dumps``.  A 1080p frame's 32 x 59 block-32 grid took 0.8-0.9 ms
    this way against 1.4-1.8 ms through ``json.dumps`` (2-vCPU host, best
    of 9 x 50 calls, three rounds).
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _write_file(path, (_json_text(payload) + "\n").encode())


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)`` for a value nested
    at ``indent``."""
    inner = indent + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = (f"{inner}{json.dumps(key)}: {_json_text(v, inner)}" for key, v in value.items())
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    # a row holding a NaN or an infinity, or summing past the largest float,
    # is left to json, which refuses the one and writes the other
    if type(value) is list and value and all(
            type(row) is list and row and all(type(v) is float for v in row)
            and math.isfinite(sum(row)) for row in value):
        cell = "\n" + inner + "  "
        rows = (f"{inner}[{cell}{(',' + cell).join(map(float.__repr__, row))}\n{inner}]"
                for row in value)
        return "[\n" + ",\n".join(rows) + "\n" + indent + "]"
    # JSON strings hold no raw newline, so every newline starts a line to indent
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + indent)


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

    A descriptor that ``arch.check_descriptor`` refuses, and so
    ``checkpoint_load`` would refuse, raises before the file is opened, and
    so does metadata that JSON cannot hold (``BadMetadataError``).
    """
    check_descriptor(net.descriptor)
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
    descriptor and refuses one that ``arch.check_descriptor`` refuses.  Then
    checks the tensor names and shapes against the descriptor, and that the
    values are finite and λ >= 0.
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
    check_descriptor(desc)
    specs = param_specs(desc)
    if specs.keys() != shapes.keys():
        missing = sorted(specs.keys() - shapes.keys())
        extra = sorted(shapes.keys() - specs.keys())
        raise ArchMismatchError(
            f"{path}: tensor names disagree with architecture "
            f"(missing {missing}, extra {extra})"
        )
    params: dict[str, np.ndarray] = {}
    for name, spec in specs.items():
        shape = tuple(shapes[name])
        if shape != spec.shape:
            raise TensorShapeMismatchError(
                f"{path}: tensor {name} has shape {shape}, expected {spec.shape}"
            )
        t = np.frombuffer(raw, "<f4", math.prod(shape), offsets[name])
        t = t.reshape(shape).astype(np.float32)  # after the check: numpy caps the rank
        # training writes only finite values and keeps thresholds, the only
        # bounded tensors, at or above their bound of 0
        if not np.all(np.isfinite(t)):
            raise CorruptFileError(f"{path}: tensor {name} holds a non-finite value")
        if spec.lower is not None and np.any(t < spec.lower):
            raise CorruptFileError(f"{path}: threshold {name} is negative")
        params[name] = t
    return Network(desc, params, seed=seed)
