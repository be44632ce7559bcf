"""Seeded input generators owned by the benchmark.

Every input the library receives (pixmaps, manifests, arrays) is made
here from the workload seed alone, with plain numpy, so a change to the
library's own synthetic-data code cannot change what is measured.  The
same seed always yields byte-identical files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Independent random streams per purpose, so adding one input kind never
# shifts the values of another.
STREAM_TRAIN = 1
STREAM_EVAL = 2
STREAM_FRAME = 3
STREAM_TRANSFORM = 4

SMOKE_GREY = np.array([0.88, 0.88, 0.90])
FRAME_STRIP_ROWS = 120


def write_p6(pixels: np.ndarray, path: Path) -> None:
    """Write (H, W, 3) uint8 pixels as a binary P6 pixmap."""
    h, w, _ = pixels.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def read_p6(path: Path) -> np.ndarray:
    """Read a P6 pixmap written by ``write_p6`` or the library (no comments)."""
    raw = Path(path).read_bytes()
    magic, dims, maxval, rest = raw.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: not a maxval-255 P6 pixmap")
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(rest, dtype=np.uint8, count=h * w * 3).reshape(h, w, 3)


def _bilinear(coarse: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample a coarse (gh, gw, 3) grid at fractional cell coordinates."""
    x0 = np.minimum(xs.astype(int), coarse.shape[1] - 2)
    wx = (xs - x0)[None, :, None]
    along_x = coarse[:, x0] * (1 - wx) + coarse[:, x0 + 1] * wx
    y0 = np.minimum(ys.astype(int), coarse.shape[0] - 2)
    wy = (ys - y0)[:, None, None]
    return along_x[y0] * (1 - wy) + along_x[y0 + 1] * wy


def _add_smoke(img: np.ndarray, row0: int, blobs) -> None:
    """Blend gaussian smoke blobs (cy, cx, sigma, amp) into rows from ``row0``."""
    h, w = img.shape[:2]
    yy = np.arange(row0, row0 + h, dtype=np.float64)
    xx = np.arange(w, dtype=np.float64)
    for cy, cx, sigma, amp in blobs:
        gy = np.exp(-((yy - cy) ** 2) / (2 * sigma**2))
        gx = np.exp(-((xx - cx) ** 2) / (2 * sigma**2))
        alpha = amp * np.outer(gy, gx)
        img += alpha[:, :, None] * (SMOKE_GREY - img)


def _to_u8(img: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def patch(seed: int, stream: int, index: int, label: int, size: int) -> np.ndarray:
    """One size x size training/evaluation patch; label 1 carries smoke."""
    rng = np.random.default_rng([seed, stream, index, label])
    base = np.array([0.30, 0.34, 0.22]) + rng.uniform(-0.08, 0.08, 3)
    cells = size // 8 + 2
    coarse = rng.uniform(-0.12, 0.12, size=(cells, cells, 3))
    coords = np.linspace(0.0, cells - 1.0, size)
    img = base + _bilinear(coarse, coords, coords)
    img += rng.normal(0.0, 0.02, size=(size, size, 3))
    img *= rng.uniform(0.75, 1.05)
    if label == 1:
        blobs = [
            (rng.uniform(0.2, 0.8) * size, rng.uniform(0.2, 0.8) * size,
             rng.uniform(size / 10, size / 5), 0.8 * rng.uniform(0.6, 1.0))
            for _ in range(int(rng.integers(1, 4)))
        ]
        _add_smoke(img, 0, blobs)
    return _to_u8(img)


def write_patch_set(seed: int, stream: int, per_class: int, size: int,
                    out_dir: Path) -> Path:
    """Write ``per_class`` patches per label and a manifest; returns its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for label, prefix in ((0, "bg"), (1, "smoke")):
        for i in range(per_class):
            rel = f"{prefix}_{i:04d}.ppm"
            write_p6(patch(seed, stream, i, label, size), out_dir / rel)
            lines.append(f"{rel},{label}")
    manifest = out_dir / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def frame(seed: int, index: int, height: int, width: int,
          smoke: bool) -> np.ndarray:
    """A textured landscape frame, built in row strips to bound memory."""
    rng = np.random.default_rng([seed, STREAM_FRAME, index])
    cell = 48
    coarse = rng.uniform(-0.10, 0.10, size=(height // cell + 2, width // cell + 2, 3))
    base = np.array([0.32, 0.36, 0.24]) + rng.uniform(-0.06, 0.06, 3)
    blobs = []
    if smoke:
        blobs = [
            (rng.uniform(0.1, 0.9) * height, rng.uniform(0.1, 0.9) * width,
             rng.uniform(0.02, 0.08) * width, rng.uniform(0.5, 0.9))
            for _ in range(int(rng.integers(2, 6)))
        ]
    xs = np.arange(width) / cell
    out = np.empty((height, width, 3), dtype=np.uint8)
    for row0 in range(0, height, FRAME_STRIP_ROWS):
        rows = min(FRAME_STRIP_ROWS, height - row0)
        ys = np.arange(row0, row0 + rows) / cell
        img = base + _bilinear(coarse, ys, xs)
        img += rng.normal(0.0, 0.02, size=(rows, width, 3))
        _add_smoke(img, row0, blobs)
        out[row0 : row0 + rows] = _to_u8(img)
    return out


def transform_arrays(seed: int, row_lengths, vector_lengths, row_elements: int):
    """Float64 inputs: (row_elements / N, N) row blocks, then single vectors."""
    rng = np.random.default_rng([seed, STREAM_TRANSFORM])
    rows = [rng.standard_normal((row_elements // n, n)) for n in row_lengths]
    vectors = [rng.standard_normal(n) for n in vector_lengths]
    return rows, vectors


def sha256_files(root: Path, paths) -> str:
    """Digest over (relative name, bytes) of the given files, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def sha256_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.shape).encode() + b"\0")
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
