"""Walsh-Hadamard transforms in natural (Sylvester) ordering.

The forward transform is unnormalized by default: applying the fast
transform twice multiplies the input by N, and the inverse is the fast
transform followed by a single division by N.  The ``normalized=True``
variant scales by ``2**(-m/2)`` so that the transform is an isometry and
the underlying matrix is orthogonal.

One numpy butterfly, vectorised over all rows at once, performs only
additions and subtractions; any scaling happens in one final pass over
the output.  A brute-force dyadic (XOR-index) convolution is included
purely as a test oracle for the transform-domain convolution property.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatchError, LengthNotPowerOfTwoError, OrderTooLargeError

MAX_MATRIX_ORDER = 12

# No compiled kernel exists; perfbench/run.py records this in its provenance.
_HAVE_NUMBA = False


def hadamard_matrix(m: int, normalized: bool = False) -> np.ndarray:
    """Return the order-2^m Sylvester Hadamard matrix.

    Unnormalized entries are exact +1/-1 integers so that ``H @ H.T`` is
    exactly ``2**m * I``.  With ``normalized=True`` the matrix is scaled
    by ``2**(-m/2)`` (float64) and is orthogonal to machine precision.
    """
    if m < 0:
        raise ValueError(f"order exponent must be >= 0, got {m}")
    if m > MAX_MATRIX_ORDER:
        raise OrderTooLargeError(
            f"order exponent {m} exceeds maximum {MAX_MATRIX_ORDER}"
        )
    n = 1 << m
    h = np.empty((n, n), dtype=np.int64)
    h[0, 0] = 1
    size = 1
    while size < n:
        # doubling step: [[H, H], [H, -H]]
        h[:size, size : 2 * size] = h[:size, :size]
        h[size : 2 * size, :size] = h[:size, :size]
        h[size : 2 * size, size : 2 * size] = -h[:size, :size]
        size *= 2
    if normalized:
        return h * (2.0 ** (-m / 2.0))
    return h


def _butterfly_rows_numpy(y2d: np.ndarray) -> None:
    rows, n = y2d.shape
    h = 1
    while h < n:
        v = y2d.reshape(rows, n // (2 * h), 2, h)
        a = v[:, :, 0, :]
        b = v[:, :, 1, :]
        t = a - b
        a += b
        b[...] = t
        h *= 2


def _require_power_of_two(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise LengthNotPowerOfTwoError(f"length {n} is not a power of two")


def fwht(
    x: np.ndarray,
    normalized: bool = False,
    axis: int = -1,
    overwrite: bool = False,
) -> np.ndarray:
    """Fast Walsh-Hadamard transform along ``axis``.

    Equivalent to multiplying by ``hadamard_matrix(m)`` along the chosen
    axis, in O(N log N) additions/subtractions.  Accepts arbitrary strided
    views; with ``overwrite=True`` and a compatible float buffer the
    transform runs in place and returns the input array.
    """
    arr = np.asarray(x)
    n = arr.shape[axis]
    _require_power_of_two(n)
    dtype = np.float32 if arr.dtype == np.float32 else np.float64
    moved = np.moveaxis(arr, axis, -1)
    in_place = (
        overwrite
        and isinstance(x, np.ndarray)
        and arr.dtype == dtype
        and moved.flags.c_contiguous
    )
    y = moved if in_place else np.array(moved, dtype=dtype, order="C")
    if n > 1:
        _butterfly_rows_numpy(y.reshape(-1, n))
    if normalized:
        y *= dtype(1.0 / np.sqrt(n))
    if in_place:
        return x
    return np.moveaxis(y, -1, axis)


def ifwht(
    y: np.ndarray,
    normalized: bool = False,
    axis: int = -1,
    overwrite: bool = False,
) -> np.ndarray:
    """Inverse transform: ``ifwht(fwht(x)) == x``.

    For the default unnormalized convention this is the fast transform
    followed by division by N (exact, since N is a power of two).  The
    normalized transform is involutory, so it is its own inverse.
    """
    if normalized:
        return fwht(y, normalized=True, axis=axis, overwrite=overwrite)
    n = np.asarray(y).shape[axis]
    out = fwht(y, axis=axis, overwrite=overwrite)
    out *= out.dtype.type(1.0 / n)
    return out


def dyadic_convolve_bruteforce(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """O(N^2) dyadic convolution ``y[k] = sum_i x[i] * h[k XOR i]``.

    Deliberately naive; serves as the independent oracle for the
    transform-domain identity ``fwht(x (*) h) == fwht(x) * fwht(h)``.
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
    _require_power_of_two(n)
    y = np.zeros(n, dtype=np.float64)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += xv[i] * hv[k ^ i]
        y[k] = acc
    return y
