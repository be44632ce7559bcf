"""Walsh-Hadamard transforms in natural (Sylvester) ordering.

The forward transform is unnormalized by default: applying the fast
transform twice multiplies the input by N, and the inverse is the fast
transform followed by a single division by N.  The ``normalized=True``
variant scales by ``2**(-m/2)`` so that the transform is an isometry and
the underlying matrix is orthogonal.

The transform is a product with the Sylvester matrix, factored as
``H_(2^(a+b)) = H_(2^a) kron H_(2^b)``: each factor of at most
``2**_FACTOR_ORDER`` rows is one BLAS matrix product over all rows at
once, so a length-N transform costs O(N log N) multiply-adds.  Any
scaling happens in one final pass over the output.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import LengthNotPowerOfTwoError, OrderTooLargeError

MAX_MATRIX_ORDER = 12

# Largest Kronecker factor, as an order exponent.  Larger factors mean
# fewer passes but larger OpenBLAS packing buffers: on a 2-vCPU host the
# benchmark's transform-long workload peaked at 191 MiB with order 7 and
# 182 MiB with order 4, and order 4 was also the faster (0.06 s vs 0.10 s).
_FACTOR_ORDER = 4

# No compiled kernel exists; perfbench/run.py records this in its provenance.
_HAVE_NUMBA = False


def hadamard_matrix(m: int) -> np.ndarray:
    """Return the order-2^m Sylvester Hadamard matrix.

    Entries are exact +1/-1 integers (int64), so ``H @ H.T`` is exactly
    ``2**m * I``; ``2**(-m/2) * H`` is orthogonal.
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
    return h


@functools.cache
def _factor(k: int, dtype: type) -> np.ndarray:
    """H_k in ``dtype``, shared by every call and therefore read-only."""
    h = hadamard_matrix(k.bit_length() - 1).astype(dtype)
    h.flags.writeable = False
    return h


def _require_power_of_two(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise LengthNotPowerOfTwoError(f"length {n} is not a power of two")


def fwht(x: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis; always a new array.

    Equal to multiplying by ``hadamard_matrix(m)`` along the last axis.
    float32 input stays float32 and anything else is computed in float64.
    Viewing the axis as (k, q), the leading H_k acts as ``H_k @ (k, q)``
    on every row at once, and the last factor as ``(rows, k) @ H_k``.
    """
    arr = np.asarray(x)
    n = arr.shape[-1]
    _require_power_of_two(n)
    dtype = np.float32 if arr.dtype == np.float32 else np.float64
    y = arr.astype(dtype)
    shape = y.shape
    q = n
    while q > 1:
        k = min(q, 1 << _FACTOR_ORDER)
        q //= k
        h = _factor(k, dtype)
        y = y.reshape(-1, k) @ h if q == 1 else h @ y.reshape(-1, k, q)
    y = y.reshape(shape)
    if normalized:
        y *= dtype(1.0 / np.sqrt(n))
    return y


def ifwht(y: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Inverse transform along the last axis: ``ifwht(fwht(x)) == x``.

    For the default unnormalized convention this is the fast transform
    followed by division by N (exact, since N is a power of two).  The
    normalized transform is involutory, so it is its own inverse.
    """
    if normalized:
        return fwht(y, normalized=True)
    out = fwht(y)
    out *= out.dtype.type(1.0 / out.shape[-1])
    return out
