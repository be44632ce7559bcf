"""Walsh-Hadamard transforms in natural (Sylvester) ordering.

The forward transform is unnormalized by default: applying the fast
transform twice multiplies the input by N, and the inverse is the fast
transform divided by N.  The ``normalized=True`` variant scales by
``2**(-m/2)`` so that the transform is an isometry and the underlying
matrix is orthogonal.

The transform is a product with the Sylvester matrix, factored as
``H_(2^(a+b)) = H_(2^a) kron H_(2^b)``: each factor of at most
``2**_FACTOR_ORDER`` rows is one BLAS matrix product over all rows at
once, so a length-N transform costs O(N log N) multiply-adds.  For
N = 2^m the factors are the remainder ``2^(m % 4)`` first, then H_16s, so
every transform with N >= 16 ends in a full ``(rows, 16) @ H_16``.  The
inverse's 1/N is folded into that last factor's matrix, which makes no
pass of its own and no bit of difference, since N is a power of two.
Only the normalized scale takes one final pass over the output.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import LengthNotPowerOfTwoError, OrderTooLargeError, TransformInputError

MAX_MATRIX_ORDER = 12

# Largest Kronecker factor, as an order exponent.  Larger factors mean
# fewer passes but larger OpenBLAS packing buffers: on a 2-vCPU host, with
# the remainder factor first, the benchmark's transform-long workload peaked
# at 182, 187, 189 and 196 MiB with orders 4, 5, 6 and 7, and order 4 was
# also the fastest (op_p50_s 0.049 s against 0.053, 0.053 and 0.068 s).
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
def _factor(k: int, dtype: type, divisor: int = 1) -> np.ndarray:
    """H_k / divisor in ``dtype``, shared by every call and therefore read-only.

    A power-of-two divisor only shifts exponents, so a product with this
    matrix rounds to exactly the bits of the product with H_k, divided
    afterwards (barring results in the subnormal range).
    """
    h = hadamard_matrix(k.bit_length() - 1).astype(dtype)
    if divisor != 1:
        h *= dtype(1.0 / divisor)
    h.flags.writeable = False
    return h


def _require_power_of_two(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise LengthNotPowerOfTwoError(f"length {n} is not a power of two")


def _transform(x, inverse: bool) -> np.ndarray:
    """H_N along the last axis, divided by N when ``inverse``; always a new array.

    Viewing the axis as (k, q), each leading H_k acts as ``H_k @ (k, q)`` on
    every row at once, and the last factor as ``(rows, k) @ H_k``, or
    ``@ (H_k / N)`` for the inverse.
    """
    arr = np.asarray(x)
    if arr.ndim == 0 or arr.dtype.kind not in "biuf":
        raise TransformInputError(
            f"cannot transform a {arr.ndim}-d {arr.dtype} array: the input must "
            "be real-valued with at least one axis"
        )
    n = arr.shape[-1]
    _require_power_of_two(n)
    dtype = np.float32 if arr.dtype == np.float32 else np.float64
    y = arr.astype(dtype, copy=False)  # read, never written: products make new arrays
    if n == 1:
        return y.copy()
    shape = y.shape
    k = 1 << ((n.bit_length() - 2) % _FACTOR_ORDER + 1)  # 2^(m % 4), or 16 if 4 | m
    q = n // k
    while q > 1:
        y = _factor(k, dtype) @ y.reshape(-1, k, q)
        k = 1 << _FACTOR_ORDER
        q //= k
    h = _factor(k, dtype, n) if inverse else _factor(k, dtype)
    return (y.reshape(-1, k) @ h).reshape(shape)


def fwht(x: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis; always a new array.

    Equal to multiplying by ``hadamard_matrix(m)`` along the last axis.
    float32 input stays float32; other real input (bool, integer, other
    float) is computed in float64.  A 0-d or non-real (complex, object,
    text) input raises ``TransformInputError`` before any work is done.
    """
    y = _transform(x, inverse=False)
    if normalized:
        y *= y.dtype.type(1.0 / np.sqrt(y.shape[-1]))
    return y


def ifwht(y: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Inverse transform along the last axis: ``ifwht(fwht(x)) == x``.

    For the default unnormalized convention this is the fast transform
    divided by N, bit for bit: the 1/N is exact (N is a power of two) and
    sits in the last factor's matrix instead of a pass of its own.  The
    normalized transform is involutory, so it is its own inverse.
    """
    if normalized:
        return fwht(y, normalized=True)
    return _transform(y, inverse=True)
