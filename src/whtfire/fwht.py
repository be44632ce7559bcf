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

Each pass is scheduled by its span, the k * q contiguous values that one
``H_k @ (..., k, q)`` mixes: N for the first pass, and each later span is
the one before divided by its factor.  A pass whose span exceeds
``_CHUNK`` values runs over the whole array; only rows longer than 2^15
make such passes, one at N = 2^16 and two from 2^17 to 2^20.  The remaining
passes run chunk by chunk: each step takes ``_CHUNK // span`` rows of the
first remaining span through every remaining factor and writes the last
product into the one output array, so a chunk stays in cache from its
first remaining pass to its last.  An input of at most ``_CHUNK`` values
is one chunk, and a lone pass (N <= 16) keeps nothing in cache, so both
run every pass over the whole array.  A chunk makes the same products on
the same values as a pass over the whole array, so no bit depends on the
chunk size.
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

# Values in a chunk of rows that runs through its passes while it stays in
# cache: 2^15, 256 KiB of float64.  One fwht + ifwht over the transform-long
# arrays (2-vCPU host, float64, medians of 6 rotated in-process rounds) took
# 40.7, 38.3, 36.1, 45.4 and 48.8 ms at 2^13 .. 2^17 values, and 48.9 ms with
# every pass over the whole array (BENCH_transform_chunk.json).
_CHUNK = 1 << 15

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

    Viewing a span as (k, q), each leading H_k acts as ``H_k @ (k, q)`` on
    every group at once, and the last factor as ``(rows, k) @ H_k``, or
    ``@ (H_k / N)`` for the inverse.  Spans above ``_CHUNK`` make passes
    over the whole array; the rest run ``_CHUNK // span`` rows at a time,
    unless the input is one chunk or N <= 16 (the module docstring).
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
    k_last = n if k == n else 1 << _FACTOR_ORDER  # N <= 16 is one factor
    last = _factor(k_last, dtype, n) if inverse else _factor(k_last, dtype)
    span, stop = n, (k_last if y.size <= _CHUNK else _CHUNK)
    while span > stop:
        y = _factor(k, dtype) @ y.reshape(-1, k, span // k)
        span //= k
        k = 1 << _FACTOR_ORDER
    if span == k_last:
        # one chunk, or N <= 16: a lone pass chunked could leave a one-row
        # tail chunk, which numpy sends to gemv, and gemv rounds unlike gemm
        return (y.reshape(-1, k_last) @ last).reshape(shape)
    y = y.reshape(-1, span)
    # chunks write over the whole-array passes' own output, never over the input
    out = y if span < n else np.empty((len(y), n), dtype)
    step = _CHUNK // span
    for start in range(0, len(y), step):
        rows = slice(start, start + step)
        c, k_c, q = y[rows], k, span // k
        while q > 1:
            c = _factor(k_c, dtype) @ c.reshape(-1, k_c, q)
            k_c = 1 << _FACTOR_ORDER
            q //= k_c
        np.matmul(c.reshape(-1, k_last), last, out=out[rows].reshape(-1, k_last))
    return out.reshape(shape)


def fwht(x: np.ndarray, normalized: bool = False) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis; always a new array.

    Equal to multiplying by ``hadamard_matrix(m)`` along the last axis.
    float32 input stays float32; other real input (bool, integer, other
    float) is computed in float64.  A 0-d or non-real (complex, object,
    text) input raises ``TransformInputError`` before any work is done.

    When N <= 16 a lone row can round apart from the same row in a block:
    numpy runs a one-row product with gemv and a block with gemm (OpenBLAS,
    x86-64: all 2,049 float64 rows of width 16 and 421 of 513 float32 rows
    of width 4 differed in their last bits, and 2,400 blocks of 2 to 61
    rows all matched).  So the layer-kind contract's batch check (b) splits
    a batch into halves of at least 2 rows.
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
