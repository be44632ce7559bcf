import numpy as np
import pytest

from whtfire.errors import LengthNotPowerOfTwoError, OrderTooLargeError, TransformInputError
from whtfire.fwht import fwht, hadamard_matrix, ifwht
from oracles import (LengthMismatchError, dyadic_convolve_bruteforce, fwht_remainder_last,
                     ifwht_separate_pass)


def _hadamard_rows(xs: np.ndarray, m: int) -> np.ndarray:
    """Each row of ``xs`` times the order-2^m Hadamard matrix.

    hadamard_matrix stops at m = 12, so m = 13 applies
    H_8192 = H_128 kron H_64 as H_128 @ X @ H_64.T on each row, reshaped.
    """
    if m <= 12:
        return xs @ hadamard_matrix(m).astype(np.float64).T
    h_hi, h_lo = (hadamard_matrix(b).astype(np.float64) for b in (7, m - 7))
    return (h_hi @ xs.reshape(-1, 128, 1 << (m - 7)) @ h_lo.T).reshape(xs.shape)


class TestHadamardMatrix:
    def test_order_zero(self):
        assert hadamard_matrix(0).tolist() == [[1]]

    def test_order_one_normalized(self):
        h = hadamard_matrix(1) * 2.0 ** (-1 / 2)
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(h, expected, atol=1e-15)

    def test_order_two_unnormalized_orthogonality(self):
        h = hadamard_matrix(2)
        assert (h @ h.T == 4 * np.eye(4, dtype=np.int64)).all()

    def test_entries_are_signs(self):
        for m in range(7):
            h = hadamard_matrix(m)
            assert set(np.unique(h)) <= {-1, 1}

    def test_normalized_orthogonality_tight(self):
        for m in range(7):
            h = hadamard_matrix(m) * 2.0 ** (-m / 2)
            gram = h @ h.T
            assert np.max(np.abs(gram - np.eye(1 << m))) <= 1e-12

    def test_unnormalized_gram_exact(self):
        for m in range(7):
            h = hadamard_matrix(m)
            n = 1 << m
            assert (h @ h.T == n * np.eye(n, dtype=np.int64)).all()

    def test_block_recursion_structure(self):
        for m in range(1, 6):
            h = hadamard_matrix(m)
            half = 1 << (m - 1)
            prev = hadamard_matrix(m - 1)
            assert (h[:half, :half] == prev).all()
            assert (h[:half, half:] == prev).all()
            assert (h[half:, :half] == prev).all()
            assert (h[half:, half:] == -prev).all()

    def test_order_limit(self):
        with pytest.raises(OrderTooLargeError):
            hadamard_matrix(13)
        with pytest.raises(ValueError):
            hadamard_matrix(-1)


class TestFwht:
    def test_constant_signal(self):
        assert np.allclose(fwht([1, 1, 1, 1]), [4, 0, 0, 0])

    def test_two_point(self):
        assert np.allclose(fwht([1, -1]), [0, 2])

    def test_four_point_vs_matrix_oracle(self):
        x = np.array([3.0, 1.0, 2.0, 0.0])
        expected = hadamard_matrix(2).astype(float) @ x
        assert expected.tolist() == [6.0, 4.0, 2.0, 0.0]
        assert np.allclose(fwht(x), expected)

    def test_matches_matrix_product_all_small_sizes(self):
        # up to m = 13: four Kronecker factors of the transform, the first a
        # remainder
        rng = np.random.default_rng(2024)
        for m in range(14):
            xs = rng.normal(size=(10, 1 << m))
            got = fwht(xs)
            assert np.max(np.abs(got - _hadamard_rows(xs, m))) <= 1e-9
            xs32 = xs.astype(np.float32)
            ref = _hadamard_rows(xs32.astype(np.float64), m)
            got32 = fwht(xs32)
            assert got32.dtype == np.float32
            assert np.max(np.abs(got32 - ref)) <= 1e-5 * np.max(np.abs(ref))

    def test_unnormalized_involution_exact_on_integers(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 8, 64):
            x = rng.integers(-50, 50, size=n).astype(np.float64)
            assert (fwht(fwht(x)) == n * x).all()

    def test_roundtrip_many_seeds(self):
        for seed in range(100):
            x = np.random.default_rng(seed).normal(size=8)
            assert np.max(np.abs(ifwht(fwht(x)) - x)) <= 1e-12

    def test_normalized_is_isometry(self):
        rng = np.random.default_rng(77)
        for n in (2, 16, 128):
            x = rng.normal(size=n)
            y = fwht(x, normalized=True)
            assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-9 * np.linalg.norm(x)

    def test_normalized_self_inverse(self):
        x = np.random.default_rng(3).normal(size=32)
        assert np.allclose(ifwht(fwht(x, normalized=True), normalized=True), x,
                           atol=1e-12)

    def test_axis_and_strided_views(self):
        rng = np.random.default_rng(11)
        h = hadamard_matrix(4).astype(float)
        base = rng.normal(size=(6, 16, 5))
        view = np.moveaxis(base[::2, :, 1::2], 1, -1)  # non-contiguous on purpose
        got = fwht(view)
        expected = view @ h.T
        assert np.allclose(got, expected, atol=1e-9)

    def test_returns_a_new_array_and_leaves_the_input_unchanged(self):
        # the input is converted without a copy, and N = 1 makes no product
        rng = np.random.default_rng(1)
        for shape in ((3, 1), (1,), (3, 8), (64,), (3, 64), (4096,)):
            for dtype in (np.float32, np.float64):
                x = rng.normal(size=shape).astype(dtype)
                before = x.copy()
                for transform in (fwht, ifwht):
                    for normalized in (False, True):
                        out = transform(x, normalized=normalized)
                        assert out.dtype == dtype
                        assert not np.shares_memory(out, x)
                        assert np.array_equal(x, before)

    def test_float32_stays_float32(self):
        x = np.ones(8, dtype=np.float32)
        assert fwht(x).dtype == np.float32

    def test_rejects_bad_lengths(self):
        with pytest.raises(LengthNotPowerOfTwoError):
            fwht([1.0, 2.0, 3.0])
        with pytest.raises(LengthNotPowerOfTwoError):
            fwht(np.zeros(0))

    @pytest.mark.parametrize("x", [np.float64(2.0), np.array(1.0), 3,
                                   np.array([1.0 + 2.0j, 0.5j]),
                                   np.ones((2, 4), dtype=np.complex64),
                                   np.array([1.0, 2.0], dtype=object),
                                   np.array(["1", "2"])])
    def test_rejects_0d_and_non_real_input(self, x):
        # a complex input must not lose its imaginary part with a warning
        for transform in (fwht, ifwht):
            for normalized in (False, True):
                with pytest.raises(TransformInputError):
                    transform(x, normalized=normalized)

    def test_accepts_bool_and_integer_input_as_float64(self):
        x = np.array([[True, False, True, True]])
        assert fwht(x).dtype == np.float64
        assert fwht(x).tolist() == [[3.0, 1.0, -1.0, 1.0]]
        assert fwht(np.arange(8, dtype=np.uint8)).tolist() == fwht(np.arange(8.0)).tolist()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_the_remainder_last_order_at_powers_of_sixteen(self, dtype):
        # at N = 16^a both factor orders make the same products; elsewhere
        # they differ in the last bits only
        rng = np.random.default_rng(21)
        for m in range(17):
            x = rng.normal(size=(3, 1 << m)).astype(dtype)
            got, ref = fwht(x), fwht_remainder_last(x)
            if m % 4 == 0 or m < 4:
                assert np.array_equal(got, ref), m
                assert np.array_equal(ifwht(x), ifwht_separate_pass(x)), m
            else:
                tol = 8 * np.finfo(dtype).eps * np.max(np.abs(ref))
                assert np.max(np.abs(got - ref)) <= tol, m


class TestIfwht:
    def test_inverse_of_constant_case(self):
        assert np.allclose(ifwht([4, 0, 0, 0]), [1, 1, 1, 1])

    def test_exact_integer_roundtrip(self):
        x = np.array([3.0, 1.0, 2.0, 0.0])
        assert (ifwht(fwht(x)) == x).all()

    def test_rejects_bad_length(self):
        with pytest.raises(LengthNotPowerOfTwoError):
            ifwht([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_is_the_forward_times_one_over_n_bit_for_bit(self, dtype):
        # the 1/N rides in the last factor: a power-of-two scale commutes
        # with rounding, so no bit may differ from scaling afterwards
        rng = np.random.default_rng(31)
        for m in range(15):
            n = 1 << m
            for shape in ((n,), (5, n)):
                y = rng.normal(size=shape).astype(dtype)
                want = fwht(y) * dtype(1.0 / n)
                got = ifwht(y)
                assert got.dtype == dtype and np.array_equal(got, want), (m, shape)


class TestDyadicConvolution:
    def test_delta_is_identity(self):
        a, b = 2.5, -7.0
        assert dyadic_convolve_bruteforce([1, 0], [a, b]).tolist() == [a, b]

    def test_shifted_delta_permutes_by_xor(self):
        delta1 = [0.0, 1.0, 0.0, 0.0]
        h = [1.0, 2.0, 3.0, 4.0]
        assert dyadic_convolve_bruteforce(delta1, h).tolist() == [2.0, 1.0, 4.0, 3.0]

    def test_transform_domain_product_matches_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=8)
        h = rng.normal(size=8)
        via_transform = ifwht(fwht(x) * fwht(h))
        assert np.max(np.abs(via_transform - dyadic_convolve_bruteforce(x, h))) <= 1e-9

    def test_convolution_theorem_up_to_64(self):
        rng = np.random.default_rng(10)
        for n in (2, 4, 16, 64):
            x = rng.normal(size=n)
            h = rng.normal(size=n)
            y = dyadic_convolve_bruteforce(x, h)
            assert np.max(np.abs(fwht(y) - fwht(x) * fwht(h))) <= 1e-9 * n

    def test_errors(self):
        with pytest.raises(LengthMismatchError):
            dyadic_convolve_bruteforce([1, 2], [1, 2, 3, 4])
        with pytest.raises(LengthNotPowerOfTwoError):
            dyadic_convolve_bruteforce([1, 2, 3], [1, 2, 3])
        with pytest.raises(LengthMismatchError):
            dyadic_convolve_bruteforce(np.ones((2, 2)), np.ones(4))
