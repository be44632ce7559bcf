import re
import tracemalloc
import zlib

import numpy as np
import pytest

from whtfire import nn
from whtfire.dataio import ppm_read, ppm_write
from whtfire.errors import BadLabelError, ShapeMismatchError
from oracles import (avgpool2_backward_broadcast, avgpool2_reshape_mean, avgpool2_rows_first,
                     conv3x3_backward_whole_map, conv3x3_whole_map, gradient_check,
                     mean_pool_strided)


def conv3x3_direct(x, w):
    """Six-loop reference convolution (padding 1), one sample of a batch at a time."""
    return np.stack([conv3x3_direct_one(sample, w) for sample in x])


def conv3x3_direct_one(x, w):
    hh, ww, cin = x.shape
    cout = w.shape[3]
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((hh, ww, cout))
    for i in range(hh):
        for j in range(ww):
            for di in range(3):
                for dj in range(3):
                    for co in range(cout):
                        out[i, j, co] += xp[i + di, j + dj] @ w[di, dj, :, co]
    return out


class TestConv3x3:
    def test_constant_field_interior(self):
        v = 0.7
        x = np.full((1, 6, 6, 1), v)
        w = np.ones((3, 3, 1, 1))
        out = nn.conv3x3_forward(x, w).output
        assert np.allclose(out[:, 1:-1, 1:-1], 9 * v)

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 4, 3))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[1, 1, c, c] = 1.0
        assert np.allclose(nn.conv3x3_forward(x, w).output, x)

    def test_matches_direct_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 5, 5, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        out = nn.conv3x3_forward(x, w).output
        assert np.max(np.abs(out - conv3x3_direct(x, w))) <= 1e-6

    # 37 rows: 2 bands at batch 1 (36 + 1), 10 at batch 8 (9 x 4 + 1); 224
    # rows: 7 bands (6 x 36 + 8), 56 at batch 8; a row of 9000 px is wider
    # than a band, so each band is one row
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("height,width,cin,cout", [
        (37, 224, 8, 8), (224, 224, 8, 8), (3, 9000, 2, 3),
    ])
    def test_banded_forward_equals_the_whole_map_bit_for_bit(
            self, dtype, batch, height, width, cin, cout):
        assert height > max(1, nn._CONV_BAND_PX // (batch * width))  # more than one band
        rng = np.random.default_rng(height * width + batch)
        x = rng.normal(size=(batch, height, width, cin)).astype(dtype)
        w = rng.normal(size=(3, 3, cin, cout)).astype(dtype)
        out = nn.conv3x3_forward(x, w).output
        want = conv3x3_whole_map(x, w)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    # (batch, height, width, cin, cout): one band each, then the shapes above
    ONE_BAND = [(8, 8, 8, 8, 8), (8, 32, 32, 8, 8)]
    SHAPES = ONE_BAND + [(batch, *shape) for batch in (1, 8)
                         for shape in [(37, 224, 8, 8), (224, 224, 8, 8), (3, 9000, 2, 3)]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch,height,width,cin,cout", ONE_BAND)
    def test_one_band_forward_equals_the_whole_map_bit_for_bit(
            self, dtype, batch, height, width, cin, cout):
        assert height <= nn._CONV_BAND_PX // (batch * width)
        rng = np.random.default_rng(height * width + batch)
        x = rng.normal(size=(batch, height, width, cin)).astype(dtype)
        w = rng.normal(size=(3, 3, cin, cout)).astype(dtype)
        assert nn.conv3x3_forward(x, w).output.tobytes() == conv3x3_whole_map(x, w).tobytes()

    @pytest.mark.parametrize("input_grad", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch,height,width,cin,cout", SHAPES)
    def test_banded_backward_matches_the_whole_map(
            self, input_grad, dtype, batch, height, width, cin, cout):
        # dx is a forward pass, whose taps add in the reverse order of the
        # oracle's scatter; dw adds its taps band by band, so it keeps the
        # oracle's bits only where the map is one band
        rng = np.random.default_rng(height * width + batch + 1)
        x = rng.normal(size=(batch, height, width, cin)).astype(dtype)
        w = rng.normal(size=(3, 3, cin, cout)).astype(dtype)
        dy = rng.normal(size=(batch, height, width, cout)).astype(dtype)
        dx, dw = nn.conv3x3_backward((x, w), dy, input_grad)
        want_dx, want_dw = conv3x3_backward_whole_map((x, w), dy, input_grad)
        tol = 1e-12 if dtype == np.float64 else 1e-5

        def assert_close(got, want):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

        if height <= nn._CONV_BAND_PX // (batch * width):
            assert dw.dtype == want_dw.dtype and np.array_equal(dw, want_dw)
        else:
            assert_close(dw, want_dw)
        if input_grad:
            assert_close(dx, want_dx)
        else:
            assert dx is None and want_dx is None

    @staticmethod
    def peak_inputs(run, x) -> float:
        """``run()``'s tracemalloc peak, in sizes of ``x``."""
        run()  # a warm-up, so first-call caches are not counted
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / x.nbytes
        finally:
            tracemalloc.stop()

    def test_forward_band_is_no_taller_than_the_map(self):
        # the output, the 10-row padded band and one tap product read ~3.7
        # inputs; a band sized for 8192 px, 130 rows for a 10-row map, read 22.4
        rng = np.random.default_rng(6)
        x = rng.normal(size=(8, 8, 8, 8)).astype(np.float32)
        w = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        peak = self.peak_inputs(lambda: nn.conv3x3_forward(x, w), x)
        assert peak <= 5, f"peak {peak:.2f} inputs"

    def test_backward_peak_memory(self):
        # dx, then one band and one tap's copy at a time: ~1.34 inputs; a whole
        # padded x beside a padded dx read 3.07
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 224, 224, 8)).astype(np.float32)
        w = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        dy = rng.normal(size=x.shape).astype(np.float32)
        peak = self.peak_inputs(lambda: nn.conv3x3_backward((x, w), dy), x)
        assert peak <= 2, f"peak {peak:.2f} inputs"

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, 4, 2))
        w = rng.normal(size=(3, 3, 2, 2))
        io = nn.conv3x3_forward(x, w)
        dx, dw = nn.conv3x3_backward(io.cache, np.zeros_like(io.output))
        assert not dx.any() and not dw.any()

    def test_backward_identity_kernel(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 4, 4, 2))
        w = np.zeros((3, 3, 2, 2))
        for c in range(2):
            w[1, 1, c, c] = 1.0
        io = nn.conv3x3_forward(x, w)
        dy = rng.normal(size=io.output.shape)
        dx, _ = nn.conv3x3_backward(io.cache, dy)
        assert np.allclose(dx, dy)

    def test_shape_mismatch(self):
        for x_shape, w_shape in [
            ((1, 4, 4, 2), (3, 3, 3, 2)),  # channels
            ((4, 4, 2), (3, 3, 2, 2)),  # map rank
            ((1, 4, 4, 2), (3, 3, 2)),  # kernel rank
            ((1, 4, 4, 2), (5, 5, 2, 2)),  # not 3x3
        ]:
            with pytest.raises(ShapeMismatchError):
                nn.conv3x3_forward(np.zeros(x_shape), np.zeros(w_shape))

    def test_backward_rejects_a_gradient_of_other_channels(self):
        io = nn.conv3x3_forward(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 2, 3)))
        with pytest.raises(ShapeMismatchError, match="channel mismatch"):
            nn.conv3x3_backward(io.cache, np.zeros((1, 4, 4, 2)))


class TestSimpleLayers:
    def test_relu_values(self):
        out = nn.relu_forward(np.array([[-1.0, 0.0, 2.0]])).output
        assert out.tolist() == [[0.0, 0.0, 2.0]]

    def test_relu_backward_masks_nonpositive(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        io = nn.relu_forward(x)
        (dx,) = nn.relu_backward(io.cache, np.ones((1, 3)))
        assert dx.tolist() == [[0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_is_the_input_mask_formula(self, dtype):
        # the cache is the output: y > 0 must pick what x > 0 picked, NaN and both zeros too
        x = np.array([np.nan, -0.0, 0.0, -1.5, 2.0, np.inf, -np.inf, 1e-30], dtype)
        dy = np.array([3.0, -2.0, -1.0, 4.0, np.nan, 6.0, -7.0, -8.0], dtype)
        y, cache = nn.relu_forward(x)
        assert cache[0] is y
        assert nn.relu_backward(cache, dy)[0].tobytes() == (dy * (x > 0)).tobytes()

    def test_gap_constant_channel(self):
        c = 3.25
        x = np.full((1, 4, 5, 2), c)
        assert np.allclose(nn.gap_forward(x).output, c)

    def test_pointwise_matches_matmul(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 3, 4))
        w = rng.normal(size=(4, 2))
        assert np.allclose(nn.pointwise_forward(x, w).output, x @ w)

    def test_avgpool2_checkerboard(self):
        x = np.zeros((1, 4, 4, 1))
        x[:, ::2, 1::2] = 1.0
        x[:, 1::2, ::2] = 1.0
        assert np.allclose(nn.avgpool2_forward(x).output, 0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 32, 32, 8), (8, 32, 32, 64), (2, 64, 96, 8),
                                       (1, 224, 224, 8), (2, 66, 6, 3)])
    def test_avgpool2_is_bit_identical_to_reshape_mean(self, shape, dtype):
        # the row sums, then the column pairs' product with 0.25s, round as
        # ((x00 + x10) + (x01 + x11)) * 0.25; the reshape-mean adds in another
        # order, so the next test bounds the distance to it
        x = np.random.default_rng(12).standard_normal(shape).astype(dtype)
        out = nn.avgpool2_forward(x).output
        assert out.dtype == dtype
        assert np.array_equal(out, avgpool2_rows_first(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 32, 32, 8), (8, 32, 32, 64), (2, 64, 96, 8),
                                       (1, 224, 224, 8), (2, 66, 6, 3)])
    def test_avgpool2_is_within_3_eps_of_reshape_mean(self, shape, dtype):
        # two orders of a 4-term float sum each lie within 3u of |x00| + ... + |x11|
        # of the exact sum (u = eps / 2); a quarter of 6u of that is 3 eps times the
        # cell's mean |x|
        x = np.random.default_rng(12).standard_normal(shape).astype(dtype)
        out = nn.avgpool2_forward(x).output
        bound = 3 * np.finfo(dtype).eps * avgpool2_reshape_mean(np.abs(x).astype(np.float64))
        assert np.all(np.abs(out - avgpool2_reshape_mean(x).astype(np.float64)) <= bound)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0 * inf in the column product
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_avgpool2_non_finite_cell_spoils_its_pixel_only(self, bad, dtype):
        # the column product weighs every channel of the pixel by 0 or 0.25, and
        # 0 * inf is NaN: all of that pixel's channels turn non-finite, nothing else;
        # input row 64 is the first row of mean_pool's second band
        x = np.random.default_rng(14).standard_normal((2, 72, 8, 4)).astype(dtype)
        x[1, 3, 4, 2] = bad
        x[0, 64, 7, 1] = bad
        out = nn.avgpool2_forward(x).output
        spoiled = ~np.isfinite(out)
        assert spoiled[1, 1, 2].all() and spoiled[0, 32, 3].all()
        assert spoiled.sum() == 2 * out.shape[-1]

    @pytest.mark.parametrize("shape", [(1, 2, 2, 1), (3, 8, 6, 5), (8, 32, 32, 8)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_avgpool2_backward_matches_repeat_oracle(self, shape, dtype):
        io = nn.avgpool2_forward(np.zeros(shape, dtype=dtype))
        dy = np.random.default_rng(13).standard_normal(io.output.shape).astype(dtype)
        (dx,) = nn.avgpool2_backward(io.cache, dy)
        assert dx.dtype == dtype and dx.flags.c_contiguous
        assert np.array_equal(dx, avgpool2_backward_broadcast(io.cache, dy))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [32, 16, 8])  # the toy net's maps at 32 px input
    def test_gain_dg_matches_a_float64_sum(self, size, dtype):
        # dg is one dot product, summed in another order than Σ dy·x, so it
        # may differ in its last bits: within 8 eps of the dtype times Σ|dy·x|
        rng = np.random.default_rng(size)
        x = rng.standard_normal((8, size, size, 8)).astype(dtype)
        dy = rng.standard_normal(x.shape).astype(dtype)
        g = np.array([1.3], dtype=dtype)
        dx, dg = nn.gain_backward(nn.gain_forward(x, g).cache, dy)
        terms = dy.astype(np.float64) * x
        tolerance = 8 * np.finfo(dtype).eps * np.sum(np.abs(terms))
        assert dg.dtype == dtype and dg.shape == (1,)
        assert abs(float(dg[0]) - np.sum(terms)) <= tolerance
        assert np.array_equal(dx, dy * g[0])

    def test_gap_rejects_a_vector(self):
        with pytest.raises(ShapeMismatchError):
            nn.gap_forward(np.zeros((2, 4)))

    def test_avgpool2_odd_extent_rejected(self):
        with pytest.raises(ShapeMismatchError):
            nn.avgpool2_forward(np.zeros((1, 3, 4, 1)))

    def test_avgpool2_backward_rejects_a_gradient_of_another_shape(self):
        io = nn.avgpool2_forward(np.zeros((1, 4, 4, 2)))
        with pytest.raises(ShapeMismatchError):
            nn.avgpool2_backward(io.cache, np.zeros((1, 2, 3, 2)))

    @pytest.mark.parametrize("layer", ["pointwise", "dense", "relu", "gap",
                                       "avgpool2", "gain"])
    def test_backward_matches_central_differences(self, layer):
        rng = np.random.default_rng(zlib.crc32(layer.encode()))  # str hash() is salted
        if layer == "pointwise":
            x = rng.normal(size=(2, 3, 3, 4))
            w = rng.normal(size=(4, 2))
            io = nn.pointwise_forward(x, w)
            dy = rng.normal(size=io.output.shape)
            dx, dw = nn.pointwise_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.pointwise_forward(v, w).output * dy)), x, dx),
                (lambda v: float(np.sum(nn.pointwise_forward(x, v).output * dy)), w, dw),
            ]
        elif layer == "dense":
            x = rng.normal(size=(2, 4))
            w = rng.normal(size=(4, 3))
            b = rng.normal(size=3)
            io = nn.dense_forward(x, w, b)
            dy = rng.normal(size=(2, 3))
            dx, dw, db = nn.dense_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.dense_forward(v, w, b).output * dy)), x, dx),
                (lambda v: float(np.sum(nn.dense_forward(x, v, b).output * dy)), w, dw),
                (lambda v: float(np.sum(nn.dense_forward(x, w, v).output * dy)), b, db),
            ]
        elif layer == "relu":
            x = rng.normal(size=(2, 4, 4, 2))
            x = np.where(np.abs(x) < 0.1, x + 0.5, x)  # stay away from the kink
            io = nn.relu_forward(x)
            dy = rng.normal(size=io.output.shape)
            (dx,) = nn.relu_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.relu_forward(v).output * dy)), x, dx),
            ]
        elif layer == "gap":
            x = rng.normal(size=(2, 3, 5, 4))
            io = nn.gap_forward(x)
            dy = rng.normal(size=(2, 4))
            (dx,) = nn.gap_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.gap_forward(v).output * dy)), x, dx),
            ]
        elif layer == "avgpool2":
            x = rng.normal(size=(2, 4, 6, 2))
            io = nn.avgpool2_forward(x)
            dy = rng.normal(size=io.output.shape)
            (dx,) = nn.avgpool2_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.avgpool2_forward(v).output * dy)), x, dx),
            ]
        else:
            x = rng.normal(size=(2, 3, 3, 2))
            g = np.array([1.3])
            io = nn.gain_forward(x, g)
            dy = rng.normal(size=io.output.shape)
            dx, dg = nn.gain_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.gain_forward(v, g).output * dy)), x, dx),
                (lambda v: float(np.sum(nn.gain_forward(x, v).output * dy)), g, dg),
            ]
        for fun, point, analytic in checks:
            assert gradient_check(fun, point, analytic) <= 1e-6

    @pytest.mark.parametrize("layer", ["pointwise", "conv3x3", "dense", "gain"])
    def test_backward_without_input_grad_gives_the_same_tensor_grads(self, layer):
        rng = np.random.default_rng(zlib.crc32(layer.encode()))
        x = rng.standard_normal((2, 4, 4, 8) if layer != "dense" else (2, 8))
        tensors = {
            "pointwise": [rng.standard_normal((8, 4))],
            "conv3x3": [rng.standard_normal((3, 3, 8, 4))],
            "dense": [rng.standard_normal((8, 3)), rng.standard_normal(3)],
            "gain": [np.array([1.3])],
        }[layer]
        io = getattr(nn, f"{layer}_forward")(x, *tensors)
        backward = getattr(nn, f"{layer}_backward")
        dy = rng.standard_normal(io.output.shape)
        full = backward(io.cache, dy)
        dx, *grads = backward(io.cache, dy, input_grad=False)
        assert dx is None and full[0].shape == x.shape
        assert len(grads) == len(full) - 1 == len(tensors)
        for got, want in zip(grads, full[1:]):
            assert np.array_equal(got, want)

    def test_linear_layer_gradient_is_exact(self):
        # dense layer is linear in x, so central differences are exact
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 4))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        dy = rng.normal(size=(2, 3))
        io = nn.dense_forward(x, w, b)
        dx, _, _ = nn.dense_backward(io.cache, dy)
        err = gradient_check(
            lambda v: float(np.sum(nn.dense_forward(v, w, b).output * dy)), x, dx
        )
        assert err <= 1e-9


class TestBytePool:
    """``mean_pool`` on uint8 input adds its rows in uint16 up to 257 cells;
    the strided float sums are the oracle, bit for bit."""

    @staticmethod
    def _bytes(shape, fill, layout, tmp_path):
        """uint8 input: contiguous, read-only (a ``ppm_read`` frame, else a
        read-only view) or cropped from wider rows as a grid's block area is."""
        rng = np.random.default_rng(sum(shape))
        wide = shape[:-2] + (shape[-2] + 5, shape[-1])
        u = (rng.integers(0, 256, wide, dtype=np.uint8) if fill == "random"
             else np.full(wide, 255, np.uint8))
        if layout == "cropped":
            return u[..., : shape[-2], :]
        u = np.ascontiguousarray(u[..., : shape[-2], :])
        if layout == "read-only":
            if u.ndim == 3:
                ppm_write(u, tmp_path / "u.ppm")
                return ppm_read(tmp_path / "u.ppm")
            u.flags.writeable = False
        return u

    @pytest.mark.parametrize("layout", ["contiguous", "read-only", "cropped"])
    @pytest.mark.parametrize("fill", ["random", "255"])
    @pytest.mark.parametrize("factors", [(2, 2), (1, 7), (5, 1), (3, 5), (16, 16),
                                         (1, 257), (1, 258)])
    def test_matches_strided_float_sums(self, tmp_path, factors, fill, layout):
        fy, fx = factors  # (1, 257) of 255s sums to 65,535; (1, 258) pools in float64
        for shape in [(3 * fy, 2 * fx, 3), (2, 2 * fy, 3 * fx, 5)]:
            u = self._bytes(shape, fill, layout, tmp_path)
            assert layout != "cropped" or not u.flags.c_contiguous
            out = nn.mean_pool(u, fy, fx)
            assert out.dtype == np.float64
            assert np.array_equal(out, mean_pool_strided(u, fy, fx))

    @pytest.mark.parametrize("fill", ["random", "255"])
    @pytest.mark.parametrize("factors", [(3, 5), (1, 7), (5, 1), (1, 257)])
    def test_float32_pool_of_an_odd_count_divides_once(self, tmp_path, factors, fill):
        # the strided integer sums, converted to float32 and divided once there;
        # 70 output rows span three bands
        fy, fx = factors
        u = self._bytes((70 * fy, 3 * fx, 3), fill, "cropped", tmp_path)
        sums = sum(u[i::fy, j::fx].astype(np.int64) for i in range(fy) for j in range(fx))
        want = sums.astype(np.float32) / np.float32(fy * fx)
        out = nn.mean_pool(u, fy, fx, np.float32)
        assert out.dtype == np.float32 and out.tobytes() == want.tobytes()

    def test_block_224_grid_area(self, tmp_path):
        # score_grid pools a read-only frame's R x C block area, cropped in both axes
        frame = self._bytes((2 * 224 + 9, 3 * 224 + 31, 3), "random", "read-only", tmp_path)
        area = frame[: 2 * 224, : 3 * 224]
        assert np.array_equal(nn.mean_pool(area, 2, 2), mean_pool_strided(area, 2, 2))

    @staticmethod
    def _every_sum() -> np.ndarray:
        """A (2, 2042, 1) byte map whose 2x2 cells sum to 0, 1, ..., 1020."""
        q, r = np.divmod(np.arange(1021), 4)
        u = np.empty((2, 2 * 1021, 1), np.uint8)
        for (i, j), extra in zip(np.ndindex(2, 2), (1, 2, 3, 4)):
            u[i, j::2, 0] = q + (r >= extra)
        return u

    def test_float32_pool_has_the_bits_of_the_float64_one(self, tmp_path):
        # score_grid pools a float32 net's frame into float32 and divides by
        # 255 there: the bits of the float64 pool, divided, then converted
        every_sum = self._every_sum()
        assert np.array_equal(nn.mean_pool(every_sum, 2, 2).ravel() * 4, np.arange(1021))
        frame = self._bytes((1056, 1920, 3), "random", "read-only", tmp_path)
        for u in (every_sum, frame):
            pooled = nn.mean_pool(u, 2, 2, np.float32)
            pooled /= np.float32(255)
            want = (nn.mean_pool(u, 2, 2) / 255.0).astype(np.float32)
            assert pooled.dtype == np.float32 and pooled.tobytes() == want.tobytes()

    def test_1056p_frame_peak_memory(self, tmp_path):
        # the float64 result is 11.6 MiB; one band's uint16 row sums and their
        # float64 copy add ~1.8 MiB; whole-frame uint16 sums kept alive through
        # the conversion read 20.3 MiB
        frame = self._bytes((1056, 1920, 3), "random", "read-only", tmp_path)
        tracemalloc.start()
        try:
            nn.mean_pool(frame, 2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_1056p_frame_peak_memory_float32(self, tmp_path):
        # the float32 result is 5.8 MiB, beside one band's uint16 row sums and
        # their float32 copy
        frame = self._bytes((1056, 1920, 3), "random", "read-only", tmp_path)
        tracemalloc.start()
        try:
            nn.mean_pool(frame, 2, 2, np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestSoftmaxCrossEntropy:
    def test_symmetric_logits(self):
        loss, _ = nn.softmax_cross_entropy(np.zeros((1, 2)), [0])
        assert abs(loss[0] - np.log(2)) <= 1e-12

    def test_saturated_correct_prediction(self):
        loss, _ = nn.softmax_cross_entropy(np.array([[10.0, -10.0]]), [0])
        assert abs(loss[0] - 2.061e-9) <= 2e-11

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            logits = rng.normal(size=(1, 2)) * 5
            loss, _ = nn.softmax_cross_entropy(logits, [int(rng.integers(2))])
            assert loss[0] >= 0.0

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = nn.softmax(rng.normal(size=(1, 2)) * 10)
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_leading_axis_rows_match_single_samples(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        logits = nn.dense_forward(x, w, b).output
        probs = nn.softmax(logits * 10)
        assert logits.shape == probs.shape == (5, 3)
        for i in range(5):
            row = nn.dense_forward(x[i : i + 1], w, b).output[0]
            assert np.max(np.abs(logits[i] - row)) <= 1e-15
            assert np.array_equal(probs[i], nn.softmax(logits[i : i + 1] * 10)[0])
        with pytest.raises(ShapeMismatchError):
            nn.dense_forward(x[:, :3], w, b)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(3, 2))
        labels = [1, 0, 1]
        _, dlogits = nn.softmax_cross_entropy(logits, labels)
        err = gradient_check(
            lambda v: nn.softmax_cross_entropy(v, labels)[0].sum(), logits, dlogits,
        )
        assert err <= 1e-8

    def test_bad_label(self):
        with pytest.raises(BadLabelError):
            nn.softmax_cross_entropy(np.zeros((1, 2)), [2])
        with pytest.raises(BadLabelError):
            nn.softmax_cross_entropy(np.zeros((2, 2)), [0, -1])


class TestSgd:
    def test_plain_step(self):
        params = {"w": np.zeros(1)}
        grads = {"w": np.ones(1)}
        opt = nn.SgdOptimizer(learning_rate=0.1, momentum=0.0)
        opt.step(params, grads)
        assert np.allclose(params["w"], -0.1)

    def test_zero_grad_leaves_params(self):
        params = {"w": np.full(3, 1.5)}
        opt = nn.SgdOptimizer(learning_rate=0.1, momentum=0.9)
        opt.step(params, {"w": np.zeros(3)})
        assert params["w"].tolist() == [1.5, 1.5, 1.5]

    def test_two_steps_match_hand_unrolled_oracle(self):
        lr, mu, g1, g2 = 0.1, 0.9, 0.5, -0.25
        v1 = -lr * g1
        w1 = 0.0 + v1
        v2 = mu * v1 - lr * g2
        w2 = w1 + v2
        params = {"w": np.zeros(1)}
        opt = nn.SgdOptimizer(learning_rate=lr, momentum=mu)
        opt.step(params, {"w": np.array([g1])})
        opt.step(params, {"w": np.array([g2])})
        assert abs(params["w"][0] - w2) <= 1e-15

    def test_frozen_parameter_not_updated(self):
        params = {"a": np.zeros(1), "b": np.zeros(1)}
        opt = nn.SgdOptimizer(learning_rate=0.1, frozen=frozenset({"a"}))
        opt.step(params, {"a": np.ones(1), "b": np.ones(1)})
        assert params["a"][0] == 0.0 and params["b"][0] == -0.1

    def test_shape_mismatch(self):
        opt = nn.SgdOptimizer(learning_rate=0.1)
        with pytest.raises(ShapeMismatchError):
            opt.step({"w": np.zeros(2)}, {"w": np.zeros(3)})

    def test_step_descends_convex_quadratic(self):
        # f(w) = 0.5 * sum(c * w^2); one step with lr < 2 / max(c) descends
        c = np.array([1.0, 4.0, 0.5])
        w = np.array([1.0, -2.0, 3.0])
        f0 = 0.5 * np.sum(c * w**2)
        params = {"w": w}
        opt = nn.SgdOptimizer(learning_rate=0.4)  # < 2 / 4
        opt.step(params, {"w": c * w})
        assert 0.5 * np.sum(c * params["w"] ** 2) < f0


class TestTrainConfig:
    def test_defaults(self):
        cfg = nn.TrainConfig()
        assert cfg.epochs == 25 and cfg.momentum == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            nn.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            nn.TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            nn.TrainConfig(batch_size=0)

    def test_numpy_scalars_become_python_numbers(self):
        cfg = nn.TrainConfig(np.int64(3), np.float32(0.5), np.float16(0.25), np.int32(4),
                             np.uint8(7))
        assert [type(v) for v in vars(cfg).values()] == [int, float, float, int, int]
        assert vars(cfg) == vars(nn.TrainConfig(3, 0.5, 0.25, 4, 7))

    # a float or bool count would reach range() or run.json; a negative seed, default_rng
    @pytest.mark.parametrize("setting, message", [
        ({"epochs": 1.5}, "epochs must be an int, got 1.5"),
        ({"epochs": True}, "epochs must be an int, got True"),
        ({"epochs": np.bool_(True)}, "epochs must be an int, got True"),
        ({"batch_size": 2.5}, "batch_size must be an int, got 2.5"),
        ({"batch_size": "8"}, "batch_size must be an int, got '8'"),
        ({"seed": False}, "seed must be an int, got False"),
        ({"seed": 1.0}, "seed must be an int, got 1.0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": np.int64(-1)}, "seed must be >= 0, got -1"),
    ])
    def test_counts_and_seed_must_be_ints(self, setting, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nn.TrainConfig(**setting)

    # a bool would reach run.json as true/false; a string, math.isfinite's TypeError
    @pytest.mark.parametrize("setting, message", [
        ({"learning_rate": True}, "learning_rate must be a real number, got True"),
        ({"learning_rate": np.bool_(True)}, "learning_rate must be a real number, got True"),
        ({"learning_rate": "0.1"}, "learning_rate must be a real number, got '0.1'"),
        ({"momentum": False}, "momentum must be a real number, got False"),
        ({"momentum": None}, "momentum must be a real number, got None"),
    ])
    def test_rates_must_be_real_numbers(self, setting, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nn.TrainConfig(**setting)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="finite"):
            nn.TrainConfig(learning_rate=lr)
