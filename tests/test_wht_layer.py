import numpy as np
import pytest

from whtfire import arch, dataio, wht_layer
from whtfire.errors import (
    CacheMissingError,
    ChannelCountNotPowerOfTwoError,
    ShapeMismatchError,
)
from whtfire.fwht import fwht, ifwht
from whtfire.wht_layer import wht_layer_backward, wht_layer_forward
from oracles import dyadic_convolve_bruteforce, gradient_check


class TestForward:
    def test_identity_configuration_double(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 16))
        out = wht_layer_forward(x, np.ones(16)).output
        assert np.max(np.abs(out - x)) <= 1e-12

    def test_identity_configuration_single(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 16)).astype(np.float32)
        out = wht_layer_forward(x, np.ones(16, np.float32)).output
        assert out.dtype == np.float32
        assert np.max(np.abs(out - x)) <= 1e-5

    def test_zero_scale_zeroes_output(self):
        x = np.random.default_rng(2).normal(size=(3, 3, 8))
        assert not wht_layer_forward(x, np.zeros(8)).output.any()

    def test_realizes_dyadic_convolution(self):
        rng = np.random.default_rng(3)
        for n in (2, 8, 32, 64):
            x = rng.normal(size=n)
            h = rng.normal(size=n)
            out = wht_layer_forward(x.reshape(1, 1, n), fwht(h)).output.ravel()
            oracle = dyadic_convolve_bruteforce(x, h)
            assert np.max(np.abs(out - oracle)) <= 1e-9

    def test_linear_in_scale_on_pass_bins(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 8))
        scale = rng.normal(size=8)
        out1 = wht_layer_forward(x, scale).output
        out2 = wht_layer_forward(x, 2 * scale).output
        assert np.allclose(out2, 2 * out1, atol=1e-12)

    def test_threshold_closed_at_boundary(self):
        # |u| == lambda passes: scale 1 so u = fwht(x)
        x = np.array([[[1.0, 1.0]]])  # fwht -> [2, 0]
        out = wht_layer_forward(x, np.ones(2), np.array([2.0])).output.ravel()
        assert np.allclose(out, [1.0, 1.0])  # the u=2 bin passed

    def test_threshold_kills_small_bins(self):
        x = np.array([[[1.0, 1.0]]])  # spectrum [2, 0]
        assert not wht_layer_forward(x, np.ones(2), np.array([3.0])).output.any()

    def test_channel_count_must_be_power_of_two(self):
        with pytest.raises(ChannelCountNotPowerOfTwoError):
            wht_layer_forward(np.zeros((2, 2, 3)), np.ones(3))

    def test_scale_length_must_match(self):
        with pytest.raises(ShapeMismatchError):
            wht_layer_forward(np.zeros((2, 2, 4)), np.ones(8))

    def test_negative_threshold_rejected(self, tmp_path):
        # no training run writes one; loading is where a threshold enters
        net = arch.build_toy_net("wht", 8, 32, threshold_trainable=True)
        net.parameters["wht0.lambda"][:] = -0.5
        dataio.checkpoint_save(net, {}, tmp_path / "c.whtc")
        with pytest.raises(ValueError):
            dataio.checkpoint_load(tmp_path / "c.whtc")


class TestBackward:
    def test_cache_required(self):
        with pytest.raises(CacheMissingError):
            wht_layer_backward(None, np.zeros((1, 1, 4)))

    def test_identity_passes_gradient_through(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 3, 8))
        io = wht_layer_forward(x, np.ones(8))
        dy = rng.normal(size=io.output.shape)
        dx, dscale = wht_layer_backward(io.cache, dy)  # no threshold, no dlam
        assert np.max(np.abs(dx - dy)) <= 1e-12

    def test_linear_case_exact(self):
        # lambda = 0 keeps the layer fully linear; gradients are exact
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 8))
        scale = rng.normal(size=8)
        io = wht_layer_forward(x, scale)
        dy = rng.normal(size=io.output.shape)
        dx, dscale = wht_layer_backward(io.cache, dy)
        err_x = gradient_check(
            lambda v: float(np.sum(wht_layer_forward(v, scale).output * dy)),
            x, dx,
        )
        err_s = gradient_check(
            lambda v: float(np.sum(wht_layer_forward(x, v).output * dy)),
            scale, dscale,
        )
        assert err_x <= 1e-9 and err_s <= 1e-9

    def test_generic_point_away_from_boundary(self):
        rng = np.random.default_rng(7)
        lam = 0.8
        x = rng.normal(size=(2, 2, 8))
        scale = rng.normal(size=8)

        def boundary_gap(xv, sv):
            u = fwht(xv, axis=-1) * sv
            return float(np.min(np.abs(np.abs(u) - lam)))

        # nudge the sample until every |u| is clearly away from the threshold
        while boundary_gap(x, scale) <= 1e-3:
            x = rng.normal(size=(2, 2, 8))
            scale = rng.normal(size=8)
        lam_t = np.array([lam])
        io = wht_layer_forward(x, scale, lam_t)
        dy = rng.normal(size=io.output.shape)
        dx, dscale, _ = wht_layer_backward(io.cache, dy)
        err_x = gradient_check(
            lambda v: float(np.sum(wht_layer_forward(v, scale, lam_t).output * dy)),
            x, dx,
        )
        err_s = gradient_check(
            lambda v: float(np.sum(wht_layer_forward(x, v, lam_t).output * dy)),
            scale, dscale,
        )
        assert err_x <= 1e-6 and err_s <= 1e-6

    def test_threshold_gradient_surrogate(self):
        # fixed convention: d/d(lambda) = -sum(sign(u) * mask * ifwht(dy))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 2, 4))
        scale = rng.normal(size=4)
        io = wht_layer_forward(x, scale, np.array([0.5]))
        dy = rng.normal(size=io.output.shape)
        _, _, dlam = wht_layer_backward(io.cache, dy)
        assert dlam.shape == (1,) and dlam.dtype == np.float64
        dlam = dlam[0]
        t = fwht(x, axis=-1)
        u = t * scale
        mask = np.abs(u) >= 0.5
        expected = -np.sum(np.sign(u) * mask * ifwht(dy, axis=-1))
        assert abs(dlam - expected) <= 1e-12
        assert dlam != 0.0

    def test_threshold_gradient_zero_when_not_trainable(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 2, 4))
        io = wht_layer_forward(x, rng.normal(size=4))
        grads = wht_layer_backward(io.cache, rng.normal(size=x.shape))
        assert len(grads) == 2  # (dx, dscale): no threshold tensor, no dlam

    def test_upstream_shape_checked(self):
        x = np.zeros((2, 2, 4))
        io = wht_layer_forward(x, np.ones(4))
        with pytest.raises(ShapeMismatchError):
            wht_layer_backward(io.cache, np.zeros((2, 2, 8)))


def one_layer_count(kind, n, threshold_trainable=False):
    layer = arch.LayerDescriptor(kind, n, n, threshold_trainable=threshold_trainable)
    return arch.count_params(arch.ArchDescriptor("one", (layer,)))


class TestParameterCount:
    def test_counts(self):
        assert one_layer_count("wht", 64) == 64
        assert one_layer_count("wht", 64, threshold_trainable=True) == 65

    def test_always_beats_dense_3x3_conv(self):
        for m in range(1, 11):
            n = 1 << m
            conv = one_layer_count("conv3x3", n)
            assert conv == 9 * n * n
            assert one_layer_count("wht", n, True) < conv
            assert one_layer_count("wht", n) < conv


CROSSOVER = wht_layer._PRODUCT_MAX_CHANNELS
WIDTHS = tuple(sorted({8, 64, CROSSOVER, 2 * CROSSOVER}))


def two_transform_formula(x, scale, dy):
    """The threshold-free layer and its gradients written with fwht/ifwht."""
    t = fwht(x, axis=-1)
    g = ifwht(dy, axis=-1)
    return ifwht(t * scale, axis=-1), fwht(g * scale, axis=-1), np.sum(g * t, axis=(0, 1, 2))


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestProductPath:
    """Up to the crossover width the threshold-free layer is one N x N product."""

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("lam", [None, np.array([0.0])])
    def test_matches_the_two_transform_formula(self, n, lam):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(2, 3, 5, n))
        dy = rng.normal(size=x.shape)
        scale = rng.normal(size=n)
        io = wht_layer_forward(x, scale, lam)
        dx, dscale, *_ = wht_layer_backward(io.cache, dy)
        want = two_transform_formula(x, scale, dy)
        for got, expected in zip((io.output, dx, dscale), want):
            assert got.dtype == np.float64
            assert rel_err(got, expected) <= 1e-12

    @pytest.mark.parametrize("n", WIDTHS)
    def test_is_the_dyadic_convolution(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.normal(size=(1, 1, 2, n))
        h = rng.normal(size=n)
        out = wht_layer_forward(x, fwht(h)).output
        for pos in np.ndindex(x.shape[:-1]):
            oracle = dyadic_convolve_bruteforce(x[pos], h)
            assert rel_err(out[pos], oracle) <= 1e-12

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("lam", [None, np.array([0.5])])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf inside the transform
    def test_non_finite_input_stays_non_finite_at_its_pixel(self, n, lam, bad):
        rng = np.random.default_rng(n + 2)
        x = rng.normal(size=(2, 2, 2, n))
        x[1, 0, 1, n // 2] = bad
        out = wht_layer_forward(x, rng.normal(size=n), lam).output
        finite = np.isfinite(out).all(axis=-1)
        assert not finite[1, 0, 1]
        finite[1, 0, 1] = True
        assert finite.all()

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("lam", [None, np.array([0.5], np.float32)])
    def test_float32_stays_float32(self, n, lam):
        rng = np.random.default_rng(n + 3)
        x = rng.normal(size=(1, 2, 2, n)).astype(np.float32)
        scale = rng.normal(size=n).astype(np.float32)
        io = wht_layer_forward(x, scale, lam)
        grads = wht_layer_backward(io.cache, np.ones_like(io.output))
        assert io.output.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads)

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("lam", [None, np.array([0.5])])
    def test_cache_is_checked(self, n, lam):
        io = wht_layer_forward(np.ones((1, 2, 2, n)), np.ones(n), lam)
        with pytest.raises(ShapeMismatchError):
            wht_layer_backward(io.cache, np.ones((1, 2, 3, n)))
        with pytest.raises(CacheMissingError):
            wht_layer_backward(None, io.output)

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("lam", [None, np.array([0.5])])
    def test_cache_holds_at_most_two_full_size_arrays(self, n, lam):
        x = np.ones((1, 4, 4, n))
        cache = wht_layer_forward(x, np.ones(n), lam).cache
        full = [a for a in cache if isinstance(a, np.ndarray) and a.shape == x.shape]
        product = lam is None and n <= CROSSOVER
        assert len(full) == (1 if product else 2)
