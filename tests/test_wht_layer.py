import numpy as np
import pytest

from whtfire import arch, nn
from whtfire.errors import (
    CacheMissingError,
    ChannelCountNotPowerOfTwoError,
    ShapeMismatchError,
)
from whtfire.fwht import dyadic_convolve_bruteforce, fwht, ifwht
from whtfire.wht_layer import (
    WhtLayerParams,
    wht_layer_backward,
    wht_layer_forward,
)


class TestForward:
    def test_identity_configuration_double(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5, 16))
        out = wht_layer_forward(x, WhtLayerParams.identity(16)).output
        assert np.max(np.abs(out - x)) <= 1e-12

    def test_identity_configuration_single(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 16)).astype(np.float32)
        out = wht_layer_forward(x, WhtLayerParams.identity(16, np.float32)).output
        assert out.dtype == np.float32
        assert np.max(np.abs(out - x)) <= 1e-5

    def test_zero_scale_zeroes_output(self):
        x = np.random.default_rng(2).normal(size=(3, 3, 8))
        params = WhtLayerParams(np.zeros(8))
        assert not wht_layer_forward(x, params).output.any()

    def test_realizes_dyadic_convolution(self):
        rng = np.random.default_rng(3)
        for n in (2, 8, 32, 64):
            x = rng.normal(size=n)
            h = rng.normal(size=n)
            params = WhtLayerParams(fwht(h))
            out = wht_layer_forward(x.reshape(1, 1, n), params).output.ravel()
            oracle = dyadic_convolve_bruteforce(x, h)
            assert np.max(np.abs(out - oracle)) <= 1e-9

    def test_linear_in_scale_on_pass_bins(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 8))
        scale = rng.normal(size=8)
        out1 = wht_layer_forward(x, WhtLayerParams(scale)).output
        out2 = wht_layer_forward(x, WhtLayerParams(2 * scale)).output
        assert np.allclose(out2, 2 * out1, atol=1e-12)

    def test_threshold_closed_at_boundary(self):
        # |u| == lambda passes: scale 1 so u = fwht(x)
        x = np.array([[[1.0, 1.0]]])  # fwht -> [2, 0]
        params = WhtLayerParams(np.ones(2), threshold=2.0)
        out = wht_layer_forward(x, params).output.ravel()
        assert np.allclose(out, [1.0, 1.0])  # the u=2 bin passed

    def test_threshold_kills_small_bins(self):
        x = np.array([[[1.0, 1.0]]])  # spectrum [2, 0]
        params = WhtLayerParams(np.ones(2), threshold=3.0)
        assert not wht_layer_forward(x, params).output.any()

    def test_channel_count_must_be_power_of_two(self):
        with pytest.raises(ChannelCountNotPowerOfTwoError):
            wht_layer_forward(np.zeros((2, 2, 3)), WhtLayerParams(np.ones(3)))

    def test_scale_length_must_match(self):
        with pytest.raises(ShapeMismatchError):
            wht_layer_forward(np.zeros((2, 2, 4)), WhtLayerParams(np.ones(8)))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            WhtLayerParams(np.ones(4), threshold=-0.5)


class TestBackward:
    def test_cache_required(self):
        with pytest.raises(CacheMissingError):
            wht_layer_backward(None, np.zeros((1, 1, 4)))

    def test_identity_passes_gradient_through(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 3, 8))
        io = wht_layer_forward(x, WhtLayerParams.identity(8))
        dy = rng.normal(size=io.output.shape)
        dx, dscale, dlam = wht_layer_backward(io.cache, dy)
        assert np.max(np.abs(dx - dy)) <= 1e-12
        assert dlam == 0.0

    def test_linear_case_exact(self):
        # lambda = 0 keeps the layer fully linear; gradients are exact
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 8))
        scale = rng.normal(size=8)
        params = WhtLayerParams(scale)
        io = wht_layer_forward(x, params)
        dy = rng.normal(size=io.output.shape)
        dx, dscale, _ = wht_layer_backward(io.cache, dy)
        err_x = nn.gradient_check(
            lambda v: float(np.sum(wht_layer_forward(v, params).output * dy)),
            x, dx,
        )
        err_s = nn.gradient_check(
            lambda v: float(
                np.sum(wht_layer_forward(x, WhtLayerParams(v)).output * dy)
            ),
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
        params = WhtLayerParams(scale, threshold=lam)
        io = wht_layer_forward(x, params)
        dy = rng.normal(size=io.output.shape)
        dx, dscale, _ = wht_layer_backward(io.cache, dy)
        err_x = nn.gradient_check(
            lambda v: float(np.sum(wht_layer_forward(v, params).output * dy)),
            x, dx,
        )
        err_s = nn.gradient_check(
            lambda v: float(np.sum(
                wht_layer_forward(x, WhtLayerParams(v, threshold=lam)).output * dy
            )),
            scale, dscale,
        )
        assert err_x <= 1e-6 and err_s <= 1e-6

    def test_threshold_gradient_surrogate(self):
        # fixed convention: d/d(lambda) = -sum(sign(u) * mask * ifwht(dy))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 2, 4))
        params = WhtLayerParams(rng.normal(size=4), threshold=0.5,
                                threshold_trainable=True)
        io = wht_layer_forward(x, params)
        dy = rng.normal(size=io.output.shape)
        _, _, dlam = wht_layer_backward(io.cache, dy)
        t = fwht(x, axis=-1)
        u = t * params.scale
        mask = np.abs(u) >= 0.5
        expected = -np.sum(np.sign(u) * mask * ifwht(dy, axis=-1))
        assert abs(dlam - expected) <= 1e-12
        assert dlam != 0.0

    def test_threshold_gradient_zero_when_not_trainable(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 2, 4))
        params = WhtLayerParams(rng.normal(size=4), threshold=0.5)
        io = wht_layer_forward(x, params)
        _, _, dlam = wht_layer_backward(io.cache, rng.normal(size=x.shape))
        assert dlam == 0.0

    def test_upstream_shape_checked(self):
        x = np.zeros((2, 2, 4))
        io = wht_layer_forward(x, WhtLayerParams.identity(4))
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
