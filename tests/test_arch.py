import numpy as np
import pytest

from whtfire import arch, nn
from whtfire.wht_layer import wht_layer_backward
from whtfire.errors import (
    BadWidthError,
    InvalidDescriptorError,
    ShapeMismatchError,
)


class TestCountParams:
    def test_conv3x3_example(self):
        layer = arch.LayerDescriptor("conv3x3", 3, 8)
        desc = arch.ArchDescriptor("one", (layer,))
        assert arch.count_params(desc) == 216

    def test_wht_layer_count(self):
        layer = arch.LayerDescriptor("wht", 64, 64)
        assert arch.count_params(arch.ArchDescriptor("one", (layer,))) == 64
        trainable = arch.LayerDescriptor("wht", 64, 64, threshold_trainable=True)
        assert arch.count_params(arch.ArchDescriptor("one", (trainable,))) == 65

    def test_resnet50_reference_count(self):
        desc = arch.resnet50_descriptor(num_classes=2)
        total = arch.count_params(desc)
        reference = arch.REFERENCE_PARAM_COUNTS["resnet50"]
        assert abs(total - reference) <= 0.002 * reference
        assert desc.assumptions  # the assumption set ships with the descriptor

    def test_resnet50_count_slope_per_class(self):
        c2 = arch.count_params(arch.resnet50_descriptor(2))
        c3 = arch.count_params(arch.resnet50_descriptor(3))
        c10 = arch.count_params(arch.resnet50_descriptor(10))
        assert c3 - c2 == 2048 + 1
        assert c10 - c2 == 8 * (2048 + 1)

    def test_spectral_preset_strictly_smaller(self):
        full = arch.count_params(arch.resnet50_descriptor(2))
        preset = arch.count_params(arch.wht_resnet50_descriptor(2))
        assert preset < full

    def test_replacing_any_conv_reduces_count(self):
        for stages in ((1,), (2,), (3,), (4,), (1, 2, 3, 4)):
            full = arch.count_params(arch.resnet50_descriptor(2))
            swapped = arch.count_params(
                arch.resnet50_descriptor(2, spectral_stages=stages)
            )
            assert swapped < full

    def test_unknown_kind_rejected(self):
        bad = arch.ArchDescriptor("x", (arch.LayerDescriptor("wavelet", 4, 4),))
        with pytest.raises(InvalidDescriptorError):
            arch.count_params(bad)

    def test_wht_kind_needs_square_power_of_two(self):
        bad = arch.ArchDescriptor("x", (arch.LayerDescriptor("wht", 4, 8),))
        with pytest.raises(InvalidDescriptorError):
            arch.count_params(bad)

    @pytest.mark.parametrize("desc, expected", [
        (arch.resnet50_descriptor(2), 23_512_130),
        (arch.wht_resnet50_descriptor(2), 12_898_370),
        (arch.toy_descriptor("conv-baseline", 8), 1_965),
        (arch.toy_descriptor("wht", 8), 261),
        (arch.toy_descriptor("wht", 8, threshold_trainable=True), 264),
    ], ids=["resnet50", "wht-resnet50", "toy-conv", "toy-wht", "toy-wht-lambda"])
    def test_exact_counts(self, desc, expected):
        assert arch.count_params(desc) == expected
        assert sum(count for _, _, count in arch.param_table(desc)) == expected

    def test_counting_only_kinds_do_not_run(self):
        for kind, count in (("conv7x7", 441), ("batchnorm", 6), ("maxpool", 0)):
            layers = (
                arch.LayerDescriptor(kind, 3, 3, name="x"),
                arch.LayerDescriptor("gap", 3, 3, name="gap"),
            )
            desc = arch.ArchDescriptor("x", layers, input_size=4)
            assert arch.count_params(desc) == count
            with pytest.raises(InvalidDescriptorError):
                arch.param_shapes(desc)
            net = arch.Network(desc, {"w": np.zeros(1)}, seed=0)
            with pytest.raises(InvalidDescriptorError):
                arch.network_forward(net, np.zeros((4, 4, 3)))

    def test_bias_free_kinds_reject_a_bias(self):
        for kind in ("pointwise", "conv3x3"):
            layer = arch.LayerDescriptor(kind, 4, 4, bias=True)
            with pytest.raises(InvalidDescriptorError):
                arch.count_params(arch.ArchDescriptor("x", (layer,)))


class TestToyNets:
    def test_wht_variant_has_fewer_params(self):
        for width in (8, 16, 32):
            conv = arch.toy_descriptor("conv-baseline", width)
            spectral = arch.toy_descriptor("wht", width)
            assert arch.count_params(spectral) < arch.count_params(conv)

    def test_count_matches_instantiated_sizes(self):
        for variant in ("conv-baseline", "wht"):
            net = arch.build_toy_net(variant, 8, 32, seed=3)
            total = sum(p.size for p in net.parameters.values())
            assert total == arch.count_params(net.descriptor)

    def test_trainable_threshold_adds_one_per_block(self):
        base = arch.build_toy_net("wht", 8, 32, seed=0)
        with_lam = arch.build_toy_net("wht", 8, 32, seed=0, threshold_trainable=True)
        n_base = sum(p.size for p in base.parameters.values())
        n_lam = sum(p.size for p in with_lam.parameters.values())
        assert n_lam == n_base + 3
        assert arch.count_params(with_lam.descriptor) == n_lam

    def test_same_seed_is_bit_identical(self):
        a = arch.build_toy_net("wht", 8, 32, seed=11)
        b = arch.build_toy_net("wht", 8, 32, seed=11)
        assert set(a.parameters) == set(b.parameters)
        for name in a.parameters:
            assert np.array_equal(a.parameters[name], b.parameters[name])

    def test_bad_width(self):
        with pytest.raises(BadWidthError):
            arch.build_toy_net("wht", 6)
        with pytest.raises(BadWidthError):
            arch.build_toy_net("wht", 4)

    def test_bad_input_size(self):
        with pytest.raises(InvalidDescriptorError):
            arch.build_toy_net("wht", 8, input_size=48)

    def test_bad_variant(self):
        with pytest.raises(InvalidDescriptorError):
            arch.build_toy_net("resnet", 8)

    def test_both_variants_map_input_to_two_logits(self):
        rng = np.random.default_rng(0)
        patch = rng.random((32, 32, 3))
        for variant in ("conv-baseline", "wht"):
            net = arch.build_toy_net(variant, 8, 32, seed=0)
            logits, _, _ = arch.network_forward(net, patch)
            assert logits.shape == (2,)
            assert np.isfinite(logits).all()


def manual_toy_forward(net, patch, skip_spectral=False):
    """Independent re-implementation of the toy wiring using raw layers."""
    p = net.parameters
    x = patch.astype(net.dtype) - net.dtype.type(0.5)
    x = nn.pointwise_forward(x, p["stem.weight"]).output
    for b in range(3):
        block_in = x
        y = nn.pointwise_forward(x, p[f"block{b}.pw.weight"]).output
        y = nn.relu_forward(y).output
        if f"wht{b}.scale" in p:
            if not skip_spectral:
                from whtfire.wht_layer import WhtLayerParams, wht_layer_forward
                y = wht_layer_forward(y, WhtLayerParams(p[f"wht{b}.scale"])).output
        else:
            y = nn.conv3x3_forward(y, p[f"block{b}.conv.weight"]).output
        y = nn.gain_forward(y, p[f"block{b}.gain"]).output
        x = block_in + y
        if b < 2:
            x = nn.avgpool2_forward(x).output
    feats = nn.gap_forward(x).output
    return nn.dense_forward(feats, p["head.weight"], p["head.bias"]).output


class TestForwardClassify:
    def test_probabilities_sum_to_one(self):
        net = arch.build_toy_net("wht", 8, 32, seed=1)
        patch = np.random.default_rng(1).random((32, 32, 3))
        probs = arch.forward_classify(net, patch)
        assert probs.shape == (2,)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_deterministic(self):
        net = arch.build_toy_net("conv-baseline", 8, 32, seed=2)
        patch = np.random.default_rng(2).random((32, 32, 3))
        assert np.array_equal(
            arch.forward_classify(net, patch), arch.forward_classify(net, patch)
        )

    def test_executor_matches_manual_wiring(self):
        rng = np.random.default_rng(3)
        patch = rng.random((32, 32, 3))
        for variant in ("conv-baseline", "wht"):
            net = arch.build_toy_net(variant, 8, 32, seed=3, dtype=np.float64)
            logits, _, _ = arch.network_forward(net, patch)
            manual = manual_toy_forward(net, patch)
            assert np.max(np.abs(logits - manual)) <= 1e-12

    def test_fresh_spectral_layers_are_identity(self):
        # at init scale == 1 and lambda == 0, so removing the spectral layers
        # changes nothing
        rng = np.random.default_rng(4)
        patch = rng.random((32, 32, 3))
        net = arch.build_toy_net("wht", 8, 32, seed=4, dtype=np.float64)
        with_layers = manual_toy_forward(net, patch)
        without_layers = manual_toy_forward(net, patch, skip_spectral=True)
        assert np.max(np.abs(with_layers - without_layers)) <= 1e-9
        logits, _, _ = arch.network_forward(net, patch)
        assert np.max(np.abs(logits - without_layers)) <= 1e-9

    def test_rejects_wrong_input_shape(self):
        net = arch.build_toy_net("wht", 8, 32, seed=0)
        with pytest.raises(ShapeMismatchError):
            arch.forward_classify(net, np.zeros((64, 64, 3)))


class TestFeatureMap:
    def test_gap_and_head_of_feature_map_match_forward_classify(self):
        rng = np.random.default_rng(5)
        patch = rng.random((32, 32, 3))
        for variant in ("conv-baseline", "wht"):
            net = arch.build_toy_net(variant, 8, 32, seed=5, dtype=np.float64)
            feats = arch.feature_map(net, patch)
            assert feats.shape == (8, 8, 8)
            probs = arch.head_classify(net, feats.mean(axis=(0, 1))[None])
            assert probs.shape == (1, 2)
            assert np.max(np.abs(probs[0] - arch.forward_classify(net, patch))) <= 1e-15

    def test_any_spatial_extent(self):
        net = arch.build_toy_net("wht", 8, 32, seed=6)
        assert arch.feature_map(net, np.zeros((16, 96, 3))).shape == (4, 24, 8)
        with pytest.raises(ShapeMismatchError):
            arch.feature_map(net, np.zeros((16, 96)))

    def test_feature_stride(self):
        assert arch.feature_stride(arch.toy_descriptor("wht")) == 4
        assert arch.feature_stride(arch.toy_descriptor("conv-baseline")) is None


class TestLayerDispatch:
    def test_ops_are_looked_up_when_a_layer_runs(self, monkeypatch):
        # a tracer rebinds module attributes; every layer call must see that
        calls = {"pointwise": 0, "wht": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(nn, "pointwise_forward",
                            counting("pointwise", nn.pointwise_forward))
        monkeypatch.setattr(arch, "wht_layer_forward",
                            counting("wht", arch.wht_layer_forward))
        net = arch.build_toy_net("wht", 8, 32, seed=0)
        arch.network_forward(net, np.zeros((32, 32, 3)))
        assert calls == {"pointwise": 4, "wht": 3}


class TestNetworkBackward:
    def test_every_tensor_of_the_trainable_threshold_net(self, monkeypatch):
        rng = np.random.default_rng(7)
        patch = rng.random((32, 32, 3))
        net = arch.build_toy_net("wht", 8, 32, seed=7, dtype=np.float64,
                                 threshold_trainable=True)
        for b in range(3):  # a positive threshold, so some bins are cut
            net.parameters[f"wht{b}.lambda"][:] = 0.02
        label = 0
        surrogates = []

        def recording(cache, dy):
            out = wht_layer_backward(cache, dy)
            surrogates.append(out[2])
            return out

        monkeypatch.setattr(arch, "wht_layer_backward", recording)
        logits, outputs, caches = arch.network_forward(net, patch)
        _, dlogits = nn.softmax_cross_entropy(logits, label)
        grads = arch.network_backward(net, caches, outputs, dlogits)
        assert set(grads) == set(net.parameters)

        # backward visits the wht layers last to first; lambda's gradient is
        # the layer's soft-threshold surrogate, not a derivative of the loss
        lambdas = sorted(n for n in grads if n.endswith(".lambda"))
        assert lambdas == ["wht0.lambda", "wht1.lambda", "wht2.lambda"]
        assert [grads[n][0] for n in reversed(lambdas)] == surrogates
        assert all(s != 0.0 for s in surrogates)

        def loss_for(name):
            def fun(values):
                net.parameters[name] = values
                lg, _, _ = arch.network_forward(net, patch)
                return nn.softmax_cross_entropy(lg, label)[0]
            return fun

        for name in sorted(set(grads) - set(lambdas)):
            original = net.parameters[name].copy()
            err = nn.gradient_check(loss_for(name), net.parameters[name], grads[name])
            net.parameters[name] = original
            assert err <= 1e-6, f"{name}: {err}"

    def test_selected_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        patch = rng.random((32, 32, 3))
        net = arch.build_toy_net("wht", 8, 32, seed=5, dtype=np.float64)
        label = 1

        def loss_for(name):
            def fun(values):
                net.parameters[name] = values
                logits, _, _ = arch.network_forward(net, patch)
                return nn.softmax_cross_entropy(logits, label)[0]
            return fun

        logits, outputs, caches = arch.network_forward(net, patch)
        _, dlogits = nn.softmax_cross_entropy(logits, label)
        grads = arch.network_backward(net, caches, outputs, dlogits)
        for name in ("head.bias", "block1.gain", "wht2.scale", "stem.weight"):
            original = net.parameters[name].copy()
            err = nn.gradient_check(loss_for(name), net.parameters[name], grads[name])
            net.parameters[name] = original
            assert err <= 1e-6, f"{name}: {err}"

    def test_conv_variant_gradients(self):
        rng = np.random.default_rng(6)
        patch = rng.random((32, 32, 3))
        net = arch.build_toy_net("conv-baseline", 8, 32, seed=6, dtype=np.float64)
        logits, outputs, caches = arch.network_forward(net, patch)
        _, dlogits = nn.softmax_cross_entropy(logits, 0)
        grads = arch.network_backward(net, caches, outputs, dlogits)

        def fun(values):
            net.parameters["block0.conv.weight"] = values
            lg, _, _ = arch.network_forward(net, patch)
            return nn.softmax_cross_entropy(lg, 0)[0]

        original = net.parameters["block0.conv.weight"].copy()
        err = nn.gradient_check(fun, net.parameters["block0.conv.weight"],
                                grads["block0.conv.weight"])
        net.parameters["block0.conv.weight"] = original
        assert err <= 1e-6
