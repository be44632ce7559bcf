import dataclasses
import hashlib

import numpy as np
import pytest

from whtfire import arch, nn, wht_layer
from whtfire.errors import (
    BadWidthError,
    InvalidDescriptorError,
    ShapeMismatchError,
)
from oracles import gradient_check, network_backward_pending


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

    def test_unknown_kind_rejected(self):
        # refused by counting, instantiation and the executor alike
        layers = (arch.LayerDescriptor("wavelet", 3, 3, name="x"),
                  arch.LayerDescriptor("gap", 3, 3, name="gap"))
        bad = arch.ArchDescriptor("x", layers, input_size=4)
        with pytest.raises(InvalidDescriptorError):
            arch.count_params(bad)
        with pytest.raises(InvalidDescriptorError):
            arch.param_specs(bad)
        net = arch.Network(bad, {"w": np.zeros(1)}, seed=0)
        with pytest.raises(InvalidDescriptorError):
            arch.network_forward(net, np.zeros((1, 4, 4, 3)))

    def test_counting_only_kinds_do_not_run(self):
        # the kinds that were once counted but never run are now unknown
        for kind in ("conv7x7", "batchnorm", "maxpool"):
            layers = (
                arch.LayerDescriptor(kind, 3, 3, name="x"),
                arch.LayerDescriptor("gap", 3, 3, name="gap"),
            )
            desc = arch.ArchDescriptor("x", layers, input_size=4)
            with pytest.raises(InvalidDescriptorError):
                arch.count_params(desc)
            with pytest.raises(InvalidDescriptorError):
                arch.param_specs(desc)
            net = arch.Network(desc, {"w": np.zeros(1)}, seed=0)
            with pytest.raises(InvalidDescriptorError):
                arch.network_forward(net, np.zeros((1, 4, 4, 3)))

    def test_wht_kind_needs_square_power_of_two(self):
        bad = arch.ArchDescriptor("x", (arch.LayerDescriptor("wht", 4, 8),))
        with pytest.raises(InvalidDescriptorError):
            arch.count_params(bad)

    @pytest.mark.parametrize("desc, expected", [
        (arch.toy_descriptor("conv-baseline", 8), 1_965),
        (arch.toy_descriptor("wht", 8), 261),
        (arch.toy_descriptor("wht", 8, threshold_trainable=True), 264),
    ], ids=["toy-conv", "toy-wht", "toy-wht-lambda"])
    def test_exact_counts(self, desc, expected):
        assert arch.count_params(desc) == expected
        assert sum(count for _, _, count in arch.param_table(desc)) == expected


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
        batch = rng.random((1, 32, 32, 3))
        for variant in ("conv-baseline", "wht"):
            net = arch.build_toy_net(variant, 8, 32, seed=0)
            logits, _ = arch.network_forward(net, batch)
            assert logits.shape == (1, 2)
            assert np.isfinite(logits).all()


# sha256 over each initial tensor's name and bytes, in layer order, at seed 0.
# PCG64 draws are the same on every platform, so these pin each tensor's
# fill, the fan-in bounds and the order of the draws.
INIT_DIGESTS = {
    ("wht", False, 8, "float32"):
        "c5dcfcdafa38223fec5376b82b94eacf1b062fecba90367c1e6e98f8228cb0db",
    ("wht", False, 8, "float64"):
        "b3a9f113bcd68a2570e2a9b899dc4f95369488740ed41d6288fc283bedc33b36",
    ("wht", False, 64, "float32"):
        "d793006e3355da9d5727e81fcaf987a7dd083a43e3c2fb652e455a314c4b27dd",
    ("wht", False, 64, "float64"):
        "2486f4d1ebfad76ca56d16257de76699352bc9b9bb16ede1fa50e16b5ac9a062",
    ("wht", True, 8, "float32"):
        "5a24489652ad1005e2465a9b427d65e7f143a95b91b34ffdc508fba8109f16f2",
    ("wht", True, 8, "float64"):
        "48a3e9008d0ebef11e0b8bf6689064675937e7274b43a3091b244cf8544a6e55",
    ("wht", True, 64, "float32"):
        "206c532fab821b94eeeedda0067ff72307a5bec8d28c8e6373fc750a4fdd6cd4",
    ("wht", True, 64, "float64"):
        "063b8e14abeed0d2c4b548ff03fd08541c208ca2e34e71aeb8520d4a508cdd41",
    ("conv-baseline", False, 8, "float32"):
        "25aef2d58981b1620924d64d8c28cee04674fbe233aa65917a54d665a62d046f",
    ("conv-baseline", False, 8, "float64"):
        "126b96797b6fd58ba0026497830e9b23e0a2138baa0af85a462be4b87fbed6c1",
    ("conv-baseline", False, 64, "float32"):
        "44d0e340cba4783fcac9dc9b4ce17bf4d6cbd5e7dcc7308262c3ac858d923315",
    ("conv-baseline", False, 64, "float64"):
        "0c1558d29a04332b3d8796308c660afa114bc980c9ba382380498bb768b13f2a",
}


@pytest.mark.parametrize("variant, lam, width, dtype", sorted(INIT_DIGESTS))
def test_initial_tensors_are_pinned(variant, lam, width, dtype):
    desc = arch.toy_descriptor(variant, width, threshold_trainable=lam)
    digest = hashlib.sha256()
    for name, t in arch.init_parameters(desc, 0, np.dtype(dtype)).items():
        assert t.dtype == dtype
        digest.update(name.encode())
        digest.update(t.tobytes())
    assert digest.hexdigest() == INIT_DIGESTS[variant, lam, width, dtype]


def manual_toy_forward(net, batch, skip_spectral=False):
    """Independent re-implementation of the toy wiring using raw layers."""
    p = net.parameters
    x = batch.astype(net.dtype) - net.dtype.type(0.5)
    x = nn.pointwise_forward(x, p["stem.weight"]).output
    for b in range(3):
        block_in = x
        y = nn.pointwise_forward(x, p[f"block{b}.pw.weight"]).output
        y = nn.relu_forward(y).output
        if f"wht{b}.scale" in p:
            if not skip_spectral:
                y = wht_layer.wht_layer_forward(y, p[f"wht{b}.scale"]).output
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
        batch = rng.random((2, 32, 32, 3))
        for variant in ("conv-baseline", "wht"):
            net = arch.build_toy_net(variant, 8, 32, seed=3, dtype=np.float64)
            logits, _ = arch.network_forward(net, batch)
            manual = manual_toy_forward(net, batch)
            assert np.max(np.abs(logits - manual)) <= 1e-12

    def test_fresh_spectral_layers_are_identity(self):
        # at init scale == 1 and lambda == 0, so removing the spectral layers
        # changes nothing
        rng = np.random.default_rng(4)
        batch = rng.random((2, 32, 32, 3))
        net = arch.build_toy_net("wht", 8, 32, seed=4, dtype=np.float64)
        with_layers = manual_toy_forward(net, batch)
        without_layers = manual_toy_forward(net, batch, skip_spectral=True)
        assert np.max(np.abs(with_layers - without_layers)) <= 1e-9
        logits, _ = arch.network_forward(net, batch)
        assert np.max(np.abs(logits - without_layers)) <= 1e-9

    def test_rejects_wrong_input_shape(self):
        net = arch.build_toy_net("wht", 8, 32, seed=0)
        with pytest.raises(ShapeMismatchError):
            arch.forward_classify(net, np.zeros((64, 64, 3)))


class TestFireProbabilities:
    # the largest differences measured over four seeds were 0.0 in float32 and
    # 1.1e-16 in float64, where a chunk's products round apart from one sample's;
    # 1e-7 is about one float32 ulp of a unit logit, 1e-15 a few float64 ulps of
    # a probability
    TOL = {np.float64: 1e-15, np.float32: 1e-7}

    # chunks of 8 * 32 * 32 input pixels, the last one partial
    @pytest.mark.parametrize("size,chunks", [(32, [8, 1]), (64, [2, 2, 1]), (224, [1, 1])],
                             ids=["32px", "64px", "224px"])
    @pytest.mark.parametrize("variant", ["wht", "conv-baseline"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_per_sample_forward_classify(self, monkeypatch, size, chunks, variant, dtype):
        net = arch.build_toy_net(variant, 8, size, seed=5, dtype=dtype)
        images = np.random.default_rng(size).random((sum(chunks), size, size, 3)).astype(dtype)
        batches, forward = [], arch.network_forward

        def recording(net, x, backward=True):
            batches.append((len(x), backward))
            return forward(net, x, backward)

        monkeypatch.setattr(arch, "network_forward", recording)
        got = arch.fire_probabilities(net, images)
        monkeypatch.undo()
        # a conv net's pool threads may start the chunks in any order
        assert sorted(batches, reverse=True) == [(n, False) for n in chunks]
        want = [arch.forward_classify(net, image)[1] for image in images]
        assert got.dtype == np.float64 and got.shape == (len(images),)
        assert np.max(np.abs(got - want)) <= self.TOL[dtype]
        assert np.unique(got).size == len(images)  # a sample out of place shows

    @pytest.mark.parametrize("variant", ["wht", "conv-baseline"])
    def test_no_images_give_no_probabilities(self, variant):
        net = arch.build_toy_net(variant, 8, 32, seed=0)
        for images in ([], np.zeros((0, 32, 32, 3))):
            got = arch.fire_probabilities(net, images)
            assert got.dtype == np.float64 and got.shape == (0,)


class TestFeatureMap:
    def test_gap_and_head_of_feature_map_match_forward_classify(self):
        rng = np.random.default_rng(5)
        patch = rng.random((32, 32, 3))
        for variant in ("conv-baseline", "wht"):
            net = arch.build_toy_net(variant, 8, 32, seed=5, dtype=np.float64)
            feats = arch.feature_map(net, patch[None])
            assert feats.shape == (1, 8, 8, 8)
            probs = arch.head_classify(net, feats.mean(axis=(1, 2)))
            assert probs.shape == (1, 2)
            assert np.max(np.abs(probs[0] - arch.forward_classify(net, patch))) <= 1e-15

    def test_any_spatial_extent(self):
        net = arch.build_toy_net("wht", 8, 32, seed=6)
        assert arch.feature_map(net, np.zeros((1, 16, 96, 3))).shape == (1, 4, 24, 8)
        with pytest.raises(ShapeMismatchError):
            arch.feature_map(net, np.zeros((1, 16, 96)))

    def test_a_descriptor_without_gap_is_refused(self):
        net = arch.build_toy_net("wht", 8, 32, seed=6)
        desc = dataclasses.replace(net.descriptor, layers=net.descriptor.layers[:18])
        headless = arch.Network(desc, net.parameters, net.seed)
        with pytest.raises(InvalidDescriptorError, match="no gap layer"):
            arch.feature_map(headless, np.zeros((1, 32, 32, 3)))
        with pytest.raises(InvalidDescriptorError, match="no gap layer"):
            arch.head_classify(headless, np.zeros((1, 8)))

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
        monkeypatch.setattr(wht_layer, "wht_layer_forward",
                            counting("wht", wht_layer.wht_layer_forward))
        net = arch.build_toy_net("wht", 8, 32, seed=0)
        arch.network_forward(net, np.zeros((1, 32, 32, 3)))
        assert calls == {"pointwise": 4, "wht": 3}


class TestNetworkBackward:
    def test_every_tensor_of_the_trainable_threshold_net(self, monkeypatch):
        rng = np.random.default_rng(7)
        batch = rng.random((1, 32, 32, 3))
        net = arch.build_toy_net("wht", 8, 32, seed=7, dtype=np.float64,
                                 threshold_trainable=True)
        for b in range(3):  # a positive threshold, so some bins are cut
            net.parameters[f"wht{b}.lambda"][:] = 0.02
        label = 0
        surrogates = []

        original_backward = wht_layer.wht_layer_backward

        def recording(cache, dy, input_grad=True):
            out = original_backward(cache, dy, input_grad)
            surrogates.append(out[2][0])
            return out

        monkeypatch.setattr(wht_layer, "wht_layer_backward", recording)
        logits, caches = arch.network_forward(net, batch)
        _, dlogits = nn.softmax_cross_entropy(logits, [label])
        grads = arch.network_backward(net, caches, dlogits)
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
                lg, _ = arch.network_forward(net, batch)
                return nn.softmax_cross_entropy(lg, [label])[0][0]
            return fun

        for name in sorted(set(grads) - set(lambdas)):
            original = net.parameters[name].copy()
            err = gradient_check(loss_for(name), net.parameters[name], grads[name])
            net.parameters[name] = original
            assert err <= 1e-6, f"{name}: {err}"

    def test_selected_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        batch = rng.random((1, 32, 32, 3))
        net = arch.build_toy_net("wht", 8, 32, seed=5, dtype=np.float64)
        label = 1

        def loss_for(name):
            def fun(values):
                net.parameters[name] = values
                logits, _ = arch.network_forward(net, batch)
                return nn.softmax_cross_entropy(logits, [label])[0][0]
            return fun

        logits, caches = arch.network_forward(net, batch)
        _, dlogits = nn.softmax_cross_entropy(logits, [label])
        grads = arch.network_backward(net, caches, dlogits)
        for name in ("head.bias", "block1.gain", "wht2.scale", "stem.weight"):
            original = net.parameters[name].copy()
            err = gradient_check(loss_for(name), net.parameters[name], grads[name])
            net.parameters[name] = original
            assert err <= 1e-6, f"{name}: {err}"

    def test_conv_variant_gradients(self):
        rng = np.random.default_rng(6)
        batch = rng.random((1, 32, 32, 3))
        net = arch.build_toy_net("conv-baseline", 8, 32, seed=6, dtype=np.float64)
        logits, caches = arch.network_forward(net, batch)
        _, dlogits = nn.softmax_cross_entropy(logits, [0])
        grads = arch.network_backward(net, caches, dlogits)

        def fun(values):
            net.parameters["block0.conv.weight"] = values
            lg, _ = arch.network_forward(net, batch)
            return nn.softmax_cross_entropy(lg, [0])[0][0]

        original = net.parameters["block0.conv.weight"].copy()
        err = gradient_check(fun, net.parameters["block0.conv.weight"],
                             grads["block0.conv.weight"])
        net.parameters["block0.conv.weight"] = original
        assert err <= 1e-6


class TestOneGradientWalk:
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant, lam", [("wht", False), ("wht", True),
                                              ("conv-baseline", False)])
    def test_every_gradient_matches_the_pending_map(self, variant, lam, dtype, batch):
        rng = np.random.default_rng(batch)
        net = arch.build_toy_net(variant, 8, 32, seed=batch, dtype=dtype,
                                 threshold_trainable=lam)
        for name, p in net.parameters.items():
            if name.endswith(".lambda"):
                p[:] = 0.05  # cuts some bins
        logits, caches = arch.network_forward(net, rng.random((batch, 32, 32, 3)))
        _, dlogits = nn.softmax_cross_entropy(logits, rng.integers(0, 2, batch))
        grads = arch.network_backward(net, caches, dlogits)
        want = network_backward_pending(net, caches, dlogits)
        assert set(grads) == set(want) == set(net.parameters)
        for name, g in want.items():
            assert grads[name].dtype == g.dtype and grads[name].shape == g.shape, name
            assert np.array_equal(grads[name], g), name

    def test_a_first_layer_without_tensors_is_not_run(self, monkeypatch):
        layers = (arch.LayerDescriptor("relu", 3, 3),
                  arch.LayerDescriptor("pointwise", 3, 4, name="pw"),
                  arch.LayerDescriptor("gap", 4, 4),
                  arch.LayerDescriptor("dense", 4, 2, name="head"))
        desc = arch.ArchDescriptor("relu-first", layers, input_size=4)
        net = arch.Network(desc, arch.init_parameters(desc, 1), 1)
        logits, caches = arch.network_forward(net, np.random.default_rng(1).random((2, 4, 4, 3)))
        _, dlogits = nn.softmax_cross_entropy(logits, [0, 1])
        want = network_backward_pending(net, caches, dlogits)
        monkeypatch.setattr(nn, "relu_backward", None)  # a call would raise
        grads = arch.network_backward(net, caches, dlogits)
        assert set(grads) == set(want) == {"pw.weight", "head.weight", "head.bias"}
        for name, g in want.items():
            assert np.array_equal(grads[name], g), name


class TestBatchEquivalence:
    @pytest.mark.parametrize("variant", ["wht", "conv-baseline"])
    def test_batch_matches_a_loop_of_single_samples(self, variant):
        # float64; the wht net has a trainable threshold that cuts some bins
        rng = np.random.default_rng(11)
        net = arch.build_toy_net(variant, 8, 32, seed=11, dtype=np.float64,
                                 threshold_trainable=variant == "wht")
        for name, p in net.parameters.items():
            if name.endswith(".lambda"):
                p[:] = 0.05
        batch = rng.random((5, 32, 32, 3))
        labels = np.array([0, 1, 1, 0, 1])

        logits, caches = arch.network_forward(net, batch)
        _, dlogits = nn.softmax_cross_entropy(logits, labels)
        grads = arch.network_backward(net, caches, dlogits)

        looped = {name: np.zeros_like(p) for name, p in net.parameters.items()}
        for i in range(5):
            one, one_caches = arch.network_forward(net, batch[i : i + 1])
            assert np.max(np.abs(logits[i] - one[0])) <= 1e-12 * np.max(np.abs(one))
            _, one_dlogits = nn.softmax_cross_entropy(one, labels[i : i + 1])
            for name, g in arch.network_backward(net, one_caches, one_dlogits).items():
                looped[name] += g
        for name, want in looped.items():
            assert np.any(want != 0), name
            err = np.max(np.abs(grads[name] - want)) / np.max(np.abs(want))
            assert err <= 1e-12, f"{name}: {err}"


class TestInference:
    # (variant, trainable threshold): the λ path runs the two transforms
    NETS = [("conv-baseline", False), ("wht", False), ("wht", True)]

    @pytest.mark.parametrize("variant, lam", NETS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_logits_are_the_training_forwards_bits(self, variant, lam, dtype, batch):
        net = arch.build_toy_net(variant, 8, 32, seed=5, dtype=dtype, threshold_trainable=lam)
        for name, p in net.parameters.items():
            if name.endswith(".lambda"):
                p[:] = 0.05  # a positive threshold, so some bins are cut
        x = np.random.default_rng(5).random((batch, 32, 32, 3))
        trained, caches = arch.network_forward(net, x)
        inferred, none = arch.network_forward(net, x, backward=False)
        assert none is None and len(caches) == len(net.descriptor.layers)
        assert inferred.dtype == trained.dtype == dtype
        assert inferred.tobytes() == trained.tobytes()

    def test_an_add_writes_into_no_held_output_or_cache(self):
        # the first add's input is the stem output the second one reads; the
        # second's input is the output relu caches for a backward
        layers = (arch.LayerDescriptor("pointwise", 3, 8, name="stem"),
                  arch.LayerDescriptor("add_skip", 8, 8, skip_from=0),
                  arch.LayerDescriptor("relu", 8, 8),
                  arch.LayerDescriptor("add_skip", 8, 8, skip_from=0))
        desc = arch.ArchDescriptor("skips", layers)
        net = arch.Network(desc, arch.init_parameters(desc, 0), 0)
        x = np.random.default_rng(0).random((1, 4, 4, 3)).astype(np.float32) - 0.5
        stem = x @ net.parameters["stem.weight"]
        relu = np.maximum(stem + stem, 0)
        for backward in (True, False):
            out, caches = arch._run_layers(net, x, layers, backward)
            assert out.tobytes() == (relu + stem).tobytes()
            if backward:
                assert caches[2][0].tobytes() == relu.tobytes()
