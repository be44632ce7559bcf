import numpy as np
import pytest

from whtfire import nn
from whtfire.errors import BadLabelError, ShapeMismatchError


def conv3x3_direct(x, w, stride=1):
    """Six-loop reference convolution (padding 1)."""
    hh, ww, cin = x.shape
    cout = w.shape[3]
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    ho = (hh - 1) // stride + 1
    wo = (ww - 1) // stride + 1
    out = np.zeros((ho, wo, cout))
    for i in range(ho):
        for j in range(wo):
            for di in range(3):
                for dj in range(3):
                    for co in range(cout):
                        out[i, j, co] += xp[i * stride + di, j * stride + dj] @ w[di, dj, :, co]
    return out


class TestConv3x3:
    def test_constant_field_interior(self):
        v = 0.7
        x = np.full((6, 6, 1), v)
        w = np.ones((3, 3, 1, 1))
        out = nn.conv3x3_forward(x, w).output
        assert np.allclose(out[1:-1, 1:-1], 9 * v)

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4, 3))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[1, 1, c, c] = 1.0
        assert np.allclose(nn.conv3x3_forward(x, w).output, x)

    def test_matches_direct_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 5, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        out = nn.conv3x3_forward(x, w).output
        assert np.max(np.abs(out - conv3x3_direct(x, w))) <= 1e-6

    def test_stride_two_matches_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 6, 2))
        w = rng.normal(size=(3, 3, 2, 2))
        out = nn.conv3x3_forward(x, w, stride=2).output
        assert np.max(np.abs(out - conv3x3_direct(x, w, stride=2))) <= 1e-6

    def test_backward_zero_upstream(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4, 2))
        w = rng.normal(size=(3, 3, 2, 2))
        io = nn.conv3x3_forward(x, w)
        dx, dw = nn.conv3x3_backward(io.cache, np.zeros_like(io.output))
        assert not dx.any() and not dw.any()

    def test_backward_identity_kernel(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 4, 2))
        w = np.zeros((3, 3, 2, 2))
        for c in range(2):
            w[1, 1, c, c] = 1.0
        io = nn.conv3x3_forward(x, w)
        dy = rng.normal(size=io.output.shape)
        dx, _ = nn.conv3x3_backward(io.cache, dy)
        assert np.allclose(dx, dy)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        dy = rng.normal(size=(4, 4, 3))
        io = nn.conv3x3_forward(x, w)
        dx, dw = nn.conv3x3_backward(io.cache, dy)
        err_w = nn.gradient_check(
            lambda wv: float(np.sum(nn.conv3x3_forward(x, wv).output * dy)), w, dw
        )
        err_x = nn.gradient_check(
            lambda xv: float(np.sum(nn.conv3x3_forward(xv, w).output * dy)), x, dx
        )
        assert err_w <= 1e-6 and err_x <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            nn.conv3x3_forward(np.zeros((4, 4, 2)), np.zeros((3, 3, 3, 2)))


class TestSimpleLayers:
    def test_relu_values(self):
        out = nn.relu_forward(np.array([-1.0, 0.0, 2.0])).output
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_relu_backward_masks_nonpositive(self):
        x = np.array([-1.0, 0.0, 2.0])
        io = nn.relu_forward(x)
        dx = nn.relu_backward(io.cache, np.ones(3))
        assert dx.tolist() == [0.0, 0.0, 1.0]

    def test_gap_constant_channel(self):
        c = 3.25
        x = np.full((4, 5, 2), c)
        assert np.allclose(nn.gap_forward(x).output, c)

    def test_pointwise_matches_matmul(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 3, 4))
        w = rng.normal(size=(4, 2))
        assert np.allclose(nn.pointwise_forward(x, w).output, x @ w)

    def test_avgpool2_checkerboard(self):
        x = np.zeros((4, 4, 1))
        x[::2, 1::2] = 1.0
        x[1::2, ::2] = 1.0
        assert np.allclose(nn.avgpool2_forward(x).output, 0.5)

    def test_avgpool2_odd_extent_rejected(self):
        with pytest.raises(ShapeMismatchError):
            nn.avgpool2_forward(np.zeros((3, 4, 1)))

    @pytest.mark.parametrize("layer", ["pointwise", "dense", "relu", "gap",
                                       "avgpool2", "gain"])
    def test_backward_matches_central_differences(self, layer):
        rng = np.random.default_rng(hash(layer) % 2**32)
        if layer == "pointwise":
            x = rng.normal(size=(3, 3, 4))
            w = rng.normal(size=(4, 2))
            io = nn.pointwise_forward(x, w)
            dy = rng.normal(size=io.output.shape)
            dx, dw = nn.pointwise_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.pointwise_forward(v, w).output * dy)), x, dx),
                (lambda v: float(np.sum(nn.pointwise_forward(x, v).output * dy)), w, dw),
            ]
        elif layer == "dense":
            x = rng.normal(size=4)
            w = rng.normal(size=(4, 3))
            b = rng.normal(size=3)
            io = nn.dense_forward(x, w, b)
            dy = rng.normal(size=3)
            dx, dw, db = nn.dense_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.dense_forward(v, w, b).output * dy)), x, dx),
                (lambda v: float(np.sum(nn.dense_forward(x, v, b).output * dy)), w, dw),
                (lambda v: float(np.sum(nn.dense_forward(x, w, v).output * dy)), b, db),
            ]
        elif layer == "relu":
            x = rng.normal(size=(4, 4, 2))
            x = np.where(np.abs(x) < 0.1, x + 0.5, x)  # stay away from the kink
            io = nn.relu_forward(x)
            dy = rng.normal(size=io.output.shape)
            dx = nn.relu_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.relu_forward(v).output * dy)), x, dx),
            ]
        elif layer == "gap":
            x = rng.normal(size=(3, 5, 4))
            io = nn.gap_forward(x)
            dy = rng.normal(size=4)
            dx = nn.gap_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.gap_forward(v).output * dy)), x, dx),
            ]
        elif layer == "avgpool2":
            x = rng.normal(size=(4, 6, 2))
            io = nn.avgpool2_forward(x)
            dy = rng.normal(size=io.output.shape)
            dx = nn.avgpool2_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.avgpool2_forward(v).output * dy)), x, dx),
            ]
        else:
            x = rng.normal(size=(3, 3, 2))
            g = np.array([1.3])
            io = nn.gain_forward(x, g)
            dy = rng.normal(size=io.output.shape)
            dx, dg = nn.gain_backward(io.cache, dy)
            checks = [
                (lambda v: float(np.sum(nn.gain_forward(v, g).output * dy)), x, dx),
                (lambda v: float(np.sum(nn.gain_forward(x, v).output * dy)), g, dg),
            ]
        for fun, point, analytic in checks:
            assert nn.gradient_check(fun, point, analytic) <= 1e-6

    def test_linear_layer_gradient_is_exact(self):
        # dense layer is linear in x, so central differences are exact
        rng = np.random.default_rng(8)
        x = rng.normal(size=4)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        dy = rng.normal(size=3)
        io = nn.dense_forward(x, w, b)
        dx, _, _ = nn.dense_backward(io.cache, dy)
        err = nn.gradient_check(
            lambda v: float(np.sum(nn.dense_forward(v, w, b).output * dy)), x, dx
        )
        assert err <= 1e-9


class TestSoftmaxCrossEntropy:
    def test_symmetric_logits(self):
        loss, _ = nn.softmax_cross_entropy(np.zeros(2), 0)
        assert abs(loss - np.log(2)) <= 1e-12

    def test_saturated_correct_prediction(self):
        loss, _ = nn.softmax_cross_entropy(np.array([10.0, -10.0]), 0)
        assert abs(loss - 2.061e-9) <= 2e-11

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            logits = rng.normal(size=2) * 5
            loss, _ = nn.softmax_cross_entropy(logits, int(rng.integers(2)))
            assert loss >= 0.0

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            p = nn.softmax(rng.normal(size=2) * 10)
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
            row = nn.dense_forward(x[i], w, b).output
            assert np.max(np.abs(logits[i] - row)) <= 1e-15
            assert np.array_equal(probs[i], nn.softmax(logits[i] * 10))
        with pytest.raises(ShapeMismatchError):
            nn.dense_forward(x[:, :3], w, b)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=2)
        _, dlogits = nn.softmax_cross_entropy(logits, 1)
        err = nn.gradient_check(
            lambda v: nn.softmax_cross_entropy(v, 1)[0], logits, dlogits,
        )
        assert err <= 1e-8

    def test_bad_label(self):
        with pytest.raises(BadLabelError):
            nn.softmax_cross_entropy(np.zeros(2), 2)
        with pytest.raises(BadLabelError):
            nn.softmax_cross_entropy(np.zeros(2), -1)


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

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="finite"):
            nn.TrainConfig(learning_rate=lr)
