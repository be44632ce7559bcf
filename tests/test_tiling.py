import numpy as np
import pytest

from whtfire import arch, tiling
from whtfire.errors import (
    BlockLargerThanImageError,
    NonFiniteScoreError,
    OddDimensionsError,
)
from whtfire.nn import mean_pool
from oracles import DegenerateGridError, border_mask, extract_windows, render_overlay_per_block


def dims(*args):
    spec = tiling.GridSpec(*args)
    return spec.rows, spec.cols


class TestGridDims:
    def test_published_geometry(self):
        assert dims(1344, 2240, 224) == (6, 10)

    def test_single_block(self):
        assert dims(224, 224, 224) == (1, 1)

    def test_floor_rounding(self):
        assert dims(500, 500, 224) == (2, 2)

    def test_block_larger_than_image(self):
        with pytest.raises(BlockLargerThanImageError):
            tiling.GridSpec(200, 500, 224)
        with pytest.raises(BlockLargerThanImageError):
            tiling.GridSpec(500, 200, 224)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            tiling.GridSpec(0, 10, 2)

    def test_matches_integer_division_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            b = int(rng.integers(1, 300))
            ih = int(rng.integers(b, 4000))
            iw = int(rng.integers(b, 4000))
            assert dims(ih, iw, b) == (ih // b, iw // b)


class TestGridSpec:
    def test_rows_cols(self):
        spec = tiling.GridSpec(1344, 2240, 224)
        assert (spec.rows, spec.cols) == (6, 10)

    def test_invalid_spec_rejected_at_construction(self):
        with pytest.raises(BlockLargerThanImageError):
            tiling.GridSpec(100, 100, 224)


class TestExtractWindows:
    def test_six_by_ten_grid_has_45_windows(self):
        image = np.zeros((48, 80, 3))
        spec = tiling.GridSpec(48, 80, 8)
        wins = extract_windows(image, spec)
        assert len(wins) == 45

    def test_two_by_two_grid_has_one_window(self):
        image = np.zeros((16, 16, 3))
        spec = tiling.GridSpec(16, 16, 8)
        wins = extract_windows(image, spec)
        assert len(wins) == 1
        assert wins[0][0] == (0, 0)
        assert wins[0][1].shape == (16, 16, 3)

    def test_degenerate_grid(self):
        image = np.zeros((8, 40, 3))
        spec = tiling.GridSpec(8, 40, 8)
        with pytest.raises(DegenerateGridError):
            extract_windows(image, spec)

    def test_window_content_and_size(self):
        rng = np.random.default_rng(1)
        image = rng.random((24, 32, 3))
        spec = tiling.GridSpec(24, 32, 8)
        wins = dict(extract_windows(image, spec))
        assert set(wins) == {(r, c) for r in range(2) for c in range(3)}
        for (r, c), win in wins.items():
            assert win.shape == (16, 16, 3)
            assert np.array_equal(win, image[8 * r : 8 * r + 16, 8 * c : 8 * c + 16])

    def test_residual_pixels_ignored(self):
        rng = np.random.default_rng(2)
        image = rng.random((19, 21, 3))  # 3 leftover rows, 5 leftover cols
        spec = tiling.GridSpec(19, 21, 8)
        wins = extract_windows(image, spec)
        assert len(wins) == 1
        assert wins[0][1].shape == (16, 16, 3)

    def test_window_count_formula_exhaustive(self):
        # 1-pixel blocks make the enumeration cheap for every R, C <= 12
        for rows in range(2, 13):
            for cols in range(2, 13):
                image = np.zeros((rows, cols, 3))
                spec = tiling.GridSpec(rows, cols, 1)
                wins = extract_windows(image, spec)
                assert len(wins) == (rows - 1) * (cols - 1)

    def test_block_coverage_counts(self):
        # every block participates in 1..4 windows; corners exactly 1,
        # interior blocks exactly 4
        for rows, cols in ((2, 2), (3, 5), (6, 10), (12, 12)):
            cover = np.zeros((rows, cols), dtype=int)
            for r in range(rows - 1):
                for c in range(cols - 1):
                    cover[r : r + 2, c : c + 2] += 1
            assert cover.min() >= 1 and cover.max() <= 4
            for r, c in ((0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)):
                assert cover[r, c] == 1
            if rows > 2 and cols > 2:
                assert (cover[1:-1, 1:-1] == 4).all()


class TestDownsample:
    def test_constant_preserved(self):
        win = np.full((16, 16, 3), 0.37)
        assert np.allclose(tiling.downsample_window(win), 0.37)

    def test_checkerboard_averages_to_half(self):
        win = np.zeros((8, 8, 1))
        win[::2, 1::2] = 1.0
        win[1::2, ::2] = 1.0
        assert np.allclose(tiling.downsample_window(win), 0.5)

    def test_matches_direct_average_oracle(self):
        rng = np.random.default_rng(3)
        win = rng.random((8, 8, 3))
        direct = np.zeros((4, 4, 3))
        for i in range(4):
            for j in range(4):
                direct[i, j] = win[2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean(axis=(0, 1))
        assert np.max(np.abs(tiling.downsample_window(win) - direct)) <= 1e-7

    def test_odd_dimensions_rejected(self):
        with pytest.raises(OddDimensionsError):
            tiling.downsample_window(np.zeros((7, 8, 3)))

    def test_output_dtype_rules(self):
        assert tiling.downsample_window(np.zeros((4, 4, 3), np.float32)).dtype == np.float32
        assert tiling.downsample_window(np.zeros((4, 4, 3))).dtype == np.float64
        pooled = tiling.mean_pool(np.full((4, 6, 3), 3, np.uint8), 2, 3)
        assert pooled.dtype == np.float64 and np.all(pooled == 3.0)


class TestScoreGrid:
    def _net(self):
        return arch.build_toy_net("wht", 8, 32, seed=0)

    def test_constant_image_gives_identical_scores(self):
        net = self._net()
        image = np.full((192, 320, 3), 0.4)
        grid = tiling.score_grid(net, image)
        assert grid.scores.shape == (5, 9)
        assert np.allclose(grid.scores, grid.scores[0, 0])

    def test_scores_are_probabilities(self):
        net = self._net()
        image = np.random.default_rng(4).random((96, 128, 3))
        grid = tiling.score_grid(net, image)
        assert ((grid.scores >= 0) & (grid.scores <= 1)).all()

    def test_shape_validation(self):
        spec = tiling.GridSpec(96, 128, 32)
        with pytest.raises(ValueError):
            tiling.ScoreGrid(spec, np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        spec = tiling.GridSpec(64, 96, 32)
        with pytest.raises(NonFiniteScoreError, match="1 of 2 windows"):
            tiling.ScoreGrid(spec, [[0.25, bad]])

    def test_whole_image_fallback(self):
        net = self._net()
        image = np.random.default_rng(5).random((32, 160, 3))
        grid = tiling.score_grid(net, image)
        assert grid.fallback and grid.scores.shape == (1, 1)
        assert 0.0 <= grid.scores[0, 0] <= 1.0

    # a strip, one block, and grids of one row or column with a residual margin
    @pytest.mark.parametrize("h,w", [(32, 160), (32, 32), (70, 41), (45, 200)])
    def test_fallback_is_the_block_area_pooled_to_one_patch(self, h, w):
        net = _random_head(arch.build_toy_net("wht", 8, 32, seed=1, dtype=np.float64), 2)
        image = np.random.default_rng(h * w).random((h, w, 3))
        grid = tiling.score_grid(net, image, threshold=0.3)
        rows, cols = h // 32, w // 32
        area = image[: rows * 32, : cols * 32]
        want = arch.forward_classify(net, mean_pool(area, rows, cols))[1]
        assert grid.fallback and grid.threshold == 0.3
        assert (grid.spec.rows, grid.spec.cols) == (rows, cols)
        assert grid.scores.tolist() == [[want]]


def per_window_oracle(net, image, spec):
    """Scores the way windows were first scored: pool each one, classify it."""
    scores = np.zeros((spec.rows - 1, spec.cols - 1))
    for (r, c), win in extract_windows(image, spec):
        scores[r, c] = arch.forward_classify(net, tiling.downsample_window(win))[1]
    return scores


def _random_head(net, seed):
    """Move spectral scales and the head off their init so scores spread out."""
    rng = np.random.default_rng(seed)
    for name, p in net.parameters.items():
        if name.endswith(".scale"):
            p[...] = rng.uniform(0.5, 1.5, p.shape)
        elif name.startswith("head."):
            p[...] = rng.normal(0.0, 2.0, p.shape)
    return net


class TestScoreGridEquivalence:
    TOL = {np.float64: 1e-10, np.float32: 1e-5}

    @pytest.mark.parametrize("variant", ["wht", "conv-baseline"])
    @pytest.mark.parametrize("block", [32, 64])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_per_window_oracle(self, variant, block, dtype):
        # 3 leftover rows at the bottom and 5 leftover columns on the right
        h, w = 3 * block + 3, 4 * block + 5
        image = np.random.default_rng(block).random((h, w, 3))
        spec = tiling.GridSpec(h, w, block)
        net = _random_head(arch.build_toy_net(variant, 8, block, seed=7, dtype=dtype), 8)
        grid = tiling.score_grid(net, image)
        oracle = per_window_oracle(net, image, spec)
        assert grid.scores.shape == (2, 3)
        assert np.max(np.abs(grid.scores - oracle)) <= self.TOL[dtype]
        assert np.ptp(oracle) > 1e-3  # the windows really score differently

    def test_hard_threshold_bites(self):
        image = np.random.default_rng(9).random((96, 128, 3))
        spec = tiling.GridSpec(96, 128, 32)
        net = _random_head(arch.build_toy_net(
            "wht", 8, 32, seed=9, dtype=np.float64, threshold_trainable=True,
        ), 10)
        open_scores = tiling.score_grid(net, image).scores
        for b in range(3):
            net.parameters[f"wht{b}.lambda"][0] = 0.1
        grid = tiling.score_grid(net, image)
        assert np.max(np.abs(grid.scores - open_scores)) > 1e-6
        assert np.max(np.abs(grid.scores - per_window_oracle(net, image, spec))) <= 1e-10

    @pytest.mark.parametrize("variant,forwards", [("wht", 0), ("conv-baseline", 6)])
    def test_network_forward_calls(self, monkeypatch, variant, forwards):
        calls = []
        original = arch.network_forward

        def counting(net, x):
            calls.append(x.shape)
            return original(net, x)

        monkeypatch.setattr(arch, "network_forward", counting)
        net = arch.build_toy_net(variant, 8, 32, seed=0)
        # 32 px blocks: (R-1)(C-1) = 2 * 3 windows
        tiling.score_grid(net, np.full((96, 128, 3), 0.3))
        assert len(calls) == forwards


class TestRenderOverlay:
    def _grid(self, scores, rows=3, cols=4, block=8):
        spec = tiling.GridSpec(rows * block, cols * block, block)
        return tiling.ScoreGrid(spec, scores)

    def test_all_clear_is_all_green(self):
        grid = self._grid(np.zeros((2, 3)))
        image = np.full((24, 32, 3), 0.5)
        out = tiling.render_overlay(image, grid)
        mask = border_mask(grid.spec)
        assert np.allclose(out[mask], [0.0, 1.0, 0.0])

    def test_all_fire_is_all_red(self):
        grid = self._grid(np.ones((2, 3)))
        image = np.full((24, 32, 3), 0.5)
        out = tiling.render_overlay(image, grid)
        mask = border_mask(grid.spec)
        assert np.allclose(out[mask], [1.0, 0.0, 0.0])

    def test_pixels_outside_borders_untouched(self):
        rng = np.random.default_rng(6)
        image = rng.random((24, 32, 3))
        grid = self._grid(rng.random((2, 3)))
        out = tiling.render_overlay(image, grid)
        mask = border_mask(grid.spec)
        assert np.array_equal(out[~mask], image[~mask])

    def test_residual_margin_untouched(self):
        rng = np.random.default_rng(7)
        image = rng.random((27, 35, 3))  # 3 extra rows, 3 extra cols
        spec = tiling.GridSpec(27, 35, 8)
        grid = tiling.ScoreGrid(spec, rng.random((2, 3)))
        out = tiling.render_overlay(image, grid)
        assert np.array_equal(out[24:], image[24:])
        assert np.array_equal(out[:, 32:], image[:, 32:])

    def test_burned_in_scores_touch_block_interiors(self):
        image = np.full((24, 32, 3), 0.5)
        grid = self._grid(np.full((2, 3), 0.75))
        plain = tiling.render_overlay(image, grid, draw_scores=False)
        digits = tiling.render_overlay(image, grid, draw_scores=True)
        mask = border_mask(grid.spec)
        assert not np.array_equal(plain, digits)
        assert np.array_equal(plain[mask], digits[mask])  # borders identical

    def test_mixed_scores_color_by_threshold(self):
        scores = np.array([[0.2, 0.9, 0.2]])
        spec = tiling.GridSpec(16, 32, 8)
        grid = tiling.ScoreGrid(spec, scores)
        out = tiling.render_overlay(np.zeros((16, 32, 3)), grid)
        assert np.allclose(out[0, 0], [0.0, 1.0, 0.0])     # block (0,0): 0.2
        assert np.allclose(out[0, 8], [1.0, 0.0, 0.0])     # block (0,1): 0.9
        # last column inherits the nearest anchor score (0.2 -> green)
        assert np.allclose(out[0, 31], [0.0, 1.0, 0.0])


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("draw_scores", [False, True])
    @pytest.mark.parametrize("block,h,w,fallback_score", [
        (8, 43, 61, None),  # digits spill over the borders of later blocks
        (8, 8, 45, 0.5),  # a fallback row of five blocks, scored at the threshold
        (8, 30, 9, 0.2),
        (32, 100, 140, None),
        (32, 70, 40, 0.9),
        (64, 200, 300, None),
        (224, 450, 700, None),
    ])
    def test_matches_per_block_oracle(self, block, h, w, fallback_score, draw_scores, dtype):
        rng = np.random.default_rng([block, h, w])
        spec = tiling.GridSpec(h, w, block)
        if fallback_score is None:
            scores = rng.random((spec.rows - 1, spec.cols - 1))
            scores.flat[::2] = 0.5  # exactly at the threshold: red
            grid = tiling.ScoreGrid(spec, scores)
        else:
            grid = tiling.ScoreGrid(spec, [[fallback_score]], fallback=True)
        image = rng.random((h, w, 3)).astype(dtype)
        out = tiling.render_overlay(image, grid, draw_scores)
        want = render_overlay_per_block(image, grid, draw_scores)
        assert out.dtype == want.dtype == dtype
        assert out.tobytes() == want.tobytes()
        assert not np.shares_memory(out, image)


class TestScoreGridJson:
    def test_payload_schema(self):
        spec = tiling.GridSpec(192, 320, 32)
        scores = np.full((5, 9), 1 / 3)
        grid = tiling.ScoreGrid(spec, scores, threshold=0.5)
        payload = tiling.score_grid_json(grid, "frame.ppm")
        assert payload["image"] == "frame.ppm"
        assert payload["block"] == [32, 32]
        assert payload["grid"] == [6, 10]
        assert payload["threshold"] == 0.5
        assert payload["fallback"] is False
        assert len(payload["scores"]) == 5
        assert all(len(row) == 9 for row in payload["scores"])
        assert payload["scores"][0][0] == round(1 / 3, 6)
