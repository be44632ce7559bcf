import itertools
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from whtfire import arch, tiling
from whtfire.errors import (
    BadThresholdError,
    BlockLargerThanImageError,
    NonFiniteScoreError,
    OddDimensionsError,
    ShapeMismatchError,
)
from whtfire.nn import mean_pool
from oracles import (DegenerateGridError, border_mask, extract_windows,
                     record_backward_flags, render_overlay_per_block)


def random_frame(seed, h, w):
    """A seeded (h, w, 3) byte frame, as ``dataio.ppm_read`` gives one."""
    return np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)


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
        for extents in ((10, 0, 2), (10, 10, -1)):
            with pytest.raises(ShapeMismatchError):
                tiling.GridSpec(*extents)

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
        image = np.full((192, 320, 3), 102, np.uint8)
        grid = tiling.score_grid(net, image)
        assert grid.scores.shape == (5, 9)
        assert np.allclose(grid.scores, grid.scores[0, 0])

    def test_scores_are_probabilities(self):
        net = self._net()
        image = random_frame(4, 96, 128)
        grid = tiling.score_grid(net, image)
        assert ((grid.scores >= 0) & (grid.scores <= 1)).all()

    def test_shape_validation(self):
        spec = tiling.GridSpec(96, 128, 32)
        with pytest.raises(ValueError):
            tiling.ScoreGrid(spec, np.zeros((3, 3)))
        with pytest.raises(ShapeMismatchError):
            tiling.ScoreGrid(spec, np.zeros((1, 1)))

    def test_a_grid_without_a_2x2_window_is_a_fallback(self):
        grid = tiling.ScoreGrid(tiling.GridSpec(32, 160, 32), [[0.4]])
        assert grid.fallback and grid.scores.tolist() == [[0.4]]
        assert not tiling.ScoreGrid(tiling.GridSpec(64, 64, 32), [[0.4]]).fallback

    @pytest.mark.parametrize("image", [
        np.full((96, 128, 3), 0.5),  # a float frame in [0, 1]
        np.zeros((96, 128, 3), np.int64),
        np.zeros((96, 128), np.uint8),
        np.zeros((96, 128, 4), np.uint8),
    ])
    def test_only_byte_frames_accepted(self, image):
        grid = tiling.ScoreGrid(tiling.GridSpec(96, 128, 32), np.zeros((2, 3)))
        with pytest.raises(ShapeMismatchError, match="uint8 frame"):
            tiling.score_grid(self._net(), image)
        with pytest.raises(ShapeMismatchError, match="uint8 frame"):
            tiling.render_overlay(image, grid)

    @pytest.mark.parametrize("variant", ["wht", "conv-baseline"])
    @pytest.mark.parametrize("threshold", [np.nan, -0.1, 2.0])
    def test_a_bad_threshold_is_refused_before_scoring(self, monkeypatch, variant, threshold):
        def scoring(*args, **kwargs):
            raise AssertionError("a window was scored")

        # the shared path's feature maps and the chunked path's forwards
        for module, name in ((arch, "network_forward"), (arch, "feature_map"),
                             (tiling, "feature_map")):
            monkeypatch.setattr(module, name, scoring)
        net = arch.build_toy_net(variant, 8, 32, seed=0)
        with pytest.raises(BadThresholdError, match="not in"):
            tiling.score_grid(net, random_frame(1, 96, 128), threshold)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        spec = tiling.GridSpec(64, 96, 32)
        with pytest.raises(NonFiniteScoreError, match="1 of 2 windows"):
            tiling.ScoreGrid(spec, [[0.25, bad]])

    def test_whole_image_fallback(self):
        net = self._net()
        image = random_frame(5, 32, 160)
        grid = tiling.score_grid(net, image)
        assert grid.fallback and grid.scores.shape == (1, 1)
        assert 0.0 <= grid.scores[0, 0] <= 1.0

    # a strip, one block, and grids of one row or column with a residual margin
    @pytest.mark.parametrize("h,w", [(32, 160), (32, 32), (70, 41), (45, 200)])
    def test_fallback_is_the_block_area_pooled_to_one_patch(self, h, w):
        net = _random_head(arch.build_toy_net("wht", 8, 32, seed=1, dtype=np.float64), 2)
        image = random_frame(h * w, h, w)
        grid = tiling.score_grid(net, image, threshold=0.3)
        rows, cols = h // 32, w // 32
        area = image[: rows * 32, : cols * 32]
        want = arch.forward_classify(net, mean_pool(area, rows, cols) / 255.0)[1]
        assert grid.fallback and grid.threshold == 0.3
        assert (grid.spec.rows, grid.spec.cols) == (rows, cols)
        assert grid.scores.tolist() == [[want]]
        # pooling the float frame u / 255 instead differs by float rounding only
        first = arch.forward_classify(net, mean_pool(area / 255.0, rows, cols))[1]
        assert abs(grid.scores[0, 0] - first) <= 1e-12


def per_window_oracle(net, image, spec):
    """Scores the way windows were first scored: pool each window of the
    float frame ``image`` in [0, 1], classify it."""
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
    # head seed 8 spreads the 224 px windows' scores by only 6.4e-4
    HEAD = {32: 8, 64: 8, 224: 9}

    # 224 px: the wht net's shared feature map at the paper's input size,
    # 112 px half-blocks over a stride of 4
    @pytest.mark.parametrize("block,variant", [(32, "wht"), (32, "conv-baseline"), (64, "wht"),
                                               (64, "conv-baseline"), (224, "wht")])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_per_window_oracle(self, block, variant, dtype):
        # 3 leftover rows at the bottom and 5 leftover columns on the right
        h, w = 3 * block + 3, 4 * block + 5
        image = random_frame(block, h, w)
        spec = tiling.GridSpec(h, w, block)
        net = _random_head(arch.build_toy_net(variant, 8, block, seed=7, dtype=dtype),
                           self.HEAD[block])
        grid = tiling.score_grid(net, image)
        oracle = per_window_oracle(net, image / 255.0, spec)
        assert grid.scores.shape == (2, 3)
        assert np.max(np.abs(grid.scores - oracle)) <= self.TOL[dtype]
        assert np.ptp(oracle) > 1e-3  # the windows really score differently

    def test_hard_threshold_bites(self):
        image = random_frame(9, 96, 128)
        spec = tiling.GridSpec(96, 128, 32)
        net = _random_head(arch.build_toy_net(
            "wht", 8, 32, seed=9, dtype=np.float64, threshold_trainable=True,
        ), 10)
        open_scores = tiling.score_grid(net, image).scores
        for b in range(3):
            net.parameters[f"wht{b}.lambda"][0] = 0.1
        grid = tiling.score_grid(net, image)
        assert np.max(np.abs(grid.scores - open_scores)) > 1e-6
        oracle = per_window_oracle(net, image / 255.0, spec)
        assert np.max(np.abs(grid.scores - oracle)) <= 1e-10

    # the largest differences measured over four seeds of these grids were 0.0
    # in float32 and 2.2e-16 in float64, where a chunk's products round apart
    # from one window's; 1e-7 is about one float32 ulp of a unit logit, 1e-15
    # a few float64 ulps of a probability
    CHUNK_TOL = {np.float64: 1e-15, np.float32: 1e-7}

    # 2 x 10 blocks of 32 px: 9 windows, a chunk of 8 then a last chunk of one
    # (its dense head runs on gemv); 224 px: one window per chunk; 1 x C: fallbacks
    @pytest.mark.parametrize("block,rows,cols", [(32, 2, 10), (32, 1, 5), (224, 2, 3), (224, 1, 2)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_conv_chunks_match_per_window_forward_classify(self, block, rows, cols, dtype):
        image = random_frame(rows * cols, rows * block + 3, cols * block + 5)
        net = _random_head(arch.build_toy_net("conv-baseline", 8, block, seed=3, dtype=dtype), 4)
        grid = tiling.score_grid(net, image)
        area = image[: rows * block, : cols * block]
        if grid.fallback:
            want = [arch.forward_classify(net, mean_pool(area, rows, cols) / 255.0)[1]]
        else:
            pooled = tiling.downsample_window(area, net.dtype) / net.dtype.type(255)
            half = block // 2
            want = [arch.forward_classify(
                        net, pooled[r * half : r * half + block, c * half : c * half + block])[1]
                    for r, c in np.ndindex(rows - 1, cols - 1)]
        assert grid.fallback == (rows == 1) and grid.scores.size == len(want)
        assert np.max(np.abs(grid.scores.ravel() - want)) <= self.CHUNK_TOL[dtype]

    # a conv grid's 6 windows at 32 px are one chunk
    @pytest.mark.parametrize("variant,forwards", [("wht", 0), ("conv-baseline", 1)])
    def test_network_forward_calls(self, monkeypatch, variant, forwards):
        calls = []
        original = arch.network_forward

        def counting(net, x, backward=True):
            calls.append(x.shape)
            return original(net, x, backward)

        monkeypatch.setattr(arch, "network_forward", counting)
        net = arch.build_toy_net(variant, 8, 32, seed=0)
        # 32 px blocks: (R-1)(C-1) = 2 * 3 windows
        tiling.score_grid(net, np.full((96, 128, 3), 77, np.uint8))
        assert len(calls) == forwards


class WorkerFailure(Exception):
    """Raised by a spy on a thread other than the caller's."""


def run_bounded(fun, timeout=60.0):
    """``fun()`` on its own thread, joined with a timeout; its result, or its exception raised here."""
    out = {}

    def target():
        try:
            out["value"] = fun()
        except BaseException as exc:  # handed to the test thread, which raises it
            out["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"no result within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestScoreGridThreads:
    """``arch.fire_probabilities`` spreads a conv grid's chunks of windows over threads."""

    def _setup(self, monkeypatch, workers):
        monkeypatch.setattr(arch, "_usable_cpus", lambda: workers)
        # 32 px blocks over 5 x 6 blocks: 20 windows, in chunks of 8, 8 and 4
        net = _random_head(arch.build_toy_net("conv-baseline", 8, 32, seed=3), 4)
        return net, random_frame(11, 5 * 32, 6 * 32)

    def test_scores_do_not_depend_on_the_worker_count(self, monkeypatch):
        scores = {}
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 8):  # 8: more threads than this host has cores
                net, frame = self._setup(monkeypatch, workers)
                scores[workers] = run_bounded(lambda: tiling.score_grid(net, frame)).scores
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        # every window scores differently, so a score at the wrong index shows
        assert scores[1].shape == (4, 5) and np.unique(scores[1]).size == 20
        assert scores[8].tobytes() == scores[1].tobytes()
        net, frame = self._setup(monkeypatch, 1)
        pooled = tiling.downsample_window(frame) / 255.0
        want = [arch.forward_classify(net, pooled[r * 16 : r * 16 + 32, c * 16 : c * 16 + 32])[1]
                for r, c in np.ndindex(4, 5)]
        tol = TestScoreGridEquivalence.CHUNK_TOL[np.float32]
        assert np.max(np.abs(scores[8].ravel() - want)) <= tol

    @pytest.mark.parametrize("workers", [2, 8])
    def test_no_more_threads_than_usable_cpus(self, monkeypatch, workers):
        net, frame = self._setup(monkeypatch, workers)
        threads, original = set(), arch.network_forward
        calls, together = itertools.count(), threading.Barrier(2, timeout=30)

        def recording(*args, **kwargs):
            threads.add(threading.get_ident())
            if next(calls) < 2:
                together.wait()  # the first two chunks run at once
            return original(*args, **kwargs)

        monkeypatch.setattr(arch, "network_forward", recording)
        tiling.score_grid(net, frame)  # the barrier's timeout bounds a hang
        # the pool scores every chunk while the calling thread waits
        assert threading.get_ident() not in threads and 2 <= len(threads) <= min(workers, 3)

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        # where os has no sched_getaffinity (macOS, Windows) the CPU count
        # stands in, and one worker when even that is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert arch._usable_cpus() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert arch._usable_cpus() == 1

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        net, frame = self._setup(monkeypatch, 2)
        caller, original = [], arch.network_forward

        def failing(*args, **kwargs):
            if threading.get_ident() != caller[0]:
                raise WorkerFailure("a chunk on a worker thread")
            return original(*args, **kwargs)

        def score():
            caller.append(threading.get_ident())
            return tiling.score_grid(net, frame)

        monkeypatch.setattr(arch, "network_forward", failing)
        before = threading.active_count()
        with pytest.raises(WorkerFailure, match="worker thread"):
            run_bounded(score)
        assert threading.active_count() == before

    def test_an_overflowing_net_warns_on_no_thread(self, monkeypatch):
        # filterwarnings = error would raise a pool thread's RuntimeWarning here
        # instead of the NonFiniteScoreError that reports the overflow
        net, frame = self._setup(monkeypatch, 2)
        net.parameters["block0.gain"][:] = 3e38
        with pytest.raises(NonFiniteScoreError, match="20 of 20 windows"):
            run_bounded(lambda: tiling.score_grid(net, frame))

    def test_a_fallback_grid_stays_on_the_calling_thread(self, monkeypatch):
        net, _ = self._setup(monkeypatch, 8)
        threads = []
        original = arch.network_forward

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(arch, "network_forward", recording)
        grid = tiling.score_grid(net, random_frame(12, 32, 160))
        assert grid.fallback and threads == [threading.get_ident()]


class TestInferenceMemory:
    @staticmethod
    def peak_maps(run, map_shape) -> float:
        """``run()``'s tracemalloc peak, in float32 maps of ``map_shape``."""
        run()  # a warm-up, so first-call caches are not counted
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (4 * math.prod(map_shape))

    @pytest.mark.parametrize("variant", ["wht", "conv-baseline"])
    def test_scoring_keeps_no_backward_caches(self, monkeypatch, variant):
        flags = record_backward_flags(monkeypatch)
        tiling.score_grid(arch.build_toy_net(variant, 8, 32), random_frame(1, 96, 128))
        assert flags and not any(flags)

    def test_a_block_row_holds_at_most_six_first_stage_maps(self):
        # the pooled block row of a 32 px wht grid over 1888 px: 3.0 maps; 8.6
        # when every output and cache lived until the run ended
        net = arch.build_toy_net("wht", 8, 32, seed=0)
        row = np.random.default_rng(0).random((1, 16, 944, 3))
        peak = self.peak_maps(lambda: arch.feature_map(net, row), (16, 944, 8))
        assert peak <= 6, f"{peak:.2f} maps"

    def test_a_conv_window_holds_at_most_four_and_a_half_first_stage_maps(self):
        # 3.3 maps: conv3x3 pads and multiplies one band of rows at a time;
        # 5.4 with a whole padded map per conv, 9.9 with every output kept
        net = arch.build_toy_net("conv-baseline", 8, 224, seed=0)
        patch = np.random.default_rng(0).random((224, 224, 3))
        peak = self.peak_maps(lambda: arch.forward_classify(net, patch), (224, 224, 8))
        assert peak <= 4.5, f"{peak:.2f} maps"

    def test_a_one_window_chunk_is_not_copied(self):
        # the window goes in as a view, as in forward_classify: a stacked copy
        # of a float32 window is 0.38 maps, held for the whole pass
        net = arch.build_toy_net("conv-baseline", 8, 224, seed=0)
        patch = np.random.default_rng(0).random((224, 224, 3), np.float32)
        alone = self.peak_maps(lambda: arch.forward_classify(net, patch), (224, 224, 8))
        chunked = self.peak_maps(lambda: arch.fire_probabilities(net, [patch]), (224, 224, 8))
        assert chunked <= alone + 0.1, f"{chunked:.2f} against {alone:.2f} maps"
        want = arch.forward_classify(net, patch)[1]
        assert arch.fire_probabilities(net, [patch]).tobytes() == np.float64(want).tobytes()


class TestRenderOverlay:
    def _grid(self, scores, rows=3, cols=4, block=8):
        spec = tiling.GridSpec(rows * block, cols * block, block)
        return tiling.ScoreGrid(spec, scores)

    def test_all_clear_is_all_green(self):
        grid = self._grid(np.zeros((2, 3)))
        image = np.full((24, 32, 3), 128, np.uint8)
        out = tiling.render_overlay(image, grid)
        mask = border_mask(grid.spec)
        assert out.dtype == np.uint8 and (out[mask] == [0, 255, 0]).all()

    def test_all_fire_is_all_red(self):
        grid = self._grid(np.ones((2, 3)))
        image = np.full((24, 32, 3), 128, np.uint8)
        out = tiling.render_overlay(image, grid)
        mask = border_mask(grid.spec)
        assert out.dtype == np.uint8 and (out[mask] == [255, 0, 0]).all()

    def test_pixels_outside_borders_untouched(self):
        rng = np.random.default_rng(6)
        image = random_frame(6, 24, 32)
        grid = self._grid(rng.random((2, 3)))
        out = tiling.render_overlay(image, grid)
        mask = border_mask(grid.spec)
        assert np.array_equal(out[~mask], image[~mask])

    # a 128 px frame's grid: a larger frame drew on its top-left blocks only,
    # a smaller one failed in numpy's reshape
    @pytest.mark.parametrize("h,w", [(256, 256), (64, 64), (128, 100)])
    def test_a_frame_of_another_extent_is_refused(self, h, w):
        grid = tiling.ScoreGrid(tiling.GridSpec(128, 128, 32), np.zeros((3, 3)))
        with pytest.raises(ShapeMismatchError):
            tiling.render_overlay(random_frame(0, h, w), grid)

    def test_residual_margin_untouched(self):
        rng = np.random.default_rng(7)
        image = random_frame(7, 27, 35)  # 3 extra rows, 3 extra cols
        spec = tiling.GridSpec(27, 35, 8)
        grid = tiling.ScoreGrid(spec, rng.random((2, 3)))
        out = tiling.render_overlay(image, grid)
        assert np.array_equal(out[24:], image[24:])
        assert np.array_equal(out[:, 32:], image[:, 32:])

    def test_burned_in_scores_touch_block_interiors(self):
        image = np.full((24, 32, 3), 128, np.uint8)
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
        out = tiling.render_overlay(np.zeros((16, 32, 3), np.uint8), grid)
        assert out[0, 0].tolist() == [0, 255, 0]     # block (0,0): 0.2
        assert out[0, 8].tolist() == [255, 0, 0]     # block (0,1): 0.9
        # last column inherits the nearest anchor score (0.2 -> green)
        assert out[0, 31].tolist() == [0, 255, 0]


    # a writable frame, and a read-only one as ``dataio.ppm_read`` gives
    @pytest.mark.parametrize("writeable", [True, False])
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
    def test_matches_per_block_oracle(self, block, h, w, fallback_score, draw_scores,
                                      writeable):
        rng = np.random.default_rng([block, h, w])
        spec = tiling.GridSpec(h, w, block)
        if fallback_score is None:
            scores = rng.random((spec.rows - 1, spec.cols - 1))
            scores.flat[::2] = 0.5  # exactly at the threshold: red
            grid = tiling.ScoreGrid(spec, scores)
        else:
            grid = tiling.ScoreGrid(spec, [[fallback_score]])
        image = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        image.flags.writeable = writeable
        out = tiling.render_overlay(image, grid, draw_scores)
        want = render_overlay_per_block(image, grid, draw_scores)
        assert out.dtype == want.dtype == np.uint8
        assert out.tobytes() == want.tobytes()
        assert not np.shares_memory(out, image) and out.flags.writeable


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
