"""Tests of the benchmark itself, at tiny sizes: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One tiny run of every workload, untraced and traced."""
    out = tmp_path_factory.mktemp("perfbench")
    return {
        (name, trace): run.run(name, SEED, 0.2, trace, workloads.TINY, out)
        for name in run.WORKLOAD_NAMES
        for trace in (False, True)
    }


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == spans.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (False, True))
def test_workload_runs_end_to_end(reports, name, trace):
    report = reports[name, trace]
    assert report["correct"], report["failures"]
    assert report["failed"] == 0 and report["attempted"] >= run.MIN_OPS
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(report["metrics"]) == [m["name"] for m in wanted]
    values = [m["value"] for m in report["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_trace_counts_confirm_the_written_predictions(reports):
    wht = reports["detect-wht-b32", True]["metrics"]
    conv = reports["detect-conv-b224", True]["metrics"]
    train = reports["train-wht32", True]["metrics"]
    value = lambda metrics, name: metrics[name]["value"]  # noqa: E731
    for metrics in (wht, conv):
        for name in metrics:
            if "_backward." in name or name.startswith(("nn.SgdOptimizer", "nn.softmax_cross")):
                assert value(metrics, name) == 0, name
        assert value(metrics, "tiling.forwards_per_window") == 1
        assert value(metrics, "arch.network_forward.calls") == value(metrics, "tiling.windows_per_frame")
    for metrics in (wht, train):
        assert value(metrics, "nn.conv3x3_forward.calls") == 0
        assert value(metrics, "nn.conv3x3_backward.calls") == 0
    for name in ("fwht.fwht.calls", "fwht.ifwht.calls", "wht_layer.wht_layer_forward.calls"):
        assert value(conv, name) == 0
    assert value(train, "tiling.score_grid.calls") == 0
    assert value(train, "pipeline.batches") > 0
    # tiny frames are 448 x 672: 14 x 21 blocks of 32, 2 x 3 blocks of 224
    assert value(wht, "tiling.pooled_px_per_frame_px") == pytest.approx(4 * 13 * 20 / (14 * 21))
    assert value(conv, "tiling.pooled_px_per_frame_px") == pytest.approx(4 * 1 * 2 / (2 * 3))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_top_level_spans_add_up_to_traced_wall_time(reports, name):
    check = reports[name, True]["trace_check"]
    assert check["top_level_span_s"] == pytest.approx(check["traced_op_s"], rel=0.02, abs=2e-3)


def test_tracer_restores_every_binding():
    tracer = spans.Tracer()
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("whtfire")}
    tracer.install()
    assert hasattr(sys.modules["whtfire.wht_layer"].fwht, "__wrapped__")
    assert hasattr(sys.modules["whtfire"].fwht, "__wrapped__")
    tracer.uninstall()
    after = {name: dict(vars(sys.modules[name])) for name in before}
    assert after == before
    assert not hasattr(sys.modules["whtfire.nn"].SgdOptimizer.step, "__wrapped__")


def _detect_case(tmp_path):
    wl = workloads.make("detect-wht-b32", workloads.TINY)
    state = wl.setup(SEED, tmp_path)
    outcome = wl.op(state, 0)
    return wl, state, outcome.result


def test_oracle_flags_a_corrupted_score_grid(tmp_path):
    wl, state, result = _detect_case(tmp_path)
    assert wl.check(state, 0, result) == []
    which, grid, _, _, _ = result
    scores = np.array(grid.scores)
    assert workloads.check_score_grid(scores, scores.shape) == []
    for corrupt in (np.nan, 1.5, -0.25):
        bad = scores.copy()
        bad[1, 2] = corrupt
        assert workloads.check_score_grid(bad, scores.shape)
    assert workloads.check_score_grid(scores[:, :-1], scores.shape)
    picks = [(1, 2), (0, 0)]
    oracle = workloads.window_oracle(state["oracle_net"], state["frames"][which], 32, picks)
    assert workloads.check_windows(scores, picks, oracle) == []
    bad = scores.copy()
    bad[1, 2] += 1e-3
    assert len(workloads.check_windows(bad, picks, oracle)) == 1


def test_oracle_flags_a_corrupted_transform():
    fwht = sys.modules["whtfire.fwht"]
    rng = np.random.default_rng(0)
    for n in (64, 4096):
        row = rng.standard_normal(n)
        coeffs = fwht.fwht(row)
        assert workloads.check_row(row, coeffs) == []
        coeffs[n // 3] += 1e-6
        assert workloads.check_row(row, coeffs)
    x = rng.standard_normal(1 << 14)
    y = fwht.fwht(x)
    z = fwht.ifwht(y)
    assert workloads.check_round_trip(x, z) == []
    z[5] += 1e-9
    assert workloads.check_round_trip(x, z)
    ks = [0, 1, 777, (1 << 14) - 1]
    assert workloads.check_coefficients(x, y, ks) == []
    y[777] = -y[777]
    assert len(workloads.check_coefficients(x, y, ks)) == 1


def test_same_seed_regenerates_identical_inputs(tmp_path):
    assert inputs.patch(1, inputs.STREAM_TRAIN, 4, 1, 32).tobytes() == \
        inputs.patch(1, inputs.STREAM_TRAIN, 4, 1, 32).tobytes()
    assert inputs.frame(1, 0, 96, 160, True).tobytes() == inputs.frame(1, 0, 96, 160, True).tobytes()
    assert inputs.frame(1, 0, 96, 160, True).tobytes() != inputs.frame(2, 0, 96, 160, True).tobytes()
    for name in run.WORKLOAD_NAMES:
        wl = workloads.make(name, workloads.TINY)
        digests = []
        for seed, k in ((5, 0), (5, 1), (6, 0)):
            workdir = tmp_path / f"{name}-{seed}-{k}"
            workdir.mkdir()
            digests.append(wl.setup(seed, workdir)["inputs_sha256"])
        assert digests[0] == digests[1] != digests[2], name


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transform-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(HERE.parent / "src")},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
