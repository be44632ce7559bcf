import importlib
import inspect
import json
import re
import tomllib
from pathlib import Path

import numpy as np
from oracles import unit_to_bytes

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_every_declared_dependency_imports():
    # a dependency that cannot be imported here is code that no test runs
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert deps
    for requirement in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        importlib.import_module(name.replace("-", "_"))


def test_ci_runs_tier1_on_the_declared_python_floor():
    # the workflow is read as text, so checking it needs no YAML parser
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    floor = project["requires-python"]
    text = WORKFLOW.read_text()
    assert re.findall(r"python-version:\s*\"?([0-9.]+)", text) == [floor.removeprefix(">=")]
    tier1 = "python -m pytest -q --continue-on-collection-errors"
    assert tier1 in text
    assert "perfbench" not in text  # its known-stale tests stay out of CI
    # and once more after pinning numpy to its declared floor
    numpy_floor = [d.removeprefix("numpy>=") for d in project["dependencies"]
                   if d.startswith("numpy>=")]
    pins = re.findall(r"numpy==([0-9.]+)\.\*", text)
    assert pins == numpy_floor and len(pins) == 1
    assert text.count(tier1) == 2 and text.index("numpy==") < text.rindex(tier1)
    # and once in development mode, as a step of its own, not a comment
    dev = "python -X dev -m pytest -q --continue-on-collection-errors"
    assert len(re.findall(rf"^\s*- run: .*{re.escape(dev)}$", text, re.MULTILINE)) == 1
    # a hung thread pool ends the job, not the runner's 6-hour default
    assert re.search(r"^    timeout-minutes: [1-9][0-9]?$", text, re.MULTILINE)
    # the installed console script runs, as a step after the install
    smoke = re.search(r'^\s*- run: whtfire --help && '
                      r'whtfire --out-dir "\$RUNNER_TEMP/smoke" synth --count 1$', text, re.MULTILINE)
    assert smoke and text.index("- run: pip install -e .") < smoke.start()
    # and trains a conv net on the synth step's manifest, after that step
    train = re.search(r'^\s*- run: whtfire --out-dir "\$RUNNER_TEMP/smoke-train" train '
                      r'--manifest "\$RUNNER_TEMP/smoke/manifest.csv" '
                      r'--variant conv-baseline --epochs 1$', text, re.MULTILINE)
    assert train and smoke.start() < train.start()
    # and the transform at sizes that run its whole-array and chunked passes
    bench = re.search(r"^\s*- run: whtfire bench --sizes 16,65536,1048576$", text, re.MULTILINE)
    assert bench and text.index("- run: pip install -e .") < bench.start()


def test_console_script_resolves_to_a_callable():
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["whtfire"]
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_benchmark_entry_points(tmp_path):
    # every library call perfbench/ makes, with the arguments it passes;
    # it imports the modules by name, as here ("whtfire.fwht" is not whtfire.fwht)
    arch, dataio, fwht, nn, pipeline, tiling = (
        importlib.import_module(f"whtfire.{name}")
        for name in ("arch", "dataio", "fwht", "nn", "pipeline", "tiling")
    )

    dataio.synth_dataset(dataio.SynthConfig(seed=1, count_per_class=4, resolution=32),
                         tmp_path / "ds")
    manifest = tmp_path / "ds" / "manifest.csv"
    config = nn.TrainConfig(epochs=1, batch_size=8, seed=1)
    record, _, ckpt = pipeline.train(manifest, "wht", config, tmp_path / "run",
                                     width=8, input_size=32)
    assert [set(e) >= {"epoch", "train_loss"} for e in record.epochs] == [True]
    metrics, cm = pipeline.evaluate(ckpt, manifest)
    assert cm.total == 8 and 0.0 <= metrics.f1 <= 1.0 and 0.0 <= metrics.accuracy <= 1.0
    assert dataio.checkpoint_load(ckpt).descriptor.name == "toy-wht"
    # train exists only for perfbench: it is fit of a toy net, in exactly this form
    assert list(inspect.signature(pipeline.train).parameters) == [
        "manifest", "variant", "config", "out_dir", "width", "input_size"]

    detector = tmp_path / "detector.whtc"
    dataio.checkpoint_save(arch.build_toy_net("conv-baseline", 8, 32, seed=1),
                           {"variant": "conv-baseline"}, detector)
    pixels = np.random.default_rng(1).random((96, 128, 3))
    frame = tmp_path / "frame.ppm"
    dataio.ppm_write(unit_to_bytes(pixels), frame)
    grid, detected = pipeline.detect(detector, frame, out_overlay=tmp_path / "overlay.ppm",
                                     out_json=tmp_path / "scores.json")
    assert grid.scores.shape == (2, 3) and not grid.fallback and isinstance(detected, bool)
    # its detect check parses scores.json: the layout is free, the content is not
    written = json.loads((tmp_path / "scores.json").read_text())
    assert written == tiling.score_grid_json(grid, str(frame))
    # perfbench's window_oracle scales the frame's bytes, then pools
    patch = tiling.downsample_window(dataio.ppm_read(frame)[:64, :64] / 255.0)
    probs = arch.forward_classify(dataio.checkpoint_load(detector), patch)
    assert probs.shape == (2,)
    assert abs(grid.scores[0, 0] - probs[1]) <= 1e-5
    assert isinstance(fwht._HAVE_NUMBA, bool)  # read by perfbench/run.py's provenance

    # spans.py traces these by name; a renamed one would read 0 calls, silently
    for op in ("pointwise", "conv3x3", "relu", "gain", "avgpool2", "gap", "dense"):
        assert callable(getattr(nn, f"{op}_forward")), op
        assert callable(getattr(nn, f"{op}_backward")), op
    assert callable(tiling.downsample_window)
    out = nn.conv3x3_forward(np.ones((1, 4, 4, 2)), np.ones((3, 3, 2, 5))).output
    assert out.shape == (1, 4, 4, 5) and out[0, 1, 1, 0] == 18.0

    # transform-long: fwht then ifwht on (R, N) row blocks and on long vectors
    rng = np.random.default_rng(1)
    for x in (rng.standard_normal((16, 64)), rng.standard_normal(1 << 14)):
        y = fwht.fwht(x)
        z = fwht.ifwht(y)
        for out in (y, z):
            assert out.dtype == np.float64 and out.shape == x.shape
            assert not np.shares_memory(out, x)
        assert np.max(np.abs(z - x)) <= 1e-12
    # its oracle multiplies by hadamard_matrix, and spans.py reads argument 2 as
    # the axis, so nothing may sit there: the transform runs on the last axis
    assert fwht.hadamard_matrix(3).dtype == np.int64
    assert list(inspect.signature(fwht.fwht).parameters) == ["x", "normalized"]


def test_every_committed_benchmark_record_names_its_provenance():
    # a truncated or hand-edited record fails here rather than being cited
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        missing = {"command", "method", "host", "parent_commit"} - set(record)
        assert not missing, f"{path.name} lacks {sorted(missing)}"
