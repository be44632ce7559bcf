import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from whtfire import arch, nn, pipeline, tiling, wht_layer
from whtfire.dataio import (
    Manifest,
    SynthConfig,
    checkpoint_load,
    checkpoint_save,
    ppm_read,
    ppm_write,
    save_manifest,
    synth_dataset,
)
from whtfire.errors import (
    ArchMismatchError,
    BadThresholdError,
    EmptyDatasetError,
    InvalidDescriptorError,
    LengthNotPowerOfTwoError,
    ShapeMismatchError,
    SingleClassDatasetError,
    SizeTooLargeError,
    TensorShapeMismatchError,
    TrainingDivergedError,
)
from whtfire.nn import TrainConfig
from oracles import (extract_windows, fwht_remainder_last, identity_arm,
                     ifwht_separate_pass, read_checkpoint, record_backward_flags,
                     render_overlay_per_block, unit_to_bytes)

# Published evaluation rows (percent) for metric cross-checks:
# (model, transfer, accuracy, precision, recall, f1, parameter count).
REPORTED_RESULTS = (
    ("EfficientNet-B5", False, 71.2, 69.8, 70.4, 70.4, 28_361_274),
    ("SwinTransformer", False, 72.2, 71.9, 71.4, 71.9, 27_520_892),
    ("ResNet50", False, 71.4, 70.9, 69.2, 70.1, 23_512_146),
    ("HTMA-ResNet50", False, 69.6, 69.0, 66.4, 67.6, 11_797_826),
    ("WHT-ResNet50", False, 77.2, 78.2, 76.0, 77.1, 20_580_290),
    ("EfficientNet-B5", True, 88.6, 89.4, 87.0, 88.2, 28_361_274),
    ("SwinTransformer", True, 91.1, 91.9, 89.7, 90.8, 27_520_892),
    ("ResNet50", True, 88.9, 90.0, 86.5, 88.2, 23_512_146),
    ("HTMA-ResNet50", True, 87.9, 88.1, 87.5, 87.8, 11_797_826),
    ("WHT-ResNet50", True, 91.6, 92.9, 90.17, 91.5, 20_580_290),
)


def harmonic_mean(p, r):
    return 2.0 * p * r / (p + r)


class TestComputeMetrics:
    def test_published_transfer_row(self):
        f1 = harmonic_mean(0.900, 0.865)
        assert abs(f1 - 0.882) <= 5e-4

    def test_equal_precision_recall(self):
        # tp = fp = fn: precision = recall = f1 = 1/2 from compute_metrics itself
        m = pipeline.compute_metrics(pipeline.ConfusionMatrix(tp=3, fp=3, fn=3, tn=1))
        assert m.precision == m.recall == m.f1 == 0.5
        for x in (0.1, 0.5, 0.99):
            assert abs(harmonic_mean(x, x) - x) <= 1e-12

    def test_hand_arithmetic(self):
        m = pipeline.compute_metrics(pipeline.ConfusionMatrix(tp=3, fp=1, fn=1, tn=5))
        assert m.accuracy == 0.8
        assert m.precision == 0.75
        assert m.recall == 0.75
        assert m.f1 == 0.75

    def test_zero_denominators_flagged(self):
        m = pipeline.compute_metrics(pipeline.ConfusionMatrix(tp=0, fp=0, fn=0, tn=4))
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert set(m.zero_division) == {"precision", "recall", "f1"}

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            pipeline.compute_metrics(pipeline.ConfusionMatrix(0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            pipeline.ConfusionMatrix(-1, 0, 0, 1)

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 30, size=4))
            cm = pipeline.ConfusionMatrix(tp, fp, fn, tn)
            if cm.total == 0:
                continue
            m = pipeline.compute_metrics(cm)
            assert min(m.precision, m.recall) - 1e-12 <= m.f1
            assert m.f1 <= max(m.precision, m.recall) + 1e-12

    def test_consistent_reference_rows_reproduce(self):
        # the two rows whose published F1 disagrees with their own P/R are
        # exercised (and expected to fail) in the acceptance suite
        consistent = [r for r in REPORTED_RESULTS
                      if r[0] not in ("EfficientNet-B5", "SwinTransformer")
                      or r[1]]
        assert len(consistent) == 8
        for _, _, _, p, r, f1, _ in consistent:
            got = harmonic_mean(p / 100.0, r / 100.0)
            assert abs(got - f1 / 100.0) <= 0.0015


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    cfg = SynthConfig(seed=7, count_per_class=12, resolution=32, smoke_contrast=0.9)
    return synth_dataset(cfg, root)


class TestTrain:
    def test_deterministic_checkpoints(self, small_dataset, tmp_path):
        cfg = TrainConfig(epochs=2, learning_rate=0.01, seed=3)
        _, _, ck_a = pipeline.train(small_dataset, "wht", cfg, tmp_path / "a")
        _, _, ck_b = pipeline.train(small_dataset, "wht", cfg, tmp_path / "b")
        assert ck_a.read_bytes() == ck_b.read_bytes()

    @pytest.mark.parametrize("threshold_trainable", [False, True])
    def test_width_8_checkpoints_keep_the_remainder_last_transforms_bytes(
            self, small_dataset, tmp_path, monkeypatch, threshold_trainable):
        # at N = 8 the transform is one factor, so factor order and where
        # the inverse scales by 1/N change no bit of a trained net
        cfg = TrainConfig(epochs=2, seed=4)

        def fit(out):
            net = arch.build_toy_net("wht", seed=4, threshold_trainable=threshold_trainable)
            return pipeline.fit(net, small_dataset, cfg, out)[2]

        ck_a = fit(tmp_path / "a")
        monkeypatch.setattr(wht_layer, "fwht", fwht_remainder_last)
        monkeypatch.setattr(wht_layer, "ifwht", ifwht_separate_pass)
        ck_b = fit(tmp_path / "b")
        assert ck_a.read_bytes() == ck_b.read_bytes()

    @pytest.mark.parametrize("variant", ["wht", "conv-baseline"])
    def test_training_forms_no_stem_input_gradient(self, small_dataset, tmp_path,
                                                   monkeypatch, variant):
        # the stem is layer 0: its backward gives only the weight's gradient
        calls = []  # (input channels, dx formed) per pointwise backward
        backward = nn.pointwise_backward

        def recording(cache, dy, input_grad=True):
            out = backward(cache, dy, input_grad=input_grad)
            calls.append((cache[0].shape[-1], out[0] is not None))
            return out

        monkeypatch.setattr(nn, "pointwise_backward", recording)
        pipeline.train(small_dataset, variant, TrainConfig(epochs=1, seed=4), tmp_path)
        steps = len(calls) // 4
        assert steps == 3  # 19 training patches in batches of 8
        assert calls == [(8, True), (8, True), (8, True), (3, False)] * steps

    def test_run_record_contents(self, small_dataset, tmp_path):
        cfg = TrainConfig(epochs=3, learning_rate=0.01, seed=0)
        record, _, ckpt = pipeline.train(small_dataset, "wht", cfg, tmp_path / "r")
        assert len(record.epochs) == 3
        assert record.final_checkpoint == str(ckpt)
        assert record.transfer_source is None
        run_json = json.loads((tmp_path / "r" / "run.json").read_text())
        assert run_json["arch"] == record.arch == "toy-wht"
        assert run_json["config"]["epochs"] == 3
        assert [e["epoch"] for e in run_json["epochs"]] == [1, 2, 3]
        assert record.early_stop_reason is None
        assert run_json["early_stop_reason"] is None

    @pytest.mark.parametrize("setting", [
        {"learning_rate": np.float32(0.015625)}, {"momentum": np.float16(0.5)},
        {"epochs": np.int64(1)}, {"batch_size": np.int32(8)}, {"seed": np.int64(1)},
    ], ids=lambda setting: next(iter(setting)))
    def test_a_numpy_scalar_setting_writes_what_its_python_number_does(
            self, small_dataset, tmp_path, setting):
        written = []
        # .item() is the same number; one directory, so run.json names one path
        for given in (setting, {key: value.item() for key, value in setting.items()}):
            pipeline.train(small_dataset, "wht", TrainConfig(**{"epochs": 1, "seed": 0, **given}),
                           tmp_path)
            written.append([(tmp_path / name).read_bytes()
                            for name in ("checkpoint.whtc", "run.json")])
        assert written[0] == written[1]

    def test_thresholds_stay_at_their_bound(self, small_dataset, tmp_path):
        # at seed 1 the steps push wht0's and wht2's thresholds below 0
        cfg = TrainConfig(epochs=2, seed=1)
        net = arch.build_toy_net("wht", seed=1, threshold_trainable=True)
        _, _, ckpt = pipeline.fit(net, small_dataset, cfg, tmp_path / "r")
        lams = [net.parameters[f"wht{b}.lambda"][0] for b in range(3)]
        assert min(lams) == 0.0 < max(lams)
        checkpoint_load(ckpt)  # which rejects a negative threshold

    def test_single_class_dataset_rejected(self, tmp_path):
        cfg = SynthConfig(seed=1, count_per_class=4, resolution=32)
        man = synth_dataset(cfg, tmp_path / "d")
        man.entries = [e for e in man.entries if e[1] == 0]
        with pytest.raises(SingleClassDatasetError):
            pipeline.train(man, "wht", TrainConfig(epochs=1, seed=0), tmp_path / "r")

    def test_empty_manifest_rejected(self, tmp_path):
        man = Manifest([], tmp_path)
        with pytest.raises(EmptyDatasetError):
            pipeline.train(man, "wht", TrainConfig(epochs=1, seed=0), tmp_path / "r")


class TestDivergence:
    @pytest.mark.parametrize("lr", [100.0, 1000.0])
    def test_non_finite_loss_stops_without_checkpoint(self, small_dataset, tmp_path, lr):
        cfg = TrainConfig(epochs=3, learning_rate=lr, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            pipeline.train(small_dataset, "wht", cfg, tmp_path / "r")
        assert not (tmp_path / "r" / "checkpoint.whtc").exists()

        def reject(token):
            raise AssertionError(f"run.json holds the non-JSON token {token}")

        run = json.loads((tmp_path / "r" / "run.json").read_text(), parse_constant=reject)
        assert [e["epoch"] for e in run["epochs"]] == [1]
        assert run["epochs"][0]["train_loss"] is None
        assert "epoch 1" in run["early_stop_reason"]
        assert run["final_checkpoint"] == ""

    @pytest.mark.parametrize("lr,epochs", [(10.0, 2), (300.0, 1)])
    def test_non_finite_validation_stops_without_checkpoint(self, tmp_path, lr, epochs):
        # the loss stays finite while the updates overflow the network
        man = synth_dataset(SynthConfig(seed=7, count_per_class=10, resolution=32,
                                        smoke_contrast=0.8), tmp_path / "d")
        cfg = TrainConfig(epochs=epochs, learning_rate=lr, seed=0)
        with pytest.raises(TrainingDivergedError, match="4 of 4 validation probabilities"):
            pipeline.train(man, "wht", cfg, tmp_path / "r")
        assert not (tmp_path / "r" / "checkpoint.whtc").exists()
        run = json.loads((tmp_path / "r" / "run.json").read_text())
        last = run["epochs"][-1]
        assert last["epoch"] == epochs and last["val"] is None
        assert np.isfinite(last["train_loss"])
        assert run["early_stop_reason"] == (
            f"4 of 4 validation probabilities non-finite in epoch {epochs}")


class TestFinetune:
    def test_zero_epochs_is_identity(self, small_dataset, tmp_path):
        cfg = TrainConfig(epochs=2, learning_rate=0.01, seed=1)
        _, src_net, src_ckpt = pipeline.train(
            small_dataset, "wht", cfg, tmp_path / "src"
        )
        zero = TrainConfig(epochs=0, learning_rate=0.001, seed=1)
        _, tuned, _ = pipeline.fit(checkpoint_load(src_ckpt), small_dataset, zero,
                                   tmp_path / "ft", source=src_ckpt)
        for name in src_net.parameters:
            assert np.array_equal(tuned.parameters[name], src_net.parameters[name])

    def test_freeze_stem_keeps_stem_tensors(self, small_dataset, tmp_path):
        cfg = TrainConfig(epochs=2, learning_rate=0.01, seed=2)
        _, src_net, src_ckpt = pipeline.train(
            small_dataset, "wht", cfg, tmp_path / "src"
        )
        ft = TrainConfig(epochs=2, learning_rate=0.01, seed=2)
        _, tuned, _ = pipeline.fit(checkpoint_load(src_ckpt), small_dataset, ft,
                                   tmp_path / "ft", frozen={"stem.weight"}, source=src_ckpt)
        assert np.array_equal(tuned.parameters["stem.weight"],
                              src_net.parameters["stem.weight"])
        assert not np.array_equal(tuned.parameters["head.weight"],
                                  src_net.parameters["head.weight"])

    def test_records_transfer_source(self, small_dataset, tmp_path):
        cfg = TrainConfig(epochs=1, learning_rate=0.01, seed=0)
        _, _, src_ckpt = pipeline.train(small_dataset, "wht", cfg, tmp_path / "src")
        record, _, _ = pipeline.fit(checkpoint_load(src_ckpt), small_dataset, cfg,
                                    tmp_path / "ft", source=src_ckpt)
        assert record.transfer_source == str(src_ckpt)

    def test_source_path_spelling_keeps_checkpoint_bytes(self, small_dataset, tmp_path,
                                                         monkeypatch):
        cfg = TrainConfig(epochs=1, learning_rate=0.01, seed=1)
        _, _, src_ckpt = pipeline.train(small_dataset, "wht", cfg, tmp_path / "src")

        def finetune(source, out):
            return pipeline.fit(checkpoint_load(source), small_dataset, cfg, out,
                                source=source)[2]

        by_abs = finetune(src_ckpt.resolve(), tmp_path / "abs")
        monkeypatch.chdir(tmp_path)
        by_rel = finetune(Path("src", "checkpoint.whtc"), tmp_path / "rel")
        assert by_abs.read_bytes() == by_rel.read_bytes()

    def test_checkpoints_hold_only_what_load_reads(self, small_dataset, tmp_path):
        # the run's settings, the source path among them, are in run.json
        cfg = TrainConfig(epochs=1, learning_rate=0.01, seed=0)
        _, _, src_ckpt = pipeline.train(small_dataset, "wht", cfg, tmp_path / "src")
        _, _, ft_ckpt = pipeline.fit(checkpoint_load(src_ckpt), small_dataset, cfg,
                                     tmp_path / "ft", source=src_ckpt)
        keys = {"arch", "input_size", "layers", "seed", "tensors"}
        assert set(read_checkpoint(src_ckpt)[0]) == keys
        assert set(read_checkpoint(ft_ckpt)[0]) == keys


class TestFit:
    def test_a_seeded_arm_trains_as_its_saved_init_does(self, small_dataset, tmp_path):
        # scratch and fine-tuning are one loop: only run.json's source differs
        desc = identity_arm()
        cfg = TrainConfig(epochs=3, learning_rate=0.01, seed=4)
        init = tmp_path / "init.whtc"
        checkpoint_save(arch.Network(desc, arch.init_parameters(desc, 4), 4), {}, init)
        _, _, scratch = pipeline.fit(arch.Network(desc, arch.init_parameters(desc, 4), 4),
                                     small_dataset, cfg, tmp_path / "scratch")
        _, _, tuned = pipeline.fit(checkpoint_load(init), small_dataset, cfg, tmp_path / "ft",
                                   source=init)
        assert scratch.read_bytes() == tuned.read_bytes()
        runs = [json.loads((tmp_path / out / "run.json").read_text()) for out in ("scratch", "ft")]
        assert runs[0]["epochs"] == runs[1]["epochs"]
        assert runs[0]["transfer_source"] is None
        assert runs[1]["transfer_source"] == str(init)

    def test_an_unknown_frozen_name_is_refused_before_any_work(self, tmp_path):
        # the manifest does not exist: the names are checked before it is read
        with pytest.raises(ArchMismatchError, match="^toy-wht has no alpha, nope to freeze$"):
            pipeline.fit(arch.build_toy_net("wht"), tmp_path / "absent.csv", TrainConfig(),
                         tmp_path / "r", frozen={"nope", "stem.weight", "alpha"})
        assert not (tmp_path / "r").exists()

    def test_a_net_its_checkpoint_could_not_hold_is_refused_before_any_work(self, tmp_path):
        # each would train, then fail to save (or save what checkpoint_load refuses)
        wht = arch.build_toy_net("wht")
        head = dataclasses.replace(wht.descriptor.layers[-1], out_channels=3)
        three = dataclasses.replace(wht.descriptor, layers=(*wht.descriptor.layers[:-1], head))
        short = {k: v for k, v in wht.parameters.items() if k != "wht1.scale"}
        wide = {**wht.parameters, "wht1.scale": np.ones(9, np.float32)}
        for net, error, message in [
                (arch.Network(three, arch.init_parameters(three, 0), 0),
                 InvalidDescriptorError, "gives 3 channels, not 2 classes"),
                (arch.Network(wht.descriptor, short, 0), ArchMismatchError,
                 r"^toy-wht: tensor names disagree with architecture \(missing \['wht1.scale'\], "
                 r"extra \[\]\)$"),
                (arch.Network(wht.descriptor, wide, 0), TensorShapeMismatchError,
                 r"^toy-wht: tensor wht1.scale has shape \(9,\), expected \(8,\)$")]:
            with pytest.raises(error, match=message):
                pipeline.fit(net, tmp_path / "absent.csv", TrainConfig(epochs=5), tmp_path / "r")
            assert not (tmp_path / "r").exists()

    def test_same_seed_checkpoints_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS reads its thread count once, as numpy loads, so each count needs a process
        script = ("import sys\nfrom pathlib import Path\n"
                  "from whtfire import arch, dataio, nn, pipeline\n"
                  "out = Path(sys.argv[1])\n"
                  "ds = dataio.synth_dataset(dataio.SynthConfig(seed=5, count_per_class=4), out / 'ds')\n"
                  "for variant in arch.TOY_VARIANTS:\n"
                  "    pipeline.fit(arch.build_toy_net(variant, 64, 32, seed=5), ds,\n"
                  "                 nn.TrainConfig(epochs=1, seed=5), out / variant)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        children = [subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / threads)], stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
        stderrs = [child.communicate(timeout=60)[1] for child in children]
        for child, stderr in zip(children, stderrs):
            assert child.returncode == 0, stderr.decode(errors="replace")
        for variant in arch.TOY_VARIANTS:
            one, two = (tmp_path / threads / variant / "checkpoint.whtc" for threads in "12")
            assert one.read_bytes() == two.read_bytes()

    def test_the_callers_net_is_trained_in_place(self, small_dataset, tmp_path):
        net = arch.build_toy_net("wht", seed=2)
        arrays = dict(net.parameters)
        before = {name: value.copy() for name, value in arrays.items()}
        _, trained, ckpt = pipeline.fit(net, small_dataset, TrainConfig(epochs=1, seed=2),
                                        tmp_path)
        assert trained is net
        assert all(net.parameters[name] is value for name, value in arrays.items())
        assert not np.array_equal(net.parameters["head.weight"], before["head.weight"])
        for name, value in checkpoint_load(ckpt).parameters.items():
            assert value.tobytes() == net.parameters[name].tobytes()


class TestHandBuiltArm:
    # the identity arm: no library variant names it, its checkpoint describes it
    @pytest.fixture()
    def arm(self, tmp_path):
        desc = identity_arm()
        net = arch.Network(desc, arch.init_parameters(desc, 5), 5)
        rng = np.random.default_rng(6)  # a head off its init, so scores spread out
        for name in ("head.weight", "head.bias"):
            net.parameters[name][...] = rng.normal(0.0, 2.0, net.parameters[name].shape)
        checkpoint_save(net, {}, tmp_path / "arm.whtc")
        return net, tmp_path / "arm.whtc"

    def test_checkpoint_roundtrip(self, arm):
        net, ckpt = arm
        assert [layer.kind for layer in net.descriptor.layers].count("wht") == 0
        loaded = checkpoint_load(ckpt)
        assert loaded.descriptor == net.descriptor and loaded.seed == 5
        assert loaded.parameters.keys() == net.parameters.keys()
        for name, value in net.parameters.items():
            assert loaded.parameters[name].tobytes() == value.tobytes()

    def test_finetune_records_its_name(self, arm, small_dataset, tmp_path):
        net, ckpt = arm
        record, tuned, out = pipeline.fit(checkpoint_load(ckpt), small_dataset,
                                          TrainConfig(epochs=1), tmp_path / "ft",
                                          frozen={"stem.weight"}, source=ckpt)
        run = json.loads((tmp_path / "ft" / "run.json").read_text())
        assert run["arch"] == record.arch == "toy-identity"
        assert checkpoint_load(out).descriptor == net.descriptor
        assert np.array_equal(tuned.parameters["stem.weight"], net.parameters["stem.weight"])
        assert not np.array_equal(tuned.parameters["head.weight"],
                                  net.parameters["head.weight"])

    def test_detect_shares_the_feature_map(self, arm, tmp_path, monkeypatch):
        net, ckpt = arm
        frame = tmp_path / "frame.ppm"
        ppm_write(np.random.default_rng(7).integers(0, 256, (96, 128, 3), dtype=np.uint8),
                  frame)
        calls = []
        forward = arch.network_forward
        monkeypatch.setattr(arch, "network_forward",
                            lambda *args, **kw: calls.append(1) or forward(*args, **kw))
        grid, _ = pipeline.detect(ckpt, frame, out_overlay=tmp_path / "o.ppm",
                                  out_json=tmp_path / "s.json")
        assert calls == []  # no window ran on its own
        monkeypatch.undo()
        spec = tiling.GridSpec(96, 128, 32)
        oracle = np.zeros((spec.rows - 1, spec.cols - 1))
        for (r, c), window in extract_windows(ppm_read(frame) / 255.0, spec):
            oracle[r, c] = arch.forward_classify(net, tiling.downsample_window(window))[1]
        assert np.max(np.abs(grid.scores - oracle)) <= 1e-5  # the shared path's float32 bound
        assert np.ptp(oracle) > 1e-3


class TestEvaluate:
    def test_always_negative_predictor(self, small_dataset):
        net = arch.build_toy_net("wht", 8, 32, seed=0)
        net.parameters["head.weight"][:] = 0.0
        net.parameters["head.bias"][:] = np.array([10.0, -10.0], dtype=np.float32)
        metrics, cm = pipeline.evaluate(net, small_dataset)
        assert metrics.accuracy == 0.5
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0
        assert cm.tp == 0 and cm.fp == 0

    def test_confusion_total_matches_dataset(self, small_dataset):
        net = arch.build_toy_net("wht", 8, 32, seed=0)
        _, cm = pipeline.evaluate(net, small_dataset)
        assert cm.total == len(small_dataset)

    def test_evaluation_keeps_no_backward_caches(self, small_dataset, monkeypatch):
        flags = record_backward_flags(monkeypatch)
        pipeline.evaluate(arch.build_toy_net("wht", 8, 32, seed=0), small_dataset)
        assert flags and not any(flags)

    def test_f1_bound_on_real_evaluations(self, small_dataset):
        for seed in range(3):
            net = arch.build_toy_net("wht", 8, 32, seed=seed)
            m, _ = pipeline.evaluate(net, small_dataset)
            assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(
                m.precision, m.recall
            ) + 1e-12


class TestDetect:
    def _trained(self, dataset, tmp_path):
        cfg = TrainConfig(epochs=2, learning_rate=0.05, seed=0)
        _, net, ckpt = pipeline.train(dataset, "wht", cfg, tmp_path / "m")
        return net, ckpt

    def test_grid_detection_writes_artifacts(self, small_dataset, tmp_path):
        net, ckpt = self._trained(small_dataset, tmp_path)
        image = np.random.default_rng(0).random((192, 320, 3))
        img_path = tmp_path / "frame.ppm"
        ppm_write(unit_to_bytes(image), img_path)
        grid, detected = pipeline.detect(
            ckpt, img_path, 0.5,
            out_overlay=tmp_path / "overlay.ppm",
            out_json=tmp_path / "scores.json",
        )
        assert grid.scores.shape == (5, 9)
        payload = json.loads((tmp_path / "scores.json").read_text())
        assert payload["grid"] == [6, 10]
        assert payload["fallback"] is False
        assert (tmp_path / "overlay.ppm").exists()

    def test_whole_image_fallback(self, small_dataset, tmp_path):
        net, ckpt = self._trained(small_dataset, tmp_path)
        image = np.random.default_rng(1).random((32, 32, 3))
        img_path = tmp_path / "tiny.ppm"
        ppm_write(unit_to_bytes(image), img_path)
        grid, _ = pipeline.detect(ckpt, img_path, 0.5,
                                  out_overlay=tmp_path / "fb.ppm",
                                  out_json=tmp_path / "fb.json")
        assert grid.fallback
        payload = json.loads((tmp_path / "fb.json").read_text())
        assert payload["fallback"] is True
        assert len(payload["scores"]) == 1 and len(payload["scores"][0]) == 1

    def test_degenerate_row_grid_falls_back(self, small_dataset, tmp_path):
        net, ckpt = self._trained(small_dataset, tmp_path)
        image = np.random.default_rng(2).random((32, 160, 3))
        img_path = tmp_path / "strip.ppm"
        ppm_write(unit_to_bytes(image), img_path)
        grid, _ = pipeline.detect(ckpt, img_path, 0.5,
                                  out_overlay=tmp_path / "o.ppm",
                                  out_json=tmp_path / "s.json")
        assert grid.fallback and grid.scores.shape == (1, 1)

    def test_threshold_one_never_detects(self, small_dataset, tmp_path):
        net, ckpt = self._trained(small_dataset, tmp_path)
        image = np.random.default_rng(3).random((96, 96, 3))
        img_path = tmp_path / "f.ppm"
        ppm_write(unit_to_bytes(image), img_path)
        grid, detected = pipeline.detect(ckpt, img_path, threshold=1.0,
                                         out_overlay=tmp_path / "o.ppm",
                                         out_json=tmp_path / "s.json")
        assert (grid.scores < 1.0).all()
        assert detected is False

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -0.1, 1.5, "0.5", 0.5j, None,
                                     True, False, np.True_])
    def test_threshold_outside_unit_interval_writes_nothing(self, tmp_path, tau):
        net = arch.build_toy_net("wht", 8, 32, seed=0)
        _byte_frame(tmp_path / "f.ppm", 5, 96, 96)
        out = tmp_path / "out"
        with pytest.raises(BadThresholdError, match="not in \\[0, 1\\]"):
            pipeline.detect(net, tmp_path / "f.ppm", tau,
                            out_overlay=out / "o.ppm", out_json=out / "s.json")
        assert not out.exists()

    @pytest.mark.parametrize("numpy_tau, tau", [
        (np.float32(0.5), 0.5), (np.float16(0.5), 0.5), (np.int64(1), 1), (np.int64(0), 0),
    ], ids=repr)
    def test_a_numpy_scalar_threshold_writes_what_its_python_number_does(
            self, tmp_path, numpy_tau, tau):
        net = arch.build_toy_net("wht", 8, 32, seed=0)
        _byte_frame(tmp_path / "f.ppm", 5, 96, 96)
        written = []
        for threshold in (numpy_tau, tau):
            grid, _ = pipeline.detect(net, tmp_path / "f.ppm", threshold,
                                      out_overlay=tmp_path / "o.ppm", out_json=tmp_path / "s.json")
            assert type(grid.threshold) is float
            written.append([(tmp_path / name).read_bytes() for name in ("o.ppm", "s.json")])
        assert written[0] == written[1]

    def test_identical_runs_identical_artifacts(self, small_dataset, tmp_path):
        net, ckpt = self._trained(small_dataset, tmp_path)
        image = np.random.default_rng(4).random((96, 128, 3))
        img_path = tmp_path / "g.ppm"
        ppm_write(unit_to_bytes(image), img_path)
        for d in ("one", "two"):
            pipeline.detect(ckpt, img_path, 0.5,
                            out_overlay=tmp_path / d / "o.ppm",
                            out_json=tmp_path / d / "s.json",
                            draw_scores=True)
        assert (tmp_path / "one" / "o.ppm").read_bytes() == (
            tmp_path / "two" / "o.ppm").read_bytes()
        assert (tmp_path / "one" / "s.json").read_bytes() == (
            tmp_path / "two" / "s.json").read_bytes()


def _byte_frame(path, seed, h, w):
    """Write a seeded (h, w, 3) byte frame; returns its bytes."""
    u = np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)
    ppm_write(u, path)
    return u


class TestFramesStayBytes:
    """``detect`` and ``load_dataset`` against the float-frame formulas they replace."""

    @pytest.mark.parametrize("variant", ["wht", "conv-baseline"])
    @pytest.mark.parametrize("draw_scores", [False, True])
    @pytest.mark.parametrize("h,w", [(100, 140), (40, 150)])  # a grid, a fallback row
    def test_overlay_matches_the_float_frame_overlay(self, tmp_path, variant,
                                                     draw_scores, h, w):
        net = arch.build_toy_net(variant, 8, 32, seed=3)
        u = _byte_frame(tmp_path / "frame.ppm", h * w, h, w)
        grid, _ = pipeline.detect(net, tmp_path / "frame.ppm", 0.5,
                                  out_overlay=tmp_path / "overlay.ppm",
                                  out_json=tmp_path / "scores.json",
                                  draw_scores=draw_scores)
        assert grid.fallback == (h < 64)
        want = unit_to_bytes(render_overlay_per_block(u / 255.0, grid, draw_scores))
        assert ppm_read(tmp_path / "overlay.ppm").tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_dataset_scales_as_before(self, tmp_path, dtype):
        frames = [_byte_frame(tmp_path / f"{i}.ppm", i, 32, 32) for i in range(3)]
        every_byte = np.arange(32 * 32 * 3).reshape(32, 32, 3).astype(np.uint8)
        ppm_write(every_byte, tmp_path / "3.ppm")  # each of the 256 values, 12 times
        frames.append(every_byte)
        manifest = Manifest([(f"{i}.ppm", i % 2) for i in range(4)], tmp_path)
        save_manifest(manifest, tmp_path / "manifest.csv")
        net = arch.build_toy_net("wht", 8, 32, dtype=dtype)
        images, labels = pipeline.load_dataset(tmp_path / "manifest.csv", net)
        want = np.stack([(u / 255.0).astype(dtype) for u in frames])
        assert images.dtype == dtype and images.tobytes() == want.tobytes()
        assert labels.tolist() == [0, 1, 0, 1]

    def test_load_dataset_rejects_a_wrong_size_image_before_converting(self, tmp_path,
                                                                      monkeypatch):
        _byte_frame(tmp_path / "0.ppm", 0, 32, 32)
        _byte_frame(tmp_path / "1.ppm", 1, 32, 48)
        manifest = Manifest([("0.ppm", 0), ("1.ppm", 1)], tmp_path)
        monkeypatch.setattr(pipeline.np, "divide", None)  # a conversion would raise TypeError
        with pytest.raises(ShapeMismatchError, match=r"1\.ppm: 48x32 image"):
            pipeline.load_dataset(manifest, arch.build_toy_net("wht", 8, 32))

    # one 1080p detect, overlay and scores written; float64 frames peaked at 154 MiB
    @pytest.mark.parametrize("variant,block", [("wht", 32), ("conv-baseline", 224)])
    def test_1080p_detect_peak_memory(self, tmp_path, variant, block):
        net = arch.build_toy_net(variant, 8, block, seed=1)
        _byte_frame(tmp_path / "frame.ppm", 1080, 1080, 1920)
        tracemalloc.start()
        try:
            pipeline.detect(net, tmp_path / "frame.ppm", 0.5,
                            out_overlay=tmp_path / "overlay.ppm",
                            out_json=tmp_path / "scores.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestBench:
    def test_report_shape(self):
        report = pipeline.bench(sizes=[256, 512])
        assert [e["n"] for e in report["entries"]] == [256, 512]
        assert all(e["fwht_seconds"] > 0 for e in report["entries"])
        assert "speedup" in report["entries"][0]
        assert len(report["doubling_ratios"]) == 1

    def test_size_validation(self):
        with pytest.raises(SizeTooLargeError):
            pipeline.bench(sizes=[1 << 23])
        with pytest.raises(LengthNotPowerOfTwoError):
            pipeline.bench(sizes=[1000])
