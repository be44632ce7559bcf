import json

import numpy as np
import pytest

from whtfire import arch, pipeline
from whtfire.dataio import SynthConfig, checkpoint_load, ppm_write, synth_dataset
from whtfire.errors import (
    EmptyDatasetError,
    LengthNotPowerOfTwoError,
    SingleClassDatasetError,
    SizeTooLargeError,
    TrainingDivergedError,
)
from whtfire.nn import TrainConfig

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

    def test_run_record_contents(self, small_dataset, tmp_path):
        cfg = TrainConfig(epochs=3, learning_rate=0.01, seed=0)
        record, _, ckpt = pipeline.train(small_dataset, "wht", cfg, tmp_path / "r")
        assert len(record.epochs) == 3
        assert record.final_checkpoint == str(ckpt)
        assert record.transfer_source is None
        run_json = json.loads((tmp_path / "r" / "run.json").read_text())
        assert run_json["config"]["epochs"] == 3
        assert [e["epoch"] for e in run_json["epochs"]] == [1, 2, 3]
        assert record.early_stop_reason is None
        assert run_json["early_stop_reason"] is None

    def test_thresholds_stay_at_their_bound(self, small_dataset, tmp_path):
        # at seed 1 the steps push wht0's and wht2's thresholds below 0
        cfg = TrainConfig(epochs=2, seed=1)
        _, net, ckpt = pipeline.train(small_dataset, "wht", cfg, tmp_path / "r",
                                      threshold_trainable=True)
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
        from whtfire.dataio import Manifest
        man = Manifest([], tmp_path)
        with pytest.raises(EmptyDatasetError):
            pipeline.train(man, "wht", TrainConfig(epochs=1, seed=0), tmp_path / "r")


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to nan
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to nan
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
        _, tuned, _ = pipeline.finetune(src_ckpt, small_dataset, zero, tmp_path / "ft")
        for name in src_net.parameters:
            assert np.array_equal(tuned.parameters[name], src_net.parameters[name])

    def test_freeze_stem_keeps_stem_tensors(self, small_dataset, tmp_path):
        cfg = TrainConfig(epochs=2, learning_rate=0.01, seed=2)
        _, src_net, src_ckpt = pipeline.train(
            small_dataset, "wht", cfg, tmp_path / "src"
        )
        ft = TrainConfig(epochs=2, learning_rate=0.01, seed=2)
        _, tuned, _ = pipeline.finetune(
            src_ckpt, small_dataset, ft, tmp_path / "ft", freeze_stem=True
        )
        assert np.array_equal(tuned.parameters["stem.weight"],
                              src_net.parameters["stem.weight"])
        assert not np.array_equal(tuned.parameters["head.weight"],
                                  src_net.parameters["head.weight"])

    def test_records_transfer_source(self, small_dataset, tmp_path):
        cfg = TrainConfig(epochs=1, learning_rate=0.01, seed=0)
        _, _, src_ckpt = pipeline.train(small_dataset, "wht", cfg, tmp_path / "src")
        record, _, _ = pipeline.finetune(src_ckpt, small_dataset, cfg, tmp_path / "ft")
        assert record.transfer_source == str(src_ckpt)


class TestTransferExperiment:
    def test_tiny_protocol_runs_and_repeats(self, tmp_path):
        sizes = dict(epochs=2, source_count=6, target_count=4, eval_count=4)
        first = pipeline.transfer_experiment(3, tmp_path / "a", **sizes)
        for key in ("scratch_f1", "finetuned_f1"):
            assert np.isfinite(first[key]) and 0.0 <= first[key] <= 1.0
        run = json.loads((tmp_path / "a" / "finetune_run" / "run.json").read_text())
        assert run["transfer_source"] == str(tmp_path / "a" / "source_run" / "checkpoint.whtc")
        assert pipeline.transfer_experiment(3, tmp_path / "b", **sizes) == first


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
        ppm_write(image, img_path)
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
        ppm_write(image, img_path)
        grid, _ = pipeline.detect(ckpt, img_path, 0.5,
                                  out_json=tmp_path / "fb.json")
        assert grid.fallback
        payload = json.loads((tmp_path / "fb.json").read_text())
        assert payload["fallback"] is True
        assert len(payload["scores"]) == 1 and len(payload["scores"][0]) == 1

    def test_degenerate_row_grid_falls_back(self, small_dataset, tmp_path):
        net, ckpt = self._trained(small_dataset, tmp_path)
        image = np.random.default_rng(2).random((32, 160, 3))
        img_path = tmp_path / "strip.ppm"
        ppm_write(image, img_path)
        grid, _ = pipeline.detect(ckpt, img_path, 0.5)
        assert grid.fallback and grid.scores.shape == (1, 1)

    def test_threshold_one_never_detects(self, small_dataset, tmp_path):
        net, ckpt = self._trained(small_dataset, tmp_path)
        image = np.random.default_rng(3).random((96, 96, 3))
        img_path = tmp_path / "f.ppm"
        ppm_write(image, img_path)
        grid, detected = pipeline.detect(ckpt, img_path, threshold=1.0)
        assert (grid.scores < 1.0).all()
        assert detected is False

    def test_identical_runs_identical_artifacts(self, small_dataset, tmp_path):
        net, ckpt = self._trained(small_dataset, tmp_path)
        image = np.random.default_rng(4).random((96, 128, 3))
        img_path = tmp_path / "g.ppm"
        ppm_write(image, img_path)
        for d in ("one", "two"):
            pipeline.detect(ckpt, img_path, 0.5,
                            out_overlay=tmp_path / d / "o.ppm",
                            out_json=tmp_path / d / "s.json",
                            draw_scores=True)
        assert (tmp_path / "one" / "o.ppm").read_bytes() == (
            tmp_path / "two" / "o.ppm").read_bytes()
        assert (tmp_path / "one" / "s.json").read_bytes() == (
            tmp_path / "two" / "s.json").read_bytes()


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
