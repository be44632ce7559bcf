import json

import numpy as np
import pytest

from whtfire import arch, dataio
from whtfire.cli import EXIT_DATA, EXIT_DETECTED, EXIT_OK, EXIT_USAGE, main
from whtfire.dataio import ppm_write
from whtfire.errors import ArchMismatchError
from whtfire.fwht import fwht


@pytest.fixture()
def dataset_dir(tmp_path):
    rc = main([
        "--seed", "7", "--out-dir", str(tmp_path / "ds"),
        "synth", "--count", "10", "--resolution", "32", "--contrast", "0.9",
    ])
    assert rc == EXIT_OK
    return tmp_path / "ds"


class TestTransform:
    def test_forward_matches_library(self, tmp_path, capsys):
        vec = tmp_path / "v.txt"
        vec.write_text("3\n1\n2\n0\n")
        assert main(["transform", "--input", str(vec)]) == EXIT_OK
        out = [float(s) for s in capsys.readouterr().out.split()]
        assert out == [6.0, 4.0, 2.0, 0.0]

    def test_inverse_roundtrip(self, tmp_path, capsys):
        vec = tmp_path / "v.txt"
        values = np.random.default_rng(0).normal(size=8)
        vec.write_text("\n".join(repr(float(v)) for v in values))
        main(["transform", "--input", str(vec)])
        fwd = capsys.readouterr().out
        fwd_file = tmp_path / "f.txt"
        fwd_file.write_text(fwd)
        main(["transform", "--input", str(fwd_file), "--inverse"])
        back = [float(s) for s in capsys.readouterr().out.split()]
        assert np.max(np.abs(np.array(back) - values)) <= 1e-9

    def test_twelve_significant_digits(self, tmp_path, capsys):
        vec = tmp_path / "v.txt"
        vec.write_text("0.12345678901234\n0\n")
        main(["transform", "--input", str(vec)])
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "0.123456789012"

    def test_normalized_flag(self, tmp_path, capsys):
        vec = tmp_path / "v.txt"
        vec.write_text("1\n1\n1\n1\n")
        main(["transform", "--input", str(vec), "--normalized"])
        out = [float(s) for s in capsys.readouterr().out.split()]
        assert np.allclose(out, [2.0, 0.0, 0.0, 0.0])

    def test_bad_length_is_data_error(self, tmp_path, capsys):
        vec = tmp_path / "v.txt"
        vec.write_text("1\n2\n3\n")
        assert main(["transform", "--input", str(vec)]) == EXIT_DATA


class TestTrainEvalDetect:
    def test_full_cycle(self, dataset_dir, tmp_path, capsys):
        manifest = dataset_dir / "manifest.csv"
        run_dir = tmp_path / "run"
        rc = main([
            "--seed", "0", "--out-dir", str(run_dir),
            "train", "--manifest", str(manifest), "--variant", "wht",
            "--epochs", "2",
        ])
        assert rc == EXIT_OK
        ckpt = run_dir / "checkpoint.whtc"
        assert ckpt.exists() and (run_dir / "run.json").exists()

        rc = main([
            "--out-dir", str(tmp_path / "eval"),
            "eval", "--checkpoint", str(ckpt), "--manifest", str(manifest),
        ])
        assert rc == EXIT_OK
        table = capsys.readouterr().out
        assert "accuracy" in table and "f1" in table
        payload = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert set(payload["metrics"]) >= {"accuracy", "precision", "recall", "f1"}

        frame = tmp_path / "frame.ppm"
        ppm_write(np.random.default_rng(1).random((96, 128, 3)), frame)
        rc = main([
            "--out-dir", str(tmp_path / "det"),
            "detect", "--checkpoint", str(ckpt), "--image", str(frame),
            "--tau", "1.0",
        ])
        assert rc == EXIT_OK  # tau = 1.0 cannot trigger
        rc = main([
            "--out-dir", str(tmp_path / "det2"),
            "detect", "--checkpoint", str(ckpt), "--image", str(frame),
            "--tau", "0.0",
        ])
        assert rc == EXIT_DETECTED  # tau = 0.0 always triggers
        scores = json.loads((tmp_path / "det2" / "scores.json").read_text())
        assert scores["grid"] == [3, 4]
        assert (tmp_path / "det2" / "overlay.ppm").exists()

    def test_finetune_cycle(self, dataset_dir, tmp_path):
        manifest = dataset_dir / "manifest.csv"
        src = tmp_path / "src"
        main(["--seed", "0", "--out-dir", str(src),
              "train", "--manifest", str(manifest), "--epochs", "1"])
        rc = main([
            "--seed", "0", "--out-dir", str(tmp_path / "ft"),
            "finetune", "--source", str(src / "checkpoint.whtc"),
            "--manifest", str(manifest), "--epochs", "1", "--freeze-stem",
        ])
        assert rc == EXIT_OK
        assert (tmp_path / "ft" / "checkpoint.whtc").exists()

    def test_missing_checkpoint_is_data_error(self, dataset_dir, tmp_path, capsys):
        rc = main([
            "eval", "--checkpoint", str(tmp_path / "nope.whtc"),
            "--manifest", str(dataset_dir / "manifest.csv"),
        ])
        assert rc == EXIT_DATA

    def test_bad_manifest_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a.ppm,5\n")
        rc = main(["train", "--manifest", str(bad)])
        assert rc == EXIT_DATA


class TestExitCodes:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging run overflows
    @pytest.mark.parametrize("args, expected", [
        (["train", "--width", "12"], EXIT_USAGE),
        (["train", "--width", "eight"], EXIT_USAGE),
        (["train", "--input-size", "48"], EXIT_USAGE),
        (["train", "--lr", "nan"], EXIT_USAGE),
        (["train", "--lr", "1000"], EXIT_DATA),
        (["params", "--arch", "toy-wht", "--width", "12"], EXIT_USAGE),
        (["transform"], EXIT_DATA),
    ], ids=["width", "width-text", "input-size", "lr-nan", "lr-diverges", "params-width",
            "transform-text"])
    def test_documented_exit_code(self, dataset_dir, tmp_path, capsys, args, expected):
        if args[0] == "train":
            args = args + ["--manifest", str(dataset_dir / "manifest.csv"), "--epochs", "2"]
        if args[0] == "transform":
            vec = tmp_path / "v.txt"
            vec.write_text("1\n2\nthree\n4\n")
            args = args + ["--input", str(vec)]
        try:
            rc = main(["--out-dir", str(tmp_path / "out"), *args])
        except SystemExit as exc:
            rc = exc.code
        assert rc == expected
        err = capsys.readouterr().err
        if args[0] == "transform":
            assert "line 3" in err and "three" in err
        if expected == EXIT_DATA and args[0] == "train":
            assert "diverged" in err
            assert not (tmp_path / "out" / "checkpoint.whtc").exists()


class TestDetectErrors:
    @pytest.fixture()
    def frame(self, tmp_path):
        path = tmp_path / "frame.ppm"
        ppm_write(np.random.default_rng(2).random((64, 96, 3)), path)
        return path

    def _detect(self, tmp_path, ckpt, frame, *extra):
        return main(["--out-dir", str(tmp_path / "det"), "detect",
                     "--checkpoint", str(ckpt), "--image", str(frame), *extra])

    @pytest.mark.parametrize("meta", [
        {"width": None},
        {"input_size": None},
        {"width": "eight"},
        {"threshold_trainable": "yes"},
        {"seed": "1.5"},
    ])
    def test_bad_checkpoint_metadata_is_data_error(self, tmp_path, frame, monkeypatch,
                                                   capsys, meta):
        original = dataio._descriptor_metadata

        def edited(desc):
            out = original(desc)
            for key, value in meta.items():
                if value is None:
                    del out[key]
                else:
                    out[key] = value
            return out

        monkeypatch.setattr(dataio, "_descriptor_metadata", edited)
        ckpt = tmp_path / "c.whtc"
        dataio.checkpoint_save(arch.build_toy_net("wht", 8, 32), {}, ckpt)
        with pytest.raises(ArchMismatchError):
            dataio.checkpoint_load(ckpt)
        assert self._detect(tmp_path, ckpt, frame) == EXIT_DATA
        assert next(iter(meta)) in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["key", "value", "tensor"])
    def test_undecodable_text_is_data_error(self, tmp_path, frame, capsys, where):
        net = arch.build_toy_net("wht", 8, 32)
        ckpt = tmp_path / "c.whtc"
        dataio.checkpoint_save(net, {"note": "ZZZZ"}, ckpt)
        target = {"key": b"note", "value": b"ZZZZ", "tensor": b"stem.weight"}[where]
        raw = ckpt.read_bytes()
        assert raw.count(target) == 1
        ckpt.write_bytes(raw.replace(target, b"\xff" * len(target)))
        assert self._detect(tmp_path, ckpt, frame) == EXIT_DATA
        assert "undecodable" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["nan", "-0.1", "1.5", "inf", "half"])
    def test_tau_outside_unit_interval_is_usage_error(self, tmp_path, frame, capsys, tau):
        ckpt = tmp_path / "c.whtc"
        dataio.checkpoint_save(arch.build_toy_net("wht", 8, 32), {}, ckpt)
        with pytest.raises(SystemExit) as exc:
            self._detect(tmp_path, ckpt, frame, "--tau", tau)
        assert exc.value.code == EXIT_USAGE
        assert "--tau" in capsys.readouterr().err
        assert not (tmp_path / "det").exists()


class TestParams:
    def test_resnet50_table(self, capsys):
        assert main(["params", "--arch", "resnet50"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "23,512,146" in out  # reference count is reported
        assert "assumptions:" in out
        assert "total" in out

    def test_preset_strictly_smaller(self, capsys):
        main(["params", "--arch", "resnet50"])
        full = capsys.readouterr().out
        main(["params", "--arch", "wht-resnet50-preset"])
        preset = capsys.readouterr().out
        get_total = lambda text: int(
            [l for l in text.splitlines() if l.startswith("total")][0]
            .split()[-1].replace(",", "")
        )
        assert get_total(preset) < get_total(full)

    def test_toy_arches(self, capsys):
        main(["params", "--arch", "toy-wht", "--width", "16"])
        out = capsys.readouterr().out
        assert "wht" in out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["params", "--arch", "vgg"])
        assert exc.value.code == 2


class TestBenchCli:
    def test_small_bench(self, capsys):
        assert main(["bench", "--sizes", "256,512"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "N=" in out and "speedup" in out

    def test_oversize_is_data_error(self, capsys):
        assert main(["bench", "--sizes", str(1 << 23)]) == EXIT_DATA


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
