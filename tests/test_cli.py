import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from whtfire import arch, dataio, pipeline
from whtfire.cli import EXIT_DATA, EXIT_DETECTED, EXIT_OK, EXIT_USAGE, _build_parser, main
from whtfire.dataio import ppm_write
from whtfire.errors import ArchMismatchError
from whtfire.fwht import fwht
from whtfire.nn import TrainConfig
from oracles import unit_to_bytes


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
        ppm_write(unit_to_bytes(np.random.default_rng(1).random((96, 128, 3))), frame)
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

    def test_precision_f64_trains_in_float64(self, dataset_dir, tmp_path):
        manifest = dataset_dir / "manifest.csv"
        for precision in ("f32", "f64"):
            assert main(["--seed", "3", "--precision", precision,
                         "--out-dir", str(tmp_path / precision),
                         "train", "--manifest", str(manifest), "--epochs", "2"]) == EXIT_OK
        _, _, ckpt = pipeline.train(manifest, "wht", TrainConfig(epochs=2, seed=3),
                                    tmp_path / "lib", dtype=np.float64)
        f32, f64 = (tmp_path / p / "checkpoint.whtc" for p in ("f32", "f64"))
        assert f64.read_bytes() == ckpt.read_bytes()
        assert f64.read_bytes() != f32.read_bytes()

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
    # input files named by the transform, detect and eval cases
    INPUTS = {"words.txt": b"1\n2\nthree\n4\n", "binary.txt": b"\xff\xfe1\n2\n",
              "empty.ppm": b"P6 0 0 255\n", "short.ppm": b"P6\n2 2",
              "stray.ppm": b"P6\n2 x 255\n", "comment.ppm": b"P6\n2 1\n255#c\n" + bytes(6),
              "long.ppm": b"P6\n" + b"9" * 5000 + b" 1\n255\n" + bytes(3),
              "binary.csv": b"\xff\xfebg_0000.ppm,0\n", "nul.csv": b"bg\x00_0000.ppm,0\n"}
    # checkpoint tensor values no training run writes, named by the detect and eval
    # cases; a finite gain of 3e38 overflows the forward pass to NaN scores
    TENSORS = {"negative-lambda.whtc": ("wht0.lambda", -0.5),
               "nan-scale.whtc": ("wht0.scale", np.nan),
               "huge-gain.whtc": ("block0.gain", 3e38)}
    # a stored shape whose element count, 2^64, wraps to 0 in int64, and one
    # of a rank numpy cannot hold
    SHAPES = {"huge-shape.whtc": ("block0.gain", (1 << 21, 1 << 21, 1 << 22)),
              "rank-65.whtc": ("block0.gain", (1,) * 65)}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging run overflows
    @pytest.mark.parametrize("args, expected, message", [
        (["train", "--width", "12"], EXIT_USAGE, "--width"),
        (["train", "--width", "eight"], EXIT_USAGE, "--width"),
        (["train", "--input-size", "48"], EXIT_USAGE, "--input-size"),
        (["train", "--lr", "nan"], EXIT_USAGE, "finite"),
        (["finetune", "--lr", "nan"], EXIT_USAGE, "finite"),
        (["train", "--lr", "1000"], EXIT_DATA, "diverged"),
        (["train", "--input-size", "64"], EXIT_DATA, "32x32 image, network input 64x64"),
        (["train", "--manifest", "mixed.csv"], EXIT_DATA, "16x16 image, network input 32x32"),
        (["params", "--arch", "toy-wht", "--width", "12"], EXIT_USAGE, "--width"),
        (["--seed", "-1", "synth"], EXIT_USAGE, "--seed"),
        (["train", "--epochs", "-1"], EXIT_USAGE, "--epochs"),
        (["train", "--momentum", "1"], EXIT_USAGE, "--momentum"),
        (["train", "--batch-size", "0"], EXIT_USAGE, "--batch-size"),
        (["synth", "--count", "0"], EXIT_USAGE, "--count"),
        (["synth", "--contrast", "2"], EXIT_USAGE, "--contrast"),
        (["synth", "--resolution", "4"], EXIT_USAGE, "--resolution"),
        (["params", "--arch", "resnet50", "--classes", "-1"], EXIT_USAGE, "--classes"),
        (["bench", "--sizes", "8,x"], EXIT_USAGE, "--sizes"),
        (["transform", "--input", "words.txt"], EXIT_DATA, "line 3: 'three'"),
        (["transform", "--input", "binary.txt"], EXIT_DATA, "not UTF-8"),
        (["detect", "--checkpoint", "negative-lambda.whtc"], EXIT_DATA,
         "threshold wht0.lambda is negative"),
        (["detect", "--checkpoint", "nan-scale.whtc"], EXIT_DATA,
         "tensor wht0.scale holds a non-finite value"),
        (["detect", "--image", "empty.ppm"], EXIT_DATA, "0x0 pixmap has no pixels"),
        (["detect", "--image", "short.ppm"], EXIT_DATA, "header ended early"),
        (["detect", "--image", "stray.ppm"], EXIT_DATA, "unexpected header byte"),
        (["detect", "--image", "comment.ppm"], EXIT_DATA, "b'#' after maxval"),
        (["detect", "--image", "long.ppm"], EXIT_DATA, "header number"),
        (["detect", "--checkpoint", "huge-shape.whtc"], EXIT_DATA, "ran out of bytes"),
        (["detect", "--checkpoint", "rank-65.whtc"], EXIT_DATA,
         "tensor block0.gain has shape (1, 1, 1,"),
        (["detect", "--checkpoint", "huge-gain.whtc"], EXIT_DATA,
         "gives 2 of 2 windows a non-finite score"),
        (["eval", "--manifest", "binary.csv"], EXIT_DATA, "not UTF-8"),
        (["eval", "--manifest", "nul.csv"], EXIT_DATA, "1: NUL byte in path"),
        (["eval", "--checkpoint", "huge-gain.whtc"], EXIT_DATA,
         "gives 20 of 20 samples a non-finite fire probability"),
    ], ids=["width", "width-text", "input-size", "lr-nan", "finetune-lr-nan",
            "lr-diverges", "input-size-mismatch", "mixed-sizes", "params-width",
            "seed-negative", "epochs-negative", "momentum-one", "batch-size-zero",
            "synth-count-zero", "synth-contrast-two", "synth-resolution-four",
            "params-classes-negative", "bench-sizes-text",
            "transform-text", "transform-binary", "detect-negative-lambda",
            "detect-nan-scale", "detect-empty-pixmap", "detect-short-header",
            "detect-stray-header-byte", "detect-byte-after-maxval",
            "detect-long-header-number", "detect-huge-shape", "detect-rank-65",
            "detect-huge-gain", "eval-binary-manifest", "eval-nul-manifest",
            "eval-huge-gain"])
    def test_documented_exit_code(self, dataset_dir, tmp_path, capsys, args, expected,
                                  message):
        if args[0] == "finetune":
            dataio.checkpoint_save(arch.build_toy_net("wht", 8, 32), {}, tmp_path / "c.whtc")
            args = args + ["--source", str(tmp_path / "c.whtc"),
                           "--manifest", str(dataset_dir / "manifest.csv")]
        if args[0] == "train":
            if "mixed.csv" in args:  # one 16 px image among the 32 px ones
                ppm_write(unit_to_bytes(np.zeros((16, 16, 3))), dataset_dir / "small.ppm")
                (dataset_dir / "mixed.csv").write_text(
                    (dataset_dir / "manifest.csv").read_text() + "small.ppm,1\n")
                args = args[:-1] + [str(dataset_dir / "mixed.csv")]
            else:
                args = args + ["--manifest", str(dataset_dir / "manifest.csv")]
            args = args + ["--epochs", "2"]
        if args[0] == "transform":
            vec = tmp_path / args[-1]
            vec.write_bytes(self.INPUTS[args[-1]])
            args = args[:-1] + [str(vec)]
        if args[0] in ("detect", "eval"):
            files = {"--checkpoint": "c.whtc", "--image": "frame.ppm", args[1]: args[2]}
            ckpt, image = tmp_path / files["--checkpoint"], tmp_path / files["--image"]
            net = arch.build_toy_net("wht", 8, 32, threshold_trainable=True)
            if ckpt.name in self.TENSORS:
                name, value = self.TENSORS[ckpt.name]
                net.parameters[name][:] = value
            dataio.checkpoint_save(net, {}, ckpt)
            if ckpt.name in self.SHAPES:
                name, shape = self.SHAPES[ckpt.name]
                field = struct.pack("<I", len(name)) + name.encode()
                raw = ckpt.read_bytes()
                stored = field + struct.pack("<2I", 1, 1)  # rank 1, shape (1,)
                assert raw.count(stored) == 1
                ckpt.write_bytes(raw.replace(
                    stored, field + struct.pack(f"<{len(shape) + 1}I", len(shape), *shape)))
        if args[0] == "detect":
            if image.name in self.INPUTS:
                image.write_bytes(self.INPUTS[image.name])
            else:
                ppm_write(unit_to_bytes(np.random.default_rng(2).random((64, 96, 3))),
                          image)
            args = ["detect", "--checkpoint", str(ckpt), "--image", str(image)]
        if args[0] == "eval":
            manifest = dataset_dir / "manifest.csv"
            if args[1] == "--manifest":
                manifest = tmp_path / args[2]
                manifest.write_bytes(self.INPUTS[args[2]])
            args = ["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)]
        try:
            rc = main(["--out-dir", str(tmp_path / "out"), *args])
        except SystemExit as exc:
            rc = exc.code
        assert rc == expected
        assert message in capsys.readouterr().err
        if args[0] in ("train", "finetune"):
            assert not (tmp_path / "out" / "checkpoint.whtc").exists()
        if args[0] in ("detect", "eval"):  # nothing is written for a refused result
            assert not list((tmp_path / "out").glob("*"))

    def test_unmapped_exception_propagates(self, monkeypatch):
        # a plain ValueError from inside a command is a bug, not a usage error
        def broken(checkpoint, manifest):
            raise ValueError("a bug")

        monkeypatch.setattr(pipeline, "evaluate", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["eval", "--checkpoint", "c.whtc", "--manifest", "m.csv"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # corrupt finite tensors overflow
    def test_corrupt_inputs_end_with_a_documented_code(self, dataset_dir, tmp_path, capsys):
        # seeded truncations and byte flips of a valid checkpoint, pixmap and manifest
        rng = np.random.default_rng(0)
        ckpt, frame = tmp_path / "c.whtc", tmp_path / "frame.ppm"
        dataio.checkpoint_save(arch.build_toy_net("wht", 8, 32, threshold_trainable=True),
                               {}, ckpt)
        ppm_write(unit_to_bytes(rng.random((64, 96, 3))), frame)
        manifest = dataset_dir / "four.csv"
        rows = (dataset_dir / "manifest.csv").read_text().splitlines()
        manifest.write_text("\n".join(rows[:2] + rows[-2:]) + "\n")
        detect = ["detect", "--checkpoint", str(ckpt), "--image", str(frame)]
        evaluate = ["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)]
        # (file, command, cut stride, flips, bytes the cuts and flips reach): the
        # pixmap's structure is its 13-byte header, so its cuts and flips stay near it
        cases = [(ckpt, detect, 32, 100, None), (frame, detect, 1, 50, 16),
                 (manifest, evaluate, 4, 50, None)]
        escapes = []
        for path, argv, stride, flips, reach in cases:
            raw = path.read_bytes()
            reach = reach or len(raw)
            mutants = [(f"cut {n}", raw[:n]) for n in range(0, reach, stride)]
            for _ in range(flips):
                at, mask = int(rng.integers(reach)), int(rng.integers(1, 256))
                flipped = bytearray(raw)
                flipped[at] ^= mask
                mutants.append((f"byte {at} ^ {mask}", bytes(flipped)))
            for label, mutant in mutants:
                path.write_bytes(mutant)
                try:
                    rc = main(["--out-dir", str(tmp_path / "out"), *argv])
                except Exception as exc:  # every escape is a finding
                    rc = repr(exc)
                err = capsys.readouterr().err
                if rc not in (EXIT_OK, EXIT_DETECTED) and not (
                        rc == EXIT_DATA and err.startswith("error: ")):
                    escapes.append((path.name, label, rc))
            path.write_bytes(raw)
        assert escapes == []


class TestDetectErrors:
    @pytest.fixture()
    def frame(self, tmp_path):
        path = tmp_path / "frame.ppm"
        ppm_write(unit_to_bytes(np.random.default_rng(2).random((64, 96, 3))), path)
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
        {"arch": "toy-mlp"},
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


class TestTrainingOptions:
    # the option strings and defaults of train and finetune, as first released
    @pytest.mark.parametrize("argv, options, defaults", [
        (["train", "--manifest", "m"],
         "-h --help --manifest --variant --epochs --lr --momentum --batch-size --width "
         "--input-size", {"variant": "wht", "epochs": 25, "lr": 0.01, "momentum": 0.9,
                          "batch_size": 8, "width": 8, "input_size": 32}),
        (["finetune", "--manifest", "m", "--source", "s"],
         "-h --help --source --manifest --epochs --lr --momentum --batch-size --freeze-stem",
         {"epochs": 25, "lr": 0.001, "momentum": 0.9, "batch_size": 8, "freeze_stem": False}),
    ])
    def test_same_options_and_defaults(self, capsys, argv, options, defaults):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == set(options.split())
        args = vars(_build_parser().parse_args(argv))
        assert {key: args[key] for key in defaults} == defaults


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


class TestEntryPoint:
    def test_exit_code_leaves_the_process(self, tmp_path):
        # main_entry's sys.exit(main()) carries EXIT_DETECTED out of the interpreter
        net = arch.build_toy_net("wht", 8, 32)
        net.parameters["head.bias"][:] = [-50.0, 50.0]  # every window scores fire
        ckpt, frame = tmp_path / "c.whtc", tmp_path / "frame.ppm"
        dataio.checkpoint_save(net, {}, ckpt)
        ppm_write(unit_to_bytes(np.random.default_rng(2).random((64, 96, 3))), frame)
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "whtfire.cli", "--out-dir", str(tmp_path / "det"),
             "detect", "--checkpoint", str(ckpt), "--image", str(frame)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == EXIT_DETECTED, done.stderr
        assert "detected=True" in done.stdout
