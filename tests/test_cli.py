import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from whtfire import arch, cli, dataio, pipeline
from whtfire.cli import (EXIT_DATA, EXIT_DETECTED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE,
                         _build_parser, main)
from whtfire.dataio import ppm_write
from whtfire.errors import ArchMismatchError, CorruptFileError, WhtFireError
from whtfire.fwht import fwht
from oracles import identity_arm, unit_to_bytes, write_checkpoint


def save_edited(monkeypatch, net, path, edit):
    """``checkpoint_save`` of ``net`` with ``edit`` applied to its header.

    A function edits the header object in place before it is written.  An
    (old, new) byte pair replaces the first ``old`` in the written header's
    JSON text, or all of it when ``old`` is empty, for what no object can
    hold (a repeated key, unbalanced brackets, another JSON value), and the
    header length is rewritten to match.
    """
    if isinstance(edit, tuple):
        dataio.checkpoint_save(net, {}, path)
        raw = path.read_bytes()
        (size,) = struct.unpack("<I", raw[8:12])
        header = raw[12 : 12 + size]
        assert edit[0] in header
        header = header.replace(*edit, 1) if edit[0] else edit[1]
        path.write_bytes(raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + size :])
        return
    original = dataio._header

    def edited(*args):
        header = original(*args)
        edit(header)
        return header

    with monkeypatch.context() as patch:
        patch.setattr(dataio, "_header", edited)
        dataio.checkpoint_save(net, {}, path)


def _rows(edit):
    """A header edit that runs ``edit`` on the layer list."""
    return lambda header: edit(header["layers"])


def _set(index, key, value):
    return _rows(lambda rows: rows[index].update({key: value}))


def _insert(index, kind, channels=8, name=""):
    row = {"kind": kind, "in_channels": channels, "out_channels": channels,
           "threshold_trainable": False, "skip_from": None, "name": name}
    return _rows(lambda rows: rows.insert(index, row))


def _drop_head(rows):
    del rows[18:]


def _four_more_pools(rows):
    rows[18:18] = [dict(rows[6]) for _ in range(4)]


# Malformed layer lists of the wht toy net, whose layers are: 0 stem; blocks
# at 1-5, 7-11 and 13-17 (pw, relu, wht, gain, skip); pools at 6 and 12;
# 18 gap; 19 the dense head; and headers that hold no object to read them
# from.  Each edit and the message it must raise.
LAYER_EDITS = {
    **{f"header-{name}": ((b"", text), "the header is not a JSON object")
       for name, text in (("list", b"[]"), ("number", b"3"), ("null", b"null"),
                          ("text", b'"x"'))},
    "not-a-list": (lambda header: header.update(layers={"kind": "gap"}),
                   "not a list of objects"),
    "missing-key": (_rows(lambda rows: rows[0].pop("name")), "not a list of objects"),
    "extra-key": (_set(0, "stride", 1), "not a list of objects"),
    "repeated-key": ((b'"kind":"relu"', b'"kind":"relu","kind":"relu"'),
                     "the key 'kind' repeats"),
    "nested": ((b'"layers":[', b'"layers":' + b"[" * 100_000), "does not parse"),
    "channels-text": (_set(1, "in_channels", "8"), "wrong type"),
    "channels-bool": (_set(0, "in_channels", True), "wrong type"),
    "name-null": (_set(2, "name", None), "wrong type"),
    "unknown-kind": (_set(2, "kind", "conv5x5"), "unknown layer kind 'conv5x5'"),
    "skip-forward": (_set(5, "skip_from", 7), "adds layer 7, which is not an earlier"),
    "skip-itself": (_set(5, "skip_from", 5), "adds layer 5, which is not an earlier"),
    "skip-out-of-range": (_set(5, "skip_from", 99), "adds layer 99, which is not"),
    "skip-negative": (_set(5, "skip_from", -1), "adds layer -1, which is not"),
    "skip-true": (_set(5, "skip_from", True), "wrong type"),
    "skip-missing": (_set(5, "skip_from", None), "adds layer None, which is not"),
    "channel-mismatch": (_set(1, "in_channels", 16), "layer 1 takes 16 channels, is given 8"),
    "relu-widens": (_set(2, "out_channels", 16), "(relu) cannot give 16 channels"),
    "zero-channels": (_set(1, "out_channels", 0), "(pointwise) cannot give 0 channels"),
    "skip-across-avgpool2": (_set(11, "skip_from", 5), "adds layer 5, whose output has"),
    "no-gap": (_rows(_drop_head), "no gap layer"),
    "two-gaps": (_insert(18, "gap"), "layer 19 is a second gap"),
    "avgpool2-after-gap": (_insert(19, "avgpool2"), "(avgpool2) is on the wrong side of gap"),
    "dense-before-gap": (_insert(18, "dense", name="mid"), "(dense) is on the wrong side"),
    "head-width-3": (_set(19, "out_channels", 3), "gives 3 channels, not 2 classes"),
    "duplicate-tensor-names": (_set(7, "name", "block0.pw"),
                               "repeats the tensor name 'block0.pw.weight'"),
    "input-size-48": (lambda header: header.update(input_size=48),
                      "input_size must be one of (32, 64, 224), got 48"),
    "pools-past-one-pixel": (_rows(_four_more_pools), "6 avgpool2 layers do not halve 32 px"),
}


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

    def test_freeze_stem_without_a_stem_is_data_error(self, dataset_dir, tmp_path, capsys):
        desc = identity_arm()
        desc = dataclasses.replace(desc, layers=(
            dataclasses.replace(desc.layers[0], name="entry"), *desc.layers[1:]))
        ckpt = tmp_path / "c.whtc"
        dataio.checkpoint_save(arch.Network(desc, arch.init_parameters(desc, 0), 0), {}, ckpt)
        argv = ["finetune", "--source", str(ckpt), "--manifest",
                str(dataset_dir / "manifest.csv"), "--epochs", "1"]
        assert main(["--out-dir", str(tmp_path / "frozen"), *argv, "--freeze-stem"]) == EXIT_DATA
        assert "toy-identity has no stem.weight to freeze" in capsys.readouterr().err
        assert not (tmp_path / "frozen").exists()  # refused before training
        assert main(["--out-dir", str(tmp_path / "ft"), *argv]) == EXIT_OK

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


class TestTransferProtocol:
    """The paper's protocol as eight commands: a source net trained on
    plentiful high-contrast images, fine-tuned on few low-contrast ones,
    against the same net trained on those from scratch; both arms are
    evaluated on held-out low-contrast images."""

    @staticmethod
    def _run(root: Path, seed: int = 3) -> None:
        def whtfire(out, *argv, seed=seed):
            assert main(["--seed", str(seed), "--out-dir", str(root / out), *argv]) == EXIT_OK

        whtfire("source_data", "synth", "--count", "6", "--contrast", "0.9", seed=1000 + seed)
        whtfire("target_data", "synth", "--count", "4", "--contrast", "0.25", seed=2000 + seed)
        whtfire("eval_data", "synth", "--count", "4", "--contrast", "0.25", seed=3000 + seed)
        target = str(root / "target_data" / "manifest.csv")
        whtfire("source_run", "train", "--epochs", "2",
                "--manifest", str(root / "source_data" / "manifest.csv"))
        whtfire("scratch_run", "train", "--epochs", "2", "--manifest", target)
        whtfire("finetune_run", "finetune", "--epochs", "2", "--manifest", target,
                "--source", str(root / "source_run" / "checkpoint.whtc"))
        for arm in ("scratch", "finetune"):
            whtfire(f"{arm}_eval", "eval", "--manifest", str(root / "eval_data" / "manifest.csv"),
                    "--checkpoint", str(root / f"{arm}_run" / "checkpoint.whtc"))

    def test_the_commands_run_and_repeat(self, tmp_path):
        for root in ("a", "b"):
            self._run(tmp_path / root)
        outputs = [f"{arm}_run/checkpoint.whtc" for arm in ("source", "scratch", "finetune")]
        outputs += [f"{arm}_eval/metrics.json" for arm in ("scratch", "finetune")]
        for name in outputs:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for arm in ("scratch", "finetune"):
            f1 = json.loads((tmp_path / "a" / f"{arm}_eval" / "metrics.json").read_text())[
                "metrics"]["f1"]
            assert np.isfinite(f1) and 0.0 <= f1 <= 1.0
        run = json.loads((tmp_path / "a" / "finetune_run" / "run.json").read_text())
        assert run["transfer_source"] == str(tmp_path / "a" / "source_run" / "checkpoint.whtc")

    def test_run_and_metrics_json_are_json_dumps_of_their_payload(self, tmp_path):
        # every record is compact json.dumps text and a newline
        self._run(tmp_path)
        names = [f"{arm}_run/run.json" for arm in ("source", "scratch", "finetune")]
        names += [f"{arm}_eval/metrics.json" for arm in ("scratch", "finetune")]
        for name in names:
            text = (tmp_path / name).read_text()
            assert text == json.dumps(json.loads(text), allow_nan=False) + "\n"


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
    UNSAVABLE = {"negative-lambda.whtc", "nan-scale.whtc"}  # checkpoint_save refuses them
    # a stored shape whose element count, 2^64, wraps to 0 in int64, and one
    # of a rank numpy cannot hold
    SHAPES = {"huge-shape.whtc": ("block0.gain", (1 << 21, 1 << 21, 1 << 22)),
              "rank-65.whtc": ("block0.gain", (1,) * 65)}

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
            "bench-sizes-text",
            "transform-text", "transform-binary", "detect-negative-lambda",
            "detect-nan-scale", "detect-empty-pixmap", "detect-short-header",
            "detect-stray-header-byte", "detect-byte-after-maxval",
            "detect-long-header-number", "detect-huge-shape", "detect-rank-65",
            "detect-huge-gain", "eval-binary-manifest", "eval-nul-manifest",
            "eval-huge-gain"])
    def test_documented_exit_code(self, dataset_dir, tmp_path, capsys, monkeypatch, args,
                                  expected, message):
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
            if ckpt.name in self.SHAPES:  # the header declares the shape, the payload is (1,)
                name, shape = self.SHAPES[ckpt.name]
                save_edited(monkeypatch, net, ckpt,
                            lambda header: header["tensors"].update({name: list(shape)}))
            elif ckpt.name in self.UNSAVABLE:
                write_checkpoint(net, ckpt)
            else:
                dataio.checkpoint_save(net, {}, ckpt)
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
        raw = ckpt.read_bytes()
        start = raw.index(b'"layers":[') + len(b'"layers":')
        layers = range(start, raw.index(b"]", raw.index(b'"name":"head",', start)) + 1)
        numbers = [at for at in layers if raw[at : at + 1].isdigit()]
        # (file, command, cut stride, flips, the bytes they reach, flip masks up to):
        # the pixmap's structure is its 13-byte header, so its cuts and flips stay
        # near it.  The checkpoint's layer list gets flips of its own, most of which
        # its text or JSON decoding refuses, so its digits get low-bit flips too:
        # they turn one channel count or skip_from into another
        cases = [(ckpt, detect, 32, 100, None, 256), (ckpt, detect, None, 100, layers, 256),
                 (ckpt, detect, None, 100, numbers, 16),
                 (frame, detect, 1, 50, range(16), 256),
                 (manifest, evaluate, 4, 50, None, 256)]
        escapes = []
        for path, argv, stride, flips, reach, masks in cases:
            raw = path.read_bytes()
            reach = reach or range(len(raw))
            mutants = [(f"cut {n}", raw[:n]) for n in reach[::stride]] if stride else []
            for _ in range(flips):
                at, mask = reach[int(rng.integers(len(reach)))], int(rng.integers(1, masks))
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

    def test_an_overlay_path_that_is_a_directory_exits_data(self, tmp_path, frame, capsys):
        ckpt = tmp_path / "c.whtc"
        dataio.checkpoint_save(arch.build_toy_net("wht", 8, 32), {}, ckpt)
        (tmp_path / "det" / "overlay.ppm").mkdir(parents=True)
        assert self._detect(tmp_path, ckpt, frame) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")

    def _detect(self, tmp_path, ckpt, frame, *extra):
        return main(["--out-dir", str(tmp_path / "det"), "detect",
                     "--checkpoint", str(ckpt), "--image", str(frame), *extra])

    @pytest.mark.parametrize("meta", [
        {"layers": None},
        {"input_size": None},
        {"layers": "eight"},
        {"layers": [8]},
        {"seed": "1.5"},
        {"arch": None},
        # an integer field holds a JSON integer, not text, a float or a bool
        *({key: value} for key in ("input_size", "seed")
          for value in ("32", " +3_2 ", 32.0, True)),
        # each shape is a list of counts
        {"tensors": None},
        *({"tensors": {"stem.weight": dims}} for dims in ("8", [3.0, 8], [True, 8], [-3, 8])),
    ])
    def test_bad_checkpoint_metadata_is_data_error(self, tmp_path, frame, monkeypatch,
                                                   capsys, meta):
        def edit(out):
            for key, value in meta.items():
                if value is None:
                    del out[key]
                else:
                    out[key] = value

        ckpt = tmp_path / "c.whtc"
        save_edited(monkeypatch, arch.build_toy_net("wht", 8, 32), ckpt, edit)
        with pytest.raises(ArchMismatchError):
            dataio.checkpoint_load(ckpt)
        assert self._detect(tmp_path, ckpt, frame) == EXIT_DATA
        assert next(iter(meta)) in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", LAYER_EDITS.values(), ids=LAYER_EDITS)
    def test_a_malformed_layer_list_is_data_error(self, tmp_path, frame, monkeypatch,
                                                  capsys, edit, message):
        ckpt = tmp_path / "c.whtc"
        save_edited(monkeypatch, arch.build_toy_net("wht", 8, 32), ckpt, edit)
        with pytest.raises(WhtFireError, match=re.escape(message)):
            dataio.checkpoint_load(ckpt)
        assert self._detect(tmp_path, ckpt, frame) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert main(["--out-dir", str(tmp_path / "ev"), "eval", "--checkpoint", str(ckpt),
                     "--manifest", str(tmp_path / "unread.csv")]) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "det").exists() and not (tmp_path / "ev").exists()

    # each of these loaded before, the last copy read winning or the tail ignored
    @pytest.mark.parametrize("extra, old, new, message", [
        ({}, b'"note"', b'"seed"', "the key 'seed' repeats"),
        ({"head.biat": np.full(2, 7.0, np.float32)}, b'"head.biat"', b'"head.bias"',
         "the key 'head.bias' repeats"),
        ({}, b"", b"\x00\x00\x00\x00", "4 bytes follow the last tensor"),
    ], ids=["repeated-metadata-key", "repeated-tensor-name", "trailing-bytes"])
    def test_a_checkpoint_that_repeats_or_trails_is_corrupt(self, tmp_path, frame, capsys,
                                                            extra, old, new, message):
        net = arch.build_toy_net("wht", 8, 32, seed=3)
        net.parameters.update(extra)
        ckpt = tmp_path / "c.whtc"
        write_checkpoint(net, ckpt, {"note": "9"})
        raw = ckpt.read_bytes()
        assert raw.count(old) == 1 or not old
        ckpt.write_bytes(raw.replace(old, new) if old else raw + new)
        with pytest.raises(CorruptFileError, match=re.escape(message)):
            dataio.checkpoint_load(ckpt)
        assert self._detect(tmp_path, ckpt, frame) == EXIT_DATA
        assert message in capsys.readouterr().err

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
    # the option strings and defaults of train, finetune and params
    @pytest.mark.parametrize("argv, options, defaults", [
        (["train", "--manifest", "m"],
         "-h --help --manifest --variant --epochs --lr --momentum --batch-size --width "
         "--input-size", {"variant": "wht", "epochs": 25, "lr": 0.01, "momentum": 0.9,
                          "batch_size": 8, "width": 8, "input_size": 32}),
        (["finetune", "--manifest", "m", "--source", "s"],
         "-h --help --source --manifest --epochs --lr --momentum --batch-size --freeze-stem",
         {"epochs": 25, "lr": 0.001, "momentum": 0.9, "batch_size": 8, "freeze_stem": False}),
        (["params", "--arch", "toy-wht"], "-h --help --arch --width", {"width": 8}),
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
    # the width-8 tables, byte for byte
    _TOY_WHT = (
        "stem                         pointwise            24\n"
        "block0.pw                    pointwise            64\n"
        "wht0                         wht                   8\n"
        "block0.gain                  gain                  1\n"
        "block1.pw                    pointwise            64\n"
        "wht1                         wht                   8\n"
        "block1.gain                  gain                  1\n"
        "block2.pw                    pointwise            64\n"
        "wht2                         wht                   8\n"
        "block2.gain                  gain                  1\n"
        "head                         dense                18\n"
        "total                                            261\n"
    )
    _TOY_CONV = (
        "stem                         pointwise            24\n"
        "block0.pw                    pointwise            64\n"
        "block0.conv                  conv3x3             576\n"
        "block0.gain                  gain                  1\n"
        "block1.pw                    pointwise            64\n"
        "block1.conv                  conv3x3             576\n"
        "block1.gain                  gain                  1\n"
        "block2.pw                    pointwise            64\n"
        "block2.conv                  conv3x3             576\n"
        "block2.gain                  gain                  1\n"
        "head                         dense                18\n"
        "total                                          1,965\n"
    )

    def test_toy_arches(self, capsys):
        for name, expected in (("toy-wht", self._TOY_WHT), ("toy-conv", self._TOY_CONV)):
            assert main(["params", "--arch", name]) == EXIT_OK
            assert capsys.readouterr().out == expected

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

    def test_a_diverged_run_prints_only_its_error(self, dataset_dir, tmp_path):
        # in a process of its own, numpy's warnings would print to stderr as they do for a user
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "whtfire.cli", "--out-dir", str(tmp_path / "r"), "train",
             "--manifest", str(dataset_dir / "manifest.csv"), "--lr", "1e30", "--epochs", "2"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == EXIT_DATA
        run = tmp_path / "r" / "run.json"
        reason = json.loads(run.read_text())["early_stop_reason"]
        assert done.stderr == (
            f"error: training diverged ({reason}); no checkpoint written, see {run}\n")

    def test_an_overflowing_detect_prints_only_its_error(self, tmp_path):
        # the huge-gain checkpoint of TestExitCodes: its finite gain overflows
        # every score to NaN, which the error line reports
        net = arch.build_toy_net("wht", 8, 32, threshold_trainable=True)
        net.parameters["block0.gain"][:] = 3e38
        ckpt, frame = tmp_path / "huge-gain.whtc", tmp_path / "frame.ppm"
        dataio.checkpoint_save(net, {}, ckpt)
        ppm_write(unit_to_bytes(np.random.default_rng(2).random((64, 96, 3))), frame)
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "whtfire.cli", "--out-dir", str(tmp_path / "det"),
             "detect", "--checkpoint", str(ckpt), "--image", str(frame)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == EXIT_DATA
        assert done.stderr == "error: the network gives 2 of 2 windows a non-finite score\n"

    def test_a_crash_exits_internal_with_its_traceback(self):
        # Python's own status for an uncaught exception, 1, is detect's "fire detected"
        script = ("import sys\nfrom whtfire import cli, pipeline\n"
                  "def broken(*args, **kwargs):\n    raise RuntimeError('a planted bug')\n"
                  "pipeline.bench = broken\nsys.argv = ['whtfire', 'bench']\ncli.main_entry()\n")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_INTERNAL
        assert "Traceback" in done.stderr and "RuntimeError: a planted bug" in done.stderr

    def test_out_of_memory_exits_internal(self, monkeypatch, tmp_path, capsys):
        # synth --resolution 1000000000 asks numpy for 333 PiB; only the error is planted
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 333. PiB")

        monkeypatch.setattr(dataio, "synth_image", no_memory)
        monkeypatch.setattr(sys, "argv", ["whtfire", "--out-dir", str(tmp_path), "synth",
                                          "--count", "1", "--resolution", "1000000000"])
        with pytest.raises(SystemExit) as exc:
            cli.main_entry()
        assert exc.value.code == EXIT_INTERNAL
        assert "MemoryError: Unable to allocate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [(["params", "--arch", "toy-wht"], EXIT_OK),
                                            (["params", "--arch", "toy"], EXIT_USAGE),
                                            (["eval", "--checkpoint", "missing.whtc",
                                              "--manifest", "missing.csv"], EXIT_DATA)])
    def test_mapped_codes_pass_through(self, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["whtfire", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main_entry()
        assert exc.value.code == code

    def test_help_documents_every_exit_code(self):
        text = " ".join(_build_parser().format_help().split())
        for code, meaning in [(EXIT_OK, "success"), (EXIT_DETECTED, "fire detected"),
                              (EXIT_USAGE, "usage error"), (EXIT_DATA, "data or format error"),
                              (EXIT_INTERNAL, "internal error")]:
            assert f"{code} {meaning}" in text
