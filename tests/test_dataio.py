import dataclasses
import errno
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from whtfire import arch, dataio, tiling
from whtfire.cli import EXIT_DATA, main
from whtfire.errors import (
    ArchMismatchError,
    BadMagicError,
    BadMetadataError,
    CorruptFileError,
    InvalidDescriptorError,
    ManifestError,
    ShapeMismatchError,
    TensorShapeMismatchError,
    TruncatedFileError,
    UnsupportedMaxvalError,
    VersionMismatchError,
)
from oracles import identity_arm, read_checkpoint, unit_to_bytes, write_checkpoint


class TestPpmCodec:
    def test_single_white_pixel(self, tmp_path):
        p = tmp_path / "w.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\xff\xff\xff")
        img = dataio.ppm_read(p)
        assert img.dtype == np.uint8 and img.shape == (1, 1, 3)
        assert img.tolist() == [[[255, 255, 255]]]

    def test_roundtrip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((13, 7, 3))
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        dataio.ppm_write(unit_to_bytes(img), a)
        dataio.ppm_write(dataio.ppm_read(a), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_write_rejects_float_frames(self, tmp_path, dtype):
        # floats in [0, 1] are the caller's to turn into bytes (synth_dataset does)
        p = tmp_path / "x.ppm"
        with pytest.raises(ShapeMismatchError, match=r"uint8 frame, got float"):
            dataio.ppm_write(np.full((2, 3, 3), 0.5, dtype), p)
        assert not p.exists()

    def test_values_scaled_to_unit_interval(self, tmp_path):
        # the read keeps the payload bytes; scaling to [0, 1] is the caller's
        p = tmp_path / "g.ppm"
        payload = bytes([0, 0, 0, 128, 64, 255])
        p.write_bytes(b"P6\n2 1\n255\n" + payload)
        img = dataio.ppm_read(p)
        assert img.dtype == np.uint8 and img.shape == (1, 2, 3)
        assert img.tobytes() == payload

    def test_read_is_a_read_only_view(self, tmp_path):
        p = tmp_path / "v.ppm"
        p.write_bytes(b"P6\n1 2\n255\n" + bytes(range(6)))
        img = dataio.ppm_read(p)
        assert not img.flags.writeable
        with pytest.raises(ValueError):
            img[0, 0, 0] = 1

    def test_uint8_roundtrip_keeps_the_bytes(self, tmp_path):
        raw = b"P6\n7 13\n255\n" + np.random.default_rng(4).bytes(13 * 7 * 3)
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        a.write_bytes(raw)
        dataio.ppm_write(dataio.ppm_read(a), b)
        assert b.read_bytes() == raw

    def test_uint8_write_of_a_strided_view(self, tmp_path):
        u = np.random.default_rng(5).integers(0, 256, (6, 10, 3), dtype=np.uint8)
        p = tmp_path / "s.ppm"
        dataio.ppm_write(u[::2, 1::3], p)
        assert p.read_bytes() == b"P6\n3 3\n255\n" + u[::2, 1::3].tobytes()

    def test_header_comments_are_skipped(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n1 1\n# another\n255\n\x00\x01\x02")
        img = dataio.ppm_read(p)
        assert img.shape == (1, 1, 3)

    # six ASCII whitespace bytes separate header numbers, and a comment runs
    # to the end of its line; a megabyte of comments must read without backtracking
    @pytest.mark.parametrize("header", [
        b"P6\x0b1\x0c1\r255\t", b"P6 #c\n1 #d\n1#e\n255\n", b"P6#c\n1 1 255\n",
        b"P6\n0001 01 0255\n",
        b"P6\n" + (b"# " * 15 + b"#\n") * (1 << 15) + b"1 1\n255\n",
    ], ids=["separators", "comments", "comment-after-magic", "leading-zeros",
            "1MiB-of-comments"])
    def test_header_whitespace_and_comments(self, tmp_path, header):
        p = tmp_path / "h.ppm"
        p.write_bytes(header + b"\x01\x02\x03")
        assert dataio.ppm_read(p).tobytes() == b"\x01\x02\x03"

    @pytest.mark.parametrize("raw, message", [
        (b"P5\n1 1\n255\n\x00", "expected P6 magic"),
        # the magic ends at whitespace or a comment: P61 is not P6 then 1
        (b"P61 1 255\n\x01\x02\x03", "no whitespace after P6 magic, got b'1'$"),
        (b"P60001 1 255\n\x01\x02\x03", "no whitespace after P6 magic, got b'0'$"),
        (b"P6\n2 x 255\n", "unexpected header byte b'x'"),
        (b"P6\n-1 1 255\n", "unexpected header byte b'-'"),
        # only ASCII whitespace separates: not a Latin-1 no-break space
        (b"P6\n1\xa01\n255\n\x01\x02\x03", r"unexpected header byte b'\\xa0'$"),
        # a comment or any other byte right after maxval is not pixel data
        (b"P6\n2 1\n255#c\n\x0a\x0a\x0a\x14\x1e\x28", "b'#' after maxval"),
        (b"P6\n1 1\n255X\x00\x00\x00", "b'X' after maxval"),
    ])
    def test_bad_magic(self, tmp_path, raw, message):
        p = tmp_path / "p.ppm"
        p.write_bytes(raw)
        with pytest.raises(BadMagicError, match=message):
            dataio.ppm_read(p)

    @pytest.mark.parametrize("raw, message", [
        (b"P6\n2 2\n255\n\x00\x00\x00", "expected 12 pixel bytes, found 3"),
        (b"P6\n2 2", "header ended early"),
        (b"P6", "header ended early"),
        (b"P6#x", "header ended early"),
        (b"P6\n1 1\n# a comment that runs to the end of the file", "header ended early"),
    ])
    def test_truncated_payload(self, tmp_path, raw, message):
        p = tmp_path / "t.ppm"
        p.write_bytes(raw)
        with pytest.raises(TruncatedFileError, match=message):
            dataio.ppm_read(p)

    # the payload is read at an offset into the file, never past its end
    @pytest.mark.parametrize("raw", [b"P6\n2 2\n255\n", b"P6\n2 2\n255"])
    def test_no_payload(self, tmp_path, raw):
        p = tmp_path / "t.ppm"
        p.write_bytes(raw)
        with pytest.raises(TruncatedFileError, match="found 0"):
            dataio.ppm_read(p)

    # int() converts at most 4,300 digits, so a longer header number is corrupt
    @pytest.mark.parametrize("raw", [
        b"P6\n" + b"9" * 5000 + b" 1\n255\n\x00\x00\x00",
        b"P6\n1 1\n" + b"0" * 5000 + b"255\n\x00\x00\x00",
    ], ids=["width", "maxval"])
    def test_header_number_past_the_digit_limit(self, tmp_path, raw):
        p = tmp_path / "n.ppm"
        p.write_bytes(raw)
        with pytest.raises(CorruptFileError, match="header number"):
            dataio.ppm_read(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "m.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(UnsupportedMaxvalError):
            dataio.ppm_read(p)

    def test_write_rejects_non_rgb(self, tmp_path):
        with pytest.raises(ValueError):
            dataio.ppm_write(np.zeros((4, 4)), tmp_path / "x.ppm")
        with pytest.raises(ShapeMismatchError):
            dataio.ppm_write(np.zeros((4, 4, 4), np.uint8), tmp_path / "x.ppm")

    @pytest.mark.parametrize("shape", [(0, 5, 3), (5, 0, 3)])
    def test_write_refuses_a_frame_without_pixels(self, tmp_path, shape):
        # refused before the file is opened: the frame at the path keeps its bytes
        p = tmp_path / "overlay.ppm"
        dataio.ppm_write(np.full((4, 4, 3), 7, np.uint8), p)
        old = p.read_bytes()
        with pytest.raises(ShapeMismatchError, match="non-empty"):
            dataio.ppm_write(np.zeros(shape, np.uint8), p)
        assert p.read_bytes() == old


class TestWriteFile:
    """``_write_file`` writes over a file's old bytes instead of emptying it first."""

    def test_a_shorter_payload_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "overlay.ppm"
        dataio.ppm_write(np.full((40, 30, 3), 9, np.uint8), path)
        small = np.arange(2 * 5 * 3, dtype=np.uint8).reshape(2, 5, 3)
        dataio.ppm_write(small, path)
        assert path.read_bytes() == b"P6\n5 2\n255\n" + small.tobytes()

    def test_a_payload_no_shorter_is_written_without_a_cut(self, tmp_path, monkeypatch):
        # the next frame's overlay has the same length: its write is the only change
        path = tmp_path / "overlay.ppm"
        dataio.ppm_write(np.full((4, 4, 3), 1, np.uint8), path)
        cuts = []
        monkeypatch.setattr(os, "ftruncate", lambda fd, length: cuts.append(length))
        dataio.ppm_write(np.full((4, 4, 3), 2, np.uint8), path)
        assert cuts == [] and path.read_bytes() == b"P6\n4 4\n255\n" + bytes([2] * 48)

    def test_a_longer_payload_replaces_the_old_file(self, tmp_path):
        path = tmp_path / "scores.json"
        path.write_bytes(b"old")
        dataio._write_json({"a": [1, 2]}, path)
        assert path.read_bytes() == b'{"a": [1, 2]}\n'

    def test_a_failed_write_leaves_only_what_it_wrote(self, tmp_path, monkeypatch):
        # the header and 150 pixel bytes land, then the disk fills: the old
        # frame's tail must not pad the file back to a readable length
        path = tmp_path / "overlay.ppm"
        dataio.ppm_write(np.full((8, 8, 3), 7, np.uint8), path)
        new = np.full((8, 8, 3), 200, np.uint8)
        written, write = [], os.write

        def filling(fd, data):
            if sum(written) >= 11 + 150:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(write(fd, data[:50]))
            return written[-1]

        monkeypatch.setattr(os, "write", filling)
        with pytest.raises(OSError, match="No space"):
            dataio.ppm_write(new, path)
        monkeypatch.undo()
        assert path.read_bytes() == (b"P6\n8 8\n255\n" + new.tobytes())[:161]
        with pytest.raises(TruncatedFileError):
            dataio.ppm_read(path)

    def test_a_new_file_gets_the_mode_open_gives(self, tmp_path):
        # os.open's own default mode, 0o777, would add the execute bits
        old_umask = os.umask(0)
        try:
            with open(tmp_path / "reference", "wb"):
                pass
            dataio._write_file(tmp_path / "new", b"x")
        finally:
            os.umask(old_umask)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("reference", "new")]
        assert modes[0] == modes[1]

    def test_a_device_is_written_and_not_cut(self, monkeypatch):
        dataio.ppm_write(np.zeros((2, 2, 3), np.uint8), os.devnull)
        dataio._write_file(os.devnull, b"abc", memoryview(b"def"))

        def full(fd, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "write", full)
        with pytest.raises(OSError, match="No space"):  # not ftruncate's EINVAL
            dataio._write_file(os.devnull, b"abc")

    def test_a_directory_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            dataio.ppm_write(np.zeros((2, 2, 3), np.uint8), tmp_path)
        with pytest.raises(OSError):
            dataio._write_json({}, tmp_path)


class TestWriteJson:
    """``_write_json`` writes the bytes of compact ``json.dumps(payload,
    allow_nan=False)`` and a newline."""

    @staticmethod
    def _check(payload, path):
        dataio._write_json(payload, path)
        want = json.dumps(payload, allow_nan=False) + "\n"
        assert path.read_bytes() == want.encode()

    # 1e-06 and 5e-07 are written in exponent form; 5e-07 rounds to 0.0 at 6
    # places, 5.1e-07 to 1e-06 and 0.9999996 to 1.0
    EDGES = [0.0, 1.0, 1e-06, 5e-07, 5.1e-07, 0.9999996, 0.5, 1 / 3, 2 ** -20]

    @pytest.mark.parametrize("rows, cols", [(33, 60), (6, 10), (2, 2), (1, 1)])
    def test_score_grids_are_json_dumps(self, tmp_path, rows, cols):
        spec = tiling.GridSpec(rows * 32, cols * 32, 32)
        scores = np.random.default_rng(rows).random(spec.windows)
        scores.flat[: len(self.EDGES)] = self.EDGES[: scores.size]
        payload = tiling.score_grid_json(tiling.ScoreGrid(spec, scores), "frame.ppm")
        assert spec.fallback == (min(rows, cols) == 1)
        self._check(payload, tmp_path / "scores.json")

    def test_edge_scores_round_as_json_writes_them(self, tmp_path):
        spec = tiling.GridSpec(64, 32 * (len(self.EDGES) + 1), 32)
        payload = tiling.score_grid_json(tiling.ScoreGrid(spec, [self.EDGES]), "f.ppm")
        assert payload["scores"] == [[0.0, 1.0, 1e-06, 0.0, 1e-06, 1.0, 0.5, 0.333333, 1e-06]]
        self._check(payload, tmp_path / "scores.json")

    @pytest.mark.parametrize("payload", [
        {}, [], {"a": [[1.0], [2.5, -0.0]], "b": {"c": [[]], "d": [[1, 2.0]]}},
        [[0.1, 0.2], [0.3]], {"x": [[1e308, 1e308]]}, {"x": [[True, 1.0]]}, {1: [[1.0]]},
        {"a\nb": "c\nd", "t": (1.0, 2.0)}, [[[1.0]]], [[1.0], []], [[1.0], (2.0,)],
    ])
    def test_other_payloads_are_json_dumps(self, tmp_path, payload):
        self._check(payload, tmp_path / "x.json")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_score_raises(self, tmp_path, bad):
        with pytest.raises(ValueError, match="Out of range float values"):
            dataio._write_json({"scores": [[0.5, 0.5], [bad, 0.5]]}, tmp_path / "s.json")


class TestManifest:
    def test_parse_and_roundtrip(self, tmp_path):
        text = "# header comment\nimgs/a.ppm,0\n\nimgs/b.ppm,1\n"
        p = tmp_path / "manifest.csv"
        p.write_text(text)
        man = dataio.load_manifest(p)
        assert man.entries == [("imgs/a.ppm", 0), ("imgs/b.ppm", 1)]
        assert man.root == tmp_path
        out = tmp_path / "copy.csv"
        dataio.save_manifest(man, out)
        assert dataio.load_manifest(out).entries == man.entries

    def test_saved_as_utf8_under_an_ascii_locale(self, tmp_path):
        # load_manifest reads UTF-8, so save_manifest must write it whatever the
        # locale; the child's source stays ASCII, as the C locale decodes argv
        path = tmp_path / "manifest.csv"
        script = ("import sys\nfrom pathlib import Path\nfrom whtfire import dataio\n"
                  "path = Path(sys.argv[1])\n"
                  "dataio.save_manifest(dataio.Manifest([('fum\\u00e9e.ppm', 1)], path.parent), path)\n"
                  "print(ascii(dataio.load_manifest(path).entries))\n")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))}
        src = Path(__file__).resolve().parent.parent / "src"
        env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script, str(path)],
                              env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        assert done.stdout == b"[('fum\\xe9e.ppm', 1)]\n"
        assert path.read_bytes() == "fumée.ppm,1\n".encode("utf-8")
        assert dataio.load_manifest(path).entries == [("fumée.ppm", 1)]

    def test_bad_label_reports_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a.ppm,0\nb.ppm,2\n")
        with pytest.raises(ManifestError, match=":2:"):
            dataio.load_manifest(p)

    def test_duplicate_path_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a.ppm,0\na.ppm,1\n")
        with pytest.raises(ManifestError, match="duplicate"):
            dataio.load_manifest(p)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a.ppm;0\n")
        with pytest.raises(ManifestError, match=":1:"):
            dataio.load_manifest(p)

    # each would read back as another manifest, or fail only at the next load
    @pytest.mark.parametrize("entries,message", [
        ([("a.ppm", 0), ("#b.ppm", 1)], r"row \('#b\.ppm', 1\) would not load back"),
        ([(" s.ppm", 1)], r"row \(' s\.ppm', 1\) would not load back"),
        ([("s.ppm\t", 1)], r"row \('s\.ppm\\t', 1\) would not load back"),
        ([("a,b.ppm", 0)], ":1: expected 'path,label'"),
        ([("a\nb.ppm", 0)], ":1: expected 'path,label'"),
        ([("a.ppm,1\nb.ppm", 0)], r"row \('a\.ppm,1\\nb\.ppm', 0\) would not load back"),
        ([("a.ppm", 0), ("a.ppm", 1)], ":2: duplicate path 'a.ppm'"),
        ([("a.ppm", 2)], ":1: label must be 0 or 1, got '2'"),
        ([("a.ppm", True)], ":1: label must be 0 or 1, got 'True'"),
    ])
    def test_a_manifest_that_would_not_load_back_writes_nothing(self, tmp_path, entries,
                                                                  message):
        p = tmp_path / "m.csv"
        with pytest.raises(ManifestError, match=message):
            dataio.save_manifest(dataio.Manifest(entries, tmp_path), p)
        assert not p.exists()

    def test_saved_rows_load_back_equal(self, tmp_path):
        entries = [("imgs/a b.ppm", 0), ("fumée#1.ppm", np.int64(1)), ("x", 0)]
        p = tmp_path / "m.csv"
        dataio.save_manifest(dataio.Manifest(entries, tmp_path), p)
        assert p.read_bytes() == "imgs/a b.ppm,0\nfumée#1.ppm,1\nx,0\n".encode("utf-8")
        assert dataio.load_manifest(p).entries == entries


class TestSynthDataset:
    def test_deterministic_bytes(self, tmp_path):
        cfg = dataio.SynthConfig(seed=5, count_per_class=3, resolution=16,
                                 smoke_contrast=0.7)
        man_a = dataio.synth_dataset(cfg, tmp_path / "a")
        man_b = dataio.synth_dataset(cfg, tmp_path / "b")
        assert [e for e in man_a.entries] == [e for e in man_b.entries]
        for (rel, _), (rel_b, _) in zip(man_a.entries, man_b.entries):
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel_b
            ).read_bytes()

    @pytest.mark.parametrize("seed,resolution,contrast",
                             [(0, 32, 0.0), (3, 64, 0.4), (7, 16, 0.9)])
    def test_files_are_the_bytes_of_synth_image(self, tmp_path, seed, resolution,
                                                contrast):
        cfg = dataio.SynthConfig(seed=seed, count_per_class=3, resolution=resolution,
                                 smoke_contrast=contrast)
        man = dataio.synth_dataset(cfg, tmp_path)
        header = b"P6\n%d %d\n255\n" % (resolution, resolution)
        for i, (rel, label) in enumerate(man.entries):
            want = unit_to_bytes(dataio.synth_image(cfg, i % 3, label))
            assert (tmp_path / rel).read_bytes() == header + want.tobytes()

    def test_counts_and_balance(self, tmp_path):
        cfg = dataio.SynthConfig(seed=1, count_per_class=100, resolution=8)
        man = dataio.synth_dataset(cfg, tmp_path / "d")
        assert len(man) == 200
        labels = man.labels()
        assert labels.sum() == 100

    def test_blobs_are_localized(self):
        # class means differ by less than the blob amplitude
        cfg = dataio.SynthConfig(seed=2, count_per_class=100, resolution=16,
                                 smoke_contrast=0.8)
        mean0 = np.mean([dataio.synth_image(cfg, i, 0).mean() for i in range(100)])
        mean1 = np.mean([dataio.synth_image(cfg, i, 1).mean() for i in range(100)])
        assert abs(mean1 - mean0) < cfg.smoke_contrast

    def test_zero_contrast_classes_identical_in_distribution(self):
        cfg = dataio.SynthConfig(seed=3, count_per_class=50, resolution=16,
                                 smoke_contrast=0.0)
        mean0 = np.mean([dataio.synth_image(cfg, i, 0).mean() for i in range(50)])
        mean1 = np.mean([dataio.synth_image(cfg, i, 1).mean() for i in range(50)])
        assert abs(mean1 - mean0) < 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            dataio.SynthConfig(count_per_class=0)
        with pytest.raises(ValueError):
            dataio.SynthConfig(smoke_contrast=1.5)
        with pytest.raises(ValueError, match="resolution"):
            dataio.SynthConfig(resolution=4)

    # refused at construction, before synth_dataset makes out_dir; a bool count
    # would write one image per class
    @pytest.mark.parametrize("setting, message", [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": np.int64(-1)}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an int, got 1.5"),
        ({"seed": True}, "seed must be an int, got True"),
        ({"count_per_class": 2.5}, "count_per_class must be an int, got 2.5"),
        ({"count_per_class": True}, "count_per_class must be an int, got True"),
        ({"resolution": 32.0}, "resolution must be an int, got 32.0"),
        ({"resolution": "32"}, "resolution must be an int, got '32'"),
        ({"smoke_contrast": True}, "smoke_contrast must be a real number, got True"),
        ({"smoke_contrast": np.bool_(False)}, "smoke_contrast must be a real number, got False"),
        ({"smoke_contrast": "0.5"}, "smoke_contrast must be a real number, got '0.5'"),
    ])
    def test_fields_must_be_numbers_of_their_type(self, setting, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataio.SynthConfig(**setting)

    def test_numpy_scalars_write_the_bytes_of_python_numbers(self, tmp_path):
        cfg = dataio.SynthConfig(np.int64(3), np.int32(2), np.uint8(16), np.float32(0.5))
        assert [type(v) for v in vars(cfg).values()] == [int, int, int, float]
        written = []
        for config, out in ((cfg, "a"), (dataio.SynthConfig(3, 2, 16, 0.5), "b")):
            man = dataio.synth_dataset(config, tmp_path / out)
            written.append([(tmp_path / out / rel).read_bytes() for rel, _ in man.entries])
        assert written[0] == written[1]


class TestCheckpoint:
    def _net(self, **kw):
        return arch.build_toy_net("wht", 8, 32, seed=9, **kw)

    def test_save_load_save_identical_bytes(self, tmp_path):
        net = self._net()
        a, b = tmp_path / "a.whtc", tmp_path / "b.whtc"
        dataio.checkpoint_save(net, {"epoch": "25"}, a)
        loaded = dataio.checkpoint_load(a)
        dataio.checkpoint_save(loaded, {"epoch": "25"}, b)
        assert a.read_bytes() == b.read_bytes()

    def test_tensors_roundtrip_bit_exact(self, tmp_path):
        net = self._net()
        p = tmp_path / "c.whtc"
        dataio.checkpoint_save(net, {}, p)
        loaded = dataio.checkpoint_load(p)
        assert set(loaded.parameters) == set(net.parameters)
        for name in net.parameters:
            assert np.array_equal(loaded.parameters[name], net.parameters[name])

    def test_forward_identical_after_reload(self, tmp_path):
        net = self._net()
        p = tmp_path / "c.whtc"
        dataio.checkpoint_save(net, {}, p)
        loaded = dataio.checkpoint_load(p)
        patch = np.random.default_rng(0).random((32, 32, 3)).astype(np.float32)
        assert np.array_equal(
            arch.forward_classify(net, patch), arch.forward_classify(loaded, patch)
        )

    # a hand-built arm, the thresholded wht net, conv at 224 px and a float64 net
    ARMS = {
        "wht": lambda: arch.build_toy_net("wht", 8, 32, seed=9),
        "wht-lambda": lambda: arch.build_toy_net("wht", 16, 64, seed=9,
                                                 threshold_trainable=True),
        "conv-224": lambda: arch.build_toy_net("conv-baseline", 8, 224, seed=9),
        "float64": lambda: arch.build_toy_net("wht", 8, 32, seed=9, dtype=np.float64),
        "identity": lambda: arch.Network(identity_arm(), arch.init_parameters(
            identity_arm(), 9), 9),
    }

    @pytest.mark.parametrize("make", ARMS.values(), ids=ARMS)
    def test_every_arm_saves_loads_and_saves_the_same_bytes(self, tmp_path, make):
        net = make()
        rng = np.random.default_rng(4)  # values off their init, thresholds above 0
        for t in net.parameters.values():
            t[...] = np.abs(rng.normal(size=t.shape))
        a, b = tmp_path / "a.whtc", tmp_path / "b.whtc"
        dataio.checkpoint_save(net, {"epoch": "25"}, a)
        loaded = dataio.checkpoint_load(a)
        assert loaded.descriptor == net.descriptor and loaded.seed == 9
        dataio.checkpoint_save(loaded, {"epoch": "25"}, b)
        assert a.read_bytes() == b.read_bytes()
        header, tensors = read_checkpoint(a)
        assert header["epoch"] == "25"
        assert header["tensors"] == {name: list(t.shape) for name, t in tensors.items()}
        assert list(loaded.parameters) == list(net.parameters)
        assert tensors.keys() == loaded.parameters.keys()
        for name, t in loaded.parameters.items():
            assert t.dtype == np.float32 and t.tobytes() == tensors[name].tobytes()
            assert t.tobytes() == net.parameters[name].astype(np.float32).tobytes()

    def test_metadata_cannot_override_the_network(self, tmp_path):
        p = tmp_path / "c.whtc"
        dataio.checkpoint_save(self._net(), {"seed": 1, "input_size": 64, "arch": "x",
                                             "layers": [], "tensors": {}}, p)
        loaded = dataio.checkpoint_load(p)
        assert loaded.seed == 9 and loaded.descriptor == self._net().descriptor

    def test_a_descriptor_load_refuses_is_not_saved(self, tmp_path):
        desc = identity_arm()
        head = dataclasses.replace(desc.layers[-1], out_channels=3)
        desc = dataclasses.replace(desc, layers=(*desc.layers[:-1], head))
        net = arch.Network(desc, arch.init_parameters(desc, 0), 0)
        p = tmp_path / "c.whtc"
        with pytest.raises(InvalidDescriptorError, match="gives 3 channels, not 2 classes"):
            dataio.checkpoint_save(net, {}, p)
        assert not p.exists()

    @pytest.mark.parametrize("change, error", [
        ({"wht1.scale": None}, ArchMismatchError),  # None drops the tensor
        ({"extra": np.ones(2, np.float32)}, ArchMismatchError),
        ({"wht1.scale": np.ones(9, np.float32)}, TensorShapeMismatchError),
        ({"head.bias": np.ones((1, 2), np.float32)}, TensorShapeMismatchError),
    ])
    def test_tensors_load_refuses_are_not_saved(self, tmp_path, change, error):
        net = arch.build_toy_net("wht")
        params = {k: v for k, v in {**net.parameters, **change}.items() if v is not None}
        p = tmp_path / "c.whtc"
        with pytest.raises(error, match="^toy-wht: tensor"):
            dataio.checkpoint_save(arch.Network(net.descriptor, params, 0), {}, p)
        assert not p.exists()

    @pytest.mark.parametrize("edit, message, load_error, load_message", [
        (lambda net: setattr(net, "seed", True), "seed True is not of type int",
         ArchMismatchError, "'seed' is True, not of type int"),
        (lambda net: setattr(net, "seed", 1.5), "seed 1.5 is not of type int",
         ArchMismatchError, "'seed' is 1.5, not of type int"),
        (lambda net: setattr(net, "seed", "7"), "seed '7' is not of type int",
         ArchMismatchError, "'seed' is '7', not of type int"),
        (lambda net: net.parameters["head.bias"].fill(np.nan),
         "tensor head.bias holds a non-finite value", CorruptFileError, None),
        (lambda net: net.parameters["wht0.lambda"].fill(-0.5),
         "threshold wht0.lambda is negative", CorruptFileError, None),
    ], ids=["seed-bool", "seed-float", "seed-text", "nan-bias", "negative-lambda"])
    def test_values_load_refuses_are_not_saved(self, tmp_path, edit, message, load_error,
                                               load_message):
        net = self._net(threshold_trainable=True)
        edit(net)
        p = tmp_path / "c.whtc"
        with pytest.raises(ArchMismatchError, match=f"^toy-wht: {re.escape(message)}$"):
            dataio.checkpoint_save(net, {}, p)
        assert not p.exists()
        write_checkpoint(net, p)  # the file it would have written, which the loader refuses
        with pytest.raises(load_error, match=re.escape(load_message or message)):
            dataio.checkpoint_load(p)

    def test_a_float64_value_float32_cannot_hold_is_not_saved(self, tmp_path):
        net = self._net(dtype=np.float64)
        net.parameters["head.bias"][0] = 1e300  # stored as float32: inf
        p = tmp_path / "c.whtc"
        with pytest.raises(ArchMismatchError, match="head.bias holds a non-finite value"):
            dataio.checkpoint_save(net, {}, p)
        assert not p.exists()

    @pytest.mark.parametrize("index, field, value, message", [
        (2, "threshold_trainable", True, "layer 2 (relu) sets threshold_trainable"),
        (1, "skip_from", 0, "layer 1 (pointwise) sets skip_from"),
    ], ids=["relu-threshold", "pointwise-skip"])
    def test_a_field_its_kind_never_reads_is_not_loaded(self, tmp_path, index, field, value,
                                                         message):
        desc = self._net().descriptor
        layers = list(desc.layers)
        layers[index] = dataclasses.replace(layers[index], **{field: value})
        desc = dataclasses.replace(desc, layers=tuple(layers))
        p = tmp_path / "c.whtc"
        write_checkpoint(arch.Network(desc, arch.init_parameters(desc, 9), 9), p)
        with pytest.raises(InvalidDescriptorError, match=f"^toy-wht: {re.escape(message)}"):
            dataio.checkpoint_load(p)

    def test_a_numpy_seed_is_saved_as_its_python_int(self, tmp_path):
        a, b = tmp_path / "a.whtc", tmp_path / "b.whtc"
        dataio.checkpoint_save(arch.build_toy_net("wht", seed=np.int64(1)), {}, a)
        dataio.checkpoint_save(arch.build_toy_net("wht", seed=1), {}, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("metadata", [{"note": np.float32(1.5)}, {"epoch": np.int64(25)},
                                          {"loss": float("nan")}, {"note": b"x"}, {1: "x"}])
    def test_metadata_json_cannot_hold_writes_nothing(self, tmp_path, metadata):
        p = tmp_path / "c.whtc"
        with pytest.raises(BadMetadataError, match="JSON cannot hold"):
            dataio.checkpoint_save(self._net(), metadata, p)
        assert not p.exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.whtc"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            dataio.checkpoint_load(p)

    def test_version_mismatch(self, tmp_path, capsys):
        net = self._net()
        p = tmp_path / "c.whtc"
        dataio.checkpoint_save(net, {}, p)
        raw = bytearray(p.read_bytes())
        assert raw[4:8] == b"\x03\x00\x00\x00"
        # 1 named one of two toy nets, 2 split its description over a key/value
        # block, a layer list in JSON and a binary tensor table; no loader is kept
        for version in (99, 2, 1):
            raw[4] = version  # the little-endian version field
            p.write_bytes(bytes(raw))
            with pytest.raises(VersionMismatchError, match=f"version {version}, expected 3"):
                dataio.checkpoint_load(p)
        assert main(["eval", "--checkpoint", str(p), "--manifest", "m.csv"]) == EXIT_DATA
        assert "version 1, expected 3" in capsys.readouterr().err

    def test_truncated_checkpoint(self, tmp_path):
        net = self._net()
        p = tmp_path / "c.whtc"
        dataio.checkpoint_save(net, {}, p)
        p.write_bytes(p.read_bytes()[:-20])
        with pytest.raises(TruncatedFileError):
            dataio.checkpoint_load(p)

    def test_tensor_shape_mismatch(self, tmp_path):
        net = self._net()
        net.parameters["head.bias"] = np.zeros(3, dtype=np.float32)  # sabotage
        p = tmp_path / "c.whtc"
        write_checkpoint(net, p)
        with pytest.raises(TensorShapeMismatchError):
            dataio.checkpoint_load(p)

    @pytest.mark.parametrize("sabotage, message", [
        (lambda params: params.pop("head.bias"), r"missing \['head.bias'\], extra \[\]"),
        (lambda params: params.update({"head.scale": np.ones(2, np.float32)}),
         r"missing \[\], extra \['head.scale'\]"),
    ], ids=["missing", "extra"])
    def test_tensor_names_disagree(self, tmp_path, sabotage, message):
        net = self._net()
        sabotage(net.parameters)
        p = tmp_path / "c.whtc"
        write_checkpoint(net, p)
        with pytest.raises(ArchMismatchError, match=message):
            dataio.checkpoint_load(p)

    def test_float64_networks_persist_as_float32(self, tmp_path):
        net = self._net(dtype=np.float64)
        p = tmp_path / "c.whtc"
        dataio.checkpoint_save(net, {}, p)
        loaded = dataio.checkpoint_load(p)
        assert loaded.parameters["head.weight"].dtype == np.float32
