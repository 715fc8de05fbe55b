import dataclasses
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from segtag import corpus as cp
from segtag import modelfile as mf
from segtag.autograd import NumericError
from segtag.encoder import EncoderConfig
from segtag.model import Model
from segtag.toydata import toy_corpus
from util import topology_config, topology_grid

DATA = Path(__file__).parent / "data"
# the stored use_conv, use_pooling, use_highway and mlp_baseline bytes of each stack
STACK_FLAG_BYTES = {"embed": (0, 0, 0, 0), "conv": (1, 0, 0, 0), "pool": (1, 1, 0, 0),
                    "highway": (1, 1, 1, 0), "mlp": (0, 0, 0, 1)}
# the offset of the u32 d; h and Q follow it, then Q map widths, then the flags
WIDTHS_AT = len(mf.MAGIC) + 4


def flag_offsets(q):
    """The offsets of the four flag bytes in a file holding q map widths."""
    first = WIDTHS_AT + 12 + 4 * q
    return (first, first + 1, first + 2, first + 4)


def build_model(seed=4, use_bigram=False, constrained=False, normalize_width=False):
    cfg = EncoderConfig(d=5, h=4, feature_map_sets=2, feature_maps=(6, 9),
                        use_bigram=use_bigram)
    sents = toy_corpus(10, seed=1)
    vocab, tagset = cp.build_vocab_and_tagset(sents, use_bigram=use_bigram,
                                              bigram_min_count=1)
    return Model(cfg, vocab, tagset, seed=seed, constrain_transitions=constrained,
                 normalize_width=normalize_width)


def file_version(path):
    return struct.unpack("<I", path.read_bytes()[len(mf.MAGIC):len(mf.MAGIC) + 4])[0]


def rewrite_field(path, offset, fmt, value):
    """Overwrite one field and re-seal the checksum, so only that field is wrong."""
    body = bytearray(path.read_bytes()[:-4])
    struct.pack_into(fmt, body, offset, value)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))


def rewrite_version(path, version):
    rewrite_field(path, len(mf.MAGIC), "<I", version)


class TestSave:
    def test_saving_twice_is_byte_identical(self, tmp_path):
        model = build_model()
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        c1 = mf.save(model, p1)
        c2 = mf.save(model, p2)
        assert c1 == c2
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_round_trip_bytes(self, tmp_path):
        model = build_model(use_bigram=True)
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        mf.save(model, p1)
        loaded = mf.load(p1)
        mf.save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("dtype, value", [(np.float32, np.nan), (np.float32, np.inf),
                                              (np.float64, 1e300)])
    def test_non_finite_parameter_refused_before_the_file_opens(self, tmp_path, dtype, value):
        # 1e300 is finite in float64 but inf once stored as float32
        model = build_model()
        model = Model(model.cfg, model.vocab, model.tagset, dtype=dtype)
        model.named["lstm.bwd.w"].data[1, 2] = value
        path = tmp_path / "a.model"
        with pytest.raises(NumericError, match="parameter 'lstm.bwd.w' holds NaN/Inf"):
            mf.save(model, path)
        assert not path.exists()
        path.write_bytes(b"kept")
        with pytest.raises(NumericError):
            mf.save(model, path)
        assert path.read_bytes() == b"kept"

    def test_unwritable_path_surfaces_oserror(self, tmp_path):
        model = build_model()
        with pytest.raises(OSError, match="no/such"):
            mf.save(model, tmp_path / "no" / "such" / "dir.model")

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        # a file-size limit below the model's size, set in the saving process
        # only; with SIGXFSZ ignored the write fails with EFBIG
        path = tmp_path / "m.model"
        mf.save(build_model(seed=5), path)
        before = path.read_bytes()
        script = (
            "import resource, signal, sys\n"
            "from segtag import modelfile as mf\n"
            "model = mf.load(sys.argv[1])\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE,\n"
            "                   (int(sys.argv[2]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
            "model.named['trans.a'].data += 1\n"
            "try:\n"
            "    mf.save(model, sys.argv[1])\n"
            "except OSError as e:\n"
            "    sys.exit(f'refused: {e}')\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(path), str(len(before) // 2)],
                              capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stderr.startswith("refused: cannot write model")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.model"]

    def test_save_keeps_what_writing_in_place_kept(self, tmp_path):
        # a new file's mode is the one open(path, "wb") gives, an existing
        # file keeps its own, and a symbolic link is written through
        model = build_model()
        (tmp_path / "plain").write_bytes(b"")
        new = tmp_path / "new.model"
        mf.save(model, new)
        assert new.stat().st_mode == (tmp_path / "plain").stat().st_mode
        kept = tmp_path / "kept.model"
        kept.write_bytes(b"old")
        kept.chmod(0o604)
        mf.save(model, kept)
        assert kept.stat().st_mode & 0o777 == 0o604
        link = tmp_path / "link.model"
        link.symlink_to(kept.name)
        mf.save(build_model(seed=6), link)
        assert link.is_symlink()
        assert kept.read_bytes() != new.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["kept.model", "link.model", "new.model", "plain"]


class TestLoad:
    def test_round_trip_preserves_every_parameter(self, tmp_path):
        model = build_model(use_bigram=True, constrained=True)
        path = tmp_path / "m.model"
        mf.save(model, path)
        loaded = mf.load(path)
        for (name, p), (name2, p2) in zip(model.parameters(), loaded.parameters()):
            assert name == name2
            assert np.array_equal(p.data, p2.data)
        assert loaded.constrained
        assert loaded.trans.mask is not None
        assert [str(t) for t in loaded.tagset] == [str(t) for t in model.tagset]
        assert loaded.vocab.char_to_id == model.vocab.char_to_id
        assert loaded.vocab.bigram_to_id == model.vocab.bigram_to_id

    @pytest.mark.parametrize("cfg_kwargs", topology_grid(mlp=True) + [
        dict(stack="embed", recurrent="lstm", feature_map_sets=0, feature_maps=())])
    def test_round_trip_across_topologies(self, tmp_path, cfg_kwargs):
        sents = toy_corpus(8, seed=2)
        vocab, tagset = cp.build_vocab_and_tagset(sents)
        cfg = topology_config(**{"d": 5, "h": 4, "feature_map_sets": 2, "feature_maps": 6,
                                 **cfg_kwargs})
        model = Model(cfg, vocab, tagset, seed=3)
        path = tmp_path / "m.model"
        mf.save(model, path)
        loaded = mf.load(path)
        assert loaded.cfg == cfg
        assert [n for n, _ in loaded.parameters()] == [n for n, _ in model.parameters()]
        for s in sents[:3]:
            assert model.tag_ids(s.chars) == loaded.tag_ids(s.chars)

    def test_tagging_is_identical_after_round_trip(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.model"
        mf.save(model, path)
        loaded = mf.load(path)
        for s in toy_corpus(5, seed=2):
            assert model.tag_ids(s.chars) == loaded.tag_ids(s.chars)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"XXXXXX" + bytes(64))
        with pytest.raises(mf.ModelFormatError, match="magic"):
            mf.load(path)

    def test_unsupported_version(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.model"
        mf.save(model, path)
        rewrite_version(path, 99)
        with pytest.raises(mf.ModelVersionError, match="99"):
            mf.load(path)

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.model"
        mf.save(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(mf.ModelCorruptionError, match="checksum"):
            mf.load(path)

    def test_truncated_file_is_an_error_not_a_crash(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.model"
        mf.save(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 3])
        with pytest.raises((mf.ModelCorruptionError, mf.ModelFormatError)):
            mf.load(path)

    def test_invalid_stored_width_is_corruption(self, tmp_path):
        # d is the u32 right after the magic and the version
        path = tmp_path / "m.model"
        path.write_bytes((DATA / "tiny_v1.model").read_bytes())
        rewrite_field(path, len(mf.MAGIC) + 4, "<I", 0)
        with pytest.raises(mf.ModelCorruptionError, match="encoder config.*d=0"):
            mf.load(path)

    def test_stored_window_without_the_mlp_baseline_is_corruption(self, tmp_path):
        # byte 38 is the high byte of window (tiny_v1 is a conv/BLSTM model)
        path = tmp_path / "m.model"
        path.write_bytes((DATA / "tiny_v1.model").read_bytes())
        rewrite_field(path, 38, "<B", 0xFF)
        with pytest.raises(mf.ModelCorruptionError, match="encoder config.*window=4278190081"):
            mf.load(path)

    def test_stack_flag_bytes_are_pinned(self, tmp_path):
        vocab, tagset = cp.build_vocab_and_tagset(toy_corpus(4, seed=1))
        path = tmp_path / "m.model"
        for stack, flags in STACK_FLAG_BYTES.items():
            cfg = topology_config(d=5, h=4, feature_map_sets=2, feature_maps=6, stack=stack)
            mf.save(Model(cfg, vocab, tagset, seed=1), path)
            offsets = flag_offsets(cfg.feature_map_sets)
            assert tuple(path.read_bytes()[i] for i in offsets) == flags, stack
            assert mf.load(path).cfg == cfg
        others = [f for f in np.ndindex(2, 2, 2, 2) if f not in STACK_FLAG_BYTES.values()]
        assert len(others) == 11
        for flags in others:
            for offset, value in zip(offsets, flags):
                rewrite_field(path, offset, "<B", value)
            named = "use_conv={} use_pooling={} use_highway={} mlp_baseline={}".format(*flags)
            with pytest.raises(mf.ModelCorruptionError, match=f"^stored flags {named} name no"):
                mf.load(path)

    def test_trailing_bytes_after_the_parameters_are_corruption(self, tmp_path):
        path = tmp_path / "m.model"
        mf.save(build_model(), path)
        body = path.read_bytes()[:-4] + b"xyz"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(mf.ModelCorruptionError, match="3 trailing bytes after parameters"):
            mf.load(path)

    def test_every_truncation_is_a_model_file_error(self, tmp_path):
        # every cut through the header and every 13th through the parameters,
        # each tried as it is and with its checksum re-sealed, so the reader
        # parses the truncated fields instead of failing the checksum; over
        # a v3 file and the v1 and v2 fixtures, whose skipped sections are
        # cut too
        path = tmp_path / "m.model"
        mf.save(build_model(use_bigram=True), path)
        files = [path.read_bytes()] + [(DATA / f"tiny_v{v}.model").read_bytes() for v in (1, 2)]
        for full in files:
            body = full[:-4]
            for cut in [*range(1024), *range(1024, len(full), 13)]:
                blobs = [full[:cut]]
                if cut < len(body):
                    blobs.append(body[:cut] + struct.pack("<I", zlib.crc32(body[:cut])))
                for blob in blobs:
                    path.write_bytes(blob)
                    with pytest.raises((mf.ModelFormatError, mf.ModelVersionError,
                                        mf.ModelCorruptionError)):
                        mf.load(path)

    def test_every_header_byte_rewrite_is_a_model_file_error(self, tmp_path):
        # every byte of the file header (width fields included) and of every
        # parameter block header, rewritten under a re-sealed checksum: the
        # reader checks the stored names and shapes against the manifest of
        # the stored config before it allocates a parameter, so a width
        # rewritten to a huge value is refused without allocating that model
        blob = (DATA / "tiny_v1.model").read_bytes()
        body = blob[:-4]
        offsets = []
        pos = body.index(b"embed.unigram") - 4
        offsets.extend(range(pos))
        for name, p in mf.load(DATA / "tiny_v1.model").parameters():
            header = 4 + len(name) + 4 + 4 * p.data.ndim
            offsets.extend(range(pos, pos + header))
            pos += header + 4 * p.data.size
        assert pos == len(body)
        path = tmp_path / "m.model"
        escaped, peak = [], 0
        tracemalloc.start()
        try:
            for offset in offsets:
                for value in {0x00, 0xFF} - {body[offset]}:
                    rewritten = bytearray(body)
                    rewritten[offset] = value
                    path.write_bytes(bytes(rewritten) + struct.pack("<I", zlib.crc32(rewritten)))
                    tracemalloc.reset_peak()
                    try:
                        mf.load(path)
                    except (mf.ModelFormatError, mf.ModelVersionError, mf.ModelCorruptionError):
                        pass
                    except Exception as e:  # collected, so the assertion names every escape
                        escaped.append((offset, value, repr(e)))
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert not escaped
        assert peak < 16 * 2 ** 20

    def test_non_finite_parameter_block_is_corruption(self, tmp_path):
        # byte 900 is the high byte of embed.unigram's first value: 0xff
        # there makes it a NaN
        path = tmp_path / "m.model"
        path.write_bytes((DATA / "tiny_v1.model").read_bytes())
        rewrite_field(path, 900, "<B", 0xFF)
        with pytest.raises(mf.ModelCorruptionError, match="'embed.unigram' holds NaN/Inf"):
            mf.load(path)
        model = build_model()
        mf.save(model, path)
        offset = len(path.read_bytes()) - 4 - 4 * model.trans.a.data.size
        rewrite_field(path, offset, "<f", np.inf)
        with pytest.raises(mf.ModelCorruptionError, match="'trans.a' holds NaN/Inf"):
            mf.load(path)

    @staticmethod
    def first_tag_offset(path):
        """Offset of the stored tag set's first (seg, pos) pair, B-NN."""
        pair = struct.pack("<I", 1) + b"B" + struct.pack("<I", 2) + b"NN"
        return path.read_bytes().index(pair)

    def test_invalid_stored_segment_tag_is_corruption(self, tmp_path):
        path = tmp_path / "m.model"
        mf.save(build_model(), path)
        rewrite_field(path, self.first_tag_offset(path) + 4, "<c", b"X")
        with pytest.raises(mf.ModelCorruptionError, match="stored tag set is invalid: .*'X'"):
            mf.load(path)

    def test_repeated_stored_tag_is_corruption(self, tmp_path):
        # M-NN, the second stored tag, rewritten to a second B-NN
        path = tmp_path / "m.model"
        mf.save(build_model(), path)
        rewrite_field(path, self.first_tag_offset(path) + 11 + 4, "<c", b"B")
        with pytest.raises(mf.ModelCorruptionError,
                           match="stored tag set is invalid: a tag appears more than once"):
            mf.load(path)

    def test_loading_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "m.model"
        mf.save(build_model(use_bigram=True, constrained=True), path)
        saved = {n: p.data.copy() for n, p in mf.load(path).parameters()}

        def no_draws(*args, **kwargs):
            raise AssertionError("model loading drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = mf.load(path)
        assert all(np.array_equal(p.data, saved[n]) for n, p in loaded.parameters())
        assert mf.load(DATA / "tiny_v1.model").cfg.use_bigram

    def test_loaded_model_holds_no_optimizer_state(self):
        model = mf.load(DATA / "tiny_v1.model")
        assert all(p.accumulator is None for _, p in model.parameters())
        model.tag_batch([list("cdeabffkghabf"), list("xab?")])
        assert all(p.accumulator is None for _, p in model.parameters())
        assert all(not p.grad.any() for _, p in model.parameters())

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            mf.load(tmp_path / "absent.model")


class TestVersions:
    """Version 3 is written. Version 1 and 2 files are still read, their
    train config, frequency table and POS label list skipped; version 1
    has no width-folding byte and one more train-config byte."""

    @staticmethod
    def paths(model, sentences):
        return [model.tag_ids(list(s)) for s in sentences]

    def check_upgrade(self, tmp_path, name):
        """The fixture's model, after checking that it and its v3 re-save
        tag the recorded Viterbi paths and that the re-save is a fixed point."""
        want = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
        model = mf.load(DATA / f"{name}.model")
        assert self.paths(model, want["sentences"]) == want["paths"]

        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        mf.save(model, p1)
        assert file_version(p1) == mf.VERSION == 3
        upgraded = mf.load(p1)
        assert self.paths(upgraded, want["sentences"]) == want["paths"]
        mf.save(upgraded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        return model

    def test_v1_file_tags_as_saved_and_upgrades_to_v3(self, tmp_path):
        # tiny_v1.model was written by the version-1 writer, with the Viterbi
        # paths it gave recorded in tiny_v1.json
        assert file_version(DATA / "tiny_v1.model") == 1
        model = self.check_upgrade(tmp_path, "tiny_v1")
        assert model.cfg.use_bigram and model.constrained and not model.normalize_width

    def test_v2_file_tags_as_saved_and_upgrades_to_v3(self, tmp_path):
        # tiny_v2.model was written by the version-2 writer (a width-folded,
        # observed-tags LSTM model trained three toy epochs, saved with a
        # non-default train config), with its Viterbi paths in tiny_v2.json
        assert file_version(DATA / "tiny_v2.model") == 2
        model = self.check_upgrade(tmp_path, "tiny_v2")
        assert model.normalize_width and not model.constrained
        assert model.cfg.recurrent == "lstm" and not model.cfg.use_bigram
        assert len(model.tagset) == 7 and model.tagset.pos_labels == ["NN", "PU", "VV"]

    @pytest.mark.parametrize("name, stored, canonical", [
        ("tiny_unread_v3_mlp", (6, (8, 8)),
         dict(d=4, h=6, feature_map_sets=0, feature_maps=(), stack="mlp", recurrent="none",
              window=3, use_bigram=True)),
        ("tiny_unread_v3_highway", (7, (5, 7)),
         dict(d=4, h=0, feature_map_sets=2, feature_maps=(5, 7), stack="highway",
              recurrent="none", window=1, use_bigram=False)),
    ])
    def test_stored_widths_the_topology_does_not_read_are_dropped(self, tmp_path, name,
                                                                  stored, canonical):
        # each fixture was written by a version-3 writer that stored such
        # widths (an mlp model with two map widths, a highway model without a
        # recurrent layer with h=7), with its Viterbi paths and the CRC-32 of
        # each parameter's stored float32 bytes in the json
        blob = (DATA / f"{name}.model").read_bytes()
        h, q = struct.unpack_from("<II", blob, WIDTHS_AT + 4)
        assert file_version(DATA / f"{name}.model") == 3
        assert (h, struct.unpack_from(f"<{q}I", blob, WIDTHS_AT + 12)) == stored
        model = self.check_upgrade(tmp_path, name)
        assert dataclasses.asdict(model.cfg) == canonical
        want = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))["parameters"]
        assert {n: zlib.crc32(p.data.astype("<f4").tobytes())
                for n, p in model.parameters()} == want
        # the re-save is the fixture with the canonical widths in place of the stored ones
        widths = (canonical["h"], canonical["feature_map_sets"], *canonical["feature_maps"])
        body = (blob[:WIDTHS_AT + 4] + struct.pack(f"<{len(widths)}I", *widths)
                + blob[WIDTHS_AT + 12 + 4 * q:-4])
        assert (tmp_path / "a.model").read_bytes() == body + struct.pack("<I", zlib.crc32(body))

    @pytest.mark.parametrize("normalize_width", [False, True])
    def test_normalize_width_round_trips(self, tmp_path, normalize_width):
        path = tmp_path / "m.model"
        mf.save(build_model(normalize_width=normalize_width), path)
        assert mf.load(path).normalize_width is normalize_width

    @pytest.mark.parametrize("version", [0, 4])
    def test_versions_other_than_1_and_2_are_refused(self, tmp_path, version):
        path = tmp_path / "m.model"
        mf.save(build_model(), path)
        rewrite_version(path, version)
        with pytest.raises(mf.ModelVersionError, match=f"version {version}"):
            mf.load(path)
