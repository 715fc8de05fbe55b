import json
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from segtag import corpus as cp
from segtag import modelfile as mf
from segtag.encoder import EncoderConfig
from segtag.model import Model
from segtag.toydata import toy_corpus
from segtag.training import TrainConfig

DATA = Path(__file__).parent / "data"


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
        mf.save(model, p1, train_cfg=TrainConfig(seed=99))
        loaded = mf.load(p1)
        mf.save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_path_surfaces_oserror(self, tmp_path):
        model = build_model()
        with pytest.raises(OSError, match="no/such"):
            mf.save(model, tmp_path / "no" / "such" / "dir.model")


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

    @pytest.mark.parametrize("cfg_kwargs", [
        dict(use_conv=False, use_pooling=False, use_highway=False, recurrent="lstm"),
        dict(use_conv=True, use_pooling=False, use_highway=False, recurrent="none"),
        dict(use_conv=False, use_pooling=False, use_highway=False, recurrent="none",
             mlp_baseline=True, window=3),
    ])
    def test_round_trip_across_topologies(self, tmp_path, cfg_kwargs):
        sents = toy_corpus(8, seed=2)
        vocab, tagset = cp.build_vocab_and_tagset(sents)
        cfg = EncoderConfig(d=5, h=4, feature_map_sets=2, feature_maps=6, **cfg_kwargs)
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

    def test_train_config_snapshot_round_trips(self, tmp_path):
        model = build_model()
        tc = TrainConfig(alpha=0.05, eta=0.3, l2=0.001, batch_size=7, seed=123,
                         optimizer="sgd", finetune_embeddings=False)
        path = tmp_path / "m.model"
        mf.save(model, path, train_cfg=tc)
        assert mf.load(path).train_cfg == tc

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

    def test_invalid_stored_train_config_is_corruption(self, tmp_path):
        # v2 layout up to max_epochs: magic, version, d, h, Q, Q map widths,
        # five u8 flags, window, two u8 flags, normalize_width, three f64, batch_size
        model = build_model()
        path = tmp_path / "m.model"
        mf.save(model, path)
        offset = len(mf.MAGIC) + 4 * (4 + model.cfg.feature_map_sets) + 5 + 4 + 3 + 24 + 4
        rewrite_field(path, offset, "<I", 0)
        with pytest.raises(mf.ModelCorruptionError, match="max_epochs"):
            mf.load(path)

    def test_every_truncation_is_a_model_file_error(self, tmp_path):
        # every cut through the header and every 13th through the parameters,
        # each tried as it is and with its checksum re-sealed, so the reader
        # parses the truncated fields instead of failing the checksum
        model = build_model(use_bigram=True)
        path = tmp_path / "m.model"
        mf.save(model, path)
        full = path.read_bytes()
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

    def test_stored_pos_labels_must_be_the_tags_labels(self, tmp_path):
        # the label list NN, PU, VV precedes the tag count; rewrite PU to PX
        path = tmp_path / "m.model"
        mf.save(build_model(), path)
        offset = self.first_tag_offset(path) - 4 - 6 - 6 + 5
        rewrite_field(path, offset, "<c", b"X")
        with pytest.raises(mf.ModelCorruptionError,
                           match=r"stored tag set is invalid: POS labels \['NN', 'PX', 'VV'\]"):
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
    """Version 2 is written; version 1 files (no width-folding byte, one
    unused train-config byte) are still read."""

    V1_TRAIN_CFG = TrainConfig(alpha=0.05, eta=0.3, l2=0.001, batch_size=7, max_epochs=3,
                               seed=99, optimizer="sgd", finetune_embeddings=False)

    @staticmethod
    def paths(model, sentences):
        return [model.tag_ids(list(s)) for s in sentences]

    def test_v1_file_tags_as_saved_and_upgrades_to_v2(self, tmp_path):
        # tiny_v1.model was written by the version-1 writer, with the Viterbi
        # paths it gave recorded in tiny_v1.json
        v1 = DATA / "tiny_v1.model"
        want = json.loads((DATA / "tiny_v1.json").read_text(encoding="utf-8"))
        assert file_version(v1) == 1
        model = mf.load(v1)
        assert model.cfg.use_bigram and model.constrained and not model.normalize_width
        assert model.train_cfg == self.V1_TRAIN_CFG
        assert self.paths(model, want["sentences"]) == want["paths"]

        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        mf.save(model, p1)
        assert file_version(p1) == mf.VERSION == 2
        assert len(p1.read_bytes()) == len(v1.read_bytes())  # one byte gone, one added
        upgraded = mf.load(p1)
        assert upgraded.train_cfg == self.V1_TRAIN_CFG
        assert self.paths(upgraded, want["sentences"]) == want["paths"]
        mf.save(upgraded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("normalize_width", [False, True])
    def test_normalize_width_round_trips(self, tmp_path, normalize_width):
        path = tmp_path / "m.model"
        mf.save(build_model(normalize_width=normalize_width), path)
        assert mf.load(path).normalize_width is normalize_width

    @pytest.mark.parametrize("version", [0, 3])
    def test_versions_other_than_1_and_2_are_refused(self, tmp_path, version):
        path = tmp_path / "m.model"
        mf.save(build_model(), path)
        rewrite_version(path, version)
        with pytest.raises(mf.ModelVersionError, match=f"version {version}"):
            mf.load(path)
