import io
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtag import corpus as cp
from segtag import evaluation as ev
from segtag.autograd import Parameter
from segtag.corpus import JointTag
from util import benchmark_workloads


class TestJointTag:
    def test_equal_pairs_are_equal(self):
        assert JointTag("B", "NN") == JointTag("B", "NN")
        assert hash(JointTag("B", "NN")) == hash(JointTag("B", "NN"))
        assert JointTag("B", "NN") != JointTag("E", "NN")
        assert JointTag("B", "NN") != JointTag("B", "VV")

    def test_immutable(self):
        tag = JointTag("S", "NN")
        with pytest.raises(AttributeError):
            tag.seg = "B"
        with pytest.raises(AttributeError):
            tag.extra = 1
        with pytest.raises(AttributeError):
            del tag.pos
        assert (tag.seg, tag.pos) == ("S", "NN")

    def test_text_forms(self):
        tag = JointTag("M", "VV")
        assert repr(tag) == "JointTag(seg='M', pos='VV')"
        assert str(tag) == "M-VV"
        assert str(JointTag("E", "a-b")) == "E-a-b"

    def test_pickle_round_trip(self):
        tag = JointTag("E", "PU")
        assert pickle.loads(pickle.dumps(tag)) == tag


class TestExpandWord:
    def test_two_char_word(self):
        assert cp.expand_word("AB", "NR") == [JointTag("B", "NR"), JointTag("E", "NR")]

    def test_single_char_word(self):
        assert cp.expand_word("X", "AS") == [JointTag("S", "AS")]

    def test_four_char_word(self):
        assert cp.expand_word("WXYZ", "NN") == [
            JointTag("B", "NN"), JointTag("M", "NN"), JointTag("M", "NN"), JointTag("E", "NN")
        ]

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cp.expand_word("", "NN")


class TestParse:
    def test_basic_line(self):
        sents = cp.parse_tagged_corpus(["AB/NR C/VV"])
        assert len(sents) == 1
        s = sents[0]
        assert s.chars == ["A", "B", "C"]
        assert s.tags == [JointTag("B", "NR"), JointTag("E", "NR"), JointTag("S", "VV")]

    def test_blank_lines_skipped(self):
        sents = cp.parse_tagged_corpus(["", "   ", "A/NN", ""])
        assert len(sents) == 1

    def test_strict_mode_cites_line(self):
        with pytest.raises(cp.CorpusFormatError, match="line 2.*XYZ"):
            cp.parse_tagged_corpus(["A/NN", "XYZ B/NN"])

    def test_lenient_mode_skips(self):
        sents = cp.parse_tagged_corpus(["XYZ A/NN"], strict=False)
        assert sents[0].chars == ["A"]

    def test_separator_splits_at_last_occurrence(self):
        sents = cp.parse_tagged_corpus(["a/b/PU"])
        assert sents[0].chars == ["a", "/", "b"]
        assert [t.pos for t in sents[0].tags] == ["PU"] * 3

    def test_missing_pos_rejected(self):
        with pytest.raises(cp.CorpusFormatError):
            cp.parse_tagged_corpus(["AB/"])

    def test_stream_input(self):
        sents = cp.parse_tagged_corpus(io.StringIO("A/NN B/VV\nCD/NR\n"))
        assert len(sents) == 2

    def test_width_normalization_off_by_default(self):
        fullwidth_ab = "ＡＢ"  # full-width A, B
        plain = cp.parse_tagged_corpus([f"{fullwidth_ab}/NN"])
        assert plain[0].chars == ["Ａ", "Ｂ"]
        folded = cp.parse_tagged_corpus([f"{fullwidth_ab}/NN"], normalize_width=True)
        assert folded[0].chars == ["A", "B"]
        # POS labels are never folded
        folded_pos = cp.parse_tagged_corpus(["A/ＮＮ"], normalize_width=True)
        assert folded_pos[0].tags[0].pos == "ＮＮ"

    def test_gold_file_shares_four_tags_per_pos_label(self, tmp_path):
        wl = benchmark_workloads()
        gold = tmp_path / "tag_toy.gold"
        wl.write_gold(gold, wl.toy_sentences(100, 1))
        with open(gold, encoding="utf-8") as f:
            sents = cp.parse_tagged_corpus(f)
        tags = [t for s in sents for t in s.tags]
        assert len(tags) > 1000
        assert len({id(t) for t in tags}) <= 4 * len({t.pos for t in tags})

    @pytest.mark.parametrize("name", ["toy", "wide"])
    def test_benchmark_gold_files_serialize_byte_identically(self, tmp_path, name):
        wl = benchmark_workloads()
        sentences = wl.toy_sentences(100, 1) if name == "toy" else wl.wide_sentences(40, 1)
        gold = tmp_path / f"{name}.gold"
        wl.write_gold(gold, sentences)
        with open(gold, encoding="utf-8") as f:
            text = cp.serialize_corpus(cp.parse_tagged_corpus(f))
        assert text.encode("utf-8") == gold.read_bytes()

    def test_round_trip(self):
        lines = ["AB/NR C/VV", "X/AS WXYZ/NN"]
        sents = cp.parse_tagged_corpus(lines)
        text = cp.serialize_corpus(sents)
        again = cp.parse_tagged_corpus(text.splitlines())
        assert [s.chars for s in again] == [s.chars for s in sents]
        assert [s.tags for s in again] == [s.tags for s in sents]
        assert cp.serialize_corpus(again) == text


# words hold no whitespace but may hold the separator; POS labels hold neither
_WORDS = st.text(min_size=1, max_size=6).filter(lambda w: not any(c.isspace() for c in w))
_POS = st.text(min_size=1, max_size=4).filter(
    lambda p: "/" not in p and not any(c.isspace() for c in p))
_SENTENCES = st.lists(st.lists(st.tuples(_WORDS, _POS), min_size=1, max_size=6),
                      min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(drawn=_SENTENCES)
@example(drawn=[[("a/", "NN"), ("/", "PU"), ("//x", "VV")]])
@example(drawn=[[("好/好", "名词"), ("Ａ", "ＮＮ")], [("\x00", "\u00e9")]])
def test_parse_and_serialize_round_trip_on_unicode(drawn):
    sentences = [cp.Sentence([c for w, _ in words for c in w],
                             [t for w, p in words for t in cp.expand_word(w, p)])
                 for words in drawn]
    text = cp.serialize_corpus(sentences)
    again = cp.parse_tagged_corpus(io.StringIO(text))
    assert again == sentences
    assert cp.serialize_corpus(again).encode("utf-8") == text.encode("utf-8")


_CHARS = st.characters().filter(lambda c: not c.isspace())


# any characters and any tag sequence over one to three POS labels, illegal
# BMES runs included, which the round trip above never draws
@settings(max_examples=300, deadline=None)
@given(drawn=st.lists(_POS, min_size=1, max_size=3, unique=True).flatmap(
    lambda labels: st.lists(st.tuples(_CHARS, st.sampled_from(cp.SEG_LABELS),
                                      st.sampled_from(labels)), min_size=1, max_size=30)))
@example(drawn=[("a", "B", "NN"), ("/", "B", "VV"), ("b", "M", "NN"), ("c", "E", "VV")])
def test_formatted_words_parse_back_to_the_decoded_words(drawn):
    chars = [c for c, _, _ in drawn]
    tags = [JointTag(seg, pos) for _, seg, pos in drawn]
    again = cp.parse_tagged_corpus([cp.format_words(chars, tags)])
    assert len(again) == 1 and again[0].chars == chars
    assert ev.decode_tags_to_words(again[0].tags) == ev.decode_tags_to_words(tags)


class TestVocabAndTagSet:
    def corpus(self):
        return cp.parse_tagged_corpus(["AB/NR C/VV", "CA/VV B/NR"])

    def test_tagset_is_full_cross_product(self):
        _, tagset = cp.build_vocab_and_tagset(self.corpus())
        assert len(tagset) == 8  # 4 seg labels x 2 POS labels
        assert tagset.pos_labels == ["NR", "VV"]
        # POS-major, seg-minor order
        assert str(tagset.tag(0)) == "B-NR"
        assert str(tagset.tag(3)) == "S-NR"
        assert str(tagset.tag(4)) == "B-VV"

    def test_observed_only_tagset(self):
        _, tagset = cp.build_vocab_and_tagset(self.corpus(), observed_tags_only=True)
        # corpus never shows an M tag
        assert all(t.seg != "M" for t in tagset)
        assert len(tagset) < 8

    def test_min_count_maps_rare_chars_to_unk(self):
        vocab, _ = cp.build_vocab_and_tagset(self.corpus(), min_count=2)
        # A, B, C all appear twice; add a singleton
        vocab2, _ = cp.build_vocab_and_tagset(
            self.corpus() + cp.parse_tagged_corpus(["Q/NR"]), min_count=2)
        assert vocab2.char_id("Q") == cp.Vocab.UNK
        assert vocab.char_id("A") != cp.Vocab.UNK

    def test_deterministic_index_maps(self):
        v1, t1 = cp.build_vocab_and_tagset(self.corpus(), use_bigram=True, bigram_min_count=1)
        v2, t2 = cp.build_vocab_and_tagset(self.corpus(), use_bigram=True, bigram_min_count=1)
        assert v1.char_to_id == v2.char_to_id
        assert v1.bigram_to_id == v2.bigram_to_id
        assert [str(t) for t in t1] == [str(t) for t in t2]

    def test_every_gold_tag_is_in_tagset(self):
        sents = self.corpus()
        _, tagset = cp.build_vocab_and_tagset(sents)
        for s in sents:
            tagset.encode(s.tags)  # must not raise

    def test_bad_segment_tag_named(self):
        with pytest.raises(ValueError, match="'X'"):
            cp.TagSet([JointTag("B", "NN"), JointTag("X", "NN")])

    def test_repeated_tag_refused(self):
        with pytest.raises(ValueError, match="more than once"):
            cp.TagSet([JointTag("B", "NN"), JointTag("E", "NN"), JointTag("B", "NN")])

    def test_pos_labels_are_the_tags_sorted(self):
        tagset = cp.TagSet([JointTag("S", "VV"), JointTag("B", "NR"), JointTag("E", "NR")])
        assert tagset.pos_labels == ["NR", "VV"]
        assert [str(t) for t in tagset] == ["S-VV", "B-NR", "E-NR"]    # tag order kept
        assert tagset.pos_labels == cp.TagSet.cross_product(["VV", "NR", "VV"]).pos_labels

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cp.build_vocab_and_tagset([])

    def test_encode_boundary_bigrams_use_padding_marker(self):
        vocab, _ = cp.build_vocab_and_tagset(self.corpus(), use_bigram=True, bigram_min_count=1)
        ids = vocab.encode(["A", "B"], use_bigram=True)
        assert ids.bi_left[0] == vocab.bigram_id(cp.BOUNDARY, "A")
        assert ids.bi_right[1] == vocab.bigram_id("B", cp.BOUNDARY)
        assert ids.bi_left[1] == vocab.bigram_id("A", "B")

    def test_encode_unknown_tag_named(self):
        _, tagset = cp.build_vocab_and_tagset(self.corpus())
        gold = [JointTag("B", "NR"), JointTag("E", "NR"), JointTag("S", "VV")]
        assert tagset.encode(gold).tolist() == [list(tagset).index(t) for t in gold]
        with pytest.raises(ValueError, match="tag S-PU not in tag set"):
            tagset.encode([JointTag("S", "NR"), JointTag("S", "PU")])

    def test_unseen_char_encodes_to_unk(self):
        vocab, _ = cp.build_vocab_and_tagset(self.corpus())
        ids = vocab.encode(["A", "?"])
        assert ids.uni[1] == cp.Vocab.UNK
        assert ids.uni[0] == vocab.char_id("A")


class TestEmbeddingLoader:
    def write_file(self, tmp_path, chars, d, header_dim=None, junk=None):
        rows = [f"{len(chars)} {header_dim or d}"]
        vecs = {}
        for i, c in enumerate(chars):
            vec = [round(0.1 * (i + 1) + 0.01 * j, 4) for j in range(d)]
            vecs[c] = vec
            rows.append(c + " " + " ".join(str(v) for v in vec))
        if junk is not None:
            rows.append(junk)
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path, vecs

    def vocab(self):
        sents = cp.parse_tagged_corpus(["AB/NR C/VV", "DE/NN"])
        return cp.build_vocab_and_tagset(sents)[0]

    def test_matching_rows_replaced_and_coverage_counted(self, tmp_path):
        vocab = self.vocab()
        path, vecs = self.write_file(tmp_path, ["A", "C"], d=3)
        table, stats = cp.load_pretrained_embeddings(path, vocab, d=3)
        assert stats.loaded == 2 and stats.skipped == 0
        assert stats.coverage == pytest.approx(2 / len(vocab.chars))
        assert np.allclose(table.data[vocab.char_id("A")], vecs["A"])
        assert np.allclose(table.data[vocab.char_id("C")], vecs["C"])

    def test_dimension_mismatch_rejected(self, tmp_path):
        vocab = self.vocab()
        path, _ = self.write_file(tmp_path, ["A"], d=100, header_dim=100)
        with pytest.raises(cp.EmbeddingFormatError, match="100.*50"):
            cp.load_pretrained_embeddings(path, vocab, d=50)

    def test_unknown_tokens_skipped(self, tmp_path):
        vocab = self.vocab()
        path, _ = self.write_file(tmp_path, ["A", "zz"], d=3)
        _, stats = cp.load_pretrained_embeddings(path, vocab, d=3)
        assert stats.loaded == 1 and stats.skipped == 1

    def test_malformed_float_cites_line(self, tmp_path):
        vocab = self.vocab()
        path, _ = self.write_file(tmp_path, ["A"], d=3, junk="B 0.1 oops 0.3")
        with pytest.raises(cp.EmbeddingFormatError, match="line 3"):
            cp.load_pretrained_embeddings(path, vocab, d=3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_value_cites_line(self, tmp_path, value):
        # 1e39 overflows the float32 table to inf
        vocab = self.vocab()
        path, _ = self.write_file(tmp_path, ["A"], d=3, junk=f"B 0.1 {value} 0.3")
        with pytest.raises(cp.EmbeddingFormatError, match="line 3: NaN or infinite"):
            cp.load_pretrained_embeddings(path, vocab, d=3)

    def test_fills_existing_table_in_place(self, tmp_path):
        vocab = self.vocab()
        path, vecs = self.write_file(tmp_path, ["B"], d=4)
        rng = np.random.default_rng(0)
        table, _ = cp.load_pretrained_embeddings(path, vocab, d=4, rng=rng)
        table2, stats = cp.load_pretrained_embeddings(path, vocab, d=4, table=table)
        assert table2 is table
        assert stats.loaded == 1
        assert np.allclose(table.data[vocab.char_id("B")], vecs["B"])

    def test_header_count_must_match_the_rows(self, tmp_path):
        vocab = self.vocab()
        path = tmp_path / "emb.txt"
        path.write_text("5 3\nA 0.1 0.2 0.3\n", encoding="utf-8")
        with pytest.raises(cp.EmbeddingFormatError) as info:
            cp.load_pretrained_embeddings(path, vocab, d=3)
        assert str(info.value) == f"{path}: header counts 5 rows, the file holds 1"

    def test_negative_count_cites_the_header_line(self, tmp_path):
        vocab = self.vocab()
        path = tmp_path / "emb.txt"
        path.write_text("-4 3\n", encoding="utf-8")
        with pytest.raises(cp.EmbeddingFormatError, match="line 1: negative row count -4"):
            cp.load_pretrained_embeddings(path, vocab, d=3)

    def test_repeated_token_cites_both_lines_and_leaves_the_table(self, tmp_path):
        # one of the three characters is covered; a later row must not win silently
        vocab = self.vocab()
        path = tmp_path / "emb.txt"
        path.write_text("3 3\nA 0.1 0.2 0.3\nzz 0 0 0\nA 0.4 0.5 0.6\n", encoding="utf-8")
        table = Parameter(np.random.default_rng(0).uniform(size=(vocab.n_chars, 3)))
        before = table.data.copy()
        with pytest.raises(cp.EmbeddingFormatError, match="line 4: token 'A' repeats line 2"):
            cp.load_pretrained_embeddings(path, vocab, d=3, table=table)
        assert np.array_equal(table.data, before)
