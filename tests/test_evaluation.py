import contextlib
import io
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtag import cli
from segtag import corpus as cp
from segtag import evaluation as ev
from segtag import lattice as lt
from segtag import modelfile as mf
from segtag import training as tr
from segtag.corpus import JointTag
from segtag.evaluation import WordSpan

from util import PERFBENCH, benchmark_workloads, decode_oracle, format_sentence

# (seg, POS) pairs of 1 to 30 tags over one to three random POS labels, so
# words of a label continue and illegal runs occur
_TAG_PAIRS = st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=3).flatmap(
    lambda labels: st.lists(st.tuples(st.sampled_from(cp.SEG_LABELS), st.sampled_from(labels)),
                            min_size=1, max_size=30))


def tags(*pairs):
    return [JointTag(seg, pos) for seg, pos in pairs]


class TestDecode:
    def test_inverse_of_expand(self):
        spans = ev.decode_tags_to_words(tags(("B", "NR"), ("E", "NR"), ("S", "VV")))
        assert spans == [WordSpan(0, 2, "NR"), WordSpan(2, 3, "VV")]

    def test_lone_middle_tag_repaired(self):
        assert ev.decode_tags_to_words(tags(("M", "NN"))) == [WordSpan(0, 1, "NN")]

    def test_reopened_word_repaired(self):
        spans = ev.decode_tags_to_words(tags(("B", "NN"), ("B", "VV"), ("E", "VV")))
        assert spans == [WordSpan(0, 1, "NN"), WordSpan(1, 3, "VV")]

    def test_pos_switch_mid_word_repaired(self):
        spans = ev.decode_tags_to_words(tags(("B", "NN"), ("M", "VV"), ("E", "VV")))
        assert spans == [WordSpan(0, 1, "NN"), WordSpan(1, 3, "VV")]

    def test_stray_end_is_singleton(self):
        spans = ev.decode_tags_to_words(tags(("S", "PU"), ("E", "NN")))
        assert spans == [WordSpan(0, 1, "PU"), WordSpan(1, 2, "NN")]

    def test_dangling_open_word_closes_at_sentence_end(self):
        spans = ev.decode_tags_to_words(tags(("B", "NN"), ("M", "NN")))
        assert spans == [WordSpan(0, 2, "NN")]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.decode_tags_to_words([])

    @pytest.mark.parametrize("seed", range(20))
    def test_partitions_every_position(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(1, 12))
        segs = [cp.SEG_LABELS[i] for i in rng.integers(0, 4, size=n)]
        poses = [("NN", "VV", "PU")[i] for i in rng.integers(0, 3, size=n)]
        spans = ev.decode_tags_to_words(tags(*zip(segs, poses)))
        covered = []
        for s in spans:
            covered.extend(range(s.start, s.end))
        assert covered == list(range(n))

    @settings(max_examples=300, deadline=None)
    @given(pairs=_TAG_PAIRS)
    def test_partitions_every_position_on_any_tag_sequence(self, pairs):
        seq = tags(*pairs)
        spans = ev.decode_tags_to_words(seq)
        covered = []
        for s in spans:
            assert s.start < s.end    # spans carry no check of their own
            covered.extend(range(s.start, s.end))
            assert s.pos == seq[s.end - 1].pos    # a span's POS is its last character's
        assert covered == list(range(len(seq)))

    @settings(max_examples=500, deadline=None)
    @given(pairs=_TAG_PAIRS)
    def test_equals_the_state_machine_oracle(self, pairs):
        seq = tags(*pairs)
        assert ev.decode_tags_to_words(seq) == decode_oracle(seq)

    def test_word_rule_is_the_constrained_lattices_rule(self):
        """An open word goes on into exactly the tags the transition mask
        allows after it; after E or S the mask forbids exactly the tags that
        would go on a word."""
        tagset = cp.TagSet.cross_product(["NN", "VV", "PU"])
        mask = lt.bmes_transition_mask(tagset)
        for i, a in enumerate(tagset):
            for j, b in enumerate(tagset):
                if a.seg in ev.OPENS:
                    joined = len(ev.decode_tags_to_words([a, b])) == 1
                    assert joined == (not mask[i, j]), (a, b)
                else:
                    assert mask[i, j] == (b.seg in ev.CONTINUES), (a, b)

    def test_recovers_gold_spans_on_corpus(self):
        sents = cp.parse_tagged_corpus(["AB/NR C/VV", "X/AS WXYZ/NN", "QRS/VV T/PU"])
        for s in sents:
            spans = ev.decode_tags_to_words(s.tags)
            # rebuild the original words from the spans
            words = [("".join(s.chars[sp.start:sp.end]), sp.pos) for sp in spans]
            line = " ".join(f"{w}/{p}" for w, p in words)
            assert line == format_sentence(s)


class TestScore:
    def test_perfect_prediction(self):
        gold = [[WordSpan(0, 2, "NR"), WordSpan(2, 4, "VV")]]
        assert ev.score_prf(gold, gold, "joint") == (1.0, 1.0, 1.0)

    def test_worked_example(self):
        gold = [[WordSpan(0, 2, "NR"), WordSpan(2, 4, "VV")]]
        pred = [[WordSpan(0, 2, "NR"), WordSpan(2, 3, "VV"), WordSpan(3, 4, "VV")]]
        # oversegmented prediction: only the NR span matches
        p, r, f = ev.score_prf(gold, pred, "joint")
        assert (p, r) == (1 / 3, 1 / 2)
        assert f == pytest.approx(0.4)

    def test_mode_semantics_on_wrong_pos(self):
        gold = [[WordSpan(0, 2, "NR")]]
        pred = [[WordSpan(0, 2, "VV")]]
        assert ev.score_prf(gold, pred, "joint") == (0.0, 0.0, 0.0)
        assert ev.score_prf(gold, pred, "seg") == (1.0, 1.0, 1.0)

    def test_empty_intersection_gives_zero_f(self):
        gold = [[WordSpan(0, 2, "NR")]]
        pred = [[WordSpan(0, 1, "NR"), WordSpan(1, 2, "NR")]]
        assert ev.score_prf(gold, pred, "joint") == (0.0, 0.0, 0.0)

    def test_sentence_count_mismatch(self):
        gold = [[WordSpan(0, 1, "NN")]]
        with pytest.raises(ValueError, match="sentences"):
            ev.score_prf(gold, gold + gold)

    def test_length_mismatch(self):
        gold = [[WordSpan(0, 2, "NN")]]
        pred = [[WordSpan(0, 3, "NN")]]
        with pytest.raises(ValueError, match="covers"):
            ev.score_prf(gold, pred)

    @pytest.mark.parametrize("side", ["gold", "predicted"])
    def test_empty_span_list_names_the_sentence(self, side):
        spans = [[WordSpan(0, 1, "NN")], [WordSpan(0, 2, "NN")]]
        empty = [spans[0], []]
        gold, pred = (empty, spans) if side == "gold" else (spans, empty)
        with pytest.raises(ValueError, match=f"sentence 1: {side} span list is empty"):
            ev.score_prf(gold, pred)
        with pytest.raises(ValueError, match=f"sentence 1: {side} span list is empty"):
            ev.span_keys(gold, pred)

    @pytest.mark.parametrize("seed", range(10))
    def test_joint_f_never_exceeds_seg_f(self, seed):
        rng = np.random.default_rng(1000 + seed)
        poses = ("NN", "VV", "PU")
        gold, pred = [], []
        for _ in range(20):
            n = int(rng.integers(1, 10))
            def random_spans():
                segs = [cp.SEG_LABELS[i] for i in rng.integers(0, 4, size=n)]
                ps = [poses[i] for i in rng.integers(0, 3, size=n)]
                return ev.decode_tags_to_words(tags(*zip(segs, ps)))
            gold.append(random_spans())
            pred.append(random_spans())
        _, _, f_joint = ev.score_prf(gold, pred, "joint")
        _, _, f_seg = ev.score_prf(gold, pred, "seg")
        assert f_joint <= f_seg + 1e-12


class TestReport:
    def test_tab_separated_lines(self):
        gold = [[WordSpan(0, 2, "NR"), WordSpan(2, 4, "VV")]]
        pred = [[WordSpan(0, 2, "NR"), WordSpan(2, 3, "VV"), WordSpan(3, 4, "VV")]]
        text = ev.report(*ev.span_keys(gold, pred))
        lines = text.splitlines()
        assert lines[0].startswith("joint\t0.3333\t0.5000\t0.4000\t1\t2\t3")
        assert lines[1].startswith("seg\t")

    def test_per_pos_breakdown(self):
        gold = [[WordSpan(0, 2, "NR"), WordSpan(2, 4, "VV")]]
        pred = [[WordSpan(0, 2, "NR"), WordSpan(2, 4, "NR")]]
        text = ev.report(*ev.span_keys(gold, pred), per_pos=True)
        assert "pos:NR" in text and "pos:VV" in text


# An alphabet as a model and a gold corpus index it, and sentences of tag
# indices over it: the cross product of one to three POS labels, then up to
# two tags of a label only gold holds; stray M and E tags occur freely.
_ALPHABET_AND_SENTENCES = st.tuples(
    st.lists(st.sampled_from(("NN", "VV", "PU")), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(cp.SEG_LABELS), max_size=2, unique=True),
).map(lambda drawn: list(cp.TagSet.cross_product(drawn[0]))
      + [JointTag(seg, "GOLD") for seg in drawn[1]]).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet), st.lists(
        st.lists(st.integers(0, len(alphabet) - 1), min_size=1, max_size=12),
        min_size=1, max_size=6)))


def reference_rows(gold, pred):
    """(correct, gold, predicted) counts of per-sentence span lists, matched
    as sets sentence by sentence: rows joint, seg and pos:<label>."""
    rows = defaultdict(lambda: [0, 0, 0])
    for g, p in zip(gold, pred):
        for mode, key in (("joint", tuple), ("seg", lambda s: (s.start, s.end))):
            wanted = {key(s) for s in g}
            rows[mode][0] += sum(key(s) in wanted for s in p)
            rows[mode][1] += len(g)
            rows[mode][2] += len(p)
        for s in g:
            rows[f"pos:{s.pos}"][1] += 1
        for s in p:
            rows[f"pos:{s.pos}"][0] += s in set(g)
            rows[f"pos:{s.pos}"][2] += 1
    return rows


def reference_prf(correct, n_gold, n_pred):
    p = correct / n_pred if n_pred else 0.0
    r = correct / n_gold if n_gold else 0.0
    return p, r, 2 * p * r / (p + r) if p + r else 0.0


def reference_report(gold, pred, modes, per_pos):
    rows = reference_rows(gold, pred)
    names = list(modes) + (sorted(n for n in rows if n.startswith("pos:")) if per_pos else [])
    return "\n".join(
        "\t".join([name, *(f"{v:.4f}" for v in reference_prf(*rows[name])),
                    *map(str, rows[name])]) for name in names)


def noisy_gold(sentences, seed):
    """Gold word/POS sentences with some POS labels swapped (GOLD among
    them, a label no model holds) and some words split or merged."""
    rng = np.random.default_rng(seed)
    labels = sorted({pos for s in sentences for _, pos in s}) + ["GOLD"]
    out = []
    for s in sentences:
        words = []
        for word, pos in s:
            r = rng.random()
            if r < 0.1:
                pos = labels[rng.integers(len(labels))]
            if r > 0.9 and len(word) > 1:
                words += [(word[:1], pos), (word[1:], pos)]
            elif 0.8 < r <= 0.9 and words:
                words.append((words.pop()[0] + word, pos))
            else:
                words.append((word, pos))
        out.append(cp.parse_tagged_corpus([" ".join(f"{w}/{p}" for w, p in words)])[0])
    return out


class TestWordKeys:
    @settings(max_examples=400, deadline=None)
    @given(drawn=_ALPHABET_AND_SENTENCES)
    def test_equal_the_state_machine_oracles_spans(self, drawn):
        alphabet, sentences = drawn
        rule = ev.word_rule(alphabet)
        path = [i for s in sentences for i in s]
        n, width = len(path), len(rule.labels)
        want, ofs = [], 0
        for s in sentences:
            for start, end, pos in decode_oracle([alphabet[i] for i in s]):
                key = (ofs + end) * (n + 1) + end - start
                want.append(key * width + rule.labels.index(pos))
            ofs += len(s)
        keys = ev.word_keys(path, [len(s) for s in sentences], rule)
        assert keys.dtype == np.int64 and keys.tolist() == want

    def test_a_word_open_at_a_sentence_end_ends_there(self):
        rule = ev.word_rule(cp.TagSet.cross_product(["NN"]))   # B M E S
        assert ev.word_ends([0, 1, 1, 2], [2, 2], rule).tolist() == [1, 3]
        assert ev.word_ends([0, 1, 1, 2], [4], rule).tolist() == [3]

    def test_the_table_is_the_rule(self):
        alphabet = list(cp.TagSet.cross_product(["NN", "VV"])) + [JointTag("M", "PU")]
        goes_on = ev.word_rule(alphabet).goes_on
        for i, a in enumerate(alphabet):
            for j, b in enumerate(alphabet):
                assert goes_on[i, j] == (len(decode_oracle([a, b])) == 1), (a, b)


class TestAgainstSetReference:
    @pytest.mark.parametrize("seed", range(10))
    def test_score_prf_and_report(self, seed):
        rng = np.random.default_rng(2000 + seed)
        gold, pred = [], []
        for _ in range(15):
            n = int(rng.integers(1, 10))
            for side in (gold, pred):
                side.append(ev.decode_tags_to_words(tags(*(
                    (cp.SEG_LABELS[i], ("NN", "VV", "PU")[j])
                    for i, j in rng.integers(0, [4, 3], size=(n, 2))))))
        rows = reference_rows(gold, pred)
        for mode in ("joint", "seg"):
            assert ev.score_prf(gold, pred, mode) == reference_prf(*rows[mode])
        for modes in (("joint",), ("seg",), ("joint", "seg")):
            for per_pos in (False, True):
                assert (ev.report(*ev.span_keys(gold, pred), modes=modes, per_pos=per_pos)
                        == reference_report(gold, pred, modes, per_pos))

    @pytest.mark.parametrize("name, seed", [("toy", 1), ("toy", 2), ("wide", 1)])
    def test_committed_models_eval_and_evaluate(self, tmp_path, name, seed):
        wl = benchmark_workloads()
        sentences = (wl.toy_sentences(40, seed) if name == "toy"
                     else wl.wide_sentences(6, seed))
        gold_sentences = noisy_gold(sentences, seed)
        assert any(t.pos == "GOLD" for s in gold_sentences for t in s.tags)
        model_path = PERFBENCH / "models" / f"{name}.model"
        model = mf.load(model_path)
        gold = [ev.decode_tags_to_words(s.tags) for s in gold_sentences]
        pred = [ev.decode_tags_to_words(t)
                for t in model.tag_batch([s.chars for s in gold_sentences])]
        corpus = tmp_path / "gold.txt"
        corpus.write_text("\n".join(format_sentence(s) for s in gold_sentences) + "\n",
                          encoding="utf-8")
        for mode, modes in (("joint", ("joint",)), ("seg", ("seg",)),
                            ("both", ("joint", "seg"))):
            for per_pos in ([], ["--per-pos"]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main(["eval", "--model", str(model_path), "--corpus",
                                     str(corpus), "--mode", mode, *per_pos]) == 0
                assert out.getvalue() == reference_report(gold, pred, modes, per_pos) + "\n"
            rows = reference_rows(gold, pred)
            if mode != "both":
                assert tr.evaluate(model, gold_sentences, mode) == reference_prf(*rows[mode])
