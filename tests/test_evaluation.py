import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtag import corpus as cp
from segtag import evaluation as ev
from segtag import lattice as lt
from segtag.corpus import JointTag
from segtag.evaluation import WordSpan

from util import decode_oracle, format_sentence

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
            ev.report(gold, pred)

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
        text = ev.report(gold, pred)
        lines = text.splitlines()
        assert lines[0].startswith("joint\t0.3333\t0.5000\t0.4000\t1\t2\t3")
        assert lines[1].startswith("seg\t")

    def test_per_pos_breakdown(self):
        gold = [[WordSpan(0, 2, "NR"), WordSpan(2, 4, "VV")]]
        pred = [[WordSpan(0, 2, "NR"), WordSpan(2, 4, "NR")]]
        text = ev.report(gold, pred, per_pos=True)
        assert "pos:NR" in text and "pos:VV" in text
