import itertools

import numpy as np
import pytest

from segtag import corpus as cp
from segtag import lattice as lat
from segtag import modelfile as mf
from segtag.autograd import Parameter, Tensor
from util import PERFBENCH, bmes_mask_oracle


def make_lattice(rng, n, n_tags, mask=None, scale=1.0, integer=False):
    if integer:
        emis = rng.integers(-5, 6, size=(n, n_tags)).astype(np.float64)
        a = rng.integers(-3, 4, size=(n_tags, n_tags)).astype(np.float64)
    else:
        emis = rng.uniform(-scale, scale, size=(n, n_tags))
        a = rng.uniform(-scale, scale, size=(n_tags, n_tags))
    return lat.TagScoreLattice(emis, lat.TransitionMatrix(Parameter(a), mask))


def path_score_oracle(emissions, a, tags):
    """Independent accumulation, position by position."""
    s = 0.0
    for i, t in enumerate(tags):
        s += emissions[i][t]
        if i > 0:
            s += a[tags[i - 1]][t]
    return s


class TestEmissionScores:
    def test_zero_weight_rows_equal_bias(self):
        b = Parameter(np.array([1.0, -2.0, 0.5, 3.0]))
        _, emissions = lat.emission_scores(Tensor(np.random.default_rng(0).normal(size=(5, 3))),
                                           Parameter(np.zeros((3, 4))), b)
        for row in emissions:
            assert np.array_equal(row, b.data)

    def test_single_tag_set(self):
        scores_t, emissions = lat.emission_scores(Tensor(np.ones((4, 2))),
                                                  Parameter(np.ones((2, 1))), Parameter(np.zeros(1)))
        assert scores_t.shape == emissions.shape == (4, 1)

    def test_matches_hand_product(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        b = rng.normal(size=2)
        scores_t, emissions = lat.emission_scores(
            Tensor(h), Parameter(w), Parameter(b))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                want[i, j] = sum(h[i, k] * w[k, j] for k in range(4))
        # the tensor leaves the bias to tag_count_diff; the lattice's array adds it
        assert np.allclose(scores_t.data, want, atol=1e-12)
        assert np.allclose(emissions, want + b, atol=1e-12)
        assert np.array_equal(emissions, h @ w + b)


class TestPathScore:
    def test_single_position_has_no_transition(self):
        l = lat.TagScoreLattice(np.array([[4.0, 7.0]]),
                                lat.TransitionMatrix(Parameter(np.full((2, 2), 100.0))))
        assert lat.path_score(l, [1]) == 7.0

    def test_small_arithmetic(self):
        l = lat.TagScoreLattice(np.array([[1.0, 0.0], [0.0, 2.0]]),
                                lat.TransitionMatrix(Parameter(np.zeros((2, 2)))))
        assert lat.path_score(l, [0, 1]) == 3.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_accumulation_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, n_tags = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        l = make_lattice(rng, n, n_tags)
        tags = rng.integers(0, n_tags, size=n)
        want = path_score_oracle(l.emissions.tolist(), l.trans.scores().tolist(), tags.tolist())
        assert abs(lat.path_score(l, tags) - want) < 1e-9

    def test_length_mismatch(self):
        l = make_lattice(np.random.default_rng(2), 3, 2)
        with pytest.raises(ValueError, match="length"):
            lat.path_score(l, [0, 1])

    def test_out_of_range_tag(self):
        l = make_lattice(np.random.default_rng(3), 2, 2)
        with pytest.raises(ValueError, match="range"):
            lat.path_score(l, [0, 5])


class TestViterbi:
    def test_zero_transitions_decouple_positions(self):
        rng = np.random.default_rng(4)
        emis = rng.normal(size=(6, 4))
        l = lat.TagScoreLattice(emis, lat.TransitionMatrix(Parameter(np.zeros((4, 4)))))
        path, score = lat.viterbi(l)
        assert path == list(np.argmax(emis, axis=1))
        assert abs(score - emis.max(axis=1).sum()) < 1e-9

    def test_single_position_argmax(self):
        l = lat.TagScoreLattice(np.array([[1.0, 9.0, 3.0]]),
                                lat.TransitionMatrix(Parameter(np.zeros((3, 3)))))
        assert lat.viterbi(l) == ([1], 9.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(400 + seed)
        n, n_tags = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        l = make_lattice(rng, n, n_tags)
        assert lat.viterbi(l) == lat.brute_force_decode(l)

    @pytest.mark.parametrize("seed", range(10))
    def test_tie_break_matches_brute_force_on_integer_lattices(self, seed):
        # integer scores force frequent exact ties
        rng = np.random.default_rng(500 + seed)
        n, n_tags = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        l = make_lattice(rng, n, n_tags, integer=True)
        assert lat.viterbi(l) == lat.brute_force_decode(l)

    def test_score_is_path_score_of_returned_path(self):
        rng = np.random.default_rng(5)
        l = make_lattice(rng, 5, 4)
        path, score = lat.viterbi(l)
        assert score == lat.path_score(l, path)

    @pytest.mark.parametrize("seed", range(5))
    def test_beats_random_paths(self, seed):
        rng = np.random.default_rng(600 + seed)
        l = make_lattice(rng, 6, 5)
        _, best = lat.viterbi(l)
        for _ in range(1000):
            t = rng.integers(0, 5, size=6)
            assert best >= lat.path_score(l, t) - 1e-12

    def test_column_shift_invariance(self):
        rng = np.random.default_rng(6)
        l = make_lattice(rng, 5, 4, integer=True)
        path, score = lat.viterbi(l)
        c = 3.0
        shifted = l.emissions.copy()
        shifted[2] += c
        l2 = lat.TagScoreLattice(shifted, l.trans)
        path2, score2 = lat.viterbi(l2)
        assert path2 == path
        assert score2 == score + c


class TestLossAugmented:
    def test_worked_example(self):
        l = lat.TagScoreLattice(np.array([[5.0, 0.0]]),
                                lat.TransitionMatrix(Parameter(np.zeros((2, 2)))))
        path, score = lat.loss_augmented_viterbi(l, [0], eta=0.2)
        assert (path, score) == ([0], 5.0)

    def test_zero_margin_equals_plain_viterbi(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, n_tags = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            l = make_lattice(rng, n, n_tags)
            gold = rng.integers(0, n_tags, size=n)
            assert lat.loss_augmented_viterbi(l, gold, 0.0) == lat.viterbi(l)

    def test_gold_augmented_score_equals_plain_score(self):
        rng = np.random.default_rng(8)
        l = make_lattice(rng, 4, 3)
        gold = np.array([0, 1, 2, 1])
        # drive emissions so gold wins even with the margin
        l.emissions[np.arange(4), gold] += 100.0
        path, aug = lat.loss_augmented_viterbi(l, gold, eta=0.5)
        assert path == gold.tolist()
        assert aug == lat.path_score(l, gold)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(700 + seed)
        n, n_tags = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        l = make_lattice(rng, n, n_tags)
        gold = rng.integers(0, n_tags, size=n)
        eta = float(rng.uniform(0.05, 0.5))
        assert lat.loss_augmented_viterbi(l, gold, eta) == lat.brute_force_decode(l, gold, eta)

    def test_augmented_at_least_plain(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            l = make_lattice(rng, 5, 4)
            gold = rng.integers(0, 4, size=5)
            _, plain = lat.viterbi(l)
            path, aug = lat.loss_augmented_viterbi(l, gold, 0.3)
            assert aug >= plain - 1e-12
            # the margin part of the augmented score is exactly eta * hamming
            assert abs(aug - lat.path_score(l, path)
                       - 0.3 * int(np.sum(np.asarray(path) != gold))) < 1e-12


class TestBruteForce:
    def test_single_position(self):
        l = lat.TagScoreLattice(np.array([[0.0, 2.0, 1.0]]),
                                lat.TransitionMatrix(Parameter(np.zeros((3, 3)))))
        assert lat.brute_force_decode(l) == ([1], 2.0)

    def test_guard_arithmetic(self):
        rng = np.random.default_rng(10)
        l = make_lattice(rng, 13, 3)
        with pytest.raises(lat.GuardError, match="3\\^13"):
            lat.brute_force_decode(l)

    def test_exhaustive_agreement_small(self):
        # cross-check the vectorized enumeration against a literal python loop
        rng = np.random.default_rng(11)
        l = make_lattice(rng, 3, 3, integer=True)
        best = None
        for tags in itertools.product(range(3), repeat=3):
            s = path_score_oracle(l.emissions.tolist(), l.trans.scores().tolist(), tags)
            key = (-s, tuple(reversed(tags)))
            if best is None or key < best[0]:
                best = (key, list(tags))
        path, _ = lat.brute_force_decode(l)
        assert path == best[1]


class TestMask:
    def test_masked_transitions_never_decoded(self):
        rng = np.random.default_rng(12)
        n_tags = 4
        mask = rng.random((n_tags, n_tags)) < 0.4
        mask[np.arange(n_tags), np.arange(n_tags)] = False  # keep self-loops open
        for seed in range(100):
            r = np.random.default_rng(800 + seed)
            l = make_lattice(r, int(r.integers(2, 7)), n_tags, mask=mask)
            path, _ = lat.viterbi(l)
            for i, j in zip(path[:-1], path[1:]):
                assert not mask[i, j]

    def test_fully_masked_is_infeasible(self):
        rng = np.random.default_rng(13)
        mask = np.ones((3, 3), dtype=bool)
        l = make_lattice(rng, 4, 3, mask=mask)
        with pytest.raises(lat.InfeasibleLatticeError):
            lat.viterbi(l)
        with pytest.raises(lat.InfeasibleLatticeError):
            lat.brute_force_decode(l)

    def test_masked_entries_get_no_gradient(self):
        rng = np.random.default_rng(14)
        a = Parameter(rng.normal(size=(3, 3)))
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = True
        trans = lat.TransitionMatrix(a, mask)
        path, gold = [0, 1, 0, 2], [0, 0, 0, 0]
        out = lat.arc_count_diff(trans, path, gold)
        # the masked arc 0->1 counts for nothing, in the value and the gradient
        assert abs(out.item() - (a.data[1, 0] + a.data[0, 2] - 3 * a.data[0, 0])) < 1e-12
        out.backward()
        want = np.zeros((3, 3))
        want[1, 0], want[0, 2], want[0, 0] = 1.0, 1.0, -3.0
        assert np.array_equal(a.grad, want)


class TestBmesMask:
    @pytest.mark.parametrize("labels", [["NN"], ["NN", "VV", "PU"], ["a", "a\x00", "b-c", "名"]])
    def test_cross_product_matches_oracle(self, labels):
        tagset = cp.TagSet.cross_product(labels)
        assert np.array_equal(lat.bmes_transition_mask(tagset), bmes_mask_oracle(list(tagset)))

    @pytest.mark.parametrize("seed", range(5))
    def test_observed_only_matches_oracle(self, seed):
        rng = np.random.default_rng(700 + seed)
        tags = {cp.JointTag(cp.SEG_LABELS[s], ("NN", "VV", "PU", "AD")[p])
                for s, p in rng.integers(0, 4, size=(int(rng.integers(1, 12)), 2))}
        tagset = cp.TagSet.observed_only(tags)
        assert np.array_equal(lat.bmes_transition_mask(tagset), bmes_mask_oracle(list(tagset)))

    def test_wide_model_matches_oracle(self):
        tagset = mf.load(PERFBENCH / "models" / "wide.model").tagset
        assert len(tagset) == 128
        assert np.array_equal(lat.bmes_transition_mask(tagset), bmes_mask_oracle(list(tagset)))


class TestMarginDiffOps:
    def test_path_emission_diff_value_and_gradient(self):
        rng = np.random.default_rng(17)
        scores = Parameter(rng.normal(size=(4, 3)))
        path, gold = [2, 1, 0, 1], [2, 0, 0, 2]
        out = lat.path_emission_diff(scores, path, gold)
        want = sum(scores.data[i, p] - scores.data[i, g]
                   for i, (p, g) in enumerate(zip(path, gold)))
        assert abs(out.item() - want) < 1e-12
        out.backward()
        # positions 0 and 2 agree: exactly zero gradient rows
        assert not np.any(scores.grad[0]) and not np.any(scores.grad[2])
        assert scores.grad[1, 1] == 1.0 and scores.grad[1, 0] == -1.0

    def test_agreeing_positions_are_bitwise_inert(self):
        rng = np.random.default_rng(18)
        scores = Parameter(rng.normal(size=(3, 3)))
        path, gold = [1, 2, 1], [1, 0, 1]
        before = lat.path_emission_diff(scores, path, gold).item()
        scores.data[0, 1] += 17.0   # only touched by the agreeing position
        assert lat.path_emission_diff(scores, path, gold).item() == before

    def test_tag_count_diff(self):
        b = Parameter(np.array([1.0, 10.0, 100.0]))
        # tag 1 used once by both: drops out; tag 0 net +1, tag 2 net -1
        out = lat.tag_count_diff(b, [0, 1, 0], [0, 1, 2])
        assert out.item() == 1.0 - 100.0
        out.backward()
        assert b.grad.tolist() == [1.0, 0.0, -1.0]

    def test_arc_count_diff(self):
        a = Parameter(np.arange(9.0).reshape(3, 3))
        trans = lat.TransitionMatrix(a)
        path, gold = [0, 1, 2], [0, 1, 1]
        # shared arc 0->1 cancels; net +1 on 1->2, -1 on 1->1
        out = lat.arc_count_diff(trans, path, gold)
        assert out.item() == a.data[1, 2] - a.data[1, 1]
        out.backward()
        want = np.zeros((3, 3))
        want[1, 2], want[1, 1] = 1.0, -1.0
        assert np.array_equal(a.grad, want)

    def test_arc_count_diff_single_position(self):
        a = Parameter(np.ones((2, 2)))
        out = lat.arc_count_diff(lat.TransitionMatrix(a), [1], [0])
        assert out.item() == 0.0
        out.backward()
        assert not np.any(a.grad)
