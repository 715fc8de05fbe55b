"""Packed multi-sentence batches against one sentence at a time.

Tagging and training pack sentences end to end (``CharIds.pack``) and run
each chunk once through the encoder and one batched Viterbi. Every result
here is compared with the same sentences run one at a time: paths must be
identical, emissions, hinge losses and gradients equal up to float64
rounding, gradients right on ragged batches.
"""
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from segtag import autograd as ag
from segtag import corpus as cp
from segtag import encoder as enc
from segtag import lattice as lt
from segtag import model as md
from segtag import modelfile as mf
from segtag import training as tr
from segtag.autograd import Parameter, Tensor
from segtag.encoder import RECURRENT_KINDS, CharIds, EncoderConfig
from segtag.model import LOCAL_CHARS, Model, length_chunks, runs
from segtag.toydata import ALPHABET, WORD_INVENTORY, toy_corpus
from util import (PERFBENCH, benchmark_workloads, randomize_parameters, small_tagging_caps,
                  taped_sum, topology_config, topology_grid)

RAGGED = (1, 3, 5)

# toy characters plus characters no toy vocabulary holds
CHARS = ALPHABET + "xyz好"

_MODELS = {}


def grid():
    """(topology, bigrams, constrained) for the 12 topologies and the MLP
    baseline, each with bigram features and constrained transitions on and off."""
    return [(topo, bigram, constrained) for topo in topology_grid(mlp=True)
            for bigram in (False, True) for constrained in (False, True)]


def grid_id(case):
    topo, bigram, constrained = case
    stages = {"pool": "conv-pooling", "highway": "conv-pooling-highway"}  # each stack's stages
    stack = stages.get(topo["stack"], topo["stack"])
    return f"{stack}-{topo['recurrent']}-{'bi' if bigram else 'uni'}-{'mask' if constrained else 'free'}"


def float64_model(case):
    """A small float64 model with random parameters, built once per case."""
    key = grid_id(case)
    if key not in _MODELS:
        topo, bigram, constrained = case
        cfg = topology_config(d=4, h=3, feature_map_sets=3, feature_maps=4,
                              use_bigram=bigram, **topo)
        vocab, tagset = cp.build_vocab_and_tagset(toy_corpus(12, seed=3), use_bigram=bigram,
                                                  bigram_min_count=1)
        model = Model(cfg, vocab, tagset, seed=5, dtype=np.float64,
                      constrain_transitions=constrained)
        _MODELS[key] = randomize_parameters(model, seed=11)
    return _MODELS[key]


sentence_sets = st.lists(st.text(CHARS, min_size=1, max_size=40), min_size=1, max_size=10)

# tagging caps scaled down so that a few short sentences span several runs
# of the local stack and several chunks: runs of 16 characters, chunks of 48
SMALL_LOCAL_CHARS, SMALL_CHUNK_CHARS = 16, 48


@pytest.mark.parametrize("case", grid(), ids=grid_id)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts=sentence_sets)
@example(texts=["a"])
@example(texts=["abcde", "abcde", "x", "abcde"])
@example(texts=["a" * 40, "l", "kkk", "好" * 7])
# longer than a run, longer than a chunk, and runs and chunks filled by short ones
@example(texts=["abcdefghijkl" * 2, "ab", "cde" * 25, "kl", "abc", "好xy" * 4, "fgh", "gh" * 10,
               "ij"])
def test_batched_tagging_equals_one_sentence_at_a_time(case, texts):
    model = float64_model(case)
    sentences = [list(t) for t in texts]
    ids = [model.vocab.encode(s, model.cfg.use_bigram) for s in sentences]

    alone = [lt.viterbi(model.lattice(i))[0] for i in ids]
    want = np.concatenate([model.emissions(i)[1] for i in ids])
    largest = np.max(np.abs(want))
    with small_tagging_caps(model, SMALL_LOCAL_CHARS, SMALL_CHUNK_CHARS):
        assert model.tag_batch(sentences) == [model.tagset.decode(p) for p in alone]
        with ag.no_grad():
            split = model.lattice(CharIds.pack(ids)).emissions     # in runs, untaped
    assert np.max(np.abs(split - want)) <= 1e-10 * largest

    packed = model.emissions(CharIds.pack(ids))[1]
    assert np.max(np.abs(packed - want)) <= 1e-10 * largest


# a sentence as word indices into WORD_INVENTORY, and whether its gold is the
# model's own Viterbi path (a satisfied margin at eta = 0) or the true tags
hinge_sentences = st.lists(
    st.tuples(st.lists(st.integers(0, len(WORD_INVENTORY) - 1), min_size=1, max_size=8),
              st.booleans()),
    min_size=1, max_size=6)


@pytest.mark.parametrize("case", grid(), ids=grid_id)
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=hinge_sentences, eta=st.sampled_from([0.0, 0.2]))
@example(drawn=[([0, 1], True), ([3, 5, 2], False), ([6], True), ([4, 4, 1], False)], eta=0.0)
@example(drawn=[([1, 3, 6], False), ([0], False)], eta=0.2)
def test_packed_hinge_equals_the_sum_of_one_sentence_hinges(case, drawn, eta):
    model = float64_model(case)
    ids, gold = [], []
    for words, satisfied in drawn:
        chars = [c for w in words for c in WORD_INVENTORY[w][0]]
        ids.append(model.vocab.encode(chars, model.cfg.use_bigram))
        tags = [t for w in words for t in cp.expand_word(*WORD_INVENTORY[w])]
        gold.append(np.asarray(lt.viterbi(model.lattice(ids[-1]))[0]) if satisfied
                    else model.tagset.encode(tags))

    model.zero_grads()
    want_losses, want_violator = [], []
    for i, g in zip(ids, gold):
        diff, (loss,), violator = tr.hinge_loss_graph(model, i, g, eta)
        if loss > 0.0:
            diff.backward()
        want_losses.append(loss)
        want_violator += violator
    want = [p.grad.copy() for _, p in model.parameters()]

    model.zero_grads()
    packed = CharIds.pack(ids)
    diff, losses, violator = tr.hinge_loss_graph(model, packed, np.concatenate(gold), eta)
    diff.backward()     # zero-loss sentences are their own violators: they add nothing
    assert violator == want_violator
    assert losses == pytest.approx(want_losses, rel=1e-10, abs=1e-12)
    assert diff.item() == pytest.approx(sum(want_losses), rel=1e-10, abs=1e-12)
    for (name, p), w in zip(model.parameters(), want):
        assert np.max(np.abs(p.grad - w)) <= 1e-10 * max(1.0, np.max(np.abs(w))), name
    if eta == 0.0:
        for loss, (_, satisfied) in zip(losses, drawn):
            assert loss == 0.0 or not satisfied

    # no gradient reaches an arc that neither sequence crosses inside a sentence,
    # such as the violator's arcs across sentence boundaries
    inside = np.zeros(model.trans.a.shape, dtype=bool)
    for seq in (violator, np.concatenate(gold)):
        for s in np.split(np.asarray(seq), np.cumsum(packed.lengths)[:-1]):
            inside[s[:-1], s[1:]] = True
    assert not np.any(model.trans.a.grad[~inside])


class TestPacking:
    def test_default_lengths_is_one_sentence(self):
        assert CharIds(uni=np.array([4, 5, 6])).lengths.tolist() == [3]

    def test_pack_concatenates_ids_and_lengths(self):
        a = CharIds(uni=np.array([2]), bi_left=np.array([1]), bi_right=np.array([1]))
        b = CharIds(uni=np.array([3, 4]), bi_left=np.array([1, 5]), bi_right=np.array([6, 1]))
        ids = CharIds.pack([a, b])
        assert ids.uni.tolist() == [2, 3, 4]
        assert ids.bi_left.tolist() == [1, 1, 5]
        assert ids.bi_right.tolist() == [1, 6, 1]
        assert ids.lengths.tolist() == [1, 2]
        assert CharIds.pack([ids, a]).lengths.tolist() == [1, 2, 1]

    def test_pack_rejects_mixed_bigram_ids_and_nothing(self):
        a = CharIds(uni=np.array([2]), bi_left=np.array([1]), bi_right=np.array([1]))
        with pytest.raises(ValueError, match="bi_left"):
            CharIds.pack([a, CharIds(uni=np.array([3]))])
        with pytest.raises(ValueError, match="zero sentences"):
            CharIds.pack([])

    def test_empty_sentence_in_a_pack_rejected(self):
        cfg = EncoderConfig(d=4, stack="embed", recurrent="none")
        ids = CharIds.pack([CharIds(uni=np.array([2])), CharIds(uni=np.array([], dtype=int))])
        with pytest.raises(ValueError, match="empty"):
            enc.embed_sentence(ids, Parameter(np.zeros((6, 4))), None, cfg)

    def test_lengths_must_partition_the_rows(self):
        with pytest.raises(ag.ShapeError, match="partition"):
            enc.lstm_forward(Tensor(np.zeros((4, 3))), Parameter(np.zeros((5, 8))),
                             Parameter(np.zeros(8)), lengths=[2, 3])
        bank = [(Parameter(np.zeros((3 * q, 2))), Parameter(np.zeros(2))) for q in (1, 2, 3)]
        with pytest.raises(ag.ShapeError, match="partition"):
            enc.conv_feature_maps(Tensor(np.zeros((4, 3))), bank, lengths=[4, 0])
        with pytest.raises(ag.ShapeError, match="partition"):
            enc.mlp_encode(Tensor(np.zeros((4, 3))), *bank[2], 3, lengths=[4, 0])

    @pytest.mark.parametrize("cap", [1, 5, 8, 100])
    def test_length_chunks_sort_and_cap(self, cap):
        lengths = [3, 9, 1, 4, 4, 2, 7]
        chunks = list(length_chunks(lengths, cap))
        assert sorted(i for c in chunks for i in c) == list(range(len(lengths)))
        order = [lengths[i] for c in chunks for i in c]
        assert order == sorted(lengths)
        for c in chunks:
            assert len(c) == 1 or sum(lengths[i] for i in c) <= cap

    @pytest.mark.parametrize("cap", [1, 5, 8, 100])
    def test_runs_keep_order_and_cap(self, cap):
        lengths = [3, 9, 1, 4, 4, 2, 7]
        cuts = list(runs(lengths, cap))
        assert [i for first, last in cuts for i in range(first, last)] == list(range(len(lengths)))
        for first, last in cuts:
            assert last - first == 1 or sum(lengths[first:last]) <= cap
            # no run could have taken the next sentence
            assert last == len(lengths) or sum(lengths[first:last + 1]) > cap

    @pytest.mark.parametrize("most", [1, 2, 3])
    def test_runs_and_chunks_cap_the_sentence_count(self, most):
        lengths = [3, 9, 1, 4, 4, 2, 7]
        cuts = list(runs(lengths, 12, most))
        assert [i for first, last in cuts for i in range(first, last)] == list(range(len(lengths)))
        for first, last in cuts:
            assert last - first <= most and (last - first == 1 or sum(lengths[first:last]) <= 12)
            # a run stops at its sentence cap or when the next sentence would not fit
            assert (last == len(lengths) or last - first == most
                    or sum(lengths[first:last + 1]) > 12)
        chunks = list(length_chunks(lengths, 12, most))
        assert [lengths[i] for c in chunks for i in c] == sorted(lengths)
        assert max(map(len, chunks)) == most

    def test_sentences_slice_a_pack(self):
        a = CharIds(uni=np.array([2]), bi_left=np.array([1]), bi_right=np.array([1]))
        b = CharIds(uni=np.array([3, 4]), bi_left=np.array([1, 5]), bi_right=np.array([6, 1]))
        ids = CharIds.pack([a, b, a])
        rows, part = ids.sentences(1, 3)
        assert rows == slice(1, 4)
        assert part.uni.tolist() == [3, 4, 2] and part.lengths.tolist() == [2, 1]
        assert part.bi_left.tolist() == [1, 5, 1] and part.bi_right.tolist() == [6, 1, 1]
        assert CharIds.pack([a, b]).sentences(0, 1)[1].uni.tolist() == [2]


def _blocks(data, lengths):
    return np.split(data, np.cumsum(lengths)[:-1])


class TestRaggedLayers:
    """Packed ragged batch, lengths (1, 3, 5): outputs equal the layer on each
    sentence alone, and gradients match finite differences."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm(self, reverse):
        rng = np.random.default_rng(60)
        w = Parameter(rng.normal(size=(5, 8)) * 0.5)
        b = Parameter(rng.normal(size=8) * 0.5)
        x = Parameter(rng.normal(size=(sum(RAGGED), 3)), name="x")
        out = enc.lstm_forward(x, w, b, reverse=reverse, lengths=RAGGED)
        for got, rows in zip(_blocks(out.data, RAGGED), _blocks(x.data, RAGGED)):
            alone = enc.lstm_forward(Tensor(rows), w, b, reverse=reverse).data
            assert np.max(np.abs(got - alone)) <= 1e-12

        def f():
            return taped_sum(enc.lstm_forward(x, w, b, reverse=reverse, lengths=RAGGED), "tanh")

        assert ag.grad_check(f, [x, w, b]) <= 1e-4

    def test_conv_bank_windows_stop_at_sentence_ends(self):
        rng = np.random.default_rng(61)
        x = Parameter(rng.normal(size=(sum(RAGGED), 3)), name="x")
        weights = [Parameter(rng.normal(size=(3 * q, 2)), name=f"w{q}") for q in (1, 2, 3)]
        biases = [Parameter(rng.normal(size=2), name=f"b{q}") for q in (1, 2, 3)]
        bank = list(zip(weights, biases))
        out = enc.conv_feature_maps(x, bank, RAGGED)
        for got, rows in zip(_blocks(out.data, RAGGED), _blocks(x.data, RAGGED)):
            assert np.max(np.abs(got - enc.conv_feature_maps(Tensor(rows), bank).data)) <= 1e-12
        params = [x, *weights, *biases]
        err = ag.grad_check(
            lambda: taped_sum(enc.conv_feature_maps(x, bank, RAGGED), "tanh"), params)
        assert err <= 1e-4

    def test_mlp_window_stops_at_sentence_ends(self):
        rng = np.random.default_rng(62)
        x = Parameter(rng.normal(size=(sum(RAGGED), 3)), name="x")
        w = Parameter(rng.normal(size=(9, 2)), name="w")
        b = Parameter(rng.normal(size=2), name="b")
        out = enc.mlp_encode(x, w, b, 3, RAGGED)
        for got, rows in zip(_blocks(out.data, RAGGED), _blocks(x.data, RAGGED)):
            assert np.max(np.abs(got - enc.mlp_encode(Tensor(rows), w, b, 3).data)) <= 1e-12
        err = ag.grad_check(lambda: taped_sum(enc.mlp_encode(x, w, b, 3, RAGGED), "tanh"),
                            [x, w, b])
        assert err <= 1e-4

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_padding_never_raises(self, reverse):
        # huge weights are refused; small ones run, and a short sentence's
        # idle padding steps are never computed
        w = Parameter(np.full((5, 8), 1e308), name="lstm.fwd.w")
        b = Parameter(np.zeros(8))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ag.NumericError, match="lstm"):
                enc.lstm_forward(Tensor(np.ones((4, 3))), w, b, reverse=reverse, lengths=[1, 3])
        w.data[...] = 0.1
        out = enc.lstm_forward(Tensor(np.ones((6, 3))), w, b, reverse=reverse, lengths=[1, 5])
        assert np.all(np.isfinite(out.data))


class TestBatchedViterbi:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_each_sentence_decoded_on_its_own(self, seed, masked):
        rng = np.random.default_rng(70 + seed)
        n_tags = 4
        mask = rng.uniform(size=(n_tags, n_tags)) < 0.3 if masked else None
        if mask is not None:
            mask[:, 0] = mask[0, :] = False     # tag 0 keeps every sentence feasible
        trans = lt.TransitionMatrix(Parameter(rng.uniform(-1, 1, size=(n_tags, n_tags))), mask)
        lengths = rng.integers(1, 6, size=int(rng.integers(1, 6))).tolist()
        emissions = rng.uniform(-2, 2, size=(sum(lengths), n_tags))
        path, score = lt.viterbi(lt.TagScoreLattice(emissions, trans, lengths))
        want, total = [], 0.0
        for rows in _blocks(emissions, lengths):
            alone = lt.TagScoreLattice(rows, trans)
            p, s = lt.viterbi(alone)
            assert (p, s) == lt.brute_force_decode(alone)
            want += p
            total += s
        assert path == want
        assert score == pytest.approx(total, rel=1e-12)

    def test_path_score_adds_no_arc_across_sentences(self):
        a = Parameter(np.array([[0.0, 5.0], [7.0, 0.0]]))
        emissions = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        lat = lt.TagScoreLattice(emissions, lt.TransitionMatrix(a), [2, 1])
        # 1 (e) + 5 (0->1) + 2 (e) | 3 (e): the arc 1 -> 0 between sentences is not scored
        assert lt.path_score(lat, [0, 1, 0]) == 11.0

    def test_loss_augmented_decode_on_a_packed_lattice(self):
        rng = np.random.default_rng(80)
        trans = lt.TransitionMatrix(Parameter(rng.uniform(-1, 1, size=(3, 3))))
        lengths = [2, 4, 1]
        emissions = rng.uniform(-1, 1, size=(7, 3))
        gold = rng.integers(0, 3, size=7)
        path, score = lt.loss_augmented_viterbi(
            lt.TagScoreLattice(emissions, trans, lengths), gold, 0.4)
        want = []
        for rows, g in zip(_blocks(emissions, lengths), _blocks(gold, lengths)):
            want += lt.loss_augmented_viterbi(lt.TagScoreLattice(rows, trans), g, 0.4)[0]
        assert path == want

    def test_bad_lengths_and_packed_brute_force_rejected(self):
        trans = lt.TransitionMatrix(Parameter(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="partition"):
            lt.TagScoreLattice(np.zeros((3, 2)), trans, [1, 1])
        with pytest.raises(ValueError, match="one sentence"):
            lt.brute_force_decode(lt.TagScoreLattice(np.zeros((3, 2)), trans, [1, 2]))

    def test_one_infeasible_sentence_fails_the_batch(self):
        mask = np.array([[True, True], [True, True]])
        trans = lt.TransitionMatrix(Parameter(np.zeros((2, 2))), mask)
        with pytest.raises(lt.InfeasibleLatticeError):
            lt.viterbi(lt.TagScoreLattice(np.zeros((3, 2)), trans, [1, 2]))


@st.composite
def masked_lattices(draw):
    """(emissions, transitions, lengths, gold, eta): one sentence or several
    packed, small enough to enumerate, often with ties and forbidden arcs.
    Scores are multiples of 1/4, so both decoders add them up exactly and
    every tie is a true tie."""
    n_tags = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    n = sum(lengths)
    score = st.integers(-8, 8).map(lambda q: q / 4)     # every path sum is exact
    emissions = np.array(draw(st.lists(score, min_size=n * n_tags, max_size=n * n_tags)))
    a = np.array(draw(st.lists(score, min_size=n_tags ** 2, max_size=n_tags ** 2)))
    mask = None
    if draw(st.booleans()):
        mask = np.array(draw(st.lists(st.booleans(), min_size=n_tags ** 2,
                                      max_size=n_tags ** 2))).reshape(n_tags, n_tags)
    trans = lt.TransitionMatrix(Parameter(a.reshape(n_tags, n_tags)), mask)
    gold = np.array(draw(st.lists(st.integers(0, n_tags - 1), min_size=n, max_size=n)))
    eta = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return emissions.reshape(n, n_tags), trans, lengths, gold, eta


@settings(max_examples=200, deadline=None)
@given(case=masked_lattices())
@example(case=(np.zeros((3, 2)), lt.TransitionMatrix(Parameter(np.zeros((2, 2))), np.ones((2, 2), bool)),
               [1, 2], np.zeros(3, dtype=int), 0.5))
@example(case=(np.zeros((6, 2)), lt.TransitionMatrix(Parameter(np.zeros((2, 2)))),
               [3, 1, 2], np.array([1, 0, 1, 0, 0, 1]), 0.0))
def test_packed_viterbi_equals_brute_force_on_masked_lattices(case):
    # each sentence of a packed lattice decodes, with and without the margin,
    # as the enumeration oracle decodes it alone; a lattice holding an
    # infeasible sentence fails, as that sentence fails alone
    emissions, trans, lengths, gold, eta = case
    packed = lt.TagScoreLattice(emissions, trans, lengths)
    want, want_aug, infeasible = [], [], False
    for rows, g in zip(_blocks(emissions, lengths), _blocks(gold, lengths)):
        alone = lt.TagScoreLattice(rows, trans)
        try:
            want_path = lt.brute_force_decode(alone)
        except lt.InfeasibleLatticeError:
            infeasible = True
            with pytest.raises(lt.InfeasibleLatticeError):
                lt.viterbi(alone)
            continue
        assert lt.viterbi(alone) == want_path
        want += want_path[0]
        want_aug += lt.brute_force_decode(alone, g, eta)[0]
    if infeasible:
        with pytest.raises(lt.InfeasibleLatticeError):
            lt.viterbi(packed)
        with pytest.raises(lt.InfeasibleLatticeError):
            lt.loss_augmented_viterbi(packed, gold, eta)
        return
    assert lt.viterbi(packed)[0] == want
    assert lt.loss_augmented_viterbi(packed, gold, eta)[0] == want_aug


def test_tagging_and_training_leave_no_cyclic_garbage():
    # a graph holds no reference cycles, so each chunk's tape is freed at once
    # instead of piling up until the collector runs
    sents = toy_corpus(8, seed=2)
    vocab, tagset = cp.build_vocab_and_tagset(sents)
    model = Model(EncoderConfig(d=4, h=3, feature_map_sets=3, feature_maps=4), vocab, tagset)
    gc.collect()
    gc.disable()
    try:
        model.tag_batch([s.chars for s in sents])
        tr.train_epoch(sents, model, tr.TrainConfig(batch_size=4), epoch=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tagging_leaves_the_tape_on_between_chunks():
    # Model.tagged turns the tape off for each chunk only: its caller, which
    # runs between chunks, still records one
    sents = toy_corpus(8, seed=2)
    vocab, tagset = cp.build_vocab_and_tagset(sents)
    model = Model(EncoderConfig(d=4, h=3, feature_map_sets=3, feature_maps=4), vocab, tagset)
    tagged = model.tagged([s.chars for s in sents] + [ALPHABET * 40])
    next(tagged)
    assert ag._grad_on.get()
    assert model.hidden(model.vocab.encode(sents[0].chars))._prev    # its inputs, recorded
    tagged.close()


def test_tagging_frees_the_encoder_tape_before_viterbi(monkeypatch):
    # at the published widths a chunk's forward caches (BLSTM activations,
    # conv output, k-max indices) take ~8 KB per character; by the time
    # Viterbi runs only the lattice's emission scores should be left
    sents = toy_corpus(60, seed=3)
    vocab, tagset = cp.build_vocab_and_tagset(sents)
    model = Model(EncoderConfig(), vocab, tagset)
    viterbi, held = lt.viterbi, []

    def spy(lat):
        held.append((tracemalloc.get_traced_memory()[0] - base) / lat.n)
        return viterbi(lat)

    monkeypatch.setattr(lt, "viterbi", spy)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.tag_batch([s.chars for s in sents])
    finally:
        tracemalloc.stop()
    assert held and max(held) <= 1024


def taped_paths(model, sentences):
    """Tag paths as tagging ran with the tape on, in training-sized chunks."""
    paths = [None] * len(sentences)
    for chunk, ids in model.chunks(sentences, LOCAL_CHARS):
        path, _ = lt.viterbi(model.lattice(ids))
        ends = np.cumsum(ids.lengths).tolist()
        for i, lo, hi in zip(chunk, [0] + ends, ends):
            paths[i] = path[lo:hi]
    return paths


@pytest.mark.parametrize("lang, seeds, n", [("toy", (1, 2, 3), 100), ("wide", (1, 2), 40)])
def test_untaped_tagging_chunks_give_the_taped_paths(lang, seeds, n):
    # the benchmark's committed models on its sentences: 300 toy sentences of
    # ~26 characters, 80 sentences of 150-250 characters over 128 tags with
    # constrained transitions
    wl = benchmark_workloads()
    model = mf.load(PERFBENCH / "models" / f"{lang}.model")
    make = wl.toy_sentences if lang == "toy" else wl.wide_sentences
    sentences = [[c for word, _ in s for c in word] for seed in seeds for s in make(n, seed)]
    assert model.tag_chunk_chars > LOCAL_CHARS
    assert sorted(model.tagged(sentences)) == list(enumerate(taped_paths(model, sentences)))


def tagging_peak_per_character(model, sentences):
    """Traced peak of tagging the sentences, per character, on a second pass:
    the first warms numpy's caches up."""
    for _ in range(2):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.tag_batch(sentences)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return (peak - base) / sum(map(len, sentences))


def test_tagging_chunk_peak_memory_per_character():
    # one whole tagging chunk at the published widths, ~2,870 characters of
    # ~26-character sentences. With no tape, the peak is in the BLSTM: the
    # chunk's states (0.8 KB per character) beside the local stack's output
    # (0.2), and per direction a block of gates, the halved weights, a step's
    # gate scales and shifts and two c and two h slot rows per sentence,
    # ~1.45 KB per character in all
    sents = toy_corpus(200, seed=3, min_words=10, max_words=20)
    vocab, tagset = cp.build_vocab_and_tagset(sents)
    model = Model(EncoderConfig(), vocab, tagset)
    chunk = []
    while sum(len(s) for s in chunk) < model.tag_chunk_chars - 30:
        chunk.append(sents[len(chunk)].chars)
    assert sum(map(len, chunk)) <= model.tag_chunk_chars
    per_char = tagging_peak_per_character(model, chunk)
    assert per_char <= 1.55 * 1024, per_char


def test_long_line_peak_memory_per_character():
    # a line longer than a tagging chunk is a chunk by itself, and a run of
    # the local stack by itself, so only a per-character working set keeps it
    # from costing more than a chunk: ~3.4 KB per character, the conv bank's
    # window beside its maps
    sents = toy_corpus(300, seed=3, min_words=10, max_words=20)
    vocab, tagset = cp.build_vocab_and_tagset(sents)
    model = Model(EncoderConfig(), vocab, tagset)
    line = [c for s in sents for c in s.chars][:4000]
    assert len(line) == 4000 > model.tag_chunk_chars
    per_char = tagging_peak_per_character(model, [line])
    assert per_char <= 4.0 * 1024, per_char


def test_many_short_lines_peak_memory():
    # an untaped LSTM direction holds two c and two h slot rows per sentence
    # (1.6 KB at h = 100), so a chunk cut by characters alone would hold 2,870
    # one-character lines; cut at tag_chunk_sentences (1,966) as well, 6,000
    # of them peak at ~1.16 KB per line, the tag lists of tag_batch included,
    # where a chunk cut by characters alone peaks at ~1.54 KB
    sents = toy_corpus(200, seed=3, min_words=10, max_words=20)
    vocab, tagset = cp.build_vocab_and_tagset(sents)
    model = Model(EncoderConfig(), vocab, tagset)
    assert model.tag_chunk_sentences == 1966 < model.tag_chunk_chars
    lines = [[ALPHABET[i % len(ALPHABET)]] for i in range(6000)]
    per_line = tagging_peak_per_character(model, lines)
    assert per_line <= 1.27 * 1024, per_line


@pytest.mark.parametrize("recurrent", RECURRENT_KINDS)
def test_tagging_chunks_cap_characters_and_sentences(recurrent, monkeypatch):
    # a budget that holds 6 of h = 3's slot rows (or, without a recurrent
    # layer, no sentence cap) over short lines and one longer than a chunk
    sents = toy_corpus(8, seed=2)
    vocab, tagset = cp.build_vocab_and_tagset(sents)
    model = Model(topology_config(d=4, h=3, feature_map_sets=3, feature_maps=4,
                                  recurrent=recurrent), vocab, tagset, dtype=np.float64)
    monkeypatch.setattr(md, "TAG_CHUNK_BYTES", 6 * 4 * 3 * 8)
    most = math.inf if recurrent == "none" else 6
    assert model.tag_chunk_sentences == most and model.tag_chunk_chars == LOCAL_CHARS
    sentences = [s.chars for s in sents] * 3 + [list(ALPHABET * 100)]
    calls, lattice = [], Model.lattice

    def counted(m, ids):
        calls.append(ids.lengths.tolist())
        return lattice(m, ids)

    monkeypatch.setattr(Model, "lattice", counted)
    tags = model.tag_batch(sentences)
    lengths = [len(s) for s in sentences]
    want = [[lengths[i] for i in c] for c in length_chunks(lengths, LOCAL_CHARS, most)]
    assert calls == want and len(calls) == (2 if recurrent == "none" else 5)
    monkeypatch.setattr(Model, "lattice", lattice)
    assert tags == [model.tag_chars(s) for s in sentences]
