import io
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from segtag import autograd as ag
from segtag import corpus as cp
from segtag import lattice as lt
from segtag import training as tr
from segtag.autograd import Parameter
from segtag.encoder import CharIds, EncoderConfig
from segtag.model import LOCAL_CHARS, Model
from segtag.toydata import toy_corpus
from util import projection_model, randomize_parameters, taped_sum, taped_total, topology_config


def tiny_model(seed=1, dtype=np.float32, **cfg_kwargs):
    defaults = dict(d=6, h=5, feature_map_sets=2, feature_maps=6)
    defaults.update(cfg_kwargs)
    cfg = topology_config(**defaults)
    sents = toy_corpus(12, seed=3)
    vocab, tagset = cp.build_vocab_and_tagset(sents, use_bigram=cfg.use_bigram,
                                              bigram_min_count=1)
    return Model(cfg, vocab, tagset, seed=seed, dtype=dtype), sents


def enumerate_hinge_oracle(lat_obj, gold, eta):
    """Literal max over all sequences of score + margin, minus gold score."""
    n, n_tags = lat_obj.emissions.shape
    best = -np.inf
    for seq in itertools.product(range(n_tags), repeat=n):
        s = lt.path_score(lat_obj, list(seq)) + eta * sum(a != b for a, b in zip(seq, gold))
        best = max(best, s)
    return best - lt.path_score(lat_obj, gold)


class TestMarginDelta:
    def test_identical_sequences(self):
        assert tr.margin_delta([1, 2, 3], [1, 2, 3], 0.7) == 0.0

    def test_fully_different(self):
        assert tr.margin_delta([0] * 5, [1] * 5, 0.3) == pytest.approx(1.5)

    def test_default_discount_arithmetic(self):
        # eta = 0.2 with three mismatches
        assert tr.margin_delta([0, 1, 2, 3], [0, 2, 1, 0], 0.2) == pytest.approx(0.6)

    def test_symmetry_and_linear_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            a = rng.integers(0, 3, size=n)
            b = rng.integers(0, 3, size=n)
            assert tr.margin_delta(a, b, 0.4) == tr.margin_delta(b, a, 0.4)
            assert tr.margin_delta(a, b, 0.8) == pytest.approx(2 * tr.margin_delta(a, b, 0.4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            tr.margin_delta([0, 1], [0], 0.2)


class TestHingeLoss:
    def make(self, emissions, a=None, lengths=None):
        emissions = np.asarray(emissions, dtype=np.float64)
        n_tags = emissions.shape[1]
        a = np.zeros((n_tags, n_tags)) if a is None else np.asarray(a, dtype=np.float64)
        return lt.TagScoreLattice(emissions, lt.TransitionMatrix(Parameter(a)), lengths)

    def test_satisfied_margin_gives_zero(self):
        l = self.make([[10.0, 0.0], [10.0, 0.0]])
        (loss,), violator = tr.hinge_losses(l, [0, 0], eta=0.2)
        assert loss == 0.0
        assert violator == [0, 0]

    def test_tied_emissions_pay_the_margin(self):
        l = self.make([[0.0, 0.0]])
        (loss,), violator = tr.hinge_losses(l, [0], eta=0.2)
        assert loss == pytest.approx(0.2)
        assert violator == [1]

    def test_tied_competitor_at_zero_loss_leaves_gold_as_the_violator(self):
        # the decoder breaks the tie towards tag 0, but the margin holds, so
        # the violator is gold itself and cancels in hinge_loss_graph
        l = self.make([[0.0, 0.0]])
        (loss,), violator = tr.hinge_losses(l, [1], eta=0.0)
        assert loss == 0.0
        assert violator == [1]

    def test_packed_lattice_gives_one_loss_per_sentence(self):
        l = self.make([[10.0, 0.0], [0.0, 0.0], [0.0, 3.0]], lengths=[1, 2])
        losses, violator = tr.hinge_losses(l, [0, 0, 1], eta=0.2)
        # sentence 1 holds; sentence 2 pays 0.2 at position 0 (tied emissions)
        assert losses.tolist() == pytest.approx([0.0, 0.2])
        assert violator == [0, 1, 1]

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(1100 + seed)
        n, n_tags = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        l = self.make(rng.uniform(-2, 2, size=(n, n_tags)),
                      rng.uniform(-1, 1, size=(n_tags, n_tags)))
        gold = rng.integers(0, n_tags, size=n)
        eta = float(rng.uniform(0.0, 0.5))
        (loss,), _ = tr.hinge_losses(l, gold, eta)
        assert loss == pytest.approx(enumerate_hinge_oracle(l, gold.tolist(), eta), abs=1e-9)
        assert loss >= 0.0

    def test_zero_iff_margin_constraint_holds(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, n_tags = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            l = self.make(rng.uniform(-1, 1, size=(n, n_tags)),
                          rng.uniform(-1, 1, size=(n_tags, n_tags)))
            gold = rng.integers(0, n_tags, size=n).tolist()
            eta = 0.2
            (loss,), _ = tr.hinge_losses(l, gold, eta)
            gold_score = lt.path_score(l, gold)
            holds = all(
                gold_score >= lt.path_score(l, list(seq))
                + eta * sum(a != b for a, b in zip(seq, gold)) - 1e-12
                for seq in itertools.product(range(n_tags), repeat=n)
            )
            assert (loss == 0.0) == holds


class TestRegularizer:
    def test_worked_example(self):
        # l2 = 1e-4, squared norm 100
        p = Parameter(np.full(4, 5.0), name="w")
        assert tr.regularizer_value([("w", p)], 1e-4) == pytest.approx(0.005)

    def test_zero_coefficient(self):
        p = Parameter(np.full(4, 5.0), name="w")
        assert tr.regularizer_value([("w", p)], 0.0) == 0.0

    def test_all_zero(self):
        p = Parameter(np.zeros(3), name="w")
        assert tr.regularizer_value([("w", p)], 1e-4) == 0.0


class TestBackpropMargin:
    """The hinge graph and the subgradient its backward() accumulates."""

    def test_zero_loss_means_zero_data_gradient(self):
        model, _ = tiny_model(dtype=np.float64)
        ids = model.vocab.encode(["f"])
        # single position: boosting the gold tag's bias makes it dominate
        lat_obj = model.lattice(ids)
        gold = np.asarray(lt.viterbi(lat_obj)[0])
        model.named["proj.b"].data[gold[0]] += 50.0
        diff, (loss,), violator = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
        assert loss == 0.0
        assert violator == gold.tolist()
        # gold is its own violator, so even a backward pass accumulates nothing
        diff.backward()
        for _, p in model.parameters():
            assert not np.any(p.grad)

    def test_pad_embedding_rows_never_receive_gradient(self):
        # Vocab.encode never returns the pad id (boundary bigrams have their
        # own keys), so the pad rows stay untouched by any sentence
        model, sents = tiny_model(use_bigram=True, feature_maps=12)
        model.zero_grads()
        ids = CharIds.pack(model.vocab.encode(s.chars, use_bigram=True) for s in sents)
        gold = np.concatenate([model.tagset.encode(s.tags) for s in sents])
        diff, losses, _ = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
        assert losses.any()
        diff.backward()
        unigram, bigram = model.named["embed.unigram"], model.named["embed.bigram"]
        assert not np.any(unigram.grad[cp.Vocab.PAD])
        assert not np.any(bigram.grad[cp.Vocab.PAD])
        assert np.any(unigram.grad)  # real rows did move

    def test_shared_prefix_transition_gradients_cancel(self):
        # gold and violator both open with the arc 0->1, which nets to zero;
        # a stub model hands the hinge fixed tag scores through an identity
        # projection, so the margin picks the violator [0, 1, 1]
        hidden = Parameter(np.array([[1.0, 0.0], [0.0, 5.0], [0.0, 0.0]]))
        a = Parameter(np.zeros((2, 2)))
        b = Parameter(np.zeros(2))
        model = projection_model(hidden, Parameter(np.eye(2)), b, lt.TransitionMatrix(a))
        ids = SimpleNamespace(lengths=np.array([3]))
        diff, (loss,), violator = tr.hinge_loss_graph(model, ids, [0, 1, 0], eta=0.2)
        assert violator == [0, 1, 1]
        assert abs(loss - 0.2) < 1e-12 and abs(diff.item() - loss) < 1e-12
        diff.backward()
        assert a.grad[0, 1] == 0.0      # shared prefix arc cancels
        assert a.grad[1, 0] == -1.0
        assert a.grad[1, 1] == 1.0
        assert hidden.grad[2, 1] == 1.0 and hidden.grad[2, 0] == -1.0
        assert not np.any(hidden.grad[:2])
        assert b.grad.tolist() == [-1.0, 1.0]

    @pytest.mark.parametrize("seed", range(4))
    def test_backward_adds_violator_minus_gold(self, seed):
        # through an identity projection, the tag scores' gradient is the
        # violator's one-hot rows minus gold's, and the bias and transitions
        # get the integer tag and within-sentence arc count differences
        rng = np.random.default_rng(40 + seed)
        n_tags, lengths = 4, [3, 1, 5]
        hidden = Parameter(rng.normal(size=(9, n_tags)))
        b = Parameter(rng.normal(size=n_tags))
        trans = lt.TransitionMatrix(Parameter(rng.normal(size=(n_tags, n_tags))))
        model = projection_model(hidden, Parameter(np.eye(n_tags)), b, trans)
        gold = rng.integers(0, n_tags, size=9)
        diff, losses, violator = tr.hinge_loss_graph(
            model, SimpleNamespace(lengths=np.array(lengths)), gold, eta=0.5)
        assert losses.any()
        diff.backward()
        onehot = np.eye(n_tags)
        assert np.array_equal(hidden.grad, onehot[violator] - onehot[gold])
        assert np.array_equal(b.grad, lt.tag_count_diff(n_tags, violator, gold))
        assert np.array_equal(trans.a.grad, lt.arc_count_diff(trans, violator, gold, lengths))

    def test_tape_size_does_not_grow_with_sentence_length(self):
        # the conv bank and the BLSTM are one tape node each, so the
        # graph behind a hinge loss has the same nodes for 5 and 60 characters
        model, sents = tiny_model()
        chars = [c for s in sents for c in s.chars]
        assert len(chars) >= 60

        def reachable(root):
            seen, stack = set(), [root]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node._prev)
            return len(seen)

        sizes = []
        for n in (5, 60):
            ids = model.vocab.encode(chars[:n])
            gold = np.arange(n) % model.n_tags
            diff, _, _ = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
            sizes.append(reachable(diff))
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("use_bigram", [False, True])
    def test_hinge_graph_op_nodes_at_published_widths(self, use_bigram):
        # embed (both tables), conv bank, k-max, highway, BLSTM (both
        # directions), the projection, and the hinge: each layer is one node
        sents = toy_corpus(3, seed=3)
        vocab, tagset = cp.build_vocab_and_tagset(sents, use_bigram=use_bigram,
                                                  bigram_min_count=1)
        model = Model(EncoderConfig(use_bigram=use_bigram), vocab, tagset, seed=1)
        ids = model.vocab.encode(sents[0].chars, use_bigram)
        gold = model.tagset.encode(sents[0].tags)
        diff, _, _ = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
        seen, stack, ops = set(), [diff], 0
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops += node._backward is not None
                stack.extend(node._prev)
        assert ops == 7

    def test_full_model_gradient_passes_grad_check(self):
        model, _ = tiny_model(dtype=np.float64)
        randomize_parameters(model)
        # 3 characters against the 12-tag lattice of the toy tag set
        ids = model.vocab.encode(list("abk"))
        gold = model.tagset.encode(cp.parse_tagged_corpus(["ab/NN k/PU"])[0].tags)
        params = [p for _, p in model.parameters()]

        def f():
            diff, _, _ = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
            return diff

        assert ag.grad_check(f, params, eps=1e-5) <= 1e-4

    def test_full_objective_gradient_passes_grad_check(self):
        # data gradient plus the l2 term, checked as one objective
        model, _ = tiny_model(dtype=np.float64)
        randomize_parameters(model, seed=7)
        ids = model.vocab.encode(list("cdek"))
        gold = model.tagset.encode(cp.parse_tagged_corpus(["cde/NN k/PU"])[0].tags)
        params = [p for _, p in model.parameters()]
        l2 = 1e-3

        def f():
            diff, _, _ = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
            return taped_total([diff] + [taped_sum(p, "square", scale=0.5 * l2) for p in params])

        assert ag.grad_check(f, params, eps=1e-5) <= 1e-4


class TestApplyUpdate:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        model, _ = tiny_model()
        cfg = tr.TrainConfig(l2=0.0)
        before = model.snapshot()
        model.zero_grads()
        tr.apply_update(model, cfg, batch_size=4)
        for prev, (_, p) in zip(before, model.parameters()):
            assert np.array_equal(prev, p.data)

    def test_regularizer_rides_along_with_data_gradient(self):
        model, _ = tiny_model()
        cfg = tr.TrainConfig(l2=0.1)
        model.zero_grads()
        tr.apply_update(model, cfg, batch_size=1)
        # objective gradient l2 * theta is applied even with zero data grad,
        # as one single gradient vector (no separate decay pass)
        p = model.named["proj.w"]
        assert p.accumulator.max() > 0.0

    def test_adagrad_normalizes_by_accumulated_square(self):
        p = Parameter(np.array([1.0]), name="w")

        class Stub:
            def parameters(self):
                return [("w", p)]

        cfg = tr.TrainConfig(alpha=0.5, l2=0.0)
        p.grad[:] = 2.0
        tr.apply_update(Stub(), cfg, batch_size=1)
        # first step: acc = 4, step = 0.5 * 2 / sqrt(4 + 1e-6)
        assert p.data[0] == pytest.approx(1.0 - 0.5 * 2 / np.sqrt(4 + 1e-6))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_first_adagrad_step_equals_a_zero_filled_accumulator(self, dtype):
        model, _ = tiny_model(dtype=dtype)
        cfg = tr.TrainConfig(l2=0.01)
        assert all(p.accumulator is None for _, p in model.parameters())
        # the update written out with an eagerly zero-filled accumulator
        data = [p.data.copy() for _, p in model.parameters()]
        acc = [np.zeros_like(d) for d in data]
        rng = np.random.default_rng(31)
        for _ in range(2):    # the first step allocates, the second accumulates
            for i, (_, p) in enumerate(model.parameters()):
                p.grad[...] = rng.standard_normal(p.shape)
                g = p.grad / 3 + cfg.l2 * data[i]
                acc[i] += g * g
                data[i] -= cfg.alpha * g / np.sqrt(acc[i] + tr.ADAGRAD_EPS)
            tr.apply_update(model, cfg, batch_size=3)
            for i, (_, p) in enumerate(model.parameters()):
                assert p.accumulator.dtype == dtype
                assert p.accumulator.tobytes() == acc[i].tobytes()
                assert p.data.tobytes() == data[i].tobytes()

    def test_sgd_allocates_no_accumulator(self):
        model, sents = tiny_model()
        tr.train_epoch(sents, model, tr.TrainConfig(optimizer="sgd", batch_size=4), epoch=1)
        assert all(p.accumulator is None for _, p in model.parameters())

    def test_frozen_embeddings_skip_updates(self):
        model, sents = tiny_model()
        cfg = tr.TrainConfig(l2=0.01, finetune_embeddings=False, batch_size=4, seed=9)
        before = model.named["embed.unigram"].data.copy()
        tr.train_epoch(sents, model, cfg, epoch=1)
        assert np.array_equal(before, model.named["embed.unigram"].data)

    def test_sgd_option(self):
        p = Parameter(np.array([1.0]), name="w")

        class Stub:
            def parameters(self):
                return [("w", p)]

        cfg = tr.TrainConfig(alpha=0.1, l2=0.0, optimizer="sgd")
        p.grad[:] = 3.0
        tr.apply_update(Stub(), cfg, batch_size=1)
        assert p.data[0] == pytest.approx(1.0 - 0.3)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["alpha", "eta", "l2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_rates_must_be_finite_and_in_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            tr.TrainConfig(**{field: value})

    def test_zero_margin_and_l2_allowed(self):
        cfg = tr.TrainConfig(eta=0.0, l2=0.0)
        assert (cfg.eta, cfg.l2) == (0.0, 0.0)
        with pytest.raises(ValueError, match="^alpha"):
            tr.TrainConfig(alpha=0.0)


class TestTrainEpoch:
    def test_small_corpus_is_one_batch(self):
        model, sents = tiny_model()
        cfg = tr.TrainConfig(batch_size=20)
        stats = tr.train_epoch(sents[:3], model, cfg, epoch=1)
        assert stats.epoch == 1
        assert stats.violations <= 3
        assert stats.mean_loss >= 0.0

    def test_numeric_error_names_epoch_batch_and_sentences(self):
        model, sents = tiny_model()
        model.named["proj.w"].data[0, 0] = np.nan
        cfg = tr.TrainConfig(batch_size=4, seed=2)
        with pytest.raises(ag.NumericError) as info:
            tr.train_epoch(sents, model, cfg, epoch=3)
        # the first batch (~40 characters) is one chunk; its sentences are named
        # by corpus index, and the failing op's own message is kept
        first = np.random.default_rng([2, 3]).permutation(len(sents))[:4]
        head, ops_message = str(info.value).split(": ", 1)
        assert head.startswith("epoch 3, batch 0, sentences [")
        assert sorted(int(i) for i in head[head.index("[") + 1:-1].split(", ")) \
            == sorted(first.tolist())
        assert ops_message == "tensor contains NaN/Inf"
        assert isinstance(info.value.__cause__, ag.NumericError)

    def test_memory_is_bounded_by_the_chunk_not_the_batch(self):
        # a training tape peaks at ~11.1 KB per packed character at the published
        # widths; batches of 60 and 100 sentences (~1,480 and ~2,470 characters)
        # each exceed the LOCAL_CHARS cap, and packed as one chunk the larger
        # would raise the traced peak by ~10 MB
        sents = toy_corpus(200, seed=4, min_words=10, max_words=20)
        vocab, tagset = cp.build_vocab_and_tagset(sents)
        peaks = []
        for batch_size in (60, 100):
            assert sum(len(s) for s in sents[:batch_size]) > LOCAL_CHARS
            model = Model(EncoderConfig(), vocab, tagset, seed=1)
            tracemalloc.start()
            try:
                tr.train_epoch(sents, model, tr.TrainConfig(batch_size=batch_size), epoch=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[0] - peaks[1]) < 2 ** 20, peaks

    def test_a_batch_within_the_cap_is_one_chunk(self, monkeypatch):
        # default batches of 20 toy sentences (~500 characters) fit in
        # LOCAL_CHARS: one hinge_loss_graph, so one encoder pass, one
        # loss-augmented Viterbi and one backward(), per batch
        sents = toy_corpus(100, seed=4, min_words=10, max_words=20)
        vocab, tagset = cp.build_vocab_and_tagset(sents)
        model = Model(EncoderConfig(d=8, h=8, feature_map_sets=2, feature_maps=8),
                      vocab, tagset, seed=1)
        cfg = tr.TrainConfig()
        calls, graph = [], tr.hinge_loss_graph

        def counted(model, ids, gold, eta):
            calls.append(len(ids))
            return graph(model, ids, gold, eta)

        monkeypatch.setattr(tr, "hinge_loss_graph", counted)
        tr.train_epoch(sents, model, cfg, epoch=1)
        assert len(calls) == len(sents) // cfg.batch_size
        assert sum(calls) == sum(len(s) for s in sents) and max(calls) <= LOCAL_CHARS

    def test_empty_corpus_rejected(self):
        model, _ = tiny_model()
        with pytest.raises(ValueError, match="empty"):
            tr.train_epoch([], model, tr.TrainConfig(), epoch=1)

    def test_chunk_tape_memory_per_character(self):
        # one packed chunk of about LOCAL_CHARS characters at the published
        # widths: backward() frees the tape as it walks it, so the peak stays
        # near the forward tape and almost nothing is left once it returns. The
        # tape holds ~8.5 KB per character after the forward pass and peaks at
        # ~11.1 KB, with no array on it twice (the LSTM's states only in the
        # BLSTM output, highway's gate without its carry); each LSTM direction
        # keeps tanh(c_t), 0.4 KB per character, for its backward pass
        sents = toy_corpus(60, seed=4, min_words=10, max_words=20)
        vocab, tagset = cp.build_vocab_and_tagset(sents)
        model = Model(EncoderConfig(), vocab, tagset, seed=1)
        chunk = []
        while sum(len(s) for s in chunk) < LOCAL_CHARS - 30:
            chunk.append(sents[len(chunk)])
        ids = CharIds.pack(model.vocab.encode(s.chars) for s in chunk)
        gold = np.concatenate([model.tagset.encode(s.tags) for s in chunk])
        n = len(ids)
        assert LOCAL_CHARS - 30 <= n <= LOCAL_CHARS
        for _ in range(2):      # the first pass warms numpy's caches up
            model.zero_grads()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                diff, losses, _ = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
                assert losses.all()
                diff.backward()
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del diff
        assert (peak - base) / n <= 13.5 * 1024, (peak - base) / n
        assert (held - base) / n <= 512, (held - base) / n

    def test_deterministic_given_seed(self):
        cfg = tr.TrainConfig(seed=7, batch_size=4)
        results = []
        for _ in range(2):
            model, sents = tiny_model(seed=5)
            for epoch in (1, 2):
                tr.train_epoch(sents, model, cfg, epoch)
            results.append(model.snapshot())
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_loss_decreases_on_toy_corpus(self):
        model, _ = tiny_model(seed=2, d=8, h=8, feature_map_sets=2, feature_maps=8)
        sents = toy_corpus(50, seed=11)
        cfg = tr.TrainConfig(seed=3, batch_size=20)
        losses = [tr.train_epoch(sents, model, cfg, epoch=e).mean_loss for e in range(1, 6)]
        assert all(b < a for a, b in zip(losses, losses[1:])), losses


class TestBestEpoch:
    """train() keeps the epoch with the highest dev F1, scripted here."""

    def run(self, monkeypatch, f1s, dev=True):
        model, sents = tiny_model()
        states, scripted, copies = [], iter(f1s), []
        snapshot = Model.snapshot

        def scripted_evaluate(m, dev_sents):
            states.append([p.data.copy() for _, p in m.parameters()])
            return 0.0, 0.0, next(scripted)

        def counted_snapshot(m):
            copies.append(m)
            return snapshot(m)

        monkeypatch.setattr(tr, "evaluate", scripted_evaluate)
        monkeypatch.setattr(Model, "snapshot", counted_snapshot)
        cfg = tr.TrainConfig(max_epochs=len(f1s), batch_size=8, seed=2)
        best = tr.train(sents[:8], model, cfg, dev=sents[8:] if dev else [],
                        log_stream=io.StringIO())
        return model, best, states, len(copies)

    @staticmethod
    def holds(model, state):
        return all(np.array_equal(p.data, s) for (_, p), s in zip(model.parameters(), state))

    def test_single_epoch(self, monkeypatch):
        model, best, states, _ = self.run(monkeypatch, [0.5])
        assert (best.epoch, best.dev_f1) == (1, 0.5)
        assert self.holds(model, states[0])

    def test_tie_keeps_earlier_epoch(self, monkeypatch):
        model, best, states, _ = self.run(monkeypatch, [0.3, 0.8, 0.8])
        assert best.epoch == 2
        assert self.holds(model, states[1]) and not self.holds(model, states[2])

    def test_monotone_improvement_keeps_last(self, monkeypatch):
        model, best, states, _ = self.run(monkeypatch, [0.1, 0.2, 0.9])
        assert best.epoch == 3
        assert self.holds(model, states[2])

    def test_copies_only_an_improving_epoch(self, monkeypatch):
        model, best, states, copies = self.run(monkeypatch, [0.3, 0.8, 0.8, 0.1])
        assert (best.epoch, copies) == (2, 2)
        assert self.holds(model, states[1])

    def test_empty_dev_falls_back_to_final(self, monkeypatch, caplog):
        with caplog.at_level("WARNING"):
            model, best, states, _ = self.run(monkeypatch, [None, None], dev=False)
        assert not states
        assert (best.epoch, best.dev_f1) == (2, None)
        assert self.holds(model, best.state)
        assert "dev" in caplog.text


class TestTrainDriver:
    def test_logs_one_line_per_epoch(self):
        model, sents = tiny_model()
        cfg = tr.TrainConfig(max_epochs=3, batch_size=8, seed=2, dev_fraction=0.2)
        stream = io.StringIO()
        best = tr.train(sents, model, cfg, log_stream=stream)
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 3
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 7
            int(fields[0])
            [float(x) for x in fields[1:]]
        assert 1 <= best.epoch <= 3

    def test_explicit_dev_set(self):
        model, sents = tiny_model()
        cfg = tr.TrainConfig(max_epochs=2, batch_size=8, seed=2)
        best = tr.train(sents[:8], model, cfg, dev=sents[8:], log_stream=io.StringIO())
        assert best.dev_f1 is not None
