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
from segtag.model import Model
from segtag.toydata import toy_corpus
from util import randomize_parameters


def tiny_model(seed=1, dtype=np.float32, **cfg_kwargs):
    defaults = dict(d=6, h=5, feature_map_sets=2, feature_maps=6)
    defaults.update(cfg_kwargs)
    cfg = EncoderConfig(**defaults)
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
        loss, violator = tr.hinge_loss(l, [0, 0], eta=0.2)
        assert loss == 0.0
        assert violator == [0, 0]

    def test_tied_emissions_pay_the_margin(self):
        l = self.make([[0.0, 0.0]])
        loss, violator = tr.hinge_loss(l, [0], eta=0.2)
        assert loss == pytest.approx(0.2)
        assert violator == [1]

    def test_tied_competitor_at_zero_loss_leaves_gold_as_the_violator(self):
        # the decoder breaks the tie towards tag 0, but the margin holds, so
        # the violator is gold itself and cancels in hinge_loss_graph
        l = self.make([[0.0, 0.0]])
        loss, violator = tr.hinge_loss(l, [1], eta=0.0)
        assert loss == 0.0
        assert violator == [1]

    def test_packed_lattice_gives_one_loss_per_sentence(self):
        l = self.make([[10.0, 0.0], [0.0, 0.0], [0.0, 3.0]], lengths=[1, 2])
        losses, violator = tr.hinge_losses(l, [0, 0, 1], eta=0.2)
        # sentence 1 holds; sentence 2 pays 0.2 at position 0 (tied emissions)
        assert losses.tolist() == pytest.approx([0.0, 0.2])
        assert violator == [0, 1, 1]
        assert tr.hinge_loss(l, [0, 0, 1], eta=0.2)[0] == pytest.approx(0.2)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(1100 + seed)
        n, n_tags = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        l = self.make(rng.uniform(-2, 2, size=(n, n_tags)),
                      rng.uniform(-1, 1, size=(n_tags, n_tags)))
        gold = rng.integers(0, n_tags, size=n)
        eta = float(rng.uniform(0.0, 0.5))
        loss, _ = tr.hinge_loss(l, gold, eta)
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
            loss, _ = tr.hinge_loss(l, gold, eta)
            gold_score = lt.path_score(l, gold)
            holds = all(
                gold_score >= lt.path_score(l, list(seq))
                + eta * sum(a != b for a, b in zip(seq, gold)) - 1e-12
                for seq in itertools.product(range(n_tags), repeat=n)
            )
            assert (loss == 0.0) == holds


class TestObjective:
    def test_worked_example(self):
        # one sentence with loss 0.5, l2 = 1e-4, squared norm 100
        p = Parameter(np.full(4, 5.0), name="w")
        assert tr.objective([0.5], [("w", p)], 1e-4) == pytest.approx(0.505)

    def test_no_regularizer_is_mean(self):
        assert tr.objective([1.0, 3.0], [], 0.0) == pytest.approx(2.0)

    def test_all_zero(self):
        p = Parameter(np.zeros(3), name="w")
        assert tr.objective([0.0, 0.0], [("w", p)], 1e-4) == 0.0


class TestBackpropMargin:
    """The hinge graph and the subgradient its backward() accumulates."""

    def test_zero_loss_means_zero_data_gradient(self):
        model, _ = tiny_model(dtype=np.float64)
        ids = model.vocab.encode(["f"])
        # single position: boosting the gold tag's bias makes it dominate
        lat_obj, _ = model.lattice(ids)
        gold = np.asarray(lt.viterbi(lat_obj)[0])
        model.proj.b.data[gold[0]] += 50.0
        diff, (loss,), violator = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
        assert loss == 0.0
        assert violator == gold.tolist()
        # gold is its own violator, so even a backward pass accumulates nothing
        diff.backward()
        for _, p in model.parameters():
            assert not np.any(p.grad)

    def test_pad_embedding_rows_never_receive_gradient(self):
        # the pad slot is only reachable through boundary bigram keys, so the
        # pad rows themselves stay untouched by any sentence
        model, sents = tiny_model(use_bigram=True, feature_maps=12)
        model.zero_grads()
        ids = CharIds.pack(model.vocab.encode(s.chars, use_bigram=True) for s in sents)
        gold = np.concatenate([model.tagset.encode(s.tags) for s in sents])
        diff, losses, _ = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
        assert losses.any()
        diff.backward()
        table = model.encoder.table
        assert not np.any(table.unigram.grad[cp.Vocab.PAD])
        assert not np.any(table.bigram.grad[cp.Vocab.PAD])
        assert np.any(table.unigram.grad)  # real rows did move

    def test_shared_prefix_transition_gradients_cancel(self):
        # gold and violator both open with the arc 0->1, which nets to zero;
        # a stub encoder hands the hinge fixed tag scores through an identity
        # projection, so the margin picks the violator [0, 1, 1]
        hidden = Parameter(np.array([[1.0, 0.0], [0.0, 5.0], [0.0, 0.0]]))
        a = Parameter(np.zeros((2, 2)))
        model = SimpleNamespace(
            hidden=lambda ids: hidden,
            proj=lt.ProjectionParams(Parameter(np.eye(2)), Parameter(np.zeros(2))),
            trans=lt.TransitionMatrix(a))
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
        assert model.proj.b.grad.tolist() == [-1.0, 1.0]

    def test_tape_size_does_not_grow_with_sentence_length(self):
        # the conv bank and each LSTM direction are one tape node each, so the
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

    def test_hinge_graph_op_nodes_at_published_widths(self):
        # embed, conv bank, k-max, highway, two LSTM directions and their concat,
        # the projection, and six for the hinge sum: each layer is one node
        sents = toy_corpus(3, seed=3)
        vocab, tagset = cp.build_vocab_and_tagset(sents)
        model = Model(EncoderConfig(), vocab, tagset, seed=1)
        ids = model.vocab.encode(sents[0].chars)
        gold = model.tagset.encode(sents[0].tags)
        diff, _, _ = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
        seen, stack, ops = set(), [diff], 0
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                ops += node._backward is not None
                stack.extend(node._prev)
        assert ops == 14

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
            reg = None
            for p in params:
                term = ag.sum_all(p * p)
                reg = term if reg is None else reg + term
            return diff + 0.5 * l2 * reg

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
        p = model.proj.w
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

    def test_frozen_embeddings_skip_updates(self):
        model, sents = tiny_model()
        cfg = tr.TrainConfig(l2=0.01, finetune_embeddings=False, batch_size=4, seed=9)
        before = model.encoder.table.unigram.data.copy()
        tr.train_epoch(sents, model, cfg, epoch=1)
        assert np.array_equal(before, model.encoder.table.unigram.data)

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
        model.proj.w.data[0, 0] = np.nan
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
        # a training tape holds ~35 KB per packed character at the published
        # widths; a batch of 100 sentences (~2,600 characters) packed as one
        # chunk would raise the traced peak by tens of MB
        sents = toy_corpus(100, seed=4, min_words=10, max_words=20)
        vocab, tagset = cp.build_vocab_and_tagset(sents)
        peaks = []
        for batch_size in (20, 100):
            model = Model(EncoderConfig(), vocab, tagset, seed=1)
            tracemalloc.start()
            try:
                tr.train_epoch(sents, model, tr.TrainConfig(batch_size=batch_size), epoch=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[0] - peaks[1]) < 2 ** 20, peaks

    def test_empty_corpus_rejected(self):
        model, _ = tiny_model()
        with pytest.raises(ValueError, match="empty"):
            tr.train_epoch([], model, tr.TrainConfig(), epoch=1)

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


class TestSelectBest:
    def snapshots(self, model, f1s):
        return [tr.Snapshot(epoch=i + 1, state=model.snapshot(), dev_f1=f)
                for i, f in enumerate(f1s)]

    def test_single_snapshot(self):
        model, sents = tiny_model()
        snaps = self.snapshots(model, [0.5])
        assert tr.select_best(snaps, sents[:2], model) is snaps[0]

    def test_tie_keeps_earlier_epoch(self):
        model, sents = tiny_model()
        snaps = self.snapshots(model, [0.3, 0.8, 0.8])
        assert tr.select_best(snaps, sents[:2], model).epoch == 2

    def test_monotone_improvement_keeps_last(self):
        model, sents = tiny_model()
        snaps = self.snapshots(model, [0.1, 0.2, 0.9])
        assert tr.select_best(snaps, sents[:2], model).epoch == 3

    def test_empty_dev_falls_back_to_final(self, caplog):
        model, _ = tiny_model()
        snaps = self.snapshots(model, [None, None])
        with caplog.at_level("WARNING"):
            best = tr.select_best(snaps, [], model)
        assert best.epoch == 2
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
