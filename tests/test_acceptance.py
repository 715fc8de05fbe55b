"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances and runtime bounds are pinned here, not configurable.
"""
import itertools
import time

import numpy as np
import pytest

from segtag import autograd as ag
from segtag import corpus as cp
from segtag import encoder as enc
from segtag import evaluation as ev
from segtag import lattice as lt
from segtag import modelfile as mf
from segtag import training as tr
from segtag.autograd import Parameter, Tensor
from segtag.encoder import EncoderConfig
from segtag.model import Model
from segtag.toydata import toy_corpus
from util import (
    char_id,
    conv_oracle,
    kmax_oracle,
    lstm_oracle,
    randomize_parameters,
    rel_err,
    serialize_corpus,
    topology_config,
    topology_grid,
)


def report(number, ok, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def random_lattice(rng, n, n_tags):
    emis = rng.uniform(-2.0, 2.0, size=(n, n_tags))
    a = Parameter(rng.uniform(-1.0, 1.0, size=(n_tags, n_tags)))
    return lt.TagScoreLattice(emis, lt.TransitionMatrix(a))


def test_acceptance_1_oracle_decoding_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240001)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        n_tags = int(rng.integers(1, 7))
        l = random_lattice(rng, n, n_tags)
        gold = rng.integers(0, n_tags, size=n)
        eta = float(rng.uniform(0.05, 0.5))

        v_path, v_score = lt.viterbi(l)
        b_path, b_score = lt.brute_force_decode(l)
        assert v_path == b_path
        assert abs(v_score - b_score) <= 1e-9

        a_path, a_score = lt.loss_augmented_viterbi(l, gold, eta)
        ba_path, ba_score = lt.brute_force_decode(l, gold, eta)
        assert a_path == ba_path
        assert abs(a_score - ba_score) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    report(1, checked == 200 and elapsed < 10.0,
           f"viterbi == brute force on {checked} lattices in {elapsed:.2f}s (< 10s)")


def test_acceptance_2_gradient_fidelity_all_topologies():
    start = time.perf_counter()
    sents = cp.parse_tagged_corpus(["abc/NN de/VV", "ed/VV cab/NN", "a/NN e/VV"])
    vocab, tagset = cp.build_vocab_and_tagset(sents)
    assert len(tagset) == 8
    gold_sentence = sents[0]
    assert len(gold_sentence) == 5
    worst = {}
    for i, topo in enumerate(topology_grid()):
        cfg = topology_config(d=6, h=5, feature_map_sets=3, feature_maps=4, **topo)
        model = Model(cfg, vocab, tagset, seed=17, dtype=np.float64)
        randomize_parameters(model, seed=1000 + i)
        ids = vocab.encode(gold_sentence.chars)
        gold = tagset.encode(gold_sentence.tags)

        def f():
            diff, _, _ = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
            return diff

        err = ag.grad_check(f, [p for _, p in model.parameters()], eps=1e-5)
        worst[f"{'+'.join(k for k, v in topo.items() if v is True) or 'plain'}/{topo['recurrent']}"] = err
        assert err <= 1e-4, (topo, err)
    elapsed = time.perf_counter() - start
    report(2, elapsed < 60.0,
           f"12 topologies pass grad check, worst rel err {max(worst.values()):.2e}"
           f" in {elapsed:.1f}s (< 60s)")


def test_acceptance_3_layer_oracles():
    rng = np.random.default_rng(20240003)
    worst_conv = worst_lstm = worst_kmax = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        orders = int(rng.integers(1, 4))
        weights = [rng.normal(size=(q * d, int(rng.integers(1, 4))))
                   for q in range(1, orders + 1)]
        biases = [rng.normal(size=w.shape[1]) for w in weights]
        x = rng.normal(size=(n, d))
        out = enc.conv_feature_maps(
            Tensor(x), [(Parameter(w), Parameter(b)) for w, b in zip(weights, biases)])
        worst_conv = max(worst_conv, rel_err(out.data, conv_oracle(x, weights, biases)))

    for _ in range(100):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        h = int(rng.integers(1, 4))
        w = rng.normal(size=(d + h, 4 * h))
        b = rng.normal(size=4 * h)
        x = rng.normal(size=(n, d))
        reverse = bool(rng.integers(0, 2))
        out = enc.lstm_forward(Tensor(x), Parameter(w), Parameter(b),
                               reverse=reverse)
        worst_lstm = max(worst_lstm, rel_err(out.data, lstm_oracle(x, w, b, reverse)))

    for _ in range(100):
        n = int(rng.integers(1, 5))
        width = int(rng.integers(1, 9))
        k = int(rng.integers(1, width + 1))
        z = rng.normal(size=(n, width))
        out = enc.kmax_pool(Tensor(z), k)
        want = np.array([kmax_oracle(row.tolist(), k) for row in z])
        worst_kmax = max(worst_kmax, rel_err(out.data, want))

    ok = worst_conv <= 1e-10 and worst_lstm <= 1e-10 and worst_kmax <= 1e-10
    report(3, ok, "conv/lstm/kmax match scalar references on 100 instances each "
           f"(worst {max(worst_conv, worst_lstm, worst_kmax):.2e} <= 1e-10)")


def test_acceptance_4_hinge_semantics():
    rng = np.random.default_rng(20240004)
    eta = 0.2

    # hinge_loss == 0 exactly when the margin constraint holds for every competitor
    instances = 0
    for case in range(60):
        n = int(rng.integers(1, 5))
        n_tags = 3
        l = random_lattice(rng, n, n_tags)
        gold = rng.integers(0, n_tags, size=n)
        if case % 3 == 0:   # engineer satisfied margins so both sides occur
            l.emissions[np.arange(n), gold] += 5.0
        (loss,), _ = tr.hinge_losses(l, gold, eta)
        gold_score = lt.path_score(l, gold)
        holds = all(
            gold_score >= lt.path_score(l, list(seq))
            + tr.margin_delta(gold, list(seq), eta)
            for seq in itertools.product(range(n_tags), repeat=n)
            if list(seq) != gold.tolist()
        )
        assert loss >= 0.0
        assert (loss == 0.0) == holds, (l.emissions, gold, loss)
        instances += 1

    # margin_delta is exactly eta * hamming for every pair of length <= 6 over 3 tags
    pairs = 0
    for n in range(1, 7):
        seqs = np.array(list(itertools.product(range(3), repeat=n)), dtype=np.intp)
        hamming = (seqs[:, None, :] != seqs[None, :, :]).sum(axis=2)
        for i in range(len(seqs)):
            for j in range(len(seqs)):
                assert tr.margin_delta(seqs[i], seqs[j], eta) == eta * hamming[i, j]
            pairs += len(seqs)
    report(4, True, f"hinge zero-iff-margin on {instances} instances; "
           f"margin_delta == eta x hamming on {pairs} pairs")


def test_acceptance_5_toy_corpus_learnability():
    start = time.perf_counter()
    sents = toy_corpus(50, seed=0)
    assert len({c for s in sents for c in s.chars}) == 12
    vocab, tagset = cp.build_vocab_and_tagset(sents)
    assert len(tagset.pos_labels) == 3
    cfg = EncoderConfig(d=16, h=16, feature_map_sets=3, feature_maps=16)
    model = Model(cfg, vocab, tagset, seed=1)
    train_cfg = tr.TrainConfig()   # published defaults: alpha/eta 0.2, l2 1e-4, batch 20
    best_f1, at_epoch = 0.0, None
    for epoch in range(1, 31):
        tr.train_epoch(sents, model, train_cfg, epoch)
        _, _, f1 = tr.evaluate(model, sents)
        if f1 > best_f1:
            best_f1, at_epoch = f1, epoch
        if f1 >= 0.99:
            break
    elapsed = time.perf_counter() - start
    report(5, best_f1 >= 0.99 and elapsed < 300.0,
           f"train-set joint F1 {best_f1:.4f} >= 0.99 at epoch {at_epoch} "
           f"in {elapsed:.1f}s (< 300s)")


def test_acceptance_6_ablation_ordering():
    train_set = toy_corpus(50, seed=0)
    heldout = toy_corpus(20, seed=100)
    vocab, tagset = cp.build_vocab_and_tagset(train_set)

    def run(topology):
        cfg = topology_config(d=16, h=16, feature_map_sets=3, feature_maps=16, **topology)
        model = Model(cfg, vocab, tagset, seed=1)
        train_cfg = tr.TrainConfig(seed=1)
        for epoch in range(1, 13):
            tr.train_epoch(train_set, model, train_cfg, epoch)
        return tr.evaluate(model, heldout)[2]

    full = run(dict())   # CNN + pooling + highway + BLSTM
    cnn_only = run(dict(stack="conv", recurrent="none"))
    report(6, full >= cnn_only,
           f"held-out F1: full topology {full:.4f} >= CNN-only {cnn_only:.4f}")


def test_acceptance_7_round_trips(tmp_path):
    # corpus parse <-> serialize identity
    sents = toy_corpus(25, seed=7)
    text = serialize_corpus(sents)
    reparsed = cp.parse_tagged_corpus(text.splitlines())
    assert [s.chars for s in reparsed] == [s.chars for s in sents]
    assert [s.tags for s in reparsed] == [s.tags for s in sents]
    assert serialize_corpus(reparsed) == text

    # expand_word <-> decode_tags_to_words identity on gold-constructed spans
    rng = np.random.default_rng(20240007)
    words = [("ab", "NN"), ("cde", "VV"), ("f", "PU"), ("ghij", "NN")]
    for _ in range(50):
        picks = [words[i] for i in rng.integers(0, len(words), size=rng.integers(1, 7))]
        tags, want, pos = [], [], 0
        for w, p in picks:
            tags.extend(cp.expand_word(w, p))
            want.append(ev.WordSpan(pos, pos + len(w), p))
            pos += len(w)
        assert ev.decode_tags_to_words(tags) == want

    # model save/load byte and value identity
    vocab, tagset = cp.build_vocab_and_tagset(sents)
    cfg = EncoderConfig(d=8, h=6, feature_map_sets=2, feature_maps=8)
    model = Model(cfg, vocab, tagset, seed=9)
    p1, p2 = tmp_path / "m1.model", tmp_path / "m2.model"
    mf.save(model, p1)
    loaded = mf.load(p1)
    mf.save(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for (_, a), (_, b) in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data)

    # deterministic retrain identity under a fixed seed
    files = []
    for name in ("r1.model", "r2.model"):
        m = Model(cfg, vocab, tagset, seed=9)
        train_cfg = tr.TrainConfig(seed=9, max_epochs=3, batch_size=10)
        tr.train(sents, m, train_cfg, log_stream=open(tmp_path / "log.txt", "w"))
        path = tmp_path / name
        mf.save(m, path)
        files.append(path.read_bytes())
    assert files[0] == files[1]
    report(7, True, "corpus, span, model-file and deterministic-retrain round trips hold")


def test_acceptance_8_pretrained_embedding_loading(tmp_path):
    sents = toy_corpus(30, seed=3)
    vocab, _ = cp.build_vocab_and_tagset(sents)
    d = 16
    tokens = list("abcde")
    lines = [f"{len(tokens)} {d}"]
    vectors = {}
    for i, tok in enumerate(tokens):
        vec = [round(0.05 * (i + 1) + 0.001 * j, 6) for j in range(d)]
        vectors[tok] = vec
        lines.append(tok + " " + " ".join(str(v) for v in vec))
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    table, stats = cp.load_pretrained_embeddings(
        path, vocab, Parameter(np.zeros((vocab.n_chars, d), dtype=np.float32)))
    assert stats.loaded == 5
    assert stats.coverage == pytest.approx(5 / len(vocab.chars))
    for tok, vec in vectors.items():
        assert np.allclose(table.data[char_id(vocab, tok)], vec, atol=1e-7)

    with pytest.raises(cp.EmbeddingFormatError):
        cp.load_pretrained_embeddings(
            path, vocab, Parameter(np.zeros((vocab.n_chars, 50), dtype=np.float32)))
    report(8, True, f"5 rows initialized, coverage 5/{len(vocab.chars)}, "
           "dimension mismatch rejected")


def test_acceptance_9_eval_arithmetic():
    gold = [[ev.WordSpan(0, 2, "NR"), ev.WordSpan(2, 4, "VV")]]
    pred = [[ev.WordSpan(0, 2, "NR"), ev.WordSpan(2, 3, "VV"), ev.WordSpan(3, 4, "VV")]]
    p, r, f = ev.score_prf(gold, pred, "joint")
    assert p == pytest.approx(1 / 3) and r == pytest.approx(1 / 2)
    assert f == pytest.approx(0.4)

    rng = np.random.default_rng(20240009)
    base = toy_corpus(10, seed=4)
    gold_spans = [ev.decode_tags_to_words(s.tags) for s in base]
    poses = ("NN", "VV", "PU")
    holds = 0
    for _ in range(1000):
        perturbed = []
        for s in base:
            tags = []
            for t in s.tags:
                if rng.random() < 0.15:
                    tags.append(cp.JointTag(cp.SEG_LABELS[rng.integers(0, 4)],
                                            poses[rng.integers(0, 3)]))
                else:
                    tags.append(t)
            perturbed.append(ev.decode_tags_to_words(tags))
        _, _, f_joint = ev.score_prf(gold_spans, perturbed, "joint")
        _, _, f_seg = ev.score_prf(gold_spans, perturbed, "seg")
        assert f_joint <= f_seg + 1e-12
        holds += 1
    report(9, holds == 1000,
           "P=1/3, R=1/2, F=0.4 worked example and joint<=seg on 1000 perturbations")
