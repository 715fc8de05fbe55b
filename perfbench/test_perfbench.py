"""Tests of the benchmark's own code: seeded generators and the tracer."""
import gc
import time

import numpy as np
import pytest

import spans
import workloads as wl
from segtag import corpus as cp
from segtag import training as tr
from segtag.encoder import EncoderConfig
from segtag.model import Model


def test_generators_are_deterministic_per_seed():
    assert wl.toy_sentences(20, 3) == wl.toy_sentences(20, 3)
    assert wl.toy_sentences(20, 3) != wl.toy_sentences(20, 4)
    assert wl.wide_sentences(5, 3) == wl.wide_sentences(5, 3)
    assert wl.wide_sentences(5, 3) != wl.wide_sentences(5, 4)
    (inv_a, probs_a), (inv_b, probs_b) = wl.wide_language(), wl.wide_language()
    assert inv_a == inv_b and np.array_equal(probs_a, probs_b)


def test_wide_language_is_unambiguous():
    inventory, probs = wl.wide_language()
    chars = [c for word, _ in inventory for c in word]
    assert len(chars) == len(set(chars)) == wl.WIDE_CHARS
    assert {pos for _, pos in inventory} == set(wl.WIDE_POS)
    assert probs.sum() == pytest.approx(1.0)
    for sentence in wl.wide_sentences(10, 0):
        assert 150 <= wl.n_chars([sentence]) <= 250 + max(wl.WIDE_WORD_LENGTHS) - 1


def test_written_files_parse_back(tmp_path):
    sentences = wl.wide_sentences(3, 1) + wl.toy_sentences(3, 1)
    wl.write_gold(tmp_path / "gold", sentences)
    wl.write_raw(tmp_path / "raw", sentences)
    with open(tmp_path / "gold", encoding="utf-8") as f:
        parsed = cp.parse_tagged_corpus(f)
    raw = (tmp_path / "raw").read_text(encoding="utf-8").splitlines()
    assert [len(s) for s in parsed] == [wl.n_chars([s]) for s in sentences]
    assert ["".join(s.chars) for s in parsed] == raw


def _targets():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.targets()]


def test_wrappers_are_restored_even_after_an_error():
    before = _targets()
    init = spans.ag.Tensor.__dict__["__init__"]
    callbacks = list(gc.callbacks)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
            raise RuntimeError
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
    assert spans.ag.Tensor.__dict__["__init__"] is init
    assert callbacks == gc.callbacks


def test_self_times_sum_to_at_most_the_wall_time():
    sentences = [cp.Sentence(list("".join(w for w, _ in s)),
                             [t for w, p in s for t in cp.expand_word(w, p)])
                 for s in wl.toy_sentences(6, 0, 3, 5)]
    vocab, tagset = cp.build_vocab_and_tagset(sentences)
    model = Model(EncoderConfig(d=4, h=4, feature_map_sets=2, feature_maps=4), vocab, tagset)
    tracer = spans.Tracer()
    start = time.perf_counter()
    with tracer.installed():
        tr.train_epoch(sentences, model, tr.TrainConfig(batch_size=3), epoch=1)
        tr.evaluate(model, sentences)
        gc.collect()
    wall = time.perf_counter() - start
    own = tracer.self_times()
    assert sum(own.values()) <= wall
    assert min(own.values()) >= -1e-9
    for name in ("encoder.lstm", "lattice.viterbi", "lattice.loss_aug_viterbi",
                 "autograd.backward", "training.update", "evaluation.decode", "python.gc"):
        assert own[name] > 0, name
    assert len(tracer.durations("training.update")) == 2
    assert tracer.tensors > 0
    assert all(parent < i for i, (*_, parent) in enumerate(tracer.spans))
    assert np.all([end >= start for _, start, end, _ in tracer.spans])
