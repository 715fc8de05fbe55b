"""Shared test helpers and independent scalar reference implementations.

The oracles here deliberately avoid the library's own code paths: plain
python loops and math functions only, so they stay meaningful as
cross-checks for the vectorized implementations.
"""
import contextlib
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from segtag import autograd as ag
from segtag import corpus as cp
from segtag import encoder as enc
from segtag import evaluation as ev
from segtag import lattice as lt
from segtag import model as md

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def benchmark_workloads():
    """perfbench/workloads.py, which writes the benchmark's gold files."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def small_tagging_caps(model, local_chars, chunk_chars):
    """model.tag_chunk_chars at chunk_chars and the local stack's runs at
    local_chars, by the constants they are computed from. Every model of
    model's widths and dtype, such as the one a command loads, tags in
    chunks of that size while the patch holds."""
    width = model.cfg.d_pool + model.cfg.d_out + 2 * model.n_tags
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(md, "LOCAL_CHARS", local_chars)
        mp.setattr(md, "TAG_CHUNK_BYTES", chunk_chars * width * model.dtype.itemsize)
        assert model.tag_chunk_chars == chunk_chars
        yield


def format_tags(chars, tags):
    """corpus.format_words of characters and their joint tags, given as a
    path over the distinct tags in the order they first occur."""
    alphabet = list(dict.fromkeys(tags))
    index = {t: i for i, t in enumerate(alphabet)}
    return cp.format_words(chars, [index[t] for t in tags], ev.word_rule(alphabet))


def format_sentence(sentence):
    """Render a gold-tagged sentence back to one "word/POS ..." line."""
    return format_tags(sentence.chars, sentence.tags)


def serialize_corpus(sentences):
    """A corpus file's text: one format_sentence line per sentence."""
    return "\n".join(format_sentence(s) for s in sentences) + "\n"


def char_id(vocab, c):
    """The vocabulary index of character c; UNK when it is not in vocab."""
    return vocab.char_to_id.get(c, vocab.UNK)


def bigram_id(vocab, a, b):
    """The vocabulary index of the bigram (a, b); UNK when it is not in vocab."""
    return vocab.bigram_to_id.get((a, b), vocab.UNK)


def taped_sum(x, act=None, scale=1.0):
    """Scalar root scale * sum(act(x)) on the tape, act None, "tanh" or
    "square": what grad checks and backward() tests reduce a tensor to.

    Its gradient is bitwise what the same sum built from elementwise ops
    (sum, tanh, x * x, times a constant) would give x.
    """
    if act == "tanh":
        y = np.tanh(x.data)
        dy = 1.0 - y * y
    elif act == "square":
        y = x.data * x.data
        dy = 2.0 * x.data
    else:
        y = x.data
        dy = np.ones_like(y)
    out = ag.Tensor(scale * y.sum())
    return ag._record("taped_sum", out, (x,), lambda grad: ag._accum(x, (grad * scale) * dy))


def taped_total(terms):
    """Scalar root: the sum of scalar tensors, on the tape, each term getting
    the root's gradient."""
    terms = tuple(terms)
    out = ag.Tensor(sum(t.data for t in terms))

    def _back(grad):
        for t in terms:
            ag._accum(t, grad)

    return ag._record("taped_total", out, terms, _back)


def projection_model(hidden, w, b, trans):
    """What training.hinge_loss_graph reads of a Model, with the encoder
    output fixed to `hidden`: tag scores hidden @ w (+ b in the lattice)."""
    return SimpleNamespace(emissions=lambda ids: lt.emission_scores(hidden, w, b),
                           named={"proj.w": w, "proj.b": b}, trans=trans)


def init_encoder_params(cfg, n_unigrams, n_bigrams, rng, dtype=np.float32):
    """The encoder's name -> Parameter map, drawn from rng as a Model draws
    its own."""
    manifest = enc.parameter_manifest(cfg, n_unigrams, n_bigrams)
    arrays = enc.draw_parameters(manifest, rng, dtype)
    return enc.named_parameters(manifest, arrays, dtype)


def randomize_parameters(model, seed=42, scale=0.5):
    """Overwrite every parameter with moderate-scale uniform noise.

    The default initialization keeps embeddings near zero, which leaves some
    weight gradients around 1e-7 where double-precision finite differences
    are all noise; verification runs re-draw at a scale that keeps
    activations (and hence gradients) well away from the noise floor.
    """
    rng = np.random.default_rng(seed)
    for _, p in model.parameters():
        p.data[...] = rng.uniform(-scale, scale, size=p.data.shape)
    return model


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


def topology_grid(mlp=False):
    """The 12 ablation topologies: feature stack depth x recurrent flavor;
    with mlp, the window-3 MLP baseline too, for all 13 valid ones."""
    grid = [dict(stack=s, recurrent=r) for s in enc.STACKS[:4] for r in ("none", "lstm", "blstm")]
    return grid + [dict(stack="mlp", recurrent="none", window=3)] if mlp else grid


def topology_config(**fields):
    """EncoderConfig(**fields) with each width the topology (stack,
    recurrent) does not read left out, by encoder.unread_widths, so that one
    set of widths serves every topology."""
    unread = enc.unread_widths(fields.get("stack", enc.EncoderConfig.stack),
                               fields.get("recurrent"))
    return enc.EncoderConfig(**{k: v for k, v in fields.items() if k not in unread})


def bmes_mask_oracle(tags):
    """The forbidden-transition mask of lattice.bmes_transition_mask, tag
    pair by tag pair: after B-x or M-x only M-x or E-x, after E or S only B
    or S."""
    n = len(tags)
    mask = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(tags):
        for j, b in enumerate(tags):
            if a.seg in ("B", "M"):
                ok = b.seg in ("M", "E") and b.pos == a.pos
            else:
                ok = b.seg in ("B", "S")
            mask[i, j] = not ok
    return mask


def decode_oracle(tags):
    """The spans of evaluation.decode_tags_to_words, from a two-state
    machine: S emits a singleton, B (or a stray M) opens a word that M of
    its POS continues and E of its POS closes; any other tag closes the open
    word at the previous character, and a stray E is a singleton. A span's
    POS is its last character's."""
    spans = []
    open_start = open_pos = None
    for i, tag in enumerate(tags):
        if open_start is not None:
            if tag.seg == "M" and tag.pos == open_pos:
                continue
            if tag.seg == "E" and tag.pos == open_pos:
                spans.append((open_start, i + 1, tag.pos))
                open_start = None
                continue
            spans.append((open_start, i, tags[i - 1].pos))
            open_start = None
        if tag.seg in ("S", "E"):
            spans.append((i, i + 1, tag.pos))
        else:
            open_start, open_pos = i, tag.pos
    if open_start is not None:
        spans.append((open_start, len(tags), tags[-1].pos))
    return spans


def sigmoid_scalar(z):
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def conv_oracle(x, weights, biases):
    """Wide convolution computed position by position with explicit loops."""
    n, d = x.shape
    cols = []
    for q, (w, b) in enumerate(zip(weights, biases), start=1):
        left, right = (q - 1) // 2, q // 2
        l_q = w.shape[1]
        block = np.zeros((n, l_q))
        for i in range(n):
            window = []
            for t in range(i - left, i + right + 1):
                window.extend(x[t] if 0 <= t < n else np.zeros(d))
            window = np.asarray(window)
            for j in range(l_q):
                s = b[j]
                for k in range(len(window)):
                    s += w[k, j] * window[k]
                block[i, j] = math.tanh(s)
        cols.append(block)
    return np.concatenate(cols, axis=1)


def kmax_oracle(row, k):
    """Keep the k largest entries of a row in original order, lower index wins ties."""
    ranked = sorted(range(len(row)), key=lambda i: (-row[i], i))[:k]
    return [row[i] for i in sorted(ranked)]


def lstm_step_oracle(x_t, h_prev, c_prev, w, b):
    """One LSTM step from the gate equations, scalar arithmetic only."""
    h = len(h_prev)
    xh = list(x_t) + list(h_prev)
    s = []
    for j in range(4 * h):
        acc = b[j]
        for k in range(len(xh)):
            acc += w[k, j] * xh[k]
        s.append(acc)
    gate_i = [sigmoid_scalar(v) for v in s[0:h]]
    gate_o = [sigmoid_scalar(v) for v in s[h:2 * h]]
    gate_f = [sigmoid_scalar(v) for v in s[2 * h:3 * h]]
    c_hat = [math.tanh(v) for v in s[3 * h:4 * h]]
    c_t = [c_prev[j] * gate_f[j] + c_hat[j] * gate_i[j] for j in range(h)]
    h_t = [gate_o[j] * math.tanh(c_t[j]) for j in range(h)]
    return h_t, c_t


def lstm_oracle(x, w, b, reverse=False):
    n = x.shape[0]
    h = b.shape[0] // 4
    out = [None] * n
    h_prev, c_prev = [0.0] * h, [0.0] * h
    order = range(n - 1, -1, -1) if reverse else range(n)
    for t in order:
        h_prev, c_prev = lstm_step_oracle(x[t], h_prev, c_prev, w, b)
        out[t] = h_prev
    return np.asarray(out)
