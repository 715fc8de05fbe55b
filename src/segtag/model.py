"""The full joint model: vocabulary, tag set, encoder stack, tag projection
and transition matrix, with deterministic seeded initialization."""
from __future__ import annotations

import math

import numpy as np

from . import autograd as ag
from . import encoder as enc
from . import lattice as lt

# Characters per packed chunk. Larger chunks make each LSTM and Viterbi step
# a bigger GEMM but need more memory per chunk.
#
# Every call of the position-local stack (embedding, conv bank, k-max,
# highway), taped or not, runs over whole sentences of at most LOCAL_CHARS
# characters; its peak, the conv bank's window beside its maps, grows with
# the run. Training packs each batch into chunks of at most LOCAL_CHARS
# characters, so a default batch of toy sentences (~520 characters) is one
# chunk: one encoder pass, one loss-augmented Viterbi and one backward(). At
# the published widths (tracemalloc, float32) a training chunk's tape holds
# ~8.5 KB per character after its forward pass, the LSTM's tanh(c_t)
# included, and peaks at ~11.1 KB per character during backward(), which
# releases it as it goes (one 1,013-character chunk).
#
# Tagging keeps no tape (autograd.no_grad()) and runs a chunk in two halves
# (Model.lattice): the local stack once per run of LOCAL_CHARS characters,
# then the BLSTM, the tag projection and one Viterbi once over the whole
# chunk. An untaped LSTM direction holds a row block of gates and two c and
# two h slot rows per sentence, so the arrays that grow with the chunk are
# the local stack's output, the BLSTM states, two copies of the tag scores
# and those slot rows: a chunk holds as many characters as TAG_CHUNK_BYTES of
# the first three (Model.tag_chunk_chars) and, with a recurrent layer, as
# many sentences as TAG_CHUNK_BYTES of slot rows (Model.tag_chunk_sentences).
# At the published widths that is 2,870 characters at 12 tags, where a whole
# chunk of toy sentences peaks at 1.45 KB per character, 4.2 MB
# (test_tagging_chunk_peak_memory_per_character), 1,554 at 128 tags, and
# 1,966 sentences (test_many_short_lines_peak_memory). A sentence longer than
# a chunk is a chunk alone, and one longer than LOCAL_CHARS a run alone, at
# ~3.4 KB per character (test_long_line_peak_memory_per_character).
LOCAL_CHARS = 1024
TAG_CHUNK_BYTES = 3 * 1024 * 1024


def runs(lengths, cap, most=math.inf):
    """(first, last) of each run of consecutive sentences, in order, holding at
    most `cap` characters and `most` sentences; a sentence longer than `cap`
    is a run alone."""
    first, size = 0, 0
    for k, n in enumerate(lengths):
        if k > first and (size + n > cap or k - first >= most):
            yield first, k
            first, size = k, 0
        size += n
    if lengths:
        yield first, len(lengths)


def length_chunks(lengths, cap, most=math.inf):
    """Indices of the sentences sorted by length (stable), cut into runs of
    at most `cap` characters and `most` sentences; a sentence longer than
    `cap` is a run alone."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    for first, last in runs([lengths[i] for i in order], cap, most):
        yield order[first:last]


class Model:
    """Everything needed to score and decode sentences.

    The parameters follow ``encoder.parameter_manifest``: drawn from `seed`
    in its order, so equal seeds give bit-identical models, or taken over
    with no draw from `state`, arrays in that order as snapshot() returns
    them (not copied when already of dtype). A state array holding NaN/Inf
    is refused with a NumericError that names its parameter.
    """

    def __init__(self, cfg, vocab, tagset, seed=1, dtype=np.float32,
                 constrain_transitions=False, normalize_width=False, state=None):
        self.cfg = cfg
        self.vocab = vocab
        self.tagset = tagset
        self.constrained = bool(constrain_transitions)
        # True when the vocabulary was built from width-folded text
        # (corpus.fold_width); `segtag tag` and `eval` then fold their input too
        self.normalize_width = bool(normalize_width)
        self.dtype = np.dtype(dtype)
        manifest = enc.parameter_manifest(cfg, vocab.n_chars, vocab.n_bigrams, len(tagset))
        if state is None:
            state = enc.draw_parameters(manifest, np.random.default_rng(seed), self.dtype)
        else:
            state = _check_state(manifest, state, self.dtype)
        self.named = enc.named_parameters(manifest, state, self.dtype)
        mask = lt.bmes_transition_mask(tagset) if constrain_transitions else None
        self.trans = lt.TransitionMatrix(self.named["trans.a"], mask)

    @property
    def n_tags(self):
        return len(self.tagset)

    def parameters(self):
        """Ordered (name, Parameter) pairs covering every trainable tensor."""
        return list(self.named.items())

    def zero_grads(self):
        for _, p in self.parameters():
            p.zero_grad()

    def hidden(self, ids):
        """Encoder output tensor for the sentence(s) in ids, attached to the
        autograd tape unless built under autograd.no_grad()."""
        return enc.encode(ids, self.named, self.cfg)

    def emissions(self, ids):
        """Per-position tag scores as lattice.emission_scores gives them: the
        unbiased tensor, attached to the tape as hidden() is, and the array."""
        return lt.emission_scores(self.hidden(ids), self.named["proj.w"], self.named["proj.b"])

    def lattice(self, ids):
        """Decoding-ready lattice of the emission scores, detached from any
        tape, so the encoder's forward caches are freed before decoding.

        The position-local half of the encoder runs once per run of whole
        sentences of at most LOCAL_CHARS characters; the recurrent half
        and the projection run once over all of ids.
        """
        feats = np.empty((len(ids), self.cfg.d_pool), dtype=self.dtype)
        for first, last in runs(ids.lengths.tolist(), LOCAL_CHARS):
            rows, part = ids.sentences(first, last)
            feats[rows] = enc.encode_local(part, self.named, self.cfg).data
        hidden = enc.encode_recurrent(ag.Tensor(feats), self.named, self.cfg, ids.lengths)
        del feats   # under no_grad() no tape node holds it: freed here
        scores = lt.emission_scores(hidden, self.named["proj.w"], self.named["proj.b"])[1]
        return lt.TagScoreLattice(scores, self.trans, ids.lengths)

    @property
    def tag_chunk_chars(self):
        """Characters per tagging chunk: TAG_CHUNK_BYTES over the bytes of
        each character's rows that live as long as the chunk (the local
        stack's output, the encoder's output and two rows of tag scores), and
        never fewer than LOCAL_CHARS."""
        width = self.cfg.d_pool + self.cfg.d_out + 2 * self.n_tags
        return max(LOCAL_CHARS, TAG_CHUNK_BYTES // (width * self.dtype.itemsize))

    @property
    def tag_chunk_sentences(self):
        """Sentences per tagging chunk: TAG_CHUNK_BYTES over the two c and two
        h slot rows an untaped LSTM direction holds per sentence; unbounded
        without a recurrent layer."""
        if self.cfg.recurrent == "none":
            return math.inf
        return TAG_CHUNK_BYTES // (4 * self.cfg.h * self.dtype.itemsize)

    def chunks(self, sentences, cap, most=math.inf):
        """(indices, packed CharIds) of each chunk of raw character sequences:
        the sentences sorted by length and cut by length_chunks at `cap`
        characters and `most` sentences, each chunk's sentences encoded and
        packed end to end."""
        for chunk in length_chunks([len(s) for s in sentences], cap, most):
            yield chunk, enc.CharIds.pack(
                self.vocab.encode(sentences[i], self.cfg.use_bigram) for i in chunk)

    def tagged(self, sentences):
        """(index, tag-index path) of each raw character sequence, chunk by chunk.

        Each chunk of at most tag_chunk_chars characters and
        tag_chunk_sentences sentences runs once through lattice(), with no
        tape, and one batched Viterbi; each sentence is still decoded on its
        own. A sentence longer than the cap is a chunk by itself, so its chunk
        exceeds the cap. The paths come in chunk order, not input order.
        """
        for chunk, ids in self.chunks(sentences, self.tag_chunk_chars,
                                      self.tag_chunk_sentences):
            # no_grad() is a context variable: left open across the yield, it
            # would turn the tape off for the caller too
            with ag.no_grad():
                path, _ = lt.viterbi(self.lattice(ids))
            ends = np.cumsum(ids.lengths).tolist()
            yield from zip(chunk, (path[lo:hi] for lo, hi in zip([0] + ends, ends)))

    def tag_batch(self, sentences):
        """Viterbi-decode raw character sequences into joint tag lists."""
        tags = [None] * len(sentences)
        for i, path in self.tagged(sentences):
            tags[i] = self.tagset.decode(path)
        return tags

    def tag_ids(self, chars):
        """Viterbi-decode one raw character sequence into tag indices."""
        (_, path), = self.tagged([chars])
        return path

    def tag_chars(self, chars):
        return self.tag_batch([chars])[0]

    def snapshot(self):
        return [p.data.copy() for _, p in self.parameters()]

    def load_state(self, state):
        state = _check_state([(n, p.shape) for n, p in self.parameters()], state, self.dtype)
        for p, value in zip(self.named.values(), state):
            p.data[...] = value


def _check_state(manifest, state, dtype):
    """The state's arrays as dtype. Raise ValueError unless it holds one
    array of each manifest shape, and NumericError, naming the parameter,
    when one holds NaN/Inf (a value past dtype's range included)."""
    if len(state) != len(manifest):
        raise ValueError(f"snapshot holds {len(state)} tensors, model has {len(manifest)}")
    arrays = []
    for (name, shape), value in zip(manifest, state):
        if np.shape(value) != shape:
            raise ValueError(f"{name}: snapshot shape {np.shape(value)} != {shape}")
        with np.errstate(over="ignore"):    # overflows to inf, refused next
            value = np.asarray(value, dtype=dtype)
        if not np.isfinite(value).all():
            raise ag.NumericError(f"parameter {name!r} holds NaN/Inf")
        arrays.append(value)
    return arrays
