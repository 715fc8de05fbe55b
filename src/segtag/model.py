"""The full joint model: vocabulary, tag set, encoder stack, tag projection
and transition matrix, with deterministic seeded initialization."""
from __future__ import annotations

import numpy as np

from . import encoder as enc
from . import lattice as lt
from .autograd import Parameter

# Characters per tagging chunk. Larger chunks make each LSTM and Viterbi step
# a bigger GEMM but raise peak memory; 256 keeps the tagging process's peak
# RSS within ~1 MB of one-sentence tagging.
TAG_CHUNK_CHARS = 256
# Characters per training chunk. A training tape holds ~35 KB per character at
# the published widths (tracemalloc peak of one chunk's forward and backward:
# 4.0 MB at 112 characters, 9.1 MB at 247), so training packs half as much.
TRAIN_CHUNK_CHARS = 128


def length_chunks(lengths, cap):
    """Indices of the sentences sorted by length (stable), cut into runs of
    at most `cap` characters; a sentence longer than `cap` is a run alone."""
    chunk, size = [], 0
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunk and size + lengths[i] > cap:
            yield chunk
            chunk, size = [], 0
        chunk.append(i)
        size += lengths[i]
    if chunk:
        yield chunk


class Model:
    """Everything needed to score and decode sentences.

    Parameter allocation order is fixed (embeddings, conv filters, highway,
    LSTM directions, MLP, projection, transitions) so that equal seeds give
    bit-identical models and serialization has a stable manifest.
    """

    def __init__(self, cfg, vocab, tagset, seed=1, dtype=np.float32,
                 constrain_transitions=False, normalize_width=False):
        self.cfg = cfg
        self.vocab = vocab
        self.tagset = tagset
        self.constrained = bool(constrain_transitions)
        # True when the vocabulary was built from width-folded text
        # (corpus.fold_width); `segtag tag` and `eval` then fold their input too
        self.normalize_width = bool(normalize_width)
        self.train_cfg = None   # optional TrainConfig snapshot, kept for serialization
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.encoder = enc.init_encoder_params(
            cfg, vocab.n_chars, vocab.n_bigrams if cfg.use_bigram else 0, rng, self.dtype)
        n_tags = len(tagset)
        self.proj = lt.ProjectionParams(
            w=Parameter(enc.glorot(rng, cfg.d_out, n_tags, self.dtype), name="proj.w"),
            b=Parameter(np.zeros(n_tags, dtype=self.dtype), name="proj.b"),
        )
        mask = lt.bmes_transition_mask(tagset) if constrain_transitions else None
        self.trans = lt.TransitionMatrix(
            Parameter(enc.glorot(rng, n_tags, n_tags, self.dtype), name="trans.a"), mask)

    @property
    def n_tags(self):
        return len(self.tagset)

    def parameters(self):
        """Ordered (name, Parameter) pairs covering every trainable tensor."""
        return self.encoder.parameters() + [
            ("proj.w", self.proj.w),
            ("proj.b", self.proj.b),
            ("trans.a", self.trans.a),
        ]

    def zero_grads(self):
        for _, p in self.parameters():
            p.zero_grad()

    def hidden(self, ids):
        """Encoder output tensor for the sentence(s) in ids, attached to the autograd tape."""
        return enc.encode(ids, self.encoder, self.cfg)

    def emissions(self, ids):
        """Per-position tag score tensor, still attached to the autograd tape."""
        return lt.emission_scores(self.hidden(ids), self.proj)

    def lattice(self, ids):
        """Decoding-ready lattice (detached view) plus the emission tensor."""
        p = self.emissions(ids)
        return lt.TagScoreLattice(p.data, self.trans, ids.lengths), p

    def _paths(self, sentences):
        """Tag-index paths of raw character sequences, in input order.

        Sentences of similar length share a chunk of at most TAG_CHUNK_CHARS
        characters, which runs once through the encoder and one batched
        Viterbi; each sentence is still decoded on its own.
        """
        paths = [None] * len(sentences)
        for chunk in length_chunks([len(s) for s in sentences], TAG_CHUNK_CHARS):
            ids = enc.CharIds.pack(
                self.vocab.encode(sentences[i], self.cfg.use_bigram) for i in chunk)
            lat, _ = self.lattice(ids)
            path, _ = lt.viterbi(lat)
            ends = np.cumsum(ids.lengths).tolist()
            for i, lo, hi in zip(chunk, [0] + ends, ends):
                paths[i] = path[lo:hi]
        return paths

    def tag_batch(self, sentences):
        """Viterbi-decode raw character sequences into joint tag lists."""
        return [[self.tagset.tag(i) for i in path] for path in self._paths(sentences)]

    def tag_ids(self, chars):
        """Viterbi-decode one raw character sequence into tag indices."""
        return self._paths([chars])[0]

    def tag_chars(self, chars):
        return self.tag_batch([chars])[0]

    def snapshot(self):
        return [p.data.copy() for _, p in self.parameters()]

    def load_state(self, state):
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(f"snapshot holds {len(state)} tensors, model has {len(params)}")
        for (name, p), value in zip(params, state):
            if p.data.shape != value.shape:
                raise ValueError(f"{name}: snapshot shape {value.shape} != {p.data.shape}")
            p.data[...] = value
