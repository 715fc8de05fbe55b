"""The full joint model: vocabulary, tag set, encoder stack, tag projection
and transition matrix, with deterministic seeded initialization."""
from __future__ import annotations

import numpy as np

from . import autograd as ag
from . import encoder as enc
from . import lattice as lt

# Characters per packed chunk. Larger chunks make each LSTM and Viterbi step
# a bigger GEMM but need more memory per chunk. At the published widths
# (tracemalloc, float32):
# - a training chunk's tape holds 9.7 KB per character after its forward
#   pass and peaks at 12.4 KB per character during backward(), which
#   releases it as it goes (one 514-character chunk);
# - tagging runs under autograd.no_grad(), which keeps no tape: a tagging
#   chunk peaks at 5.4 KB per character (one ~1,000-character chunk), where
#   with the tape on it peaked at 9.8. Its chunk is therefore twice the
#   training chunk. 2,048 characters tagged long sentences faster still but
#   raised the toy benchmark's peak RSS by 16%, beyond its 10% bound.
TRAIN_CHUNK_CHARS = 512
TAG_CHUNK_CHARS = 1024


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

    The parameters follow ``encoder.parameter_manifest``: drawn from `seed`
    in its order, so equal seeds give bit-identical models, or taken over
    with no draw from `state`, arrays in that order as snapshot() returns
    them (not copied when already of dtype).
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
        self.train_cfg = None   # optional TrainConfig snapshot, kept for serialization
        self.dtype = np.dtype(dtype)
        manifest = enc.parameter_manifest(cfg, vocab.n_chars, vocab.n_bigrams, len(tagset))
        if state is None:
            state = enc.draw_parameters(manifest, np.random.default_rng(seed), self.dtype)
        else:
            _check_state(manifest, state)
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
        tape, so the encoder's forward caches are freed before decoding."""
        return lt.TagScoreLattice(self.emissions(ids)[1], self.trans, ids.lengths)

    def _paths(self, sentences):
        """Tag-index paths of raw character sequences, in input order.

        Sentences of similar length share a chunk of at most TAG_CHUNK_CHARS
        characters, which runs once through the encoder, with no tape, and
        one batched Viterbi; each sentence is still decoded on its own.
        """
        paths = [None] * len(sentences)
        with ag.no_grad():
            for chunk in length_chunks([len(s) for s in sentences], TAG_CHUNK_CHARS):
                ids = enc.CharIds.pack(
                    self.vocab.encode(sentences[i], self.cfg.use_bigram) for i in chunk)
                path, _ = lt.viterbi(self.lattice(ids))
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
        _check_state([(name, p.shape) for name, p in self.parameters()], state)
        for p, value in zip(self.named.values(), state):
            p.data[...] = value


def _check_state(manifest, state):
    """Raise ValueError unless state holds one array of each manifest shape."""
    if len(state) != len(manifest):
        raise ValueError(f"snapshot holds {len(state)} tensors, model has {len(manifest)}")
    for (name, shape), value in zip(manifest, state):
        if np.shape(value) != shape:
            raise ValueError(f"{name}: snapshot shape {np.shape(value)} != {shape}")
