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
# - a training chunk's tape holds 8.5 KB per character after its forward
#   pass, the LSTM's tanh(c_t) included, and peaks at 11.8 KB per character
#   during backward(), which releases it as it goes (one 485-character chunk);
# - tagging runs under autograd.no_grad(), which keeps no tape: a tagging
#   chunk peaks at 3.7 KB per character, in the BLSTM (one ~1,000-character
#   chunk of 39 sentences; 3.5 on one 4,000-character line), where with the
#   tape on it peaked at 9.8. Its chunk is therefore twice the training chunk. 2,048 characters
#   tagged long sentences faster still but, when k-max still peaked at 5.4 KB
#   per character, raised the toy benchmark's peak RSS by 16%, beyond its 10%
#   bound.
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
        tape, so the encoder's forward caches are freed before decoding."""
        return lt.TagScoreLattice(self.emissions(ids)[1], self.trans, ids.lengths)

    def chunks(self, sentences, cap):
        """(indices, packed CharIds) of each chunk of raw character sequences:
        the sentences sorted by length and cut by length_chunks at `cap`
        characters, each chunk's sentences encoded and packed end to end."""
        for chunk in length_chunks([len(s) for s in sentences], cap):
            yield chunk, enc.CharIds.pack(
                self.vocab.encode(sentences[i], self.cfg.use_bigram) for i in chunk)

    def tagged(self, sentences):
        """(index, tag-index path) of each raw character sequence, chunk by chunk.

        Each chunk of at most TAG_CHUNK_CHARS characters runs once through the
        encoder, with no tape, and one batched Viterbi; each sentence is still
        decoded on its own. A sentence longer than the cap is a chunk by
        itself, so its chunk exceeds the cap; the encoder's working set grows
        with its characters, at about 3.5 KB each at the published widths.
        The paths come in chunk order, not input order.
        """
        for chunk, ids in self.chunks(sentences, TAG_CHUNK_CHARS):
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
