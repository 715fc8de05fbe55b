"""Per-layer tracing from outside the program.

segtag's modules call one another through module-global lookups
(``enc.encode``, ``lt.viterbi``, ``tr.apply_update``) and through methods
looked up on their classes (``Tensor.backward``, ``Vocab.encode``). Rebinding
those names to timing wrappers therefore sees every internal call without a
change to ``src/``. A ``Tracer`` installs the wrappers only inside its
``installed()`` block and puts every original back on the way out.

Each wrapped call records a span (name, start, end, parent span index) in
memory. A finished span is a tuple of atoms, which the garbage collector
stops tracking, so a long trace does not make the collections it measures
slower. A layer's self time is its span's duration minus the time covered by
its child spans, so self times never overlap and sum to at most the wall
time they were recorded in.

Python's cyclic garbage collector runs at whatever allocation happens to
trip it, so its pauses would land in the self time of that span. A
``gc.callbacks`` hook records each collection as a ``python.gc`` span, a
child of the span it interrupted.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import json
import time

from segtag import autograd as ag
from segtag import corpus as cp
from segtag import encoder as enc
from segtag import evaluation as ev
from segtag import lattice as lt
from segtag import model as md
from segtag import modelfile as mf
from segtag import training as tr


def targets():
    """(owner, attribute, span name) for every traced entry point.

    The span name's prefix before the last dot is the layer; spans with the
    same name are summed into one per-layer metric.
    """
    return [
        (cp, "parse_tagged_corpus", "corpus.parse"),
        (cp, "build_vocab_and_tagset", "corpus.vocab"),
        (cp.Vocab, "encode", "corpus.encode"),
        (cp.TagSet, "encode", "corpus.encode"),
        (enc, "embed_sentence", "encoder.embed"),
        (enc, "conv_feature_maps", "encoder.conv"),
        (enc, "kmax_pool", "encoder.kmax"),
        (enc, "highway_forward", "encoder.highway"),
        (enc, "blstm_forward", "encoder.lstm"),
        (enc, "lstm_forward", "encoder.lstm"),
        (lt, "emission_scores", "lattice.emission"),
        (ag, "matmul", "lattice.emission"),       # the training-time projection
        (lt, "viterbi", "lattice.viterbi"),
        (lt, "loss_augmented_viterbi", "lattice.loss_aug_viterbi"),
        (lt, "path_score", "lattice.path_terms"),
        (lt, "path_emission_diff", "lattice.path_terms"),
        (lt, "tag_count_diff", "lattice.path_terms"),
        (lt, "arc_count_diff", "lattice.path_terms"),
        (ag.Tensor, "backward", "autograd.backward"),
        (tr, "train_epoch", "training.glue"),
        (tr, "apply_update", "training.update"),
        (ev, "decode_tags_to_words", "evaluation.decode"),
        (ev, "report", "evaluation.score"),
        (ev, "score_prf", "evaluation.score"),
        (md.Model, "__init__", "model.init"),
        (md.Model, "tag_chars", "model.glue"),
        (md.Model, "tag_ids", "model.glue"),
        (md.Model, "lattice", "model.glue"),
        (md.Model, "emissions", "model.glue"),
        (md.Model, "hidden", "model.glue"),
        (mf, "load", "modelfile.load"),
    ]


class Tracer:
    """Spans kept in memory plus a count of autograd tensors created."""

    def __init__(self):
        self.spans = []     # (name, start, end, parent index or -1); None while open
        self.tensors = 0
        self._stack = []
        self._gc_span = -1, 0.0     # index and start of the collection in progress

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)

        return traced

    def _on_gc(self, phase, info):
        """gc.callbacks hook: a collection becomes a python.gc span."""
        if phase == "start":
            self._gc_span = len(self.spans), time.perf_counter()
            self.spans.append(None)
        elif self._gc_span[0] >= 0:
            (idx, start), end = self._gc_span, time.perf_counter()
            self.spans[idx] = ("python.gc", start, end, self._stack[-1] if self._stack else -1)
            self._gc_span = -1, 0.0

    def _count_tensors(self, init):
        @functools.wraps(init)
        def counted(tensor, *args, **kwargs):
            self.tensors += 1
            return init(tensor, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to its wrapper; restore the originals on exit."""
        saved, on_gc = [], self._on_gc
        try:
            for owner, attr, name in targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            original = ag.Tensor.__dict__["__init__"]
            saved.append((ag.Tensor, "__init__", original))
            ag.Tensor.__init__ = self._count_tensors(original)
            gc.callbacks.append(on_gc)
            yield self
        finally:
            if on_gc in gc.callbacks:
                gc.callbacks.remove(on_gc)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """Seconds of self time summed per span name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = {}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def durations(self, name):
        """Wall seconds of each span with the given name, in call order."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
