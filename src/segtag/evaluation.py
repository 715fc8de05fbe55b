"""Span recovery and precision/recall/F1 scoring.

Predicted joint-tag sequences are turned back into (start, end, POS) word
spans; invalid position-tag transitions are repaired locally by closing the
open word and starting anew, so span recovery is total. Scoring counts a
predicted span as correct when gold contains the identical boundaries (and
POS, in joint mode).
"""
from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple


class WordSpan(NamedTuple):
    """Half-open character span [start, end) labeled with a POS.

    Only decode_tags_to_words builds spans, and they partition [0, n) by
    construction, so a span is a plain tuple with no check of its own.
    """

    start: int
    end: int
    pos: str


def decode_tags_to_words(tags):
    """Recover word spans from a joint-tag sequence, repairing invalid runs.

    S emits a singleton and B opens a word that M (same POS) continues and E
    (same POS) closes. Any tag that cannot legally continue the open word
    closes it at the previous character and starts fresh; a stray M opens a
    word, a stray E emits a singleton. Each span's POS comes from its last
    character's tag. The result always partitions [0, n).
    """
    if len(tags) == 0:
        raise ValueError("cannot decode an empty tag sequence")
    spans = []
    open_start = None
    open_pos = None
    for i, tag in enumerate(tags):
        if open_start is not None:
            if tag.seg == "M" and tag.pos == open_pos:
                continue
            if tag.seg == "E" and tag.pos == open_pos:
                spans.append(WordSpan(open_start, i + 1, tag.pos))
                open_start = None
                continue
            # illegal continuation: close at the previous character
            spans.append(WordSpan(open_start, i, tags[i - 1].pos))
            open_start = None
        if tag.seg == "S" or tag.seg == "E":
            spans.append(WordSpan(i, i + 1, tag.pos))
        else:  # B, or a stray M, opens a word
            open_start, open_pos = i, tag.pos
    if open_start is not None:
        spans.append(WordSpan(open_start, len(tags), tags[-1].pos))
    return spans


def _match_counts(gold_spans, pred_spans, joint):
    if not joint:   # boundaries only
        gold_spans = [s[:2] for s in gold_spans]
        pred_spans = [s[:2] for s in pred_spans]
    gold_keys = set(gold_spans)
    return sum(1 for s in pred_spans if s in gold_keys)


def _check_alignment(gold, pred):
    """Refuse unequal sentence counts, an empty span list, or a sentence whose
    gold and predicted spans (a partition of [0, n) in order) end apart."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    for i, (g, p) in enumerate(zip(gold, pred)):
        if not g or not p:
            raise ValueError(f"sentence {i}: {'gold' if not g else 'predicted'} span list is empty")
        if g[-1].end != p[-1].end:
            raise ValueError(f"sentence {i}: gold covers {g[-1].end} chars, "
                             f"prediction {p[-1].end}")


def _counts(gold, pred, mode):
    """(correct, gold total, predicted total) over lists of span lists."""
    if mode not in ("joint", "seg"):
        raise ValueError(f"mode must be 'joint' or 'seg', got {mode!r}")
    correct = n_gold = n_pred = 0
    for g, p in zip(gold, pred):
        correct += _match_counts(g, p, joint=(mode == "joint"))
        n_gold += len(g)
        n_pred += len(p)
    return correct, n_gold, n_pred


def _prf(correct, n_gold, n_pred):
    p = correct / n_pred if n_pred else 0.0
    r = correct / n_gold if n_gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def score_prf(gold, pred, mode="joint"):
    """Precision, recall and F1 over per-sentence span lists."""
    _check_alignment(gold, pred)
    return _prf(*_counts(gold, pred, mode))


def _per_pos_counts(gold, pred):
    """Joint-mode (correct, gold, pred) counts broken down by POS label."""
    counts = defaultdict(lambda: [0, 0, 0])
    for g, p in zip(gold, pred):
        gold_keys = set(g)
        for s in g:
            counts[s.pos][1] += 1
        for s in p:
            counts[s.pos][2] += 1
            if s in gold_keys:
                counts[s.pos][0] += 1
    return dict(sorted(counts.items()))


def report(gold, pred, modes=("joint", "seg"), per_pos=False):
    """Tab-separated evaluation report: mode, P, R, F, correct, gold, pred."""
    _check_alignment(gold, pred)
    lines = []
    for mode in modes:
        correct, n_gold, n_pred = _counts(gold, pred, mode)
        p, r, f = _prf(correct, n_gold, n_pred)
        lines.append(f"{mode}\t{p:.4f}\t{r:.4f}\t{f:.4f}\t{correct}\t{n_gold}\t{n_pred}")
    if per_pos:
        for pos, (correct, n_gold, n_pred) in _per_pos_counts(gold, pred).items():
            p, r, f = _prf(correct, n_gold, n_pred)
            lines.append(f"pos:{pos}\t{p:.4f}\t{r:.4f}\t{f:.4f}\t{correct}\t{n_gold}\t{n_pred}")
    return "\n".join(lines)
