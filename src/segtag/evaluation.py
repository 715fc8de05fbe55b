"""Word recovery and precision/recall/F1 scoring.

A word goes on from one character to the next only when the first tag's
segment is in OPENS, the second's is in CONTINUES and both carry the same
POS: one table over a tag alphabet (word_rule), read by word_ends, by
corpus.format_words and by the constrained lattice. An invalid run is cut
where it breaks. Words are scored as integer keys (word_keys); a predicted
word is correct when gold holds the same boundaries (and POS, in joint
mode).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

OPENS = ("B", "M")          # a word goes on after a tag of these segments
CONTINUES = ("M", "E")      # a tag of these segments goes on an open word


class WordSpan(NamedTuple):
    """Half-open character span [start, end) labeled with a POS."""

    start: int
    end: int
    pos: str


class WordRule(NamedTuple):
    """The word rule over an ordered tag alphabet, as arrays indexed by tag."""

    opens: np.ndarray       # a word may go on after the tag
    continues: np.ndarray   # the tag may go on an open word
    pos: np.ndarray         # the index of the tag's POS label in labels
    labels: list            # the alphabet's POS labels, sorted
    goes_on: np.ndarray     # goes_on[a, b]: a word goes on from tag a into tag b


def word_rule(tags):
    """The WordRule of an ordered alphabet of (seg, POS) tags:
    goes_on[a, b] = opens[a] & continues[b] & (pos[a] == pos[b])."""
    tags = list(tags)
    labels = sorted({pos for _, pos in tags})
    pos = np.array([labels.index(p) for _, p in tags], dtype=np.intp)
    opens, continues = (np.isin([s for s, _ in tags], segs) for segs in (OPENS, CONTINUES))
    return WordRule(opens, continues, pos, labels,
                    opens[:, None] & continues & (pos[:, None] == pos))


def word_ends(path, lengths, rule):
    """The index of each word's last character in a tag-index path over the
    rule's alphabet that joins sentences of the given lengths end to end: a
    word ends where goes_on does not carry it on, and at every sentence end."""
    path = np.asarray(path, dtype=np.intp)
    last = np.ones(len(path), dtype=bool)
    last[:-1] = ~rule.goes_on[path[:-1], path[1:]]
    last[np.cumsum(lengths) - 1] = True
    return np.flatnonzero(last)


def word_keys(path, lengths, rule):
    """The words of a tag-index path, as word_ends cuts it, as int64 keys
    (end * (n + 1) + length) * len(labels) + POS index: end is a word's end
    offset among the n characters and its POS its last tag's. key //
    len(labels) drops the POS."""
    path = np.asarray(path, dtype=np.intp)
    ends = word_ends(path, lengths, rule).astype(np.int64, copy=False)
    spans = (ends + 1) * (len(path) + 1) + np.diff(ends, prepend=-1)
    return spans * len(rule.labels) + rule.pos[path[ends]]


def word_spans(path, rule):
    """The WordSpans of one sentence's tag-index path over the rule's
    alphabet, as word_ends cuts it; they partition the sentence."""
    path = np.asarray(path, dtype=np.intp)
    ends = word_ends(path, [len(path)], rule)
    labels = [rule.labels[i] for i in rule.pos[path[ends]].tolist()]
    ends = (ends + 1).tolist()
    return [WordSpan(*span) for span in zip([0] + ends[:-1], ends, labels)]


def decode_tags_to_words(tags):
    """The word spans of a joint-tag sequence, by word_spans over its own
    distinct tags: a stray M opens a word and a stray E is a singleton."""
    if len(tags) == 0:
        raise ValueError("cannot decode an empty tag sequence")
    index = {}
    return word_spans([index.setdefault(t, len(index)) for t in tags], word_rule(index))


def span_keys(gold, pred):
    """Per-sentence gold and predicted span lists (each a partition of its
    sentence) as word keys, and their POS labels. Unequal sentence counts,
    an empty span list and a sentence whose two sides end apart are refused."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    for i, (g, p) in enumerate(zip(gold, pred)):
        if not g or not p:
            raise ValueError(f"sentence {i}: {'gold' if not g else 'predicted'} span list is empty")
        if g[-1].end != p[-1].end:
            raise ValueError(f"sentence {i}: gold covers {g[-1].end} chars, "
                             f"prediction {p[-1].end}")
    labels = sorted({s.pos for spans in (*gold, *pred) for s in spans})
    index = {label: i for i, label in enumerate(labels)}
    ends = np.cumsum([g[-1].end for g in gold]).tolist()

    def keys(side):     # as word_keys lays them out
        return np.array([((ofs + s.end) * (ends[-1] + 1) + s.end - s.start) * len(labels)
                         + index[s.pos] for ofs, spans in zip([0] + ends, side) for s in spans],
                        dtype=np.int64)

    return keys(gold), keys(pred), labels


def word_counts(gold, pred, n_labels):
    """Rows (correct, gold, predicted) of word counts per POS index, over the
    word keys of one sentence layout with n_labels POS labels. A predicted
    key is correct when gold holds it, found by a binary search of the
    sorted gold keys (np.isin would do, but on keys this sparse it takes a
    path whose first call imports numpy.ma: 2 MB more peak memory)."""
    ranked = np.sort(gold)
    hit = np.take(ranked, np.searchsorted(ranked, pred), mode="clip") == pred
    return np.stack([np.bincount(keys % n_labels, minlength=n_labels)
                     for keys in (pred[hit], gold, pred)])


def _totals(gold, pred, n_labels, mode):
    """(correct, gold, predicted) word counts of one mode; seg drops the POS."""
    if mode == "seg":
        gold, pred, n_labels = gold // n_labels, pred // n_labels, 1
    elif mode != "joint":
        raise ValueError(f"mode must be 'joint' or 'seg', got {mode!r}")
    return word_counts(gold, pred, n_labels).sum(axis=1).tolist()


def _prf(correct, n_gold, n_pred):
    p = correct / n_pred if n_pred else 0.0
    r = correct / n_gold if n_gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def score_prf(gold, pred, mode="joint"):
    """Precision, recall and F1 over per-sentence span lists."""
    gold, pred, labels = span_keys(gold, pred)
    return _prf(*_totals(gold, pred, len(labels), mode))


def report(gold, pred, labels, modes=("joint", "seg"), per_pos=False):
    """Tab-separated evaluation report over the gold and predicted word keys
    of one sentence layout and their POS labels: mode, P, R, F, correct,
    gold, pred. per_pos appends a joint row per label gold or pred holds."""
    rows = [(mode, _totals(gold, pred, len(labels), mode)) for mode in modes]
    if per_pos:
        rows += [(f"pos:{label}", counts) for label, counts
                 in zip(labels, word_counts(gold, pred, len(labels)).T.tolist()) if any(counts)]
    lines = []
    for name, (correct, n_gold, n_pred) in rows:
        p, r, f = _prf(correct, n_gold, n_pred)
        lines.append(f"{name}\t{p:.4f}\t{r:.4f}\t{f:.4f}\t{correct}\t{n_gold}\t{n_pred}")
    return "\n".join(lines)
