"""Tag score lattices and exact decoding.

A lattice holds one emission score per (position, tag) plus a shared
transition matrix. A path scores the sum of its emissions and the
transition scores between consecutive tags; Viterbi finds the exact argmax,
optionally over hamming-margin-augmented emissions for max-margin training.
A brute-force enumerator with identical tie-breaking serves as the oracle.
The module records no tape: it decodes, and it counts the tags and arcs on
which two paths differ, which training's hinge node weighs
(training.hinge_loss_graph).

A lattice may pack several sentences end to end (``lengths``): Viterbi then
decodes each one on its own, all of them in the same steps, and no
transition is scored across a sentence boundary.
"""
from __future__ import annotations

import numpy as np

from .autograd import _check_lengths, _finite, _packed_steps, matmul
from .evaluation import word_rule

# Finite stand-in for minus infinity; keeps masked-transition arithmetic NaN-free.
NEG_INF = -1e30
_INFEASIBLE = -1e29


class InfeasibleLatticeError(ValueError):
    """Every path through the lattice crosses a forbidden transition."""


class GuardError(ValueError):
    """Brute-force enumeration would exceed the instance-size guard."""


class TransitionMatrix:
    """Learned tag-to-tag scores with an optional hard-constraint mask.

    mask[i, j] = True forbids the transition i -> j: it scores NEG_INF when
    decoding and its entry never receives gradient.
    """

    def __init__(self, a, mask=None):
        self.a = a
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != a.shape:
                raise ValueError(f"mask shape {mask.shape} != transition shape {a.shape}")
        self.mask = mask

    @property
    def n_tags(self):
        return self.a.shape[0]

    def scores(self):
        """Transition score matrix with forbidden entries pinned to NEG_INF."""
        if self.mask is None:
            return self.a.data
        s = self.a.data.copy()
        s[self.mask] = NEG_INF
        return s


class TagScoreLattice:
    """Emission scores for one sentence, or for several packed end to end
    (`lengths`, one entry per sentence), plus a reference to the transitions."""

    def __init__(self, emissions, trans, lengths=None):
        emissions = np.asarray(emissions)
        if emissions.ndim != 2 or emissions.shape[0] < 1:
            raise ValueError(f"emissions must be n x |T| with n >= 1, got {emissions.shape}")
        if emissions.shape[1] != trans.n_tags:
            raise ValueError(
                f"emissions have {emissions.shape[1]} tags, transitions {trans.n_tags}"
            )
        if not _finite(emissions):
            raise ValueError("emissions must be finite")
        self.emissions = emissions
        self.trans = trans
        self.lengths = _check_lengths(lengths, emissions.shape[0])

    @property
    def n(self):
        return self.emissions.shape[0]

    @property
    def n_tags(self):
        return self.emissions.shape[1]


def emission_scores(h, w, b):
    """Tag scores per position, a plain linear map: the tensor h @ W, on the
    tape when one is recording, and the array h @ W + b of the lattice.

    The bias reaches the gradient through the hinge's tag counts
    (tag_count_diff) instead of being added to every row of the tape.
    """
    scores_t = matmul(h, w)
    return scores_t, scores_t.data + b.data


def _check_tags(lat, tags):
    tags = np.asarray(tags, dtype=np.intp)
    if tags.ndim != 1 or len(tags) != lat.n:
        raise ValueError(f"tag sequence length {len(tags)} != lattice length {lat.n}")
    if len(tags) and (tags.min() < 0 or tags.max() >= lat.n_tags):
        raise ValueError(f"tag index out of range for |T| = {lat.n_tags}")
    return tags


def row_scores(lat, tags):
    """Per position of a tag path: its emission score plus the transition
    score into it, none into a sentence's first position."""
    tags = _check_tags(lat, tags)
    rows = lat.emissions[np.arange(lat.n), tags]
    arcs = lat.trans.scores()[tags[:-1], tags[1:]]
    arcs[np.cumsum(lat.lengths)[:-1] - 1] = 0.0     # the arc out of each sentence's last char
    rows[1:] += arcs
    return rows


def path_score(lat, tags):
    """Sum of transition scores plus emission scores along one tag path
    (summed over the sentences of a packed lattice)."""
    return float(row_scores(lat, tags).sum())


def viterbi(lat):
    """Exact argmax tag path and its score.

    Ties resolve to the smaller tag index, compared from the last position
    backwards (the traceback order), so the result is reproducible. It
    matches brute_force_decode when path scores sum exactly (say, small
    multiples of 1/4); the two sum in different orders, so paths whose
    scores differ by less than that rounding may break ties differently.
    The returned score is recomputed with path_score on the returned path.
    A packed lattice gives the packed paths of its sentences, each decoded
    on its own, and their total score.
    """
    path = _viterbi_path(lat.emissions, lat.trans.scores(), lat.lengths)
    return path, path_score(lat, path)


def _viterbi_path(emissions, a, lengths):
    """Best path of each sentence packed in the emissions, packed the same way.

    The steps run over the step-major layout of ``autograd._packed_steps``:
    step t extends the first m sentences of step t-1, longest first, so a
    sentence that has ended keeps its final scores in its row of delta.
    Backpointers are stored in the smallest unsigned type that holds every
    tag index (one byte up to 256 tags); each step's argmax runs into an
    intp block first.
    """
    n, n_tags = emissions.shape
    where, steps = _packed_steps(lengths, n)
    em = np.empty_like(emissions)
    em[where] = emissions
    backptr = np.empty((n, n_tags), dtype=np.min_scalar_type(n_tags - 1))
    a_to_from = np.ascontiguousarray(a.T)   # reduce over the previous tag along contiguous rows
    delta = em[:steps[0][1]].copy()
    ptrs = np.empty(delta.shape, dtype=np.intp)
    starts = np.arange(delta.size) * n_tags     # where each (b, j) row of cand starts, flattened
    for lo, m in steps[1:]:
        cand = delta[:m, None] + a_to_from                # cand[b, j, i]: best arriving at j via i
        ptr = ptrs[:m]
        cand.argmax(axis=2, out=ptr)                      # first max = smallest previous tag
        backptr[lo:lo + m] = ptr
        best = cand.reshape(-1).take(ptr.reshape(-1) + starts[:ptr.size])   # the max, at ptr
        np.add(best.reshape(m, n_tags), em[lo:lo + m], out=delta[:m])
    if np.any(delta.max(axis=1) <= _INFEASIBLE):
        raise InfeasibleLatticeError("all paths cross forbidden transitions")
    # trace every sentence back at once; one joins at its last step, with its best final tag
    tags = np.empty(n, dtype=np.intp)
    cur = delta.argmax(axis=1)
    for lo, m in reversed(steps[1:]):
        tags[lo:lo + m] = cur[:m]
        cur[:m] = backptr[lo:lo + m][np.arange(m), cur[:m]]
    tags[:steps[0][1]] = cur
    return tags[where].tolist()


def loss_augmented_viterbi(lat, gold, eta):
    """Decode with emissions inflated by the hamming margin against gold.

    Returns the augmented argmax path and its augmented score, which equals
    path_score(path) + eta * (positions differing from gold); on the gold
    path itself the augmented score is exactly the plain score.
    """
    gold = _check_tags(lat, gold)
    rows = np.arange(lat.n)
    aug = lat.emissions + eta           # the hamming penalty, on every tag but gold's
    aug[rows, gold] = lat.emissions[rows, gold]
    path = _viterbi_path(aug, lat.trans.scores(), lat.lengths)
    mismatches = int(np.sum(np.asarray(path) != gold))
    return path, path_score(lat, path) + eta * mismatches


def brute_force_decode(lat, gold=None, eta=0.0):
    """Exhaustive argmax over all |T|^n tag sequences (test oracle).

    Applies the same hamming augmentation as loss_augmented_viterbi when
    gold is given, and the same tie-break as viterbi: among equal-scoring
    sequences the one whose reversed tag tuple is lexicographically
    smallest wins. Guarded to |T|^n <= 10^6.
    """
    if lat.lengths.size > 1:
        raise ValueError(f"brute_force_decode takes one sentence, got {lat.lengths.size}")
    n, n_tags = lat.n, lat.n_tags
    total = n_tags ** n
    if total > 10 ** 6:
        raise GuardError(f"|T|^n = {n_tags}^{n} = {total} exceeds the 10^6 guard")
    if gold is not None:
        gold = _check_tags(lat, gold)

    # all sequences in lexicographic order, row s = base-|T| digits of s
    powers = n_tags ** np.arange(n - 1, -1, -1, dtype=np.int64)
    seqs = (np.arange(total, dtype=np.int64)[:, None] // powers) % n_tags
    scores = lat.emissions[np.arange(n), seqs].sum(axis=1)
    if n > 1:
        scores = scores + lat.trans.scores()[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
    if gold is not None:
        scores = scores + eta * (seqs != gold).sum(axis=1)

    best = scores.max()
    if best <= _INFEASIBLE:
        raise InfeasibleLatticeError("all paths cross forbidden transitions")
    candidates = seqs[np.flatnonzero(scores == best)]
    path = min((tuple(row) for row in candidates), key=lambda r: r[::-1])
    path = list(path)
    score = path_score(lat, path)
    if gold is not None:
        score += eta * int(np.sum(np.asarray(path) != gold))
    return path, score


def path_emission_diff(scores, path, gold):
    """sum_i scores[i, path_i] - scores[i, gold_i] over an n x |T| score array.

    The subtraction happens per position before summation, so positions
    where the sequences agree cancel bitwise: they add exactly zero, and
    scores that only such positions read cannot move the result.
    """
    rows = np.arange(len(scores))
    return (scores[rows, path] - scores[rows, gold]).sum()


def tag_count_diff(n_tags, path, gold):
    """Per tag: its uses in path minus its uses in gold, as integers."""
    return np.bincount(path, minlength=n_tags) - np.bincount(gold, minlength=n_tags)


def arc_count_diff(trans, path, gold, lengths=None):
    """Per arc i -> j: its uses in path minus its uses in gold, as an
    integer |T| x |T| array.

    Masked arcs count zero; decoding never crosses them anyway. With several
    sentences packed in the sequences (`lengths`, default one), the arc out
    of each sentence's last character is not counted, as in path_score.
    """
    n_tags = trans.n_tags
    counts = np.zeros((n_tags, n_tags), dtype=np.int64)
    path = np.asarray(path, dtype=np.intp)
    gold = np.asarray(gold, dtype=np.intp)
    within = np.ones(len(path) - 1, dtype=np.int64)
    within[np.cumsum(_check_lengths(lengths, len(path)))[:-1] - 1] = 0
    np.add.at(counts, (path[:-1], path[1:]), within)
    np.add.at(counts, (gold[:-1], gold[1:]), -within)
    if trans.mask is not None:
        counts[trans.mask] = 0
    return counts


def bmes_transition_mask(tagset):
    """Hard segmentation-validity constraints as a forbidden-transition mask,
    read off the word rule (evaluation.word_rule): after B-x or M-x (OPENS)
    only a tag the open word goes on into, M-x or E-x (CONTINUES, same POS);
    after E-x or S-x only B-y or S-y. Off by default: the transition matrix
    normally learns these regularities itself.
    """
    rule = word_rule(tagset)
    return ~(rule.goes_on | (~rule.opens[:, None] & ~rule.continues))
