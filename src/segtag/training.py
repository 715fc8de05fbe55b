"""Max-margin training.

Each sentence contributes a structured hinge loss: the score of the best
margin-augmented competitor minus the gold path score. A mini-batch runs in
length-sorted chunks of at most LOCAL_CHARS characters, the cap of every
call of the position-local stack, cut and packed by Model.chunks as
tagging's are: one encoder pass, one Viterbi and one backward() per chunk,
so a batch that fits in the cap is one chunk. backward() releases the
chunk's tape as it goes, and the chunk's graph is dropped before the next
one is built, so memory follows the chunk, not the batch: at the published
widths a 1,013-character chunk peaks at ~11.1 KB per character. AdaGrad (or
plain SGD) applies each batch with the L2 term folded into the update.
"""
from __future__ import annotations

import logging
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import evaluation as ev
from . import lattice as lt
from .model import LOCAL_CHARS

log = logging.getLogger(__name__)

ADAGRAD_EPS = 1e-6

OPTIMIZERS = ("adagrad", "sgd")


@dataclass
class TrainConfig:
    """Hyper-parameters; the defaults mirror the published setting."""

    alpha: float = 0.2        # initial learning rate
    eta: float = 0.2          # margin discount per wrong position
    l2: float = 1e-4          # regularization coefficient
    batch_size: int = 20
    max_epochs: int = 30
    seed: int = 1
    dev_fraction: float = 0.1
    optimizer: str = "adagrad"
    finetune_embeddings: bool = True

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha (learning rate) must be positive and finite, got {self.alpha}")
        for name in ("eta", "l2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0 <= self.dev_fraction < 1:
            raise ValueError(f"dev_fraction must be in [0, 1), got {self.dev_fraction}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")


@dataclass
class BatchStats:
    """Per-epoch aggregates."""

    mean_loss: float
    regularizer: float
    violations: int
    epoch: int
    seconds: float

    def __post_init__(self):
        if self.mean_loss < 0 or self.regularizer < 0:
            raise ValueError("losses are non-negative by construction")


def margin_delta(gold, t, eta):
    """Hamming margin: eta per position where the sequences disagree."""
    gold = np.asarray(gold)
    t = np.asarray(t)
    if gold.shape != t.shape:
        raise ValueError(f"sequence lengths differ: {gold.shape} vs {t.shape}")
    return eta * int(np.sum(gold != t))


def hinge_losses(lat, gold, eta):
    """Structured hinge loss of each sentence in a (packed) lattice, and the
    violating sequence that attains it.

    loss = max_t (score(t) + margin(gold, t)) - score(gold), which is zero
    exactly when gold itself attains the augmented maximum; the violator then
    holds gold, so the sentence cancels exactly in hinge_loss_graph.
    """
    gold = np.asarray(gold, dtype=np.intp)
    path = np.asarray(lt.loss_augmented_viterbi(lat, gold, eta)[0])
    # per position, so that positions and arcs on which path and gold agree cancel
    rows = lt.row_scores(lat, path) - lt.row_scores(lat, gold) + eta * (path != gold)
    losses = np.maximum(np.add.reduceat(rows, np.cumsum(lat.lengths) - lat.lengths), 0.0)
    return losses, np.where(np.repeat(losses > 0.0, lat.lengths), path, gold).tolist()


def regularizer_value(params, l2):
    return 0.5 * l2 * sum(float(np.sum(p.data.astype(np.float64) ** 2)) for _, p in params)


def hinge_loss_graph(model, ids, gold, eta):
    """Summed hinge loss of the sentence(s) in ids as one tape node, plus the
    detached per-sentence losses and the violator (packed like gold).

    The node's inputs are the unbiased tag scores, the projection bias and
    the transition matrix. Its value score(violator) - score(gold) + margin
    is the sum of per-position differences of the unbiased scores, integer
    tag-count differences times the bias and integer arc-count differences
    within sentences times the transitions (masked arcs count zero); a
    position, tag or arc on which the two paths agree adds exactly 0.0. Its
    backward scatters +-1 into the scores' gradient, which the projection
    and the encoder carry on, and adds the counts to the bias and transition
    gradients.
    """
    scores_t, emissions = model.emissions(ids)
    lat = lt.TagScoreLattice(emissions, model.trans, ids.lengths)
    losses, violator = hinge_losses(lat, gold, eta)
    b, a = model.named["proj.b"], model.trans.a
    tags = lt.tag_count_diff(b.shape[0], violator, gold).astype(b.dtype)
    arcs = lt.arc_count_diff(model.trans, violator, gold, ids.lengths).astype(a.dtype)
    diff = ag.Tensor(lt.path_emission_diff(scores_t.data, violator, gold)
                     + (b.data * tags).sum() + (a.data * arcs).sum()
                     + margin_delta(gold, violator, eta))

    def _back(grad):
        g = np.zeros_like(scores_t.data)
        rows = np.arange(len(violator))
        g[rows, violator] += grad    # each index pair holds one row once
        g[rows, gold] -= grad
        ag._accum(scores_t, g)
        ag._accum(b, tags * grad)
        ag._accum(a, arcs * grad)

    return ag._record("hinge_loss_graph", diff, (scores_t, b, a), _back), losses, violator


def apply_update(model, cfg, batch_size):
    """One optimizer step from the accumulated batch gradients.

    The gradient of the objective is mean data gradient plus l2 * theta,
    applied as a single vector per parameter; there is no separate decay
    step, so a zero objective gradient leaves the parameter untouched. The
    step is computed in place in the gradient buffer, which is zeroed after.
    """
    for name, p in model.parameters():
        if not cfg.finetune_embeddings and name.startswith("embed."):
            p.zero_grad()
            continue
        g = p.grad
        g /= batch_size
        if cfg.l2:
            g += cfg.l2 * p.data
        if cfg.optimizer == "adagrad":
            if p.accumulator is None:    # first update: bitwise what zeros + g*g gives
                p.accumulator = g * g
            else:
                p.accumulator += g * g
            root = p.accumulator + ADAGRAD_EPS
            g *= cfg.alpha
            g /= np.sqrt(root, out=root)
        else:
            g *= cfg.alpha
        p.data -= g
        p.zero_grad()


def train_epoch(corpus, model, cfg, epoch=0):
    """One pass: shuffle, batch, accumulate subgradients, update.

    The shuffle is seeded by (cfg.seed, epoch) so runs are reproducible;
    batches are cut into chunks in a fixed order, which makes the epoch
    deterministic outright. A NumericError names the epoch, batch and chunk.
    """
    if len(corpus) == 0:
        raise ValueError("cannot train on an empty corpus")
    start = time.perf_counter()
    order = np.random.default_rng([cfg.seed, epoch]).permutation(len(corpus))
    losses = np.zeros(len(corpus))    # by corpus index
    model.zero_grads()
    for batch_no, lo in enumerate(range(0, len(order), cfg.batch_size)):
        batch = order[lo:lo + cfg.batch_size]
        for chunk, ids in model.chunks([corpus[i].chars for i in batch], LOCAL_CHARS):
            sentences = batch[chunk]
            gold = np.concatenate([model.tagset.encode(corpus[i].tags) for i in sentences])
            try:
                diff, chunk_losses, _ = hinge_loss_graph(model, ids, gold, cfg.eta)
                if chunk_losses.any():
                    diff.backward()
                del diff    # a chunk whose margins all hold was not released
            except ag.NumericError as e:
                raise ag.NumericError(f"epoch {epoch}, batch {batch_no}, sentences "
                                      f"{sentences.tolist()}: {e}") from e
            losses[sentences] = chunk_losses
        apply_update(model, cfg, len(batch))
    return BatchStats(
        mean_loss=float(np.mean(losses)),
        regularizer=regularizer_value(model.parameters(), cfg.l2),
        violations=int(np.count_nonzero(losses)),
        epoch=epoch,
        seconds=time.perf_counter() - start,
    )


def gold_and_predicted_words(model, sentences):
    """The evaluation.word_keys of gold sentences' tags and of the model's
    Viterbi paths for their characters, and their POS labels. Both index one
    alphabet: the model's tags, then each gold tag it lacks, as it is met."""
    index = {t: i for i, t in enumerate(model.tagset)}
    gold = [index.setdefault(t, len(index)) for s in sentences for t in s.tags]
    paths = dict(model.tagged([s.chars for s in sentences]))
    pred = np.concatenate([paths[k] for k in range(len(sentences))])
    lengths, rule = [len(s) for s in sentences], ev.word_rule(index)
    return ev.word_keys(gold, lengths, rule), ev.word_keys(pred, lengths, rule), rule.labels


def evaluate(model, sentences, mode="joint"):
    """Tag the raw characters of gold sentences and score P/R/F over the word
    spans of evaluation.decode_tags_to_words."""
    gold = [ev.decode_tags_to_words(s.tags) for s in sentences]
    pred = [ev.decode_tags_to_words(tags) for tags in model.tag_batch([s.chars for s in sentences])]
    return ev.score_prf(gold, pred, mode)


@dataclass
class Snapshot:
    epoch: int
    state: list
    dev_f1: float | None = None


def split_dev(corpus, cfg):
    """Hold out the first dev_fraction of the seed-shuffled training data."""
    order = np.random.default_rng(cfg.seed).permutation(len(corpus))
    n_dev = int(len(corpus) * cfg.dev_fraction)
    dev = [corpus[i] for i in order[:n_dev]]
    train = [corpus[i] for i in order[n_dev:]]
    return train, dev


def train(corpus, model, cfg, dev=None, log_stream=None):
    """Full training run with per-epoch logging and best-dev selection.

    Emits one tab-separated line per epoch: epoch, mean hinge loss, J(theta),
    dev P, dev R, dev F, seconds. Returns the Snapshot of the epoch with the
    highest dev joint F1 (ties keep the earlier epoch) and leaves the model
    holding its parameters; with no dev data, the final epoch's. Only the
    best epoch so far is copied and kept.
    """
    stream = sys.stderr if log_stream is None else log_stream
    if dev is None:
        corpus, dev = split_dev(corpus, cfg)
    if not corpus:
        raise ValueError("no training sentences left after the dev split")
    best = None
    for epoch in range(1, cfg.max_epochs + 1):
        stats = train_epoch(corpus, model, cfg, epoch)
        if dev:
            p, r, f = evaluate(model, dev)
        else:
            p = r = f = float("nan")
        obj = stats.mean_loss + stats.regularizer
        print(f"{epoch}\t{stats.mean_loss:.6f}\t{obj:.6f}\t{p:.4f}\t{r:.4f}\t{f:.4f}"
              f"\t{stats.seconds:.2f}", file=stream)
        if dev and (best is None or f > best.dev_f1):
            best = Snapshot(epoch, model.snapshot(), f)
    if best is None:
        log.warning("empty dev set: keeping the final epoch's model")
        return Snapshot(cfg.max_epochs, model.snapshot())
    model.load_state(best.state)
    return best
