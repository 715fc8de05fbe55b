"""Max-margin training.

Each sentence contributes a structured hinge loss: the score of the best
margin-augmented competitor minus the gold path score. A mini-batch runs in
length-sorted chunks of at most TRAIN_CHUNK_CHARS characters, packed as in
tagging: one encoder pass, one Viterbi and one backward() per chunk. AdaGrad
(or plain SGD) applies each batch with the L2 term folded into the update.
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
from .encoder import CharIds
from .model import TRAIN_CHUNK_CHARS, length_chunks

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


def hinge_loss(lat, gold, eta):
    """Structured hinge loss of a one-sentence lattice (summed over the
    sentences of a packed one) and the violating sequence that attains it."""
    losses, violator = hinge_losses(lat, gold, eta)
    return float(losses.sum()), violator


def regularizer_value(params, l2):
    return 0.5 * l2 * sum(float(np.sum(p.data.astype(np.float64) ** 2)) for _, p in params)


def objective(losses, params, l2):
    """Mean hinge loss plus the L2 term over every parameter."""
    if len(losses) == 0:
        raise ValueError("objective needs at least one loss")
    return float(np.mean(losses)) + regularizer_value(params, l2)


def hinge_loss_graph(model, ids, gold, eta):
    """Summed hinge loss of the sentence(s) in ids as an autograd tensor, plus
    the detached per-sentence losses and the violator (packed like gold).

    The tensor is score(violator) - score(gold) + margin, assembled from
    three pieces whose inactive coordinates cancel exactly: per-position
    differences of the unbiased scores, integer tag-count differences times
    the projection bias, and integer arc-count differences within sentences
    times the transition matrix. backward() routes the subgradient through
    the encoder, the projection and the transitions.
    """
    scores_t = ag.matmul(model.hidden(ids), model.proj.w)
    lat = lt.TagScoreLattice(scores_t.data + model.proj.b.data, model.trans, ids.lengths)
    losses, violator = hinge_losses(lat, gold, eta)
    diff = (
        lt.path_emission_diff(scores_t, violator, gold)
        + lt.tag_count_diff(model.proj.b, violator, gold)
        + lt.arc_count_diff(model.trans.a, model.trans, violator, gold, ids.lengths)
        + margin_delta(gold, violator, eta)
    )
    return diff, losses, violator


def apply_update(model, cfg, batch_size):
    """One optimizer step from the accumulated batch gradients.

    The gradient of the objective is mean data gradient plus l2 * theta,
    applied as a single vector per parameter; there is no separate decay
    step, so a zero objective gradient leaves the parameter untouched.
    """
    for name, p in model.parameters():
        if not cfg.finetune_embeddings and name.startswith("embed."):
            p.zero_grad()
            continue
        g = p.grad / batch_size
        if cfg.l2:
            g = g + cfg.l2 * p.data
        if cfg.optimizer == "adagrad":
            p.accumulator += g * g
            p.data -= cfg.alpha * g / np.sqrt(p.accumulator + ADAGRAD_EPS)
        else:
            p.data -= cfg.alpha * g
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
        for chunk in length_chunks([len(corpus[i]) for i in batch], TRAIN_CHUNK_CHARS):
            sentences = batch[chunk]
            ids = CharIds.pack(model.vocab.encode(corpus[i].chars, model.cfg.use_bigram)
                               for i in sentences)
            gold = np.concatenate([model.tagset.encode(corpus[i].tags) for i in sentences])
            try:
                diff, chunk_losses, _ = hinge_loss_graph(model, ids, gold, cfg.eta)
                if chunk_losses.any():
                    diff.backward()
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


def evaluate(model, sentences, mode="joint"):
    """Tag the raw characters of gold sentences and score P/R/F."""
    gold_spans = [ev.decode_tags_to_words(s.tags) for s in sentences]
    pred_spans = [ev.decode_tags_to_words(tags)
                  for tags in model.tag_batch([s.chars for s in sentences])]
    return ev.score_prf(gold_spans, pred_spans, mode)


@dataclass
class Snapshot:
    epoch: int
    state: list
    dev_f1: float | None = None


def select_best(snapshots, dev, model):
    """Restore the snapshot with the highest dev joint F1 (ties keep the
    earlier epoch); with no dev data, fall back to the final epoch."""
    if not snapshots:
        raise ValueError("no snapshots to select from")
    if not dev:
        log.warning("empty dev set: keeping the final epoch's model")
        best = snapshots[-1]
        model.load_state(best.state)
        return best
    best = None
    for snap in snapshots:
        if snap.dev_f1 is None:
            model.load_state(snap.state)
            _, _, snap.dev_f1 = evaluate(model, dev)
        if best is None or snap.dev_f1 > best.dev_f1:
            best = snap
    model.load_state(best.state)
    return best


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
    dev P, dev R, dev F, seconds. Returns the winning Snapshot and leaves the
    model holding that snapshot's parameters.
    """
    stream = sys.stderr if log_stream is None else log_stream
    if dev is None:
        corpus, dev = split_dev(corpus, cfg)
    if not corpus:
        raise ValueError("no training sentences left after the dev split")
    snapshots = []
    for epoch in range(1, cfg.max_epochs + 1):
        stats = train_epoch(corpus, model, cfg, epoch)
        if dev:
            p, r, f = evaluate(model, dev)
        else:
            p = r = f = float("nan")
        obj = stats.mean_loss + stats.regularizer
        print(f"{epoch}\t{stats.mean_loss:.6f}\t{obj:.6f}\t{p:.4f}\t{r:.4f}\t{f:.4f}"
              f"\t{stats.seconds:.2f}", file=stream)
        snapshots.append(Snapshot(epoch, model.snapshot(), f if dev else None))
    return select_best(snapshots, dev, model)
