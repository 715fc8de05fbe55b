"""A miniature ablation study across encoder topologies.

Trains one model per topology on the same toy split with the same seed and
reports held-out joint F1, mirroring the shape of the published component
ablation (feature stack depth against recurrent flavor) at desk scale.
"""
import time

from segtag import corpus as cp
from segtag import training as tr
from segtag.encoder import RECURRENT_KINDS, EncoderConfig, unread_widths
from segtag.model import Model
from segtag.toydata import toy_corpus

train_set = toy_corpus(50, seed=0)
heldout = toy_corpus(20, seed=100)
vocab, tagset = cp.build_vocab_and_tagset(train_set)

# EncoderConfig.stack level -> the paper's row label; each adds one stage
STACKS = {"embed": "w/o CNN", "conv": "CNN", "pool": "CNN+Pool", "highway": "CNN+Pool+Highway"}


def run(stack, recurrent, epochs=10):
    # each width goes only to a topology that reads it; one that does not
    # would refuse it
    unread = unread_widths(stack, recurrent)
    widths = {k: v for k, v in dict(h=16, feature_map_sets=3, feature_maps=16).items()
              if k not in unread}
    cfg = EncoderConfig(d=16, stack=stack, recurrent=recurrent, **widths)
    model = Model(cfg, vocab, tagset, seed=1)
    train_cfg = tr.TrainConfig(seed=1)
    for epoch in range(1, epochs + 1):
        tr.train_epoch(train_set, model, train_cfg, epoch)
    return tr.evaluate(model, heldout)[2]


print(f"{'stack':<18}" + "".join(f"{r:>8}" for r in RECURRENT_KINDS))
start = time.perf_counter()
for stack, name in STACKS.items():
    scores = [run(stack, r) for r in RECURRENT_KINDS]
    print(f"{name:<18}" + "".join(f"{s:8.4f}" for s in scores))
print(f"\n12 toy-scale trainings in {time.perf_counter() - start:.1f}s")
print("(held-out joint F1; the toy language is easy enough that most "
      "topologies saturate)")
