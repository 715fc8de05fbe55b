"""Train a small model end to end on the synthetic corpus.

Max-margin training: for each sentence, decode the most violating
competitor under the hamming-augmented lattice; backpropagate the score
differences of a packed chunk of sentences at once, and apply AdaGrad per
batch. The toy language has an unambiguous
character-to-word mapping, so the model should reach perfect F1 quickly.
"""
import sys
import tempfile
from pathlib import Path

from segtag import corpus as cp
from segtag import evaluation as ev
from segtag import modelfile as mf
from segtag import training as tr
from segtag.encoder import EncoderConfig
from segtag.model import Model
from segtag.toydata import WORD_INVENTORY, toy_corpus

print("word inventory:", ", ".join(f"{w}/{p}" for w, p in WORD_INVENTORY))

sentences = toy_corpus(50, seed=0)
vocab, tagset = cp.build_vocab_and_tagset(sentences)
print(f"{len(sentences)} sentences, {len(vocab.chars)} characters, "
      f"{len(tagset)} joint tags ({' '.join(tagset.pos_labels)})\n")

cfg = EncoderConfig(d=16, h=16, feature_map_sets=3, feature_maps=16)
model = Model(cfg, vocab, tagset, seed=1)
train_cfg = tr.TrainConfig(max_epochs=8, seed=1)

print("epoch\tmean-loss\tJ(theta)\tdev-P\tdev-R\tdev-F\tseconds")
best = tr.train(sentences, model, train_cfg, log_stream=sys.stdout)
print(f"\nkept epoch {best.epoch} (dev F1 {best.dev_f1:.4f})")

p, r, f = tr.evaluate(model, sentences)
print(f"training-set joint F1 {f:.4f}")

# Round-trip through the model file and tag some raw text.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "toy.model"
    mf.save(model, path)
    reloaded = mf.load(path)
print(f"\nsaved and reloaded {path.name}; tagging raw input:")
for line in ("abcdegh", "ijklf"):
    spans = ev.decode_tags_to_words(reloaded.tag_chars(list(line)))
    words = " ".join(f"{line[s.start:s.end]}/{s.pos}" for s in spans)
    print(f"  {line} -> {words}")
