"""Regenerate the committed tag-workload models.

    python3 perfbench/make_models.py

Each model is trained at the published widths (d=50, h=100, Q=5, l_q=100,
BLSTM) by ``segtag train`` itself and saved by it with ``segtag.modelfile``.
Corpora, initialization and shuffling are seeded, so a rerun on the same
numpy/BLAS build writes the same files. The files are committed so that the
benchmark of a parent commit and of a change tag with the same parameters:
``joint_f1`` then compares only the tagging arithmetic.

* toy.model: toy language, ``TrainConfig`` defaults, 3 epochs.
* wide.model: wide language with BMES-constrained transitions, learning rate
  0.05 (the default 0.2 diverges on 128 tags), 8 epochs. The training corpus
  ends with the inventory listed 40 words a line, so every character and POS
  label is in the vocabulary.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from segtag import cli  # noqa: E402

import workloads as wl  # noqa: E402

MODEL_DIR = HERE / "models"
MODEL_SEED = 2016


def corpora(name):
    """(training sentences, dev sentences, config-file settings) of one model."""
    if name == "toy":
        return (wl.toy_sentences(400, [MODEL_SEED, 0]),
                wl.toy_sentences(40, [MODEL_SEED, 1]),
                {"epochs": 3})
    inventory, _ = wl.wide_language()
    dictionary = [list(inventory[i:i + 40]) for i in range(0, len(inventory), 40)]
    return (wl.wide_sentences(250, [MODEL_SEED, 2], 30, 80) + dictionary,
            wl.wide_sentences(10, [MODEL_SEED, 3]),
            {"epochs": 8, "lr": 0.05, "constrain_transitions": "true"})


def make(name, work_dir):
    train, dev, settings = corpora(name)
    paths = {k: work_dir / f"model-{name}.{k}" for k in ("train", "dev", "config")}
    wl.write_gold(paths["train"], train)
    wl.write_gold(paths["dev"], dev)
    paths["config"].write_text("".join(f"{k} = {v}\n" for k, v in settings.items()),
                               encoding="utf-8")
    return cli.main(["train", "--config", str(paths["config"]), "--seed", "1",
                     "--corpus", str(paths["train"]), "--dev", str(paths["dev"]),
                     "--model", str(MODEL_DIR / f"{name}.model")])


def main(names):
    work_dir = HERE / "out"
    work_dir.mkdir(exist_ok=True)
    MODEL_DIR.mkdir(exist_ok=True)
    return max(make(name, work_dir) for name in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["toy", "wide"]))
