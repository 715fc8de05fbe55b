"""Seeded inputs for the benchmark: two synthetic languages and their sentences.

Both languages are unambiguous: every character belongs to exactly one word of
the inventory, so each character has exactly one gold joint tag and a capable
model can tag every sentence correctly.

* toy: the 7-word, 12-character inventory of ``segtag.toydata`` (3 POS labels,
  12 joint tags) with uniform word frequencies.
* wide: 600 CJK characters in about 300 words over 32 POS labels (128 joint
  tags) with Zipf word frequencies. The inventory is drawn once from a fixed
  seed, so the committed model and every workload seed share one language.

Generators take anything ``numpy.random.default_rng`` accepts as a seed and
return sentences as lists of ``(word, pos)`` pairs; the same seed always gives
the same sentences.
"""
from __future__ import annotations

import numpy as np

# A frozen copy of segtag.toydata.WORD_INVENTORY: the committed toy model was
# trained on exactly this language.
TOY_INVENTORY = (
    ("ab", "NN"),
    ("cde", "NN"),
    ("f", "NN"),
    ("gh", "VV"),
    ("ij", "VV"),
    ("k", "PU"),
    ("l", "PU"),
)

WIDE_CHARS = 600
WIDE_POS = tuple(f"P{i:02d}" for i in range(32))
WIDE_WORD_LENGTHS = (1, 2, 3, 4)
WIDE_WORD_LENGTH_P = (0.3, 0.45, 0.17, 0.08)
WIDE_INVENTORY_SEED = 1611_05384


def wide_language(seed=WIDE_INVENTORY_SEED):
    """The wide inventory as ((word, pos), ...) plus each word's frequency.

    Characters come from the CJK block U+4E00..U+9FFF without repeats, so no
    character is shared between words. Every POS label owns at least one
    word. Frequencies follow Zipf's law (p ~ 1/rank) over a random ranking.
    """
    rng = np.random.default_rng(seed)
    chars = [chr(0x4E00 + int(c)) for c in rng.choice(0x5200, size=WIDE_CHARS, replace=False)]
    words = []
    while chars:
        k = int(rng.choice(WIDE_WORD_LENGTHS, p=WIDE_WORD_LENGTH_P))
        words.append("".join(chars[:k]))
        chars = chars[k:]
    extra = rng.integers(0, len(WIDE_POS), size=len(words) - len(WIDE_POS))
    pos = rng.permutation(list(WIDE_POS) + [WIDE_POS[i] for i in extra])
    weights = 1.0 / (rng.permutation(len(words)) + 1)
    return tuple(zip(words, (str(p) for p in pos))), weights / weights.sum()


def toy_sentences(n, seed, min_words=10, max_words=20):
    """n sentences of min_words..max_words uniformly drawn toy words."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(min_words, max_words + 1))
        out.append([TOY_INVENTORY[i] for i in rng.integers(0, len(TOY_INVENTORY), size=k)])
    return out


def wide_sentences(n, seed, min_chars=150, max_chars=250):
    """n sentences of Zipf-drawn wide words, each at least a target length
    drawn from min_chars..max_chars (and at most 3 characters longer)."""
    inventory, probs = wide_language()
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        target = int(rng.integers(min_chars, max_chars + 1))
        sentence, length = [], 0
        while length < target:
            for i in rng.choice(len(inventory), size=64, p=probs):
                sentence.append(inventory[i])
                length += len(inventory[i][0])
                if length >= target:
                    break
        out.append(sentence)
    return out


def n_chars(sentences):
    return sum(len(w) for s in sentences for w, _ in s)


def n_words(sentences):
    return sum(len(s) for s in sentences)


def write_gold(path, sentences):
    """UTF-8 corpus, one sentence per line of space-separated word/POS tokens."""
    with open(path, "w", encoding="utf-8") as f:
        for s in sentences:
            f.write(" ".join(f"{w}/{p}" for w, p in s) + "\n")


def write_raw(path, sentences):
    """UTF-8 raw text, one unsegmented sentence per line."""
    with open(path, "w", encoding="utf-8") as f:
        for s in sentences:
            f.write("".join(w for w, _ in s) + "\n")
