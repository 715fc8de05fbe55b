"""Corpus ingestion for joint segmentation and tagging.

Reads one sentence per line of whitespace-separated "word/POS" tokens,
expands each word into per-character position tags (B/M/E/S crossed with
the POS label), and builds the character vocabulary and joint tag set.
Also loads pre-trained character embeddings in the word2vec text format.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import evaluation as ev
from .encoder import CharIds
from .files import read_text

log = logging.getLogger(__name__)

SEG_LABELS = ("B", "M", "E", "S")

# between a word and its POS label in a "word/POS" token
WORD_POS_SEP = "/"

# sentence-boundary marker used inside bigram keys; never occurs in text
BOUNDARY = "\x00"

# full-width ASCII variants to their half-width forms (U+FF01..U+FF5E)
_FULLWIDTH = {chr(c): chr(c - 0xFEE0) for c in range(0xFF01, 0xFF5F)}


def fold_width(text):
    """Map full-width ASCII variants to half-width; other characters pass."""
    return "".join(_FULLWIDTH.get(c, c) for c in text)


class CorpusFormatError(ValueError):
    """A corpus line does not parse; the message cites the line number."""


class EmbeddingFormatError(ValueError):
    """A pre-trained embedding file does not parse or has the wrong width."""


class JointTag(NamedTuple):
    """One character's label: word-position tag (B/M/E/S) crossed with a
    POS label. A plain tuple, so equality and hashing run in C; TagSet
    checks the position tag of tags that arrive from outside."""

    seg: str
    pos: str

    def __str__(self):
        return f"{self.seg}-{self.pos}"


@dataclass
class Sentence:
    """A character sequence with its gold joint tags."""

    chars: list
    tags: list

    def __post_init__(self):
        if len(self.tags) != len(self.chars):
            raise ValueError(
                f"{len(self.tags)} tags for {len(self.chars)} characters"
            )

    def __len__(self):
        return len(self.chars)


_WORD_TAGS = {}    # pos -> its (S, B, M, E) tags, shared by every word labelled pos


def expand_word(word, pos):
    """Per-character tags for one word: S alone, B..E, or B M.. E, drawn
    from the POS label's four shared tags."""
    n = len(word)
    if n == 0:
        raise ValueError("cannot expand an empty word")
    tags = _WORD_TAGS.get(pos)
    if tags is None:
        tags = _WORD_TAGS[pos] = tuple(JointTag(seg, pos) for seg in "SBME")
    single, begin, middle, end = tags
    if n == 1:
        return [single]
    return [begin, *[middle] * (n - 2), end]


def parse_tagged_corpus(lines, strict=True, normalize_width=False):
    """Parse "word/POS" lines into Sentences.

    A token is split at the last WORD_POS_SEP, so words containing the
    separator survive. Malformed tokens raise CorpusFormatError in strict
    mode; in lenient mode they are skipped and counted in a single warning.
    normalize_width folds full-width ASCII variants in words (not POS
    labels) to half-width; off by default since it changes gold alignment.
    Each word's tags come from its POS label's four shared tags, so parsing
    makes no object per character.
    """
    sentences = []
    malformed = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        chars, tags = [], []
        for token in line.split():
            cut = token.rfind(WORD_POS_SEP)
            if cut <= 0 or cut == len(token) - 1:
                if strict:
                    raise CorpusFormatError(
                        f"line {lineno}: token {token!r} is not word{WORD_POS_SEP}POS"
                    )
                malformed += 1
                continue
            word, pos = token[:cut], token[cut + 1:]
            if normalize_width:
                word = fold_width(word)
            chars.extend(word)
            tags += expand_word(word, pos)
        if chars:
            sentences.append(Sentence(chars, tags))
    if malformed:
        log.warning("skipped %d malformed tokens", malformed)
    return sentences


def format_words(chars, path, rule):
    """One "word/POS ..." line of chars (a str or a list of characters): the
    evaluation.word_spans of their tag-index path over the alphabet of
    `rule`, illegal BMES runs repaired."""
    return " ".join("".join(chars[s.start:s.end]) + WORD_POS_SEP + s.pos
                    for s in ev.word_spans(path, rule))


class Vocab:
    """Character and bigram index maps with unk at 0 and pad at 1.

    encode maps every unknown character or bigram to UNK and never returns
    PAD: boundary bigrams are ordinary entries keyed with BOUNDARY (UNK when
    rarer than the bigram cutoff). Row PAD of each embedding table is kept
    unread so that model files keep their table shapes.
    """

    UNK, PAD = 0, 1

    def __init__(self, chars, bigrams=None):
        self.char_to_id = {c: i + 2 for i, c in enumerate(chars)}
        self.bigram_to_id = {b: i + 2 for i, b in enumerate(bigrams or [])}

    @property
    def chars(self):
        return list(self.char_to_id)

    @property
    def bigrams(self):
        return list(self.bigram_to_id)

    @property
    def n_chars(self):
        """Embedding rows needed for characters, reserved slots included."""
        return len(self.char_to_id) + 2

    @property
    def n_bigrams(self):
        return len(self.bigram_to_id) + 2

    def encode(self, chars, use_bigram=False):
        """Index one sentence; boundary bigrams are keyed with BOUNDARY."""
        n = len(chars)
        uni = np.fromiter(map(self.char_to_id.get, chars, repeat(self.UNK)),
                          dtype=np.intp, count=n)
        if not use_bigram:
            return CharIds(uni=uni)
        # pair j of the padded sentence is (c[j-1], c[j]): c[i]'s left bigram is pair i,
        # its right bigram pair i + 1
        padded = [BOUNDARY, *chars, BOUNDARY]
        bi = np.fromiter(map(self.bigram_to_id.get, zip(padded, padded[1:]), repeat(self.UNK)),
                         dtype=np.intp, count=n + 1)
        return CharIds(uni=uni, bi_left=bi[:-1], bi_right=bi[1:])


class TagSet:
    """Ordered joint tag alphabet with a stable POS-major, seg-minor layout;
    its POS labels are its tags', sorted."""

    def __init__(self, tags):
        self._tags = list(tags)
        for t in self._tags:
            if t.seg not in SEG_LABELS:
                raise ValueError(f"segment tag must be one of {SEG_LABELS}, got {t.seg!r}")
        self.pos_labels = sorted({t.pos for t in self._tags})
        self._index = {t: i for i, t in enumerate(self._tags)}
        if len(self._index) != len(self._tags):
            raise ValueError("a tag appears more than once")

    @classmethod
    def cross_product(cls, pos_labels):
        return cls(JointTag(seg, pos) for pos in sorted(set(pos_labels)) for seg in SEG_LABELS)

    @classmethod
    def observed_only(cls, tag_counts):
        return cls(sorted(tag_counts, key=lambda t: (t.pos, SEG_LABELS.index(t.seg))))

    def decode(self, ids):
        """The joint tags of tag indices, such as a Viterbi path."""
        return list(map(self._tags.__getitem__, ids))

    def __len__(self):
        return len(self._tags)

    def __iter__(self):
        return iter(self._tags)

    def encode(self, tags):
        try:
            return np.fromiter(map(self._index.__getitem__, tags), dtype=np.intp, count=len(tags))
        except KeyError as e:
            raise ValueError(f"tag {e.args[0]} not in tag set") from None


def build_vocab_and_tagset(sentences, min_count=1, bigram_min_count=2,
                           use_bigram=False, observed_tags_only=False):
    """Character/bigram maps plus the joint tag set from a gold corpus.

    Characters (and bigrams) below their frequency cutoffs map to unk at
    embedding time. The tag set is the full {B,M,E,S} x POS cross product
    unless observed_tags_only restricts it to combinations seen in training.
    """
    sentences = list(sentences)
    if not sentences:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    char_freq = Counter()
    bigram_freq = Counter()
    tag_counts = Counter()
    for s in sentences:
        char_freq.update(s.chars)
        if use_bigram:
            padded = [BOUNDARY] + list(s.chars) + [BOUNDARY]
            bigram_freq.update(zip(padded, padded[1:]))
        tag_counts.update(s.tags)
    chars = sorted(c for c, f in char_freq.items() if f >= min_count)
    bigrams = sorted(b for b, f in bigram_freq.items() if f >= bigram_min_count)
    vocab = Vocab(chars, bigrams)
    if not tag_counts:
        raise ValueError("corpus has no gold tags to build a tag set from")
    if observed_tags_only:
        tagset = TagSet.observed_only(tag_counts)
    else:
        tagset = TagSet.cross_product({t.pos for t in tag_counts})
    return vocab, tagset


@dataclass
class EmbeddingLoadStats:
    loaded: int
    skipped: int
    coverage: float   # loaded / |C|, over the real character vocabulary

    def __str__(self):
        return f"loaded {self.loaded} rows, skipped {self.skipped}, coverage {self.coverage:.1%}"


def load_pretrained_embeddings(path, vocab, table):
    """Fill rows of a character embedding table, such as a model's
    `embed.unigram` Parameter, in place from a word2vec-format text file.

    The file starts with a "<count> <dim>" header, dim being the table's
    width; each of the count lines after it is a distinct token and dim
    whitespace-separated finite reals. Rows for in-vocabulary characters are
    copied once the whole file is checked; the rest keep their values and
    count as skipped. Every EmbeddingFormatError names the file, and the line
    when it has one.
    """
    def bad(what, lineno=None):
        where = path if lineno is None else f"{path} line {lineno}"
        return EmbeddingFormatError(f"{where}: {what}")

    d = table.shape[1]
    with read_text(path, "embeddings") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise bad("missing '<count> <dim>' header line")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise bad(f"bad header {' '.join(header)!r}") from None
        if count < 0:
            raise bad(f"negative row count {count}", 1)
        if dim != d:
            raise bad(f"file dimension {dim} != model dimension {d}")
        first_line, found = {}, {}      # token -> its line; table row -> its vector
        for lineno, line in enumerate(f, start=2):
            fields = line.rstrip("\n").split()
            if not fields:
                continue
            if len(fields) != dim + 1:
                raise bad(f"expected token + {dim} values, got {len(fields) - 1}", lineno)
            token = fields[0]
            try:
                with np.errstate(over="ignore"):    # past the table's range is inf, refused below
                    vec = np.array([float(v) for v in fields[1:]], dtype=table.dtype)
            except ValueError:
                raise bad("malformed float", lineno) from None
            if not np.isfinite(vec).all():
                raise bad("NaN or infinite value", lineno)
            if token in first_line:
                raise bad(f"token {token!r} repeats line {first_line[token]}", lineno)
            first_line[token] = lineno
            row = vocab.char_to_id.get(token)
            if row is not None:
                found[row] = vec
    if len(first_line) != count:
        raise bad(f"header counts {count} rows, the file holds {len(first_line)}")
    for row, vec in found.items():
        table.data[row] = vec
    denom = max(len(vocab.char_to_id), 1)
    return table, EmbeddingLoadStats(len(found), count - len(found), len(found) / denom)
