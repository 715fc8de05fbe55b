"""Versioned binary model files.

Layout (all integers little-endian, strings UTF-8 with a u32 length prefix):

    magic           6 bytes  "FJSTM1"
    version         u32      2
    encoder config  u32 d, u32 h, u32 Q, u32[Q] map widths, u8 use_conv,
                    u8 use_pooling, u8 use_highway, u8 recurrent code
                    (0 none / 1 lstm / 2 blstm), u8 mlp_baseline, u32 window,
                    u8 use_bigram, u8 constrain_transitions
    preprocessing   u8 normalize_width (the training text was width-folded,
                    so tagging folds its input too)
    train config    f64 alpha, f64 eta, f64 l2, u32 batch_size, u32 max_epochs,
                    i64 seed, f64 dev_fraction, str optimizer,
                    u8 finetune_embeddings
    vocabulary      u32 char count + chars in index order; u32 bigram count +
                    (str, str) pairs in index order; u32 frequency count +
                    (str char, u64 count) sorted by char
    tag set         u32 POS count + labels; u32 tag count + (str seg, str pos)
    parameters      u32 block count; per block str name, u32 ndim, u32[ndim]
                    shape, then f32 values row-major (32-bit on disk
                    regardless of the in-memory compute precision)
    checksum        u32 CRC-32 of every preceding byte

Parameter blocks follow the model's manifest (``encoder.parameter_manifest``);
the LSTM gate blocks inside each weight matrix are stored in (input, output,
forget, candidate) order. Saving is byte-deterministic, and it refuses a
parameter that would be stored as NaN/Inf, as loading does. Loading verifies the
checksum before trusting any content, checks every block's name, shape and
size against the manifest of the stored config, vocabulary and tag set before
it allocates a parameter, and builds the model from the stored arrays with
no random draw. A stored config, tag set or block that fails validation
(NaN/Inf included, which Model checks) raises ModelCorruptionError.

Saving always writes version 2. Version 1 files still load: they have no
preprocessing byte (normalize_width reads as 0), and their train config
holds one more u8 between optimizer and finetune_embeddings, a flag that
never changed training, which the reader skips.
"""
from __future__ import annotations

import io
import math
import struct
import zlib

import numpy as np

from .autograd import NumericError
from .corpus import JointTag, TagSet, Vocab
from .encoder import ConfigError, EncoderConfig, parameter_manifest
from .model import Model
from .training import TrainConfig

MAGIC = b"FJSTM1"
VERSION = 2
READABLE_VERSIONS = (1, 2)

_RECURRENT_CODES = {"none": 0, "lstm": 1, "blstm": 2}
_RECURRENT_NAMES = {v: k for k, v in _RECURRENT_CODES.items()}


class ModelFormatError(ValueError):
    """The file is not a model file (bad magic)."""


class ModelVersionError(ValueError):
    """The file's format version is not one this reader supports."""


class ModelCorruptionError(ValueError):
    """The file is truncated, fails its checksum, or contradicts its manifest."""


# The fixed-width records of the layout above, each stated once for save and
# load. "?" is a u8 flag; any nonzero byte reads as true.
_ENCODER_WIDTHS = "<III"        # d, h, Q; the Q map widths follow as "<{Q}I"
# use_conv, use_pooling, use_highway, recurrent code, mlp_baseline, window,
# use_bigram, constrain_transitions
_ENCODER_SWITCHES = "<???B?I??"
_TRAIN_NUMBERS = "<dddIIqd"     # the _TRAIN_NUMBER_FIELDS, in order
_TRAIN_NUMBER_FIELDS = ("alpha", "eta", "l2", "batch_size", "max_epochs", "seed",
                        "dev_fraction")


class _Writer(io.BytesIO):
    def put(self, fmt, *values):
        self.write(struct.pack(fmt, *values))

    def string(self, s):
        data = s.encode("utf-8")
        self.put("<I", len(data))
        self.write(data)


class _Reader:
    def __init__(self, data):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise ModelCorruptionError("model file is truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def get(self, fmt):
        """The values of one record; a truncated record is refused unread."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self):
        (n,) = self.get("<I")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as e:
            raise ModelCorruptionError(f"undecodable string field: {e}") from None


def _write_encoder_config(w, cfg, constrained):
    w.put(_ENCODER_WIDTHS, cfg.d, cfg.h, cfg.feature_map_sets)
    w.put(f"<{cfg.feature_map_sets}I", *cfg.feature_maps)
    w.put(_ENCODER_SWITCHES, cfg.use_conv, cfg.use_pooling, cfg.use_highway,
          _RECURRENT_CODES[cfg.recurrent], cfg.mlp_baseline, cfg.window, cfg.use_bigram,
          constrained)


def _read_encoder_config(r):
    d, h, q = r.get(_ENCODER_WIDTHS)
    maps = r.get(f"<{q}I")
    conv, pooling, highway, code, mlp, window, bigram, constrained = r.get(_ENCODER_SWITCHES)
    if code not in _RECURRENT_NAMES:
        raise ModelCorruptionError(f"unknown recurrent layer code {code}")
    try:
        cfg = EncoderConfig(d=d, h=h, feature_map_sets=q, feature_maps=maps,
                            use_conv=conv, use_pooling=pooling, use_highway=highway,
                            recurrent=_RECURRENT_NAMES[code], mlp_baseline=mlp,
                            window=window, use_bigram=bigram)
    except ConfigError as e:
        raise ModelCorruptionError(f"stored encoder config is invalid: {e}") from None
    return cfg, constrained


def _write_train_config(w, tc):
    w.put(_TRAIN_NUMBERS, *(getattr(tc, f) for f in _TRAIN_NUMBER_FIELDS))
    w.string(tc.optimizer)
    w.put("<?", tc.finetune_embeddings)


def _read_train_config(r, version):
    fields = dict(zip(_TRAIN_NUMBER_FIELDS, r.get(_TRAIN_NUMBERS)), optimizer=r.string())
    if version == 1:
        r.take(1)   # version 1's deterministic flag, which nothing read
    (fields["finetune_embeddings"],) = r.get("<?")
    try:
        return TrainConfig(**fields)
    except ValueError as e:
        raise ModelCorruptionError(f"stored train config is invalid: {e}") from None


def _write_vocab(w, vocab):
    w.put("<I", len(vocab.chars))
    for c in vocab.chars:
        w.string(c)
    w.put("<I", len(vocab.bigrams))
    for a, b in vocab.bigrams:
        w.string(a)
        w.string(b)
    w.put("<I", len(vocab.char_freq))
    for c, n in sorted(vocab.char_freq.items()):
        w.string(c)
        w.put("<Q", n)


def _read_vocab(r):
    chars = [r.string() for _ in range(r.get("<I")[0])]
    bigrams = [(r.string(), r.string()) for _ in range(r.get("<I")[0])]
    freq = {r.string(): r.get("<Q")[0] for _ in range(r.get("<I")[0])}
    return Vocab(chars, bigrams, freq)


def _write_tagset(w, tagset):
    w.put("<I", len(tagset.pos_labels))
    for p in tagset.pos_labels:
        w.string(p)
    w.put("<I", len(tagset))
    for t in tagset:
        w.string(t.seg)
        w.string(t.pos)


def _read_tagset(r):
    labels = [r.string() for _ in range(r.get("<I")[0])]
    pairs = [(r.string(), r.string()) for _ in range(r.get("<I")[0])]
    if not pairs:
        raise ModelCorruptionError("stored tag set is empty")
    try:
        tagset = TagSet(JointTag(seg, pos) for seg, pos in pairs)
        if tagset.pos_labels != labels:
            raise ValueError(f"POS labels {labels} are not its tags' {tagset.pos_labels}")
    except ValueError as e:
        raise ModelCorruptionError(f"stored tag set is invalid: {e}") from None
    return tagset


def save(model, path, train_cfg=None):
    """Write the model; returns the file's CRC-32 checksum.

    A parameter that holds NaN/Inf once stored as float32 (a value past its
    range included) is refused with a NumericError naming it before the file
    is opened, since load would refuse the file.
    """
    tc = train_cfg or model.train_cfg or TrainConfig()
    w = _Writer()
    w.write(MAGIC)
    w.put("<I", VERSION)
    _write_encoder_config(w, model.cfg, model.constrained)
    w.put("<?", model.normalize_width)
    _write_train_config(w, tc)
    _write_vocab(w, model.vocab)
    _write_tagset(w, model.tagset)
    params = model.parameters()
    w.put("<I", len(params))
    for name, p in params:
        with np.errstate(over="ignore"):    # past float32's range is inf, refused next
            values = np.ascontiguousarray(p.data, dtype="<f4")
        if not np.isfinite(values).all():
            raise NumericError(f"parameter {name!r} holds NaN/Inf; not saving {path}")
        w.string(name)
        w.put(f"<I{values.ndim}I", values.ndim, *values.shape)
        w.write(values)
    body = w.getvalue()
    checksum = zlib.crc32(body)
    try:
        with open(path, "wb") as f:
            f.write(body)
            f.write(struct.pack("<I", checksum))
    except OSError as e:
        raise OSError(f"cannot write model to {path}: {e}") from e
    return checksum


def load(path):
    """Read a model back; the result tags identically to what was saved."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise OSError(f"cannot read model from {path}: {e}") from e
    if len(blob) < len(MAGIC) or blob[:len(MAGIC)] != MAGIC:
        raise ModelFormatError(f"{path} is not a model file (magic mismatch)")
    if len(blob) < len(MAGIC) + 8:
        raise ModelCorruptionError("model file is truncated")
    body, stored = memoryview(blob)[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != stored:
        raise ModelCorruptionError(f"{path} fails its checksum")
    r = _Reader(body)
    r.take(len(MAGIC))
    (version,) = r.get("<I")
    if version not in READABLE_VERSIONS:
        raise ModelVersionError(
            f"file version {version} is not supported (readable: {READABLE_VERSIONS})")
    cfg, constrained = _read_encoder_config(r)
    (normalize_width,) = r.get("<?") if version >= 2 else (False,)
    train_cfg = _read_train_config(r, version)
    vocab = _read_vocab(r)
    tagset = _read_tagset(r)
    manifest = parameter_manifest(cfg, vocab.n_chars, vocab.n_bigrams, len(tagset))
    (n_blocks,) = r.get("<I")
    if n_blocks != len(manifest):
        raise ModelCorruptionError(
            f"file holds {n_blocks} parameter blocks, model expects {len(manifest)}"
        )
    blocks = []
    for name, shape in manifest:
        stored_name = r.string()
        if stored_name != name:
            raise ModelCorruptionError(f"parameter {stored_name!r} where {name!r} expected")
        (ndim,) = r.get("<I")
        stored = r.get(f"<{ndim}I")
        if stored != shape:
            raise ModelCorruptionError(f"{name}: stored shape {stored} != {shape}")
        blocks.append(np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4").reshape(shape))
    if r.pos != len(body):
        raise ModelCorruptionError(f"{len(body) - r.pos} trailing bytes after parameters")
    try:
        model = Model(cfg, vocab, tagset, constrain_transitions=constrained,
                      normalize_width=normalize_width,
                      state=[v.astype(np.float32) for v in blocks])
    except NumericError as e:   # Model's finite check, naming the block
        raise ModelCorruptionError(f"stored {e}") from None
    model.train_cfg = train_cfg
    return model
