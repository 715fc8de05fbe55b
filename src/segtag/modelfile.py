"""Versioned binary model files.

Layout (all integers little-endian, strings UTF-8 with a u32 length prefix):

    magic           6 bytes  "FJSTM1"
    version         u32      3
    encoder config  u32 d, u32 h, u32 Q, u32[Q] map widths, u8 use_conv,
                    u8 use_pooling, u8 use_highway, u8 recurrent code
                    (0 none / 1 lstm / 2 blstm), u8 mlp_baseline, u32 window,
                    u8 use_bigram, u8 constrain_transitions; the four
                    flag bytes encode the stack (_STACK_FLAGS)
    preprocessing   u8 normalize_width (the training text was width-folded,
                    so tagging folds its input too)
    vocabulary      u32 char count + chars in index order; u32 bigram count +
                    (str, str) pairs in index order
    tag set         u32 tag count + (str seg, str pos) pairs; the POS labels
                    are the tags', sorted
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

Saving always writes version 3. Version 1 and 2 files still load. They hold
three more sections, which nothing reads and the reader skips:

    train config    after preprocessing: f64 alpha, f64 eta, f64 l2,
                    u32 batch_size, u32 max_epochs, i64 seed, f64 dev_fraction,
                    str optimizer, u8 finetune_embeddings (version 1 has one
                    more u8 before finetune_embeddings)
    frequencies     after the bigrams: u32 count + (str char, u64 count) pairs
    POS labels      before the tags: u32 count + labels

A skipped section that is truncated or holds an undecodable string is still
a ModelCorruptionError. Version 1 has no preprocessing byte: normalize_width
reads as off. A width the topology does not read is saved at its canonical
value (encoder.WIDTHS); loading drops any other value an older file stored.
"""
from __future__ import annotations

import io
import math
import struct
import zlib

import numpy as np

from .autograd import NumericError
from .corpus import JointTag, TagSet, Vocab
from .encoder import ConfigError, EncoderConfig, parameter_manifest, unread_widths
from .files import read_bytes, replace_file
from .model import Model

MAGIC = b"FJSTM1"
VERSION = 3
READABLE_VERSIONS = (1, 2, 3)

_RECURRENT_CODES = {"none": 0, "lstm": 1, "blstm": 2}
_RECURRENT_NAMES = {v: k for k, v in _RECURRENT_CODES.items()}
# stack -> its stored use_conv, use_pooling, use_highway, mlp_baseline bytes
_STACK_FLAGS = {"embed": (0, 0, 0, 0), "conv": (1, 0, 0, 0), "pool": (1, 1, 0, 0),
                "highway": (1, 1, 1, 0), "mlp": (0, 0, 0, 1)}
_FLAG_STACKS = {v: k for k, v in _STACK_FLAGS.items()}


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
# the numbers of a version 1 or 2 train config: alpha, eta, l2, batch_size,
# max_epochs, seed, dev_fraction
_OLD_TRAIN_NUMBERS = "<dddIIqd"


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
    conv, pooling, highway, mlp = _STACK_FLAGS[cfg.stack]
    w.put(_ENCODER_SWITCHES, conv, pooling, highway, _RECURRENT_CODES[cfg.recurrent], mlp,
          cfg.window, cfg.use_bigram, constrained)


def _read_encoder_config(r):
    d, h, q = r.get(_ENCODER_WIDTHS)
    maps = r.get(f"<{q}I")
    conv, pooling, highway, code, mlp, window, bigram, constrained = r.get(_ENCODER_SWITCHES)
    recurrent = _RECURRENT_NAMES.get(code)
    if recurrent is None:
        raise ModelCorruptionError(f"unknown recurrent layer code {code}")
    stack = _FLAG_STACKS.get((conv, pooling, highway, mlp))
    if stack is None:
        raise ModelCorruptionError(f"stored flags use_conv={conv:d} use_pooling={pooling:d} "
                                   f"use_highway={highway:d} mlp_baseline={mlp:d} name no stack")
    widths = dict(h=h, feature_map_sets=q, feature_maps=maps)
    for field in unread_widths(stack, recurrent):   # an older file may hold any value there
        del widths[field]
    try:
        cfg = EncoderConfig(d=d, stack=stack, recurrent=recurrent, window=window,
                            use_bigram=bigram, **widths)
    except ConfigError as e:
        raise ModelCorruptionError(f"stored encoder config is invalid: {e}") from None
    return cfg, constrained


def _write_vocab(w, vocab):
    w.put("<I", len(vocab.chars))
    for c in vocab.chars:
        w.string(c)
    w.put("<I", len(vocab.bigrams))
    for a, b in vocab.bigrams:
        w.string(a)
        w.string(b)


def _read_vocab(r, version):
    chars = [r.string() for _ in range(r.get("<I")[0])]
    bigrams = [(r.string(), r.string()) for _ in range(r.get("<I")[0])]
    if version < 3:     # the character frequency table
        for _ in range(r.get("<I")[0]):
            r.string()
            r.get("<Q")
    return Vocab(chars, bigrams)


def _write_tagset(w, tagset):
    w.put("<I", len(tagset))
    for t in tagset:
        w.string(t.seg)
        w.string(t.pos)


def _read_tagset(r, version):
    if version < 3:     # the POS label list
        for _ in range(r.get("<I")[0]):
            r.string()
    pairs = [(r.string(), r.string()) for _ in range(r.get("<I")[0])]
    if not pairs:
        raise ModelCorruptionError("stored tag set is empty")
    try:
        return TagSet(JointTag(seg, pos) for seg, pos in pairs)
    except ValueError as e:
        raise ModelCorruptionError(f"stored tag set is invalid: {e}") from None


def save(model, path):
    """Write the model; returns the file's CRC-32 checksum.

    A parameter that holds NaN/Inf once stored as float32 (a value past its
    range included) is refused with a NumericError naming it before any
    file is opened, since load would refuse the file. The file is written
    by files.replace_file, so a failed save leaves path as it was.
    """
    w = _Writer()
    w.write(MAGIC)
    w.put("<I", VERSION)
    _write_encoder_config(w, model.cfg, model.constrained)
    w.put("<?", model.normalize_width)
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
    replace_file(path, "model", body, struct.pack("<I", checksum))
    return checksum


def load(path):
    """Read a model back; the result tags identically to what was saved."""
    blob = read_bytes(path, "model")
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
    if version < 3:     # the train config
        r.get(_OLD_TRAIN_NUMBERS)
        r.string()                          # optimizer
        r.take(2 if version == 1 else 1)    # version 1's deterministic flag; finetune_embeddings
    vocab = _read_vocab(r, version)
    tagset = _read_tagset(r, version)
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
    return model
