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
forget, candidate) order. Saving is byte-deterministic. Loading verifies the
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


class _Writer:
    def __init__(self):
        self.buf = io.BytesIO()

    def raw(self, data):
        self.buf.write(data)

    def u8(self, v):
        self.buf.write(struct.pack("<B", v))

    def u32(self, v):
        self.buf.write(struct.pack("<I", v))

    def u64(self, v):
        self.buf.write(struct.pack("<Q", v))

    def i64(self, v):
        self.buf.write(struct.pack("<q", v))

    def f64(self, v):
        self.buf.write(struct.pack("<d", v))

    def string(self, s):
        data = s.encode("utf-8")
        self.u32(len(data))
        self.buf.write(data)

    def f32_array(self, arr):
        self.buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    def getvalue(self):
        return self.buf.getvalue()


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

    def _unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def u8(self):
        return self._unpack("<B")

    def u32(self):
        return self._unpack("<I")

    def u64(self):
        return self._unpack("<Q")

    def i64(self):
        return self._unpack("<q")

    def f64(self):
        return self._unpack("<d")

    def string(self):
        n = self.u32()
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as e:
            raise ModelCorruptionError(f"undecodable string field: {e}") from None


def _write_encoder_config(w, cfg, constrained):
    w.u32(cfg.d)
    w.u32(cfg.h)
    w.u32(cfg.feature_map_sets)
    for l in cfg.feature_maps:
        w.u32(l)
    w.u8(cfg.use_conv)
    w.u8(cfg.use_pooling)
    w.u8(cfg.use_highway)
    w.u8(_RECURRENT_CODES[cfg.recurrent])
    w.u8(cfg.mlp_baseline)
    w.u32(cfg.window)
    w.u8(cfg.use_bigram)
    w.u8(constrained)


def _read_encoder_config(r):
    d = r.u32()
    h = r.u32()
    q = r.u32()
    maps = tuple(r.u32() for _ in range(q))
    use_conv = bool(r.u8())
    use_pooling = bool(r.u8())
    use_highway = bool(r.u8())
    code = r.u8()
    if code not in _RECURRENT_NAMES:
        raise ModelCorruptionError(f"unknown recurrent layer code {code}")
    mlp = bool(r.u8())
    window = r.u32()
    use_bigram = bool(r.u8())
    constrained = bool(r.u8())
    try:
        cfg = EncoderConfig(d=d, h=h, feature_map_sets=q, feature_maps=maps,
                            use_conv=use_conv, use_pooling=use_pooling,
                            use_highway=use_highway, recurrent=_RECURRENT_NAMES[code],
                            mlp_baseline=mlp, window=window, use_bigram=use_bigram)
    except ConfigError as e:
        raise ModelCorruptionError(f"stored encoder config is invalid: {e}") from None
    return cfg, constrained


def _write_train_config(w, tc):
    w.f64(tc.alpha)
    w.f64(tc.eta)
    w.f64(tc.l2)
    w.u32(tc.batch_size)
    w.u32(tc.max_epochs)
    w.i64(tc.seed)
    w.f64(tc.dev_fraction)
    w.string(tc.optimizer)
    w.u8(tc.finetune_embeddings)


def _read_train_config(r, version):
    fields = dict(alpha=r.f64(), eta=r.f64(), l2=r.f64(), batch_size=r.u32(),
                  max_epochs=r.u32(), seed=r.i64(), dev_fraction=r.f64(),
                  optimizer=r.string())
    if version == 1:
        r.u8()   # version 1's deterministic flag, which nothing read
    fields["finetune_embeddings"] = bool(r.u8())
    try:
        return TrainConfig(**fields)
    except ValueError as e:
        raise ModelCorruptionError(f"stored train config is invalid: {e}") from None


def _write_vocab(w, vocab):
    chars = vocab.chars
    w.u32(len(chars))
    for c in chars:
        w.string(c)
    bigrams = vocab.bigrams
    w.u32(len(bigrams))
    for a, b in bigrams:
        w.string(a)
        w.string(b)
    freq = sorted(vocab.char_freq.items())
    w.u32(len(freq))
    for c, n in freq:
        w.string(c)
        w.u64(n)


def _read_vocab(r):
    chars = [r.string() for _ in range(r.u32())]
    bigrams = [(r.string(), r.string()) for _ in range(r.u32())]
    freq = {r.string(): r.u64() for _ in range(r.u32())}
    return Vocab(chars, bigrams, freq)


def _write_tagset(w, tagset):
    w.u32(len(tagset.pos_labels))
    for p in tagset.pos_labels:
        w.string(p)
    w.u32(len(tagset))
    for t in tagset:
        w.string(t.seg)
        w.string(t.pos)


def _read_tagset(r):
    labels = [r.string() for _ in range(r.u32())]
    pairs = [(r.string(), r.string()) for _ in range(r.u32())]
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
    """Write the model; returns the file's CRC-32 checksum."""
    tc = train_cfg or model.train_cfg or TrainConfig()
    w = _Writer()
    w.raw(MAGIC)
    w.u32(VERSION)
    _write_encoder_config(w, model.cfg, model.constrained)
    w.u8(model.normalize_width)
    _write_train_config(w, tc)
    _write_vocab(w, model.vocab)
    _write_tagset(w, model.tagset)
    params = model.parameters()
    w.u32(len(params))
    for name, p in params:
        w.string(name)
        w.u32(p.data.ndim)
        for extent in p.data.shape:
            w.u32(extent)
        w.f32_array(p.data)
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
    version = r.u32()
    if version not in READABLE_VERSIONS:
        raise ModelVersionError(
            f"file version {version} is not supported (readable: {READABLE_VERSIONS})")
    cfg, constrained = _read_encoder_config(r)
    normalize_width = bool(r.u8()) if version >= 2 else False
    train_cfg = _read_train_config(r, version)
    vocab = _read_vocab(r)
    tagset = _read_tagset(r)
    manifest = parameter_manifest(cfg, vocab.n_chars, vocab.n_bigrams, len(tagset))
    n_blocks = r.u32()
    if n_blocks != len(manifest):
        raise ModelCorruptionError(
            f"file holds {n_blocks} parameter blocks, model expects {len(manifest)}"
        )
    blocks = []
    for name, shape in manifest:
        stored_name = r.string()
        if stored_name != name:
            raise ModelCorruptionError(f"parameter {stored_name!r} where {name!r} expected")
        stored = tuple(r.u32() for _ in range(r.u32()))
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
