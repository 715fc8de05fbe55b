"""Character-sequence encoders.

The main pipeline maps a character-id sequence to per-position feature
vectors: embedding lookup, wide n-gram convolutions, k-max pooling along the
feature axis, a highway gate over the pooled features, and an optional
(bi)directional LSTM. A windowed MLP encoder is kept as the baseline
topology. Each stage is one fused tape node with a hand-written backward
pass: the embedding lookups, the conv bank (or MLP window), k-max pooling,
the highway gate, and the LSTM with both its directions in one node.

The input may pack several sentences end to end (``CharIds.pack``). Row-wise
stages ignore the packing; the window stages (conv bank, MLP window) and the
LSTM take the sentence lengths and never let one sentence see another. So
the stack splits in two (``encode``): a position-local half that may run
over any run of whole sentences on its own (``encode_local``), and the
recurrent half (``encode_recurrent``).

The stages ending in tanh or sigmoid (conv bank, MLP window, highway, LSTM)
would squash an overflowed pre-activation into a finite output, so each
checks a bound on its weights and input once per call (_guard).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import (
    NumericError,
    Parameter,
    ShapeError,
    Tensor,
    _accum,
    _grad_on,
    _packed_steps,
    _record,
    _window_rows,
    _window_rows_grad,
)

RECURRENT_KINDS = ("none", "lstm", "blstm")
STACKS = ("embed", "conv", "pool", "highway", "mlp")


class ConfigError(ValueError):
    """Encoder topology switches are inconsistent."""


# width field -> (settings key, published value, canonical value). In EncoderConfig a width
# the topology does not read is canonical, and one left None is published where it is read.
WIDTHS = {"h": ("h", 100, 0), "feature_map_sets": ("feature_map_sets", 5, 0),
          "feature_maps": ("feature_map_size", 100, ())}


def unread_widths(stack, recurrent):
    """The WIDTHS fields a topology does not read: the conv bank's without a
    conv stage, and h with neither a recurrent layer nor the mlp."""
    unread = () if stack in ("conv", "pool", "highway") else ("feature_map_sets", "feature_maps")
    return unread + ("h",) if recurrent == "none" and stack != "mlp" else unread


@dataclass
class EncoderConfig:
    """Topology switches and widths for the encoder stack.

    The ablation grid is stack x recurrent. Each of the stacks embed, conv,
    pool and highway adds one stage to the one before it: the conv bank,
    k-max pooling, the highway gate. "mlp" replaces the whole stack with a
    windowed single-hidden-layer encoder and runs without a recurrent layer.
    """

    d: int = 50                 # character embedding width
    h: int | None = None        # LSTM (and MLP hidden) width
    feature_map_sets: int | None = None  # Q: n-gram orders 1..Q
    feature_maps: tuple | None = None    # l_q per order; an int replicates across orders
    stack: str = "highway"      # one of STACKS
    recurrent: str | None = None  # RECURRENT_KINDS; None: none for mlp, else blstm
    window: int = 1             # MLP context window
    use_bigram: bool = False

    def __post_init__(self):
        if self.recurrent is None:
            self.recurrent = "none" if self.stack == "mlp" else "blstm"
        for field, kinds in (("stack", STACKS), ("recurrent", RECURRENT_KINDS)):
            if getattr(self, field) not in kinds:
                raise ConfigError(f"{field} must be one of {kinds}, got {getattr(self, field)!r}")
        if self.stack == "mlp" and self.recurrent != "none":
            raise ConfigError(f"stack='mlp' (--stack mlp) runs without a recurrent layer, "
                              f"got recurrent={self.recurrent!r} (--recurrent)")
        unread = unread_widths(self.stack, self.recurrent)
        for field, (key, published, canonical) in WIDTHS.items():
            value = getattr(self, field)
            if value is None:
                setattr(self, field, canonical if field in unread else published)
            elif field in unread and value != canonical:
                raise ConfigError(f"{field}={value!r} (setting {key}) is not read by "
                                  f"stack={self.stack!r} with recurrent={self.recurrent!r}; "
                                  "leave it unset")
        maps = self.feature_maps
        self.feature_maps = ((maps,) * self.feature_map_sets if isinstance(maps, int)
                             else tuple(int(l) for l in maps))
        if self.d < 1 or (self.h < 1 and "h" not in unread):
            raise ConfigError(f"widths must be positive: d={self.d}, h={self.h}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.window != 1 and self.stack != "mlp":
            raise ConfigError(f"window={self.window} needs stack='mlp' (--stack mlp); "
                              "no other encoder reads it")
        if len(self.feature_maps) != self.feature_map_sets:
            raise ConfigError(f"{self.feature_map_sets} map sets but "
                              f"{len(self.feature_maps)} widths")
        if self.has("conv"):
            if self.feature_map_sets < 1:
                raise ConfigError(f"feature_map_sets must be >= 1, got {self.feature_map_sets}")
            if any(l < 1 for l in self.feature_maps):
                raise ConfigError(f"feature map widths must be positive: {self.feature_maps}")
            if self.has("pool") and self.conv_width < self.d_in:
                raise ConfigError(
                    f"feature_map_sets={self.feature_map_sets} with per-set widths "
                    f"{self.feature_maps} (feature_map_size on the command line, "
                    f"feature_maps in EncoderConfig) give {self.conv_width} feature maps, "
                    f"fewer than the pooling width {self.d_in} = "
                    f"{'3d' if self.use_bigram else 'd'} for d={self.d} (bigrams triple d)"
                )

    def has(self, stage):
        """Whether the stack runs stage ("conv", "pool" or "highway")."""
        return self.stack != "mlp" and STACKS.index(self.stack) >= STACKS.index(stage)

    @property
    def d_in(self):
        """Per-position embedding width (3d when bigram features are on)."""
        return 3 * self.d if self.use_bigram else self.d

    @property
    def conv_width(self):
        return sum(self.feature_maps)

    @property
    def d_pool(self):
        """Width of the feature stack output (input to the recurrent layer)."""
        if self.stack == "mlp":
            return self.h
        # embed passes the embeddings on, and pooling restores their width
        return self.conv_width if self.stack == "conv" else self.d_in

    @property
    def d_out(self):
        """Encoder output width seen by the projection layer: h per LSTM
        direction, or the stack's own width without one."""
        return len(_DIRECTIONS[self.recurrent]) * self.h or self.d_pool


@dataclass
class CharIds:
    """Integer views of one sentence, or of several packed end to end:
    unigram ids plus boundary-padded bigram ids, and each sentence's length."""

    uni: np.ndarray
    bi_left: np.ndarray | None = None   # id of bigram (c[i-1], c[i])
    bi_right: np.ndarray | None = None  # id of bigram (c[i], c[i+1])
    lengths: np.ndarray | None = None   # one entry per sentence; default: one sentence

    def __post_init__(self):
        if self.lengths is None:
            self.lengths = np.array([len(self.uni)], dtype=np.intp)

    def __len__(self):
        return len(self.uni)

    @classmethod
    def pack(cls, sentences):
        """One CharIds holding the given ones end to end (bigram ids need all or none)."""
        sentences = list(sentences)
        if not sentences:
            raise ValueError("cannot pack zero sentences")

        def cat(field):
            parts = [getattr(s, field) for s in sentences]
            if all(p is None for p in parts):
                return None
            if any(p is None for p in parts):
                raise ValueError(f"cannot pack sentences with and without {field} ids")
            return np.concatenate(parts)

        return cls(uni=cat("uni"), bi_left=cat("bi_left"), bi_right=cat("bi_right"),
                   lengths=cat("lengths"))

    def sentences(self, first, last):
        """(row slice, CharIds) of the sentences first .. last - 1."""
        rows = slice(int(self.lengths[:first].sum()), int(self.lengths[:last].sum()))

        def cut(ids):
            return None if ids is None else ids[rows]

        return rows, CharIds(uni=self.uni[rows], bi_left=cut(self.bi_left),
                             bi_right=cut(self.bi_right), lengths=self.lengths[first:last])


_DIRECTIONS = {"none": (), "lstm": ("fwd",), "blstm": ("fwd", "bwd")}


def _affine(layer, fan_in, fan_out):
    return [(f"{layer}.w", (fan_in, fan_out)), (f"{layer}.b", (fan_out,))]


def parameter_manifest(cfg, n_unigrams, n_bigrams, n_tags=None):
    """Ordered (name, shape) of every trainable tensor the config implies:
    the encoder's and, given a tag count, the tag projection and transitions.

    This order is the model-file manifest and the order of the random draws,
    so equal seeds give bit-identical parameters.
    """
    out = [("embed.unigram", (n_unigrams, cfg.d))]
    if cfg.use_bigram:
        out.append(("embed.bigram", (n_bigrams, cfg.d)))
    if cfg.has("conv"):
        for q, l_q in enumerate(cfg.feature_maps, start=1):
            out += _affine(f"conv.q{q}", q * cfg.d_in, l_q)
    if cfg.has("highway"):
        out += _affine("highway", cfg.d_pool, cfg.d_pool)
    for direction in _DIRECTIONS[cfg.recurrent]:
        out += _affine(f"lstm.{direction}", cfg.d_pool + cfg.h, 4 * cfg.h)
    if cfg.stack == "mlp":
        out += _affine("mlp", cfg.window * cfg.d_in, cfg.h)
    if n_tags is not None:
        out += _affine("proj", cfg.d_out, n_tags) + [("trans.a", (n_tags, n_tags))]
    return out


def draw_parameters(manifest, rng, dtype=np.float32):
    """Initial arrays for a manifest, drawn from rng in its order: embeddings
    uniform(-0.01, 0.01), 1-D biases zero, 2-D weights Glorot-uniform."""
    arrays = []
    for name, shape in manifest:
        if len(shape) == 1:
            arrays.append(np.zeros(shape, dtype=dtype))
        else:
            limit = 0.01 if name.startswith("embed.") else math.sqrt(6.0 / sum(shape))
            arrays.append(rng.uniform(-limit, limit, size=shape).astype(dtype))
    return arrays


def named_parameters(manifest, arrays, dtype):
    """The arrays, as dtype, in a manifest-ordered name -> Parameter map."""
    return {name: Parameter(np.asarray(a, dtype=dtype), name=name)
            for (name, _), a in zip(manifest, arrays, strict=True)}


def embed_sentence(ids, unigram, bigram, cfg):
    """Look up per-position embeddings; with bigrams on, each row is
    e(c_i) ++ e_b(c_{i-1} c_i) ++ e_b(c_i c_{i+1}) for width 3d. Row
    Vocab.UNK is the unknown token; no id reaches Vocab.PAD."""
    if len(ids) == 0 or ids.lengths.min() < 1:
        raise ValueError("cannot embed an empty sentence")
    lookups = [(unigram, ids.uni)]
    if cfg.use_bigram:
        if bigram is None or ids.bi_left is None or ids.bi_right is None:
            raise ConfigError("bigram features enabled but bigram table or ids missing")
        lookups += [(bigram, ids.bi_left), (bigram, ids.bi_right)]
    out = Tensor(np.concatenate([table.data[rows] for table, rows in lookups], axis=1))

    def _back(grad):
        for (table, rows), g in zip(lookups, np.split(grad, len(lookups), axis=1)):
            np.add.at(table.grad, rows, g)

    return _record("embed_sentence", out,
                   (unigram, bigram) if cfg.use_bigram else (unigram,), _back)


def _sigmoid(z):
    """sigmoid(z) = 0.5 + 0.5·tanh(z/2), in place on z and returned.

    One tanh and three multiply/add passes over contiguous memory, which
    takes about half the time of 1/(1+e^-z) (negate, exp, add, reciprocal)
    and cannot overflow. float32 results may differ from 1/(1+e^-z) in the
    last bits. The LSTM runs the same passes inline, its z/2 already halved
    inside the GEMM.
    """
    z *= 0.5
    np.tanh(z, out=z)
    z *= 0.5
    z += 0.5
    return z


def _guard(op, x, affine, recurrent=None):
    """Raise NumericError naming op unless no pre-activation can overflow.

    For rows of x against each (W, b) of `affine`, a pre-activation and every
    partial sum of it lie within max|x| * fan_in * max|W| + max|b|, and the
    LSTM's `recurrent` rows W_h add h * max|W_h|, since |h_{t-1}| <= 1. Each
    bound must lie below a sixteenth of the largest value of x's dtype, room
    for the rounding of the GEMMs' sums. In Python floats NaN or Inf fails
    the comparison, and numpy warns of no overflow.
    """
    def peak(a):    # max |a|, with no temporary |a| beside a
        return max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))

    size = peak(x)
    carried = 0.0 if recurrent is None else recurrent.shape[0] * peak(recurrent)
    limit = float(np.finfo(x.dtype).max) / 16
    for w, b in affine:
        bound = size * w.shape[0] * peak(w) + peak(b) + carried
        if not bound < limit:
            raise NumericError(f"{op}: bound {bound:.3g} is not below {limit:.3g}, a sixteenth "
                               f"of the {x.dtype} range, so it could overflow to NaN/Inf")


def _width(what, x):
    """The row width of x, checked to be 2-D."""
    if x.data.ndim != 2:
        raise ShapeError(f"{what}: expected 2-D input, got {x.shape}")
    return x.shape[1]


def _window_tanh(what, x, left, right, filters, lengths):
    """tanh(window @ W + b) per filter, concatenated along features; one tape node.

    Row i of the window holds rows i-left .. i+right of x, zero padded at the
    margins and at the ends of the sentences packed in x (`lengths`). Each
    filter is (column slice of the window, W, b). The window holds only rows
    of x and zeros, so _guard bounds it by x.
    """
    _guard(f"{what} pre-activation", x.data, [(w.data, b.data) for _, w, b in filters])
    xw = _window_rows(x.data, left, right, lengths)
    z = np.empty((xw.shape[0], sum(w.shape[1] for _, w, _ in filters)), dtype=xw.dtype)
    ofs = 0
    for cols, w, b in filters:
        np.matmul(xw[:, cols], w.data, out=z[:, ofs:ofs + w.shape[1]])
        ofs += w.shape[1]
    del xw      # rebuilt by the backward pass rather than held on the tape
    z += np.concatenate([b.data for _, _, b in filters])
    out = Tensor(np.tanh(z, out=z))

    def _back(grad):
        xw = _window_rows(x.data, left, right, lengths)
        # d tanh in place over the output: its readers' backwards have all run
        g = np.multiply(z, z, out=z)
        np.subtract(1.0, g, out=g)
        g *= grad
        gxw = np.zeros_like(xw)
        g_sum = g.sum(axis=0)
        ofs = 0
        for cols, w, b in filters:
            gq = g[:, ofs:ofs + w.shape[1]]
            _accum(w, xw[:, cols].T @ gq)
            _accum(b, g_sum[ofs:ofs + w.shape[1]])
            ofs += w.shape[1]
            gxw[:, cols] += gq @ w.data.T
        _accum(x, _window_rows_grad(gxw, left, right, lengths))

    return _record(what, out, (x, *(p for _, w, b in filters for p in (w, b))), _back)


def mlp_encode(x, w, b, window, lengths=None):
    """Windowed baseline encoder: tanh(W_h^T [x_{i-..} .. x_{i+..}] + b_h),
    W (window * d_in) x h.

    `lengths` lists the sentences packed in x; windows stop at their ends.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    width = window * _width("mlp_encode", x)
    if w.shape[0] != width or w.shape[1] != b.shape[0]:
        raise ShapeError(f"mlp_encode: W {w.shape}, b {b.shape} do not fit "
                         f"window {window} over x {x.shape}")
    return _window_tanh("mlp_encode", x, (window - 1) // 2, window // 2,
                        [(slice(0, width), w, b)], lengths)


def conv_feature_maps(x, bank, lengths=None):
    """Wide n-gram convolutions, tanh per map set, concatenated along features.

    `bank` holds one (W, b) per n-gram order q = 1..Q, W (q * d_in) x l_q.
    Order q sees the rows i - floor((q-1)/2) .. i + ceil((q-1)/2), zero padded
    at the margins so the output keeps the input length; with several
    sentences packed in x (`lengths`), each sentence's ends are margins too.
    One tape node: the window of the widest order is built once and order q
    reads its q middle row blocks as a column view.
    """
    d = _width("conv_feature_maps", x)
    left = (len(bank) - 1) // 2
    filters = []
    for q, (w, b) in enumerate(bank, start=1):
        if w.shape[0] != q * d or w.shape[1] != b.shape[0]:
            raise ShapeError(f"conv order {q}: W {w.shape}, b {b.shape} do not fit x {x.shape}")
        lo = (left - (q - 1) // 2) * d
        filters.append((slice(lo, lo + q * d), w, b))
    return _window_tanh("conv_feature_maps", x, left, len(bank) // 2, filters, lengths)


# Row-block working sets. k-max pooling selects a block of rows at a time, so
# np.sort's copy of the feature maps, the selection mask and its index arrays
# span one block, not the whole chunk: at the published widths they would
# otherwise add 3.3 KB per character to the 2 KB of the maps. The untaped
# LSTM computes its gates' input half for one block of steps at a time. A
# block of 256 KB (about 130 rows of 500 float32 maps, 160 rows of 4h = 400
# gates) makes that working set small beside the chunk, and still hands each
# numpy call over a hundred rows: on 485- and 1,000-row inputs, k-max blocks
# from 128 KB up to the whole input took within 4% of the same time, and
# tagging a 2,548-character chunk with LSTM gate blocks of 1 MB or more took
# 5-7% longer than with 256 or 512 KB.
BLOCK_BYTES = 256 * 1024


def kmax_pool(z, k):
    """Per row, keep the k largest values in their original order.

    Ties prefer the lower original index; gradients flow only to the
    selected positions. np.sort ranks each row (numpy's SIMD sort is faster
    than np.partition at these widths); the values at least as large as the
    k-th, read in row order, are the k columns already sorted. A row holds
    more than k of them exactly when its (k+1)-th largest value equals the
    k-th, and those rows alone are re-selected: every value above the k-th,
    then values equal to it, lowest index first. Rows are selected in blocks
    of BLOCK_BYTES, each writing its columns into one int32 index
    array, which the tape node keeps.
    """
    n, width = z.shape
    if k > width:
        raise ShapeError(f"k-max pooling width {k} exceeds the {width} available features")
    data = z.data
    step = max(1, BLOCK_BYTES // (width * data.itemsize))
    cols = np.empty((n, k), dtype=np.int32)
    vals = np.empty((n, k), dtype=data.dtype)
    for lo in range(0, n, step):
        block = data[lo:lo + step]
        ranked = np.sort(block, axis=1)
        if np.isnan(ranked[:, -1]).any():
            # np.sort ranks NaN above every number, so a NaN is always among the k
            raise NumericError(f"kmax_pool: NaN in a row of the {z.shape} input")
        kth = ranked[:, width - k, None]
        take = block >= kth
        if k < width:
            rows = np.flatnonzero(ranked[:, width - k - 1] == kth[:, 0])
            if rows.size:
                above = block[rows] > kth[rows]
                tied = take[rows] & ~above
                take[rows] = above | (tied & (np.cumsum(tied, axis=1)
                                              <= k - above.sum(axis=1, keepdims=True)))
        # each row of take holds k columns: flat positions less each row's offset
        flat = np.flatnonzero(take).reshape(-1, k)
        vals[lo:lo + step] = np.take(block, flat)
        cols[lo:lo + step] = flat - np.arange(0, take.size, width)[:, None]
    out = Tensor(vals)

    def _back(grad):
        g = np.zeros_like(data)
        np.put_along_axis(g, cols, grad, axis=1)    # indices within a row are distinct
        _accum(z, g)

    return _record("kmax_pool", out, (z,), _back)


def highway_forward(x, cov_x, w, b):
    """Gated mix of transformed and carried input with carry = 1 - transform:
    out = cov_x * g + x * (1 - g), g = sigmoid(W_T^T x + b_T), W_T square.

    One tape node with inputs (x, cov_x, W_T, b_T) and a hand-written backward.
    """
    if x.shape != cov_x.shape:
        raise ShapeError(
            f"highway carry {x.shape} and transformed input {cov_x.shape} are decoupled"
        )
    xd, cd, wd = x.data, cov_x.data, w.data
    _guard("highway_forward gate pre-activation", xd, [(wd, b.data)])
    z = xd @ wd + b.data
    gate = _sigmoid(z)
    out = Tensor(cd * gate + xd * (1.0 - gate))

    def _back(grad):
        carry = 1.0 - gate      # recomputed rather than held on the tape beside gate
        dz = grad * (cd - xd) * gate * carry
        _accum(cov_x, grad * gate)
        _accum(x, grad * carry + dz @ wd.T)
        _accum(w, xd.T @ dz)
        _accum(b, dz.sum(axis=0))

    return _record("highway_forward", out, (x, cov_x, w, b), _back)


def _lstm_direction(xhat, w, b, reverse, lengths, op, out):
    """Single-direction LSTM over the rows of the 2-D xhat, zero initial
    state: writes its states into the rows of `out` in input order. With the
    tape on it returns its backward closure, back(grad, states), which reads
    h_{t-1} from those states rather than keeping a copy of its own; under
    no_grad() it returns None. `op` names it in errors.

    Per step: [i; o; f; c-hat] = [sigm; sigm; sigm; tanh](W_g^T [x_t; h_{t-1}] + b_g),
    W_g (d + h) x 4h, c_t = c_{t-1} * f + c-hat * i, h_t = o * tanh(c_t). With
    reverse=True the positions are visited last to first and the outputs
    realigned to input order.
    With several sentences packed in xhat (`lengths`), each runs from its own
    zero state, all of them in the same steps.

    The steps run over the step-major layout of ``autograd._packed_steps``,
    with no padding: step t is one contiguous block of rows, one per sentence
    still running, and h_{t-1} is the head of the block before it. The input
    half of the gates, X @ W[:d] + b, is one GEMM per block of steps, so a
    step multiplies only h_{t-1} @ W[d:]. A step activates all four gates in
    place by one tanh as _sigmoid does: the sigmoid gates' columns of W and b
    are halved once per call, which is exact, so the GEMMs yield z/2 there and
    c-hat's z. The gates are guarded once per call (_guard).

    With the tape on, the block is every step, and the activations, cells,
    states and tanh(c_t) of every step are kept for the hand-written
    backpropagation through time, which overwrites the cached activations,
    first with each gate's derivative factor and then with the gradient of
    its pre-activation. Under no_grad() a block spans about BLOCK_BYTES of
    gates, a step of more rows than that runs in pieces, c_{t-1} and h_{t-1}
    sit in two rolling slots of one row per sentence, and each step's h_t
    goes straight into its rows of `out`, so the direction holds no n-row
    array of gates or states of its own.
    """
    x, wd = xhat.data, w.data
    n, d = x.shape
    h = b.shape[0] // 4
    if wd.shape != (d + h, 4 * h):
        raise ShapeError(f"{op}: W {wd.shape} does not fit x {xhat.shape} with h={h}")
    _guard(f"{op} gate pre-activations", x, [(wd[:d], b.data)], wd[d:])
    where, steps = _packed_steps(lengths, n, reverse)
    m0 = steps[0][1]    # every sentence runs at the first step
    dtype = np.result_type(x, wd)
    taped = _grad_on.get()
    # gate rows per block: every step's on the tape, else about BLOCK_BYTES
    block = n if taped else max(1, BLOCK_BYTES // (4 * h * dtype.itemsize))
    # (step, first row, rows) of each step cut into pieces of at most a block
    pieces = [(t, lo + r, min(block, m - r))
              for t, (lo, m) in enumerate(steps) for r in range(0, m, block)]
    # the first row of each block of whole pieces, and n after the last block
    starts = [0]
    for _, lo, m in pieces:
        if lo + m - starts[-1] > block and lo > starts[-1]:
            starts.append(lo)
    starts.append(n)
    # one row per sentence of a piece, sliced per piece: a full-width operand
    # multiplies faster than a broadcast row
    half = np.full((min(m0, block), 4 * h), 0.5, dtype=dtype)    # c-hat gets tanh
    half[:, 3 * h:] = 1.0
    shift = 1.0 - half
    w_x = wd[:d] * half[0]      # exact: the GEMMs yield the sigmoid gates' z/2
    b_x = b.data * half[0]
    w_h = wd[d:] * half[0]
    row = np.empty_like(where)
    row[where] = np.arange(n)       # step-major row -> input row
    acts = np.empty((max(np.diff(starts)), 4 * h), dtype=dtype)
    # the first row of step t's c_t and h_t: its own rows on the tape, else
    # one of two slots of m0 rows, which step t and step t-1 alternate in
    slot = [lo for lo, _ in steps] if taped else [t % 2 * m0 for t in range(len(steps))]
    cells = np.empty((n if taped else 2 * m0, h), dtype=dtype)
    hidden = np.empty_like(cells)
    # tanh(c_t), kept for the backward pass; without a tape it goes in hidden
    tanh_c = np.empty_like(cells) if taped else hidden
    blocks = iter(zip(starts, starts[1:]))
    top = end = 0
    for t, lo, m in pieces:
        if lo == end:       # the gates' input half of the next block of pieces
            top, end = next(blocks)
            np.matmul(x[row[top:end]], w_x, out=acts[:end - top])
            acts[:end - top] += b_x
        g = acts[lo - top:lo - top + m]
        r = lo - steps[t][0]
        at, prev = slot[t] + r, slot[t - 1] + r
        if t:
            g += hidden[prev:prev + m] @ w_h
        np.tanh(g, out=g)
        g *= half[:m]
        g += shift[:m]
        c, tc, h_t = cells[at:at + m], tanh_c[at:at + m], hidden[at:at + m]
        np.multiply(g[:, 3 * h:], g[:, :h], out=c)
        if t:
            c += cells[prev:prev + m] * g[:, 2 * h:3 * h]
        np.tanh(c, out=tc)
        np.multiply(tc, g[:, h:2 * h], out=h_t)
        if not taped:
            out[row[lo:lo + m]] = h_t
    if not taped:
        return None
    out[row] = hidden               # a scatter makes no gathered copy

    def _back(grad, states):
        gate_i, gate_o, gate_f, c_hat = (acts[:, k * h:(k + 1) * h] for k in range(4))
        # derivative factors of the pre-activations, d z = (dc or dh) * factor,
        # each built in a contiguous buffer and written over its gate once
        buf = np.empty_like(cells)
        dc_dh = np.multiply(tanh_c, tanh_c)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= gate_o                             # c_t reaches h_t through o * tanh(c_t)
        np.subtract(1.0, gate_o, out=buf)
        buf *= gate_o
        buf *= tanh_c
        gate_o[...] = buf
        f = tanh_c                                  # reused: f is kept for the carry dc * f
        f[...] = gate_f
        np.subtract(1.0, f, out=buf)
        buf *= f
        buf[:m0] = 0.0                              # the first step has c_{t-1} = 0
        # each row after the first step continues its sentence's row one step
        # earlier, which holds c_{t-1} for the forget gate here and h_{t-1} below
        active = np.array([m for _, m in steps], dtype=np.intp)
        before = np.arange(m0, n) - np.repeat(active[:-1], active[1:])
        buf[m0:] *= cells[before]
        gate_f[...] = buf
        np.subtract(1.0, gate_i, out=buf)
        buf *= gate_i
        buf *= c_hat
        d_c_hat = np.multiply(c_hat, c_hat, out=cells)     # the cells are read no more
        np.subtract(1.0, d_c_hat, out=d_c_hat)
        d_c_hat *= gate_i
        gate_i[...] = buf
        c_hat[...] = d_c_hat
        del buf
        # backpropagation through time: the factors become d pre-activations,
        # each step's by one multiply with the gates' multipliers [dc, dh, dc, dc]
        d_hidden = np.empty_like(cells)
        d_hidden[where] = grad
        w_hT = np.ascontiguousarray(wd[d:].T)
        dc_carry = np.empty_like(cells[:m0])
        mult = np.empty((m0, 4, h), dtype=acts.dtype)
        acts_4 = acts.reshape(n, 4, h)
        m_next = 0
        for t in range(len(steps) - 1, -1, -1):
            lo, m = steps[t]
            dh, dc = d_hidden[lo:lo + m], mult[:m, 0]
            np.multiply(dh, dc_dh[lo:lo + m], out=dc)
            dc[:m_next] += dc_carry[:m_next]
            mult[:m, 1] = dh
            mult[:m, 2:] = dc[:, None]
            acts_4[lo:lo + m] *= mult[:m]
            if t:
                prev = steps[t - 1][0]
                np.multiply(dc, f[lo:lo + m], out=dc_carry[:m])
                d_hidden[prev:prev + m] += acts[lo:lo + m] @ w_hT
            m_next = m
        # W's recurrent half pairs each step after the first with h_{t-1};
        # gather those rows of the input-order states into a finished buffer
        # (the rows are in range; "clip" writes into out where "raise" would buffer)
        h_before = np.take(states, row[before], axis=0, out=dc_dh[m0:], mode="clip")
        xp = np.empty_like(x)
        xp[where] = x
        _accum(xhat, (acts @ wd[:d].T)[where])
        _accum(w, np.concatenate([xp.T @ acts, h_before.T @ acts[m0:]]))
        _accum(b, acts.sum(axis=0))

    return _back


def _recurrent(fn, xhat, directions, lengths):
    """LSTM directions (W, b, reverse) over the rows of xhat, states side by
    side: one tape node, named "blstm_forward lstm.fwd (forward), lstm.bwd
    (reverse)". Each direction writes its states into its own column block of
    the output array. With the tape on, its backward reads them back from
    there, and its caches are freed in backward() as soon as it has run."""
    labels = [f"{w.name.removesuffix('.w') or 'lstm'} ({'reverse' if rev else 'forward'})"
              for w, _, rev in directions]
    name = f"{fn} {', '.join(labels)}"
    _width(name, xhat)
    states = np.empty((xhat.shape[0], sum(b.shape[0] // 4 for _, b, _ in directions)),
                      dtype=np.result_type(xhat.data, *(w.data for w, _, _ in directions)))
    blocks = np.split(states, len(directions), axis=1)
    backs = []
    for (w, b, reverse), label, block in zip(directions, labels, blocks):
        back = _lstm_direction(xhat, w, b, reverse, lengths, f"{fn} {label}", block)
        if back is not None:
            backs.append(back)
    out = Tensor(states)

    def _back(grad):    # holds the output's array, not the Tensor: no reference cycle
        for k, g in enumerate(np.split(grad, len(backs), axis=1)):
            back, backs[k] = backs[k], None
            back(g, blocks[k])

    return _record(name, out, (xhat, *(p for w, b, _ in directions for p in (w, b))), _back)


def lstm_forward(xhat, w, b, reverse=False, lengths=None):
    """Single-direction LSTM over the rows of xhat (_lstm_direction); one tape node."""
    return _recurrent("lstm_forward", xhat, [(w, b, reverse)], lengths)


def blstm_forward(xhat, fwd, bwd, lengths=None):
    """Concatenate forward and backward LSTM states per position; fwd and
    bwd are each direction's (W, b). One tape node over both directions."""
    h_fwd, h_bwd = fwd[1].shape[0] // 4, bwd[1].shape[0] // 4
    if h_fwd != h_bwd:
        raise ConfigError(f"forward h={h_fwd} and backward h={h_bwd} differ")
    return _recurrent("blstm_forward", xhat, [(*fwd, False), (*bwd, True)], lengths)


def _layer(named, layer):
    return named[f"{layer}.w"], named[f"{layer}.b"]


def encode_local(ids, named, cfg):
    """The position-local half of the configured stack over the sentence(s)
    packed in ids: the embeddings, then the conv bank, k-max pooling and the
    highway gate as the stack has them, or the MLP window. Each output row
    reads its own sentence's rows within a fixed distance only, so this half
    may run over any run of whole sentences on its own. Parameters are read
    out of `named` by their manifest names.

    A layer's output is let go as soon as the next layer has read it, so
    under autograd.no_grad(), where no tape holds it, it is freed there.
    """
    x = embed_sentence(ids, named["embed.unigram"], named.get("embed.bigram"), cfg)
    if cfg.stack == "mlp":
        return mlp_encode(x, *_layer(named, "mlp"), cfg.window, ids.lengths)
    feats = x
    if cfg.has("conv"):
        bank = [_layer(named, f"conv.q{q}") for q in range(1, cfg.feature_map_sets + 1)]
        feats = conv_feature_maps(x, bank, ids.lengths)
    if cfg.has("pool"):
        feats = kmax_pool(feats, cfg.d_in)    # the embedding width, as highway's carry
    if cfg.has("highway"):
        feats = highway_forward(x, feats, *_layer(named, "highway"))
    return feats


def encode_recurrent(feats, named, cfg, lengths=None):
    """The recurrent half of the configured stack over encode_local's
    output for the sentences packed as `lengths`: the LSTM or BLSTM states,
    or feats itself without a recurrent layer."""
    lstm = [_layer(named, f"lstm.{direction}") for direction in _DIRECTIONS[cfg.recurrent]]
    if cfg.recurrent == "lstm":
        return lstm_forward(feats, *lstm[0], lengths=lengths)
    if cfg.recurrent == "blstm":
        return blstm_forward(feats, *lstm, lengths)
    return feats


def encode(ids, named, cfg):
    """Run the configured encoder stack over the sentence(s) packed in ids:
    encode_recurrent over encode_local."""
    return encode_recurrent(encode_local(ids, named, cfg), named, cfg, ids.lengths)
