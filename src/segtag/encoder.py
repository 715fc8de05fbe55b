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
LSTM take the sentence lengths and never let one sentence see another.
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
    _taped,
    _window_rows,
    _window_rows_grad,
    check_finite,
)

RECURRENT_KINDS = ("none", "lstm", "blstm")


class ConfigError(ValueError):
    """Encoder topology switches are inconsistent."""


@dataclass
class EncoderConfig:
    """Topology switches and widths for the encoder stack.

    The ablation grid is spanned by use_conv / use_pooling / use_highway
    and recurrent in {none, lstm, blstm}; mlp_baseline replaces the whole
    convolutional stack with a windowed single-hidden-layer encoder.
    """

    d: int = 50                 # character embedding width
    h: int = 100                # LSTM (and MLP hidden) width
    feature_map_sets: int = 5   # Q: n-gram orders 1..Q
    feature_maps: tuple = 100   # l_q per order; an int replicates across orders
    use_conv: bool = True
    use_pooling: bool = True
    use_highway: bool = True
    recurrent: str = "blstm"
    mlp_baseline: bool = False
    window: int = 1             # MLP baseline context window
    use_bigram: bool = False

    def __post_init__(self):
        if isinstance(self.feature_maps, int):
            self.feature_maps = (self.feature_maps,) * self.feature_map_sets
        else:
            self.feature_maps = tuple(int(l) for l in self.feature_maps)
        self.validate()

    def validate(self):
        if self.d < 1 or self.h < 1:
            raise ConfigError(f"widths must be positive: d={self.d}, h={self.h}")
        if self.recurrent not in RECURRENT_KINDS:
            raise ConfigError(f"recurrent must be one of {RECURRENT_KINDS}, got {self.recurrent!r}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.window != 1 and not self.mlp_baseline:
            raise ConfigError(f"window={self.window} needs mlp_baseline; no other encoder reads it")
        if self.mlp_baseline:
            if self.use_conv or self.use_pooling or self.use_highway:
                raise ConfigError("mlp_baseline excludes the conv/pooling/highway stack")
            if self.recurrent != "none":
                raise ConfigError("mlp_baseline runs without a recurrent layer")
            return
        if self.use_pooling and not self.use_conv:
            raise ConfigError("pooling requires the convolutional layer")
        if self.use_highway and not self.use_pooling:
            raise ConfigError("highway requires pooling (carry/transform widths must agree)")
        if self.use_conv:
            if self.feature_map_sets < 1:
                raise ConfigError(f"feature_map_sets must be >= 1, got {self.feature_map_sets}")
            if len(self.feature_maps) != self.feature_map_sets:
                raise ConfigError(
                    f"{self.feature_map_sets} map sets but {len(self.feature_maps)} widths"
                )
            if any(l < 1 for l in self.feature_maps):
                raise ConfigError(f"feature map widths must be positive: {self.feature_maps}")
            if self.use_pooling and self.conv_width < self.k_pool:
                raise ConfigError(
                    f"total feature maps {self.conv_width} < pooling width {self.k_pool}"
                )

    @property
    def d_in(self):
        """Per-position embedding width (3d when bigram features are on)."""
        return 3 * self.d if self.use_bigram else self.d

    @property
    def k_pool(self):
        # pooling restores the embedding width so the highway carry is well-typed
        return self.d_in

    @property
    def conv_width(self):
        return sum(self.feature_maps)

    @property
    def d_pool(self):
        """Width of the feature stack output (input to the recurrent layer)."""
        if self.mlp_baseline:
            return self.h
        if not self.use_conv:
            return self.d_in
        return self.k_pool if self.use_pooling else self.conv_width

    @property
    def d_out(self):
        """Encoder output width seen by the projection layer."""
        if self.mlp_baseline:
            return self.h
        if self.recurrent == "blstm":
            return 2 * self.h
        if self.recurrent == "lstm":
            return self.h
        return self.d_pool


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
    if cfg.use_conv:
        for q, l_q in enumerate(cfg.feature_maps, start=1):
            out += _affine(f"conv.q{q}", q * cfg.d_in, l_q)
    if cfg.use_highway:
        out += _affine("highway", cfg.d_pool, cfg.d_pool)
    for direction in _DIRECTIONS[cfg.recurrent]:
        out += _affine(f"lstm.{direction}", cfg.d_pool + cfg.h, 4 * cfg.h)
    if cfg.mlp_baseline:
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
    Vocab.UNK is the unknown token; only boundary bigrams reach Vocab.PAD."""
    if len(ids) == 0 or ids.lengths.min() < 1:
        raise ValueError("cannot embed an empty sentence")
    lookups = [(unigram, ids.uni)]
    if cfg.use_bigram:
        if bigram is None or ids.bi_left is None or ids.bi_right is None:
            raise ConfigError("bigram features enabled but bigram table or ids missing")
        lookups += [(bigram, ids.bi_left), (bigram, ids.bi_right)]
    out = Tensor(np.concatenate([table.data[rows] for table, rows in lookups], axis=1))
    if not _taped("embed_sentence", out, (unigram, bigram) if cfg.use_bigram else (unigram,)):
        return out

    def _back(grad):
        for (table, rows), g in zip(lookups, np.split(grad, len(lookups), axis=1)):
            np.add.at(table.grad, rows, g)

    out._backward = _back
    return out


def _sigmoid(z, half=0.5, shift=0.5):
    """sigmoid(z) = 0.5 + 0.5·tanh(z/2), in place on z and returned.

    One tanh and three multiply/add passes over contiguous memory, which
    takes about half the time of 1/(1+e^-z) (negate, exp, add, reciprocal)
    and cannot overflow. Columns where the `half` and `shift` vectors hold 1
    and 0 get tanh(z) instead, so one call activates all four LSTM gates.
    float32 results may differ from 1/(1+e^-z) in the last bits.
    """
    z *= half
    np.tanh(z, out=z)
    z *= half
    z += shift
    return z


def _width(what, x):
    """The row width of x, checked to be 2-D."""
    if x.data.ndim != 2:
        raise ShapeError(f"{what}: expected 2-D input, got {x.shape}")
    return x.shape[1]


def _window_tanh(what, x, left, right, filters, lengths):
    """tanh(window @ W + b) per filter, concatenated along features; one tape node.

    Row i of the window holds rows i-left .. i+right of x, zero padded at the
    margins and at the ends of the sentences packed in x (`lengths`). Each
    filter is (column slice of the window, W, b).
    """
    xw = _window_rows(x.data, left, right, lengths)
    z = np.empty((xw.shape[0], sum(w.shape[1] for _, w, _ in filters)), dtype=xw.dtype)
    ofs = 0
    for cols, w, b in filters:
        zq = z[:, ofs:ofs + w.shape[1]]
        ofs += w.shape[1]
        np.matmul(xw[:, cols], w.data, out=zq)
        zq += b.data
    del xw      # rebuilt by the backward pass rather than held on the tape
    check_finite(f"{what} pre-activation", z)
    out = Tensor(np.tanh(z, out=z))
    if not _taped(what, out, (x, *(p for _, w, b in filters for p in (w, b)))):
        return out

    def _back(grad):
        xw = _window_rows(x.data, left, right, lengths)
        g = grad * (1.0 - z * z)
        gxw = np.zeros_like(xw)
        ofs = 0
        for cols, w, b in filters:
            gq = g[:, ofs:ofs + w.shape[1]]
            ofs += w.shape[1]
            _accum(w, xw[:, cols].T @ gq)
            _accum(b, gq.sum(axis=0))
            gxw[:, cols] += gq @ w.data.T
        _accum(x, _window_rows_grad(gxw, left, right, lengths))

    out._backward = _back
    return out


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


def kmax_pool(z, k):
    """Per row, keep the k largest values in their original order.

    Ties prefer the lower original index; gradients flow only to the
    selected positions. np.partition finds each row's k-th largest value;
    the values at least that large, read in row order, are the k columns
    already sorted. Where copies of the k-th largest value make that more
    than k, those rows alone are re-selected: every value above the k-th,
    then values equal to it, lowest index first.
    """
    n, width = z.shape
    if k > width:
        raise ShapeError(f"k-max pooling width {k} exceeds the {width} available features")
    data = z.data
    top = np.partition(data, width - k, axis=1)[:, width - k:]
    if np.isnan(top).any():
        # np.partition ranks NaN above every number, so a NaN is always among the k
        raise NumericError(f"kmax_pool: NaN in a row of the {z.shape} input")
    kth = top[:, :1]
    take = data >= kth
    rows = np.flatnonzero(np.count_nonzero(take, axis=1) > k)
    if rows.size:
        above = data[rows] > kth[rows]
        tied = take[rows] & ~above
        take[rows] = above | (tied & (np.cumsum(tied, axis=1)
                                      <= k - above.sum(axis=1, keepdims=True)))
    idx = (np.arange(n)[:, None], (np.flatnonzero(take) % width).reshape(n, k))
    out = Tensor(data[idx])
    if not _taped("kmax_pool", out, (z,)):
        return out

    def _back(grad):
        g = np.zeros_like(data)
        g[idx] = grad   # indices within a row are distinct
        _accum(z, g)

    out._backward = _back
    return out


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
    z = xd @ wd + b.data
    check_finite("highway_forward gate pre-activation", z)
    gate = _sigmoid(z)
    carry = 1.0 - gate
    out = Tensor(cd * gate + xd * carry)
    if not _taped("highway_forward", out, (x, cov_x, w, b)):
        return out

    def _back(grad):
        dz = grad * (cd - xd) * gate * carry
        _accum(cov_x, grad * gate)
        _accum(x, grad * carry + dz @ wd.T)
        _accum(w, xd.T @ dz)
        _accum(b, dz.sum(axis=0))

    out._backward = _back
    return out


def _lstm_direction(xhat, w, b, reverse, lengths, op):
    """Single-direction LSTM over the rows of xhat, zero initial state: its
    states in input order and backward closure. `op` names it in errors.

    Per step: [i; o; f; c-hat] = [sigm; sigm; sigm; tanh](W_g^T [x_t; h_{t-1}] + b_g),
    W_g (d + h) x 4h, c_t = c_{t-1} * f + c-hat * i, h_t = o * tanh(c_t). With
    reverse=True the positions are visited last to first and the outputs
    realigned to input order.
    With several sentences packed in xhat (`lengths`), each runs from its own
    zero state, all of them in the same steps.

    The input half of every position's gates is a single GEMM,
    X @ W[:d] + b, so a step multiplies only h_{t-1} @ W[d:], one row
    per sentence still running. The rows are laid out step-major with no
    padding (``autograd._packed_steps``): step t is one contiguous block, and
    h_{t-1} is the head of the block before it. One _sigmoid call activates
    all four gates of a step, in place, once the step has checked them.
    The backward pass is hand-written backpropagation through time; it
    overwrites the cached activations, first with each gate's derivative
    factor and then with the gradient of its pre-activation.
    """
    x, wd = xhat.data, w.data
    if x.ndim != 2:
        raise ShapeError(f"{op}: expected 2-D input, got {xhat.shape}")
    n, d = x.shape
    h = b.shape[0] // 4
    if wd.shape != (d + h, 4 * h):
        raise ShapeError(f"{op}: W {wd.shape} does not fit x {xhat.shape} with h={h}")
    where, steps = _packed_steps(lengths, n, reverse)
    what = f"{op} gate pre-activations"
    xp = np.empty_like(x)
    xp[where] = x
    acts = xp @ wd[:d]
    acts += b.data
    w_h = wd[d:]
    half = np.full(4 * h, 0.5, dtype=acts.dtype)     # for _sigmoid: c-hat gets tanh
    half[3 * h:] = 1.0
    shift = 1.0 - half
    cells = np.empty((n, h), dtype=acts.dtype)
    hidden = np.empty_like(cells)
    prev = None
    for lo, m in steps:
        g = acts[lo:lo + m]
        if prev is not None:
            g += hidden[prev:prev + m] @ w_h
        check_finite(what, g)   # the activations would hide an overflow
        _sigmoid(g, half, shift)
        c, h_t = cells[lo:lo + m], hidden[lo:lo + m]
        np.multiply(g[:, 3 * h:], g[:, :h], out=c)
        if prev is not None:
            c += cells[prev:prev + m] * g[:, 2 * h:3 * h]
        np.multiply(g[:, h:2 * h], np.tanh(c), out=h_t)
        prev = lo

    def _back(grad):
        m0 = steps[0][1]    # every sentence runs at the first step
        gate_i, gate_o, gate_f, c_hat = (acts[:, k * h:(k + 1) * h] for k in range(4))
        # derivative factors of the pre-activations, in place: d z = (dc or dh) * factor
        tanh_c = np.tanh(cells)
        dc_dh = tanh_c * tanh_c
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= gate_o                             # c_t reaches h_t through o * tanh(c_t)
        gate_o *= 1.0 - gate_o
        gate_o *= tanh_c
        f = tanh_c                                  # reused: f is kept for the carry dc * f
        f[...] = gate_f
        gate_f *= 1.0 - gate_f
        gate_f[:m0] = 0.0                           # the first step has c_{t-1} = 0
        for (prev, _), (lo, m) in zip(steps, steps[1:]):
            gate_f[lo:lo + m] *= cells[prev:prev + m]
        di = gate_i * (1.0 - gate_i)
        di *= c_hat
        np.multiply(c_hat, c_hat, out=c_hat)
        np.subtract(1.0, c_hat, out=c_hat)
        c_hat *= gate_i
        gate_i[...] = di
        del di
        # backpropagation through time: the factors become d pre-activations
        d_hidden = np.empty_like(hidden)
        d_hidden[where] = grad
        w_hT = np.ascontiguousarray(wd[d:].T)
        dc_carry = np.empty_like(hidden[:m0])
        acts_4 = acts.reshape(n, 4, h)
        m_next = 0
        for t in range(len(steps) - 1, -1, -1):
            lo, m = steps[t]
            dh = d_hidden[lo:lo + m]
            dc = dh * dc_dh[lo:lo + m]
            dc[:m_next] += dc_carry[:m_next]
            gate_o[lo:lo + m] *= dh
            acts_4[lo:lo + m, 0] *= dc
            acts_4[lo:lo + m, 2:] *= dc[:, None]
            if t:
                prev = steps[t - 1][0]
                np.multiply(dc, f[lo:lo + m], out=dc_carry[:m])
                d_hidden[prev:prev + m] += acts[lo:lo + m] @ w_hT
            m_next = m
        # W's recurrent half pairs each step after the first with h_{t-1}, the
        # head of the step before; gather those rows into a finished buffer
        active = np.array([m for _, m in steps], dtype=np.intp)
        h_before = np.take(hidden, np.arange(m0, n) - np.repeat(active[:-1], active[1:]),
                           axis=0, out=dc_dh[m0:])
        xp = np.empty_like(x)
        xp[where] = x
        _accum(xhat, (acts @ wd[:d].T)[where])
        _accum(w, np.concatenate([xp.T @ acts, h_before.T @ acts[m0:]]))
        _accum(b, acts.sum(axis=0))

    return hidden[where], _back


def _recurrent(fn, xhat, directions, lengths):
    """LSTM directions (W, b, reverse) over the rows of xhat, states side by
    side: one tape node, named "blstm_forward lstm.fwd (forward), lstm.bwd
    (reverse)". A direction's caches are freed before the next one runs under
    no_grad(), and in backward() as soon as it has run."""
    labels = [f"{w.name.removesuffix('.w') or 'lstm'} ({'reverse' if rev else 'forward'})"
              for w, _, rev in directions]
    states, backs = [], []
    for (w, b, reverse), label in zip(directions, labels):
        state, back = _lstm_direction(xhat, w, b, reverse, lengths, f"{fn} {label}")
        states.append(state)
        if _grad_on.get():
            backs.append(back)
        del back    # under no_grad() this frees the direction's caches
    out = Tensor(np.concatenate(states, axis=1))
    if not _taped(f"{fn} {', '.join(labels)}", out,
                  (xhat, *(p for w, b, _ in directions for p in (w, b)))):
        return out

    def _back(grad):
        for k, g in enumerate(np.split(grad, len(backs), axis=1)):
            back, backs[k] = backs[k], None
            back(g)

    out._backward = _back
    return out


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


def encode(ids, named, cfg):
    """Run the configured encoder stack over the sentence(s) packed in ids,
    reading each layer's Parameters out of `named` by their manifest names.

    A layer's output is let go as soon as the next layer has read it, so
    under autograd.no_grad(), where no tape holds it, it is freed there.
    """
    def affine(layer):
        return named[f"{layer}.w"], named[f"{layer}.b"]

    x = embed_sentence(ids, named["embed.unigram"], named.get("embed.bigram"), cfg)
    if cfg.mlp_baseline:
        return mlp_encode(x, *affine("mlp"), cfg.window, ids.lengths)
    feats = x
    if cfg.use_conv:
        bank = [affine(f"conv.q{q}") for q in range(1, cfg.feature_map_sets + 1)]
        feats = conv_feature_maps(x, bank, ids.lengths)
        if cfg.use_pooling:
            feats = kmax_pool(feats, cfg.k_pool)
            if cfg.use_highway:
                feats = highway_forward(x, feats, *affine("highway"))
    del x
    lstm = [affine(f"lstm.{direction}") for direction in _DIRECTIONS[cfg.recurrent]]
    if cfg.recurrent == "lstm":
        return lstm_forward(feats, *lstm[0], lengths=ids.lengths)
    if cfg.recurrent == "blstm":
        return blstm_forward(feats, *lstm, ids.lengths)
    return feats
