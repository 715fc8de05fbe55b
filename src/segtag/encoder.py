"""Character-sequence encoders.

The main pipeline maps a character-id sequence to per-position feature
vectors: embedding lookup, wide n-gram convolutions, k-max pooling along the
feature axis, a highway gate over the pooled features, and an optional
(bi)directional LSTM. A windowed MLP encoder is kept as the baseline
topology. Every stage is differentiable through the autograd tape; the conv
bank and each LSTM direction are single fused tape nodes with hand-written
backward passes.
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
    _window_rows,
    _window_rows_grad,
    affine,
    check_finite,
    concat_cols,
    sigmoid,
    tanh,
    window_concat,
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
                raise ConfigError("need at least one feature map set")
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
    """Integer views of one sentence: unigram ids plus boundary-padded bigram ids."""

    uni: np.ndarray
    bi_left: np.ndarray | None = None   # id of bigram (c[i-1], c[i])
    bi_right: np.ndarray | None = None  # id of bigram (c[i], c[i+1])

    def __len__(self):
        return len(self.uni)


class EmbeddingTable:
    """Unigram (and optional bigram) embedding matrices.

    Row 0 is the unknown token, row 1 the padding token; the pad row is only
    referenced through sentence-boundary bigrams, so sentences that never
    touch it leave it unchanged.
    """

    UNK, PAD = 0, 1

    def __init__(self, unigram, bigram=None):
        self.unigram = unigram
        self.bigram = bigram
        self.unk_index = self.UNK
        self.pad_index = self.PAD

    @property
    def d(self):
        return self.unigram.shape[1]


@dataclass
class ConvFilterBank:
    """One wide-convolution filter per n-gram order q = 1..Q."""

    weights: list   # weights[q-1]: Parameter[(q * d_in) x l_q]
    biases: list    # biases[q-1]: Parameter[l_q]

    @property
    def orders(self):
        return len(self.weights)


@dataclass
class HighwayParams:
    w: Parameter    # square gate matrix, d_pool x d_pool
    b: Parameter


@dataclass
class LstmParams:
    """Gate parameters for one direction; gate block order is (i, o, f, c-hat)."""

    w: Parameter    # (d_pool + h) x 4h
    b: Parameter    # 4h

    @property
    def hidden_size(self):
        return self.b.shape[0] // 4


@dataclass
class MlpParams:
    w: Parameter    # (window * d_in) x h
    b: Parameter


@dataclass
class EncoderParams:
    """Every trainable tensor of the encoder, populated per the config."""

    table: EmbeddingTable
    conv: ConvFilterBank | None = None
    highway: HighwayParams | None = None
    lstm_fwd: LstmParams | None = None
    lstm_bwd: LstmParams | None = None
    mlp: MlpParams | None = None

    def parameters(self):
        """Ordered (name, Parameter) pairs; the order is the serialization manifest."""
        out = [("embed.unigram", self.table.unigram)]
        if self.table.bigram is not None:
            out.append(("embed.bigram", self.table.bigram))
        if self.conv is not None:
            for q, (w, b) in enumerate(zip(self.conv.weights, self.conv.biases), start=1):
                out.append((f"conv.q{q}.w", w))
                out.append((f"conv.q{q}.b", b))
        if self.highway is not None:
            out.append(("highway.w", self.highway.w))
            out.append(("highway.b", self.highway.b))
        if self.lstm_fwd is not None:
            out.append(("lstm.fwd.w", self.lstm_fwd.w))
            out.append(("lstm.fwd.b", self.lstm_fwd.b))
        if self.lstm_bwd is not None:
            out.append(("lstm.bwd.w", self.lstm_bwd.w))
            out.append(("lstm.bwd.b", self.lstm_bwd.b))
        if self.mlp is not None:
            out.append(("mlp.w", self.mlp.w))
            out.append(("mlp.b", self.mlp.b))
        return out


def glorot(rng, fan_in, fan_out, dtype):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def init_encoder_params(cfg, n_unigrams, n_bigrams, rng, dtype=np.float32):
    """Allocate encoder parameters: Glorot-uniform weights, zero biases,
    uniform(-0.01, 0.01) embeddings."""
    uni = Parameter(rng.uniform(-0.01, 0.01, size=(n_unigrams, cfg.d)).astype(dtype),
                    name="embed.unigram")
    bi = None
    if cfg.use_bigram:
        bi = Parameter(rng.uniform(-0.01, 0.01, size=(n_bigrams, cfg.d)).astype(dtype),
                       name="embed.bigram")
    params = EncoderParams(table=EmbeddingTable(uni, bi))

    if cfg.mlp_baseline:
        fan_in = cfg.window * cfg.d_in
        params.mlp = MlpParams(
            w=Parameter(glorot(rng, fan_in, cfg.h, dtype), name="mlp.w"),
            b=Parameter(np.zeros(cfg.h, dtype=dtype), name="mlp.b"),
        )
        return params

    if cfg.use_conv:
        weights, biases = [], []
        for q, l_q in enumerate(cfg.feature_maps, start=1):
            fan_in = q * cfg.d_in
            weights.append(Parameter(glorot(rng, fan_in, l_q, dtype), name=f"conv.q{q}.w"))
            biases.append(Parameter(np.zeros(l_q, dtype=dtype), name=f"conv.q{q}.b"))
        params.conv = ConvFilterBank(weights, biases)
    if cfg.use_highway:
        w = cfg.d_pool
        params.highway = HighwayParams(
            w=Parameter(glorot(rng, w, w, dtype), name="highway.w"),
            b=Parameter(np.zeros(w, dtype=dtype), name="highway.b"),
        )
    if cfg.recurrent in ("lstm", "blstm"):
        fan_in = cfg.d_pool + cfg.h
        params.lstm_fwd = LstmParams(
            w=Parameter(glorot(rng, fan_in, 4 * cfg.h, dtype), name="lstm.fwd.w"),
            b=Parameter(np.zeros(4 * cfg.h, dtype=dtype), name="lstm.fwd.b"),
        )
    if cfg.recurrent == "blstm":
        fan_in = cfg.d_pool + cfg.h
        params.lstm_bwd = LstmParams(
            w=Parameter(glorot(rng, fan_in, 4 * cfg.h, dtype), name="lstm.bwd.w"),
            b=Parameter(np.zeros(4 * cfg.h, dtype=dtype), name="lstm.bwd.b"),
        )
    return params


def embed_rows(table_param, ids):
    """Differentiable row gather from an embedding matrix."""
    ids = np.asarray(ids, dtype=np.intp)
    out = Tensor(table_param.data[ids], (table_param,))

    def _back():
        if table_param.grad is None:
            table_param.grad = np.zeros_like(table_param.data)
        np.add.at(table_param.grad, ids, out.grad)

    out._backward = _back
    return out


def embed_sentence(ids, table, cfg):
    """Look up per-position embeddings; with bigrams on, each row is
    e(c_i) ++ e_b(c_{i-1} c_i) ++ e_b(c_i c_{i+1}) for width 3d."""
    if len(ids) == 0:
        raise ValueError("cannot embed an empty sentence")
    uni = embed_rows(table.unigram, ids.uni)
    if not cfg.use_bigram:
        return uni
    if table.bigram is None or ids.bi_left is None or ids.bi_right is None:
        raise ConfigError("bigram features enabled but bigram table or ids missing")
    left = embed_rows(table.bigram, ids.bi_left)
    right = embed_rows(table.bigram, ids.bi_right)
    return concat_cols([uni, left, right])


def mlp_encode(x, mlp, window):
    """Windowed baseline encoder: tanh(W_h^T [x_{i-..} .. x_{i+..}] + b_h)."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    xw = window_concat(x, (window - 1) // 2, window // 2)
    return tanh(affine(xw, mlp.w, mlp.b))


def conv_feature_maps(x, bank):
    """Wide n-gram convolutions, tanh per map set, concatenated along features.

    Order q sees the rows i - floor((q-1)/2) .. i + ceil((q-1)/2), zero padded
    at the margins so the output keeps the input length. One tape node: the
    window of the widest order is built once and order q reads its q middle
    row blocks as a column view.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"conv_feature_maps: expected 2-D input, got {x.shape}")
    n, d = x.shape
    left = (bank.orders - 1) // 2
    xw = _window_rows(x.data, left, bank.orders // 2)
    windows, blocks = [], []
    for q, (w, b) in enumerate(zip(bank.weights, bank.biases), start=1):
        if w.shape[0] != q * d or w.shape[1] != b.shape[0]:
            raise ShapeError(f"conv order {q}: W {w.shape}, b {b.shape} do not fit x {x.shape}")
        lo = (left - (q - 1) // 2) * d
        windows.append(slice(lo, lo + q * d))
        blocks.append(xw[:, windows[-1]] @ w.data + b.data)
    z = np.concatenate(blocks, axis=1)
    check_finite("conv_feature_maps pre-activation", z)
    out = Tensor(np.tanh(z, out=z), (x, *bank.weights, *bank.biases))

    def _back():
        g = out.grad * (1.0 - out.data * out.data)
        gxw = np.zeros_like(xw)
        ofs = 0
        for cols, w, b in zip(windows, bank.weights, bank.biases):
            gq = g[:, ofs:ofs + w.shape[1]]
            ofs += w.shape[1]
            _accum(w, xw[:, cols].T @ gq)
            _accum(b, gq.sum(axis=0))
            gxw[:, cols] += gq @ w.data.T
        _accum(x, _window_rows_grad(gxw, left, bank.orders // 2))

    out._backward = _back
    return out


def kmax_pool(z, k):
    """Per row, keep the k largest values in their original order.

    Ties prefer the lower original index; gradients flow only to the
    selected positions. A row keeps every value above its k-th largest,
    then fills the remaining slots with values equal to it, lowest index
    first, so no full sort is needed.
    """
    n, width = z.shape
    if k > width:
        raise ShapeError(f"k-max pooling width {k} exceeds the {width} available features")
    data = z.data
    kth = np.partition(data, width - k, axis=1)[:, width - k, None]
    above = data > kth
    ties = data == kth
    take = above | (ties & (np.cumsum(ties, axis=1) <= k - above.sum(axis=1, keepdims=True)))
    rows, cols = np.nonzero(take)
    if rows.size != n * k:
        raise NumericError(f"kmax_pool: NaN in a row of the {z.shape} input")
    idx = (rows.reshape(n, k), cols.reshape(n, k))
    out = Tensor(data[idx], (z,))

    def _back():
        g = np.zeros_like(data)
        g[idx] = out.grad   # indices within a row are distinct
        _accum(z, g)

    out._backward = _back
    return out


def highway_forward(x, cov_x, hw):
    """Gated mix of transformed and carried input with carry = 1 - transform:
    out = cov_x * sigmoid(W_T^T x + b_T) + x * (1 - sigmoid(...))."""
    if x.shape != cov_x.shape:
        raise ShapeError(
            f"highway carry {x.shape} and transformed input {cov_x.shape} are decoupled"
        )
    gate = sigmoid(affine(x, hw.w, hw.b))
    return cov_x * gate + x * (1.0 - gate)


def lstm_forward(xhat, p, reverse=False):
    """Single-direction LSTM over the rows of xhat, zero initial state.

    Per step: [i; o; f; c-hat] = [sigm; sigm; sigm; tanh](W_g^T [x_t; h_{t-1}] + b_g),
    c_t = c_{t-1} * f + c-hat * i, h_t = o * tanh(c_t). With reverse=True the
    positions are visited last to first and the outputs realigned to input order.

    One tape node. The input half of every position's gates is a single
    GEMM, X @ W[:d] + b, so a step multiplies only h_{t-1} @ W[d:]; the
    backward pass is hand-written backpropagation through time over the
    cached gates and cell states.
    """
    x, w = xhat.data, p.w.data
    if x.ndim != 2:
        raise ShapeError(f"lstm_forward: expected 2-D input, got {xhat.shape}")
    n, d = x.shape
    h = p.hidden_size
    if w.shape != (d + h, 4 * h):
        raise ShapeError(f"lstm_forward: W {w.shape} does not fit x {xhat.shape} with h={h}")
    w_x, w_h = w[:d], w[d:]
    gates = x @ w_x + p.b.data      # pre-activations; the recurrent term is added per step
    acts = np.empty_like(gates)
    cells = np.empty((n, h), dtype=gates.dtype)
    hidden = np.empty((n, h), dtype=gates.dtype)
    positions = range(n - 1, -1, -1) if reverse else range(n)
    h_prev = c_prev = np.zeros(h, dtype=gates.dtype)
    # sigmoid as 1/(1+e^-z): e^-z overflows to inf below z ~ -88 (float32), giving the limit 0
    with np.errstate(over="ignore"):
        for t in positions:
            g, a = gates[t], acts[t]
            g += h_prev @ w_h
            s = a[:3 * h]
            np.negative(g[:3 * h], out=s)
            np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)
            np.tanh(g[3 * h:], out=a[3 * h:])
            c_t = cells[t]
            np.multiply(c_prev, a[2 * h:3 * h], out=c_t)
            c_t += a[3 * h:] * a[:h]
            np.multiply(a[h:2 * h], np.tanh(c_t), out=hidden[t])
            h_prev, c_prev = hidden[t], c_t
    layer = p.w.name.removesuffix(".w") or "lstm"
    direction = "reverse" if reverse else "forward"
    check_finite(f"lstm_forward {layer} ({direction}) gates or cell states", gates, cells)
    out = Tensor(hidden, (xhat, p.w, p.b))

    def _back():
        # each row's state before its step: the neighbour visited just earlier, or zeros
        h_before, c_before = np.zeros_like(hidden), np.zeros_like(cells)
        if reverse:
            h_before[:-1], c_before[:-1] = hidden[1:], cells[1:]
        else:
            h_before[1:], c_before[1:] = hidden[:-1], cells[:-1]
        tanh_c = np.tanh(cells)
        gate_i, gate_o, gate_f, c_hat = (acts[:, k * h:(k + 1) * h] for k in range(4))
        dc_dh = gate_o * (1.0 - tanh_c * tanh_c)
        # d pre-activation = (dc or dh) * coef: the activation's derivative times
        # the factor it multiplies in c_t or h_t
        coef = acts * (1.0 - acts)
        coef[:, :h] *= c_hat
        coef[:, h:2 * h] *= tanh_c
        coef[:, 2 * h:3 * h] *= c_before
        coef[:, 3 * h:] = gate_i * (1.0 - c_hat * c_hat)
        coef = coef.reshape(n, 4, h)
        w_hT = np.ascontiguousarray(w_h.T)
        dgates = np.empty_like(gates)
        dh_next = dc_next = np.zeros(h, dtype=gates.dtype)
        for t in reversed(positions):
            dh = out.grad[t] + dh_next
            dc = dh * dc_dh[t]
            dc += dc_next
            dg = dgates[t].reshape(4, h)
            np.multiply(coef[t], dc, out=dg)
            np.multiply(coef[t, 1], dh, out=dg[1])      # the output gate scales tanh(c_t)
            dc_next = dc * gate_f[t]
            dh_next = dgates[t] @ w_hT
        _accum(xhat, dgates @ w_x.T)
        _accum(p.w, np.concatenate([x.T @ dgates, h_before.T @ dgates]))
        _accum(p.b, dgates.sum(axis=0))

    out._backward = _back
    return out


def blstm_forward(xhat, fwd, bwd):
    """Concatenate forward and backward LSTM states per position."""
    if fwd.hidden_size != bwd.hidden_size:
        raise ConfigError(
            f"forward h={fwd.hidden_size} and backward h={bwd.hidden_size} differ"
        )
    return concat_cols([lstm_forward(xhat, fwd, reverse=False),
                        lstm_forward(xhat, bwd, reverse=True)])


def encode(ids, params, cfg):
    """Run the configured encoder stack over one sentence of character ids."""
    x = embed_sentence(ids, params.table, cfg)
    if cfg.mlp_baseline:
        return mlp_encode(x, params.mlp, cfg.window)
    feats = x
    if cfg.use_conv:
        z = conv_feature_maps(x, params.conv)
        if cfg.use_pooling:
            feats = kmax_pool(z, cfg.k_pool)
            if cfg.use_highway:
                feats = highway_forward(x, feats, params.highway)
        else:
            feats = z
    if cfg.recurrent == "lstm":
        return lstm_forward(feats, params.lstm_fwd)
    if cfg.recurrent == "blstm":
        return blstm_forward(feats, params.lstm_fwd, params.lstm_bwd)
    return feats
