"""Dense tensors with reverse-mode automatic differentiation on numpy arrays.

Tensors are 2-D (or 1-D / scalar) row-major arrays; sequence length is always
the leading dimension. float32 is the training precision, float64 the
verification precision: an op's output dtype follows numpy promotion of its
inputs, so a model built from float64 parameters runs entirely in float64.
"""
from __future__ import annotations

import numpy as np


class NumericError(ArithmeticError):
    """A tensor holds NaN or Inf, or a checked evaluation went non-finite."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def check_finite(what, *arrays):
    """Raise NumericError naming `what` when an array holds NaN/Inf.

    For fused ops whose saturating nonlinearities would hide an overflow
    from the check on their output tensor.
    """
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericError(f"{what}: NaN/Inf")


def _as_float_array(data):
    # float32/float64 ndarrays keep their dtype; anything else becomes float64
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A dense array plus the closure that routes gradients to its inputs.

    The closure takes the tensor's own gradient as its argument and holds no
    reference to the tensor, so a graph has no reference cycles: it is freed
    as soon as its root is dropped, without waiting for the garbage collector.
    """

    __slots__ = ("data", "grad", "_prev", "_backward")

    def __init__(self, data, _prev=(), _backward=None):
        self.data = _as_float_array(data)
        if not np.all(np.isfinite(self.data)):
            raise NumericError("tensor contains NaN/Inf")
        self.grad = None
        self._prev = tuple(_prev)
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return self.data.item()

    def backward(self):
        """Run reverse-mode accumulation from a scalar root."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar root, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                stack.append((child, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"

    # Elementwise arithmetic; tensor operands must match shapes exactly,
    # python scalars fold in as constants.
    def __add__(self, other):
        if isinstance(other, Tensor):
            _same_shape("add", self, other)
            out = Tensor(self.data + other.data, (self, other))

            def _back(grad):
                _accum(self, grad)
                _accum(other, grad)

        else:
            out = Tensor(self.data + other, (self,))

            def _back(grad):
                _accum(self, grad)

        out._backward = _back
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))

        def _back(grad):
            _accum(self, -grad)

        out._backward = _back
        return out

    def __sub__(self, other):
        if isinstance(other, Tensor):
            _same_shape("sub", self, other)
            out = Tensor(self.data - other.data, (self, other))

            def _back(grad):
                _accum(self, grad)
                _accum(other, -grad)

        else:
            out = Tensor(self.data - other, (self,))

            def _back(grad):
                _accum(self, grad)

        out._backward = _back
        return out

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _same_shape("mul", self, other)
            out = Tensor(self.data * other.data, (self, other))

            def _back(grad):
                _accum(self, grad * other.data)
                _accum(other, grad * self.data)

        else:
            out = Tensor(self.data * other, (self,))

            def _back(grad):
                _accum(self, grad * other)

        out._backward = _back
        return out

    __rmul__ = __mul__


class Parameter(Tensor):
    """Trainable tensor with persistent gradient and adaptive-rate accumulator.

    The gradient buffer survives across backward passes so the gradients of
    a mini-batch's chunks accumulate; call zero_grad() at batch start.
    """

    __slots__ = ("name", "accumulator")

    def __init__(self, data, name=""):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)
        self.accumulator = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad.fill(0.0)

    def __repr__(self):
        return f"Parameter({self.name or '?'}, shape={self.shape})"


def _accum(t, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def affine(x, w, b):
    """Row-wise affine map: out[i] = W^T x[i] + b, i.e. x @ W + b.

    x is n*a, w is a*b, b is a length-b vector.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(
            f"affine: expected 2-D x, 2-D W, 1-D b; got {x.shape}, {w.shape}, {b.shape}"
        )
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"affine: x {x.shape} does not fit W {w.shape}, b {b.shape}")
    out = Tensor(x.data @ w.data + b.data, (x, w, b))

    def _back(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    out._backward = _back
    return out


def matmul(x, w):
    """2-D matrix product x @ w."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"matmul: x {x.shape} does not fit W {w.shape}")
    out = Tensor(x.data @ w.data, (x, w))

    def _back(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)

    out._backward = _back
    return out


def tanh(x):
    y = np.tanh(x.data)
    out = Tensor(y, (x,))

    def _back(grad):
        _accum(x, grad * (1.0 - y * y))

    out._backward = _back
    return out


def concat_cols(parts):
    """Concatenate 2-D tensors with equal row counts along columns."""
    parts = list(parts)
    rows = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != rows:
            raise ShapeError(f"concat_cols: row mismatch in {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), tuple(parts))

    def _back(grad):
        ofs = 0
        for p in parts:
            w = p.shape[1]
            _accum(p, grad[:, ofs:ofs + w])
            ofs += w

    out._backward = _back
    return out


def _check_lengths(lengths, n):
    """`lengths` (None: one sentence) as an array, checked to split n packed
    rows into sentences."""
    lengths = np.asarray([n] if lengths is None else lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != n:
        raise ShapeError(f"sentence lengths {lengths.tolist()} do not partition {n} rows")
    return lengths


def _sentence_positions(lengths, n):
    """Per row of n packed rows: its index within its sentence and that
    sentence's length. `lengths` lists the sentences, packed end to end."""
    lengths = _check_lengths(lengths, n)
    size = np.repeat(lengths, lengths)
    return np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths), size


def _time_major(lengths, n, reverse=False):
    """Time-major layout of packed sentences: (step, slot, active).

    Packed row r sits at step[r], slot[r] of a (T, B, ...) array, T being the
    longest length and B the sentence count. Slots order the sentences longest
    first, so the sentences still running at step t are the first active[t]
    slots, and a sentence's slot is never visited after its last position.
    With reverse=True each sentence is flipped: its last character is step 0.
    """
    lengths = _check_lengths(lengths, n)
    pos, size = _sentence_positions(lengths, n)
    slot_of = np.empty(lengths.size, dtype=np.intp)
    slot_of[np.argsort(-lengths, kind="stable")] = np.arange(lengths.size)
    step = size - 1 - pos if reverse else pos
    active = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0).tolist()
    return step, np.repeat(slot_of, lengths), active


def _window_offsets(n, left, right, lengths=None):
    """(column block j, destination rows, source rows) of each window offset.

    With several sentences packed in the n rows (`lengths`, default one), a
    row's neighbour in another sentence is skipped, as if it were margin padding.
    """
    pos, size = _sentence_positions(lengths, n)
    for j, off in enumerate(range(-left, right + 1)):
        dst = np.flatnonzero((pos + off >= 0) & (pos + off < size))
        yield j, dst, dst + off


def _window_rows(data, left, right, lengths=None):
    """Row i holds rows i-left .. i+right of data side by side, zeros past
    the margins. With several sentences packed in the rows (`lengths`), a
    window never reaches into a neighbouring sentence: those blocks are zero."""
    n, d = data.shape
    out = np.zeros((n, (left + right + 1) * d), dtype=data.dtype)
    for j, dst, src in _window_offsets(n, left, right, lengths):
        out[dst, j * d:(j + 1) * d] = data[src]
    return out


def _window_rows_grad(g, left, right, lengths=None):
    """Adjoint of _window_rows: fold an n x (span*d) gradient back onto n x d."""
    n, d = g.shape[0], g.shape[1] // (left + right + 1)
    out = np.zeros((n, d), dtype=g.dtype)
    for j, dst, src in _window_offsets(n, left, right, lengths):
        out[src] += g[dst, j * d:(j + 1) * d]   # the rows of one offset are distinct
    return out


def sum_all(x):
    """Sum every element into a scalar tensor."""
    out = Tensor(x.data.sum(), (x,))

    def _back(grad):
        _accum(x, np.ones_like(x.data) * grad)

    out._backward = _back
    return out


def grad_check(f, params, eps=1e-5):
    """Compare backprop gradients of scalar f() against central differences.

    f rebuilds its computation from the current parameter values on every
    call. Requires float64 parameters (verification mode). Returns the
    maximum relative error over every coordinate of every parameter, with
    denominator max(|g|, |g_fd|, 1e-8).
    """
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters, {p.name or p.shape} is {p.data.dtype}")
    for p in params:
        p.zero_grad()
    out = f()
    if not np.all(np.isfinite(out.data)):
        raise NumericError("grad_check: f evaluated non-finite")
    out.backward()
    analytic = [p.grad.copy() for p in params]

    max_rel = 0.0
    for p, grads in zip(params, analytic):
        flat = p.data.ravel()
        gflat = grads.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f().item()
            flat[i] = orig - eps
            f_minus = f().item()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("grad_check: perturbed f evaluated non-finite")
            fd = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(gflat[i]), abs(fd), 1e-8)
            max_rel = max(max_rel, abs(gflat[i] - fd) / denom)
    return max_rel
