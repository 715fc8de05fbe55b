"""Dense tensors with reverse-mode automatic differentiation on numpy arrays.

Tensors are 2-D (or 1-D / scalar) row-major arrays; sequence length is always
the leading dimension. float32 is the training precision, float64 the
verification precision: an op's output dtype follows numpy promotion of its
inputs, so a model built from float64 parameters runs entirely in float64.
Inside a no_grad() block the same ops build no tape, which is how tagging
runs.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools

import numpy as np


class NumericError(ArithmeticError):
    """A tensor holds NaN or Inf, a checked evaluation went non-finite, or a
    fused layer's pre-activations could overflow (encoder._guard)."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_grad_on = contextvars.ContextVar("grad_on", default=True)


@contextlib.contextmanager
def no_grad():
    """Run ops without a tape inside the block.

    An op computes the same output with the same checks, but its output
    keeps neither its inputs nor the backward closure the op built, so no
    backward cache outlives the op: its intermediate arrays are freed as
    soon as it returns. A backward() that reaches such an output raises,
    naming the op.
    """
    token = _grad_on.set(False)
    try:
        yield
    finally:
        _grad_on.reset(token)


def _record(op, out, inputs, backward):
    """Make out the tape node of op, and return it: the one place a node is
    made. With the tape on, out keeps its inputs and the backward closure;
    under no_grad() it keeps neither, and a backward() through it raises,
    naming op."""
    if _grad_on.get():
        out._prev, out._backward = inputs, backward
    else:
        out._backward = functools.partial(_untaped, op)
    return out


def _untaped(op, grad):
    raise RuntimeError(f"backward() through {op}: its output was built under no_grad(), "
                       "which records no tape")


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
    An op's output built under no_grad() has no inputs, and its closure
    refuses a backward().
    """

    __slots__ = ("data", "grad", "_prev", "_backward")

    def __init__(self, data):
        self.data = _as_float_array(data)
        if not np.all(np.isfinite(self.data)):
            raise NumericError("tensor contains NaN/Inf")
        self.grad = None
        self._prev, self._backward = (), None

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
        """Run reverse-mode accumulation from a scalar root.

        Each interior node is released as soon as its own backward has run:
        its gradient, its closure (with the forward caches it holds) and its
        input edges. The tape is therefore freed while it is walked, and a
        second backward() through any of it raises instead of silently
        adding nothing. Leaves (parameters and input tensors) keep their
        gradients.
        """
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
        while topo:
            node = topo.pop()    # dropped here, so a finished node can be freed
            back = node._backward
            if back is not None:
                grad = node.grad
                node.grad, node._prev, node._backward = None, (), _released
                back(grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """Trainable tensor with persistent gradient and adaptive-rate accumulator.

    The gradient buffer survives across backward passes so the gradients of
    a mini-batch's chunks accumulate; call zero_grad() at batch start. The
    AdaGrad accumulator is None until the parameter's first AdaGrad update
    creates it, so a model that only tags holds no optimizer state. Its
    data is not checked for NaN/Inf: it is drawn, or Model checked it.
    """

    __slots__ = ("name", "accumulator")

    def __init__(self, data, name=""):
        self.data = _as_float_array(data)
        self.name = name
        self.grad = np.zeros(self.data.shape, self.data.dtype)    # calloc: no write pass
        self.accumulator = None
        self._prev, self._backward = (), None

    def zero_grad(self):
        self.grad.fill(0.0)

    def __repr__(self):
        return f"Parameter({self.name or '?'}, shape={self.shape})"


def _released(grad):
    raise RuntimeError("backward() already ran through this graph and released it; "
                       "build the graph again to take another gradient")


def _accum(t, g):
    """Add gradient g to t.grad. A node's first gradient is kept as it is
    (cast to t's dtype), not copied into zeros; an op may hand one array to
    several inputs, so a later gradient is added out of place. A Parameter
    owns its buffer and accumulates in place."""
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype)
    elif isinstance(t, Parameter):
        t.grad += g
    else:
        t.grad = t.grad + g


def matmul(x, w):
    """2-D matrix product x @ w."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"matmul: x {x.shape} does not fit W {w.shape}")
    out = Tensor(x.data @ w.data)

    def _back(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)

    return _record("matmul", out, (x, w), _back)


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


def _packed_steps(lengths, n, reverse=False):
    """Step-major layout of the sentences packed in n rows: (where, steps).

    Row r moves to row where[r]. Step t is the contiguous rows lo .. lo+m of
    steps[t] = (lo, m): position t of each of the m sentences longer than t,
    longest sentence first (as in a PackedSequence). The rows of step t
    therefore continue the first m rows of step t-1, and no row is padding.
    With reverse=True each sentence is flipped: its last character is step 0.
    """
    lengths = _check_lengths(lengths, n)
    pos, size = _sentence_positions(lengths, n)
    step = size - 1 - pos if reverse else pos
    slot = np.empty(lengths.size, dtype=np.intp)
    slot[np.argsort(-lengths, kind="stable")] = np.arange(lengths.size)
    active = np.bincount(step)
    offs = np.cumsum(active) - active
    return offs[step] + np.repeat(slot, lengths), list(zip(offs.tolist(), active.tolist()))


def _window_offsets(n, left, right, lengths=None):
    """(column block j, row slice, source row slice, cut rows) of each window
    offset: row i of the slice reads row i + offset of the source slice,
    except the rows in cut, whose neighbour at that offset lies past a
    margin or, with several sentences packed in the n rows (`lengths`,
    default one), in another sentence. cut holds every row the slice misses.
    """
    pos, size = _sentence_positions(lengths, n)
    for j, off in enumerate(range(-left, right + 1)):
        lo = max(-off, 0)
        hi = max(n - max(off, 0), lo)
        cut = np.flatnonzero((pos + off < 0) | (pos + off >= size))
        yield j, slice(lo, hi), slice(lo + off, hi + off), cut


def _window_rows(data, left, right, lengths=None):
    """Row i holds rows i-left .. i+right of data side by side, zeros past
    the margins. With several sentences packed in the rows (`lengths`), a
    window never reaches into a neighbouring sentence: those blocks are zero.
    Each offset's block is one shifted copy, then its cut rows are zeroed."""
    n, d = data.shape
    out = np.empty((n, (left + right + 1) * d), dtype=data.dtype)
    for j, rows, src, cut in _window_offsets(n, left, right, lengths):
        block = out[:, j * d:(j + 1) * d]
        block[rows] = data[src]
        block[cut] = 0.0
    return out


def _window_rows_grad(g, left, right, lengths=None):
    """Adjoint of _window_rows: fold an n x (span*d) gradient back onto n x d.

    Each offset's block of g has its cut rows zeroed, in place, and is added
    as one shifted slice. A zeroed row adds +0.0 to a sum that starts at
    +0.0, which changes no bit of it.
    """
    n, d = g.shape[0], g.shape[1] // (left + right + 1)
    out = np.zeros((n, d), dtype=g.dtype)
    for j, rows, src, cut in _window_offsets(n, left, right, lengths):
        block = g[:, j * d:(j + 1) * d]
        block[cut] = 0.0
        out[src] += block[rows]
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
