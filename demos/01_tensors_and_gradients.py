"""Tensors, the backward tape, and finite-difference verification.

Everything in segtag runs on a small reverse-mode autodiff core: dense
numpy-backed tensors whose ops record a backward closure. This script walks
through the basics, builds the structured hinge loss over a two-character
sentence and verifies its analytic gradient against central finite
differences.
"""
from types import SimpleNamespace

import numpy as np

from segtag import autograd as ag
from segtag import lattice as lt
from segtag import training as tr
from segtag.autograd import Parameter, Tensor

# A tensor wraps a dense row-major array. Sequence length always leads.
x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
print("x:", x, "\n", x.data)

# Parameters carry a persistent gradient buffer; the AdaGrad accumulator is
# created by the first AdaGrad update, so a model that only tags has none.
w = Parameter(np.array([[0.5, -0.2, 0.1], [0.3, 0.8, -0.4]]), name="proj.w")
b = Parameter(np.zeros(3), name="proj.b")
trans = lt.TransitionMatrix(Parameter(np.zeros((3, 3)), name="trans.a"))

# emission_scores is the tag projection: the tensor x @ W, one score per
# (position, tag), which matmul records on the tape, and the array
# x @ W + b that the lattice decodes.
scores, _ = lt.emission_scores(x, w, b)
print("\nunbiased tag scores (2x3):\n", scores.data)

# The training loss is the structured hinge: the best path under scores
# inflated by eta per position that differs from gold, minus gold's score.
# hinge_loss_graph reads the tag scores, the bias and the transitions of a
# model, here x itself standing in for the encoder's output, and returns
# one tape node. Its backward() scatters +-1 into the scores' gradient,
# which matmul carries on to W, and adds the integer tag and arc count
# differences to the bias and the transitions.
model = SimpleNamespace(emissions=lambda ids: lt.emission_scores(x, w, b),
                        named={"proj.w": w, "proj.b": b}, trans=trans)
sentence = SimpleNamespace(lengths=[2])     # one sentence of two characters
gold = [0, 1]
loss, _, violator = tr.hinge_loss_graph(model, sentence, gold, eta=0.2)
loss.backward()
print("\nviolator:", violator, "gold:", gold, "hinge loss:", loss.item())
print("dloss/dW:\n", w.grad)
print("dloss/db:", b.grad)
print("dloss/dA:\n", trans.a.grad)

# grad_check rebuilds the computation per evaluation and compares the
# analytic gradient to (f(t+e) - f(t-e)) / 2e for every coordinate.
err = ag.grad_check(lambda: tr.hinge_loss_graph(model, sentence, gold, eta=0.2)[0],
                    [w, b, trans.a])
print("\nmax relative error vs central differences:", err)
assert err < 1e-6

# NaN/Inf checking is on by default; every op validates its output.
try:
    Tensor(np.array([np.inf]))
except ag.NumericError as e:
    print("non-finite values are an error state:", e)
