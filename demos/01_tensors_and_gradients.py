"""Tensors, the backward tape, and finite-difference verification.

Everything in segtag runs on a small reverse-mode autodiff core: dense
numpy-backed tensors whose ops record a backward closure. This script walks
through the basics and then verifies an analytic gradient against central
finite differences.
"""
import numpy as np

from segtag import autograd as ag
from segtag import lattice as lt
from segtag.autograd import Parameter, Tensor

# A tensor wraps a dense row-major array. Sequence length always leads.
x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
print("x:", x, "\n", x.data)

# Parameters carry a persistent gradient buffer; the AdaGrad accumulator is
# created by the first AdaGrad update, so a model that only tags has none.
w = Parameter(np.array([[0.5, -0.2, 0.1], [0.3, 0.8, -0.4]]), name="w")
b = Parameter(np.zeros(3), name="b")

# matmul computes x @ W and registers how gradients flow back. This is the
# tag projection: one score per (position, tag).
scores = ag.matmul(x, w)
print("\nmatmul output (2x3):\n", scores.data)

# The hinge loss compares two tag paths: path_emission_diff sums
# scores[i, path_i] - scores[i, gold_i], and tag_count_diff adds the bias
# through integer tag counts. backward() accumulates into every parameter
# on the tape.
path, gold = [2, 1], [0, 1]
loss = lt.path_emission_diff(scores, path, gold) + lt.tag_count_diff(b, path, gold)
loss.backward()
print("\nloss:", loss.item())
print("dloss/dw:\n", w.grad)
print("dloss/db:", b.grad)

# grad_check rebuilds the computation per evaluation and compares the
# analytic gradient to (f(t+e) - f(t-e)) / 2e for every coordinate.
err = ag.grad_check(lambda: lt.path_emission_diff(ag.matmul(x, w), path, gold)
                    + lt.tag_count_diff(b, path, gold), [w, b])
print("\nmax relative error vs central differences:", err)
assert err < 1e-6

# NaN/Inf checking is on by default; every op validates its output.
try:
    Tensor(np.array([np.inf]))
except ag.NumericError as e:
    print("non-finite values are an error state:", e)
