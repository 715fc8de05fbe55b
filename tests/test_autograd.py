import numpy as np
import pytest

from segtag import autograd as ag
from segtag.autograd import Parameter, Tensor


def rand_param(rng, *shape, name=""):
    return Parameter(rng.uniform(-1.0, 1.0, size=shape), name=name)


def affine_oracle(x, w, b):
    """Independent triple-loop matrix product, no numpy matmul."""
    n, a = x.shape
    _, m = w.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = b[j]
            for k in range(a):
                s += x[i, k] * w[k, j]
            out[i, j] = s
    return out


class TestAffine:
    def test_identity_passthrough(self):
        x = Tensor([[1.0, 2.0]])
        w = Parameter(np.eye(2))
        b = Parameter(np.zeros(2))
        out = ag.affine(x, w, b)
        assert np.allclose(out.data, [[1.0, 2.0]])

    def test_zero_input_passes_bias(self):
        x = Tensor(np.zeros((1, 2)))
        w = Parameter(np.array([[5.0, -1.0], [2.0, 7.0]]))
        b = Parameter(np.array([3.0, 4.0]))
        out = ag.affine(x, w, b)
        assert np.allclose(out.data, [[3.0, 4.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Parameter(rng.normal(size=(4, 2)))
        b = Parameter(rng.normal(size=2))
        out = ag.affine(x, w, b)
        assert np.allclose(out.data, affine_oracle(x.data, w.data, b.data), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((2, 3)))
        w = Parameter(np.zeros((4, 2)))
        b = Parameter(np.zeros(2))
        with pytest.raises(ag.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ag.affine(x, w, b)

    def test_linearity(self):
        # affine(a*x + b*y) == a*affine(x) + b*affine(y) - (a+b-1)*bias
        rng = np.random.default_rng(7)
        w = Parameter(rng.normal(size=(4, 3)))
        bias = Parameter(rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 4))
        alpha, beta = 0.7, -1.3
        lhs = ag.affine(Tensor(alpha * x + beta * y), w, bias).data
        rhs = (
            alpha * ag.affine(Tensor(x), w, bias).data
            + beta * ag.affine(Tensor(y), w, bias).data
            - (alpha + beta - 1.0) * bias.data
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestActivations:
    def test_tanh_at_zero(self):
        assert ag.tanh(Tensor([[0.0]])).item() == 0.0


class TestGradCheck:
    def test_quadratic(self):
        p = Parameter(np.array([1.0, 2.0]))
        err = ag.grad_check(lambda: ag.sum_all(p * p), [p])
        # analytic grad of sum(x^2) is [2, 4]
        p.zero_grad()
        out = ag.sum_all(p * p)
        out.backward()
        assert np.allclose(p.grad, [2.0, 4.0])
        assert err < 1e-8

    def test_constant_function(self):
        p = Parameter(np.array([0.5, -0.5]))
        err = ag.grad_check(lambda: Tensor(np.zeros(())) + 0.0, [p])
        assert err == 0.0

    def test_requires_float64(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            ag.grad_check(lambda: ag.sum_all(p), [p])

    def test_nonfinite_f_raises(self):
        p = Parameter(np.array([1.0]))

        def f():
            out = Tensor(np.array(0.0))
            out.data[...] = np.inf      # past the check at construction
            return out

        with pytest.raises(ag.NumericError):
            ag.grad_check(f, [p])


def _op_cases(rng):
    """One scalar-valued function per op, over random shapes."""
    n = int(rng.integers(1, 5))
    a = int(rng.integers(1, 5))
    b = int(rng.integers(1, 4))
    x = rand_param(rng, n, a, name="x")
    w = rand_param(rng, a, b, name="w")
    bias = rand_param(rng, b, name="b")
    y = rand_param(rng, n, a, name="y")
    return {
        "affine": (lambda: ag.sum_all(ag.affine(x, w, bias)), [x, w, bias]),
        "matmul": (lambda: ag.sum_all(ag.tanh(ag.matmul(x, w))), [x, w]),
        "tanh": (lambda: ag.sum_all(ag.tanh(x)), [x]),
        "add": (lambda: ag.sum_all(x + y), [x, y]),
        "sub": (lambda: ag.sum_all(x - y), [x, y]),
        "mul": (lambda: ag.sum_all(x * y), [x, y]),
        "neg": (lambda: ag.sum_all(-x), [x]),
        "scalar_mix": (lambda: ag.sum_all(2.5 * x - 1.0) + 3.0, [x]),
        "concat_cols": (lambda: ag.sum_all(ag.tanh(ag.concat_cols([x, y]))), [x, y]),
    }


OP_NAMES = sorted(_op_cases(np.random.default_rng(0)).keys())


@pytest.mark.parametrize("op", OP_NAMES)
@pytest.mark.parametrize("seed", range(8))
def test_every_op_matches_finite_differences(op, seed):
    # 9 ops x 8 seeds = 72 random shape/seed cases in total
    rng = np.random.default_rng(1000 * seed + OP_NAMES.index(op))
    f, params = _op_cases(rng)[op]
    assert ag.grad_check(f, params, eps=1e-5) <= 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_ops_do_not_mutate_inputs(seed):
    rng = np.random.default_rng(seed)
    for f, params in _op_cases(rng).values():
        before = [p.data.copy() for p in params]
        out = f()
        out.backward()
        for p, snap in zip(params, before):
            assert np.array_equal(p.data, snap)


def test_finite_check_toggle():
    # checks are always on: a NaN or Inf fails the tensor that would hold it
    with pytest.raises(ag.NumericError):
        Tensor(np.array([np.nan]))
    with pytest.raises(ag.NumericError):
        Tensor(np.array([np.inf]))
    with np.errstate(over="ignore"), pytest.raises(ag.NumericError):
        Tensor(np.array([1e308])) * 10.0     # an op whose result overflows


def test_parameter_grad_accumulates_across_graphs():
    p = Parameter(np.array([[1.0, 2.0]]))
    for _ in range(3):
        ag.sum_all(p * p).backward()
    assert np.allclose(p.grad, 3 * 2 * p.data)
    p.zero_grad()
    assert np.all(p.grad == 0)


def test_backward_requires_scalar_root():
    with pytest.raises(ag.ShapeError):
        Tensor(np.zeros((2, 2))).backward()


def test_backward_releases_the_graph_and_refuses_a_second_pass():
    w = Parameter(np.array([[1.0, -2.0], [0.5, 3.0]]), name="w")
    x = Tensor(np.array([[1.0, -1.0], [2.0, 0.5]]))
    hidden = ag.tanh(ag.matmul(x, w))
    root = ag.sum_all(hidden)
    root.backward()
    # interior nodes drop their gradient, closure and edges; leaves keep theirs
    assert hidden.grad is None and hidden._prev == ()
    assert x.grad is not None
    first = w.grad.copy()
    with pytest.raises(RuntimeError, match=r"backward\(\)"):
        root.backward()
    # a new root over the released part cannot reach the parameters either
    with pytest.raises(RuntimeError, match=r"backward\(\)"):
        ag.sum_all(hidden * 2.0).backward()
    assert np.array_equal(w.grad, first)


def taped_ops():
    """(name a backward() error must give, op applied to fixed inputs) for
    every op that records a tape."""
    from segtag import encoder as enc
    from segtag import lattice as lt

    rng = np.random.default_rng(7)
    lengths = [3, 4]
    x = Tensor(rng.uniform(-1.0, 1.0, size=(7, 4)))
    y = Tensor(rng.uniform(-1.0, 1.0, size=(7, 4)))
    w, b = rand_param(rng, 4, 5), rand_param(rng, 5)
    bank = enc.ConvFilterBank([rand_param(rng, q * 4, 3) for q in (1, 2, 3)],
                              [rand_param(rng, 3) for _ in range(3)])
    mlp = enc.MlpParams(rand_param(rng, 12, 5), rand_param(rng, 5))
    hw = enc.HighwayParams(rand_param(rng, 4, 4), rand_param(rng, 4))
    lstm = enc.LstmParams(rand_param(rng, 7, 12, name="lstm.fwd.w"), rand_param(rng, 12))
    table = rand_param(rng, 10, 4)
    scores = Tensor(rng.uniform(-1.0, 1.0, size=(7, 5)))
    trans = lt.TransitionMatrix(rand_param(rng, 5, 5))
    path, gold = [0, 1, 2, 3, 4, 0, 1], [0, 2, 2, 3, 1, 0, 4]
    return [
        ("add", lambda: x + y), ("add", lambda: x + 2.0),
        ("sub", lambda: x - y), ("sub", lambda: x - 1.5), ("neg", lambda: -x),
        ("mul", lambda: x * y), ("mul", lambda: x * 3.0),
        ("affine", lambda: ag.affine(x, w, b)), ("matmul", lambda: ag.matmul(x, w)),
        ("tanh", lambda: ag.tanh(x)), ("concat_cols", lambda: ag.concat_cols([x, y])),
        ("sum_all", lambda: ag.sum_all(x)),
        ("embed_rows", lambda: enc.embed_rows(table, [1, 4, 4, 9, 0, 2, 3])),
        ("conv_feature_maps", lambda: enc.conv_feature_maps(x, bank, lengths)),
        ("mlp_encode", lambda: enc.mlp_encode(x, mlp, 3, lengths)),
        ("kmax_pool", lambda: enc.kmax_pool(x, 2)),
        ("highway_forward", lambda: enc.highway_forward(x, y, hw)),
        (r"lstm_forward lstm\.fwd \(forward\)",
         lambda: enc.lstm_forward(x, lstm, lengths=lengths)),
        (r"lstm_forward lstm\.fwd \(reverse\)",
         lambda: enc.lstm_forward(x, lstm, reverse=True, lengths=lengths)),
        ("path_emission_diff", lambda: lt.path_emission_diff(scores, path, gold)),
        ("tag_count_diff", lambda: lt.tag_count_diff(b, path, gold)),
        ("arc_count_diff", lambda: lt.arc_count_diff(trans.a, trans, path, gold, lengths)),
    ]


@pytest.mark.parametrize("case", range(len(taped_ops())))
def test_no_grad_computes_the_same_output_and_refuses_backward(case):
    name, op = taped_ops()[case]
    taped = op()
    with ag.no_grad():
        untaped = op()
    assert untaped.dtype == taped.dtype
    assert untaped.data.tobytes() == taped.data.tobytes()
    assert taped._prev and untaped._prev == ()
    # a root built with the tape on reaches the untaped output, and stops there
    root = untaped if untaped.data.size == 1 else ag.sum_all(untaped)
    with pytest.raises(RuntimeError, match=rf"backward\(\) through {name}: .*no_grad\(\)"):
        root.backward()


def test_no_grad_is_undone_on_leaving_the_block():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        with ag.no_grad():
            with ag.no_grad():
                assert (x + x)._prev == ()
            assert (x + x)._prev == ()
            raise ValueError
    assert (x + x)._prev == (x, x)
