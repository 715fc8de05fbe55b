import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from segtag import autograd as ag
from segtag.autograd import Parameter, Tensor
from util import projection_model, taped_sum, topology_config


def rand_param(rng, *shape, name=""):
    return Parameter(rng.uniform(-1.0, 1.0, size=shape), name=name)


def matmul_oracle(x, w):
    """Independent triple-loop matrix product, no numpy matmul."""
    n, a = x.shape
    _, m = w.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for k in range(a):
                s += x[i, k] * w[k, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity_passthrough(self):
        x = Tensor([[1.0, 2.0]])
        w = Parameter(np.eye(2))
        out = ag.matmul(x, w)
        assert np.allclose(out.data, [[1.0, 2.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Parameter(rng.normal(size=(4, 2)))
        out = ag.matmul(x, w)
        assert np.allclose(out.data, matmul_oracle(x.data, w.data), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((2, 3)))
        w = Parameter(np.zeros((4, 2)))
        with pytest.raises(ag.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ag.matmul(x, w)

    def test_linearity(self):
        # matmul(a*x + b*y) == a*matmul(x) + b*matmul(y)
        rng = np.random.default_rng(7)
        w = Parameter(rng.normal(size=(4, 3)))
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 4))
        alpha, beta = 0.7, -1.3
        lhs = ag.matmul(Tensor(alpha * x + beta * y), w).data
        rhs = alpha * ag.matmul(Tensor(x), w).data + beta * ag.matmul(Tensor(y), w).data
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestGradCheck:
    def test_quadratic(self):
        p = Parameter(np.array([1.0, 2.0]))
        err = ag.grad_check(lambda: taped_sum(p, "square"), [p])
        # analytic grad of sum(x^2) is [2, 4]
        p.zero_grad()
        out = taped_sum(p, "square")
        out.backward()
        assert np.allclose(p.grad, [2.0, 4.0])
        assert err < 1e-8

    def test_constant_function(self):
        p = Parameter(np.array([0.5, -0.5]))
        err = ag.grad_check(lambda: Tensor(np.zeros(())), [p])
        assert err == 0.0

    def test_requires_float64(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            ag.grad_check(lambda: taped_sum(p), [p])

    def test_nonfinite_f_raises(self):
        p = Parameter(np.array([1.0]))

        def f():
            out = Tensor(np.array(0.0))
            out.data[...] = np.inf      # past the check at construction
            return out

        with pytest.raises(ag.NumericError):
            ag.grad_check(f, [p])


def _ragged(rng, n):
    """A random split of n rows into sentence lengths."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
    return np.diff(np.concatenate([[0], cuts, [n]])).tolist()


def _op_cases(rng):
    """One scalar-valued function per taped op, over random shapes."""
    from segtag import encoder as enc
    from segtag import lattice as lt
    from segtag import training as tr

    n = int(rng.integers(1, 5))
    a = int(rng.integers(1, 5))
    b = int(rng.integers(1, 4))
    x = rand_param(rng, n, a, name="x")
    w = rand_param(rng, a, b, name="w")
    y = rand_param(rng, n, a, name="y")
    lengths = _ragged(rng, n)
    table = rand_param(rng, 6, a, name="table")
    ids = rng.integers(0, 6, size=n)
    conv_w = [rand_param(rng, q * a, b) for q in (1, 2, 3)]
    conv_b = [rand_param(rng, b) for _ in range(3)]
    bank = list(zip(conv_w, conv_b))
    window = int(rng.integers(1, 4))
    mlp = rand_param(rng, window * a, b), rand_param(rng, b)
    k = int(rng.integers(1, a + 1))
    hw = rand_param(rng, a, a), rand_param(rng, a)
    lstm = rand_param(rng, a + b, 4 * b), rand_param(rng, 4 * b)
    # the hinge over packed sentences long enough that some tag and arc counts
    # differ; half the cases forbid random transitions (self-loops stay open,
    # so a path exists) and gold may cross them
    m, t = int(rng.integers(4, 9)), int(rng.integers(2, 5))
    mask = rng.random((t, t)) < 0.4 if rng.integers(0, 2) else None
    if mask is not None:
        mask[np.arange(t), np.arange(t)] = False
    hidden, proj = rand_param(rng, m, a, name="hidden"), rand_param(rng, a, t, name="proj.w")
    bias = rand_param(rng, t, name="proj.b")
    trans = lt.TransitionMatrix(rand_param(rng, t, t, name="trans.a"), mask)
    tagger = projection_model(hidden, proj, bias, trans)
    tag_ids = SimpleNamespace(lengths=np.array(_ragged(rng, m)))
    gold = rng.integers(0, t, size=m)
    # bigram ids: left and right share the table and the id bi[0]; uni repeats an id
    bi_table = rand_param(rng, 3, a, name="bi_table")
    bi = rng.integers(0, 3, size=n + 1)
    bi[-1] = bi[0]
    ids[-1] = ids[0]
    chars = enc.CharIds(uni=ids, bi_left=bi[:-1], bi_right=bi[1:], lengths=np.array(lengths))
    bigram_cfg = enc.EncoderConfig(d=a, stack="embed", recurrent="none", use_bigram=True)
    lstm_bwd = rand_param(rng, a + b, 4 * b), rand_param(rng, 4 * b)
    return {
        "matmul": (lambda: taped_sum(ag.matmul(x, w), "tanh"), [x, w]),
        "embed_sentence": (
            lambda: taped_sum(enc.embed_sentence(chars, table, bi_table, bigram_cfg), "tanh"),
            [table, bi_table]),
        "conv_feature_maps": (
            lambda: taped_sum(enc.conv_feature_maps(x, bank, lengths), "tanh"),
            [x, *conv_w, *conv_b]),
        "mlp_encode": (lambda: taped_sum(enc.mlp_encode(x, *mlp, window, lengths), "tanh"),
                       [x, *mlp]),
        "kmax_pool": (lambda: taped_sum(enc.kmax_pool(x, k), "tanh"), [x]),
        "highway_forward": (lambda: taped_sum(enc.highway_forward(x, y, *hw), "tanh"),
                            [x, y, *hw]),
        "lstm_forward": (lambda: taped_sum(enc.lstm_forward(x, *lstm, lengths=lengths), "tanh"),
                         [x, *lstm]),
        "lstm_forward_reverse": (
            lambda: taped_sum(enc.lstm_forward(x, *lstm, reverse=True, lengths=lengths), "tanh"),
            [x, *lstm]),
        "blstm_forward": (
            lambda: taped_sum(enc.blstm_forward(x, lstm, lstm_bwd, lengths), "tanh"),
            [x, *lstm, *lstm_bwd]),
        "hinge_loss_graph": (lambda: tr.hinge_loss_graph(tagger, tag_ids, gold, 0.2)[0],
                             [hidden, proj, bias, trans.a]),
    }


OP_NAMES = sorted(_op_cases(np.random.default_rng(0)).keys())


@pytest.mark.parametrize("op", OP_NAMES)
@pytest.mark.parametrize("seed", range(8))
def test_every_op_matches_finite_differences(op, seed):
    # 10 ops x 8 seeds = 80 random shape/seed cases in total
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


def test_a_nan_or_inf_fails_the_tensor_that_would_hold_it():
    # checks are always on: a NaN or Inf fails the tensor that would hold it
    with pytest.raises(ag.NumericError):
        Tensor(np.array([np.nan]))
    with pytest.raises(ag.NumericError):
        Tensor(np.array([np.inf]))
    with np.errstate(over="ignore"), pytest.raises(ag.NumericError):
        x = Tensor(np.array([[1e308]]))
        ag.matmul(x, Parameter(np.array([[10.0]])))     # an op whose result overflows


def test_parameter_grad_accumulates_across_graphs():
    p = Parameter(np.array([[1.0, 2.0]]))
    for _ in range(3):
        taped_sum(p, "square").backward()
    assert np.allclose(p.grad, 3 * 2 * p.data)
    p.zero_grad()
    assert np.all(p.grad == 0)


def test_backward_requires_scalar_root():
    with pytest.raises(ag.ShapeError):
        Tensor(np.zeros((2, 2))).backward()


def test_backward_releases_the_graph_and_refuses_a_second_pass():
    w = Parameter(np.array([[1.0, -2.0], [0.5, 3.0]]), name="w")
    x = Tensor(np.array([[1.0, -1.0], [2.0, 0.5]]))
    hidden = ag.matmul(x, w)
    root = taped_sum(hidden, "tanh")
    root.backward()
    # interior nodes drop their gradient, closure and edges; leaves keep theirs
    assert hidden.grad is None and hidden._prev == ()
    assert x.grad is not None
    first = w.grad.copy()
    with pytest.raises(RuntimeError, match=r"backward\(\)"):
        root.backward()
    # a new root over the released part cannot reach the parameters either
    with pytest.raises(RuntimeError, match=r"backward\(\)"):
        taped_sum(hidden).backward()
    assert np.array_equal(w.grad, first)


def taped_ops():
    """(name a backward() error must give, op applied to fixed inputs) for
    every op that records a tape, named as the model runs it."""
    from segtag import encoder as enc
    from segtag import lattice as lt
    from segtag import training as tr

    rng = np.random.default_rng(7)
    lengths = [3, 4]
    x = Tensor(rng.uniform(-1.0, 1.0, size=(7, 4)))
    y = Tensor(rng.uniform(-1.0, 1.0, size=(7, 4)))
    w, b = rand_param(rng, 4, 5), rand_param(rng, 5)
    conv_w = [rand_param(rng, q * 4, 3) for q in (1, 2, 3)]
    bank = list(zip(conv_w, [rand_param(rng, 3) for _ in range(3)]))
    mlp = rand_param(rng, 12, 5), rand_param(rng, 5)
    hw = rand_param(rng, 4, 4), rand_param(rng, 4)
    lstm = rand_param(rng, 7, 12, name="lstm.fwd.w"), rand_param(rng, 12)
    lstm_bwd = Parameter(lstm[0].data, name="lstm.bwd.w"), lstm[1]
    table, bigrams = rand_param(rng, 10, 4), rand_param(rng, 6, 4)
    bi = np.array([0, 5, 2, 2, 1, 3, 1, 0])
    chars = enc.CharIds(uni=np.array([1, 4, 4, 9, 0, 2, 3]), bi_left=bi[:-1], bi_right=bi[1:],
                        lengths=np.array(lengths))
    bigram_cfg = enc.EncoderConfig(d=4, stack="embed", recurrent="none", use_bigram=True)
    tagger = projection_model(x, w, b, lt.TransitionMatrix(rand_param(rng, 5, 5)))
    gold = [0, 2, 2, 3, 1, 0, 4]
    return [
        ("matmul", lambda: ag.matmul(x, w)),
        ("embed_sentence", lambda: enc.embed_sentence(chars, table, bigrams, bigram_cfg)),
        ("conv_feature_maps", lambda: enc.conv_feature_maps(x, bank, lengths)),
        ("mlp_encode", lambda: enc.mlp_encode(x, *mlp, 3, lengths)),
        ("kmax_pool", lambda: enc.kmax_pool(x, 2)),
        ("highway_forward", lambda: enc.highway_forward(x, y, *hw)),
        (r"lstm_forward lstm\.fwd \(forward\)",
         lambda: enc.lstm_forward(x, *lstm, lengths=lengths)),
        (r"blstm_forward lstm\.fwd \(forward\), lstm\.bwd \(reverse\)",
         lambda: enc.blstm_forward(x, lstm, lstm_bwd, lengths)),
        ("hinge_loss_graph", lambda: tr.hinge_loss_graph(
            tagger, SimpleNamespace(lengths=np.array(lengths)), gold, 0.2)[0]),
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
    root = untaped if untaped.data.size == 1 else taped_sum(untaped)
    with pytest.raises(RuntimeError, match=rf"backward\(\) through {name}: .*no_grad\(\)"):
        root.backward()


def test_no_grad_is_undone_on_leaving_the_block():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        with ag.no_grad():
            with ag.no_grad():
                assert ag.matmul(x, x)._prev == ()
            assert ag.matmul(x, x)._prev == ()
            raise ValueError
    assert ag.matmul(x, x)._prev == (x, x)


# (EncoderConfig overrides, constrained transitions) of the full stack with
# bigrams, one LSTM direction, a BLSTM without conv and the window-3 MLP baseline
MODEL_CONFIGS = [
    (dict(use_bigram=True, feature_maps=12), True),
    (dict(recurrent="lstm"), False),
    (dict(stack="embed"), False),
    (dict(stack="mlp", window=3), False),
]


def test_training_and_tagging_run_every_taped_op(monkeypatch):
    # an op that only tests call would show up here as one nothing records
    from segtag import corpus as cp
    from segtag import training as tr
    from segtag.model import Model
    from segtag.toydata import toy_corpus

    record, recorded = ag._record, set()

    def recording(op, out, inputs, backward):
        recorded.add(op)
        return record(op, out, inputs, backward)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "segtag" and getattr(module, "_record", None) is record:
            monkeypatch.setattr(module, "_record", recording)
    sents = toy_corpus(12, seed=3)
    for overrides, constrained in MODEL_CONFIGS:
        cfg = topology_config(**dict(d=6, h=5, feature_map_sets=2, feature_maps=6) | overrides)
        vocab, tagset = cp.build_vocab_and_tagset(sents, use_bigram=cfg.use_bigram,
                                                  bigram_min_count=1)
        model = Model(cfg, vocab, tagset, constrain_transitions=constrained)
        tr.train_epoch(sents, model, tr.TrainConfig(batch_size=4))
        model.tag_batch([s.chars for s in sents])
    unused = [name for name, _ in taped_ops()
              if not any(re.fullmatch(name, op) for op in recorded)]
    assert not unused, f"taped ops that training and tagging never run: {unused}"
