import copy
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtag import autograd as ag
from segtag import corpus as cp
from segtag import encoder as enc
from segtag import lattice as lt
from segtag import training as tr
from segtag.autograd import NumericError, Parameter, Tensor
from segtag.corpus import Vocab
from segtag.encoder import CharIds, EncoderConfig
from segtag.model import Model
from segtag.toydata import toy_corpus
from util import (conv_oracle, init_encoder_params, kmax_oracle, lstm_oracle, rel_err, taped_sum,
                  topology_config, topology_grid)


def make_tables(rng, n_chars=6, d=4, bigram=False, n_bigrams=9):
    """Unigram and (or None) bigram embedding Parameters."""
    uni = Parameter(rng.uniform(-1, 1, size=(n_chars, d)))
    bi = Parameter(rng.uniform(-1, 1, size=(n_bigrams, d))) if bigram else None
    return uni, bi


class TestEmbed:
    def test_direct_lookup(self):
        rng = np.random.default_rng(0)
        uni, bi = make_tables(rng)
        cfg = EncoderConfig(d=4, stack="embed", recurrent="none")
        out = enc.embed_sentence(CharIds(uni=np.array([2, 3])), uni, bi, cfg)
        assert np.array_equal(out.data, uni.data[[2, 3]])

    def test_unk_row(self):
        rng = np.random.default_rng(1)
        uni, bi = make_tables(rng)
        cfg = EncoderConfig(d=4, stack="embed", recurrent="none")
        out = enc.embed_sentence(CharIds(uni=np.array([Vocab.UNK])), uni, bi, cfg)
        assert np.array_equal(out.data[0], uni.data[0])

    def test_bigram_concat_width(self):
        rng = np.random.default_rng(2)
        uni, bi = make_tables(rng, d=50, bigram=True)
        cfg = EncoderConfig(d=50, stack="embed", recurrent="none", use_bigram=True)
        assert cfg.d_in == 150
        ids = CharIds(uni=np.array([2, 3, 4]),
                      bi_left=np.array([0, 1, 2]),
                      bi_right=np.array([1, 2, 0]))
        out = enc.embed_sentence(ids, uni, bi, cfg)
        assert out.shape == (3, 150)
        want = np.concatenate([uni.data[[2, 3, 4]],
                               bi.data[[0, 1, 2]],
                               bi.data[[1, 2, 0]]], axis=1)
        assert np.array_equal(out.data, want)

    def test_empty_sentence_rejected(self):
        rng = np.random.default_rng(3)
        uni, bi = make_tables(rng)
        cfg = EncoderConfig(d=4, stack="embed", recurrent="none")
        with pytest.raises(ValueError, match="empty"):
            enc.embed_sentence(CharIds(uni=np.array([], dtype=int)), uni, bi, cfg)


class TestMlpEncode:
    def test_window_one_is_rowwise_affine_tanh(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(5, 3)))
        w, b = Parameter(rng.normal(size=(3, 2))), Parameter(rng.normal(size=2))
        out = enc.mlp_encode(x, w, b, window=1)
        want = np.tanh(x.data @ w.data + b.data)
        assert np.allclose(out.data, want, atol=1e-12)

    def test_window_three_single_row_pads_both_sides(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 3)))
        w, b = Parameter(rng.normal(size=(9, 2))), Parameter(rng.normal(size=2))
        out = enc.mlp_encode(x, w, b, window=3)
        padded = np.concatenate([np.zeros(3), x.data[0], np.zeros(3)])
        want = np.tanh(padded @ w.data + b.data)
        assert np.allclose(out.data[0], want, atol=1e-12)

    def test_window_three_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(6)
        n, d, h = 4, 3, 2
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(3 * d, h))
        b = rng.normal(size=h)
        out = enc.mlp_encode(Tensor(x), Parameter(w), Parameter(b), window=3)
        xpad = np.vstack([np.zeros(d), x, np.zeros(d)])
        for i in range(n):
            window = np.concatenate([xpad[i], xpad[i + 1], xpad[i + 2]])
            assert np.allclose(out.data[i], np.tanh(window @ w + b), atol=1e-12)

    def test_bad_window_rejected(self):
        with pytest.raises(enc.ConfigError, match="window"):
            enc.mlp_encode(Tensor(np.zeros((2, 2))), None, None, window=0)

    def test_mismatched_weights_rejected(self):
        x = Tensor(np.zeros((4, 3)))
        w, b = Parameter(np.zeros((6, 2))), Parameter(np.zeros(2))
        with pytest.raises(ag.ShapeError, match=r"mlp_encode.*\(6, 2\).*\(4, 3\)"):
            enc.mlp_encode(x, w, b, window=3)
        w, b = Parameter(np.zeros((9, 2))), Parameter(np.zeros(3))
        with pytest.raises(ag.ShapeError, match="mlp_encode"):
            enc.mlp_encode(x, w, b, window=3)


class TestConvFeatureMaps:
    def test_unigram_order_reduces_to_affine_tanh(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Parameter(rng.normal(size=(3, 5)))
        b = Parameter(rng.normal(size=5))
        out = enc.conv_feature_maps(x, [(w, b)])
        assert np.allclose(out.data, np.tanh(x.data @ w.data + b.data), atol=1e-12)

    def test_zero_filters_give_constant_rows(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(5, 3)))
        bank = [(Parameter(np.zeros((3 * q, 4))), Parameter(rng.normal(size=4))) for q in (1, 2, 3)]
        out = enc.conv_feature_maps(x, bank)
        want = np.concatenate([np.tanh(b.data) for _, b in bank])
        for row in out.data:
            assert np.allclose(row, want, atol=1e-12)

    def test_published_scale_output_width(self):
        # Q = 5 sets of 100 maps over d = 50 embeddings gives n x 500 features
        rng = np.random.default_rng(9)
        cfg = EncoderConfig(d=50, h=4, feature_map_sets=5, feature_maps=100)
        params = init_encoder_params(cfg, n_unigrams=10, n_bigrams=0, rng=rng)
        x = Tensor(rng.normal(size=(7, 50)).astype(np.float32))
        out = enc.conv_feature_maps(x, [(params[f"conv.q{q}.w"], params[f"conv.q{q}.b"])
                                        for q in range(1, 6)])
        assert out.shape == (7, 500)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        orders = int(rng.integers(1, 5))
        weights = [rng.normal(size=(q * d, int(rng.integers(1, 4)))) for q in range(1, orders + 1)]
        biases = [rng.normal(size=w.shape[1]) for w in weights]
        x = rng.normal(size=(n, d))
        bank = [(Parameter(w), Parameter(b)) for w, b in zip(weights, biases)]
        out = enc.conv_feature_maps(Tensor(x), bank)
        assert rel_err(out.data, conv_oracle(x, weights, biases)) <= 1e-10

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_wide_convolution_preserves_length(self, q, n):
        # order q and an MLP window of q see the same rows, through the same window op
        rng = np.random.default_rng(10 * q + n)
        x = Tensor(rng.normal(size=(n, 3)))
        weights = [Parameter(rng.normal(size=(3 * k, 2))) for k in range(1, q + 1)]
        bank = list(zip(weights, [Parameter(rng.normal(size=2)) for _ in range(q)]))
        z = enc.conv_feature_maps(x, bank)
        assert z.shape == (n, 2 * q)
        out = enc.mlp_encode(x, *bank[-1], window=q)
        assert out.shape == (n, 2)
        assert np.allclose(z.data[:, -2:], out.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("orders", [1, 2, 3])
    def test_gradients_match_finite_differences(self, orders):
        rng = np.random.default_rng(30 + orders)
        x = Parameter(rng.normal(size=(4, 3)), name="x")
        weights = [Parameter(rng.normal(size=(3 * q, 2)), name=f"w{q}") for q in range(1, orders + 1)]
        biases = [Parameter(rng.normal(size=2), name=f"b{q}") for q in range(1, orders + 1)]
        bank = list(zip(weights, biases))
        params = [x, *weights, *biases]
        err = ag.grad_check(lambda: taped_sum(enc.conv_feature_maps(x, bank), "tanh"), params)
        assert err <= 1e-4

    def test_overflowing_pre_activation_raises_unless_checks_are_off(self):
        # tanh would squash the overflow to 1; finite checks are always on
        x = Tensor(np.ones((3, 2)))
        bank = [(Parameter(np.full((2, 2), 1e308)), Parameter(np.zeros(2)))]
        with np.errstate(over="ignore"):
            with pytest.raises(ag.NumericError, match="conv_feature_maps"):
                enc.conv_feature_maps(x, bank)


class TestKmaxPool:
    def test_keeps_top_k_in_original_order(self):
        out = enc.kmax_pool(Tensor(np.array([[2.0, 5.0, 1.0, 4.0]])), 2)
        assert out.data.tolist() == [[5.0, 4.0]]

    def test_k_equal_width_is_identity(self):
        row = np.array([[3.0, 1.0, 2.0]])
        out = enc.kmax_pool(Tensor(row), 3)
        assert np.array_equal(out.data, row)

    def test_tie_breaks_to_lower_index(self):
        z = Parameter(np.array([[1.0, 1.0, 0.0]]))
        out = enc.kmax_pool(z, 1)
        assert out.data.tolist() == [[1.0]]
        taped_sum(out).backward()
        assert z.grad.tolist() == [[1.0, 0.0, 0.0]]

    def test_width_error(self):
        with pytest.raises(ag.ShapeError, match="exceeds"):
            enc.kmax_pool(Tensor(np.zeros((1, 2))), 3)

    @pytest.mark.parametrize("seed", range(8))
    def test_row_properties_and_gradient_mask(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(1, 5))
        width = int(rng.integers(2, 8))
        k = int(rng.integers(1, width + 1))
        z = Parameter(rng.normal(size=(n, width)))
        out = enc.kmax_pool(z, k)
        taped_sum(out).backward()
        for i in range(n):
            row = z.data[i]
            got = out.data[i].tolist()
            assert got == kmax_oracle(row.tolist(), k)
            # output is a subsequence: its values appear left to right
            pos = -1
            taken = []
            for v in got:
                nxt = next(j for j in range(pos + 1, width) if row[j] == v)
                pos = nxt
                taken.append(nxt)
            assert sorted(row[taken].tolist()) == sorted(sorted(row.tolist(), reverse=True)[:k])
            # gradient zero exactly at unselected positions
            mask = np.zeros(width)
            mask[taken] = 1.0
            assert np.array_equal(z.grad[i], mask)

    def test_nan_written_past_the_tensor_check_is_a_numeric_error(self):
        # the k largest of a row holding NaN are undefined; k-max checks its
        # input itself, even a NaN written past the tensor's own check
        z = Tensor(np.array([[1.0, 0.0, 2.0]]))
        z.data[0, 1] = np.nan
        for k in (1, 2, 3):
            with pytest.raises(ag.NumericError, match="kmax_pool"):
                enc.kmax_pool(z, k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tie_heavy_rows_match_oracle(self, dtype):
        rng = np.random.default_rng(40)
        z = np.round(rng.uniform(-0.5, 0.5, size=(26, 60)), 1).astype(dtype)
        for k in (1, 7, 30, 59, 60):
            z_t = Parameter(z.copy())
            out = enc.kmax_pool(z_t, k)
            assert out.data.dtype == dtype
            assert out.data.tolist() == [kmax_oracle(row, k) for row in z.tolist()]
            taped_sum(out).backward()
            for row, grad in zip(z.tolist(), z_t.grad):
                ranked = sorted(range(len(row)), key=lambda i: (-row[i], i))[:k]
                assert np.flatnonzero(grad).tolist() == sorted(ranked)
                assert np.all(grad[ranked] == 1.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_row_blocks_match_oracle(self, data):
        # a block budget of a few rows (plus less than one more, which the row
        # count floors away) over at least three whole blocks and a partial
        # one; values on a grid of halves put ties at the k-th value
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        width = data.draw(st.integers(2, 8))
        k = data.draw(st.integers(1, width))
        step = data.draw(st.integers(2, 5))
        n = data.draw(st.integers(3 * step + 1, 4 * step - 1))
        budget = (step * width + data.draw(st.integers(0, width - 1))) * np.dtype(dtype).itemsize
        grid = data.draw(st.lists(st.integers(-3, 3), min_size=n * width, max_size=n * width))
        z = (np.array(grid, dtype=dtype) / 2).reshape(n, width)
        nan_at = (data.draw(st.integers(step, n - 1)), data.draw(st.integers(0, width - 1)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enc, "BLOCK_BYTES", budget)
            z_t = Parameter(z.copy())
            out = enc.kmax_pool(z_t, k)
            assert out.data.tolist() == [kmax_oracle(row, k) for row in z.tolist()]
            taped_sum(out).backward()
            for row, grad in zip(z.tolist(), z_t.grad):
                ranked = sorted(range(width), key=lambda i: (-row[i], i))[:k]
                assert np.flatnonzero(grad).tolist() == sorted(ranked)
            # a NaN past the first block is refused as one in the first is
            z_t.data[nan_at] = np.nan
            with pytest.raises(ag.NumericError,
                               match=rf"^kmax_pool: NaN in a row of the \({n}, {width}\) input$"):
                enc.kmax_pool(z_t, k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros_tie_at_the_kth_value(self, dtype):
        # -0.0 == +0.0, and np.sort may rank either first: each is a copy of
        # the k-th value, kept by index, and keeps its sign bit
        rows = [[1.0, -0.0, 0.0, -1.0], [0.0, -0.0, 0.0, -0.0], [-0.0, 2.0, 0.0, 0.0],
                [0.0, -1.0, -0.0, 3.0], [-0.0, 0.0, -2.0, -0.0]]
        z = np.array(rows, dtype=dtype)
        for k in (1, 2, 3):
            z_t = Parameter(z.copy())
            out = enc.kmax_pool(z_t, k)
            taped_sum(out).backward()
            for row, got, grad in zip(rows, out.data, z_t.grad):
                ranked = sorted(sorted(range(4), key=lambda i: (-row[i], i))[:k])
                assert got.tolist() == kmax_oracle(row, k)
                assert np.signbit(got).tolist() == np.signbit(np.array(row)[ranked]).tolist()
                assert np.flatnonzero(grad).tolist() == ranked

    def test_tape_holds_k_columns_per_row(self):
        # at the published widths a row keeps 50 of 500 features; the node
        # must hold those indices, not a whole n x 500 index array
        cfg = EncoderConfig()
        n = 512
        z = Tensor(np.random.default_rng(41).normal(size=(n, cfg.conv_width)).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = enc.kmax_pool(z, cfg.d_in)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (n, cfg.d_in)
        assert held < 1024 * n, held / n


class TestHighway:
    def _inputs(self, rng, n=4, d=3):
        return Tensor(rng.normal(size=(n, d))), Tensor(rng.normal(size=(n, d)))

    def test_saturated_carry_gate_passes_input(self):
        rng = np.random.default_rng(11)
        x, cov = self._inputs(rng)
        out = enc.highway_forward(x, cov, Parameter(np.zeros((3, 3))), Parameter(np.full(3, -1e6)))
        assert np.max(np.abs(out.data - x.data)) < 1e-6

    def test_saturated_transform_gate_passes_conv(self):
        rng = np.random.default_rng(12)
        x, cov = self._inputs(rng)
        out = enc.highway_forward(x, cov, Parameter(np.zeros((3, 3))), Parameter(np.full(3, 1e6)))
        assert np.max(np.abs(out.data - cov.data)) < 1e-6

    def test_neutral_gate_averages(self):
        rng = np.random.default_rng(13)
        x, cov = self._inputs(rng)
        out = enc.highway_forward(x, cov, Parameter(np.zeros((3, 3))), Parameter(np.zeros(3)))
        assert np.allclose(out.data, 0.5 * (x.data + cov.data), atol=1e-12)

    def test_coupling_error(self):
        w, b = Parameter(np.zeros((3, 3))), Parameter(np.zeros(3))
        with pytest.raises(ag.ShapeError, match="decoupled"):
            enc.highway_forward(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), w, b)

    def test_is_one_tape_node_over_its_inputs(self):
        rng = np.random.default_rng(14)
        x, cov = self._inputs(rng)
        w, b = Parameter(rng.normal(size=(3, 3))), Parameter(rng.normal(size=3))
        out = enc.highway_forward(x, cov, w, b)
        assert len(out._prev) == 4
        assert all(p is q for p, q in zip(out._prev, (x, cov, w, b)))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_gradients_match_finite_differences(self, n):
        rng = np.random.default_rng(60 + n)
        x = Parameter(rng.normal(size=(n, 3)), name="x")
        cov = Parameter(rng.normal(size=(n, 3)), name="cov_x")
        w = Parameter(rng.normal(size=(3, 3)), name="w")
        b = Parameter(rng.normal(size=3), name="b")

        def f():
            return taped_sum(enc.highway_forward(x, cov, w, b), "tanh")

        assert ag.grad_check(f, [x, cov, w, b]) <= 1e-4

    def test_overflowing_gate_raises(self):
        # the sigmoid would squash the overflow to 1, so the gate checks itself
        x, cov = Tensor(np.ones((3, 2))), Tensor(np.zeros((3, 2)))
        w, b = Parameter(np.full((2, 2), 1e308)), Parameter(np.zeros(2))
        with np.errstate(over="ignore"):
            with pytest.raises(ag.NumericError, match="highway_forward"):
                enc.highway_forward(x, cov, w, b)


class TestLstm:
    def _params(self, rng, d, h):
        """(W, b) of one direction."""
        return (Parameter(rng.normal(size=(d + h, 4 * h)) * 0.5),
                Parameter(rng.normal(size=4 * h) * 0.5))

    def test_zero_weights_fixpoint(self):
        x = Tensor(np.random.default_rng(14).normal(size=(5, 4)))
        out = enc.lstm_forward(x, Parameter(np.zeros((7, 12))), Parameter(np.zeros(12)))
        assert np.array_equal(out.data, np.zeros((5, 3)))

    def test_single_step_ignores_direction(self):
        rng = np.random.default_rng(15)
        p = self._params(rng, 4, 3)
        x = Tensor(rng.normal(size=(1, 4)))
        fwd = enc.lstm_forward(x, *p, reverse=False)
        bwd = enc.lstm_forward(x, *p, reverse=True)
        assert np.array_equal(fwd.data, bwd.data)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_scalar_step_oracle(self, reverse):
        rng = np.random.default_rng(16)
        p = self._params(rng, 3, 2)
        x = rng.normal(size=(4, 3))
        w, b = self._params(rng, 3, 2)
        out = enc.lstm_forward(Tensor(x), w, b, reverse=reverse)
        want = lstm_oracle(x, w.data, b.data, reverse=reverse)
        assert rel_err(out.data, want) <= 1e-10

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_gradients_match_finite_differences(self, n, reverse):
        rng = np.random.default_rng(50 + n)
        w, b = self._params(rng, 3, 2)
        x = Parameter(rng.normal(size=(n, 3)), name="x")

        def f():
            return taped_sum(enc.lstm_forward(x, w, b, reverse=reverse), "tanh")

        assert ag.grad_check(f, [x, w, b]) <= 1e-4

    @pytest.mark.parametrize("reverse", [False, True])
    def test_overflowing_gates_are_a_numeric_error(self, reverse):
        # sigmoid and tanh squash an infinite pre-activation to a finite h,
        # so the layer must check its gates and cell states itself
        w = Parameter(np.full((5, 12), 1e308), name="lstm.fwd.w")
        x = Tensor(np.ones((3, 2)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ag.NumericError, match=r"lstm\.fwd"):
                enc.lstm_forward(x, w, Parameter(np.zeros(12)), reverse=reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_a_pre_activation_whose_half_is_finite_still_overflows(self, reverse):
        # 2 x 2e38 lies between float32's largest value and twice it: the
        # sigmoid gates' halved pre-activation is finite, the pre-activation
        # is not, and only the unhalved one may be checked
        w = np.zeros((5, 12), dtype=np.float32)
        w[:2] = 2e38
        x = Tensor(np.ones((3, 2), dtype=np.float32))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ag.NumericError,
                               match=r"^lstm_forward lstm\.fwd \((forward|reverse)\) gate"):
                enc.lstm_forward(x, Parameter(w, name="lstm.fwd.w"),
                                 Parameter(np.zeros(12, dtype=np.float32)), reverse=reverse)


# each guarded layer, and the name its refusals start with
GUARDED = {"conv": "conv_feature_maps pre-activation", "mlp": "mlp_encode pre-activation",
           "highway": "highway_forward gate pre-activation",
           "lstm": "lstm_forward lstm.fwd (forward) gate pre-activations"}


def _windows(x, left, right):
    """Rows i - left .. i + right of x side by side per row, zero padded."""
    n, d = x.shape
    padded = np.concatenate([np.zeros((left, d)), x, np.zeros((right, d))])
    return np.concatenate([padded[k:k + n] for k in range(left + right + 1)], axis=1)


def _guarded_call(layer, x, w, b, w_h, q):
    """Run a guarded layer on x: the conv bank (orders 1..q, one W of q * d
    rows sliced per order), the MLP window (q rows), the highway gate, or a
    forward LSTM whose W stacks w over w_h. Returns its output and its
    pre-activations recomputed in float64 (the LSTM's from its own states)."""
    x64, w64, b64 = (np.asarray(a, dtype=np.float64) for a in (x, w, b))
    d = x.shape[1]
    if layer == "conv":
        bank = [(Parameter(w[:k * d]), Parameter(b)) for k in range(1, q + 1)]
        out = enc.conv_feature_maps(Tensor(x), bank)
        z = [_windows(x64, (k - 1) // 2, k // 2) @ w64[:k * d] + b64 for k in range(1, q + 1)]
        return out, z
    if layer == "mlp":
        out = enc.mlp_encode(Tensor(x), Parameter(w), Parameter(b), q)
        return out, [_windows(x64, (q - 1) // 2, q // 2) @ w64 + b64]
    if layer == "highway":
        cov = Tensor(np.tanh(x))
        out = enc.highway_forward(Tensor(x), cov, Parameter(w), Parameter(b))
        return out, [x64 @ w64 + b64]
    out = enc.lstm_forward(Tensor(x), Parameter(np.concatenate([w, w_h]), name="lstm.fwd.w"),
                           Parameter(b))
    before = np.concatenate([np.zeros((1, w_h.shape[0])), out.data[:-1]]).astype(np.float64)
    z = x64 @ w64 + before @ np.asarray(w_h, dtype=np.float64) + b64
    return out, [z]


class TestOverflowGuard:
    """encoder._guard, the one overflow check of the conv bank, the MLP
    window, the highway gate and the LSTM: their nonlinearities would squash
    an overflowed pre-activation into a finite output."""

    @staticmethod
    def _array(shape, top, aligned, rng, dtype):
        # every entry +top, or uniform in [-top, top] with one entry at +-top
        if aligned:
            return np.full(shape, top, dtype=dtype)
        a = rng.uniform(-1.0, 1.0, size=shape) * top
        a.flat[rng.integers(a.size)] = top * rng.choice([-1.0, 1.0])
        return a.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layer", GUARDED)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_an_admitted_call_has_finite_pre_activations(self, layer, dtype, data):
        # weights, biases and inputs drawn up to the dtype's range, their
        # bound from far below the limit to far above it; aligned draws put
        # every pre-activation at the bound
        top = float(np.finfo(dtype).max)
        limit = top / 16
        n, d, width, q = (data.draw(st.integers(1, 4)) for _ in range(4))
        if layer == "highway":
            width = d
        fan = q * d if layer in ("conv", "mlp") else d
        aligned = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x_top = 2.0 ** data.draw(st.integers(-4, 8))
        w_top = min(top, limit * 2.0 ** -data.draw(st.integers(-4, 24)) / (fan * x_top))
        b_top = top * 2.0 ** -data.draw(st.integers(0, 24))
        cols = 4 * width if layer == "lstm" else width
        x = self._array((n, d), x_top, aligned, rng, dtype)
        w = self._array((fan, cols), w_top, aligned, rng, dtype)
        b = self._array(cols, b_top, aligned, rng, dtype)
        w_h = None
        if layer == "lstm":
            h_top = min(top, limit * 2.0 ** -data.draw(st.integers(-4, 24)) / width)
            w_h = self._array((width, cols), h_top, aligned, rng, dtype)
        try:
            out, z = _guarded_call(layer, x, w, b, w_h, q)
        except NumericError as e:     # the guard's refusal, not a later check's
            assert str(e).startswith(f"{GUARDED[layer]}: bound "), e
            assert str(e).endswith("could overflow to NaN/Inf"), e
            return
        assert out.data.dtype == dtype and np.isfinite(out.data).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert all((np.abs(zq) <= top).all() for zq in z), z

    @pytest.mark.parametrize("layer", GUARDED)
    def test_a_bound_at_the_limit_is_refused_though_finite(self, layer):
        # fan_in * max|W| at float32's limit (a sixteenth of its range) with
        # inputs of 1: every pre-activation is finite, and the call is refused
        x = np.ones((3, 2), dtype=np.float32)
        w = np.full((2, 4 if layer == "lstm" else 2), 1.1e37, dtype=np.float32)
        b = np.zeros(w.shape[1], dtype=np.float32)
        w_h = np.zeros((1, 4), dtype=np.float32)
        assert np.isfinite(x @ w).all()
        with pytest.raises(ag.NumericError,
                           match=rf"^{re.escape(GUARDED[layer])}: bound 2\.2e\+37 .*NaN/Inf$"):
            _guarded_call(layer, x, w, b, w_h, 1)


class TestBlstm:
    def test_output_width_doubles_hidden(self):
        # h = 100 per the default setting gives 200-wide output rows
        rng = np.random.default_rng(17)
        h = 100
        p = [(Parameter(rng.normal(size=(8 + h, 4 * h)) * 0.01), Parameter(np.zeros(4 * h)))
             for _ in range(2)]
        out = enc.blstm_forward(Tensor(rng.normal(size=(3, 8))), p[0], p[1])
        assert out.shape == (3, 200)

    def test_single_position_concatenates_both_steps(self):
        rng = np.random.default_rng(18)
        fwd = (Parameter(rng.normal(size=(5, 8))), Parameter(rng.normal(size=8)))
        bwd = (Parameter(rng.normal(size=(5, 8))), Parameter(rng.normal(size=8)))
        x = Tensor(rng.normal(size=(1, 3)))
        out = enc.blstm_forward(x, fwd, bwd)
        f = enc.lstm_forward(x, *fwd).data
        b = enc.lstm_forward(x, *bwd).data
        assert np.array_equal(out.data, np.concatenate([f, b], axis=1))

    def test_reversal_symmetry(self):
        # reversing the input and swapping directions reverses rows and swaps halves
        rng = np.random.default_rng(19)
        h = 3
        fwd = (Parameter(rng.normal(size=(4 + h, 4 * h))), Parameter(rng.normal(size=4 * h)))
        bwd = (Parameter(rng.normal(size=(4 + h, 4 * h))), Parameter(rng.normal(size=4 * h)))
        x = rng.normal(size=(5, 4))
        a = enc.blstm_forward(Tensor(x), fwd, bwd).data
        b = enc.blstm_forward(Tensor(x[::-1].copy()), bwd, fwd).data
        swapped = np.concatenate([b[:, h:], b[:, :h]], axis=1)
        assert np.allclose(a, swapped[::-1], atol=1e-12)

    @pytest.mark.parametrize("lengths", [(4,), (1, 3, 5)])
    def test_gradients_match_finite_differences(self, lengths):
        # each direction's backward reads h_{t-1} from its own half of the output
        rng = np.random.default_rng(23)
        d, h = 3, 2
        fwd, bwd = [(Parameter(rng.normal(size=(d + h, 4 * h)) * 0.5),
                     Parameter(rng.normal(size=4 * h) * 0.5)) for _ in range(2)]
        x = Parameter(rng.normal(size=(sum(lengths), d)), name="x")

        def f():
            return taped_sum(enc.blstm_forward(x, fwd, bwd, lengths), "tanh")

        assert ag.grad_check(f, [x, *fwd, *bwd]) <= 1e-4

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_untaped_forward_equals_the_taped_forward(self, data):
        # under no_grad() each direction computes its gates' input half one
        # block of steps at a time and rolls c and h through two slots; a
        # block budget of a few gate rows puts block ends among the packed
        # steps and cuts a step of more sentences than that into pieces
        dtype = np.dtype(data.draw(st.sampled_from([np.float32, np.float64])))
        lengths = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
        d, h = 3, data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(1, 7))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        fwd, bwd = [(Parameter(rng.normal(scale=0.7, size=(d + h, 4 * h)).astype(dtype)),
                     Parameter(rng.normal(scale=0.5, size=4 * h).astype(dtype)))
                    for _ in range(2)]
        x = Tensor(rng.normal(size=(sum(lengths), d)).astype(dtype))
        taped = enc.blstm_forward(x, fwd, bwd, lengths).data
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enc, "BLOCK_BYTES", rows * 4 * h * dtype.itemsize)
            with ag.no_grad():
                untaped = enc.blstm_forward(x, fwd, bwd, lengths).data
        if dtype == np.float64:
            assert np.max(np.abs(untaped - taped)) <= 1e-10 * np.max(np.abs(taped))
        else:
            # float32 GEMMs over other row sets may differ in the last bits;
            # the tag paths decoded from the states may not
            proj = rng.normal(scale=2.0, size=(2 * h, 5)).astype(dtype)
            trans = lt.TransitionMatrix(Parameter(rng.normal(size=(5, 5)).astype(dtype)))
            paths = [lt.viterbi(lt.TagScoreLattice(states @ proj, trans, lengths))[0]
                     for states in (taped, untaped)]
            assert paths[0] == paths[1]

    def test_mismatched_hidden_sizes_rejected(self):
        fwd = (Parameter(np.zeros((5, 8))), Parameter(np.zeros(8)))
        bwd = (Parameter(np.zeros((6, 12))), Parameter(np.zeros(12)))
        with pytest.raises(enc.ConfigError, match="differ"):
            enc.blstm_forward(Tensor(np.zeros((2, 3))), fwd, bwd)


class TestEncode:
    def test_published_scale_shapes(self):
        # embeddings 10x50 -> conv 10x500 -> pool 10x50 -> highway 10x50 -> blstm 10x200
        rng = np.random.default_rng(20)
        cfg = EncoderConfig(d=50, h=100, feature_map_sets=5, feature_maps=100)
        params = init_encoder_params(cfg, n_unigrams=12, n_bigrams=0, rng=rng)
        ids = CharIds(uni=rng.integers(0, 12, size=10))
        x = enc.embed_sentence(ids, params["embed.unigram"], None, cfg)
        assert x.shape == (10, 50)
        z = enc.conv_feature_maps(x, [(params[f"conv.q{q}.w"], params[f"conv.q{q}.b"])
                                      for q in range(1, 6)])
        assert z.shape == (10, 500)
        pooled = enc.kmax_pool(z, cfg.d_in)
        assert pooled.shape == (10, 50)
        hw = enc.highway_forward(x, pooled, params["highway.w"], params["highway.b"])
        assert hw.shape == (10, 50)
        out = enc.encode(ids, params, cfg)
        assert out.shape == (10, 200)

    def test_without_cnn_embeddings_feed_blstm(self):
        rng = np.random.default_rng(21)
        cfg = EncoderConfig(d=5, h=4, stack="embed", recurrent="blstm")
        params = init_encoder_params(cfg, n_unigrams=9, n_bigrams=0, rng=rng)
        ids = CharIds(uni=rng.integers(0, 9, size=6))
        out = enc.encode(ids, params, cfg)
        x = enc.embed_sentence(ids, params["embed.unigram"], None, cfg)
        want = enc.blstm_forward(x, (params["lstm.fwd.w"], params["lstm.fwd.b"]),
                                 (params["lstm.bwd.w"], params["lstm.bwd.b"]))
        assert np.array_equal(out.data, want.data)

    def test_cnn_only_output_width(self):
        rng = np.random.default_rng(22)
        cfg = EncoderConfig(d=4, feature_map_sets=2, feature_maps=5, stack="conv",
                            recurrent="none")
        params = init_encoder_params(cfg, n_unigrams=9, n_bigrams=0, rng=rng)
        out = enc.encode(CharIds(uni=rng.integers(0, 9, size=10)), params, cfg)
        assert out.shape == (10, cfg.d_pool) == (10, 10)

    @pytest.mark.parametrize("topo", topology_grid())
    def test_all_topology_output_widths(self, topo):
        rng = np.random.default_rng(23)
        cfg = topology_config(d=4, h=3, feature_map_sets=3, feature_maps=4, **topo)
        params = init_encoder_params(cfg, n_unigrams=9, n_bigrams=0, rng=rng)
        out = enc.encode(CharIds(uni=rng.integers(0, 9, size=5)), params, cfg)
        assert out.shape == (5, cfg.d_out)

    def test_mlp_topology(self):
        rng = np.random.default_rng(24)
        cfg = EncoderConfig(d=4, h=6, stack="mlp", window=5)
        params = init_encoder_params(cfg, n_unigrams=9, n_bigrams=0, rng=rng)
        out = enc.encode(CharIds(uni=rng.integers(0, 9, size=7)), params, cfg)
        assert out.shape == (7, 6)

    def test_bigram_pipeline_shapes(self):
        rng = np.random.default_rng(25)
        cfg = EncoderConfig(d=4, h=3, feature_map_sets=2, feature_maps=8, use_bigram=True)
        assert cfg.d_in == 12
        params = init_encoder_params(cfg, n_unigrams=9, n_bigrams=20, rng=rng)
        ids = CharIds(uni=rng.integers(0, 9, size=5),
                      bi_left=rng.integers(0, 20, size=5),
                      bi_right=rng.integers(0, 20, size=5))
        out = enc.encode(ids, params, cfg)
        assert out.shape == (5, 6)


class TestManifest:
    """One (name, shape) list drives drawing, the encoder's reads and the model file."""

    @pytest.mark.parametrize("topo", topology_grid(mlp=True))
    @pytest.mark.parametrize("use_bigram", [False, True])
    def test_model_holds_exactly_the_manifest(self, topo, use_bigram):
        cfg = topology_config(d=4, h=3, feature_map_sets=3, feature_maps=(4, 5, 6),
                              use_bigram=use_bigram, **topo)
        vocab, tagset = cp.build_vocab_and_tagset(toy_corpus(6, seed=1), use_bigram=use_bigram,
                                                  bigram_min_count=1)
        model = Model(cfg, vocab, tagset, seed=2)
        manifest = enc.parameter_manifest(cfg, vocab.n_chars, vocab.n_bigrams, len(tagset))
        assert [(n, p.shape) for n, p in model.parameters()] == manifest
        assert all(p.name == n for n, p in model.parameters())
        # the model reads every entry: one violating chunk's backward reaches each
        corpus = toy_corpus(6, seed=1)
        ids = CharIds.pack(vocab.encode(s.chars, use_bigram) for s in corpus)
        gold = np.concatenate([tagset.encode(s.tags) for s in corpus])
        diff, losses, _ = tr.hinge_loss_graph(model, ids, gold, eta=0.2)
        assert losses.any()
        diff.backward()
        assert [n for n, p in model.parameters() if not p.grad.any()] == []

    def test_initialization_rule(self):
        cfg = EncoderConfig(d=50, h=8, feature_map_sets=2, feature_maps=60)
        params = init_encoder_params(cfg, n_unigrams=400, n_bigrams=0,
                                     rng=np.random.default_rng(3))
        for name, p in params.items():
            if name.startswith("embed."):
                assert 0 < np.abs(p.data).max() <= 0.01
            elif p.data.ndim == 1:
                assert not p.data.any()
            else:
                limit = np.sqrt(6.0 / sum(p.shape))
                assert 0.9 * limit < np.abs(p.data).max() <= limit

    def test_state_builds_the_model_without_drawing(self, monkeypatch):
        vocab, tagset = cp.build_vocab_and_tagset(toy_corpus(6, seed=1))
        cfg = EncoderConfig(d=4, h=3, feature_map_sets=2, feature_maps=4)
        model = Model(cfg, vocab, tagset, seed=5, dtype=np.float64)
        state = model.snapshot()
        monkeypatch.setattr(np.random, "default_rng", None)
        rebuilt = Model(cfg, vocab, tagset, dtype=np.float64, state=state)
        for (_, p), (_, q) in zip(model.parameters(), rebuilt.parameters()):
            assert np.array_equal(p.data, q.data) and q.dtype == np.float64
        with pytest.raises(ValueError, match="snapshot holds"):
            Model(cfg, vocab, tagset, state=state[:-1])
        state[1] = state[1][:, 1:]
        with pytest.raises(ValueError, match="conv.q1.w: snapshot shape"):
            Model(cfg, vocab, tagset, state=state)

    # 1e39 is finite as given but past float32's range
    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])
    def test_non_finite_state_is_refused_by_name(self, value):
        vocab, tagset = cp.build_vocab_and_tagset(toy_corpus(6, seed=1))
        cfg = EncoderConfig(d=4, h=3, feature_map_sets=2, feature_maps=4)
        model = Model(cfg, vocab, tagset, seed=5)
        before = model.snapshot()
        state = [a.astype(np.float64) for a in before]
        state[1][0, 0] = value
        with pytest.raises(NumericError, match="parameter 'conv.q1.w' holds NaN/Inf"):
            Model(cfg, vocab, tagset, state=state)
        with pytest.raises(NumericError, match="parameter 'conv.q1.w' holds NaN/Inf"):
            model.load_state(state)
        assert all(np.array_equal(p.data, a) for (_, p), a in zip(model.parameters(), before))


class TestConfigValidation:
    def test_pool_width_must_fit(self):
        with pytest.raises(enc.ConfigError, match="pooling width"):
            EncoderConfig(d=50, feature_map_sets=1, feature_maps=10)

    def test_feature_map_sets_must_be_positive(self):
        with pytest.raises(enc.ConfigError, match="feature_map_sets must be >= 1, got 0"):
            EncoderConfig(feature_map_sets=0)

    def test_one_width_per_map_set(self):
        with pytest.raises(enc.ConfigError, match="2 map sets but 3 widths"):
            EncoderConfig(d=5, feature_map_sets=2, feature_maps=(4, 5, 6))

    @pytest.mark.parametrize("topo", [dict(stack="embed"), dict(stack="mlp")])
    def test_map_fields_without_the_conv_layer_are_refused(self, topo):
        recurrent = "blstm" if topo["stack"] == "embed" else "none"
        with pytest.raises(enc.ConfigError) as info:
            EncoderConfig(d=4, h=3, feature_map_sets=2, feature_maps=(1, 2), **topo)
        assert str(info.value) == (
            f"feature_map_sets=2 (setting feature_map_sets) is not read by "
            f"stack={topo['stack']!r} with recurrent={recurrent!r}; leave it unset")

    @pytest.mark.parametrize("stack, recurrent, width, named", [
        ("mlp", "none", dict(feature_maps=8), "feature_maps=8 (setting feature_map_size)"),
        ("embed", "lstm", dict(feature_maps=(8, 8)),
         "feature_maps=(8, 8) (setting feature_map_size)"),
        ("highway", "none", dict(h=7), "h=7 (setting h)"),
        ("conv", "none", dict(h=100), "h=100 (setting h)"),
        ("embed", "none", dict(h=1), "h=1 (setting h)"),
    ])
    def test_an_unread_width_is_refused_by_name(self, stack, recurrent, width, named):
        with pytest.raises(enc.ConfigError) as info:
            EncoderConfig(d=4, stack=stack, recurrent=recurrent, **width)
        assert str(info.value) == (f"{named} is not read by stack={stack!r} with "
                                   f"recurrent={recurrent!r}; leave it unset")

    @pytest.mark.parametrize("topo", topology_grid(mlp=True))
    def test_widths_resolve_to_published_or_canonical(self, topo):
        cfg = EncoderConfig(**topo)
        unread = enc.unread_widths(cfg.stack, cfg.recurrent)
        for field, (_, published, canonical) in enc.WIDTHS.items():
            want = canonical if field in unread else published
            if field == "feature_maps" and field not in unread:
                want = (published,) * cfg.feature_map_sets
            assert getattr(cfg, field) == want, field
        # the canonical values may also be given explicitly
        assert EncoderConfig(**topo, **{f: enc.WIDTHS[f][2] for f in unread}) == cfg

    @pytest.mark.parametrize("topo", topology_grid(mlp=True))
    def test_the_unread_widths_are_those_the_manifest_ignores(self, topo):
        # a width outside the rule changes the parameter shapes; one inside does not
        cfg = EncoderConfig(d=4, **topo)
        unread = enc.unread_widths(cfg.stack, cfg.recurrent)
        manifest = enc.parameter_manifest(cfg, 9, 0, 5)
        for field, value in (("h", 7), ("feature_map_sets", 2), ("feature_maps", (5, 7))):
            other = copy.copy(cfg)
            setattr(other, field, value)
            if field == "feature_map_sets":
                other.feature_maps = (5,) * value
            elif field == "feature_maps":
                other.feature_map_sets = len(value)
            changed = enc.parameter_manifest(other, 9, 0, 5) != manifest
            assert changed == (field not in unread), field

    def test_unknown_stack(self):
        with pytest.raises(enc.ConfigError, match="stack must be one of .*'mlp'.*, got 'cnn'"):
            EncoderConfig(stack="cnn")

    def test_bad_recurrent(self):
        with pytest.raises(enc.ConfigError, match="recurrent"):
            EncoderConfig(recurrent="gru")

    def test_window_needs_the_mlp_baseline(self):
        with pytest.raises(enc.ConfigError, match="window=3"):
            EncoderConfig(window=3)
        with pytest.raises(enc.ConfigError, match="window=2"):
            EncoderConfig(stack="embed", window=2)
        assert EncoderConfig(stack="mlp", window=3).window == 3


@pytest.mark.parametrize("topo", topology_grid()[:4])
def test_encode_gradients_spot_check(topo):
    # full-grid gradient fidelity is covered by the acceptance suite
    rng = np.random.default_rng(26)
    cfg = topology_config(d=3, h=2, feature_map_sets=2, feature_maps=3, **topo)
    params = init_encoder_params(cfg, n_unigrams=7, n_bigrams=0, rng=rng,
                                 dtype=np.float64)
    ids = CharIds(uni=rng.integers(0, 7, size=4))
    names_params = list(params.values())
    err = ag.grad_check(lambda: taped_sum(enc.encode(ids, params, cfg), "tanh"), names_params)
    assert err <= 1e-4
