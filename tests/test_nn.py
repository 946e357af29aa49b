import tracemalloc

import numpy as np
import pytest

import ttlstm.autograd as ag
from ttlstm.autograd import LN_EPS, Tape, Var, backward, grad_check
from ttlstm.errors import ConfigError, NumericError, ShapeError, VocabError
from ttlstm.nn import (
    ModelArch,
    TTLinear,
    build_model,
    cross_entropy_perplexity,
    forward_lm,
    sequence_nll,
)
from ttlstm.contract import OpCounter, build_factor_pair, cost_model
from ttlstm.ttrain import ShapeFactorization, apply, new_mpo, new_mps, reconstruct


def _ln(v, eps=1e-5):
    """One vector through ``autograd._standardize``, the standardize both of
    ``lstm_scan``'s layer norms run: the layer norm at unit gain and zero
    bias."""
    v = np.asarray(v, dtype=np.float64)[None]
    mean, inv_sd = np.empty((2, 1, 1))
    return ag._standardize(v, eps, np.empty(v.shape), np.empty(v.shape), mean, inv_sd)[0]


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        out = _ln(np.full(8, 3.7))
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_closed_form_three_vector(self):
        out = _ln(np.array([1.0, 2.0, 3.0]), eps=0.0)
        np.testing.assert_allclose(out, [-1.224744871391589, 0.0, 1.224744871391589], rtol=1e-12)

    def test_output_standardized(self):
        rng = np.random.default_rng(0)
        v = rng.normal(3.0, 2.0, size=64)
        out = _ln(v, eps=1e-12)
        assert abs(out.mean()) < 1e-6
        assert abs(out.var() - 1.0) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=16)
        np.testing.assert_allclose(_ln(v), _ln(v + 5.0), atol=1e-10)

    def test_shape_mismatch(self):
        """A gain and bias of 5 entries for gate blocks of H = 4 are refused."""
        with pytest.raises(ValueError):
            ag.lstm_scan(None, np.zeros((1, 3)), [np.zeros((16, 3))], (np.ones(5), np.zeros(5)),
                         [np.zeros((16, 4))], (np.ones(4), np.zeros(4)), np.zeros(16),
                         np.zeros((1, 4)), np.zeros((1, 4)))


def _tiny_arch(rep="dense", rank=0, v=20, e=8, h=8, factors=2):
    return ModelArch(vocab_size=v, embed_dim=e, hidden_dim=h,
                     representation=rep, n_factors=factors, rank=rank,
                     unroll=4, batch_size=2)


def _step(model, x, h, c):
    """One recurrence step on batch-first arrays: ``forward_lm`` with
    ``T = 1`` and the carried state ``(h, c)``, lane b reading token b
    whose embedding row is set to ``x[b]``."""
    model.embed.value[:len(x)] = x
    return forward_lm(model, np.arange(len(x))[:, None], state=(h, c))


class TestLstmStep:
    def _zero_model(self):
        model = build_model(_tiny_arch(), seed=0)
        model.wx.params[0].value[:] = 0.0
        model.wh.params[0].value[:] = 0.0
        model.gate_bias.value[:] = 0.0
        return model

    def test_all_zero_weights_zero_cell(self):
        model = self._zero_model()
        h, c = _step(model, np.zeros((1, 8)), np.zeros((1, 8)), np.zeros((1, 8))).state
        np.testing.assert_allclose(h, 0.0, atol=1e-15)
        np.testing.assert_allclose(c, 0.0, atol=1e-15)

    def test_zero_weights_nonzero_cell_closed_form(self):
        model = self._zero_model()
        c0 = np.linspace(-1.0, 1.0, 8)[None]
        h, c = _step(model, np.zeros((1, 8)), np.zeros((1, 8)), c0).state
        np.testing.assert_allclose(c, 0.5 * c0, atol=1e-12)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c0), atol=1e-12)

    def test_cell_magnitude_bound(self):
        rng = np.random.default_rng(5)
        model = build_model(_tiny_arch(), seed=3)
        c0 = rng.normal(scale=2.0, size=(1, 8))
        _, c = _step(model, rng.normal(size=(1, 8)), rng.normal(size=(1, 8)), c0).state
        assert np.all(np.abs(c) <= np.abs(c0) + 1.0 + 1e-12)

    def test_dense_vs_mps_same_matrix(self):
        mps_model = build_model(_tiny_arch("mps", rank=3), seed=7)
        dense_model = build_model(_tiny_arch(), seed=7)
        dense_model.wx = TTLinear.dense(mps_model.wx.reconstruct_matrix(), name="wx")
        dense_model.wh = TTLinear.dense(mps_model.wh.reconstruct_matrix(), name="wh")
        for name in ("embed", "gate_bias", "proj_w", "proj_b"):
            getattr(dense_model, name).value[:] = getattr(mps_model, name).value
        rng = np.random.default_rng(8)
        x, h, c = rng.normal(size=(1, 8)), rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
        hd, cd = _step(dense_model, x, h, c).state
        hm, cm = _step(mps_model, x, h, c).state
        np.testing.assert_allclose(hd, hm, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(cd, cm, rtol=1e-10, atol=1e-12)


class TestForward:
    def test_zero_model_logits_equal_projection_bias(self):
        model = build_model(_tiny_arch(), seed=0)
        for p in model.parameters():
            if p is not model.ln_x.gain and p is not model.ln_h.gain:
                p.value[:] = 0.0
        model.proj_b.value[:] = np.arange(20.0)
        out = forward_lm(model, np.array([[3], [11]]))
        for row in out.logits.reshape(-1, 20):
            np.testing.assert_allclose(row, np.arange(20.0), atol=1e-12)

    def test_identical_rows_identical_logits(self):
        model = build_model(_tiny_arch(), seed=1)
        tokens = np.tile(np.array([[2, 5, 7, 1]]), (3, 1))
        out = forward_lm(model, tokens)
        np.testing.assert_array_equal(out.logits[0], out.logits[1])
        np.testing.assert_array_equal(out.logits[0], out.logits[2])

    @pytest.mark.parametrize("shape", [(2, 0), (0, 5), (0, 0)], ids=["no-steps", "no-lanes", "empty"])
    def test_empty_window_raises_shape_error(self, shape):
        model = build_model(_tiny_arch(), seed=1)
        tokens = np.zeros(shape, dtype=np.int64)
        with pytest.raises(ShapeError):
            forward_lm(model, tokens)
        with pytest.raises(ShapeError):
            forward_lm(model, tokens, Tape())

    def test_vocab_error(self):
        model = build_model(_tiny_arch(), seed=1)
        with pytest.raises(VocabError):
            forward_lm(model, np.array([[0, 20]]))
        with pytest.raises(VocabError):
            forward_lm(model, np.array([[-1, 3]]))

    def test_float_tokens_raise_vocab_error(self):
        """They used to fail as an index with ``IndexError``."""
        model = build_model(_tiny_arch(), seed=1)
        with pytest.raises(VocabError):
            forward_lm(model, np.array([[1.0, 3.0]]))

    def test_bool_window_raises_vocab_error(self):
        """An all-True window of V entries used to index as a mask, which
        reads the embedding rows of ids 0..V-1."""
        model = build_model(_tiny_arch(v=6), seed=1)
        with pytest.raises(VocabError):
            forward_lm(model, np.ones((2, 3), dtype=bool))

    def test_logits_are_one_array_on_every_read(self):
        """Formed on first read and kept: a write into them reads back."""
        model = build_model(_tiny_arch(), seed=1)
        out = forward_lm(model, np.array([[2, 5, 7], [1, 0, 3]]))
        logits = out.logits
        assert out.logits is logits and logits.shape == (2, 3, 20)
        logits[0, 0, 0] = np.nan
        assert np.isnan(out.logits[0, 0, 0])

    def test_untrained_perplexity_near_vocab_size(self):
        arch = ModelArch(vocab_size=50, embed_dim=16, hidden_dim=16,
                         unroll=8, batch_size=4)
        model = build_model(arch, seed=9)
        rng = np.random.default_rng(10)
        tokens = rng.integers(0, 50, size=(4, 64))
        out = forward_lm(model, tokens[:, :-1])
        _, ppl = cross_entropy_perplexity(out.logits, tokens[:, 1:])
        assert abs(ppl - 50.0) / 50.0 < 0.10

    def test_representation_equivalence_full_forward(self):
        mps_model = build_model(_tiny_arch("mps", rank=3), seed=21)
        dense_model = build_model(_tiny_arch(), seed=21)
        dense_model.wx = TTLinear.dense(mps_model.wx.reconstruct_matrix(), name="wx")
        dense_model.wh = TTLinear.dense(mps_model.wh.reconstruct_matrix(), name="wh")
        for name in ("embed", "gate_bias", "proj_w", "proj_b"):
            getattr(dense_model, name).value[:] = getattr(mps_model, name).value
        tokens = np.random.default_rng(22).integers(0, 20, size=(2, 6))
        a = forward_lm(mps_model, tokens).logits
        b = forward_lm(dense_model, tokens).logits
        scale = max(1.0, np.max(np.abs(b)))
        assert np.max(np.abs(a - b)) <= 1e-8 * scale

    def test_representation_equivalence_mpo(self):
        mpo_model = build_model(_tiny_arch("mpo", rank=3), seed=23)
        dense_model = build_model(_tiny_arch(), seed=23)
        dense_model.wx = TTLinear.dense(mpo_model.wx.reconstruct_matrix(), name="wx")
        dense_model.wh = TTLinear.dense(mpo_model.wh.reconstruct_matrix(), name="wh")
        for name in ("embed", "gate_bias", "proj_w", "proj_b"):
            getattr(dense_model, name).value[:] = getattr(mpo_model, name).value
        tokens = np.random.default_rng(24).integers(0, 20, size=(2, 6))
        a = forward_lm(mpo_model, tokens).logits
        b = forward_lm(dense_model, tokens).logits
        assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_carried_state_changes_output(self):
        model = build_model(_tiny_arch(), seed=2)
        tokens = np.array([[1, 2], [3, 4]])
        cold = forward_lm(model, tokens)
        warm = forward_lm(model, tokens, state=cold.state)
        assert not np.allclose(cold.logits, warm.logits)


class TestCrossEntropyPerplexity:
    def test_uniform_logits_give_vocab_size(self):
        logits = np.zeros((7, 10))
        nll, ppl = cross_entropy_perplexity(logits, np.arange(7) % 10)
        assert abs(nll - np.log(10)) < 1e-12
        assert abs(ppl - 10.0) < 1e-9

    def test_large_margin_approaches_one(self):
        logits = np.full((4, 6), -100.0)
        targets = np.array([0, 1, 2, 3])
        logits[np.arange(4), targets] = 100.0
        _, ppl = cross_entropy_perplexity(logits, targets)
        assert abs(ppl - 1.0) < 1e-9

    def test_non_finite_rejected(self):
        logits = np.zeros((2, 3))
        logits[0, 0] = np.nan
        with pytest.raises(NumericError):
            cross_entropy_perplexity(logits, np.array([0, 1]))

    def test_targets_of_another_shape_rejected(self):
        logits = np.zeros((2, 5, 3))
        targets = np.arange(10).reshape(2, 5) % 3
        for wrong in (targets.T, targets.reshape(-1)):
            with pytest.raises(ShapeError):
                cross_entropy_perplexity(logits, wrong)


def test_one_step_lm_grad_check_mps_gates():
    arch = _tiny_arch("mps", rank=2, v=12, e=6, h=6)
    model = build_model(arch, seed=30)
    tokens = np.array([[3, 7], [1, 5]])
    targets = np.array([[7, 2], [5, 0]])

    def build(t):
        out = forward_lm(model, tokens, t)
        return sequence_nll(t, out, targets)

    assert grad_check(model.parameters(), build) < 1e-4


def test_sequence_nll_matches_value_level_perplexity():
    model = build_model(_tiny_arch(), seed=31)
    rng = np.random.default_rng(32)
    tokens = rng.integers(0, 20, size=(2, 5))
    targets = rng.integers(0, 20, size=(2, 5))
    t = Tape()
    out = forward_lm(model, tokens, t)
    loss = sequence_nll(t, out, targets)
    nll, _ = cross_entropy_perplexity(
        out.logits.transpose(1, 0, 2).reshape(-1, 20),
        targets.T.reshape(-1))
    assert abs(float(loss.value) - nll) < 1e-12


def test_sequence_nll_forms_no_logits_on_the_result():
    """The output layer runs inside its record; ``logits`` stays unformed."""
    model = build_model(_tiny_arch(), seed=31)
    tokens = np.random.default_rng(32).integers(0, 20, size=(2, 5))
    out = forward_lm(model, tokens)
    sequence_nll(None, out, tokens)
    assert "logits" not in vars(out)


def test_sequence_nll_rejects_float_targets():
    """They used to fail as an index with ``IndexError``."""
    model = build_model(_tiny_arch(), seed=33)
    tokens = np.random.default_rng(34).integers(0, 20, size=(2, 5))
    out = forward_lm(model, tokens)
    with pytest.raises(VocabError):
        sequence_nll(None, out, tokens.astype(np.float64))


def test_sequence_nll_rejects_targets_of_another_shape():
    """A ``(T, batch)`` array has as many entries as the ``(batch, T)``
    window and used to pair tokens with the wrong logit rows silently."""
    model = build_model(_tiny_arch(), seed=33)
    tokens = np.random.default_rng(34).integers(0, 20, size=(2, 5))
    out = forward_lm(model, tokens)
    for wrong in (tokens.T, tokens.reshape(-1)):
        with pytest.raises(ShapeError):
            sequence_nll(None, out, wrong)


@pytest.mark.parametrize("rep,rank", [("dense", 0), ("mps", 3), ("mpo", 3)])
def test_forward_matches_lstm_step_loop_bitwise(rep, rank):
    """The hoisted forward runs the same arithmetic as a loop of one-step
    forwards (``T = 1``), carried state included; this pins the
    ``(ax + ah) + gate_bias`` add order the recorded references rest on."""
    arch = ModelArch(vocab_size=30, embed_dim=16, hidden_dim=16, representation=rep,
                     rank=rank, unroll=7, batch_size=5)
    model = build_model(arch, seed=41)
    rng = np.random.default_rng(42)
    tokens = rng.integers(0, 30, size=(5, 7))
    state = (rng.normal(size=(5, 16)), rng.normal(size=(5, 16)))
    out = forward_lm(model, tokens, state=state)
    h, c = state
    hs = []
    for t in range(7):
        h, c = forward_lm(model, tokens[:, t:t + 1], state=(h, c)).state
        hs.append(h)
    seq = out.rows.value.reshape(5, 7, 16)                          # (batch, T, H)
    for t in range(7):
        assert seq[:, t].tobytes() == hs[t].tobytes()
    assert out.state[0].tobytes() == h.tobytes()
    assert out.state[1].tobytes() == c.tobytes()
    rows = np.stack(hs, axis=1).reshape(-1, 16)
    want = rows @ model.proj_w.value + model.proj_b.value
    assert out.logits.tobytes() == want.reshape(5, 7, 30).tobytes()


def test_tape_records_grow_by_a_fixed_budget_per_step():
    """The recurrence is one ``lstm_scan`` record and everything else runs
    once per window, so the per-step budget is zero: a window's record
    count does not depend on ``T`` (MPS stacks, loss included). The scan
    forms the ``W_x`` product itself and takes both factor pairs as they
    are, so the window records 21 ops: 25 with a transpose record per
    factor, and 28 before that, with a ``matmul`` per factor and a
    ``reshape``."""
    model = build_model(_tiny_arch("mps", rank=3), seed=43)
    counts = set()
    for steps in (1, 4, 8, 16):
        tokens = np.zeros((2, steps), dtype=int)
        tape = Tape()
        sequence_nll(tape, forward_lm(model, tokens, tape), tokens)
        counts.add(len(tape))
    assert counts == {21}


def test_carried_state_must_match_the_window():
    """A carried state of another batch or width is a :class:`ShapeError`:
    the scan takes its lane count from the state, and 4 lanes of 2 steps
    would read an 8-row window of 2 lanes as a wrong one."""
    model = build_model(_tiny_arch(), seed=43)
    tokens = np.zeros((2, 4), dtype=int)
    for state in ((np.zeros((4, 8)), np.zeros((4, 8))), (np.zeros((2, 8)), np.zeros((2, 7)))):
        with pytest.raises(ShapeError):
            forward_lm(model, tokens, state=state)


@pytest.mark.parametrize("rep,rank", [("dense", 0), ("mps", 3), ("mpo", 3)])
def test_backward_frees_the_window_it_consumes(rep, rank):
    """On a desk-size window (E = H = 64, V = 500, batch 20 x unroll 35)
    ``backward`` releases the tape as it goes: traced memory afterwards is
    at most what the forward left, and the peak stays within 1.5x of it."""
    arch = ModelArch(vocab_size=500, embed_dim=64, hidden_dim=64, representation=rep,
                     rank=rank, unroll=35, batch_size=20)
    model = build_model(arch, seed=46)
    tokens = np.random.default_rng(47).integers(0, 500, size=(20, 36))
    tracemalloc.start()
    try:
        tape = Tape()
        loss = sequence_nll(tape, forward_lm(model, tokens[:, :-1], tape), tokens[:, 1:])
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(tape, loss)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tape) == 0
    assert after <= before
    assert peak <= 1.5 * before


def _desk_window():
    """A dense desk model (E = H = 64, V = 500) and a batch 20 x unroll 35
    window's tokens plus one."""
    arch = ModelArch(vocab_size=500, embed_dim=64, hidden_dim=64, unroll=35, batch_size=20)
    return build_model(arch, seed=46), np.random.default_rng(47).integers(0, 500, size=(20, 36))


def test_untaped_window_keeps_one_row_block_of_gate_buffers():
    """An untaped desk window peaks at the ``W_x`` product, the hidden
    states, the scan's two row blocks of buffers and a few steps (about 63
    steps of ``(batch, 4H)`` rows in all). A ``W_x`` layer-norm output of
    its own, alive next to the product, put the window at about 79 steps,
    above this bound."""
    model, tokens = _desk_window()
    step = 20 * 4 * 64 * 8
    product, hs = 35 * step, 35 * 20 * 64 * 8
    tracemalloc.start()
    try:
        forward_lm(model, tokens[:, :-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = product + hs + 2 * ag.ROW_BLOCK_BYTES + 12 * step
    assert peak <= bound, f"peak {peak / step:.1f} steps, bound {bound / step:.1f}"


def test_taped_window_holds_no_separate_layer_norm_output():
    """A taped desk window keeps the scan's gate and ``xhat`` buffers (the
    size of the ``W_x`` product each) and arrays of H or E columns (hidden
    states, cell states, batch-major rows, embedding rows): about 2.8
    products. The scan forms the product in its ``xhat`` buffer and the
    ``W_x`` layer norm writes its output into the gate buffer; keeping the
    product for the adjoint put the window at about 3.8 products, and an
    output of the norm's own would add one more."""
    model, tokens = _desk_window()
    product = 35 * 20 * 4 * 64 * 8
    tracemalloc.start()
    try:
        tape = Tape()
        forward_lm(model, tokens[:, :-1], tape)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) > 0
    assert kept <= 3.25 * product, f"{kept / product:.2f} products kept"


def _step_in_numpy(model, wx_x, wh_h, c):
    """One step written out in numpy from the raw products ``W_x x`` and
    ``W_h h`` of a batch of 3 at H = 8, ``(ax + ah) + gate_bias`` in that
    order; returns ``(h', c')``."""
    def norm(pre, ln):
        blocks = pre.reshape(3, 4, 8)
        centered = blocks - blocks.mean(axis=-1, keepdims=True)
        inv_sd = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + LN_EPS)
        return (ln.gain.value * (centered * inv_sd) + ln.bias.value).reshape(3, 32)

    pre = (norm(wx_x, model.ln_x) + norm(wh_h, model.ln_h)) + model.gate_bias.value
    i, f, g, o = (pre[:, k * 8:(k + 1) * 8] for k in range(4))
    c_new = (1.0 / (1.0 + np.exp(-f))) * c + (1.0 / (1.0 + np.exp(-i))) * np.tanh(g)
    return (1.0 / (1.0 + np.exp(-o))) * np.tanh(c_new), c_new


def test_lstm_step_adds_bias_after_both_normalized_terms():
    """A dense step written out in numpy, ``(ax + ah) + gate_bias`` in that
    order, equals a one-step ``forward_lm`` bitwise; with the loop test
    above it pins the rounding of the whole forward."""
    model = build_model(_tiny_arch(), seed=44)
    rng = np.random.default_rng(45)
    x, h, c = rng.normal(size=(3, 8)), rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
    h_want, c_want = _step_in_numpy(model, x @ model.wx.params[0].value.T,
                                    h @ model.wh.params[0].value.T, c)
    h_got, c_got = _step(model, x, h, c).state
    assert c_got.tobytes() == c_want.tobytes()
    assert h_got.tobytes() == h_want.tobytes()


@pytest.mark.parametrize("rep,rank", [("dense", 0), ("mps", 3), ("mpo", 3)])
def test_scan_recurrent_product_is_prepare_apply(rep, rank):
    """A one-step ``forward_lm`` equals the step written out in numpy on
    ``TTLinear.prepare(None)``'s apply, bitwise: the scan multiplies ``h``
    by exactly the factors ``apply`` does, the transposes of the W_h list
    the forward returns."""
    model = build_model(_tiny_arch(rep, rank=rank), seed=48)
    rng = np.random.default_rng(49)
    x, h, c = rng.normal(size=(3, 8)), rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
    out = _step(model, x, h, c)
    wh_h = model.wh.prepare(None)(Var(h)).value
    a = h
    for f in reversed(out.factors[1]):
        a = a @ f.value.T
    assert a.tobytes() == wh_h.tobytes()
    h_want, c_want = _step_in_numpy(model, model.wx.prepare(None)(Var(x)).value, wh_h, c)
    h_got, c_got = out.state
    assert c_got.tobytes() == c_want.tobytes()
    assert h_got.tobytes() == h_want.tobytes()


@pytest.mark.parametrize("rep", ["mps", "mpo"])
def test_apply_counts_rows_times_matvec_ops_and_is_forward_wx(monkeypatch, rep):
    """``ttrain.apply`` over ``TTLinear.factors(None)`` counts exactly
    ``rows x cost_model(...).matvec_ops``, and its rows are bitwise the
    ``W_x`` rows ``forward_lm``'s scan layer-normalizes: the 4-D rows of
    its first standardize (the ``W_h`` ones are 3-D), read before they
    are centered."""
    model = build_model(_tiny_arch(rep, rank=3), seed=50)
    tokens = np.random.default_rng(51).integers(0, 20, size=(2, 4))
    normalized = []
    real_standardize = ag._standardize

    def spy(xv, *args):
        if xv.ndim == 4:                    # (steps, 4, batch, H): a row block of W_x rows
            normalized.append(xv.transpose(0, 2, 1, 3).reshape(-1, 4 * xv.shape[3]).copy())
        return real_standardize(xv, *args)

    monkeypatch.setattr(ag, "_standardize", spy)
    forward_lm(model, tokens)
    x = model.embed.value[tokens.T.reshape(-1)]
    counter = OpCounter()
    rows = apply(None, x, model.wx.factors(None), counter).value
    train = model.wx.to_train()
    ranks = (train.row_ranks, train.col_ranks) if rep == "mps" else train.ranks
    assert counter.madds == len(x) * cost_model(train.fact, ranks, rep).matvec_ops
    assert rows.tobytes() == np.concatenate(normalized).tobytes()


class TestOneContractionPath:
    """``reconstruct``, ``build_factor_pair`` and the model's stacks share one
    collapse and one unfuse, so their values agree bitwise."""

    def test_reconstruct_is_dense_var_bitwise_mps(self):
        fact = ShapeFactorization((3, 4), (2, 5))
        train = new_mps(fact, (1, 3, 4), (4, 2, 1), seed=21)
        dense = TTLinear.from_train(train, name="w").dense_var(None).value
        assert reconstruct(train).tobytes() == dense.tobytes()

    def test_reconstruct_is_dense_var_bitwise_three_core_mpo(self):
        fact = ShapeFactorization((2, 3, 2), (3, 2, 4))
        train = new_mpo(fact, (1, 3, 4, 1), seed=22)
        dense = TTLinear.from_train(train, name="w").dense_var(None).value
        assert reconstruct(train).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("rows,cols,row_ranks,col_ranks", [
        ((3, 4), (2, 5), (1, 3, 4), (4, 2, 1)),
        ((2, 3, 2), (3, 2, 2), (1, 2, 3, 3), (3, 4, 2, 1)),
    ])
    def test_factor_pair_is_what_prepare_applies(self, monkeypatch, rows, cols, row_ranks, col_ranks):
        train = new_mps(ShapeFactorization(rows, cols), row_ranks, col_ranks, seed=23)
        pair = build_factor_pair(train)
        apply = TTLinear.from_train(train, name="w").prepare(None)
        operands = []
        real_matmul = ag.matmul

        def spy(tape, a, b):
            operands.append(b.value)
            return real_matmul(tape, a, b)

        monkeypatch.setattr(ag, "matmul", spy)
        apply(Var(np.ones((2, train.fact.n_cols))))     # x @ G, then (x G) @ F^T
        g, f_t = operands
        assert g.tobytes() == pair[1].T.tobytes()
        assert f_t.T.tobytes() == pair[0].tobytes()


@pytest.mark.parametrize("dims", [
    dict(wx_row_dims=(3, 3)),          # 9 rows for a 4H = 32 stack
    dict(wh_row_dims=(4, 4)),
    dict(wx_col_dims=(2, 3)),          # E = 8
    dict(wh_col_dims=(3, 3)),          # H = 8
    dict(wx_row_dims=(-4, -8)),
])
def test_model_arch_rejects_factor_dims_that_miss_the_stack(dims):
    with pytest.raises(ConfigError):
        ModelArch(vocab_size=20, embed_dim=8, hidden_dim=8, representation="mps", rank=2,
                  **dims)
    ModelArch(vocab_size=20, embed_dim=8, hidden_dim=8, representation="mps", rank=2,
              wx_row_dims=(4, 8), wx_col_dims=(2, 4), wh_row_dims=(8, 4), wh_col_dims=(4, 2))


@pytest.mark.parametrize("rep,rank", [("dense", 0), ("mps", 2)])
def test_model_arch_rejects_fewer_than_one_factor(rep, rank):
    with pytest.raises(ConfigError, match="n_factors"):
        ModelArch(vocab_size=20, embed_dim=8, hidden_dim=8, representation=rep, rank=rank,
                  n_factors=0)


@pytest.mark.parametrize("dims", [
    dict(wx_row_dims=(4, 4, 3)),                        # 3 row factors, 2 column factors
    dict(wh_col_dims=(2, 2, 3)),
    dict(wx_row_dims=(48,), wx_col_dims=(3, 4)),
])
def test_model_arch_rejects_an_mpo_stack_with_unequal_factor_counts(dims):
    with pytest.raises(ConfigError, match="column factors"):
        ModelArch(vocab_size=20, embed_dim=12, hidden_dim=12, representation="mpo", rank=2,
                  **dims)
    # an MPS stack keeps its row and column chains apart
    ModelArch(vocab_size=20, embed_dim=12, hidden_dim=12, representation="mps", rank=2, **dims)


def test_model_arch_factors_into_more_parts_than_prime_factors():
    arch = ModelArch(vocab_size=20, embed_dim=12, hidden_dim=12, n_factors=1000)
    fact = arch.wx_fact()
    assert fact.row_dims == (1,) * 995 + (2, 2, 2, 2, 3)      # 4H = 48
    assert fact.col_dims == (1,) * 997 + (2, 2, 3)            # E = 12
