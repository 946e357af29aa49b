import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttlstm.autograd as ag
from ttlstm.autograd import Parameter, Tape, Var, backward, grad_check
from ttlstm.errors import DomainError, NumericError, ShapeError, StateError, VocabError
from ttlstm.nn import TTLinear, cross_entropy_perplexity
from ttlstm.ttrain import MpsTrain, ShapeFactorization, new_mps


def _param(rng, shape, name="p"):
    return Parameter(rng.normal(size=shape), name)


def _logits_nll(tape, logits, targets) -> Var:
    """The softmax-NLL of ``logits`` as the output-layer record on identity
    rows and a zero bias: ``I_n @ L + 0`` is ``L`` bitwise, so the value is
    the kernel's on ``L`` and ``L``'s gradient is the logits gradient."""
    n, vocab = np.shape(ag._val(logits))
    return ag.linear_cross_entropy(tape, np.eye(n), logits, np.zeros(vocab), targets)


class TestPerOpGradients:
    """Each primitive op against central differences in isolation."""

    def check(self, params, build, tol=1e-6):
        assert grad_check(params, build) < tol

    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        a, b = _param(rng, (3, 4)), _param(rng, (4,))
        self.check([a, b], lambda t: ag.reduce_sum(t, ag.mul(t, ag.add(t, a, b), ag.add(t, a, b))))

    def test_sub_mul(self):
        rng = np.random.default_rng(1)
        a, b = _param(rng, (2, 3)), _param(rng, (2, 3))
        self.check([a, b], lambda t: ag.reduce_sum(t, ag.mul(t, ag.sub(t, a, b), b)))

    def test_matmul(self):
        rng = np.random.default_rng(2)
        a, b = _param(rng, (3, 4)), _param(rng, (4, 2))
        self.check([a, b], lambda t: ag.reduce_sum(t, ag.mul(t, ag.matmul(t, a, b), ag.matmul(t, a, b))))

    def test_reshape_transpose(self):
        rng = np.random.default_rng(3)
        a = _param(rng, (2, 3, 4))
        w = rng.normal(size=(4, 6))

        def build(t):
            r = ag.reshape(t, a, (6, 4))
            tr = ag.transpose(t, r)
            return ag.reduce_sum(t, ag.mul(t, ag.mul(t, tr, tr), w))

        self.check([a], build)

    def test_gather_rows_with_repeats(self):
        rng = np.random.default_rng(4)
        table = _param(rng, (5, 3))
        ids = np.array([0, 2, 2, 4])

        def build(t):
            g = ag.gather_rows(t, table, ids)
            return ag.reduce_sum(t, ag.mul(t, g, g))

        self.check([table], build)

    @settings(max_examples=60, deadline=None)
    @given(ids=st.one_of(
        st.lists(st.integers(-6, 5), min_size=1, max_size=40),      # repeats, negative ids
        st.integers(-6, 5).map(lambda i: [i]),                      # a single id
        st.tuples(st.integers(-6, 5), st.integers(1, 40)).map(lambda p: [p[0]] * p[1]),
    ), width=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_gather_rows_pull_is_add_at_bitwise(self, ids, width, seed):
        rng = np.random.default_rng(seed)
        table = Parameter(rng.normal(size=(6, width)), "table")
        ids = np.array(ids) if len(ids) % 2 else np.array(ids).reshape(2, -1)   # 1-D or 2-D
        g = rng.normal(size=ids.shape + (width,))
        tape = Tape()
        backward(tape, ag.reduce_sum(tape, ag.mul(tape, ag.gather_rows(tape, table, ids), g)))
        want = np.zeros((6, width))
        np.add.at(want, ids, g)
        assert table.grad.tobytes() == want.tobytes()

    def test_layer_norm(self):
        """The ``W_x`` product and layer norm inside ``lstm_scan``: its rows,
        factors, gain and bias."""
        rng = np.random.default_rng(6)
        args = _scan_args(rng, 3, 2, 8, [32], x_dims=(3, 2))
        rows, x_weights, (x_gain, x_bias) = args[:3]
        w = rng.normal(size=(3, 2, 8))

        def build(t):
            hs, _ = ag.lstm_scan(t, *args)
            return ag.reduce_sum(t, ag.mul(t, hs, w))

        self.check([rows, *x_weights, x_gain, x_bias], build, tol=1e-5)

    def test_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = _param(rng, (6, 5))
        targets = np.array([0, 1, 4, 2, 2, 3])
        self.check([logits], lambda t: _logits_nll(t, logits, targets), tol=1e-6)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_cross_entropy_rejects_out_of_range_targets(self, bad):
        logits = np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]])
        with pytest.raises(VocabError):
            cross_entropy_perplexity(logits, np.array([0, bad]))

    @pytest.mark.parametrize("tape", [None, Tape()], ids=["no-tape", "tape"])
    def test_cross_entropy_of_zero_rows_raises_shape_error(self, tape):
        with pytest.raises(ShapeError):
            _logits_nll(tape, np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("rows,vocab,spread", [(1, 1, 1.0), (7, 11, 0.1), (40, 300, 50.0)])
    def test_cross_entropy_matches_reference_bitwise(self, rows, vocab, spread):
        rng = np.random.default_rng(rows)
        logits = Parameter(rng.normal(scale=spread, size=(rows, vocab)), "logits")
        targets = rng.integers(0, vocab, size=rows)
        seed = 2.5
        t = Tape()
        loss = _logits_nll(t, logits, targets)
        backward(t, loss, seed=seed)
        # reference in this operation order: log-softmax, then its exp
        lv, picked = logits.value, np.arange(rows)
        shifted = lv - lv.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        grad = np.exp(log_p)
        grad[picked, targets] -= 1.0
        assert float(loss.value) == float(-log_p[picked, targets].mean())
        np.testing.assert_array_equal(logits.grad, grad * (seed / rows))

    def test_linear(self):
        """The output layer's logits, which ``linear_cross_entropy`` forms,
        are ``matmul`` then ``add`` bitwise."""
        rng = np.random.default_rng(14)
        x, w, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(2,))
        two_ops = ag.add(None, ag.matmul(None, x, w), b).value
        assert ag._linear(x, w, b).tobytes() == two_ops.tobytes()
        with pytest.raises(ShapeError):
            ag._linear(x, w.T, b)


class TestLstmScan:
    """``lstm_scan``'s hand-written adjoint against central differences."""

    @pytest.mark.parametrize("widths", [[12], [2, 12]], ids=["one-weight", "two-weights"])
    def test_grad_check_with_carried_state(self, widths):
        """One or two factors in each stack; ``W_x`` takes 2 columns to 12."""
        steps, batch, hidden = 3, 2, 3
        rng = np.random.default_rng(len(widths))
        rows = _param(rng, (steps * batch, 2), "rows")
        x_dims = [2] + widths
        x_weights = _as_factors([rng.normal(size=(x_dims[k], x_dims[k + 1]))
                                 for k in range(len(widths))], "x")
        dims = [hidden] + widths
        weights = _as_factors([rng.normal(size=(dims[k], dims[k + 1]))
                               for k in range(len(widths))], "w")
        x_gain = Parameter(rng.normal(1.0, 0.2, size=(4, hidden)), "x_gain")
        x_bias = Parameter(rng.normal(0.0, 0.2, size=(4, hidden)), "x_bias")
        gain = Parameter(rng.normal(1.0, 0.2, size=(4, hidden)), "gain")
        bias = Parameter(rng.normal(0.0, 0.2, size=(4, hidden)), "bias")
        gate_bias = _param(rng, (4 * hidden,), "gate_bias")
        h0, c0 = _param(rng, (batch, hidden), "h0"), _param(rng, (batch, hidden), "c0")
        w = rng.normal(size=(steps, batch, hidden))
        params = [rows, *x_weights, x_gain, x_bias, *weights, gain, bias, gate_bias, h0, c0]

        def build(t):
            hs, _ = ag.lstm_scan(t, rows, x_weights, (x_gain, x_bias), weights, (gain, bias),
                                 gate_bias, h0, c0)
            return ag.reduce_sum(t, ag.mul(t, hs, w))

        assert grad_check(params, build) < 1e-5
        t = Tape()
        for p in params:
            p.grad = None
        backward(t, build(t))
        assert all(p.grad is not None and np.any(p.grad) for p in params)

    def test_one_record_and_a_plain_last_cell_state(self):
        rng = np.random.default_rng(5)
        rows, x_weight = _param(rng, (8, 3), "rows"), _param(rng, (8, 3), "x")
        weight = _param(rng, (8, 2), "w")
        gain, bias = Parameter(np.ones((4, 2)), "gain"), Parameter(np.zeros((4, 2)), "bias")
        t = Tape()
        hs, c = ag.lstm_scan(t, rows, [x_weight], (gain, bias), [weight], (gain, bias),
                             np.zeros(8), np.zeros((2, 2)), np.zeros((2, 2)))
        assert len(t) == 1 and hs.shape == (4, 2, 2)
        assert isinstance(c, np.ndarray) and c.shape == (2, 2)

    def test_state_must_match_the_gates(self):
        """A state of H = 3 needs 12 gate columns; ``W_x`` gives 8."""
        with pytest.raises(ShapeError):
            _scan_at_h2(None, h0=np.zeros((2, 3)), c0=np.zeros((2, 3)))

    @pytest.mark.parametrize("steps,batch", [(0, 2), (3, 0)], ids=["no-steps", "no-lanes"])
    def test_empty_gates_raise_shape_error(self, steps, batch):
        with pytest.raises(ShapeError):
            _scan_at_h2(Tape(), rows=np.zeros((steps * batch, 3)), h0=np.zeros((batch, 2)),
                        c0=np.zeros((batch, 2)))

    def test_gate_bias_must_broadcast_to_one_gate_row(self):
        """``gate_bias`` is one ``(4H,)`` row for every step and lane; a
        per-lane ``(batch, 4H)`` bias is refused."""
        with pytest.raises(ShapeError):
            _scan_at_h2(None, gate_bias=np.zeros((2, 8)))

    @pytest.mark.parametrize("tape", [None, Tape()], ids=["no-tape", "tape"])
    @pytest.mark.parametrize("bad", [
        dict(rows=np.zeros((3, 2, 3))),                         # the rows not 2-D
        dict(rows=np.zeros((5, 3))),                            # 5 rows are not T * 2
        dict(x_factors=[np.zeros((8, 5)), np.zeros((4, 3))]),   # 4 columns into a 5-row factor
        dict(x_factors=[np.zeros((8, 4))]),                     # 3 columns into a 4-row factor
        dict(x_factors=[np.zeros((6, 3))]),                     # 6 gate columns for H = 2
        dict(x_factors=[]),
    ], ids=["rows-not-2d", "rows-not-t-times-batch", "x-factors-do-not-chain",
            "x-factor-does-not-take-the-rows", "x-product-is-not-4h", "no-x-factors"])
    def test_bad_rows_or_wx_factors_raise_shape_error(self, bad, tape):
        """The rows and ``W_x`` factors fail with the package's
        :class:`ShapeError` before any product, not with numpy's own error."""
        with pytest.raises(ShapeError):
            _scan_at_h2(tape, **bad)

    @pytest.mark.parametrize("tape", [None, Tape()], ids=["no-tape", "tape"])
    @pytest.mark.parametrize("key,what,columns", [("x_factors", "W_x", 3), ("h_factors", "W_h", 2)])
    def test_a_chain_that_does_not_fit_names_the_shapes_as_passed(self, key, what, columns, tape):
        """A pair ``[F, G^T]`` whose inner ranks differ (4 against 5) is a
        :class:`ShapeError` that names the factors' shapes in the order and
        orientation the caller passed them, not the transposes the scan
        multiplies by."""
        with pytest.raises(ShapeError) as err:
            _scan_at_h2(tape, **{key: [np.zeros((8, 4)), np.zeros((5, columns))]})
        assert str(err.value) == (f"{what} factors [(8, 4), (5, {columns})] do not multiply "
                                  f"to a (8, {columns}) matrix")

    def test_wx_gradients_are_those_of_a_product_formed_before_the_scan(self):
        """The scan's own ``W_x`` product and its adjoint, on an MPS pair
        ``[F, G^T]`` passed as it is, give bitwise the gradients of a
        gather, one ``ag.matmul`` per transposed factor of the pair and a
        scan of that product (through an identity factor, whose product and
        pull keep every bit): the embedding, factor and layer-norm
        gradients, over two row blocks."""
        rng = np.random.default_rng(12)
        steps, batch, hidden, embed, rank = 35, 20, 16, 24, 5
        table = _param(rng, (50, embed), "embedding")
        f, g_t = _param(rng, (4 * hidden, rank), "F"), _param(rng, (rank, embed), "G^T")
        ids = rng.integers(0, 50, size=steps * batch)
        _, _, x_norm, weights, h_norm, gate_bias, h0, c0 = _scan_args(
            rng, steps, batch, hidden, [4 * hidden])
        out_grad = rng.normal(size=(steps, batch, hidden))
        params = [table, f, g_t, *x_norm, *weights, *h_norm, gate_bias, h0, c0]
        assert len(ag._row_blocks((steps, batch, 4 * hidden))) == 2

        def gradients(in_scan):
            for p in params:
                p.grad = None
            t = Tape()
            rows = ag.gather_rows(t, table, ids)
            factors = [f, g_t]
            if not in_scan:
                g, f_t = ag.transpose(t, g_t), ag.transpose(t, f)
                rows = ag.matmul(t, ag.matmul(t, rows, g), f_t)     # x G, then (x G) F^T
                factors = [np.eye(4 * hidden)]
            hs, _ = ag.lstm_scan(t, rows, factors, x_norm, weights, h_norm, gate_bias, h0, c0)
            backward(t, ag.reduce_sum(t, ag.mul(t, hs, out_grad)))
            return [p.grad.copy() for p in params]

        for got, want, p in zip(gradients(True), gradients(False), params):
            assert got.tobytes() == want.tobytes(), p.name

    def test_the_three_bias_gradients_are_one_sum_in_three_buffers(self):
        """Both layer norms' biases and ``gate_bias`` take the same sum of the
        pre-activation gradient, bitwise, each in an array of its own, so an
        in-place optimizer step never scales one buffer twice."""
        rng = np.random.default_rng(8)
        args = _scan_args(rng, 5, 3, 4, [16])
        _, _, (_, x_bias), _, (_, bias), gate_bias, _, _ = args
        t = Tape()
        hs, _ = ag.lstm_scan(t, *args)
        backward(t, ag.reduce_sum(t, ag.mul(t, hs, rng.normal(size=(5, 3, 4)))))
        grads = [x_bias.grad, bias.grad, gate_bias.grad]
        for k, a in enumerate(grads):
            for b in grads[k + 1:]:
                assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b)


_UNIT_NORM = (np.ones((4, 2)), np.zeros((4, 2)))      # a layer norm's (gain, bias) at H = 2


def _scan_at_h2(tape, **changes):
    """``lstm_scan`` on zeros at T = 3, batch 2, E = 3 and H = 2, one
    factor per stack, with ``changes`` replacing any of its inputs."""
    args = dict(rows=np.zeros((6, 3)), x_factors=[np.zeros((8, 3))], x_norm=_UNIT_NORM,
                h_factors=[np.zeros((8, 2))], h_norm=_UNIT_NORM, gate_bias=np.zeros(8),
                h0=np.zeros((2, 2)), c0=np.zeros((2, 2)))
    args.update(changes)
    return ag.lstm_scan(tape, **args)


def _reference_layer_norm(xv, gv, bv, g, eps=1e-5):
    """Layer norm, unblocked, in the kernel's operation order: the output,
    and the ``x`` and ``gain`` gradients for the output gradient ``g``."""
    centered = xv - xv.mean(axis=-1, keepdims=True)
    inv_sd = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv_sd
    gg = g * gv
    dx = (gg - gg.mean(axis=-1, keepdims=True)
          - xhat * (gg * xhat).mean(axis=-1, keepdims=True)) * inv_sd
    return gv * xhat + bv, dx, (g * xhat).sum(axis=0)


def _reference_cross_entropy(lv, targets, seed):
    """Softmax NLL, unblocked, in the kernel's operation order, and the
    logits gradient for the loss gradient ``seed``."""
    rows = np.arange(lv.shape[0])
    row_max = lv.max(axis=1, keepdims=True)
    shifted = lv - row_max
    picked = shifted[rows, targets]
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    grad = lv - row_max
    grad -= log_z
    np.exp(grad, out=grad)
    grad[rows, targets] -= 1.0
    grad *= seed / lv.shape[0]
    return (log_z[:, 0] - picked).mean(), grad


def _check_layer_norm(shape, seed, taped):
    """The ``W_x`` layer norm of a ``(steps, batch, hidden)`` scan, which
    ``lstm_scan`` runs in row blocks of whole steps, against the unblocked
    reference followed by the reference scan."""
    steps, batch, hidden = shape
    _check_scan(np.random.default_rng(seed), steps, batch, hidden, [4 * hidden], taped)


def _check_cross_entropy(rows, vocab, seed, taped):
    rng = np.random.default_rng(seed)
    logits = Parameter(rng.normal(scale=4.0, size=(rows, vocab)), "logits")
    targets = rng.integers(0, vocab, size=rows)
    want, want_grad = _reference_cross_entropy(logits.value, targets, 1.5)
    t = Tape() if taped else None
    loss = _logits_nll(t, logits, targets)
    assert float(loss.value) == float(want)
    if taped:
        backward(t, loss, seed=1.5)
        assert logits.grad.tobytes() == want_grad.tobytes()


def _check_linear_cross_entropy(rows, hidden, vocab, seed, taped, loss_grad=1.0):
    """``linear_cross_entropy`` against the logits ``x @ w`` plus ``b`` in
    place, ``_reference_cross_entropy`` on them and the three products of
    the logits gradient: the NLL and, taped, the ``rows``, ``w`` and ``b``
    gradients bitwise."""
    rng = np.random.default_rng(seed)
    params = [Parameter(rng.normal(size=(rows, hidden)), "rows"),
              Parameter(rng.normal(scale=2.0, size=(hidden, vocab)), "w"),
              Parameter(rng.normal(size=(vocab,)), "b")]
    targets = rng.integers(0, vocab, size=rows)
    xv, wv, bv = (p.value for p in params)
    logits = xv @ wv
    logits += bv
    want, d = _reference_cross_entropy(logits, targets, loss_grad)
    t = Tape() if taped else None
    loss = ag.linear_cross_entropy(t, *params, targets)
    assert loss.value.tobytes() == np.float64(want).tobytes()
    if taped:
        assert len(t) == 1
        backward(t, loss, seed=loss_grad)
        for p, grad in zip(params, (d @ wv.T, xv.T @ d, d.sum(axis=0))):
            assert p.grad.tobytes() == grad.tobytes()


class TestStandardize:
    """The shared standardize and its adjoint give bitwise the ``.mean``
    formulas of ``_reference_layer_norm``, statistics included."""

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 30), width=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1),
           squares_in_input=st.booleans())
    def test_matches_the_mean_formulas_for_any_rows_and_width(self, rows, width, seed,
                                                              squares_in_input):
        rng = np.random.default_rng(seed)
        x, gg = rng.normal(0.5, 2.0, size=(rows, width)), rng.normal(size=(rows, width))
        want_mean = x.mean(axis=-1, keepdims=True)
        centered = x - want_mean
        want_inv_sd = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
        want_xhat = centered * want_inv_sd
        want_mean_g = gg.mean(axis=-1, keepdims=True)
        want_mean_gx = (gg * want_xhat).mean(axis=-1, keepdims=True)
        want_dx = (gg - want_mean_g - want_xhat * want_mean_gx) * want_inv_sd

        xv, out = x.copy(), np.empty(x.shape)
        mean, inv_sd, mean_g, mean_gx = np.empty((4, rows, 1))
        scratch = xv if squares_in_input else np.empty(x.shape)     # the scan reuses its input
        xhat = ag._standardize(xv, 1e-5, out, scratch, mean, inv_sd)
        assert xhat is out
        for got, want in ((xhat, want_xhat), (mean, want_mean), (inv_sd, want_inv_sd)):
            assert got.tobytes() == want.tobytes()
        dx = ag._standardize_adjoint(gg.copy(), xhat, inv_sd, np.empty(x.shape), mean_g, mean_gx)
        for got, want in ((dx, want_dx), (mean_g, want_mean_g), (mean_gx, want_mean_gx)):
            assert got.tobytes() == want.tobytes()


class TestRowBlocks:
    """The row-blocked layer norm and softmax-NLL give bitwise the values
    of the same operations on the whole array, across several blocks and a
    ragged last one."""

    @pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
    @pytest.mark.parametrize("shape", [(43, 7, 40), (1, 4, 160), (3, 4, 8), (3, 9, 500), (5, 1, 1)])
    def test_layer_norm_matches_unblocked_reference(self, shape, taped):
        """``(steps, batch, hidden)``: two blocks of whole steps, the last
        one ragged; one step; one block of three steps; steps larger than a
        block; H = 1."""
        _check_layer_norm(shape, 0, taped)

    @pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
    @pytest.mark.parametrize("rows,vocab", [(257, 2000), (5, 40000), (1, 1), (3, 7)])
    def test_cross_entropy_matches_unblocked_reference(self, rows, vocab, taped):
        _check_cross_entropy(rows, vocab, rows, taped)

    @pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
    @pytest.mark.parametrize("rows,vocab", [(5, 7), (257, 2000), (3, 40000)],
                             ids=["under-one-block", "ragged-last-block", "row-per-block"])
    def test_linear_cross_entropy_matches_unblocked_reference(self, rows, vocab, taped):
        """``backward(seed=3.0)``; the property test below seeds 1."""
        _check_linear_cross_entropy(rows, 16, vocab, rows, taped, loss_grad=3.0)

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 80), width=st.integers(1, 6000), seed=st.integers(0, 2 ** 32 - 1),
           taped=st.booleans())
    def test_blocked_kernels_match_reference_for_any_rows_and_width(self, rows, width, seed, taped):
        _check_cross_entropy(rows, width, seed, taped)
        _check_linear_cross_entropy(rows, 1 + seed % 9, width, seed, taped)
        _check_layer_norm((1 + rows // 2, 1 + seed % 5, 1 + width // 30), seed, taped)

    def test_blocks_tile_axis_zero_within_the_byte_budget(self):
        blocks = ag._row_blocks((301, 4, 160))
        assert blocks[0].start == 0 and blocks[-1].stop == 301
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        assert len(sizes) > 1 and sizes[-1] < sizes[0]
        assert max(sizes) * 4 * 160 * 8 <= ag.ROW_BLOCK_BYTES
        assert ag._row_blocks((3, 40000)) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_non_finite_logit_in_the_last_block_raises(self, bad):
        logits = np.random.default_rng(3).normal(size=(257, 2000))
        assert ag._row_blocks(logits.shape)[-1].start > 0
        logits[-1, 1999] = bad
        with pytest.raises(NumericError):
            cross_entropy_perplexity(logits, np.zeros(257, dtype=np.int64))

    def test_gain_must_broadcast_to_the_input(self):
        """Each of the scan's layer norms takes a gain and bias that
        broadcast to its ``(4, H)`` gate blocks."""
        bad = (np.ones((2, 4, 2)), np.zeros(2))
        for x_norm, h_norm in ((bad, _UNIT_NORM), (_UNIT_NORM, bad)):
            with pytest.raises(ShapeError):
                _scan_at_h2(None, x_norm=x_norm, h_norm=h_norm)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_kept(call) -> int:
    """Bytes ``call()`` leaves allocated while its result is still held."""
    tracemalloc.start()
    try:
        held = call()
        kept = tracemalloc.get_traced_memory()[0]
        del held
        return kept
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    """Without a tape the blocked kernels allocate about their output and
    one block of scratch, not whole-array temporaries; with one they keep
    nothing full-size that their adjoint can rebuild or write over."""

    def test_cross_entropy_peak_is_a_small_share_of_the_logits(self):
        rng = np.random.default_rng(0)
        logits, targets = rng.normal(size=(300, 2000)), rng.integers(0, 2000, size=300)
        peak = _traced_peak(lambda: cross_entropy_perplexity(logits, targets))
        assert peak <= 0.25 * logits.nbytes, f"peak {peak} B for {logits.nbytes} B of logits"

    def test_linear_cross_entropy_and_its_backward_hold_one_logits_array(self):
        """The adjoint writes the softmax gradient over the record's own
        logits, so forward plus backward peak at one ``(n, V)`` array plus
        the ``w`` and ``rows`` gradients, never the logits and a fresh
        gradient of their size at once."""
        rng = np.random.default_rng(5)
        rows = Parameter(rng.normal(size=(700, 64)), "rows")
        w = Parameter(rng.normal(scale=0.1, size=(64, 2000)), "w")
        b = Parameter(np.zeros(2000), "b")
        targets = rng.integers(0, 2000, size=700)

        def run():
            t = Tape()
            backward(t, ag.linear_cross_entropy(t, rows, w, b, targets))

        peak = _traced_peak(run)
        logits = 700 * 2000 * 8
        bound = logits + w.value.nbytes + rows.value.nbytes + ag.ROW_BLOCK_BYTES
        assert peak <= bound, f"peak {peak} B for {logits} B of logits"

    def test_layer_norm_peak_is_about_one_output(self):
        """Without a tape the scan forms the ``W_x`` product, 35 steps of
        ``(batch, 4H)`` rows, in its ``xhat`` buffer, and its layer norm
        writes a row block of whole steps at a time into the gate buffer, so
        the scan peaks at about the product, its output (the hidden states),
        one row block (the gates) and a few steps (about 7 here); an output
        of the norm's own would add the product's bytes again, and an
        ``xhat`` buffer of its own another row block."""
        args = _scan_args(np.random.default_rng(1), 35, 20, 64, [256], x_dims=(64,))
        step = 20 * 4 * 64 * 8
        hs = ag.lstm_scan(None, *args)[0].value
        peak = _traced_peak(lambda: ag.lstm_scan(None, *args))
        product = 35 * step
        assert peak <= product + hs.nbytes + ag.ROW_BLOCK_BYTES + 8 * step, f"peak {peak} B"

    def test_taped_layer_norm_keeps_row_statistics_not_xhat(self):
        """Beyond the recurrence's own buffers a taped scan keeps, for its
        ``W_x`` layer norm, ``ax``'s row mean and ``inv_sd`` (about 0.03x
        ``ax`` here), neither an ``xhat`` nor an output of ``ax``'s size;
        ``ax`` itself is formed in the scan's ``xhat`` buffer."""
        steps, batch, hidden = 35, 20, 64
        args = _scan_args(np.random.default_rng(1), steps, batch, hidden, [256], x_dims=(64,))

        def run():
            t = Tape()
            return t, ag.lstm_scan(t, *args)

        nbytes = steps * batch * 4 * hidden * 8     # ax, the W_x product
        window = steps * batch * hidden * 8
        recurrence = window + 2 * nbytes + (steps + 1) * batch * hidden * 8 + steps * batch * 4 * 8
        kept = _traced_kept(run) - recurrence
        assert kept <= 0.1 * nbytes, f"{kept} B kept for a {nbytes} B ax"

    def test_taped_scan_keeps_no_per_step_tanh_of_the_cell_state(self):
        """A taped forward keeps the hidden states, the gate activations, the
        normalized products, the cell states and the three row statistics;
        the adjoint rebuilds ``tanh(c')`` from the kept cell states."""
        steps, batch, hidden = 35, 20, 64
        args = _scan_args(np.random.default_rng(2), steps, batch, hidden, [256], x_dims=(64,))

        def run():
            t = Tape()
            return t, ag.lstm_scan(t, *args)

        kept = _traced_kept(run)
        window = steps * batch * hidden * 8         # one (T, batch, H) buffer
        product = 4 * window                        # ax, the W_x product
        arrays = (window + 2 * product + (steps + 1) * batch * hidden * 8
                  + 3 * steps * batch * 4 * 8)
        assert kept - arrays <= 0.25 * window, f"{kept - arrays} B kept beyond the arrays named"

    def test_taped_scan_and_backward_peak(self):
        """The adjoint writes ``ax``'s gradient over the spent gate rows
        instead of a ``(T, batch, 4H)`` buffer of its own, and the ``W_x``
        layer norm's adjoint runs in place over it, so a forward plus
        backward peaks at about 4.4x ``ax``'s bytes, ``ax`` itself (the
        ``W_x`` product the scan forms) included."""
        args = _scan_args(np.random.default_rng(3), 35, 20, 64, [256], x_dims=(64,))
        g = np.random.default_rng(4).normal(size=(35, 20, 64))

        def run():
            t = Tape()
            hs, _ = ag.lstm_scan(t, *args)
            backward(t, ag.reduce_sum(t, ag.mul(t, hs, g)))

        peak = _traced_peak(run)
        nbytes = 35 * 20 * 4 * 64 * 8               # ax, the W_x product
        assert peak <= 4.5 * nbytes + nbytes, f"peak {peak} B for a {nbytes} B ax"

    def test_taped_scan_holds_three_window_arrays_not_four(self):
        """At its peak a taped scan's adjoint holds three ``(T, batch, 4H)``
        arrays: the gate buffer (the pre-activation gradient by then), the
        ``W_h`` ``xhat`` buffer and the last ``d_out``, into which it forms
        ``ax`` again for the ``W_x`` layer norm's rebuild. Forward plus
        backward, the product's formation included, peaks at about 4.4x
        ``ax``'s bytes; keeping ``ax`` from forward to backward as a fourth
        array, as a product formed before the scan did, peaked at about
        5.4x."""
        args = _scan_args(np.random.default_rng(3), 35, 20, 64, [256], x_dims=(64,))
        g = np.random.default_rng(4).normal(size=(35, 20, 64))

        def run():
            t = Tape()
            hs, _ = ag.lstm_scan(t, *args)
            backward(t, ag.reduce_sum(t, ag.mul(t, hs, g)))

        peak = _traced_peak(run)
        nbytes = 35 * 20 * 4 * 64 * 8               # ax, the W_x product
        assert peak <= 4.75 * nbytes, f"peak {peak / nbytes:.2f}x a {nbytes} B ax"

    def test_scan_backward_copies_no_multiplied_rows(self):
        """Each weight's rows are the scan's own buffers (the hidden states,
        then one per later weight) and its gradient one product on views of
        them, so a backward allocates the per-weight ``d_out`` buffers and
        the gradients but no copy of the rows. Copying the ``(T, batch,
        512)`` rows the second weight multiplied (a stack, then the
        transposed copy ``tensordot`` makes) adds about their bytes again."""
        steps, batch, hidden, inner = 35, 20, 16, 512
        rng = np.random.default_rng(6)
        args = _scan_args(rng, steps, batch, hidden, [inner, 4 * hidden])
        x, x_weights, x_norm, weights, h_norm, gate_bias, h0, c0 = args
        t = Tape()
        hs, _ = ag.lstm_scan(t, *args)
        loss = ag.reduce_sum(t, ag.mul(t, hs, rng.normal(size=(steps, batch, hidden))))
        peak = _traced_peak(lambda: backward(t, loss))
        rows = steps * batch * inner * 8
        d_outs = rows + steps * batch * 4 * hidden * 8
        grads = sum(p.value.nbytes for p in [x, *x_weights, *x_norm, *weights, *h_norm, gate_bias,
                                             h0, c0, hs])
        beyond = peak - d_outs - grads
        assert beyond <= 0.5 * rows, f"{beyond} B beyond the arrays named"


def _reference_scan(xv, xws, xgv, xbv, ws, gv, bv, gbv, h, c, g, eps=1e-5):
    """The ``W_x`` product ``ax`` of the rows ``xv``, one ``@`` per array
    of ``xws`` as ``matmul`` runs it, a ``W_x`` layer norm over its ``(T
    batch, 4, H)`` rows, then the scan written out step by step with one
    ``@`` per array of ``ws``, all with fresh arrays: the hidden states, the
    last cell state and, for the output gradient ``g``, the gradients of
    the inputs and of each factor. ``xws`` and ``ws`` are the arrays the
    rows are multiplied by, the ``.T`` views of a stack's factors, last
    factor first; each factor's gradient is the transpose of its view's
    (``W_x``'s by ``matmul``'s pulls), keyed by its place in the stack's
    list."""
    batch, hidden = h.shape
    width = 4 * hidden
    x_ins = [xv]
    for w in xws:
        x_ins.append(x_ins[-1] @ w)
    axv = x_ins.pop().reshape(-1, batch, width)
    steps = axv.shape[0]
    blocks = (batch, 4, hidden)
    rows = (steps * batch, 4, hidden)
    normed = _reference_layer_norm(axv.reshape(rows), xgv, xbv, np.zeros(rows), eps)[0]
    normed = normed.reshape(axv.shape)

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    hs, ins, saved = np.empty((steps, batch, hidden)), [[] for _ in ws], []
    for t in range(steps):
        a = h
        for k, w in enumerate(ws):
            ins[k].append(a)
            a = a @ w
        a = a.reshape(blocks)
        centered = a - a.mean(axis=-1, keepdims=True)
        inv_sd = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
        xhat = centered * inv_sd
        pre = (normed[t] + (gv * xhat + bv).reshape(batch, width)) + gbv
        si, sf = sigmoid(pre[:, :hidden]), sigmoid(pre[:, hidden:2 * hidden])
        tg, so = np.tanh(pre[:, 2 * hidden:3 * hidden]), sigmoid(pre[:, 3 * hidden:])
        c_prev, c = c, sf * c + si * tg
        tc = np.tanh(c)
        hs[t] = so * tc
        h = hs[t]
        saved.append((si, sf, tg, so, tc, c_prev, xhat, inv_sd))
    d_pre = np.empty_like(axv)
    d_outs = [np.empty((steps, batch, w.shape[1])) for w in ws]
    dh, dc = np.zeros((batch, hidden)), np.zeros((batch, hidden))
    xhats = np.empty((steps,) + blocks)
    for t in reversed(range(steps)):
        si, sf, tg, so, tc, c_prev, xhat, inv_sd = saved[t]
        xhats[t] = xhat
        gh = g[t] + dh
        dc = dc + gh * so * (1.0 - tc * tc)
        d = d_pre[t]
        d[:, :hidden] = dc * tg * si * (1.0 - si)
        d[:, hidden:2 * hidden] = dc * c_prev * sf * (1.0 - sf)
        d[:, 2 * hidden:3 * hidden] = dc * si * (1.0 - tg * tg)
        d[:, 3 * hidden:] = gh * tc * so * (1.0 - so)
        dc = dc * sf
        gg = d.reshape(blocks) * gv
        dh = (gg - gg.mean(axis=-1, keepdims=True)
              - xhat * (gg * xhat).mean(axis=-1, keepdims=True)) * inv_sd
        dh = dh.reshape(batch, width)
        for k in reversed(range(len(ws))):
            d_outs[k][t] = dh
            dh = dh @ ws[k].T
    d_norm = d_pre.reshape(xhats.shape)
    _, d_ax, d_x_gain = _reference_layer_norm(axv.reshape(rows), xgv, xbv, d_pre.reshape(rows), eps)
    d = d_ax.reshape(steps * batch, width)
    grads = {"x_gain": d_x_gain,
             "x_bias": d_pre.reshape(rows).sum(axis=0),
             "gain": (d_norm * xhats).sum(axis=(0, 1)),
             "bias": d_norm.sum(axis=(0, 1)), "gate_bias": d_pre.sum(axis=(0, 1)),
             "h0": dh, "c0": dc}
    for k in range(len(ws)):
        grads[f"w{len(ws) - 1 - k}"] = np.tensordot(np.stack(ins[k]), d_outs[k], ([0, 1], [0, 1])).T
    for k in reversed(range(len(xws))):
        grads[f"x{len(xws) - 1 - k}"] = (x_ins[k].T @ d).T
        d = d @ xws[k].T
    grads["rows"] = d
    return hs, c, grads


def _as_factors(mats, prefix):
    """The factors, in a stack's orientation, whose ``.T`` views, last
    factor first, are ``mats``: contiguous copies, so that ``grad_check``'s
    in-place perturbation reaches them, named ``prefix`` and their place in
    the list."""
    return [Parameter(np.ascontiguousarray(m.T), f"{prefix}{k}")
            for k, m in enumerate(reversed(mats))]


def _chain(rng, dims, prefix):
    """A stack's factors whose transposes take ``dims[0]`` columns through
    ``dims[1:]``, each scaled by the width it takes (:func:`_as_factors`)."""
    return _as_factors([rng.normal(size=(dims[k], dims[k + 1])) / np.sqrt(dims[k])
                        for k in range(len(dims) - 1)], prefix)


def _scan_args(rng, steps, batch, hidden, widths, x_dims=(5,)):
    """``lstm_scan``'s inputs after ``tape``: ``steps * batch`` time-major
    rows of ``x_dims[0]`` columns, ``W_x`` factors (:func:`_chain`) from
    them through ``x_dims[1:]`` to ``4 hidden``, its layer norm's gain and
    bias, ``W_h`` factors from ``hidden`` through ``widths``, the ``W_h`` layer
    norm's gain and bias, the gate bias and the entering state, all
    Parameters named as the reference scan names their gradients."""
    rows = _param(rng, (steps * batch, x_dims[0]), "rows")
    x_weights = _chain(rng, [*x_dims, 4 * hidden], "x")
    x_norm = (Parameter(rng.normal(1.0, 0.2, size=(4, hidden)), "x_gain"),
              Parameter(rng.normal(0.0, 0.2, size=(4, hidden)), "x_bias"))
    weights = _chain(rng, [hidden] + widths, "w")
    h_norm = (Parameter(rng.normal(1.0, 0.2, size=(4, hidden)), "gain"),
              Parameter(rng.normal(0.0, 0.2, size=(4, hidden)), "bias"))
    gate_bias = _param(rng, (4 * hidden,), "gate_bias")
    h0, c0 = _param(rng, (batch, hidden), "h0"), _param(rng, (batch, hidden), "c0")
    return rows, x_weights, x_norm, weights, h_norm, gate_bias, h0, c0


def _check_scan(rng, steps, batch, hidden, widths, taped=True, x_dims=(5,)):
    """``lstm_scan`` against :func:`_reference_scan`: the hidden states and
    the last cell state bitwise without a tape and, taped, also every
    gradient."""
    args = _scan_args(rng, steps, batch, hidden, widths, x_dims)
    rows, x_weights, (x_gain, x_bias), weights, (gain, bias), gate_bias, h0, c0 = args
    params = [rows, *x_weights, x_gain, x_bias, *weights, gain, bias, gate_bias, h0, c0]
    g = rng.normal(size=(steps, batch, hidden))
    want_hs, want_c, want = _reference_scan(
        rows.value, [w.value.T for w in reversed(x_weights)], x_gain.value, x_bias.value,
        [w.value.T for w in reversed(weights)], gain.value, bias.value, gate_bias.value,
        h0.value, c0.value, g)
    hs, c = ag.lstm_scan(None, *args)
    assert hs.value.tobytes() == want_hs.tobytes() and c.tobytes() == want_c.tobytes()
    if not taped:
        return
    t = Tape()
    hs, c = ag.lstm_scan(t, *args)
    assert hs.value.tobytes() == want_hs.tobytes() and c.tobytes() == want_c.tobytes()
    backward(t, ag.reduce_sum(t, ag.mul(t, hs, g)))     # the output gradient is g
    for p in params:
        assert p.grad.tobytes() == want[p.name].tobytes(), p.name


class TestLstmScanBitwise:
    """``lstm_scan`` with its reused buffers and in-place steps gives bitwise
    the values and gradients of a ``W_x`` layer norm followed by the same
    loop, on fresh arrays."""

    @pytest.mark.parametrize("steps,batch,hidden,widths,x_dims", [
        (3, 2, 3, [12], (5,)), (3, 2, 3, [2, 12], (5, 2)), (1, 3, 5, [20], (7,)),
        (4, 1, 5, [3, 20], (6, 3)), (35, 20, 64, [256], (64,)), (35, 20, 64, [16, 256], (64, 16)),
    ], ids=["one-weight", "two-weights", "one-step", "batch-one", "paper-like-dense",
            "paper-like-pair"])
    def test_matches_a_loop_on_fresh_arrays(self, steps, batch, hidden, widths, x_dims):
        _check_scan(np.random.default_rng(steps * batch + len(widths)), steps, batch, hidden,
                    widths, x_dims=x_dims)

    @settings(max_examples=40, deadline=None)
    @given(steps=st.integers(1, 6), batch=st.integers(1, 5), hidden=st.integers(1, 70),
           inner=st.lists(st.integers(1, 70), max_size=2),
           x_dims=st.lists(st.integers(1, 70), min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_reference_for_any_shape(self, steps, batch, hidden, inner, x_dims, seed):
        """1-3 weights in each stack, any small window; odd widths reach the
        SIMD tails."""
        _check_scan(np.random.default_rng(seed), steps, batch, hidden, inner + [4 * hidden],
                    x_dims=x_dims)


class TestBackwardMechanics:
    def test_backward_consumes_its_tape(self):
        a = Parameter(np.array([2.0, 3.0]), "a")
        t = Tape()
        loss = ag.reduce_sum(t, ag.mul(t, a, a))
        assert len(t) == 2
        backward(t, loss)
        assert len(t) == 0
        np.testing.assert_array_equal(a.grad, [4.0, 6.0])
        with pytest.raises(StateError, match="empty.*consumed"):
            backward(t, loss)

    def test_backward_before_forward_raises(self):
        with pytest.raises(StateError):
            backward(Tape(), Var(np.float64(0.0)))
        with pytest.raises(StateError):
            backward(None, Var(np.float64(0.0)))

    def test_scalar_loss_required(self):
        t = Tape()
        a = Var(np.ones(3))
        out = ag.mul(t, a, a)
        with pytest.raises(ShapeError):
            backward(t, out)

    def test_constant_loss_leaves_grads_none(self):
        t = Tape()
        a = Parameter(np.ones(3), "a")
        b = ag.reduce_sum(t, Var(np.zeros(3)))   # no dependence on a
        backward(t, b)
        assert a.grad is None

    def test_seed_scales_gradients(self):
        a = Parameter(np.array([2.0, 3.0]), "a")
        t = Tape()
        loss = ag.reduce_sum(t, ag.mul(t, a, a))
        backward(t, loss, seed=2.0)
        np.testing.assert_allclose(a.grad, 4.0 * a.value)

    def test_grad_linearity(self):
        rng = np.random.default_rng(8)
        a = Parameter(rng.normal(size=(3, 3)), "a")

        def run(ca, cb):
            a.grad = None
            t = Tape()
            l1 = ag.reduce_sum(t, ag.mul(t, a, a))
            l2 = _logits_nll(t, a, np.array([0, 2, 1]))
            loss = ag.add(t, ag.scale(t, l1, ca), ag.scale(t, l2, cb))
            backward(t, loss)
            return a.grad.copy()

        g1 = run(1.0, 0.0)
        g2 = run(0.0, 1.0)
        combo = run(0.7, -1.3)
        np.testing.assert_allclose(combo, 0.7 * g1 - 1.3 * g2, rtol=1e-12, atol=1e-12)

    def test_grad_check_caps_parameter_count(self):
        big = Parameter(np.zeros(10_001), "big")
        with pytest.raises(DomainError):
            grad_check([big], lambda t: ag.reduce_sum(t, big))

    def test_grad_check_zero_parameters_vacuous(self):
        constant = Var(np.ones(3))
        assert grad_check([], lambda t: ag.reduce_sum(t, ag.mul(t, constant, constant))) == 0.0

    def test_grad_check_perturbs_a_parameter_that_is_a_view(self):
        # a .T value is not contiguous: a perturbation written to a reshaped
        # copy would never reach the loss, and every difference would read 0
        a = Parameter(np.arange(6.0).reshape(2, 3).T, "a")
        assert not a.value.flags.c_contiguous
        assert grad_check([a], lambda t: ag.reduce_sum(t, ag.mul(t, a, a))) < 1e-6
        np.testing.assert_array_equal(a.value, np.arange(6.0).reshape(2, 3).T)


class TestTrainGradients:
    def test_all_ones_rank_one_core_grads(self):
        # loss = sum(W @ ones): for the all-ones rank-1 (2,2)/(2,2) train
        # the central-difference oracle gives 8.0 for every core entry.
        fact = ShapeFactorization((2, 2), (2, 2))
        train = MpsTrain(
            fact,
            (np.ones((1, 2, 1)), np.ones((1, 2, 1))),
            (np.ones((1, 2, 1)), np.ones((1, 2, 1))),
        )
        lin = TTLinear.from_train(train, name="w")
        x = np.ones((1, 4))

        def build(t):
            apply = lin.prepare(t)
            return ag.reduce_sum(t, apply(Var(x)))

        assert grad_check(lin.parameters(), build) < 1e-6
        t = Tape()
        loss = build(t)
        for p in lin.parameters():
            p.grad = None
        backward(t, loss)
        for p in lin.parameters():
            np.testing.assert_allclose(p.grad, np.full_like(p.value, 8.0), rtol=1e-12)

    def test_matvec_grad_wrt_input_is_transpose_action(self):
        # loss = 0.5 ||W x||^2  =>  dloss/dx = W^T (W x)
        fact = ShapeFactorization((2, 2), (2, 2))
        train = new_mps(fact, (1, 2, 2), (2, 2, 1), seed=6)
        lin = TTLinear.from_train(train, name="w")
        rng = np.random.default_rng(9)
        xp = Parameter(rng.normal(size=(1, 4)), "x")

        def build(t):
            y = lin.prepare(t)(xp)
            return ag.scale(t, ag.reduce_sum(t, ag.mul(t, y, y)), 0.5)

        t = Tape()
        loss = build(t)
        xp.grad = None
        backward(t, loss)
        from ttlstm.ttrain import reconstruct

        w = reconstruct(train)
        y = xp.value[0] @ w.T
        np.testing.assert_allclose(xp.grad[0], w.T @ y, rtol=1e-10, atol=1e-12)

    def test_mps_core_grad_checks(self):
        fact = ShapeFactorization((4, 4), (4, 4))
        train = new_mps(fact, (1, 3, 3), (3, 3, 1), seed=10)
        lin = TTLinear.from_train(train, name="w")
        x = np.random.default_rng(11).normal(size=(2, 16))

        def build(t):
            y = lin.prepare(t)(Var(x))
            return ag.scale(t, ag.reduce_sum(t, ag.mul(t, y, y)), 0.5)

        assert grad_check(lin.parameters(), build) < 1e-5

    def test_two_path_core_gradient_consistency(self):
        # Gradients through the factor pair must match gradients through
        # the full-chain reconstruction.
        fact = ShapeFactorization((3, 2), (2, 3))
        train = new_mps(fact, (1, 3, 2), (2, 2, 1), seed=13)
        lin = TTLinear.from_train(train, name="w")
        x = np.random.default_rng(14).normal(size=(2, 6))

        def run(path):
            for p in lin.parameters():
                p.grad = None
            t = Tape()
            if path == "factor":
                y = lin.prepare(t)(Var(x))
            else:
                w = lin.dense_var(t)
                y = ag.matmul(t, Var(x), ag.transpose(t, w))
            loss = ag.reduce_sum(t, ag.mul(t, y, y))
            backward(t, loss)
            return [p.grad.copy() for p in lin.parameters()]

        for ga, gb in zip(run("factor"), run("dense")):
            np.testing.assert_allclose(ga, gb, rtol=1e-8, atol=1e-12)

    def test_mpo_core_grad_checks(self):
        from ttlstm.ttrain import new_mpo

        fact = ShapeFactorization((2, 3), (3, 2))
        train = new_mpo(fact, (1, 3, 1), seed=15)
        lin = TTLinear.from_train(train, name="w")
        x = np.random.default_rng(16).normal(size=(2, 6))

        def build(t):
            y = lin.prepare(t)(Var(x))
            return ag.reduce_sum(t, ag.mul(t, y, y))

        assert grad_check(lin.parameters(), build) < 1e-5
