import numpy as np
import pytest

import ttlstm.autograd as ag
from ttlstm.autograd import Parameter, Tape, Var, backward, grad_check
from ttlstm.errors import DomainError, ShapeError, StateError, VocabError
from ttlstm.nn import TTLinear
from ttlstm.ttrain import MpsTrain, ShapeFactorization, new_mps


def _param(rng, shape, name="p"):
    return Parameter(rng.normal(size=shape), name)


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

    def test_layer_norm(self):
        rng = np.random.default_rng(6)
        x = _param(rng, (3, 4, 8))
        gain = Parameter(rng.normal(1.0, 0.2, size=(4, 8)), "gain")
        bias = Parameter(rng.normal(0.0, 0.2, size=(4, 8)), "bias")

        def build(t):
            out = ag.layer_norm(t, x, gain, bias, 1e-5)
            return ag.reduce_sum(t, ag.mul(t, out, out))

        self.check([x, gain, bias], build, tol=1e-5)

    def test_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = _param(rng, (6, 5))
        targets = np.array([0, 1, 4, 2, 2, 3])
        self.check([logits], lambda t: ag.cross_entropy(t, logits, targets), tol=1e-6)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_cross_entropy_rejects_out_of_range_targets(self, bad):
        logits = np.array([[0.5, -1.0, 2.0], [1.5, 0.0, -0.5]])
        with pytest.raises(VocabError):
            ag.cross_entropy(None, logits, np.array([0, bad]))

    @pytest.mark.parametrize("rows,vocab,spread", [(1, 1, 1.0), (7, 11, 0.1), (40, 300, 50.0)])
    def test_cross_entropy_matches_reference_bitwise(self, rows, vocab, spread):
        rng = np.random.default_rng(rows)
        logits = Parameter(rng.normal(scale=spread, size=(rows, vocab)), "logits")
        targets = rng.integers(0, vocab, size=rows)
        seed = 2.5
        t = Tape()
        loss = ag.cross_entropy(t, logits, targets)
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
        rng = np.random.default_rng(14)
        x, w, b = _param(rng, (3, 4), "x"), _param(rng, (4, 2), "w"), _param(rng, (2,), "b")
        self.check([x, w, b], lambda t: ag.reduce_sum(t, ag.mul(t, ag.linear(t, x, w, b),
                                                                ag.linear(t, x, w, b))))
        two_ops = ag.add(None, ag.matmul(None, x, w), b).value
        assert ag.linear(None, x, w, b).value.tobytes() == two_ops.tobytes()


class TestLstmScan:
    """``lstm_scan``'s hand-written adjoint against central differences."""

    @pytest.mark.parametrize("widths", [[12], [2, 12]], ids=["one-weight", "two-weights"])
    def test_grad_check_with_carried_state(self, widths):
        steps, batch, hidden = 3, 2, 3
        rng = np.random.default_rng(len(widths))
        ax = _param(rng, (steps, batch, 4 * hidden), "ax")
        dims = [hidden] + widths
        weights = [_param(rng, (dims[k], dims[k + 1]), f"w{k}") for k in range(len(widths))]
        gain = Parameter(rng.normal(1.0, 0.2, size=(4, hidden)), "gain")
        bias = Parameter(rng.normal(0.0, 0.2, size=(4, hidden)), "bias")
        gate_bias = _param(rng, (4 * hidden,), "gate_bias")
        h0, c0 = _param(rng, (batch, hidden), "h0"), _param(rng, (batch, hidden), "c0")
        w = rng.normal(size=(steps, batch, hidden))
        params = [ax, *weights, gain, bias, gate_bias, h0, c0]

        def build(t):
            hs, _ = ag.lstm_scan(t, ax, weights, gain, bias, gate_bias, h0, c0)
            return ag.reduce_sum(t, ag.mul(t, hs, w))

        assert grad_check(params, build) < 1e-5
        t = Tape()
        for p in params:
            p.grad = None
        backward(t, build(t))
        assert all(p.grad is not None and np.any(p.grad) for p in params)

    def test_one_record_and_a_plain_last_cell_state(self):
        rng = np.random.default_rng(5)
        ax = _param(rng, (4, 2, 8), "ax")
        weight = _param(rng, (2, 8), "w")
        gain, bias = Parameter(np.ones((4, 2)), "gain"), Parameter(np.zeros((4, 2)), "bias")
        t = Tape()
        hs, c = ag.lstm_scan(t, ax, [weight], gain, bias, np.zeros(8),
                             np.zeros((2, 2)), np.zeros((2, 2)))
        assert len(t) == 1 and hs.shape == (4, 2, 2)
        assert isinstance(c, np.ndarray) and c.shape == (2, 2)

    def test_state_must_match_the_gates(self):
        with pytest.raises(ShapeError):
            ag.lstm_scan(None, np.zeros((3, 2, 8)), [np.zeros((2, 8))], np.ones((4, 2)),
                         np.zeros((4, 2)), np.zeros(8), np.zeros((2, 3)), np.zeros((2, 3)))


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
            l2 = ag.cross_entropy(t, a, np.array([0, 2, 1]))
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
