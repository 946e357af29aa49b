import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import five_op_kd_penalty
import ttlstm.autograd as ag
from ttlstm.autograd import Parameter, Tape, Var, backward, grad_check
from ttlstm.distill import (
    LAMBDA_GRID,
    DistillConfig,
    KdTarget,
    accumulate_covariance,
    kd_penalty,
    stack_penalty,
    total_loss,
)
from ttlstm.errors import ConfigError, DomainError, NumericError, ShapeError
from ttlstm.nn import TTLinear
from ttlstm.ttrain import ShapeFactorization, new_mpo, new_mps


class TestAccumulateCovariance:
    def test_two_vector_hand_case(self):
        # rows (1,0), (0,1): mean (0.5, 0.5), centered rows (+-0.5, -+0.5)
        cov = accumulate_covariance(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(cov.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
        assert cov.count == 2

    def test_repeated_vector_centers_to_zero(self):
        cov = accumulate_covariance(np.tile([3.0, -1.0, 2.0], (5, 1)))
        np.testing.assert_allclose(cov.matrix, 0.0, atol=1e-12)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(0)
        cov = accumulate_covariance(rng.normal(size=(40, 6)))
        np.testing.assert_array_equal(cov.matrix, cov.matrix.T)
        eigs = np.linalg.eigvalsh(cov.matrix)
        assert eigs.min() >= -1e-8 * np.trace(cov.matrix)

    def test_empty_stream(self):
        with pytest.raises(DomainError):
            accumulate_covariance(np.zeros((0, 3)))

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_merge_matches_the_two_pass_covariance(self, offset):
        # uneven blocks, folded left to right as a streamed pass does
        rows = np.random.default_rng(2).normal(size=(97, 6)) * [1, 2, 3, 1, 5, 1] + offset
        merged = None
        for lo, hi in ((0, 1), (1, 6), (6, 40), (40, 97)):
            block = accumulate_covariance(rows[lo:hi])
            merged = block if merged is None else merged.merge(block)
        want = accumulate_covariance(rows)
        assert merged.count == want.count == 97
        np.testing.assert_array_equal(merged.matrix, merged.matrix.T)
        assert np.max(np.abs(merged.matrix - want.matrix)) <= 1e-12 * np.max(np.abs(want.matrix))
        np.testing.assert_allclose(merged.mean, want.mean, rtol=1e-14)


def _scalar(tape, teacher, student_w, lam, cov=None):
    return float(kd_penalty(tape, teacher, student_w, lam, cov).value)


class TestKdPenalty:
    def test_identity_difference_frobenius(self):
        w_star = np.eye(2) + np.ones((2, 2))
        w = Var(np.ones((2, 2)))
        assert abs(_scalar(None, w_star, w, 1.0) - 2.0) < 1e-15

    def test_identity_covariance_equals_frobenius(self):
        rng = np.random.default_rng(3)
        w_star = rng.normal(size=(4, 4))
        w = Var(rng.normal(size=(4, 4)))
        lam = 0.37
        frob = lam * np.sum((w_star - w.value) ** 2)
        via_identity = _scalar(None, w_star, w, lam, np.eye(4))
        plain = _scalar(None, w_star, w, lam)
        assert abs(via_identity - frob) <= 1e-12 * max(1.0, abs(frob))
        assert abs(plain - frob) <= 1e-12 * max(1.0, abs(frob))

    def test_trace_form_equals_sum_of_squared_activations(self):
        rng = np.random.default_rng(4)
        w_star = rng.normal(size=(4, 4))
        w = Var(rng.normal(size=(4, 4)))
        xs = rng.normal(size=(12, 4))
        cov = accumulate_covariance(xs).matrix
        centered = xs - xs.mean(axis=0)
        direct = sum(np.sum(((w_star - w.value) @ x) ** 2) for x in centered)
        got = _scalar(None, w_star, w, 1.0, cov)
        assert abs(got - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_penalty_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w_star = rng.normal(size=(3, 5))
            w = Var(rng.normal(size=(3, 5)))
            cov = accumulate_covariance(rng.normal(size=(8, 5))).matrix
            assert _scalar(None, w_star, w, 1.0, cov) >= -1e-12

    def test_zero_iff_difference_outside_support(self):
        # S built from vectors spanning only the first two coordinates:
        # differences confined to the orthogonal complement cost nothing,
        # differences inside the span cost something.
        xs = np.zeros((6, 4))
        xs[:3, 0] = (1.0, -1.0, 2.0)
        xs[3:, 1] = (1.0, 0.5, -0.5)
        cov = accumulate_covariance(xs).matrix
        w_star = np.zeros((2, 4))
        off_support = np.zeros((2, 4))
        off_support[:, 2:] = 1.0
        assert abs(_scalar(None, w_star, Var(-off_support), 1.0, cov)) < 1e-12
        on_support = np.zeros((2, 4))
        on_support[:, 0] = 1.0
        assert _scalar(None, w_star, Var(-on_support), 1.0, cov) > 1e-6

    def test_lambda_zero_kills_value_and_gradients(self):
        fact = ShapeFactorization((2, 2), (2, 2))
        lin = TTLinear.from_train(new_mps(fact, (1, 2, 2), (2, 2, 1), seed=6), name="w")
        w_star = np.random.default_rng(7).normal(size=(4, 4))
        tape = Tape()
        pen = kd_penalty(tape, w_star, lin.dense_var(tape), 0.0)
        assert float(pen.value) == 0.0
        backward(tape, pen)
        for p in lin.parameters():
            np.testing.assert_allclose(p.grad, 0.0, atol=0.0)

    def test_gradients_flow_to_student_cores(self):
        fact = ShapeFactorization((2, 2), (2, 2))
        lin = TTLinear.from_train(new_mps(fact, (1, 2, 2), (2, 2, 1), seed=8), name="w")
        w_star = np.random.default_rng(9).normal(size=(4, 4))

        def build(t):
            return kd_penalty(t, w_star, lin.dense_var(t), 0.31)

        assert grad_check(lin.parameters(), build) < 1e-5

    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_taped_penalty_keeps_no_quad(self, mode):
        # the record keeps P = (W - W*) S, or W - W* for kdw, one N x M
        # array; W - W* and the elementwise product are freed once summed
        rng = np.random.default_rng(18)
        n, m = 600, 200
        w_star, w = rng.normal(size=(n, m)), Var(rng.normal(size=(n, m)))
        cov = accumulate_covariance(rng.normal(size=(300, m))).matrix if mode == "kda" else None
        tape = Tape()
        tracemalloc.start()
        try:
            pen = kd_penalty(tape, w_star, w, 0.5, cov)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1.5 * n * m * 8
        backward(tape, pen)
        assert w.grad.shape == (n, m)

    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_forward_peak_is_two_stack_arrays(self, mode):
        # the forward holds D = W - W* and P = D S (P = D for kdw); D o P is
        # formed in D's memory, not in a third N x M array
        rng = np.random.default_rng(19)
        n, m = 600, 200
        w = Var(rng.normal(size=(n, m)))
        cov = accumulate_covariance(rng.normal(size=(300, m))).matrix if mode == "kda" else None
        target = KdTarget.build(rng.normal(size=(n, m)), cov)
        tracemalloc.start()
        try:
            stack_penalty(Tape(), target, [w], 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * n * m * 8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kd_penalty(None, np.zeros((2, 2)), Var(np.zeros((3, 2))), 1.0)
        with pytest.raises(ShapeError):
            kd_penalty(None, np.zeros((2, 2)), Var(np.zeros((2, 2))), 1.0, np.zeros((3, 3)))


def _c07_data():
    """The teacher and covariance of acceptance criterion 7 (6 x 5 stack)."""
    rng = np.random.default_rng(13)
    w_star = rng.normal(size=(6, 5))
    rng.normal(size=(6, 5))         # c07's dense student, drawn to keep the stream
    return w_star, accumulate_covariance(rng.normal(size=(40, 5))).matrix


def _n3_data():
    rng = np.random.default_rng(14)
    return rng.normal(size=(12, 6)), accumulate_covariance(rng.normal(size=(30, 6))).matrix


# (row dims, col dims, row ranks, col ranks, teacher and covariance); uneven ranks
FACTORED_CASES = {
    "n=m=2, c07 data": ((2, 3), (5, 1), (1, 3, 2), (2, 4, 1), _c07_data),
    "n=m=3": ((2, 3, 2), (3, 1, 2), (1, 2, 4, 3), (3, 2, 3, 1), _n3_data),
}


def _mps_student(case, seed=21):
    rows, cols, row_ranks, col_ranks, data = FACTORED_CASES[case]
    fact = ShapeFactorization(rows, cols)
    lin = TTLinear.from_train(new_mps(fact, row_ranks, col_ranks, seed=seed), name="w")
    w_star, cov = data()
    return lin, w_star, cov


def _factored(tape, lin, target, lam):
    return stack_penalty(tape, target, lin.factors(tape), lam)


def _op_graph(tape, lin, target, lam):
    """The factored penalty built from autograd ops, one per term."""
    f, g_t = lin.factors(tape)
    g = ag.transpose(tape, g_t)
    s_g = g if target.s is None else ag.matmul(tape, target.s, g)
    cross = ag.reduce_sum(tape, ag.mul(tape, f, ag.matmul(tape, target.w, s_g)))
    gram = ag.mul(tape, ag.matmul(tape, ag.transpose(tape, f), f), ag.matmul(tape, g_t, s_g))
    quad = ag.sub(tape, ag.reduce_sum(tape, gram), ag.scale(tape, cross, 2.0))
    return ag.scale(tape, ag.add(tape, quad, target.c), float(lam))


def _value_and_grads(lin, build):
    tape = Tape()
    pen = build(tape)
    for p in lin.parameters():
        p.grad = None
    backward(tape, pen)
    return float(pen.value), [p.grad.copy() for p in lin.parameters()]


class TestFactoredKdPenalty:
    @pytest.mark.parametrize("case", FACTORED_CASES)
    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_matches_dense_penalty_value_and_core_gradients(self, case, mode):
        lin, w_star, cov = _mps_student(case)
        s = cov if mode == "kda" else None
        lam = 0.73
        target = KdTarget.build(w_star, s)
        want, want_grads = _value_and_grads(
            lin, lambda t: five_op_kd_penalty(t, w_star, lin.dense_var(t), lam, s))
        got, got_grads = _value_and_grads(lin, lambda t: _factored(t, lin, target, lam))
        assert abs(got - want) <= 1e-10 * abs(want)
        for p, g, w in zip(lin.parameters(), got_grads, want_grads):
            assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w)), p.name

    def test_kdw_target_is_the_teacher_and_its_squared_norm(self):
        w_star, _ = _c07_data()
        target = KdTarget.build(w_star)
        assert target.s is None
        np.testing.assert_array_equal(target.w, w_star)
        assert target.c == pytest.approx(np.sum(w_star ** 2), rel=1e-14)

    def test_kda_target_holds_the_teacher_itself(self):
        # a W* S product or a copy of W* would take N M 8 bytes
        rng = np.random.default_rng(16)
        n, m = 1200, 300
        w_star = rng.normal(size=(n, m))
        cov = accumulate_covariance(rng.normal(size=(400, m)))
        tracemalloc.start()
        try:
            target = KdTarget.build(w_star, cov.matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(target.w, w_star)
        assert peak < n * m * 8
        assert target.s is cov.matrix          # exactly symmetric: kept, not copied

    @pytest.mark.parametrize("case", FACTORED_CASES)
    def test_kda_target_c_is_the_weighted_trace(self, case):
        _, w_star, cov = _mps_student(case)
        target = KdTarget.build(w_star, cov)
        want = np.vdot(w_star @ cov, w_star)
        assert abs(target.c - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("case", FACTORED_CASES)
    def test_kdw_penalty_is_bitwise_the_teacher_times_g(self, case):
        # the cross term multiplies the target's W*, which is the teacher's
        # own array; a target holding a copy must give the same bytes
        lin, w_star, _ = _mps_student(case)
        target = KdTarget.build(w_star)
        copied = KdTarget(w_star.copy(), None)
        want, want_grads = _value_and_grads(lin, lambda t: _factored(t, lin, copied, 0.73))
        got, got_grads = _value_and_grads(lin, lambda t: _factored(t, lin, target, 0.73))
        assert got == want
        for g, w in zip(got_grads, want_grads):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("case", FACTORED_CASES)
    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_matches_the_op_by_op_graph(self, case, mode):
        # the closed-form record against the same expansion built from
        # autograd ops, which it replaced: equal but for float reassociation
        lin, w_star, cov = _mps_student(case)
        target = KdTarget.build(w_star, cov if mode == "kda" else None)
        want, want_grads = _value_and_grads(lin, lambda t: _op_graph(t, lin, target, 0.73))
        got, got_grads = _value_and_grads(lin, lambda t: _factored(t, lin, target, 0.73))
        assert abs(got - want) <= 1e-12 * abs(want)
        for p, g, w in zip(lin.parameters(), got_grads, want_grads):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), p.name

    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_one_record_per_stack(self, mode):
        lin, w_star, cov = _mps_student("n=m=3")
        target = KdTarget.build(w_star, cov if mode == "kda" else None)
        tape = Tape()
        factors = lin.factors(tape)
        before = len(tape)
        stack_penalty(tape, target, factors, 0.73)
        assert len(tape) == before + 1

    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_backward_seed_scales_the_gradients(self, mode):
        lin, w_star, cov = _mps_student("n=m=2, c07 data")
        target = KdTarget.build(w_star, cov if mode == "kda" else None)
        grads = []
        for seed in (1.0, 3.0):
            tape = Tape()
            pen = _factored(tape, lin, target, 0.73)
            for p in lin.parameters():
                p.grad = None
            backward(tape, pen, seed=seed)
            grads.append([p.grad.copy() for p in lin.parameters()])
        for one, three in zip(*grads):
            np.testing.assert_allclose(three, 3.0 * one, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_taped_record_forms_and_keeps_no_stack_sized_array(self, mode):
        # the record keeps T^T (r x N) and two r x r arrays; an N x M array
        # would take N M 8 bytes
        rng = np.random.default_rng(17)
        n, m, r = 1200, 300, 5
        w_star = rng.normal(size=(n, m))
        cov = accumulate_covariance(rng.normal(size=(400, m))).matrix
        target = KdTarget.build(w_star, cov if mode == "kda" else None)
        f, g_t = Var(rng.normal(size=(n, r))), Var(rng.normal(size=(r, m)))
        target.c        # formed once per training run, not by the record
        tape = Tape()
        tracemalloc.start()
        try:
            pen = stack_penalty(tape, target, [f, g_t], 0.73)
            kept = tracemalloc.get_traced_memory()[0]
            backward(tape, pen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept < 2 * r * n * 8
        assert peak < n * m * 8 / 4

    def test_target_refuses_an_asymmetric_covariance(self):
        w_star, cov = _c07_data()
        cov = cov.copy()
        cov[0, 1] += 1.0
        with pytest.raises(DomainError):
            KdTarget(w_star, cov)
        assert np.array_equal(KdTarget.build(w_star, cov).s, (cov + cov.T) / 2.0)

    def test_asymmetric_weight_matches_dense_penalty(self):
        # the trace sees only the symmetric part of S; so does the target
        lin, w_star, _ = _mps_student("n=m=2, c07 data")
        s = np.random.default_rng(15).normal(size=(5, 5))
        want = float(five_op_kd_penalty(None, w_star, lin.dense_var(None), 1.0, s).value)
        got = float(_factored(None, lin, KdTarget.build(w_star, s), 1.0).value)
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_lambda_zero_gives_zero_value_and_gradients(self, mode):
        lin, w_star, cov = _mps_student("n=m=3")
        target = KdTarget.build(w_star, cov if mode == "kda" else None)
        value, grads = _value_and_grads(lin, lambda t: _factored(t, lin, target, 0.0))
        assert value == 0.0
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("case", FACTORED_CASES)
    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_grad_check_on_cores(self, case, mode):
        lin, w_star, cov = _mps_student(case)
        target = KdTarget.build(w_star, cov if mode == "kda" else None)
        assert grad_check(lin.parameters(), lambda t: _factored(t, lin, target, 0.31)) < 1e-5

    def test_shape_mismatch(self):
        lin, w_star, _ = _mps_student("n=m=2, c07 data")
        with pytest.raises(ShapeError):
            KdTarget.build(w_star, np.eye(6))
        with pytest.raises(ShapeError):
            _factored(None, lin, KdTarget.build(w_star.T), 1.0)


class TestDenseRecord:
    """``stack_penalty`` on ``[W]``, the one factor of a dense or MPO stack."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 9), m=st.integers(1, 9), rows=st.integers(1, 12),
           kda=st.booleans(), lam=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 32 - 1))
    def test_value_and_gradient_are_the_activation_sum_and_2_lam_d_s(self, n, m, rows, kda,
                                                                     lam, seed):
        # lam sum_i ||(W - W*) x_i||^2 with S = sum_i x_i x_i^T; kdw is S = I,
        # the x_i the unit vectors
        rng = np.random.default_rng(seed)
        w_star, w = rng.normal(size=(n, m)), Var(rng.normal(size=(n, m)))
        xs = rng.normal(size=(rows, m)) if kda else np.eye(m)
        target = KdTarget.build(w_star, xs.T @ xs if kda else None)
        tape = Tape()
        pen = stack_penalty(tape, target, [w], lam)
        backward(tape, pen)
        d = w.value - w_star
        s = np.eye(m) if target.s is None else target.s
        want = lam * sum(np.sum((d @ x) ** 2) for x in xs)
        # rounding bounds: the sum of |D| |x_i| squared, and |D| |S| per entry
        assert abs(float(pen.value) - want) <= 1e-12 * lam * np.sum((np.abs(d) @ np.abs(xs).T) ** 2)
        want_grad = 2.0 * lam * d @ s
        bound = 1e-12 * 2.0 * lam * (np.abs(d) @ np.abs(s))
        assert np.all(np.abs(w.grad - want_grad) <= bound)

    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_matches_the_five_op_graph(self, mode):
        # value bitwise in both modes (W - W* is exactly -(W* - W)), the kdw
        # gradient bitwise ((2 lam g) D is exactly 2 (lam g D)); the kda
        # gradient forms (lam g D) S against (2 lam g) (D S): reassociation.
        # The record never reads c, so the target never forms it.
        rng = np.random.default_rng(19)
        w_star, w = rng.normal(size=(40, 30)), Parameter(rng.normal(size=(40, 30)), "w")
        cov = accumulate_covariance(rng.normal(size=(50, 30))).matrix if mode == "kda" else None
        target = KdTarget.build(w_star, cov)
        got = []
        for build in (lambda t: five_op_kd_penalty(t, w_star, w, 0.73, cov),
                      lambda t: stack_penalty(t, target, [w], 0.73)):
            tape = Tape()
            pen = build(tape)
            w.grad = None
            backward(tape, pen, seed=1.7)
            got.append((float(pen.value), w.grad.copy()))
        (want, want_grad), (value, grad) = got
        assert value == want and "c" not in vars(target)
        if mode == "kdw":
            assert grad.tobytes() == want_grad.tobytes()
        assert np.max(np.abs(grad - want_grad)) <= 1e-14 * np.max(np.abs(want_grad))

    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_grad_check_through_an_mpo_dense_matrix(self, mode):
        fact = ShapeFactorization((2, 3), (3, 2))
        lin = TTLinear.from_train(new_mpo(fact, (1, 3, 1), seed=23), name="w")
        rng = np.random.default_rng(24)
        w_star = rng.normal(size=(6, 6))
        cov = accumulate_covariance(rng.normal(size=(20, 6))).matrix if mode == "kda" else None
        target = KdTarget.build(w_star, cov)
        assert lin.kind == "mpo" and len(lin.factors(None)) == 1
        assert grad_check(lin.parameters(),
                          lambda t: stack_penalty(t, target, lin.factors(t), 0.31)) < 1e-5

    def test_one_record_and_shape_mismatch(self):
        rng = np.random.default_rng(25)
        w_star, w = rng.normal(size=(4, 3)), Var(rng.normal(size=(4, 3)))
        tape = Tape()
        stack_penalty(tape, KdTarget.build(w_star), [w], 0.5)
        assert len(tape) == 1
        with pytest.raises(ShapeError, match=r"stack \(4, 3\) vs target \(3, 4\)"):
            stack_penalty(None, KdTarget.build(w_star.T), [w], 0.5)


class TestTotalLoss:
    def test_plain_sum(self):
        out = total_loss(None, Var(np.float64(2.0)), Var(np.float64(0.5)))
        assert float(out.value) == 2.5

    def test_zero_penalty_recovers_data_loss(self):
        ce = Var(np.float64(1.25))
        assert float(total_loss(None, ce, None).value) == 1.25

    def test_gradient_is_sum_of_gradients(self):
        a = Var(np.float64(3.0))
        t = Tape()
        l1 = ag.scale(t, a, 2.0)
        l2 = ag.mul(t, a, a)
        tot = total_loss(t, l1, l2)
        backward(t, tot)
        assert abs(float(a.grad) - (2.0 + 2.0 * 3.0)) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            total_loss(None, Var(np.float64(np.nan)), Var(np.float64(0.0)))
        with pytest.raises(NumericError):
            total_loss(None, Var(np.float64(0.0)), Var(np.float64(np.inf)))


def test_lambda_grid_values():
    np.testing.assert_allclose(
        LAMBDA_GRID, (5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 5e-3), rtol=1e-12)


def test_distill_config_validation():
    assert not DistillConfig().active
    assert DistillConfig("kdw", 1e-5).active
    assert not DistillConfig("kdw", 0.0).active
    with pytest.raises(ConfigError):
        DistillConfig("soft-labels", 1.0)
    for lam in (-1.0, np.nan, np.inf):      # a NaN lambda would switch distillation off
        with pytest.raises(DomainError):
            DistillConfig("kdw", lam)
