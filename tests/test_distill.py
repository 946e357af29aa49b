import numpy as np
import pytest

import ttlstm.autograd as ag
from ttlstm.autograd import Tape, Var, backward
from ttlstm.distill import (
    LAMBDA_GRID,
    DataCovariance,
    DistillConfig,
    accumulate_covariance,
    kd_penalty,
    total_loss,
)
from ttlstm.errors import ConfigError, DomainError, NumericError, ShapeError
from ttlstm.nn import TTLinear
from ttlstm.ttrain import ShapeFactorization, new_mps, reconstruct


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

    def test_eigen_extremes_ordering(self):
        rng = np.random.default_rng(1)
        cov = accumulate_covariance(rng.normal(size=(30, 4)))
        lo, hi = cov.eigen_extremes()
        assert lo <= hi


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
        cov = accumulate_covariance(xs)
        centered = xs - xs.mean(axis=0)
        direct = sum(np.sum(((w_star - w.value) @ x) ** 2) for x in centered)
        got = _scalar(None, w_star, w, 1.0, cov)
        assert abs(got - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_penalty_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w_star = rng.normal(size=(3, 5))
            w = Var(rng.normal(size=(3, 5)))
            cov = accumulate_covariance(rng.normal(size=(8, 5)))
            assert _scalar(None, w_star, w, 1.0, cov) >= -1e-12

    def test_zero_iff_difference_outside_support(self):
        # S built from vectors spanning only the first two coordinates:
        # differences confined to the orthogonal complement cost nothing,
        # differences inside the span cost something.
        xs = np.zeros((6, 4))
        xs[:3, 0] = (1.0, -1.0, 2.0)
        xs[3:, 1] = (1.0, 0.5, -0.5)
        cov = accumulate_covariance(xs)
        w_star = np.zeros((2, 4))
        off_support = np.zeros((2, 4))
        off_support[:, 2:] = 1.0
        assert abs(_scalar(None, w_star, Var(-off_support), 1.0, cov)) < 1e-12
        on_support = np.zeros((2, 4))
        on_support[:, 0] = 1.0
        assert _scalar(None, w_star, Var(-on_support), 1.0, cov) > 1e-6

    def test_lambda_zero_kills_value_and_gradients(self):
        fact = ShapeFactorization((2, 2), (2, 2))
        lin = TTLinear.from_mps(new_mps(fact, (1, 2, 2), (2, 2, 1), seed=6), name="w")
        w_star = np.random.default_rng(7).normal(size=(4, 4))
        tape = Tape()
        pen = kd_penalty(tape, w_star, lin.dense_var(tape), 0.0)
        assert float(pen.value) == 0.0
        backward(tape, pen)
        for p in lin.parameters():
            np.testing.assert_allclose(p.grad, 0.0, atol=0.0)

    def test_gradients_flow_to_student_cores(self):
        fact = ShapeFactorization((2, 2), (2, 2))
        lin = TTLinear.from_mps(new_mps(fact, (1, 2, 2), (2, 2, 1), seed=8), name="w")
        w_star = np.random.default_rng(9).normal(size=(4, 4))

        def build(t):
            return kd_penalty(t, w_star, lin.dense_var(t), 0.31)

        from ttlstm.autograd import grad_check

        assert grad_check(lin.parameters(), build) < 1e-5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kd_penalty(None, np.zeros((2, 2)), Var(np.zeros((3, 2))), 1.0)
        with pytest.raises(ShapeError):
            kd_penalty(None, np.zeros((2, 2)), Var(np.zeros((2, 2))), 1.0, np.zeros((3, 3)))


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
    with pytest.raises(DomainError):
        DistillConfig("kdw", -1.0)
