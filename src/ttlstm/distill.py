"""Knowledge distillation from a dense teacher into a tensor-train student.

Two penalty forms pull the student's reconstructed stack W toward the
teacher's trained stack W*:

  * activation matching (``kda``): lambda * Trace[(W* - W) S (W* - W)^T]
    where ``S = sum_i x_i x_i^T`` is the (centered) covariance of the
    vectors the stack multiplies;
  * weight matching (``kdw``): the same with S replaced by the identity,
    which reduces to lambda * ||W* - W||_F^2.

The covariance for W_x is accumulated over the embedded input vectors and
the one for W_h over teacher-produced hidden states, in a preliminary
teacher pass over the training stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Var
from .errors import ConfigError, DomainError, NumericError, ShapeError

__all__ = [
    "LAMBDA_GRID",
    "DataCovariance",
    "DistillConfig",
    "TeacherWeights",
    "accumulate_covariance",
    "kd_penalty",
    "total_loss",
]

# Penalty-weight grid used by the language-model experiments.
LAMBDA_GRID = tuple(s * 1e-6 for s in (0.5, 1, 5, 10, 50, 100, 500, 5000))


@dataclass(frozen=True)
class DataCovariance:
    """Centered second-moment sum ``S = sum_i (x_i - mean)(x_i - mean)^T``."""

    matrix: np.ndarray
    count: int
    mean: np.ndarray

    def eigen_extremes(self) -> tuple[float, float]:
        eigs = np.linalg.eigvalsh(self.matrix)
        return float(eigs[0]), float(eigs[-1])


@dataclass(frozen=True)
class DistillConfig:
    mode: str = "none"      # none | kdw | kda
    lam: float = 0.0

    def __post_init__(self):
        if self.mode not in ("none", "kdw", "kda"):
            raise ConfigError(f"unknown distillation mode {self.mode!r}")
        if self.lam < 0:
            raise DomainError("lambda must be >= 0")

    @property
    def active(self) -> bool:
        return self.mode != "none" and self.lam > 0.0


@dataclass(frozen=True)
class TeacherWeights:
    """Dense gate stacks of a trained teacher model."""

    wx: np.ndarray      # (4H, E)
    wh: np.ndarray      # (4H, H)
    source: str = ""

    @classmethod
    def from_model(cls, model, source: str = ""):
        return cls(model.wx.reconstruct_matrix(), model.wh.reconstruct_matrix(), source)


def accumulate_covariance(vectors) -> DataCovariance:
    """Two-pass centered covariance sum over a stream of equal-length rows."""
    rows = np.asarray(list(vectors) if not isinstance(vectors, np.ndarray) else vectors,
                      dtype=np.float64)
    if rows.ndim == 1 and rows.size > 0:
        rows = rows[None, :]
    if rows.size == 0:
        raise DomainError("empty vector stream")
    if rows.ndim != 2:
        raise ShapeError(f"expected a stream of vectors, got shape {rows.shape}")
    mean = rows.mean(axis=0)
    centered = rows - mean
    matrix = centered.T @ centered
    matrix = (matrix + matrix.T) / 2.0      # enforce exact symmetry
    return DataCovariance(matrix, rows.shape[0], mean)


def kd_penalty(tape, teacher_w: np.ndarray, student_w: Var, lam: float,
               cov: DataCovariance | np.ndarray | None = None) -> Var:
    """Differentiable distillation penalty on one stack.

    ``cov=None`` is the identity (weight matching); otherwise the penalty
    weights the difference by the covariance. Gradients flow into whatever
    produced ``student_w`` (typically the train cores).
    """
    teacher_w = np.asarray(teacher_w, dtype=np.float64)
    if teacher_w.shape != student_w.shape:
        raise ShapeError(f"teacher {teacher_w.shape} vs student {student_w.shape}")
    diff = ag.sub(tape, teacher_w, student_w)
    if cov is None:
        quad = ag.mul(tape, diff, diff)
    else:
        s = cov.matrix if isinstance(cov, DataCovariance) else np.asarray(cov, dtype=np.float64)
        if s.shape != (teacher_w.shape[1], teacher_w.shape[1]):
            raise ShapeError(f"covariance {s.shape} does not match stack columns")
        quad = ag.mul(tape, diff, ag.matmul(tape, diff, s))
    return ag.scale(tape, ag.reduce_sum(tape, quad), float(lam))


def total_loss(tape, ce: Var, penalty: Var | None) -> Var:
    """Training objective: data term plus the (already weighted) penalty."""
    if not np.isfinite(ce.value):
        raise NumericError("non-finite data loss")
    if penalty is None:
        return ce
    if not np.isfinite(penalty.value):
        raise NumericError("non-finite penalty")
    return ag.add(tape, ce, penalty)
