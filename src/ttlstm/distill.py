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
teacher pass over the training stream (``training.stack_covariances``,
which returns the two ``S`` arrays that the penalties take).

One record per stack. :func:`stack_penalty` takes the factor list
``TTLinear.factors`` builds for the window and records the penalty as one
tape record with a hand-written adjoint, whatever the stack kind.

Dense penalty. A dense or MPO stack's list is ``[W]``. The record forms
``D = W - W*`` and ``P = D S`` once (``P = D`` for ``kdw``), returns
``lambda sum D o P`` and keeps only ``P``; its adjoint returns ``2 lambda g
P``. For ``kda`` the forward costs ``N M^2`` multiply-adds and the adjoint
none beyond scaling ``P``, where an op-by-op graph (sub, matmul by ``S``,
mul, sum, scale) forms ``D S`` twice, once forward and once in the
matmul's adjoint.

Factored penalty. An MPS student keeps its stack as the factor pair
``W = F G^T`` (``F`` is ``N x r``, ``G^T`` is ``r x M``), and expanding
the trace gives

    lambda * (c - 2 sum F o (W* (S G)) + sum (F^T F) o (G^T S G))

with ``c = Trace[W* S W*^T]``, where ``o`` is the elementwise product.
:class:`KdTarget` holds no array beyond the teacher's own: ``W*`` itself
and ``S``. It derives the number ``c`` from them on first read, which
costs ``N M^2 / 2`` multiply-adds once per training run (``W*^T W*`` is
symmetric) and runs only for this form; for ``kdw`` (``S = I``) ``c`` is
``||W*||_F^2``. On ``[F, G^T]`` the record's forward costs ``r
M^2 + N M r + N r^2 + r^2 M`` multiply-adds per window (``kdw`` skips the
``r M^2`` products with ``S``), and so does its adjoint; neither builds an
``N x M`` array. At ``(50,52) x (25,26)`` rank 109 that is 268.9M forward
and 268.9M backward per stack, where the dense record on ``F G^T`` pays
``N r M`` for the product and ``N M^2`` more for ``kda``, 1,282.7M
forward. Each ``N M r`` product is formed with ``r`` rows and ``N`` or
``M`` columns: OpenBLAS runs a product with 109 output columns about 30%
slower than its transpose. Precision: the three terms nearly cancel as
``W -> W*``, so its absolute rounding error is about ``eps * c`` rather
than ``eps`` times the penalty; far from the teacher the two forms agree
to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autograd as ag
from .autograd import Var
from .errors import ConfigError, DomainError, NumericError, ShapeError

__all__ = [
    "LAMBDA_GRID",
    "DataCovariance",
    "DistillConfig",
    "KdTarget",
    "TeacherWeights",
    "accumulate_covariance",
    "kd_penalty",
    "stack_penalty",
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

    def merge(self, other: "DataCovariance") -> "DataCovariance":
        """The covariance of both row sets together, by the pairwise update
        of Chan, Golub & LeVeque (1979); exactly symmetric if both are."""
        n = self.count + other.count
        delta = other.mean - self.mean
        shift = (self.count * other.count / n) * np.outer(delta, delta)
        return DataCovariance(self.matrix + other.matrix + shift, n,
                              self.mean + delta * (other.count / n))


@dataclass(frozen=True)
class DistillConfig:
    mode: str = "none"      # none | kdw | kda
    lam: float = 0.0

    def __post_init__(self):
        if self.mode not in ("none", "kdw", "kda"):
            raise ConfigError(f"unknown distillation mode {self.mode!r}")
        if not 0 <= self.lam < math.inf:     # NaN fails every comparison
            raise DomainError(f"lambda must be finite and >= 0, got {self.lam!r}")

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


def accumulate_covariance(rows: np.ndarray) -> DataCovariance:
    """Two-pass centered covariance sum over the rows of a 2-D array."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.size == 0:
        raise DomainError("empty vector stream")
    if rows.ndim != 2:
        raise ShapeError(f"expected a stream of vectors, got shape {rows.shape}")
    mean = rows.mean(axis=0)
    centered = rows - mean
    matrix = centered.T @ centered
    matrix = (matrix + matrix.T) / 2.0      # enforce exact symmetry
    return DataCovariance(matrix, rows.shape[0], mean)


@dataclass(frozen=True)
class KdTarget:
    """What the penalty of one stack needs from the teacher: the teacher's
    own ``w = W*`` (``N x M``, not a copy) and ``s`` (``None`` for the
    identity), which must be exactly symmetric (else :class:`DomainError`).
    ``c`` is derived from them on first read. Built once per training run
    by :meth:`build`, which symmetrizes ``s``."""

    w: np.ndarray
    s: np.ndarray | None

    def __post_init__(self):
        # both penalty forms take S as its own transpose
        if self.s is not None and not np.array_equal(self.s, self.s.T):
            raise DomainError("KdTarget.s must be exactly symmetric; KdTarget.build "
                              "symmetrizes an asymmetric covariance")

    @cached_property
    def c(self) -> float:
        """``Trace[W* S W*^T]`` (``||W*||_F^2`` for the identity), formed on
        first read and kept; only the factored form reads it."""
        # Trace[W* S W*^T] = sum S o (W*^T W*); numpy runs w.T @ w as a BLAS syrk
        w, s = self.w, self.s
        return float(np.vdot(w, w) if s is None else np.vdot(s, w.T @ w))

    @classmethod
    def build(cls, teacher_w: np.ndarray,
              cov: np.ndarray | None = None) -> "KdTarget":
        w_star = np.asarray(teacher_w, dtype=np.float64)
        if cov is None:
            return cls(w_star, None)
        s = np.asarray(cov, dtype=np.float64)
        if s.shape != (w_star.shape[1], w_star.shape[1]):
            raise ShapeError(f"covariance {s.shape} does not match stack columns")
        # Trace[D S D^T] sees only the symmetric part of S, and the
        # expansion's cross term needs it; a symmetric S is kept as it is
        if not np.array_equal(s, s.T):
            s = (s + s.T) / 2.0
        return cls(w_star, s)


def stack_penalty(tape, target: KdTarget, factors: list[Var], lam: float) -> Var:
    """The penalty ``lam Tr[(W - W*) S (W - W*)^T]`` of one stack from the
    factor list ``TTLinear.factors`` builds, as one tape record; gradients
    flow into the factors.

    ``[W]`` (dense and MPO): the forward forms ``D = W - W*`` and ``P = D S``
    once (``P = D`` for ``kdw``) and returns ``lam sum D o P``, with
    ``D o P`` formed in ``D``'s memory for ``kda``, so the forward never
    holds more than two ``N x M`` arrays; the record keeps only ``P``, and
    its adjoint returns ``2 lam g P``. It does not read ``target.c``, so it
    never forms ``c``.

    ``[F, G^T]`` (MPS, ``ttrain.factor_pair``) never forms ``W``: the
    forward forms ``(S G)^T = G^T S``, ``T^T = (S G)^T W*^T``, ``F^T F`` and
    ``K = (S G)^T G`` and returns ``lam (c - 2 sum F o T + sum F^T F o K)``;
    the record keeps ``T^T`` and the two ``r x r`` arrays, and its adjoint
    returns ``dF = 2 lam g (F K - T)`` and ``dG^T = 2 lam g (F^T F G^T -
    F^T W*) S``. Each ``N M r`` product is formed with ``r`` rows and a
    wide output, which BLAS runs faster than its narrow transpose.
    """
    w, s = target.w, target.s
    lam = float(lam)
    if len(factors) == 1:
        (m,) = factors
        mv = ag._val(m)
        if mv.shape != w.shape:
            raise ShapeError(f"stack {mv.shape} vs target {w.shape}")
        d = mv - w
        p = d if s is None else d @ s
        # kda forms D o P in D's memory; for kdw P is D, which the record keeps
        quad = (d * d).sum() if s is None else np.multiply(d, p, out=d).sum()
        return ag._emit(tape, np.float64(lam * quad),
                        [(m, lambda g: np.multiply(p, 2.0 * lam * float(g), out=p))])
    f, g_t = factors
    fv, gtv = ag._val(f), ag._val(g_t)
    if (fv.shape[0], gtv.shape[1]) != w.shape or fv.shape[1] != gtv.shape[0]:
        raise ShapeError(f"factor pair {fv.shape}, {gtv.shape} vs target {w.shape}")
    sg_t = gtv if s is None else gtv @ s        # (S G)^T, r x M; S is symmetric
    t_t = sg_t @ w.T                            # T^T = (W* S G)^T, r x N
    ftf = fv.T @ fv
    k = sg_t @ gtv.T                            # G^T S G, r x r
    quad = (ftf * k).sum() - 2.0 * np.einsum("ij,ji->", fv, t_t)     # sum F o T, no temporary

    def adjoint(g):
        nonlocal t_t
        two_lam_g = 2.0 * lam * float(g)
        d_f = fv @ k                            # N x r and C-ordered, like F
        d_f -= t_t.T
        d_f *= two_lam_g
        t_t = None
        d_g_t = fv.T @ w                        # F^T W*, r x M
        np.subtract(ftf @ gtv, d_g_t, out=d_g_t)
        if s is not None:
            d_g_t = d_g_t @ s
        d_g_t *= two_lam_g
        return {"f": d_f, "g_t": d_g_t}

    return ag._emit(tape, np.float64(lam * (quad + target.c)),
                    ag._pulls(adjoint, [(f, "f"), (g_t, "g_t")]))


def kd_penalty(tape, teacher_w: np.ndarray, student_w: Var, lam: float,
               cov: np.ndarray | None = None) -> Var:
    """Differentiable distillation penalty on one stack from its dense
    matrix: :func:`stack_penalty` on ``[student_w]``.

    ``cov=None`` is the identity (weight matching); otherwise the penalty
    weights the difference by the ``M x M`` covariance array. Gradients
    flow into whatever produced ``student_w`` (typically the train cores).
    Shapes are checked by :meth:`KdTarget.build` and :func:`stack_penalty`.
    """
    return stack_penalty(tape, KdTarget.build(teacher_w, cov), [student_w], lam)


def total_loss(tape, ce: Var, penalty: Var | None) -> Var:
    """Training objective: data term plus the (already weighted) penalty."""
    if not np.isfinite(ce.value):
        raise NumericError("non-finite data loss")
    if penalty is None:
        return ce
    if not np.isfinite(penalty.value):
        raise NumericError("non-finite penalty")
    return ag.add(tape, ce, penalty)
