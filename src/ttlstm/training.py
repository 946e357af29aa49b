"""Optimizers and the deterministic training/evaluation loops.

Training walks the contiguous batch windows in order (no shuffling) with
truncated backpropagation: the recurrent state carries across windows
within an epoch but is detached between them. Training draws no random
numbers, so a run is bitwise reproducible on a single thread from the
model's own build seed.

The default optimizer is plain SGD with global gradient-norm clipping and
a learning rate that halves whenever validation perplexity stops
improving; Adam is available as an option.

Training and evaluation score windows with the same ``nn.sequence_nll``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tape
from .data import make_batches
from .distill import (DistillConfig, KdTarget, TeacherWeights, accumulate_covariance,
                      stack_penalty, total_loss)
from .errors import ConfigError, DomainError, NumericError
from .nn import TTLstmModel, forward_lm, sequence_nll

__all__ = ["TrainConfig", "EpochStats", "train_model", "evaluate", "stack_covariances",
           "collect_stack_inputs", "clip_gradients"]


@dataclass
class TrainConfig:
    optimizer: str = "sgd"          # sgd | adam
    lr: float = 1.0
    epochs: int = 1
    clip: float = 5.0
    distill: DistillConfig = field(default_factory=DistillConfig)

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if isinstance(self.epochs, bool) or not isinstance(self.epochs, numbers.Integral):
            raise ConfigError(f"epochs must be an integer, got {self.epochs!r}")
        # the negated form also refuses NaN, which compares false either way
        if not (self.epochs >= 1 and 0 < self.lr < math.inf and 0 < self.clip < math.inf):
            raise ConfigError("epochs, lr and clip must be positive, lr and clip finite")


class _Sgd:
    """``p.value -= lr * p.grad``, bitwise, with ``lr * p.grad`` formed in
    the gradient itself: no temporary per parameter. The step consumes the
    gradients (afterwards ``p.grad`` holds ``lr`` times what it held), so
    no two gradients may share memory, as after ``backward``."""

    def __init__(self, cfg: TrainConfig):
        self.lr = cfg.lr

    def step(self, params):
        for p in params:
            if p.grad is not None:
                p.value -= np.multiply(p.grad, self.lr, out=p.grad)


class _Adam:
    def __init__(self, cfg: TrainConfig):
        self.lr = cfg.lr
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m: dict[int, np.ndarray] = {}
        self.v: dict[int, np.ndarray] = {}

    def step(self, params):
        self.t += 1
        for p in params:
            if p.grad is None:
                continue
            key = id(p)
            if key not in self.m:       # the moments, made once on first use
                self.m[key], self.v[key] = np.zeros_like(p.value), np.zeros_like(p.value)
            m, v = self.m[key], self.v[key]
            m *= self.b1
            m += (1 - self.b1) * p.grad
            v *= self.b2
            v += (1 - self.b2) * p.grad * p.grad
            m_hat = m / (1 - self.b1 ** self.t)
            v_hat = v / (1 - self.b2 ** self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(params, clip: float) -> float:
    """Scale all grads in place so their global 2-norm is at most ``clip``;
    return the norm before scaling. Each ``p.grad`` keeps its array, so no
    two of them may share memory (``backward`` gives every parameter a
    gradient of its own)."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.vdot(p.grad, p.grad))
    norm = math.sqrt(total)
    if norm > clip:
        factor = clip / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm


@dataclass
class EpochStats:
    epoch: int
    train_nll: float
    train_ppl: float
    valid_nll: float
    valid_ppl: float
    lr: float
    grad_norm: float


def _untaped_windows(model: TTLstmModel, ids: np.ndarray):
    """Walk the stream's windows in order, in the model's own batch and
    unroll, with no tape and the state carried from zero: yield
    ``(batch, entering state, forward_lm result)`` per window."""
    arch = model.arch
    state = tuple(np.zeros((2, arch.batch_size, arch.hidden_dim)))     # (h, c)
    for batch in make_batches(ids, arch.batch_size, arch.unroll):
        result = forward_lm(model, batch.inputs, None, state)
        yield batch, state, result
        state = result.state


def evaluate(model: TTLstmModel, ids: np.ndarray):
    """Token-mean NLL and perplexity over the stream, each window scored
    by ``sequence_nll`` on the untaped walk that ``stack_covariances``
    also runs: the model's own batch and unroll, stateful across windows.
    Remainder tokens beyond the lane layout are dropped."""
    total_nll = 0.0
    total_tokens = 0
    for batch, _, out in _untaped_windows(model, ids):
        nll = float(sequence_nll(None, out, batch.targets).value)
        total_nll += nll * batch.targets.size
        total_tokens += batch.targets.size
    nll = total_nll / total_tokens
    return nll, float(np.exp(nll))


def _window_loss(model, tape, batch, targets, lam, state):
    """CE over the window plus, with ``targets`` (one :class:`KdTarget` per
    stack), each stack's penalty on the factor list ``forward_lm`` built."""
    out = forward_lm(model, batch.inputs, tape, state=state)
    ce = sequence_nll(tape, out, batch.targets)
    penalty = None
    if targets:
        penalty = ag.add(tape, *(stack_penalty(tape, t, f, lam)
                                 for t, f in zip(targets, out.factors)))
    return total_loss(tape, ce, penalty), float(ce.value), out.state


def train_model(model: TTLstmModel, train_ids: np.ndarray, valid_ids: np.ndarray,
                cfg: TrainConfig, teacher: TeacherWeights | None = None,
                cov_x=None, cov_h=None, epoch_callback=None) -> list[EpochStats]:
    """Train in place and return per-epoch statistics.

    ``teacher`` enables the distillation penalty configured in
    ``cfg.distill``; ``cov_x``/``cov_h`` supply the activation covariance
    arrays for ``kda`` mode (:func:`stack_covariances`), ``E x E`` and
    ``H x H`` (else :class:`ConfigError`).
    Each stack's penalty is one ``distill.stack_penalty`` record on the
    window's factor list from ``forward_lm``, ``[F, G^T]`` or ``[W]``, against
    a :class:`KdTarget` built once per stack per call.
    ``epoch_callback`` receives the :class:`EpochStats` of each completed
    epoch. A stream of either split shorter than one window raises
    :class:`DomainError` before any window runs. A non-finite loss or
    gradient norm raises :class:`NumericError` in the window where it
    appears, and the failing epoch is never reported.
    Clipping and the SGD step scale the gradients ``backward`` made in
    place, which relies on no two of them sharing memory; after a window,
    ``p.grad`` is no longer the window's gradient (SGD leaves ``lr`` times
    the clipped gradient there).
    """
    distill = cfg.distill
    if distill.active and teacher is None:
        raise ConfigError("distillation requires a teacher")
    kda = distill.mode == "kda" and distill.active
    if kda:
        for name, cov, stack in (("cov_x", cov_x, model.wx), ("cov_h", cov_h, model.wh)):
            if cov is None:
                raise ConfigError("kda distillation requires both covariances")
            shape = np.shape(cov)
            if shape != (stack.in_dim, stack.in_dim):
                raise ConfigError(f"{name} has shape {shape}, the student needs "
                                  f"{stack.in_dim} x {stack.in_dim}")
    if teacher is not None:
        if teacher.wx.shape != (model.wx.out_dim, model.wx.in_dim) or \
           teacher.wh.shape != (model.wh.out_dim, model.wh.in_dim):
            raise ConfigError("teacher stacks do not match the student architecture")
    targets = None
    if distill.active:
        sx, sh = (cov_x, cov_h) if kda else (None, None)
        targets = (KdTarget.build(teacher.wx, sx), KdTarget.build(teacher.wh, sh))
    arch = model.arch
    stream = make_batches(train_ids, arch.batch_size, arch.unroll)
    make_batches(valid_ids, arch.batch_size, arch.unroll)     # fail before training, not after
    optimizer = _Sgd(cfg) if cfg.optimizer == "sgd" else _Adam(cfg)
    params = model.parameters()
    history: list[EpochStats] = []
    best_valid = math.inf
    for epoch in range(1, cfg.epochs + 1):
        state = None
        nll_sum = 0.0
        token_sum = 0
        last_norm = 0.0
        for batch in stream:
            model.zero_grads()
            tape = Tape()
            loss, ce_value, state = _window_loss(model, tape, batch, targets, distill.lam, state)
            if not np.isfinite(loss.value):
                raise NumericError(f"non-finite loss in epoch {epoch}")
            ag.backward(tape, loss)
            last_norm = clip_gradients(params, cfg.clip)
            if not math.isfinite(last_norm):
                # nan > clip is False, so clipping alone would let it through
                raise NumericError(f"non-finite gradient norm in epoch {epoch}")
            optimizer.step(params)
            nll_sum += ce_value * batch.targets.size
            token_sum += batch.targets.size
        train_nll = nll_sum / token_sum
        valid_nll, valid_ppl = evaluate(model, valid_ids)
        stats = EpochStats(epoch, train_nll, float(np.exp(train_nll)),
                           valid_nll, valid_ppl, optimizer.lr, last_norm)
        history.append(stats)
        if epoch_callback:
            epoch_callback(stats)
        if cfg.optimizer == "sgd":
            if valid_ppl >= best_valid:
                optimizer.lr *= 0.5
        best_valid = min(best_valid, valid_ppl)
    return history


def _stack_input_windows(model: TTLstmModel, ids: np.ndarray,
                         max_windows: int | None = None):
    """Yield, window by window, the rows W_x and W_h multiply during the
    untaped walk of ``model`` over the stream, at most ``max_windows``
    windows of it: ``(x_rows, h_rows)``, the first batch-major and the
    second time-major."""
    for batch, (h, _), out in itertools.islice(_untaped_windows(model, ids), max_windows):
        x_rows = model.embed.value[batch.inputs.reshape(-1)]
        # W_h multiplies the state entering each step: the carried state,
        # then every step's output but the last
        yield x_rows, np.concatenate([h[None], out.hs.value[:-1]]).reshape(-1, h.shape[1])


def stack_covariances(model: TTLstmModel, ids: np.ndarray):
    """``(s_x, s_h)``: the covariance arrays (``E x E`` and ``H x H``) of the
    vectors ``model``'s W_x and W_h multiply over the stream ``ids``, the
    teacher pass of ``kda`` distillation, merged window by window so that
    memory does not grow with the stream."""
    covs = None
    for rows in _stack_input_windows(model, ids):
        window = [accumulate_covariance(r) for r in rows]
        covs = window if covs is None else [a.merge(b) for a, b in zip(covs, window)]
    return covs[0].matrix, covs[1].matrix


def collect_stack_inputs(model: TTLstmModel, ids: np.ndarray,
                         max_windows: int | None = None):
    """Gather the vectors each gate stack multiplies during a forward pass
    of ``model`` over the stream: embedded inputs (for W_x), batch-major
    within each window, and the hidden states entering each step (for
    W_h), time-major within each window. The stream is walked as
    :func:`evaluate` walks it, one ``forward_lm`` per window with the state
    carried, with no output projection, and no window past ``max_windows``
    runs."""
    if max_windows is not None and max_windows < 1:
        raise DomainError(f"max_windows must be at least 1, got {max_windows}")
    xs, hs = zip(*_stack_input_windows(model, ids, max_windows))
    return np.concatenate(xs, axis=0), np.concatenate(hs, axis=0)
