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

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tape
from .data import make_batches
from .distill import (DistillConfig, KdTarget, TeacherWeights, accumulate_covariance,
                      factored_kd_penalty, kd_penalty, total_loss)
from .errors import ConfigError, NumericError
from .nn import TTLinear, TTLstmModel, _recurrence, forward_lm, sequence_nll

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
        if self.epochs < 1 or self.lr <= 0 or self.clip <= 0:
            raise ConfigError("epochs, lr and clip must be positive")


class _Sgd:
    """``p.value -= lr * p.grad``, a row block at a time (``autograd``'s
    blocks of at most 256 KiB), with ``lr * p.grad`` formed in one scratch
    buffer that every block reuses: bitwise the plain update, with no
    full-size temporary per parameter and the scratch in cache."""

    def __init__(self, cfg: TrainConfig):
        self.lr = cfg.lr

    def step(self, params):
        work = [(p.value, p.grad, ag._row_blocks(p.grad.shape))
                for p in params if p.grad is not None]
        scratch = np.empty(max((g[blocks[0]].size for _, g, blocks in work), default=0))
        for value, g, blocks in work:
            for rows in blocks:
                gb = g[rows]
                value[rows] -= np.multiply(self.lr, gb, out=scratch[:gb.size].reshape(gb.shape))


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
    """Scale all grads so their global 2-norm is at most ``clip``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.vdot(p.grad, p.grad))
    norm = math.sqrt(total)
    if norm > clip:
        factor = clip / norm
        for p in params:
            if p.grad is not None:
                # out-of-place: a grad may share storage with an upstream
                # gradient buffer through view-returning adjoints
                p.grad = p.grad * factor
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


def evaluate(model: TTLstmModel, ids: np.ndarray):
    """Token-mean NLL and perplexity over the stream in the model's own
    batch and unroll, stateful across windows. Remainder tokens beyond the
    lane layout are dropped."""
    stream = make_batches(ids, model.arch.batch_size, model.arch.unroll)
    state = None
    total_nll = 0.0
    total_tokens = 0
    for batch in stream:
        out = forward_lm(model, batch.inputs, tape=None, state=state)
        state = out.state
        nll = float(sequence_nll(None, out, batch.targets).value)
        total_nll += nll * batch.targets.size
        total_tokens += batch.targets.size
    nll = total_nll / total_tokens
    return nll, float(np.exp(nll))


def _stack_penalty(stack: TTLinear, teacher_w: np.ndarray, cov, lam: float):
    """``(tape, factors) -> penalty Var`` for one gate stack, on the factor
    list ``forward_lm`` built for the window: the factored penalty on an MPS
    pair ``[F, G^T]`` from a :class:`KdTarget` built here once per call
    (``W*`` itself, ``S`` and ``Tr[W* S W*^T]``; no ``N x M`` copy),
    ``kd_penalty`` on a dense or MPO stack's one factor ``[W]``."""
    if stack.kind == "mps":
        target = KdTarget.build(teacher_w, cov)
        return lambda tape, factors: factored_kd_penalty(tape, target, *factors, lam)
    return lambda tape, factors: kd_penalty(tape, teacher_w, factors[0], lam, cov)


def _window_loss(model, tape, batch, penalties, state):
    out = forward_lm(model, batch.inputs, tape, state=state)
    ce = sequence_nll(tape, out, batch.targets)
    penalty = None
    if penalties:
        penalty = ag.add(tape, *(pen(tape, f) for pen, f in zip(penalties, out.factors)))
    return total_loss(tape, ce, penalty), float(ce.value), out.state


def train_model(model: TTLstmModel, train_ids: np.ndarray, valid_ids: np.ndarray,
                cfg: TrainConfig, teacher: TeacherWeights | None = None,
                cov_x=None, cov_h=None, epoch_callback=None) -> list[EpochStats]:
    """Train in place and return per-epoch statistics.

    ``teacher`` enables the distillation penalty configured in
    ``cfg.distill``; ``cov_x``/``cov_h`` supply the activation covariance
    arrays for ``kda`` mode (:func:`stack_covariances`), ``E x E`` and
    ``H x H`` (else :class:`ConfigError`).
    The penalty reads the window's factors from ``forward_lm``: the factored
    form on an MPS pair, ``kd_penalty`` on a dense or MPO ``[W]`` (:mod:`distill`).
    ``epoch_callback`` receives the :class:`EpochStats` of each completed
    epoch. A stream of either split shorter than one window raises
    :class:`DomainError` before any window runs. A non-finite loss or
    gradient norm raises :class:`NumericError` in the window where it
    appears, and the failing epoch is never reported.
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
    penalties = None
    if distill.active:
        sx, sh = (cov_x, cov_h) if kda else (None, None)
        penalties = (_stack_penalty(model.wx, teacher.wx, sx, distill.lam),
                     _stack_penalty(model.wh, teacher.wh, sh, distill.lam))
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
            loss, ce_value, state = _window_loss(model, tape, batch, penalties, state)
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
    """Yield, window by window, the rows W_x and W_h multiply during a
    forward pass of ``model`` over the stream: ``(x_rows, h_rows)``."""
    arch = model.arch
    stream = make_batches(ids, arch.batch_size, arch.unroll)
    state = (np.zeros((arch.batch_size, arch.hidden_dim)),
             np.zeros((arch.batch_size, arch.hidden_dim)))
    for w, batch in enumerate(stream):
        if max_windows is not None and w >= max_windows:
            break
        x_rows = model.embed.value[batch.inputs.reshape(-1)]
        out, c, _ = _recurrence(model, batch.inputs, None, state)
        seq = out.value                                      # (T, batch, H)
        # W_h multiplies the state entering each step: the carried state,
        # then every step's output but the last; rows time-major
        h_rows = np.concatenate([state[0][None], seq[:-1]]).reshape(-1, arch.hidden_dim)
        state = (seq[-1], c)
        yield x_rows, h_rows


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
    of ``model`` over the stream: embedded inputs (for W_x) and the hidden
    states entering each step (for W_h). Each window runs the stateful
    recurrence of ``forward_lm`` without its output projection."""
    xs, hs = zip(*_stack_input_windows(model, ids, max_windows))
    return np.concatenate(xs, axis=0), np.concatenate(hs, axis=0)
