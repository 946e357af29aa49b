"""Layer-normalized LSTM language model with tensor-train gate stacks.

The four gate matrices acting on the input and the four acting on the
recurrent state are stacked into two matrices ``W_x`` (4H x E) and
``W_h`` (4H x H). Each stack is a :class:`TTLinear`: a kind (dense, MPS
or MPO), a factorization and one ordered parameter list, named only by
its two constructors. An MPS stack is applied through its factor pair and
never materialized; an MPO stack is reconstructed once per forward pass
and cached across timesteps. ``TTLinear.factors`` returns the factors
from ``ttrain``'s one contraction path, the same code ``reconstruct`` and
``contract.build_factor_pair`` run: an MPS chain contracts only as its
factor pair ``[F, G^T]`` (``factor_pair``), so its dense matrix is
``F G^T`` (training's distillation penalty uses the pair itself, see
:mod:`distill`); an MPO chain collapses and unfuses (``dense_matrix``).
A stack's product ``x W^T`` is ``ttrain.apply`` over that list.

Gate order in the stacked rows is fixed as (i, f, g, o): input, forget,
cell candidate, output. Layer normalization is applied separately to the
``W_x x`` and ``W_h h`` pre-activations, per gate block of length H, each
with its own gain and bias and the fixed variance floor
``autograd.LN_EPS``; the cell state is not normalized. The output
projection is a dense, untied H x V matrix.

``forward_lm`` runs at sequence level: only what depends on ``h`` stays
in the time loop. It builds each stack's factor list once and returns
both, for training's distillation penalty to read. The window's
embeddings are gathered once in time-major order, and the recurrence is
one ``autograd.lstm_scan`` record that takes them with both factor lists
unchanged. Inside it ``W_x`` runs once over all ``T * batch`` rows (the
products ``ttrain.apply`` runs: the rows times each factor's transpose,
last factor first), its layer norm (``ln_x``) a block of whole steps at a
time, straight into the gate buffer, and each step is ``W_h h`` (``h``
times the W_h factors' transposes the same way), its layer norm,
``(ax_t + ah) + gate_bias`` and the cell. That
add order is kept on purpose: folding the bias into the hoisted rows
first changes the rounding, and over a long stateful stream the
evaluation NLL drifts off its recorded references.

``forward_lm`` stops at the scan's own time-major ``(T, batch, H)``
hidden states, which the teacher pass of ``kda`` distillation reads as
they are. Only the output layer needs them batch-major, as ``(batch *
T, H)`` rows: ``sequence_nll`` forms those rows (a ``transpose`` and a
``reshape``, on the tape when there is one) and runs the output layer
and its softmax as one ``autograd.linear_cross_entropy`` record, so a
training window never holds the ``(batch * T, V)`` logits and their
gradient at once. Training, ``training.evaluate`` and every command
that scores windows run that record; only ``perfbench``'s eval loop
reads ``ForwardResult.logits`` (the same rows through the output layer,
with no tape) and scores them with ``cross_entropy_perplexity``, which
runs the same softmax-NLL kernel on them without a record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tape, Var
from .errors import ConfigError, ShapeError, VocabError
from .ttrain import (
    InitScheme,
    MpoTrain,
    MpsTrain,
    ShapeFactorization,
    apply,
    balanced_factorization,
    dense_matrix,
    factor_pair,
    new_mpo,
    new_mps,
    reconstruct,
    uniform_mpo_ranks,
    uniform_mps_ranks,
)

__all__ = [
    "GATE_ORDER",
    "LayerNormParams",
    "TTLinear",
    "ModelArch",
    "TTLstmModel",
    "ForwardResult",
    "build_model",
    "forward_lm",
    "sequence_nll",
    "cross_entropy_perplexity",
]

GATE_ORDER = ("i", "f", "g", "o")


@dataclass
class LayerNormParams:
    """Learned gain and bias for per-block standardization; the variance
    floor is ``autograd.LN_EPS``."""

    gain: Var
    bias: Var


class TTLinear:
    """A linear map ``x -> W x``: a kind, a factorization (``None`` for
    dense) and one ordered parameter list, ``[weight]`` for dense, the row
    cores then the column cores for MPS, the cores for MPO."""

    def __init__(self, kind: str, params, fact: ShapeFactorization | None = None):
        if kind not in ("dense", "mps", "mpo"):
            raise ConfigError(f"unknown representation {kind!r}")
        self.kind = kind
        self.params = list(params)
        self.fact = fact
        if kind == "dense":
            self.out_dim, self.in_dim = self.params[0].shape
        else:
            self.out_dim, self.in_dim = fact.n_rows, fact.n_cols

    @classmethod
    def dense(cls, weight: np.ndarray, *, name: str):
        return cls("dense", [Parameter(np.asarray(weight, dtype=np.float64), f"{name}.weight")])

    @classmethod
    def from_train(cls, train: MpsTrain | MpoTrain, *, name: str):
        """The stack over ``train``'s core arrays, taken without copying:
        the stack owns them from then on and training updates them in place."""
        fact = train.fact
        if isinstance(train, MpsTrain):
            kind = "mps"
            names = ([f"{name}.row{k}" for k in range(fact.n)]
                     + [f"{name}.col{k}" for k in range(fact.m)])
        else:
            kind, names = "mpo", [f"{name}.core{k}" for k in range(fact.n)]
        return cls(kind, [Parameter(c, n) for c, n in zip(train.cores, names)], fact)

    def parameters(self) -> list[Parameter]:
        return list(self.params)

    def to_train(self) -> MpsTrain | MpoTrain:
        values = [p.value for p in self.params]
        if self.kind == "mps":
            return MpsTrain(self.fact, values[:self.fact.n], values[self.fact.n:])
        if self.kind == "mpo":
            return MpoTrain(self.fact, values)
        raise ConfigError("dense maps have no train")

    def reconstruct_matrix(self) -> np.ndarray:
        """Dense matrix values (no gradients)."""
        if self.kind == "dense":
            return self.params[0].value.copy()
        return reconstruct(self.to_train())

    def factors(self, tape) -> list[Var]:
        """``[F, G^T]`` for MPS (``ttrain.factor_pair``), ``[W]`` for MPO
        (``ttrain.dense_matrix``) and dense; gradients flow to ``params``."""
        if self.kind == "dense":
            return [self.params[0]]
        if self.kind == "mps":
            return factor_pair(tape, self.params[:self.fact.n], self.params[self.fact.n:])
        return [dense_matrix(tape, self.fact, self.params)]

    def dense_var(self, tape) -> Var:
        """Differentiable dense matrix; gradients flow to the cores. For
        MPS this is ``F @ G^T`` from the factor pair. Only ``perfbench`` calls it."""
        if self.kind == "dense":
            return self.params[0]
        return dense_matrix(tape, self.fact, self.params)

    def prepare(self, tape):
        """Builds :meth:`factors` once (an MPO matrix is reconstructed here)
        and returns ``x -> ttrain.apply(tape, x, factors)`` for batch-first
        ``x``, the product ``forward_lm`` runs. Only ``perfbench`` calls it,
        to time the stacks."""
        factors = self.factors(tape)
        return lambda x: apply(tape, x, factors)


@dataclass(frozen=True)
class ModelArch:
    """Architecture description; everything needed to rebuild a model."""

    vocab_size: int
    embed_dim: int
    hidden_dim: int
    representation: str = "dense"            # dense | mps | mpo
    n_factors: int = 2
    rank: int = 0
    init: str = InitScheme.GAUSSIAN
    unroll: int = 35
    batch_size: int = 20
    wx_row_dims: tuple[int, ...] | None = None
    wx_col_dims: tuple[int, ...] | None = None
    wh_row_dims: tuple[int, ...] | None = None
    wh_col_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        if min(self.vocab_size, self.embed_dim, self.hidden_dim, self.unroll, self.batch_size) < 1:
            raise ConfigError("vocab, embedding, hidden, unroll and batch sizes must be positive")
        if self.representation not in ("dense", "mps", "mpo"):
            raise ConfigError(f"unknown representation {self.representation!r}")
        if self.n_factors < 1:
            raise ConfigError(f"n_factors must be >= 1, got {self.n_factors}")
        if self.representation != "dense" and self.rank < 1:
            raise ConfigError("tensor-train stacks need rank >= 1")
        if self.init not in InitScheme.KINDS:
            raise ConfigError(f"unknown init kind {self.init!r}")
        four_h = 4 * self.hidden_dim
        for key, extent in (("wx_row_dims", four_h), ("wx_col_dims", self.embed_dim),
                            ("wh_row_dims", four_h), ("wh_col_dims", self.hidden_dim)):
            dims = getattr(self, key)
            if dims and (min(dims) < 1 or math.prod(dims) != extent):
                raise ConfigError(f"{key}={dims} must be positive and multiply to {extent}")
        for stack in ("wx", "wh"):
            n, m = (len(getattr(self, f"{stack}_{side}_dims") or ()) or self.n_factors
                    for side in ("row", "col"))
            if self.representation == "mpo" and n != m:     # core k pairs I_k with J_k
                raise ConfigError(f"an mpo stack needs as many row as column factors, "
                                  f"{stack} has {n} and {m}")

    def _fact(self, rows_override, cols_override, out_dim, in_dim) -> ShapeFactorization:
        rows = rows_override or balanced_factorization(out_dim, self.n_factors)
        cols = cols_override or balanced_factorization(in_dim, self.n_factors)
        return ShapeFactorization(tuple(rows), tuple(cols))

    def wx_fact(self) -> ShapeFactorization:
        return self._fact(self.wx_row_dims, self.wx_col_dims,
                          4 * self.hidden_dim, self.embed_dim)

    def wh_fact(self) -> ShapeFactorization:
        return self._fact(self.wh_row_dims, self.wh_col_dims,
                          4 * self.hidden_dim, self.hidden_dim)


@dataclass
class TTLstmModel:
    arch: ModelArch
    embed: Parameter
    wx: TTLinear
    wh: TTLinear
    gate_bias: Parameter
    ln_x: LayerNormParams
    ln_h: LayerNormParams
    proj_w: Parameter
    proj_b: Parameter
    seed: int = 0

    @property
    def vocab_size(self) -> int:
        return self.arch.vocab_size

    def parameters(self) -> list[Parameter]:
        return ([self.embed] + self.wx.parameters() + self.wh.parameters()
                + [self.gate_bias, self.ln_x.gain, self.ln_x.bias,
                   self.ln_h.gain, self.ln_h.bias, self.proj_w, self.proj_b])

    def zero_grads(self):
        for p in self.parameters():
            p.grad = None

    def gate_compression_rate(self) -> float:
        """Dense parameter count of the two gate stacks over the stored one."""
        h, e = self.arch.hidden_dim, self.arch.embed_dim
        return (4 * h * e + 4 * h * h) / sum(p.value.size for p in self.wx.params + self.wh.params)


def _stack_linear(arch: ModelArch, fact: ShapeFactorization, name: str,
                  rng: np.random.Generator) -> TTLinear:
    if arch.representation == "dense":
        bound = 1.0 / np.sqrt(fact.n_cols)
        w = rng.uniform(-bound, bound, size=(fact.n_rows, fact.n_cols))
        return TTLinear.dense(w, name=name)
    seed = int(rng.integers(2 ** 62))
    scheme = InitScheme(arch.init)
    if arch.representation == "mps":
        train = new_mps(fact, *uniform_mps_ranks(fact, arch.rank), scheme, seed)
    else:
        train = new_mpo(fact, uniform_mpo_ranks(fact, arch.rank), scheme, seed)
    return TTLinear.from_train(train, name=name)


def _param_shapes(arch: ModelArch) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter outside the two gate stacks, in file
    order; the stacks' parameters sit between the embedding and the rest."""
    v, e, h = arch.vocab_size, arch.embed_dim, arch.hidden_dim
    return {"embedding": (v, e), "gate_bias": (4 * h,),
            "ln_x.gain": (4, h), "ln_x.bias": (4, h), "ln_h.gain": (4, h), "ln_h.bias": (4, h),
            "proj.weight": (h, v), "proj.bias": (v,)}


def _assemble(arch: ModelArch, arrays: dict[str, np.ndarray], stack, seed: int) -> TTLstmModel:
    """The model over ``arrays`` (taken without copying) and the stacks
    ``stack("wx", fact)`` and ``stack("wh", fact)`` return; each array's
    shape is checked (else :class:`ShapeError`) before either stack is built."""
    shapes = _param_shapes(arch)
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ShapeError(f"{name} declared {arrays[name].shape}, architecture needs {shape}")
    p = {name: Parameter(arrays[name], name) for name in shapes}
    wx, wh = stack("wx", arch.wx_fact()), stack("wh", arch.wh_fact())
    return TTLstmModel(arch, p["embedding"], wx, wh, p["gate_bias"],
                       LayerNormParams(p["ln_x.gain"], p["ln_x.bias"]),
                       LayerNormParams(p["ln_h.gain"], p["ln_h.bias"]),
                       p["proj.weight"], p["proj.bias"], seed=seed)


def build_model(arch: ModelArch, seed: int = 0) -> TTLstmModel:
    """Allocate and initialize a model; bitwise deterministic per seed.

    Random draws run in a fixed order: embedding, W_x, W_h, output
    projection weight. Layer-norm gains start at 1.0, and so does the
    forget-gate bias block; all other biases start at zero.
    """
    rng = np.random.default_rng(seed)
    shapes = _param_shapes(arch)
    arrays = {"embedding": rng.uniform(-0.1, 0.1, size=shapes["embedding"])}
    stacks = {name: _stack_linear(arch, fact, name, rng)
              for name, fact in (("wx", arch.wx_fact()), ("wh", arch.wh_fact()))}
    arrays["proj.weight"] = rng.uniform(-0.1, 0.1, size=shapes["proj.weight"])
    arrays.update({name: np.zeros(shape) for name, shape in shapes.items() if name not in arrays})
    h = arch.hidden_dim
    arrays["gate_bias"][h:2 * h] = 1.0    # forget gate block
    arrays["ln_x.gain"][:] = arrays["ln_h.gain"][:] = 1.0
    return _assemble(arch, arrays, lambda name, fact: stacks[name], seed)


@dataclass
class ForwardResult:
    hs: Var                                  # (T, batch, H) hidden states, the scan's own
    proj: tuple[Var, Var]                    # the output layer's weight and bias
    state: tuple[np.ndarray, np.ndarray]     # detached (h, c)
    factors: tuple[list[Var], list[Var]]     # W_x's and W_h's TTLinear.factors

    def _rows(self, tape) -> Var:
        """The hidden states as the output layer's ``(batch * T, H)``
        batch-major rows: a ``transpose`` and a ``reshape`` on ``tape``."""
        return ag.reshape(tape, ag.transpose(tape, self.hs, (1, 0, 2)), (-1, self.hs.shape[2]))

    @cached_property
    def logits(self) -> np.ndarray:
        """The ``(batch, T, V)`` logits, formed on first read with no tape
        from the output layer's values at that time, then kept: a caller
        that writes into them reads its writes back. Only ``perfbench``
        reads them, for its eval loop and its corruption test."""
        w, b = self.proj
        logits = ag._linear(self._rows(None).value, w.value, b.value)
        return logits.reshape(*self.hs.shape[1::-1], -1)


def forward_lm(model: TTLstmModel, tokens: np.ndarray, tape: Tape | None = None,
               state: tuple[np.ndarray, np.ndarray] | None = None) -> ForwardResult:
    """Unroll the cell over a ``(batch, T)`` token window.

    Only the recurrence runs per step. Each stack's factors, the embedding
    gather and ``W_x`` (inside the scan) run once before the loop. The
    result carries the scan's ``(T, batch, H)`` hidden states as they are;
    :func:`sequence_nll` lays them out batch-major for the output layer,
    which it runs with the softmax as one record.
    The initial state is zero unless a carried ``state`` is supplied (two
    ``(batch, H)`` arrays, else :class:`ShapeError`); the returned state
    is detached, so gradients never cross window boundaries.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"token batch must be 2-D, got shape {tokens.shape}")
    if tokens.size == 0:
        raise ShapeError(f"token batch {tokens.shape} has no steps or no lanes")
    tokens = ag._integer_ids(tokens, "token ids")
    if tokens.min() < 0 or tokens.max() >= model.vocab_size:
        raise VocabError(
            f"token ids must lie in [0, {model.vocab_size}), "
            f"got range [{tokens.min()}, {tokens.max()}]")
    batch, hidden = tokens.shape[0], model.arch.hidden_dim
    if state is None:
        state = (np.zeros((batch, hidden)), np.zeros((batch, hidden)))
    if any(np.shape(s) != (batch, hidden) for s in state):
        raise ShapeError(f"state {[np.shape(s) for s in state]} for {batch} lanes of H = {hidden}")
    wx, wh = model.wx.factors(tape), model.wh.factors(tape)
    ln_x, ln_h = model.ln_x, model.ln_h
    # the time-major embedding rows go straight to the scan, which without a
    # tape drops them once W_x has multiplied them: no name here, and no
    # argument tuple a * call would build, holds them
    hs, c = ag.lstm_scan(tape, ag.gather_rows(tape, model.embed, tokens.T.reshape(-1)),
                         wx, (ln_x.gain, ln_x.bias), wh, (ln_h.gain, ln_h.bias),
                         model.gate_bias, state[0], state[1])
    return ForwardResult(hs, (model.proj_w, model.proj_b), (hs.value[-1].copy(), c.copy()),
                         (wx, wh))


def sequence_nll(tape, result: ForwardResult, targets: np.ndarray) -> Var:
    """Token-mean negative log-likelihood over all unrolled steps: the
    hidden states as batch-major rows (a ``transpose`` and a ``reshape``),
    then the output layer and its softmax as one
    ``autograd.linear_cross_entropy`` record; ``targets`` must be
    ``(batch, T)`` like the window (else :class:`ShapeError`)."""
    targets, window = np.asarray(targets), result.hs.shape[1::-1]
    if targets.shape != window:
        raise ShapeError(f"targets {targets.shape} for a {window} window")
    return ag.linear_cross_entropy(tape, result._rows(tape), *result.proj, targets.reshape(-1))


def cross_entropy_perplexity(logits: np.ndarray, targets: np.ndarray):
    """Token-mean NLL under a softmax over the last axis, and its exp: the
    softmax-NLL kernel of ``autograd.linear_cross_entropy`` on the logits
    flattened to rows, with no record; ``targets`` must be
    ``logits.shape[:-1]`` (else :class:`ShapeError`). Only ``perfbench``
    calls it, for its eval loop and its corruption test."""
    logits, targets = np.asarray(logits, dtype=np.float64), np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets {targets.shape} for logits {logits.shape}")
    *_, nll = ag._softmax_nll(logits.reshape(-1, logits.shape[-1]), targets)
    return float(nll), float(np.exp(nll))
