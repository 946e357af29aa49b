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

Gate order in the stacked rows is fixed as (i, f, g, o): input, forget,
cell candidate, output. Layer normalization is applied separately to the
``W_x x`` and ``W_h h`` pre-activations, per gate block of length H, each
with its own gain and bias and the fixed variance floor ``LN_EPS``; the
cell state is not normalized. The output projection is a dense, untied
H x V matrix.

``forward_lm`` runs at sequence level: only what depends on ``h`` stays
in the time loop. It builds each stack's factor list once and returns
both, for training's distillation penalty to read. The window's
embeddings are gathered once in time-major order, ``W_x`` and its layer
norm run once over all ``T * batch`` rows, and the output projection
runs once over the stacked hidden states. The recurrence is one
``autograd.lstm_scan`` record: each step is ``W_h h`` (``h`` times the
transposed factors), its layer norm, ``(ax_t + ah) + gate_bias`` and the
cell. That add order is kept on purpose: folding the bias into the
hoisted rows first changes the rounding, and over a long stateful stream
the evaluation NLL drifts off its recorded references.

There is one softmax, ``autograd.cross_entropy``: ``sequence_nll`` and
``cross_entropy_perplexity`` both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tape, Var
from .errors import ConfigError, ShapeError, VocabError
from .ttrain import (
    InitScheme,
    MpoTrain,
    MpsTrain,
    ShapeFactorization,
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
LN_EPS = 1e-5


@dataclass
class LayerNormParams:
    """Learned gain and bias for per-block standardization; the variance
    floor is ``LN_EPS``."""

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
        """One-time per-forward-pass setup; returns ``apply(x) -> Var`` for
        batch-first inputs of shape ``(batch, in_dim)``.

        ``apply`` multiplies ``x`` by the transposed factors as ``forward_lm``
        does, so an MPS call is ``(x G) F^T`` and costs ``mid_rank * (batch in
        + batch out)`` multiply-adds, and an MPO matrix is reconstructed here
        once. Only ``perfbench`` calls it, to time the stacks.
        """
        transposed = _transposed(tape, self.factors(tape))

        def apply(x: Var) -> Var:
            for t in transposed:
                x = ag.matmul(tape, x, t)
            return x

        return apply


def _transposed(tape, factors: list[Var]) -> list[Var]:
    """The transposes of a :meth:`TTLinear.factors` list, last factor
    first: what a batch-first ``x`` is multiplied by, ``[G, F^T]`` for MPS
    and ``[W^T]`` for dense and MPO."""
    return [ag.transpose(tape, f) for f in reversed(factors)]


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

    @property
    def hidden_dim(self) -> int:
        return self.arch.hidden_dim

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


def build_model(arch: ModelArch, seed: int = 0) -> TTLstmModel:
    """Allocate and initialize a model; bitwise deterministic per seed.

    Parameter creation order is fixed: embedding, W_x, W_h, gate bias,
    layer-norm parameters, output projection. The forget-gate bias block
    starts at 1.0; all other biases start at zero.
    """
    rng = np.random.default_rng(seed)
    v, e, h = arch.vocab_size, arch.embed_dim, arch.hidden_dim
    embed = Parameter(rng.uniform(-0.1, 0.1, size=(v, e)), "embedding")
    wx = _stack_linear(arch, arch.wx_fact(), "wx", rng)
    wh = _stack_linear(arch, arch.wh_fact(), "wh", rng)
    gate_bias = np.zeros(4 * h)
    gate_bias[h:2 * h] = 1.0    # forget gate block
    ln_x = LayerNormParams(Parameter(np.ones((4, h)), "ln_x.gain"),
                           Parameter(np.zeros((4, h)), "ln_x.bias"))
    ln_h = LayerNormParams(Parameter(np.ones((4, h)), "ln_h.gain"),
                           Parameter(np.zeros((4, h)), "ln_h.bias"))
    proj_w = Parameter(rng.uniform(-0.1, 0.1, size=(h, v)), "proj.weight")
    proj_b = Parameter(np.zeros(v), "proj.bias")
    return TTLstmModel(arch, embed, wx, wh, Parameter(gate_bias, "gate_bias"),
                       ln_x, ln_h, proj_w, proj_b, seed=seed)


def _block_norm(tape, pre: Var, ln: LayerNormParams) -> Var:
    rows, width = pre.shape
    blocks = ag.reshape(tape, pre, (rows, 4, width // 4))
    normed = ag.layer_norm(tape, blocks, ln.gain, ln.bias, LN_EPS)
    return ag.reshape(tape, normed, (rows, width))


@dataclass
class ForwardResult:
    logits: np.ndarray                       # (batch, T, V), a view of logit_rows
    logit_rows: Var                          # (batch * T, V), batch-major rows
    hidden: np.ndarray                       # (batch, T, H), h after each step
    state: tuple[np.ndarray, np.ndarray]     # detached (h, c)
    factors: tuple[list[Var], list[Var]]     # W_x's and W_h's TTLinear.factors


def forward_lm(model: TTLstmModel, tokens: np.ndarray, tape: Tape | None = None,
               state: tuple[np.ndarray, np.ndarray] | None = None) -> ForwardResult:
    """Unroll the cell over a ``(batch, T)`` token window.

    Only the recurrence runs per step. Each stack's factors, the embedding
    gather, ``W_x`` and its layer norm run once before the loop, the
    output projection once after it. The initial state is zero unless a
    carried ``state`` is supplied; the returned state is detached, so
    gradients never cross window boundaries.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"token batch must be 2-D, got shape {tokens.shape}")
    if tokens.min() < 0 or tokens.max() >= model.vocab_size:
        raise VocabError(
            f"token ids must lie in [0, {model.vocab_size}), "
            f"got range [{tokens.min()}, {tokens.max()}]")
    batch, steps = tokens.shape
    hidden = model.arch.hidden_dim
    if state is None:
        state = (np.zeros((batch, hidden)), np.zeros((batch, hidden)))
    wx, wh = model.wx.factors(tape), model.wh.factors(tape)
    ax = ag.gather_rows(tape, model.embed, tokens.T.reshape(-1))   # time-major rows
    for t in _transposed(tape, wx):
        ax = ag.matmul(tape, ax, t)
    ax = _block_norm(tape, ax, model.ln_x)
    ax = ag.reshape(tape, ax, (steps, batch, 4 * hidden))
    ln = model.ln_h
    hs, c = ag.lstm_scan(tape, ax, _transposed(tape, wh), ln.gain, ln.bias,
                         model.gate_bias, *state, LN_EPS)           # (T, batch, H)
    seq = ag.transpose(tape, hs, (1, 0, 2))                         # (batch, T, H)
    rows = ag.reshape(tape, seq, (batch * steps, hidden))
    logit_rows = ag.linear(tape, rows, model.proj_w, model.proj_b)
    logits = logit_rows.value.reshape(batch, steps, -1)
    return ForwardResult(logits, logit_rows, rows.value.reshape(batch, steps, hidden),
                         (hs.value[-1].copy(), c.copy()), (wx, wh))


def sequence_nll(tape, result: ForwardResult, targets: np.ndarray) -> Var:
    """Token-mean negative log-likelihood over all unrolled steps; ``targets``
    must be ``(batch, T)`` like the window (else :class:`ShapeError`)."""
    targets = np.asarray(targets)
    if targets.shape != result.logits.shape[:2]:
        raise ShapeError(f"targets {targets.shape} for a {result.logits.shape[:2]} window")
    return ag.cross_entropy(tape, result.logit_rows, targets.reshape(-1))


def cross_entropy_perplexity(logits: np.ndarray, targets: np.ndarray):
    """Token-mean NLL under a softmax over the last axis, and its exp;
    ``autograd.cross_entropy`` on the logits flattened to rows; ``targets``
    must be ``logits.shape[:-1]`` (else :class:`ShapeError`). Only
    ``perfbench`` calls it."""
    logits, targets = np.asarray(logits, dtype=np.float64), np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"targets {targets.shape} for logits {logits.shape}")
    nll = float(ag.cross_entropy(None, logits.reshape(-1, logits.shape[-1]), targets).value)
    return nll, float(np.exp(nll))
