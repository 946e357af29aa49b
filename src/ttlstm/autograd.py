"""Minimal tape-based reverse-mode differentiation over numpy arrays.

A :class:`Tape` records every operation of one forward pass; ``backward``
walks the records once, in reverse order, accumulating vector-Jacobian
products into ``Var.grad``. Every op also works with ``tape=None``, which
computes values without recording (the inference path).

A tape is single-owner: do not share one across concurrent forward passes.
Independent tapes may run in parallel.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ShapeError, StateError, VocabError

__all__ = [
    "Var", "Parameter", "Tape", "backward", "grad_check",
    "add", "sub", "mul", "matmul", "linear", "reshape", "transpose",
    "gather_rows", "select", "stack", "lstm_cell",
    "scale", "reduce_sum", "layer_norm", "cross_entropy",
]


class Var:
    """A float64 array plus a gradient slot."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value, name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Var{tag}(shape={self.value.shape})"


class Parameter(Var):
    """A named trainable leaf."""

    def __init__(self, value, name: str):
        super().__init__(value, name)


class Tape:
    """Operation record of a single forward pass."""

    __slots__ = ("_records", "_owned_grads")

    def __init__(self):
        # each record: (output Var, [(input Var, pull(grad) -> grad), ...]);
        # a pull that accumulated in place itself returns None
        self._records: list[tuple[Var, list]] = []
        # id(Var) -> the gradient buffer an in-place adjoint allocated for it
        self._owned_grads: dict[int, np.ndarray] = {}

    def record(self, out: Var, pulls: list):
        self._records.append((out, pulls))

    def __len__(self):
        return len(self._records)


def backward(tape: Tape, loss: Var, seed: float = 1.0):
    """Populate grads of everything ``loss`` depends on through ``tape``.

    Visits each record exactly once, in reverse record order.
    """
    if tape is None or len(tape) == 0:
        raise StateError("backward called before any recorded forward")
    if loss.value.size != 1:
        raise ShapeError("backward seeds a scalar loss")
    loss.grad = np.full_like(loss.value, float(seed))
    for out, pulls in reversed(tape._records):
        g = out.grad
        if g is None:
            continue
        for var, pull in pulls:
            contrib = pull(g)
            if contrib is not None:
                var.grad = contrib if var.grad is None else var.grad + contrib


def _val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _emit(tape: Tape | None, value: np.ndarray, pulls: list) -> Var:
    out = Var(value)
    if tape is not None:
        tape.record(out, [(v, p) for v, p in pulls if isinstance(v, Var)])
    return out


def add(tape, a, b) -> Var:
    av, bv = _val(a), _val(b)
    return _emit(tape, av + bv, [
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    ])


def sub(tape, a, b) -> Var:
    av, bv = _val(a), _val(b)
    return _emit(tape, av - bv, [
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(-g, bv.shape)),
    ])


def mul(tape, a, b) -> Var:
    av, bv = _val(a), _val(b)
    return _emit(tape, av * bv, [
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    ])


def _check_matmul(av: np.ndarray, bv: np.ndarray):
    if av.ndim != 2 or bv.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {av.ndim}-D and {bv.ndim}-D")
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {av.shape} @ {bv.shape}")


def matmul(tape, a, b) -> Var:
    av, bv = _val(a), _val(b)
    _check_matmul(av, bv)
    return _emit(tape, av @ bv, [
        (a, lambda g: g @ bv.T),
        (b, lambda g: av.T @ g),
    ])


def linear(tape, x, w, b) -> Var:
    """``x @ w + b``; the same values as ``add(matmul(x, w), b)``, with the
    bias added in place so the product is the only output array."""
    xv, wv, bv = _val(x), _val(w), _val(b)
    _check_matmul(xv, wv)
    out = xv @ wv
    out += bv
    return _emit(tape, out, [
        (x, lambda g: g @ wv.T),
        (w, lambda g: xv.T @ g),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    ])


def reshape(tape, a, shape) -> Var:
    av = _val(a)
    shape = tuple(int(s) for s in shape)
    return _emit(tape, av.reshape(shape), [(a, lambda g: g.reshape(av.shape))])


def transpose(tape, a, axes=None) -> Var:
    av = _val(a)
    if axes is None:
        axes = tuple(range(av.ndim))[::-1]
    axes = tuple(int(x) for x in axes)
    inverse = tuple(np.argsort(axes))
    return _emit(tape, av.transpose(axes), [(a, lambda g: g.transpose(inverse))])


def gather_rows(tape, table, ids) -> Var:
    """Row lookup ``table[ids]``; gradients scatter-add back."""
    tv = _val(table)
    ids = np.asarray(ids)

    def pull(g):
        z = np.zeros_like(tv)
        np.add.at(z, ids, g)
        return z

    return _emit(tape, tv[ids], [(table, pull)])


def select(tape, a, index: int) -> Var:
    """Leading-axis slice ``a[index]``.

    The adjoint accumulates in place into one gradient buffer per source,
    allocated on the first pull of a backward pass, so slicing a
    ``(T, ...)`` Var T times costs one full-size buffer, not one per step.
    The buffer is only written while it is still ``a.grad``; if another
    consumer has replaced or set the gradient, a fresh buffer takes it
    over, so storage shared with other adjoints is never written.
    """
    av = _val(a)
    index = int(index)
    if tape is None:
        return Var(av[index])
    owned = tape._owned_grads

    def pull(g):
        buf = owned.get(id(a))
        if buf is None or a.grad is not buf:
            buf = np.zeros_like(av) if a.grad is None else np.array(a.grad)
            owned[id(a)] = buf
            a.grad = buf
        buf[index] += g

    return _emit(tape, av[index], [(a, pull)])


def stack(tape, parts, axis: int = 0) -> Var:
    """Stack equal-shape Vars along a new ``axis``."""
    vals = [_val(p) for p in parts]
    out = np.stack(vals, axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    return _emit(tape, out, [(p, lambda g, k=k: g[lead + (k,)]) for k, p in enumerate(parts)])


def lstm_cell(tape, gates, c):
    """Fused LSTM cell: ``(h', c')`` from pre-activations ``gates``
    ``(batch, 4H)`` in (i, f, g, o) block order and cell state ``c``.

    ``c' = sigmoid(f) c + sigmoid(i) tanh(g)`` and
    ``h' = sigmoid(o) tanh(c')``, elementwise in that order. Records two
    records, ``c'`` and then ``h'``, with hand-written adjoints.
    """
    gv, cv = _val(gates), _val(c)
    hidden = cv.shape[-1]
    if gv.ndim != 2 or gv.shape != (cv.shape[0], 4 * hidden):
        raise ShapeError(f"gates {gv.shape} do not match cell state {cv.shape}")
    blocks = [gv[:, k * hidden:(k + 1) * hidden] for k in range(4)]
    si = 1.0 / (1.0 + np.exp(-blocks[0]))
    sf = 1.0 / (1.0 + np.exp(-blocks[1]))
    tg = np.tanh(blocks[2])
    so = 1.0 / (1.0 + np.exp(-blocks[3]))
    c_new = sf * cv + si * tg
    tc = np.tanh(c_new)

    def pull_ifg(g):
        d = np.empty_like(gv)
        d[:, :hidden] = g * tg * si * (1.0 - si)
        d[:, hidden:2 * hidden] = g * cv * sf * (1.0 - sf)
        d[:, 2 * hidden:3 * hidden] = g * si * (1.0 - tg * tg)
        d[:, 3 * hidden:] = 0.0
        return d

    def pull_o(g):
        d = np.zeros_like(gv)
        d[:, 3 * hidden:] = g * tc * so * (1.0 - so)
        return d

    c_var = _emit(tape, c_new, [(gates, pull_ifg), (c, lambda g: g * sf)])
    h_var = _emit(tape, so * tc, [(gates, pull_o), (c_var, lambda g: g * so * (1.0 - tc * tc))])
    return h_var, c_var


def scale(tape, a, c: float) -> Var:
    av = _val(a)
    c = float(c)
    return _emit(tape, av * c, [(a, lambda g: g * c)])


def reduce_sum(tape, a) -> Var:
    av = _val(a)
    return _emit(tape, av.sum(), [(a, lambda g: np.full_like(av, float(g)))])


def layer_norm(tape, x, gain, bias, eps: float = 1e-5) -> Var:
    """Standardize over the last axis (population variance), then apply
    ``gain * xhat + bias``. ``gain``/``bias`` must broadcast against ``x``."""
    xv, gv, bv = _val(x), _val(gain), _val(bias)
    mu = xv.mean(axis=-1, keepdims=True)
    centered = xv - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_sd = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_sd
    out = gv * xhat + bv

    def pull_x(g):
        gg = g * gv
        return (gg - gg.mean(axis=-1, keepdims=True)
                - xhat * (gg * xhat).mean(axis=-1, keepdims=True)) * inv_sd

    return _emit(tape, out, [
        (x, pull_x),
        (gain, lambda g: _unbroadcast(g * xhat, gv.shape)),
        (bias, lambda g: _unbroadcast(g, bv.shape)),
    ])


def cross_entropy(tape, logits, targets) -> Var:
    """Token-mean negative log-likelihood of integer ``targets`` under a
    softmax over the last axis of 2-D ``logits``: the package's one
    softmax-NLL. Only the row maxima and log-normalizers outlive the
    forward; the adjoint recomputes the softmax from them."""
    lv = _val(logits)
    targets = np.asarray(targets).reshape(-1)
    if lv.ndim != 2 or targets.shape[0] != lv.shape[0]:
        raise ShapeError(f"logits {lv.shape} incompatible with {targets.shape[0]} targets")
    if targets.min() < 0 or targets.max() >= lv.shape[1]:
        raise VocabError(f"target ids must lie in [0, {lv.shape[1]}), "
                         f"got range [{targets.min()}, {targets.max()}]")
    if not np.all(np.isfinite(lv)):
        raise NumericError("non-finite logits")
    rows = np.arange(lv.shape[0])
    row_max = lv.max(axis=1, keepdims=True)
    shifted = lv - row_max
    picked = shifted[rows, targets]
    log_z = np.log(np.exp(shifted, out=shifted).sum(axis=1, keepdims=True))
    nll = (log_z[:, 0] - picked).mean()

    def pull(g):
        grad = lv - row_max
        grad -= log_z
        np.exp(grad, out=grad)
        grad[rows, targets] -= 1.0
        grad *= float(g) / lv.shape[0]
        return grad

    return _emit(tape, np.float64(nll), [(logits, pull)])


def grad_check(params: list[Var], build_loss, h: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``build_loss(tape)`` must rebuild the forward pass from the current
    parameter values and return the scalar loss Var; it is called with a
    fresh tape for the analytic pass and with ``tape=None`` for the
    finite-difference evaluations. Relative error uses the central
    difference as reference with an absolute floor of 1e-8.
    """
    total = sum(p.value.size for p in params)
    if total > 10_000:
        raise DomainError(f"grad_check caps at 1e4 parameters, got {total}")
    tape = Tape()
    loss = build_loss(tape)
    if not np.isfinite(loss.value):
        raise NumericError("non-finite loss in grad_check")
    for p in params:
        p.grad = None
    backward(tape, loss)
    analytic = [np.zeros_like(p.value) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = ga.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = float(build_loss(None).value)
            flat[k] = orig - h
            down = float(build_loss(None).value)
            flat[k] = orig
            numeric = (up - down) / (2.0 * h)
            if not np.isfinite(numeric):
                raise NumericError("non-finite finite-difference value")
            rel = abs(gflat[k] - numeric) / max(1e-8, abs(numeric))
            worst = max(worst, rel)
    return worst
