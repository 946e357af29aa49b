"""Minimal tape-based reverse-mode differentiation over numpy arrays.

A :class:`Tape` records every operation of one forward pass; ``backward``
pops the records, last first, accumulating vector-Jacobian products into
``Var.grad`` and dropping each record once its pulls have run, so forward
arrays and intermediate gradients are freed as it goes and the tape is
consumed. Every op also works with ``tape=None``, which computes values
without recording (the inference path). ``lstm_scan`` records a whole
LSTM recurrence as one record.

A tape is single-owner: do not share one across concurrent forward passes.
Independent tapes may run in parallel.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ShapeError, StateError, VocabError

__all__ = [
    "Var", "Parameter", "Tape", "backward", "grad_check",
    "add", "sub", "mul", "matmul", "linear", "reshape", "transpose",
    "gather_rows", "lstm_scan",
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

    __slots__ = ("_records",)

    def __init__(self):
        # each record: (output Var, [(input Var, pull(grad) -> grad), ...])
        self._records: list[tuple[Var, list]] = []

    def record(self, out: Var, pulls: list):
        self._records.append((out, pulls))

    def __len__(self):
        return len(self._records)


def backward(tape: Tape, loss: Var, seed: float = 1.0):
    """Populate grads of everything ``loss`` depends on through ``tape``.

    Pops each record exactly once, last first, and drops it once its pulls
    have run, so the tape is empty afterwards; a second call raises
    :class:`StateError`.
    """
    if tape is None or len(tape) == 0:
        raise StateError("backward on an empty tape: nothing was recorded, "
                         "or a backward already consumed it")
    if loss.value.size != 1:
        raise ShapeError("backward seeds a scalar loss")
    loss.grad = np.full_like(loss.value, float(seed))
    records = tape._records
    while records:
        out, pulls = records.pop()
        g = out.grad
        if g is None:
            continue
        for var, pull in pulls:
            contrib = pull(g)
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


def scale(tape, a, c: float) -> Var:
    av = _val(a)
    c = float(c)
    return _emit(tape, av * c, [(a, lambda g: g * c)])


def reduce_sum(tape, a) -> Var:
    av = _val(a)
    return _emit(tape, av.sum(), [(a, lambda g: np.full_like(av, float(g)))])


def _standardize(xv: np.ndarray, eps: float):
    """``(xhat, inv_sd)`` of ``xv`` over its last axis (population variance)."""
    centered = xv - xv.mean(axis=-1, keepdims=True)
    inv_sd = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    return centered * inv_sd, inv_sd


def _standardize_adjoint(gg: np.ndarray, xhat: np.ndarray, inv_sd: np.ndarray) -> np.ndarray:
    """Input gradient of :func:`_standardize` given the gradient ``gg`` of ``xhat``."""
    return (gg - gg.mean(axis=-1, keepdims=True)
            - xhat * (gg * xhat).mean(axis=-1, keepdims=True)) * inv_sd


def layer_norm(tape, x, gain, bias, eps: float = 1e-5) -> Var:
    """Standardize over the last axis (population variance), then apply
    ``gain * xhat + bias``. ``gain``/``bias`` must broadcast against ``x``."""
    xv, gv, bv = _val(x), _val(gain), _val(bias)
    xhat, inv_sd = _standardize(xv, eps)
    return _emit(tape, gv * xhat + bv, [
        (x, lambda g: _standardize_adjoint(g * gv, xhat, inv_sd)),
        (gain, lambda g: _unbroadcast(g * xhat, gv.shape)),
        (bias, lambda g: _unbroadcast(g, bv.shape)),
    ])


def lstm_scan(tape, ax, weights, gain, bias, gate_bias, h0, c0, eps: float = 1e-5):
    """A layer-normalized LSTM recurrence over a window, as one record.

    ``ax`` is the ``(T, batch, 4H)`` normalized input term. Step ``t``
    forms ``ah = LN(h w_0 w_1 ...)`` per gate block of length H (``gain``,
    ``bias``), then ``pre = (ax_t + ah) + gate_bias``, and on its (i, f,
    g, o) blocks ``c' = sigmoid(f) c + sigmoid(i) tanh(g)``, ``h' =
    sigmoid(o) tanh(c')``. Returns the ``(T, batch, H)`` hidden states as
    a Var and the last cell state as a plain array. The adjoint runs only
    the input-gradient chain step by step (cell, layer-norm input adjoint,
    ``d w^T`` per weight); each weight gradient is then one ``(T batch,
    d_in)^T @ (T batch, d_out)`` product, and ``gain``, ``bias`` and
    ``gate_bias`` one reduction each.
    """
    axv, gv, bv, gbv = _val(ax), _val(gain), _val(bias), _val(gate_bias)
    ws, h, c = [_val(w) for w in weights], _val(h0), _val(c0)
    steps, batch, width = axv.shape
    hidden = width // 4
    if width % 4 or h.shape != (batch, hidden) or c.shape != h.shape:
        raise ShapeError(f"state {h.shape}/{c.shape} does not match gates {axv.shape}")
    keep = tape is not None
    blocks = (batch, 4, hidden)
    hs = np.empty((steps, batch, hidden))
    xhats = np.empty((steps,) + blocks) if keep else None
    ins, saved = [[] for _ in ws], []          # per weight: the rows it multiplied
    for t in range(steps):
        a = h
        for k, w in enumerate(ws):
            if keep:
                ins[k].append(a)
            a = a @ w
        xhat, inv_sd = _standardize(a.reshape(blocks), eps)
        pre = (axv[t] + (gv * xhat + bv).reshape(batch, width)) + gbv
        si = 1.0 / (1.0 + np.exp(-pre[:, :hidden]))
        sf = 1.0 / (1.0 + np.exp(-pre[:, hidden:2 * hidden]))
        tg = np.tanh(pre[:, 2 * hidden:3 * hidden])
        so = 1.0 / (1.0 + np.exp(-pre[:, 3 * hidden:]))
        c_prev, c = c, sf * c + si * tg
        tc = np.tanh(c)
        hs[t] = so * tc
        h = hs[t]
        if keep:
            xhats[t] = xhat
            saved.append((si, sf, tg, so, tc, c_prev, inv_sd))

    def adjoint(g):
        d_pre = np.empty_like(axv)
        d_outs = [np.empty((steps, batch, w.shape[1])) for w in ws]
        dh, dc = np.zeros((batch, hidden)), np.zeros((batch, hidden))
        for t in reversed(range(steps)):
            si, sf, tg, so, tc, c_prev, inv_sd = saved.pop()
            gh = g[t] + dh
            dc = dc + gh * so * (1.0 - tc * tc)
            d = d_pre[t]
            d[:, :hidden] = dc * tg * si * (1.0 - si)
            d[:, hidden:2 * hidden] = dc * c_prev * sf * (1.0 - sf)
            d[:, 2 * hidden:3 * hidden] = dc * si * (1.0 - tg * tg)
            d[:, 3 * hidden:] = gh * tc * so * (1.0 - so)
            dc = dc * sf
            dh = _standardize_adjoint(d.reshape(blocks) * gv, xhats[t], inv_sd)
            dh = dh.reshape(batch, width)
            for k in reversed(range(len(ws))):
                d_outs[k][t] = dh
                dh = dh @ ws[k].T
        d_norm = d_pre.reshape(xhats.shape)
        grads = {"ax": d_pre, "gain": _unbroadcast(d_norm * xhats, gv.shape),
                 "bias": _unbroadcast(d_norm, bv.shape),
                 "gate_bias": _unbroadcast(d_pre, gbv.shape), "h0": dh, "c0": dc}
        for k in range(len(ws)):    # (T batch, d_in)^T @ (T batch, d_out)
            grads[k] = np.tensordot(np.stack(ins[k]), d_outs[k], ([0, 1], [0, 1]))
        return grads

    grads = {}
    def pull(key):
        def run(g):
            if not grads:
                grads.update(adjoint(g))
            return grads.pop(key)
        return run

    out = _emit(tape, hs, [(ax, pull("ax")), (gain, pull("gain")), (bias, pull("bias")),
                           (gate_bias, pull("gate_bias")), (h0, pull("h0")), (c0, pull("c0"))]
                + [(w, pull(k)) for k, w in enumerate(weights)])
    return out, c


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
