"""Minimal tape-based reverse-mode differentiation over numpy arrays.

A :class:`Tape` records every operation of one forward pass; ``backward``
pops the records, last first, accumulating vector-Jacobian products into
``Var.grad`` and dropping each record once its pulls have run, so forward
arrays and intermediate gradients are freed as it goes and the tape is
consumed. Every op also works with ``tape=None``, which computes values
without recording (the inference path). ``lstm_scan`` records a whole
LSTM recurrence, its input product included, as one record, and
``linear_cross_entropy`` the output layer with its softmax-NLL. The scan
takes each gate stack's factor list as ``TTLinear.factors`` builds it,
``[F, G^T]`` or ``[W]``, and multiplies by the ``.T`` views of its
arrays, so a window records no transpose of them.

The tape holds each Var's gradient slot, not the Var, and a pull that
needs only an input's shape keeps the shape: an intermediate array that
no adjoint reads (the product ``reduce_sum`` sums, say) is freed as soon
as its caller drops it. ``gather_rows``'s pull scatter-adds with one
fancy-index add per duplicate rank of the ids, each row's additions in
``np.add.at``'s order, so its bits are ``np.add.at``'s.

The elementwise kernels keep their working set in cache. The softmax-NLL
(forward and adjoint) and the ``W_x`` layer norm inside ``lstm_scan``
walk axis 0 in blocks of at most ``ROW_BLOCK_BYTES`` (256 KiB) with one
block of scratch; their reductions run along the last axis, row by row,
so blocking leaves every value bitwise unchanged. Sums along axis 0 (the
``gain`` and ``bias`` gradients) stay unblocked, since blocking them
would reorder the additions; ``lstm_scan`` forms its three bias
gradients from one such sum. It forms the ``W_x`` product ``ax`` of the
window's rows itself, straight into its ``xhat`` buffer, allocates its
gate, cell, normalization and product buffers once per window (one row
block's worth without a tape, except the ``xhat`` buffer) and runs each
step's arithmetic in place in them. Its gate buffers are gate-major, ``(4,
batch, H)`` per step, so each gate's block is one contiguous slab:
elementwise work on a strided ``(batch, H)`` column of a ``(batch, 4H)``
row costs about twice as much. The adjoint keeps one step's
pre-activation gradient in the same layout and writes ``ax``'s gradient,
row-major, over the spent gate rows.

Each of a window's two large layers is one record that owns its large
buffers and writes its adjoint over the ones its backward has spent, and
a taped kernel keeps no full-size array that its adjoint can rebuild from
what the tape holds anyway. Each rebuild repeats the forward's own
operations on the same inputs, so it is bitwise:

- ``linear_cross_entropy`` (the output layer and its softmax-NLL, the
  only record that runs either) keeps its ``(n, V)`` logits, each row's
  maximum and log-normalizer; its adjoint writes the softmax gradient
  over the logits and runs the layer's three products on that one buffer.
- ``lstm_scan`` forms the ``W_x`` product in its ``xhat`` buffer, writes
  the ``W_x`` layer norm's output straight into its gate buffer and keeps
  that norm's row mean and ``inv_sd``; each step's ``W_h`` ``xhat`` then
  overwrites that step's spent product rows, so the product is not kept.
  Its adjoint forms the product again from the kept rows, with the
  forward's call, into a spent ``(T, batch, 4H)`` gradient buffer, and
  rebuilds ``xhat`` from it once per row block, so at its peak the
  adjoint holds three arrays of the product's size. It keeps each step's gate
  activations, normalized ``W_h`` product ``xhat``, ``inv_sd`` and cell
  state, and the rows each weight multiplied in the buffers the forward
  wrote them to (the hidden states, and one per later weight), so each
  weight gradient is one product on them with no copy. It rebuilds
  ``tanh(c')`` one step at a time from the kept cell state, and forms
  both gain gradients' products in the spent ``xhat`` buffer.

Both layer norms run one standardize and one adjoint, which write their
row statistics into arrays the caller owns.

A tape is single-owner: do not share one across concurrent forward passes.
Independent tapes may run in parallel.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError, ShapeError, StateError, VocabError

__all__ = [
    "Var", "Parameter", "Tape", "backward", "grad_check",
    "add", "sub", "mul", "matmul", "reshape", "transpose",
    "gather_rows", "lstm_scan", "scale", "reduce_sum", "linear_cross_entropy",
]


class _Grad:
    """A Var's gradient slot. The tape holds slots, not Vars, so a record
    keeps its output's array alive only as long as the caller holds the Var
    or a later record's pull captured it."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Var:
    """A float64 array plus a gradient slot."""

    __slots__ = ("value", "slot", "name")

    def __init__(self, value, name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.slot = _Grad()
        self.name = name

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, g):
        self.slot.grad = g

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
        # each record: (output slot, [(input slot, pull(grad) -> grad), ...])
        self._records: list[tuple[_Grad, list]] = []

    def record(self, out: Var, pulls: list):
        self._records.append((out.slot, [(v.slot, p) for v, p in pulls]))

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
        for slot, pull in pulls:
            contrib = pull(g)
            slot.grad = contrib if slot.grad is None else slot.grad + contrib


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
    a_shape, b_shape = av.shape, bv.shape
    return _emit(tape, av + bv, [
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(g, b_shape)),
    ])


def sub(tape, a, b) -> Var:
    av, bv = _val(a), _val(b)
    a_shape, b_shape = av.shape, bv.shape
    return _emit(tape, av - bv, [
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(-g, b_shape)),
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


def _linear(xv: np.ndarray, wv: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """The output layer's logits ``x @ w + b``: the same values as
    ``add(matmul(x, w), b)``, with the bias added in place so the product
    is the only array."""
    _check_matmul(xv, wv)
    out = xv @ wv
    out += bv
    return out


def reshape(tape, a, shape) -> Var:
    av = _val(a)
    shape, a_shape = tuple(int(s) for s in shape), av.shape
    return _emit(tape, av.reshape(shape), [(a, lambda g: g.reshape(a_shape))])


def transpose(tape, a, axes=None) -> Var:
    av = _val(a)
    if axes is None:
        axes = tuple(range(av.ndim))[::-1]
    axes = tuple(int(x) for x in axes)
    inverse = tuple(np.argsort(axes))
    return _emit(tape, av.transpose(axes), [(a, lambda g: g.transpose(inverse))])


def _scatter_add(z: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``np.add.at(z, ids, rows)`` for 1-D ``ids`` indexing axis 0 of ``z``,
    as one fancy-index add per duplicate rank: layer ``k`` adds each id's
    ``k``-th occurrence, so each row of ``z`` takes its additions in the
    order ``np.add.at`` gives them, and its bits."""
    ids = np.where(ids < 0, ids + z.shape[0], ids)      # one key per row
    order = np.argsort(ids, kind="stable")
    first = np.ones(ids.size, dtype=bool)               # where each id's run starts in order
    first[1:] = ids[order[1:]] != ids[order[:-1]]
    rank = np.arange(ids.size) - np.flatnonzero(first)[np.cumsum(first) - 1]
    by_rank = order[np.argsort(rank, kind="stable")]
    for layer in np.split(by_rank, np.cumsum(np.bincount(rank))[:-1]):
        z[ids[layer]] += rows[layer]
    return z


def gather_rows(tape, table, ids) -> Var:
    """Row lookup ``table[ids]``; gradients scatter-add back, each row's
    bitwise as ``np.add.at`` gives it."""
    tv = _val(table)
    ids = np.asarray(ids)
    t_shape = tv.shape

    def pull(g):
        flat = ids.reshape(-1)
        return _scatter_add(np.zeros(t_shape), flat, g.reshape(flat.size, *t_shape[1:]))

    return _emit(tape, tv[ids], [(table, pull)])


def scale(tape, a, c: float) -> Var:
    av = _val(a)
    c = float(c)
    return _emit(tape, av * c, [(a, lambda g: g * c)])


def reduce_sum(tape, a) -> Var:
    av = _val(a)
    a_shape = av.shape
    return _emit(tape, av.sum(), [(a, lambda g: np.full(a_shape, float(g)))])


ROW_BLOCK_BYTES = 1 << 18
LN_EPS = 1e-5           # the layer norms' variance floor


def _row_blocks(shape: tuple[int, ...]) -> list[slice]:
    """Slices that split axis 0 of an array of ``shape``, at least 2-D with
    at least one row, into blocks of at most ``ROW_BLOCK_BYTES`` (one row
    at least), the last one ragged."""
    n = shape[0]
    step = max(1, ROW_BLOCK_BYTES // max(1, 8 * int(np.prod(shape[1:]))))
    return [slice(r, min(r + step, n)) for r in range(0, n, step)]


def _mean(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` written into ``out``: the sum and
    the true divide ``.mean`` runs, without its temporaries."""
    np.add.reduce(a, axis=-1, keepdims=True, out=out)
    out /= a.shape[-1]
    return out


def _xhat(xv: np.ndarray, mean: np.ndarray, inv_sd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(xv - mean) * inv_sd`` into ``out``: the two operations with which
    :func:`_standardize` finishes ``xhat``, so a rebuild is bitwise."""
    np.subtract(xv, mean, out=out)
    out *= inv_sd
    return out


def _standardize(xv: np.ndarray, eps: float, out: np.ndarray, scratch: np.ndarray,
                 mean: np.ndarray, inv_sd: np.ndarray) -> np.ndarray:
    """Write ``xhat`` of ``xv`` over its last axis (population variance) into
    ``out`` and the row statistics into the caller's ``(..., 1)`` arrays
    ``mean`` and ``inv_sd``; ``scratch``, shaped like ``out``, holds the
    squares (it may be ``xv``, which is spent once centered)."""
    np.subtract(xv, _mean(xv, mean), out=out)
    _mean(np.multiply(out, out, out=scratch), inv_sd)
    inv_sd += eps
    np.sqrt(inv_sd, out=inv_sd)
    np.divide(1.0, inv_sd, out=inv_sd)
    out *= inv_sd
    return out


def _standardize_adjoint(gg: np.ndarray, xhat: np.ndarray, inv_sd: np.ndarray,
                         scratch: np.ndarray, mean_g: np.ndarray,
                         mean_gx: np.ndarray) -> np.ndarray:
    """Input gradient of :func:`_standardize` given the gradient ``gg`` of
    ``xhat``, computed in place in ``gg``: ``(gg - mean(gg) - xhat *
    mean(gg xhat)) * inv_sd``; the two means go to the caller's ``(...,
    1)`` arrays ``mean_g`` and ``mean_gx``."""
    _mean(gg, mean_g)
    _mean(np.multiply(gg, xhat, out=scratch), mean_gx)
    gg -= mean_g
    gg -= np.multiply(xhat, mean_gx, out=scratch)
    gg *= inv_sd
    return gg


def _gate_major(a: np.ndarray) -> np.ndarray:
    """A contiguous ``(4, batch, H)`` copy of a ``(batch, 4, H)`` array."""
    return np.ascontiguousarray(a.transpose(1, 0, 2))


def _cell_adjoint(gh, dc, act, tc, c_prev, d, u, v):
    """One step of the LSTM cell's adjoint, in place. ``gh`` and ``dc`` are
    the gradients of ``h'`` and ``c'``; ``act`` holds the step's (i, f, g,
    o) activations gate-major, ``(4, batch, H)``. Writes the gradient of
    the pre-activations, in the same layout, into ``d`` and turns ``dc``
    into the gradient of ``c``; ``u`` ``(batch, H)`` and ``v`` ``(2,
    batch, H)`` are scratch."""
    si, sf, tg, so = act
    di, df, dg, do = d
    w = v[0]
    np.multiply(gh, so, out=u)
    u *= np.subtract(1.0, np.multiply(tc, tc, out=w), out=w)
    dc += u
    np.multiply(dc, tg, out=di)
    np.multiply(dc, c_prev, out=df)
    d[:2] *= act[:2]                                # [i, f] as one slab
    d[:2] *= np.subtract(1.0, act[:2], out=v)
    np.multiply(dc, si, out=dg)
    dg *= np.subtract(1.0, np.multiply(tg, tg, out=w), out=w)
    np.multiply(gh, tc, out=do)
    do *= so
    do *= np.subtract(1.0, so, out=w)
    dc *= sf


def _pulls(adjoint, inputs: list) -> list:
    """One pull per ``(input, key)`` of a record whose ``adjoint(g)`` returns
    every input's gradient at once, by key: the first pull to run calls it,
    and each pull takes its own gradient out of the result."""
    grads = {}

    def pull(key):
        def run(g):
            if not grads:
                grads.update(adjoint(g))
            return grads.pop(key)
        return run

    return [(var, pull(key)) for var, key in inputs]


def _check_chain(factors: list, d_in: int, d_out: int, what: str):
    """:class:`ShapeError` unless ``factors`` is a non-empty list of 2-D
    arrays whose product is a ``(d_out, d_in)`` matrix; the message names
    their shapes in the order given."""
    shapes = [_val(f).shape for f in factors]
    if (not factors or any(len(s) != 2 for s in shapes)
            or [d_out] + [s[1] for s in shapes] != [s[0] for s in shapes] + [d_in]):
        raise ShapeError(f"{what} factors {shapes} do not multiply to a ({d_out}, {d_in}) matrix")


def lstm_scan(tape, rows, x_factors, x_norm, h_factors, h_norm, gate_bias, h0, c0):
    """A layer-normalized LSTM recurrence over a window, as one record.

    ``rows`` are the ``(T batch, E)`` time-major rows ``W_x`` multiplies
    (row ``t batch + b`` is lane ``b``'s input at step ``t``, ``batch``
    taken from ``h0``). ``x_factors`` and ``h_factors`` are the factor lists
    of ``W_x`` (``4H x E``) and ``W_h`` (``4H x H``) as ``TTLinear.factors``
    returns them, ``[F, G^T]`` or ``[W]``, whose product is the stack. The
    scan multiplies batch-first rows by the ``.T`` views of a list's
    arrays, last factor first: with ``x_0, x_1, ...`` those views of
    ``W_x``'s list in that order, ``rows x_0 x_1 ...`` is ``ax``, the ``(T
    batch, 4H)`` product ``x W_x^T``, and with ``w_0, w_1, ...`` those of
    ``W_h``'s, ``h w_0 w_1 ...`` is ``h W_h^T``. ``x_norm`` and ``h_norm``
    are the ``(gain, bias)`` pairs of the ``W_x`` and ``W_h`` layer norms,
    each ``(4, H)``, and ``gate_bias`` is ``(4H,)``; both norms use the
    variance floor ``LN_EPS``. Any other shape, or a factor list that is
    empty or whose product is not the stack's shape, is a
    :class:`ShapeError` naming the factors' shapes as passed. The scan
    forms ``ax`` with ``matmul``'s calls, the last one straight into its
    ``xhat`` buffer, and ``LN(ax)`` per gate block of length H, a row
    block of whole steps at a time, into its gate buffer. Step ``t`` then forms ``ah = LN(h w_0 w_1 ...)``, ``pre =
    (LN(ax)_t + ah) + gate_bias`` and, on its (i, f, g, o) blocks, ``c' =
    sigmoid(f) c + sigmoid(i) tanh(g)``, ``h' = sigmoid(o) tanh(c')``, and
    writes its ``W_h`` ``xhat`` over its spent rows of ``ax``. Returns the
    ``(T, batch, H)`` hidden states as a Var and the last cell state as a
    plain array.

    The scan keeps the rows each weight multiplies in its own buffers: the
    hidden-state buffer holds the entering state as row 0, so ``w_0``'s
    rows are all but its last row, and each later weight's rows are the
    ``(T, batch, d)`` buffer its predecessor's product is written into;
    ``W_x``'s are ``rows`` and its own earlier products. The adjoint runs
    only the input-gradient chain step by step (cell, ``W_h`` layer-norm
    input adjoint, ``d w^T`` per weight); each ``W_h`` weight gradient is
    then one ``(T batch, d_in)^T @ (T batch, d_out)`` product on the kept
    rows, returned as its ``.T`` view in the factor's own orientation, each
    gain one reduction, and the three biases (both layer norms'
    and ``gate_bias``) one ``(4, H)`` sum of the pre-activation gradient,
    each bias taking its own copy. The adjoint then forms ``ax`` again,
    with the forward's call, into the spent last ``d_out`` buffer; the
    ``W_x`` layer norm's adjoint rebuilds its ``xhat`` from it once per
    row block, writes ``xhat * d`` over the spent ``W_h`` ``xhat`` buffer
    for the ``x_gain`` sum, and runs its input adjoint on the same
    ``xhat``, in place over the pre-activation gradient. Last, ``W_x``'s
    factors run ``matmul``'s own adjoint, ``d @ w^T`` and ``x^T @ d``, the
    latter again returned as its ``.T`` view.

    A step's gate buffer is gate-major, ``(4, batch, H)``: each of i, f, g
    and o is one contiguous slab and ``[i, f]`` one contiguous pair, so
    the nonlinearities, the cell update and the cell adjoint run on whole
    slabs rather than on strided ``(batch, H)`` columns of a ``(batch,
    4H)`` row, which cost about twice as much per element. Of the scan's
    own buffers only ``ax`` and the ``W_h`` layer norm's ``xhat`` are read
    through transposed views;
    the ``W_h`` norm's ``gain`` and ``bias`` and ``gate_bias`` are copied
    to gate-major slabs once per window. Every element sees the same
    operations in the same order as a ``W_x`` product and layer norm
    followed by the scan in the row layout, so values are unchanged. The
    adjoint keeps one step's pre-activation gradient gate-major and copies
    it, row-major, over the spent gate rows, which become ``ax``'s
    gradient.
    """
    xv, h, c = _val(rows), _val(h0), _val(c0)
    if h.ndim != 2 or c.shape != h.shape:
        raise ShapeError(f"state {h.shape}/{c.shape} must be two equal (batch, H) arrays")
    batch, hidden = h.shape
    width = 4 * hidden
    if xv.ndim != 2 or batch == 0 or xv.shape[0] % batch:
        raise ShapeError(f"rows {xv.shape} are not T * {batch} time-major rows")
    steps = xv.shape[0] // batch
    if steps == 0:
        raise ShapeError(f"rows {xv.shape} have no steps")
    _check_chain(x_factors, xv.shape[1], width, "W_x")
    _check_chain(h_factors, hidden, width, "W_h")
    # batch-first rows are multiplied by each factor's transpose, last factor first
    x_ws, ws = ([_val(f).T for f in reversed(fs)] for fs in (x_factors, h_factors))
    xg, xb, gv, bv, gbv = (_val(p) for p in (*x_norm, *h_norm, gate_bias))
    if any(p.shape != (4, hidden) for p in (xg, xb, gv, bv)) or gbv.shape != (width,):
        raise ShapeError(f"norm parameters {[p.shape for p in (xg, xb, gv, bv)]} and gate bias "
                         f"{gbv.shape} must be (4, {hidden}) and ({width},)")
    keep = tape is not None
    blocks = (batch, 4, hidden)
    x_ins = [xv]                                # the rows each W_x factor multiplies
    for w in x_ws[:-1]:
        x_ins.append(x_ins[-1] @ w)
    xhats = np.empty((steps,) + blocks)         # ax, then its squares, then W_h's xhat step by step
    np.matmul(x_ins[-1], x_ws[-1], out=xhats.reshape(-1, width))
    if not keep:
        rows = xv = x_ins = None                # spent: without a tape nothing reads them again
    row_blocks = _row_blocks((steps,) + blocks)  # whole steps each
    span = row_blocks[0].stop
    kept = steps if keep else span              # without a tape, one row block's buffers are reused
    hs = np.empty((steps + 1, batch, hidden))   # h entering step 0, then each h': w_0's rows
    hs[0] = h
    mids = [np.empty((kept, batch, w.shape[1])) for w in ws[:-1]]  # each later weight's rows
    last = np.empty((batch, width))             # the last product, then ah
    gates = np.empty((kept, 4, batch, hidden))  # LN(ax), then pre-activations, then (i, f, g, o) activations
    x_mean, x_inv_sd = np.empty((2, kept, 4, batch, 1))
    # W_x's gain and bias as (4, 1, H): they broadcast over gate-major rows
    x_gain, x_bias = xg[:, None], xb[:, None]
    mean, inv_sds = np.empty((batch, 4, 1)), np.empty((kept, batch, 4, 1))
    tc = np.empty((batch, hidden))              # tanh(c'), after holding si * tg
    cs = np.empty((steps + 1 if keep else 1, batch, hidden))   # c entering step 0, then each c'
    cs[0] = c
    # W_h's gain and bias and gate_bias broadcast once to gate-major slabs:
    # contiguous operands make the per-step products and adds about twice as fast
    gain_gates, bias_gates = (_gate_major(np.broadcast_to(p, blocks)) for p in (gv, bv))
    gate_bias_gates = _gate_major(np.broadcast_to(gbv, (batch, width)).reshape(blocks))
    for rb in row_blocks:
        r = rb if keep else slice(0, rb.stop - rb.start)
        norm, x_block = gates[r], xhats[rb].transpose(0, 2, 1, 3)
        # ax is spent once centered, so its rows take the squares
        _standardize(x_block, LN_EPS, norm, x_block, x_mean[r], x_inv_sd[r])
        norm *= x_gain
        norm += x_bias
        for t in range(rb.start, rb.stop):
            k = t - rb.start + r.start
            a = hs[t]
            for w, out in zip(ws, [m[k] for m in mids] + [last]):
                a = np.matmul(a, w, out=out)
            pre, xhat = gates[k], xhats[t]
            a = a.reshape(blocks)
            _standardize(a, LN_EPS, xhat, a, mean, inv_sds[k])  # the product is spent once centered
            ah = np.multiply(gain_gates, xhat.transpose(1, 0, 2), out=a.reshape(4, batch, hidden))
            ah += bias_gates
            pre += ah
            pre += gate_bias_gates
            for z in (pre[:2], pre[3]):             # sigmoid of [i, f], then of o
                np.negative(z, out=z)
                np.exp(z, out=z)
                z += 1.0
                np.divide(1.0, z, out=z)
            si, sf, tg, so = pre
            np.tanh(tg, out=tg)
            c_prev, c = (cs[t], cs[t + 1]) if keep else (cs[0], cs[0])
            np.multiply(sf, c_prev, out=c)
            c += np.multiply(si, tg, out=tc)
            np.tanh(c, out=tc)
            np.multiply(so, tc, out=hs[t + 1])

    def adjoint(g):
        nonlocal gates, cs, xhats, mids
        # step t's gate rows take the gradient of its pre once they are spent
        d_ax = gates.reshape(steps * batch, width)
        d_pre = np.empty((4, batch, hidden))    # one step's, gate-major
        d_outs = [np.empty((steps, batch, w.shape[1])) for w in ws]
        dh, dc = np.zeros((batch, hidden)), np.zeros((batch, hidden))
        gh, u, tc = np.empty((3, batch, hidden))
        v, scratch = np.empty((2, batch, hidden)), np.empty(blocks)
        mean_g, mean_gx = np.empty((2, batch, 4, 1))
        for t in reversed(range(steps)):
            np.tanh(cs[t + 1], out=tc)          # the forward's tanh(c') on the kept c'
            _cell_adjoint(np.add(g[t], dh, out=gh), dc, gates[t], tc, cs[t], d_pre, u, v)
            d = gates[t].reshape(blocks)
            np.copyto(d, d_pre.transpose(1, 0, 2))
            dh = d_outs[-1][t]
            _standardize_adjoint(np.multiply(d, gv, out=dh.reshape(blocks)),
                                 xhats[t], inv_sds[t], scratch, mean_g, mean_gx)
            for j in reversed(range(len(ws))):
                dh = np.matmul(dh, ws[j].T, out=d_outs[j - 1][t] if j else None)
        gates = cs = None           # spent: free them before the products below
        grads = {"h0": dh, "c0": dc}
        for j, (x, d) in enumerate(zip([hs[:-1], *mids], d_outs)):
            # (T batch, d_in)^T @ (T batch, d_out) by np.dot: on 1 x 1 operands
            # matmul's own loop adds a -0.0 product to +0.0 and drops its sign
            grads["h", j] = np.dot(x.reshape(-1, x.shape[2]).T, d.reshape(-1, d.shape[2])).T
        # ax again, with the forward's call, into the spent last d_out
        x_rows = np.matmul(x_ins[-1], x_ws[-1], out=d_outs[-1].reshape(-1, width))
        x_rows = x_rows.reshape((steps,) + blocks)
        mids = d_outs = None        # spent: free them before the reductions
        norm_rows = (steps * batch, 4, hidden)
        d_sum = d_ax.reshape(norm_rows).sum(axis=0)         # the three biases' one sum
        d_gain = np.multiply(xhats, d_ax.reshape(xhats.shape), out=xhats)   # in the spent xhats
        grads.update({"gain": _unbroadcast(d_gain, gv.shape), "bias": d_sum,
                      "x_bias": d_sum.copy(), "gate_bias": d_sum.flatten()})
        # W_x's layer norm, a row block at a time: xhat once into the block's
        # scratch, xhat * d over the spent xhats for the unblocked x_gain sum,
        # then the input adjoint on the same xhat, in place over d
        mean_rows, inv_sd_rows = (s.transpose(0, 2, 1, 3) for s in (x_mean, x_inv_sd))
        d_rows = d_ax.reshape(x_rows.shape)
        x_xhat, x_scratch = np.empty((2, span) + blocks)
        for rb in row_blocks:
            d, n = d_rows[rb], rb.stop - rb.start
            xhat = _xhat(x_rows[rb], mean_rows[rb], inv_sd_rows[rb], x_xhat[:n])
            np.multiply(xhat, d, out=xhats[rb])
            d *= xg
            _standardize_adjoint(d, xhat, inv_sd_rows[rb], x_scratch[:n],
                                 *np.empty((2, n, batch, 4, 1)))
        grads["x_gain"] = _unbroadcast(xhats.reshape(norm_rows), xg.shape)
        xhats = x_rows = None
        # W_x's factors last first, with matmul's pulls: d @ w^T and x^T @ d
        d = d_ax
        for j in reversed(range(len(x_ws))):
            grads["x", j] = (x_ins[j].T @ d).T
            d = d @ x_ws[j].T
        grads["rows"] = d
        return grads

    inputs = ([(rows, "rows"), (x_norm[0], "x_gain"), (x_norm[1], "x_bias"), (h_norm[0], "gain"),
               (h_norm[1], "bias"), (gate_bias, "gate_bias"), (h0, "h0"), (c0, "c0")]
              + [(f, ("x", j)) for j, f in enumerate(reversed(x_factors))]
              + [(f, ("h", j)) for j, f in enumerate(reversed(h_factors))])
    return _emit(tape, hs[1:], _pulls(adjoint, inputs)), cs[-1]


def _integer_ids(ids, what: str) -> np.ndarray:
    """``ids`` as an array, or :class:`VocabError` unless its dtype is an
    integer one: a float array would be truncated or fail as an index, and
    a bool array would index as a mask."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise VocabError(f"{what} must be integer ids, got dtype {ids.dtype}")
    return ids


def _softmax_nll(lv: np.ndarray, targets):
    """The flattened integer ``targets``, the row maxima, the
    log-normalizers and the token-mean NLL of ``targets`` under a softmax
    over the last axis of 2-D ``lv``, in row blocks with one block of
    scratch; :class:`ShapeError`, :class:`VocabError` or
    :class:`NumericError` on bad input."""
    targets = _integer_ids(targets, "target ids").reshape(-1)
    if lv.ndim != 2 or targets.shape[0] != lv.shape[0]:
        raise ShapeError(f"logits {lv.shape} incompatible with {targets.shape[0]} targets")
    if lv.shape[0] == 0:
        raise ShapeError("softmax-NLL of zero rows")
    if targets.min() < 0 or targets.max() >= lv.shape[1]:
        raise VocabError(f"target ids must lie in [0, {lv.shape[1]}), "
                         f"got range [{targets.min()}, {targets.max()}]")
    n = lv.shape[0]
    blocks = _row_blocks(lv.shape)
    scratch = np.empty((blocks[0].stop, lv.shape[1]))        # one block of shifted logits
    row_max, log_z, picked = np.empty((n, 1)), np.empty((n, 1)), np.empty(n)
    for b in blocks:
        block = lv[b]
        # max and min carry a NaN through and reach +inf and -inf: the row
        # maxima and the block's minimum are finite exactly when the block is
        top = np.max(block, axis=1, keepdims=True, out=row_max[b])
        if not (np.isfinite(top.max()) and np.isfinite(block.min())):
            raise NumericError("non-finite logits")
        shifted = scratch[:block.shape[0]]
        np.subtract(block, top, out=shifted)
        picked[b] = shifted[np.arange(block.shape[0]), targets[b]]
        np.log(np.exp(shifted, out=shifted).sum(axis=1, keepdims=True), out=log_z[b])
    return targets, row_max, log_z, (log_z[:, 0] - picked).mean()


def _softmax_nll_grad(g, lv: np.ndarray, row_max: np.ndarray, log_z: np.ndarray, targets,
                      out: np.ndarray) -> np.ndarray:
    """The gradient of :func:`_softmax_nll` times ``g``, ``(softmax - onehot)
    * g / n``, written block by block into ``out``, which may be ``lv``
    itself: each block is read once, before it is written."""
    factor = float(g) / lv.shape[0]
    for b in _row_blocks(lv.shape):
        gb = np.subtract(lv[b], row_max[b], out=out[b])
        gb -= log_z[b]
        np.exp(gb, out=gb)
        gb[np.arange(gb.shape[0]), targets[b]] -= 1.0
        gb *= factor
    return out


def linear_cross_entropy(tape, rows, w, b, targets) -> Var:
    """Token-mean negative log-likelihood of integer ``targets`` under a
    softmax over the last axis of the logits ``rows @ w + b``: the output
    layer and its softmax-NLL as one record, the only one that runs either.
    The ``(n, V)`` logits are the record's own: its adjoint writes the
    softmax gradient over them block by block, then runs ``d @ w^T``,
    ``rows^T @ d`` and the bias sum on that one buffer and drops it, so a
    window never holds the logits and their gradient at once."""
    xv, wv, bv = _val(rows), _val(w), _val(b)
    lv = _linear(xv, wv, bv)
    targets, row_max, log_z, nll = _softmax_nll(lv, targets)

    def adjoint(g):
        nonlocal lv
        d = _softmax_nll_grad(g, lv, row_max, log_z, targets, out=lv)
        lv = None                   # the record's only reference; d is the last one
        return {"rows": d @ wv.T, "w": xv.T @ d, "b": _unbroadcast(d, bv.shape)}

    return _emit(tape, np.float64(nll), _pulls(adjoint, [(rows, "rows"), (w, "w"), (b, "b")]))


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
        flat = p.value.flat         # writes reach p.value, also when it is a view
        gflat = ga.reshape(-1)
        for k in range(p.value.size):
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
