"""The benchmark's workloads, their timed loops and their output checks.

Load model: a closed loop with one caller in one process. Each window
(batch 20 x unroll 35) starts only after the previous one finished, as
``training.evaluate`` and ``training.train_model`` do. Inputs come from
``data.synthetic_corpus(seed)``; the program receives nothing else.

Import :mod:`bootstrap` (which pins BLAS to one thread and puts the
checkout's ``src`` on the path) before this module.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ttlstm import autograd as ag
from ttlstm.autograd import Tape, Var
from ttlstm.contract import OpCounter, build_factor_pair, cost_model, mpo_matvec, mps_matvec
from ttlstm.data import build_vocab, encode_stream, make_batches, synthetic_corpus
from ttlstm.distill import (DistillConfig, TeacherWeights, accumulate_covariance, kd_penalty,
                            total_loss)
from ttlstm.modelfile import load_model, save_model
from ttlstm.nn import ModelArch, build_model, cross_entropy_perplexity, forward_lm, sequence_nll
from ttlstm.training import TrainConfig, clip_gradients, collect_stack_inputs, evaluate, train_model
from ttlstm.ttrain import reconstruct

from tracing import Trace, proxied, span

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
WORK_DIR = HERE / ".work"

NLL_REFERENCE_RTOL = 1e-9    # recorded NLL vs this run, relative
ORACLE_RTOL = 1e-10          # stack apply vs reconstruct(train) @ x, relative
REPLAY_RTOL = 1e-9           # replayed training window vs train_model, relative


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration. ``windows`` is the length of the
    evaluation stream (eval) or of the training epoch (train)."""

    name: str
    kind: str                       # eval | train
    representation: str
    embed_dim: int
    hidden_dim: int
    vocab_size: int
    rank: int
    windows: int
    row_dims: tuple[int, ...] | None = None      # both stacks; None = balanced
    wx_col_dims: tuple[int, ...] | None = None
    wh_col_dims: tuple[int, ...] | None = None
    lam: float = 1e-5               # kda weight for training and the replay
    cov_windows: int = 1            # teacher windows in the covariance pass
    replay_windows: int = 2         # training windows replayed in the traced run
    setup_reps: int = 5
    batch_size: int = 20
    unroll: int = 35

    def arch(self, representation: str | None = None) -> ModelArch:
        rep = representation or self.representation
        return ModelArch(
            vocab_size=self.vocab_size, embed_dim=self.embed_dim, hidden_dim=self.hidden_dim,
            representation=rep, n_factors=2, rank=self.rank if rep != "dense" else 0,
            unroll=self.unroll, batch_size=self.batch_size,
            wx_row_dims=self.row_dims, wx_col_dims=self.wx_col_dims,
            wh_row_dims=self.row_dims, wh_col_dims=self.wh_col_dims)

    def train_config(self) -> TrainConfig:
        return TrainConfig(optimizer="sgd", lr=1.0, epochs=1, clip=5.0,
                           distill=DistillConfig("kda", self.lam))

    def tokens(self, windows: int) -> int:
        """Stream length that lays out into exactly ``windows`` windows."""
        return self.batch_size * (windows * self.unroll + 1)

    def fingerprint(self) -> str:
        """Hash of every field that can change the reported NLL."""
        fields = asdict(self)
        for key in ("replay_windows", "setup_reps"):
            fields.pop(key)
        return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:12]


PAPER_STACKS = dict(embed_dim=650, hidden_dim=650, rank=109, row_dims=(50, 52),
                    wx_col_dims=(25, 26), wh_col_dims=(25, 26))

# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("eval-desk-mpo", "eval", "mpo", embed_dim=64, hidden_dim=64, vocab_size=500,
             rank=20, windows=100),
    Workload("eval-paper-mps", "eval", "mps", vocab_size=10000, windows=6, **PAPER_STACKS),
    Workload("train-paper-kda", "train", "mps", vocab_size=2000, windows=4, cov_windows=2,
             **PAPER_STACKS),
)}

# Smoke-test sizes for the benchmark's own tests; same code paths, tiny shapes.
TINY = {
    "eval-desk-mpo": replace(WORKLOADS["eval-desk-mpo"], embed_dim=8, hidden_dim=8,
                             vocab_size=40, rank=3, windows=4, batch_size=4, unroll=5,
                             replay_windows=1, setup_reps=2),
    "eval-paper-mps": replace(WORKLOADS["eval-paper-mps"], embed_dim=8, hidden_dim=8,
                              vocab_size=60, rank=4, row_dims=(4, 8), wx_col_dims=(2, 4),
                              wh_col_dims=(2, 4), windows=3, batch_size=4, unroll=5,
                              replay_windows=1, setup_reps=2),
    "train-paper-kda": replace(WORKLOADS["train-paper-kda"], embed_dim=8, hidden_dim=8,
                               vocab_size=50, rank=4, row_dims=(4, 8), wx_col_dims=(2, 4),
                               wh_col_dims=(2, 4), windows=2, batch_size=4, unroll=5,
                               replay_windows=1, setup_reps=2),
}


@dataclass
class Checks:
    """Output checks. Each one attempted counts once in ``attempted``; each
    one failed counts once in ``failed``, like a failed window."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = ""):
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def _report_exception(where: str):
    print(f"perfbench: {where} raised:\n{traceback.format_exc()}", file=sys.stderr)


def _rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return float(np.max(np.abs(a - b))) / max(scale, 1e-300) if a.size else 0.0


def _arch_key(arch: ModelArch):
    """The architecture as the model uses it: a file records the factor
    dimensions a default-built arch leaves to ``balanced_factorization``."""
    return (replace(arch, wx_row_dims=None, wx_col_dims=None, wh_row_dims=None, wh_col_dims=None),
            arch.wx_fact(), arch.wh_fact())


def _same_model(a, b) -> tuple[bool, str]:
    if _arch_key(a.arch) != _arch_key(b.arch) or a.seed != b.seed \
            or (a.wx.kind, a.wh.kind) != (b.wx.kind, b.wh.kind):
        return False, "architecture differs"
    pa, pb = a.parameters(), b.parameters()
    if len(pa) != len(pb):
        return False, f"{len(pa)} vs {len(pb)} parameters"
    for p, q in zip(pa, pb):
        if p.name != q.name or p.value.dtype != q.value.dtype or p.value.shape != q.value.shape \
                or not np.array_equal(np.ascontiguousarray(p.value).view(np.uint8),
                                      np.ascontiguousarray(q.value).view(np.uint8)):
            return False, f"parameter {p.name} differs"
    return True, f"{len(pa)} parameters"


def _snapshot(params) -> list[np.ndarray]:
    return [p.value.copy() for p in params]


def _restore(params, values):
    for p, v in zip(params, values):
        p.value = v.copy()


@dataclass
class Prepared:
    """Everything set-up hands to the timed loop."""

    model: object
    eval_stream: object | None
    eval_ids: np.ndarray | None
    train_ids: np.ndarray
    valid_ids: np.ndarray
    replay_ids: np.ndarray
    model_bytes: int
    check_s: float                  # time of the round-trip check, not part of set-up
    initial: list[np.ndarray] | None = None     # parameters every training run starts from
    teacher: TeacherWeights | None = None
    cov_x: np.ndarray | None = None
    cov_h: np.ndarray | None = None


def setup(w: Workload, seed: int, workdir: Path, checks: Checks,
          trace: Trace | None = None, with_teacher: bool = False) -> Prepared:
    """Corpus, vocabulary and batches; model build; the ``save_model`` ->
    ``load_model`` round trip; and (training, or any traced run) the dense
    teacher and its covariance pass."""
    if w.kind == "train":
        n_main, n_valid = w.tokens(w.windows), w.tokens(1)
    else:
        n_main, n_valid = max(w.tokens(w.windows), w.tokens(w.replay_windows) + w.tokens(1)), 0
    with span(trace, "data.corpus"):
        text = synthetic_corpus(n_main + n_valid, vocab_size=w.vocab_size, seed=seed)
    with span(trace, "data.encode"):
        vocab = build_vocab(text, w.vocab_size)
        ids = encode_stream(text, vocab)
        if w.kind == "eval":
            eval_ids = ids[:w.tokens(w.windows)]
            eval_stream = make_batches(eval_ids, w.batch_size, w.unroll)
            train_ids = ids[:w.tokens(w.replay_windows)]
            valid_ids = ids[train_ids.size:train_ids.size + w.tokens(1)]
        else:
            eval_ids = eval_stream = None
            train_ids = ids[:n_main]
            valid_ids = ids[n_main:n_main + n_valid]
            make_batches(train_ids, w.batch_size, w.unroll)
    with span(trace, "nn.build_model"):
        built = build_model(w.arch(), seed)
    path = workdir / f"{w.name}.ttlm"
    with span(trace, "modelfile.save"):
        save_model(built, path)
    model_bytes = path.stat().st_size
    with span(trace, "modelfile.load"):
        model, _ = load_model(path)
    path.unlink()
    check_start = time.perf_counter()
    ok, detail = _same_model(built, model)
    checks.record("load_model(save_model(m)) is bitwise m", ok, detail)
    del built
    prepared = Prepared(model, eval_stream, eval_ids, train_ids, valid_ids,
                        train_ids[:w.tokens(w.replay_windows)], model_bytes,
                        check_s=time.perf_counter() - check_start)
    if with_teacher:
        teacher = build_model(w.arch("dense"), seed + 1)
        with proxied(teacher, trace):
            with span(trace, "training.collect_inputs"):
                xs, hs = collect_stack_inputs(teacher, train_ids, max_windows=w.cov_windows)
        with span(trace, "distill.covariance"):
            prepared.cov_x = accumulate_covariance(xs).matrix
            prepared.cov_h = accumulate_covariance(hs).matrix
        prepared.teacher = TeacherWeights.from_model(teacher, source=f"seed {seed + 1}")
    return prepared


def run_setups(w: Workload, seed: int, workdir: Path, checks: Checks, reps: int,
               trace: Trace | None = None, with_teacher: bool = False):
    """Set up ``reps`` times; return the last set-up and the set-up times
    in seconds."""
    seconds = []
    prepared = None
    for rep in range(reps):
        prepared = None     # free the previous set-up before building the next
        if trace is not None:
            trace.phase, trace.window = "setup", rep
        start = time.perf_counter()
        prepared = setup(w, seed, workdir, checks, trace, with_teacher)
        seconds.append(time.perf_counter() - start - prepared.check_s)
    if with_teacher:
        prepared.initial = _snapshot(prepared.model.parameters())
    return prepared, seconds


@dataclass
class LoopResult:
    window_s: list[float]           # per-window wall time of each successful window
    tokens: int                     # target tokens of successful windows
    busy_s: float                   # wall time the tokens rate is taken over
    attempted: int
    failed: int
    nlls: list[float]               # eval: NLL of each complete pass; train: train_nll per call
    valid_nlls: list[float] = field(default_factory=list)

    @property
    def tokens_per_s(self) -> float:
        return self.tokens / self.busy_s if self.busy_s > 0 else 0.0


def eval_loop(model, stream, seconds: float, trace: Trace | None = None) -> LoopResult:
    """Whole stateful evaluation passes over ``stream`` until ``seconds``
    have passed, each pass as ``training.evaluate`` does it:
    ``forward_lm(tape=None)`` then ``cross_entropy_perplexity`` per window.
    A window that raises or yields a non-finite NLL counts as failed."""
    window_s, pass_nlls = [], []
    tokens = attempted = failed = 0
    start = time.perf_counter()
    while True:
        state, total, count, complete = None, 0.0, 0, True
        for batch in stream:
            if trace is not None:
                trace.window = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                with span(trace, "nn.forward"):
                    out = forward_lm(model, batch.inputs, tape=None, state=state)
                with span(trace, "nn.ce"):
                    nll, _ = cross_entropy_perplexity(out.logits, batch.targets)
                if not math.isfinite(nll):
                    raise FloatingPointError(f"non-finite window NLL {nll}")
            except Exception:
                _report_exception(f"evaluation window {attempted}")
                failed += 1
                state, complete = None, False
                continue
            window_s.append(time.perf_counter() - t0)
            if trace is not None:
                batch_rows = out.logits.shape[0] * out.logits.shape[1]
                trace.count("nn.proj_madds", batch_rows * model.proj_w.value.size)
            state = out.state
            total += nll * batch.targets.size
            count += batch.targets.size
            tokens += batch.targets.size
        if complete:
            pass_nlls.append(total / count)
        if time.perf_counter() - start >= seconds:
            break
    return LoopResult(window_s, tokens, time.perf_counter() - start, attempted, failed, pass_nlls)


def train_loop(w: Workload, prep: Prepared, seconds: float,
               trace: Trace | None = None) -> LoopResult:
    """One-epoch ``train_model`` calls, each from the parameters set-up
    built, until ``seconds`` have passed and at least one call ran.
    Each call's wall time includes its end-of-epoch validation window."""
    model = prep.model
    params = model.parameters()
    cfg = w.train_config()
    window_s, nlls, valid_nlls = [], [], []
    tokens = attempted = failed = 0
    busy = 0.0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        _restore(params, prep.initial)
        attempted += w.windows
        t0 = time.perf_counter()
        try:
            history = train_model(model, prep.train_ids, prep.valid_ids, cfg,
                                  teacher=prep.teacher, cov_x=prep.cov_x, cov_h=prep.cov_h)
        except Exception:
            _report_exception("train_model")
            failed += w.windows
            continue
        elapsed = time.perf_counter() - t0
        busy += elapsed
        window_s.append(elapsed / w.windows)
        tokens += w.windows * w.batch_size * w.unroll
        nlls.append(history[-1].train_nll)
        valid_nlls.append(history[-1].valid_nll)
    return LoopResult(window_s, tokens, busy, attempted, failed, nlls, valid_nlls)


def oracle_check(model, seed: int, checks: Checks):
    """Each stack's ``prepare`` apply against ``reconstruct(train) @ x`` on a
    seeded probe batch."""
    rng = np.random.default_rng(seed)
    for name in ("wx", "wh"):
        lin = getattr(model, name)
        probe = rng.standard_normal((model.arch.batch_size, lin.in_dim))
        got = lin.prepare(None)(Var(probe)).value
        want = probe @ reconstruct(lin.to_train()).T
        rel = _rel_diff(got, want)
        checks.record(f"{name} apply == reconstruct(train) @ x", rel <= ORACLE_RTOL,
                      f"relative difference {rel:.2e}, tolerance {ORACLE_RTOL:g}")


def load_reference() -> dict:
    if not REFERENCE_FILE.is_file():
        return {}
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_key(w: Workload) -> str:
    return f"{w.name}@{w.fingerprint()}"


def nll_check(w: Workload, seed: int, nll: float, checks: Checks):
    """The NLL is finite and, where one is recorded for this configuration
    and seed, equals the recorded reference within ``NLL_REFERENCE_RTOL``."""
    checks.record("nll is finite", math.isfinite(nll), f"{nll!r}")
    ref = load_reference().get(reference_key(w), {}).get(str(seed))
    if ref is None:
        print(f"perfbench: no recorded NLL for {reference_key(w)} seed {seed}; "
              "reference check skipped")
        return
    rel = abs(nll - ref) / abs(ref)
    checks.record("nll == recorded reference", rel <= NLL_REFERENCE_RTOL,
                  f"{nll!r} vs {ref!r}, relative {rel:.2e}, tolerance {NLL_REFERENCE_RTOL:g}")


def loop_checks(w: Workload, prep: Prepared, loop: LoopResult, checks: Checks):
    """Bitwise agreement of the timed loop with the library's own loops."""
    first = loop.nlls[0] if loop.nlls else math.nan
    checks.record("NLL repeats bitwise across passes/calls",
                  bool(loop.nlls) and all(v == first for v in loop.nlls),
                  f"{len(loop.nlls)} values")
    if w.kind == "eval":
        want, _ = evaluate(prep.model, prep.eval_ids)
        checks.record("eval loop NLL == training.evaluate", first == want,
                      f"{first!r} vs {want!r}")
    elif loop.valid_nlls and loop.failed == 0:
        # the model holds the parameters the last train_model call left
        want, _ = evaluate(prep.model, prep.valid_ids)
        checks.record("evaluate(valid) == EpochStats.valid_nll", loop.valid_nlls[-1] == want,
                      f"{loop.valid_nlls[-1]!r} vs {want!r}")


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str, str]]      # name -> (value, unit, note)
    attempted: int
    failed: int
    checks: Checks
    notes: list[str] = field(default_factory=list)


def _loop_for(w: Workload, prep: Prepared, seconds: float, trace: Trace | None = None):
    with proxied(prep.model, trace):
        if w.kind == "eval":
            return eval_loop(prep.model, prep.eval_stream, seconds, trace)
        return train_loop(w, prep, seconds, trace)


def _warm_up(w: Workload, prep: Prepared):
    """One untimed window, so first-touch allocation is not timed."""
    if w.kind == "eval":
        batch = next(iter(prep.eval_stream))
        forward_lm(prep.model, batch.inputs, tape=None)


def run_timed(w: Workload, seed: int, seconds: float, workdir: Path) -> Outcome:
    """The untraced run: every end-to-end metric."""
    checks = Checks()
    train = w.kind == "train"
    # the set-ups are split around the timed loop so that their median does
    # not come from a single slow phase of a shared machine
    before = w.setup_reps // 2
    prep, setup_s = run_setups(w, seed, workdir, checks, before, with_teacher=train)
    _warm_up(w, prep)
    loop = _loop_for(w, prep, seconds)
    loop_checks(w, prep, loop, checks)
    oracle_check(prep.model, seed, checks)
    prep = None
    setup_s += run_setups(w, seed, workdir, checks, w.setup_reps - before, with_teacher=train)[1]
    nll = loop.nlls[0] if loop.nlls else math.nan
    nll_check(w, seed, nll, checks)
    n = len(loop.window_s)
    window_ms = 1e3 * np.asarray(loop.window_s)
    metrics = {
        "tokens_per_s": (loop.tokens_per_s, "tok/s", f"{loop.tokens} tokens"),
        "setup_s": (statistics.median(setup_s), "s",
                    "median of " + ", ".join(f"{v:.3f}" for v in setup_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
        "nll": (nll, "nat/tok", "eval NLL" if w.kind == "eval" else "EpochStats.train_nll"),
    }
    # Window percentiles are printed but are not benchmark metrics. A shared
    # host alternates between a fast and a slow state for seconds at a time,
    # so window times are bimodal and their median jumps between the two
    # states from run to run; tokens_per_s, a mean, moves smoothly. p90 only
    # where at least ten windows lie beyond it.
    notes = [f"window_ms_p50 = {np.median(window_ms):.4f} ms (n={n})"] if n else []
    if n >= 100:
        notes.append(f"window_ms_p90 = {np.percentile(window_ms, 90):.4f} ms (n={n})")
    return Outcome(metrics, loop.attempted + len(checks.results), loop.failed + checks.failed,
                   checks, notes)


def replay(w: Workload, prep: Prepared, trace: Trace) -> tuple[list[float], float, float]:
    """Replay ``train_model``'s window from its public calls, with a span
    around each stage. Returns per-window data losses, the last pre-clip
    gradient norm and the end-of-epoch validation NLL."""
    model = prep.model
    cfg = w.train_config()
    params = model.parameters()
    state, losses, norm = None, [], 0.0
    trace.phase = "replay"
    with proxied(model, trace):
        for k, batch in enumerate(make_batches(prep.replay_ids, w.batch_size, w.unroll)):
            trace.window = k
            model.zero_grads()
            tape = Tape()
            with trace.span("nn.forward"):
                out = forward_lm(model, batch.inputs, tape, state=state)
            trace.count("nn.proj_madds",
                        out.logits.shape[0] * out.logits.shape[1] * model.proj_w.value.size)
            with trace.span("nn.ce"):
                ce = sequence_nll(tape, out, batch.targets)
            with trace.span("distill.kd_penalty"):
                pen_x = kd_penalty(tape, prep.teacher.wx, model.wx.dense_var(tape),
                                   cfg.distill.lam, prep.cov_x)
                pen_h = kd_penalty(tape, prep.teacher.wh, model.wh.dense_var(tape),
                                   cfg.distill.lam, prep.cov_h)
                penalty = ag.add(tape, pen_x, pen_h)
            loss = total_loss(tape, ce, penalty)
            trace.count("autograd.tape_records", len(tape))
            with trace.span("autograd.backward"):
                ag.backward(tape, loss)
            with trace.span("training.clip"):
                norm = clip_gradients(params, cfg.clip)
            with trace.span("training.optimizer"):
                for p in params:
                    if p.grad is not None:
                        p.value -= cfg.lr * p.grad
            losses.append(float(ce.value))
            state = out.state
        trace.phase, trace.window = "replay-eval", 0
        with trace.span("training.evaluate"):
            valid_nll, _ = evaluate(model, prep.valid_ids)
    return losses, norm, valid_nll


def replay_check(w: Workload, prep: Prepared, trace: Trace, checks: Checks):
    """Replay the training windows, then run ``train_model`` from the same
    parameters; losses, gradient norm and parameters must agree."""
    params = prep.model.parameters()
    _restore(params, prep.initial)
    losses, norm, valid_nll = replay(w, prep, trace)
    replayed = _snapshot(params)
    _restore(params, prep.initial)
    stats = train_model(prep.model, prep.replay_ids, prep.valid_ids, w.train_config(),
                        teacher=prep.teacher, cov_x=prep.cov_x, cov_h=prep.cov_h)[-1]
    size = w.batch_size * w.unroll
    replay_nll = sum(v * size for v in losses) / (size * len(losses))
    worst = max(
        abs(replay_nll - stats.train_nll) / abs(stats.train_nll),
        abs(valid_nll - stats.valid_nll) / abs(stats.valid_nll),
        abs(norm - stats.grad_norm) / max(abs(stats.grad_norm), 1e-300),
        max(_rel_diff(a, p.value) for a, p in zip(replayed, params)))
    checks.record("training replay == train_model", worst <= REPLAY_RTOL,
                  f"worst relative difference {worst:.2e} over losses, norm and parameters, "
                  f"tolerance {REPLAY_RTOL:g}")


def count_checks(model, trace: Trace, phase: str, seed: int, checks: Checks) -> dict:
    """Counted multiply-adds of each stack through ``contract``'s kernels,
    checked against ``cost_model``; returns the per-window counts."""
    rng = np.random.default_rng(seed)
    counts = {"contract.build_madds": 0}
    for name in ("wx", "wh"):
        lin = getattr(model, name)
        train, fact = lin.to_train(), lin.fact
        probe = rng.standard_normal(fact.n_cols)
        build, apply_one = OpCounter(), OpCounter()
        if lin.kind == "mps":
            pair = build_factor_pair(train, build)
            mps_matvec(pair, probe, apply_one)
            report = cost_model(fact, (train.row_ranks, train.col_ranks), "mps")
            build_madds = build.madds
        else:
            mpo_matvec(train, probe, counter=build)
            mpo_matvec(train, probe, cache=reconstruct(train), counter=apply_one)
            report = cost_model(fact, train.ranks, "mpo")
            build_madds = build.madds - apply_one.madds
        checks.record(f"{name} counted build == cost_model.build_ops",
                      build_madds == report.build_ops, f"{build_madds} vs {report.build_ops}")
        rows = int(trace.median_count(f"{name}.rows", phase))
        madds = rows * apply_one.madds
        checks.record(f"nn.{name}_madds == rows x cost_model.matvec_ops",
                      madds == rows * report.matvec_ops,
                      f"{rows} rows x {apply_one.madds} vs {report.matvec_ops}")
        counts[f"nn.{name}_madds"] = madds
        prepares = int(trace.median_count(f"{name}.prepare_calls", phase))
        counts["contract.build_madds"] += prepares * build_madds
    return counts


def run_traced(w: Workload, seed: int, seconds: float, workdir: Path) -> Outcome:
    """The traced run: every per-layer metric plus the tracing overhead.

    Half the time runs the loop untraced and half traced, so the overhead is
    measured in one process. The teacher and covariance pass run on every
    workload here, so the training replay can time every layer everywhere.
    """
    checks = Checks()
    trace = Trace()
    prep, _ = run_setups(w, seed, workdir, checks, w.setup_reps, trace, with_teacher=True)
    _warm_up(w, prep)
    base = _loop_for(w, prep, seconds / 2)
    trace.phase = "loop"
    traced = _loop_for(w, prep, seconds / 2, trace)
    loop_checks(w, prep, traced, checks)
    replay_check(w, prep, trace, checks)
    oracle_check(prep.model, seed, checks)
    nll_check(w, seed, traced.nlls[0] if traced.nlls else math.nan, checks)
    # eval workloads report their forward layers from the evaluation loop;
    # train_model has no hook inside, so training reports them from the replay
    fwd = "loop" if w.kind == "eval" else "replay"
    counts = count_checks(prep.model, trace, fwd, seed, checks)
    setup_s = {name: statistics.median(trace.per_window_seconds(name, "setup"))
               for name in ("data.corpus", "data.encode", "nn.build_model", "modelfile.save",
                            "modelfile.load", "training.collect_inputs", "distill.covariance")}
    collect_prepares = (statistics.median(
        a + b for a, b in zip(trace.per_window_count("wx.prepare_calls", "setup"),
                              trace.per_window_count("wh.prepare_calls", "setup")))
        / (2 * w.cov_windows))
    overhead = 100.0 * (base.tokens_per_s / traced.tokens_per_s - 1.0)

    def ms(name, phase=fwd, self_time=False):
        return (trace.median_ms(name, phase, self_time), "ms", f"median per window, {phase}")

    def count(value, note="per window"):
        return (float(value), "count", note)

    metrics = {
        "data.corpus_s": (setup_s["data.corpus"], "s", "median of set-ups"),
        "data.encode_s": (setup_s["data.encode"], "s", "median of set-ups"),
        "nn.build_model_s": (setup_s["nn.build_model"], "s", "median of set-ups"),
        "modelfile.save_s": (setup_s["modelfile.save"], "s", "median of set-ups"),
        "modelfile.load_s": (setup_s["modelfile.load"], "s", "median of set-ups"),
        "modelfile.bytes": count(prep.model_bytes, "model file size"),
        "training.collect_inputs_s": (setup_s["training.collect_inputs"], "s",
                                      f"{w.cov_windows} teacher windows"),
        "training.collect_prepares_per_window": count(
            collect_prepares, "prepare calls per stack per window; 1 would be no waste"),
        "distill.covariance_s": (setup_s["distill.covariance"], "s", "both stacks"),
        "nn.prepare_ms": ms("nn.prepare"),
        "contract.build_madds": count(counts["contract.build_madds"]),
        "nn.wx_apply_ms": ms("nn.wx_apply"),
        "nn.wh_apply_ms": ms("nn.wh_apply"),
        "nn.apply_calls": count(trace.median_count("nn.apply_calls", fwd)),
        "nn.wx_madds": count(counts["nn.wx_madds"]),
        "nn.wh_madds": count(counts["nn.wh_madds"]),
        "nn.forward_ms": ms("nn.forward"),
        "nn.forward_self_ms": ms("nn.forward", self_time=True),
        "nn.proj_madds": count(trace.median_count("nn.proj_madds", fwd)),
        "nn.ce_ms": ms("nn.ce"),
        "autograd.tape_records": count(trace.median_count("autograd.tape_records", "replay")),
        "autograd.backward_ms": ms("autograd.backward", "replay"),
        "distill.kd_penalty_ms": ms("distill.kd_penalty", "replay"),
        "nn.dense_var_calls": count(trace.median_count("nn.dense_var_calls", "replay")),
        "training.clip_ms": ms("training.clip", "replay"),
        "training.optimizer_ms": ms("training.optimizer", "replay"),
        "training.evaluate_ms": ms("training.evaluate", "replay-eval"),
        "bench.trace_overhead_pct": (overhead, "%", f"untraced {base.tokens_per_s:.2f} vs "
                                                    f"traced {traced.tokens_per_s:.2f} tok/s"),
    }
    attempted = base.attempted + traced.attempted + len(checks.results)
    failed = base.failed + traced.failed + checks.failed
    return Outcome(metrics, attempted, failed, checks)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        run = run_traced if trace else run_timed
        return run(w, seed, seconds, Path(tmp))


def reference_nll(w: Workload, seed: int) -> float:
    """The NLL a timed run reports for ``seed``, computed once without timing."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        checks = Checks()
        prep = setup(w, seed, Path(tmp), checks, with_teacher=(w.kind == "train"))
        if w.kind == "eval":
            return evaluate(prep.model, prep.eval_ids)[0]
        return train_model(prep.model, prep.train_ids, prep.valid_ids, w.train_config(),
                           teacher=prep.teacher, cov_x=prep.cov_x,
                           cov_h=prep.cov_h)[-1].train_nll
