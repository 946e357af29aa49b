import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import five_op_kd_penalty
import ttlstm.autograd as ag
from ttlstm.autograd import Parameter, Tape, grad_check
from ttlstm.data import build_vocab, encode_stream, make_batches, synthetic_corpus
from ttlstm.distill import (DistillConfig, KdTarget, TeacherWeights, accumulate_covariance,
                            total_loss)
from ttlstm.errors import ConfigError, DomainError, NumericError
import ttlstm.nn as nn
from ttlstm.nn import ModelArch, TTLinear, build_model, forward_lm, sequence_nll
import ttlstm.training as training
from ttlstm.training import TrainConfig, clip_gradients, evaluate, train_model, collect_stack_inputs


def _setup(n_tokens=4000, vocab_cap=60, seed=0):
    text = synthetic_corpus(n_tokens, vocab_size=40, seed=seed)
    vocab = build_vocab(text, vocab_cap)
    ids = encode_stream(text, vocab)
    cut = int(ids.size * 0.85)
    return vocab, ids[:cut], ids[cut:]


def _arch(vocab, rep="dense", rank=0, unroll=8, batch=4):
    return ModelArch(vocab_size=vocab.size, embed_dim=12, hidden_dim=12,
                     representation=rep, n_factors=2, rank=rank,
                     unroll=unroll, batch_size=batch)


class TestTrainModel:
    def test_one_epoch_beats_initial_perplexity(self):
        vocab, train_ids, valid_ids = _setup()
        model = build_model(_arch(vocab), seed=2)
        _, initial = evaluate(model, valid_ids)
        train_model(model, train_ids, valid_ids, TrainConfig(lr=1.0, epochs=1))
        _, after = evaluate(model, valid_ids)
        assert after < initial

    def test_history_shape_and_monotone_progress(self):
        vocab, train_ids, valid_ids = _setup()
        model = build_model(_arch(vocab), seed=3)
        history = train_model(model, train_ids, valid_ids, TrainConfig(lr=1.0, epochs=3))
        assert [h.epoch for h in history] == [1, 2, 3]
        assert history[-1].train_ppl < history[0].train_ppl

    def test_same_seed_same_parameters_bitwise(self):
        vocab, train_ids, valid_ids = _setup()

        def run():
            model = build_model(_arch(vocab), seed=7)
            train_model(model, train_ids, valid_ids, TrainConfig(lr=1.0, epochs=1))
            return [p.value.copy() for p in model.parameters()]

        for a, b in zip(run(), run()):
            assert a.tobytes() == b.tobytes()

    def test_distill_requires_teacher(self):
        vocab, train_ids, valid_ids = _setup()
        model = build_model(_arch(vocab, "mps", rank=3), seed=1)
        cfg = TrainConfig(epochs=1, distill=DistillConfig("kdw", 1e-4))
        with pytest.raises(ConfigError):
            train_model(model, train_ids, valid_ids, cfg)

    def test_shape_incompatible_teacher_rejected(self):
        vocab, train_ids, valid_ids = _setup()
        model = build_model(_arch(vocab, "mps", rank=3), seed=1)
        bad_teacher = TeacherWeights(np.zeros((48, 10)), np.zeros((48, 12)))
        cfg = TrainConfig(epochs=1, distill=DistillConfig("kdw", 1e-4))
        with pytest.raises(ConfigError):
            train_model(model, train_ids, valid_ids, cfg, teacher=bad_teacher)

    def test_kdw_training_runs_and_penalty_pulls_toward_teacher(self):
        vocab, train_ids, valid_ids = _setup()
        teacher_model = build_model(_arch(vocab), seed=5)
        train_model(teacher_model, train_ids, valid_ids, TrainConfig(lr=1.0, epochs=1))
        teacher = TeacherWeights.from_model(teacher_model)

        def distance_after(lam):
            student = build_model(_arch(vocab, "mps", rank=4), seed=9)
            cfg = TrainConfig(lr=0.5, epochs=1, distill=DistillConfig("kdw", lam))
            train_model(student, train_ids, valid_ids, cfg, teacher=teacher)
            return float(np.sum((student.wx.reconstruct_matrix() - teacher.wx) ** 2))

        assert distance_after(0.05) < distance_after(0.0)

    def test_kda_requires_covariances(self):
        vocab, train_ids, valid_ids = _setup()
        model = build_model(_arch(vocab, "mps", rank=3), seed=1)
        teacher = TeacherWeights(np.zeros((48, 12)), np.zeros((48, 12)))
        cfg = TrainConfig(epochs=1, distill=DistillConfig("kda", 1e-4))
        with pytest.raises(ConfigError):
            train_model(model, train_ids, valid_ids, cfg, teacher=teacher)

    def test_non_finite_loss_aborts_with_numeric_error(self):
        vocab, train_ids, valid_ids = _setup()
        model = build_model(_arch(vocab), seed=2)
        model.embed.value[:] = np.inf
        reported = []
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            train_model(model, train_ids, valid_ids, TrainConfig(epochs=1),
                        epoch_callback=reported.append)
        assert reported == []       # the callback sees completed epochs only

    def test_validation_split_shorter_than_one_window_fails_before_training(self):
        vocab, train_ids, valid_ids = _setup()
        model = build_model(_arch(vocab, unroll=10, batch=8), seed=2)
        before = [p.value.copy() for p in model.parameters()]
        with pytest.raises(DomainError):
            train_model(model, train_ids, valid_ids[:50], TrainConfig(epochs=1))
        for a, p in zip(before, model.parameters()):
            assert a.tobytes() == p.value.tobytes(), p.name

    def test_non_finite_gradient_norm_aborts_before_the_update(self, monkeypatch):
        vocab, train_ids, valid_ids = _setup()
        model = build_model(_arch(vocab), seed=2)
        before = [p.value.copy() for p in model.parameters()]
        real_backward = training.ag.backward

        def poisoned(tape, loss):
            real_backward(tape, loss)
            model.proj_b.grad[0] = np.nan     # the loss itself stays finite

        monkeypatch.setattr(training.ag, "backward", poisoned)
        with pytest.raises(NumericError, match="gradient norm"):
            train_model(model, train_ids, valid_ids, TrainConfig(epochs=1))
        for a, p in zip(before, model.parameters()):
            assert a.tobytes() == p.value.tobytes(), p.name

    def test_lambda_zero_mode_none_identical_to_plain(self):
        vocab, train_ids, valid_ids = _setup()
        teacher = TeacherWeights(np.zeros((48, 12)), np.zeros((48, 12)))

        def run(cfg, **kw):
            model = build_model(_arch(vocab), seed=11)
            train_model(model, train_ids, valid_ids, cfg, **kw)
            return b"".join(p.value.tobytes() for p in model.parameters())

        plain = run(TrainConfig(epochs=1))
        none_mode = run(TrainConfig(epochs=1, distill=DistillConfig("none", 0.0)))
        zero_lam = run(TrainConfig(epochs=1, distill=DistillConfig("kdw", 0.0)), teacher=teacher)
        assert plain == none_mode == zero_lam


class TestOptimizerMechanics:
    def test_zero_gradients_leave_parameters_unchanged(self):
        vocab, train_ids, valid_ids = _setup()
        for opt in ("sgd", "adam"):
            model = build_model(_arch(vocab), seed=4)
            before = [p.value.copy() for p in model.parameters()]
            from ttlstm.training import _Adam, _Sgd

            cfg = TrainConfig(optimizer=opt)
            stepper = _Sgd(cfg) if opt == "sgd" else _Adam(cfg)
            for p in model.parameters():
                p.grad = np.zeros_like(p.value)
            stepper.step(model.parameters())
            for a, b in zip(before, model.parameters()):
                np.testing.assert_array_equal(a, b.value)

    def test_adam_allocates_its_moments_once(self, monkeypatch):
        """The first step makes each parameter's two moments; later steps
        allocate none."""
        rng = np.random.default_rng(6)
        params = [Parameter(rng.normal(size=shape), f"p{k}")
                  for k, shape in enumerate([(3, 4), (40,)])]
        stepper = training._Adam(TrainConfig(optimizer="adam", lr=0.01))
        zeros_like, calls = np.zeros_like, []
        monkeypatch.setattr(np, "zeros_like", lambda *a, **k: calls.append(a) or zeros_like(*a, **k))
        for step in range(2):
            calls.clear()
            for p in params:
                p.grad = rng.normal(size=p.value.shape)
            stepper.step(params)
            assert len(calls) == (2 * len(params) if step == 0 else 0)

    def test_sgd_step_is_bitwise_the_plain_update(self):
        # parameters of one row block and of several (a ragged last one),
        # a non-contiguous gradient and a parameter without a gradient
        rng = np.random.default_rng(5)
        params = [Parameter(rng.normal(size=shape), f"p{k}")
                  for k, shape in enumerate([(3, 4), (40,), (5, 6, 2), (2,), (300, 250),
                                             (7, 3, 3000)])]
        stepper = training._Sgd(TrainConfig(lr=0.37))
        for _ in range(3):
            for p in params:
                p.grad = rng.normal(size=p.value.shape)
            params[0].grad = rng.normal(size=(4, 3)).T
            params[3].grad = None
            want = [p.value - 0.37 * p.grad if p.grad is not None else p.value.copy()
                    for p in params]
            stepper.step(params)
            for p, w in zip(params, want):
                assert p.value.tobytes() == w.tobytes()

    def test_clip_rescales_to_bound(self):
        p = Parameter(np.zeros(4), "p")
        p.grad = np.full(4, 10.0)
        norm = clip_gradients([p], 5.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)

    def test_clip_norm_is_the_global_two_norm(self):
        rng = np.random.default_rng(3)
        params = [Parameter(np.zeros(shape), f"p{k}")
                  for k, shape in enumerate([(7, 5), (13,), (3, 4, 2)])]
        for p in params:
            p.grad = rng.normal(size=p.value.shape) * 1e3
        params[1].grad = params[1].grad[::-1]       # a non-contiguous view
        want = np.sqrt(sum(np.sum(p.grad ** 2) for p in params))
        assert abs(clip_gradients(params, 1e12) - want) <= 1e-12 * want

    def test_clip_scales_each_gradient_in_place(self):
        """A firing clip keeps every ``p.grad`` object and leaves it bitwise
        ``g * (clip / norm)``."""
        rng = np.random.default_rng(7)
        params = [Parameter(np.zeros(shape), f"p{k}")
                  for k, shape in enumerate([(7, 5), (13,), (3, 4, 2)])]
        for p in params:
            p.grad = rng.normal(size=p.value.shape) * 10
        grads = [p.grad for p in params]
        want = [g.copy() for g in grads]
        norm = clip_gradients(params, 0.5)
        assert norm > 0.5
        for p, g, w in zip(params, grads, want):
            assert p.grad is g
            assert g.tobytes() == (w * (0.5 / norm)).tobytes()

    def test_clip_and_sgd_step_allocate_no_gradient_sized_array(self):
        """A firing clip and an SGD step scale the gradients in place: the
        traced peak stays below a tenth of one gradient, and the parameters
        are bitwise ``value - lr * clipped``."""
        rng = np.random.default_rng(8)
        params = [Parameter(rng.normal(size=shape), f"p{k}")
                  for k, shape in enumerate([(300, 2000), (2000,), (7, 3, 50)])]
        for p in params:
            p.grad = rng.normal(size=p.value.shape)
        stepper = training._Sgd(TrainConfig(lr=0.37))
        want = [p.value.copy() for p in params]
        grads = [p.grad.copy() for p in params]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            norm = clip_gradients(params, 1.0)
            stepper.step(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert norm > 1.0
        assert peak < 0.1 * params[0].grad.nbytes
        for p, v, g in zip(params, want, grads):
            assert p.value.tobytes() == (v - 0.37 * (g * (1.0 / norm))).tobytes()

    def test_lr_halves_on_validation_stall(self):
        vocab, train_ids, valid_ids = _setup(n_tokens=1500)
        model = build_model(_arch(vocab), seed=6)
        # absurdly large lr guarantees no steady validation improvement
        history = train_model(model, train_ids, valid_ids,
                              TrainConfig(lr=64.0, epochs=4, clip=1.0))
        assert history[-1].lr < 64.0


def test_collect_stack_inputs_shapes():
    vocab, train_ids, _ = _setup(n_tokens=1200)
    model = build_model(_arch(vocab, unroll=5, batch=3), seed=8)
    xs, hs = collect_stack_inputs(model, train_ids, max_windows=4)
    assert xs.shape == (4 * 3 * 5, 12)
    assert hs.shape == (4 * 3 * 5, 12)
    # the first hidden input of the stream is the zero initial state
    np.testing.assert_array_equal(hs[0], np.zeros(12))


@pytest.mark.parametrize("rep,rank", [("dense", 0), ("mpo", 3)])
def test_collect_stack_inputs_matches_per_step_loop(rep, rank):
    """One forward per window gathers bitwise the rows a step-by-step
    stateful loop of one-step forwards (``T = 1``) sees, in the same
    order: within each window the embedded inputs batch-major and the
    entering hidden states time-major."""
    vocab, train_ids, _ = _setup(n_tokens=1200)
    arch = _arch(vocab, rep, rank, unroll=5, batch=3)
    model = build_model(arch, seed=8)
    xs, hs = collect_stack_inputs(model, train_ids, max_windows=4)
    want_x, want_h = [], []
    h = c = np.zeros((3, 12))
    for w, batch in enumerate(make_batches(train_ids, 3, 5)):
        if w == 4:
            break
        want_x.append(model.embed.value[batch.inputs.reshape(-1)])
        for t in range(5):
            want_h.append(h)
            h, c = forward_lm(model, batch.inputs[:, t:t + 1], state=(h, c)).state
    assert xs.tobytes() == np.concatenate(want_x).tobytes()
    assert hs.tobytes() == np.concatenate(want_h).tobytes()


@pytest.mark.parametrize("max_windows", [0, -1])
def test_collect_stack_inputs_needs_at_least_one_window(max_windows):
    vocab, train_ids, _ = _setup(n_tokens=1200)
    model = build_model(_arch(vocab, unroll=5, batch=3), seed=8)
    with pytest.raises(DomainError, match="max_windows"):
        collect_stack_inputs(model, train_ids, max_windows=max_windows)


@pytest.mark.parametrize("key,value", [("lr", np.nan), ("lr", np.inf), ("clip", np.nan),
                                       ("clip", np.inf), ("epochs", 1.5), ("epochs", 2.0),
                                       ("epochs", True), ("epochs", "2")])
def test_train_config_refuses_values_it_cannot_run(key, value):
    """A NaN clip would never clip (``norm > nan`` is false) and a float
    epoch count fails only inside ``train_model``: both are refused up front."""
    with pytest.raises(ConfigError):
        TrainConfig(**{key: value})


def test_train_config_takes_a_numpy_integer_epoch_count():
    assert TrainConfig(epochs=np.int64(2)).epochs == 2


def test_each_untaped_walk_runs_one_scan_per_window(monkeypatch):
    """``collect_stack_inputs``, ``stack_covariances`` and ``evaluate`` walk
    the stream with one untaped ``forward_lm`` per window: a limit of k
    windows runs exactly k scans, and a whole walk one per window."""
    vocab, train_ids, _ = _setup(n_tokens=1200)
    model = build_model(_arch(vocab, "mps", 3, unroll=5, batch=3), seed=8)
    n_windows = len(make_batches(train_ids, 3, 5))
    tapes = []
    scan = ag.lstm_scan
    monkeypatch.setattr(ag, "lstm_scan",
                        lambda tape, *args: tapes.append(tape) or scan(tape, *args))

    def scans(walk):
        tapes.clear()
        walk()
        assert all(tape is None for tape in tapes)
        return len(tapes)

    for k in (1, 2, 3):
        assert scans(lambda: collect_stack_inputs(model, train_ids, max_windows=k)) == k
    assert n_windows > 3
    assert scans(lambda: training.stack_covariances(model, train_ids)) == n_windows
    assert scans(lambda: evaluate(model, train_ids)) == n_windows


def test_collect_stack_inputs_runs_no_output_projection(monkeypatch):
    vocab, train_ids, _ = _setup(n_tokens=1200)
    model = build_model(_arch(vocab, "mps", 3, unroll=5, batch=3), seed=8)
    calls = []
    linear = ag._linear
    monkeypatch.setattr(ag, "_linear", lambda *args: calls.append(args) or linear(*args))
    collect_stack_inputs(model, train_ids, max_windows=2)
    assert calls == []
    forward_lm(model, next(iter(make_batches(train_ids, 3, 5))).inputs).logits
    assert len(calls) == 1


def test_only_the_output_layer_lays_the_hidden_states_out_batch_major(monkeypatch):
    """The teacher pass reads the scan's time-major hidden states as they
    are: ``collect_stack_inputs`` and ``stack_covariances`` run no ``(1, 0,
    2)`` transpose, and ``sequence_nll`` runs exactly one."""
    vocab, train_ids, _ = _setup(n_tokens=1200)
    model = build_model(_arch(vocab, "mps", 3, unroll=5, batch=3), seed=8)
    batch_major = []
    transpose = ag.transpose

    def spy(tape, a, axes=None):
        if axes is not None and tuple(axes) == (1, 0, 2):
            batch_major.append(tape)
        return transpose(tape, a, axes)

    monkeypatch.setattr(ag, "transpose", spy)
    collect_stack_inputs(model, train_ids, max_windows=2)
    training.stack_covariances(model, train_ids)
    assert batch_major == []
    batch = next(iter(make_batches(train_ids, 3, 5)))
    tape = Tape()
    sequence_nll(tape, forward_lm(model, batch.inputs, tape), batch.targets)
    assert batch_major == [tape]


def _window_fold(model, ids):
    """The teacher pass spelled out: each window's covariances, merged
    into the running pair left to right."""
    covs = None
    for rows in training._stack_input_windows(model, ids):
        window = [accumulate_covariance(r) for r in rows]
        covs = window if covs is None else [a.merge(b) for a, b in zip(covs, window)]
    return tuple(covs)


@pytest.mark.parametrize("rep,rank", [("dense", 0), ("mps", 3)])
def test_stack_covariances_is_bitwise_the_window_fold(rep, rank):
    vocab, train_ids, _ = _setup(n_tokens=1200)
    model = build_model(_arch(vocab, rep, rank, unroll=5, batch=3), seed=8)
    n_rows = len(make_batches(train_ids, 3, 5)) * 3 * 5
    got = training.stack_covariances(model, train_ids)
    want = _window_fold(model, train_ids)
    assert n_rows > 3 * 3 * 5 and len(got) == 2
    for g, w in zip(got, want):
        assert w.count == n_rows
        assert g.shape == (12, 12)
        assert g.tobytes() == w.matrix.tobytes()


def _kd_setup(rep, rank, mode, n_windows=2):
    """A student, a dense teacher, its covariances and a stream of exactly
    ``n_windows`` training windows."""
    vocab, train_ids, valid_ids = _setup()
    teacher_model = build_model(_arch(vocab), seed=5)
    teacher = TeacherWeights.from_model(teacher_model)
    xs, hs = collect_stack_inputs(teacher_model, train_ids, max_windows=3)
    cov_x, cov_h = accumulate_covariance(xs).matrix, accumulate_covariance(hs).matrix
    student = build_model(_arch(vocab, rep, rank), seed=9)
    ids = train_ids[:4 * (n_windows * 8 + 1)]
    cfg = TrainConfig(lr=0.5, epochs=1, clip=0.5, distill=DistillConfig(mode, 0.05))
    return student, ids, valid_ids, cfg, teacher, cov_x, cov_h


def _dense_penalty_replay(model, ids, cfg, teacher, cov_x, cov_h):
    """``train_model``'s SGD windows with the five-op graph of
    ``conftest.five_op_kd_penalty`` on each stack's dense matrix, taken from
    the window's factor list (``W``, or ``F G^T`` for an MPS pair): the
    penalty every stack kind paid before the one-record forms. Returns the
    parameters and each stack's penalty value per window."""
    params = model.parameters()
    sx, sh = (cov_x, cov_h) if cfg.distill.mode == "kda" else (None, None)
    state = None
    values = []
    for batch in make_batches(ids, model.arch.batch_size, model.arch.unroll):
        model.zero_grads()
        tape = Tape()
        out = forward_lm(model, batch.inputs, tape, state=state)
        ce = sequence_nll(tape, out, batch.targets)
        lam = cfg.distill.lam
        wx, wh = (fs[0] if len(fs) == 1 else ag.matmul(tape, *fs) for fs in out.factors)
        pens = (five_op_kd_penalty(tape, teacher.wx, wx, lam, sx),
                five_op_kd_penalty(tape, teacher.wh, wh, lam, sh))
        values += [float(pen.value) for pen in pens]
        ag.backward(tape, total_loss(tape, ce, ag.add(tape, *pens)))
        clip_gradients(params, cfg.clip)
        for p in params:
            p.value -= cfg.lr * p.grad
        state = out.state
    return [p.value for p in params], values


def _window_targets(teacher, cov_x, cov_h, distill):
    """The per-stack targets ``train_model`` builds for ``distill``."""
    sx, sh = (cov_x, cov_h) if distill.mode == "kda" else (None, None)
    return KdTarget.build(teacher.wx, sx), KdTarget.build(teacher.wh, sh)


class TestPenaltyDispatch:
    @pytest.mark.parametrize("rep,builds", [("mps", {"factor_pair": 2, "dense_matrix": 0}),
                                            ("mpo", {"factor_pair": 0, "dense_matrix": 2})])
    def test_a_kda_window_builds_each_stack_once(self, monkeypatch, rep, builds):
        """The forward pass and the penalty share one factor list per stack:
        one ``factor_pair`` per MPS stack, one ``dense_matrix`` per MPO
        stack, for a whole CE + kda window."""
        student, ids, _, cfg, teacher, cov_x, cov_h = _kd_setup(rep, 3, "kda", 1)
        targets = _window_targets(teacher, cov_x, cov_h, cfg.distill)
        calls = {name: 0 for name in builds}
        for name in builds:
            def spy(*args, _real=getattr(nn, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(nn, name, spy)
        batch = next(iter(make_batches(ids, 4, 8)))
        training._window_loss(student, Tape(), batch, targets, cfg.distill.lam, None)
        assert calls == builds

    @pytest.mark.parametrize("rep,records", [("mps", 25), ("mpo", 23), ("dense", 9)])
    def test_a_kda_window_records_a_fixed_number_of_ops(self, rep, records):
        """A CE + kda window records 25 ops for an MPS student, 23 for an MPO
        one and 9 for a dense one. Each stack's penalty is one record
        whatever its kind, where a five-op graph per dense or MPO stack made
        31 and 17. The scan takes both stacks' factor lists as
        ``TTLinear.factors`` builds them, where a transpose record per factor
        made an MPS window 29, and it forms the ``W_x`` product from the
        gathered rows itself, where a ``matmul`` per factor of the pair and a
        ``reshape`` made it 32."""
        student, ids, _, cfg, teacher, cov_x, cov_h = _kd_setup(
            rep, 0 if rep == "dense" else 3, "kda", 1)
        targets = _window_targets(teacher, cov_x, cov_h, cfg.distill)
        tape = Tape()
        batch = next(iter(make_batches(ids, 4, 8)))
        training._window_loss(student, tape, batch, targets, cfg.distill.lam, None)
        assert len(tape) == records

    @pytest.mark.parametrize("rep", ["mps", "mpo"])
    def test_window_loss_with_kda_penalty_passes_grad_check(self, rep):
        """Finite differences over a whole ``_window_loss``, CE plus the kda
        penalty on both stacks, from a carried state: each stack's factors
        feed the forward pass and the penalty."""
        arch = ModelArch(vocab_size=10, embed_dim=4, hidden_dim=4, representation=rep,
                         rank=2, unroll=3, batch_size=2)
        model = build_model(arch, seed=11)
        rng = np.random.default_rng(12)
        batch = next(iter(make_batches(rng.integers(0, 10, size=12), 2, 3)))
        state = (rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
        teacher = TeacherWeights(rng.normal(scale=0.5, size=(16, 4)),
                                 rng.normal(scale=0.5, size=(16, 4)))
        cov = accumulate_covariance(rng.normal(size=(30, 4))).matrix
        targets = _window_targets(teacher, cov, cov, DistillConfig("kda", 0.05))

        def build(tape):
            return training._window_loss(model, tape, batch, targets, 0.05, state)[0]

        assert grad_check(model.parameters(), build) < 1e-4

    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_mps_student_never_builds_its_dense_matrix(self, monkeypatch, mode):
        student, ids, valid_ids, cfg, teacher, cov_x, cov_h = _kd_setup("mps", 3, mode, 3)
        real_dense_var, real_build = TTLinear.dense_var, training.KdTarget.build
        builds = []

        def guarded(self, tape):
            if self.kind == "mps":
                raise AssertionError("dense_var called on an MPS stack")
            return real_dense_var(self, tape)

        def counted(teacher_w, cov=None):
            builds.append(cov)
            return real_build(teacher_w, cov)

        monkeypatch.setattr(TTLinear, "dense_var", guarded)
        monkeypatch.setattr(training.KdTarget, "build", counted)
        cfg.epochs = 2
        train_model(student, ids, valid_ids, cfg, teacher=teacher, cov_x=cov_x, cov_h=cov_h)
        # one target (S symmetrized if it is not) per stack per call, not per
        # window or epoch
        assert len(builds) == 2
        assert (builds[0] is None) == (mode == "kdw")

    @staticmethod
    def _trained_and_replayed(monkeypatch, rep, rank, mode):
        """Parameters after ``train_model`` and after the five-op replay from
        the same start, and each run's penalty values, stack by stack."""
        student, ids, valid_ids, cfg, teacher, cov_x, cov_h = _kd_setup(rep, rank, mode)
        initial = [p.value.copy() for p in student.parameters()]
        values = []

        def spy(*args, _real=training.stack_penalty):
            pen = _real(*args)
            values.append(float(pen.value))
            return pen

        monkeypatch.setattr(training, "stack_penalty", spy)
        train_model(student, ids, valid_ids, cfg, teacher=teacher, cov_x=cov_x, cov_h=cov_h)
        trained = [p.value.copy() for p in student.parameters()]
        for p, v in zip(student.parameters(), initial):
            p.value[...] = v
        replayed, replay_values = _dense_penalty_replay(student, ids, cfg, teacher, cov_x, cov_h)
        return trained, replayed, values, replay_values

    @pytest.mark.parametrize("rep,rank", [("dense", 0), ("mpo", 3)])
    def test_dense_and_mpo_students_keep_the_dense_penalty_bitwise(self, monkeypatch, rep,
                                                                   rank):
        """The one-record penalty on ``[W]`` gives the five-op graph's value
        bitwise. ``kdw`` training keeps its bits; ``kda`` reassociates the
        gradient, ``(2 lam g) (D S)`` against ``(lam g D) S``, so its
        parameters, and penalties after the first window, agree to 1e-10."""
        for mode in ("kdw", "kda"):
            trained, replayed, values, replay_values = self._trained_and_replayed(
                monkeypatch, rep, rank, mode)
            assert len(values) == len(replay_values) == 4
            if mode == "kdw":
                assert values == replay_values
                for got, want in zip(trained, replayed):
                    assert got.tobytes() == want.tobytes()
            else:
                assert values[:2] == replay_values[:2]
                np.testing.assert_allclose(values, replay_values, rtol=1e-10)
                for got, want in zip(trained, replayed):
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
            monkeypatch.undo()

    @pytest.mark.parametrize("mode", ["kdw", "kda"])
    def test_mps_student_trains_like_the_dense_penalty(self, monkeypatch, mode):
        trained, replayed, values, replay_values = self._trained_and_replayed(
            monkeypatch, "mps", 3, mode)
        np.testing.assert_allclose(values, replay_values, rtol=1e-10)
        for got, want in zip(trained, replayed):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("cov_x_dim,cov_h_dim", [(5, 12), (12, 5), (12, 0)])
    def test_kda_covariance_of_another_shape_rejected(self, cov_x_dim, cov_h_dim):
        student, ids, valid_ids, cfg, teacher, _, _ = _kd_setup("mps", 3, "kda")
        cov_x = np.eye(cov_x_dim)
        cov_h = np.eye(cov_h_dim) if cov_h_dim else np.ones(12)
        with pytest.raises(ConfigError, match="cov_x" if cov_x_dim != 12 else "cov_h"):
            train_model(student, ids, valid_ids, cfg, teacher=teacher, cov_x=cov_x, cov_h=cov_h)


@pytest.mark.parametrize("mode", ["none", "kdw", "kda"])
@pytest.mark.parametrize("rep,n_factors", [("dense", 2), ("mps", 1), ("mps", 2), ("mps", 3),
                                           ("mpo", 2), ("mpo", 3)])
def test_window_gradients_own_writeable_memory(rep, n_factors, mode):
    """``clip_gradients`` and ``_Sgd`` scale gradients in place, so after one
    window's ``backward`` no two parameter gradients share memory, none
    shares a parameter's value, and every one is writeable."""
    vocab, train_ids, _ = _setup()
    teacher_model = build_model(_arch(vocab), seed=5)
    xs, hs = collect_stack_inputs(teacher_model, train_ids, max_windows=2)
    cov_x, cov_h = accumulate_covariance(xs).matrix, accumulate_covariance(hs).matrix
    arch = ModelArch(vocab_size=vocab.size, embed_dim=12, hidden_dim=12, representation=rep,
                     n_factors=n_factors, rank=0 if rep == "dense" else 3, unroll=8,
                     batch_size=4)
    model = build_model(arch, seed=9)
    distill = DistillConfig(mode, 0.05)
    targets = (_window_targets(TeacherWeights.from_model(teacher_model), cov_x, cov_h, distill)
               if distill.active else None)
    batch = next(iter(make_batches(train_ids, 4, 8)))
    model.zero_grads()
    tape = Tape()
    loss, _, _ = training._window_loss(model, tape, batch, targets, distill.lam, None)
    ag.backward(tape, loss)
    params = model.parameters()
    assert all(p.grad is not None and p.grad.flags.writeable for p in params)
    for p, q in itertools.combinations(params, 2):
        assert not np.shares_memory(p.grad, q.grad), (p.name, q.name)
    for p, q in itertools.product(params, repeat=2):
        assert not np.shares_memory(p.grad, q.value), (p.name, q.name)
