"""Command-line surface: ``ttlstm train|eval|bench|info``.

Exit codes: 0 success, 2 configuration error (also an argument outside its
domain, such as a corpus too short for one window, and a file that cannot
be read or written; an output path that names a directory, or lies in one
that does not exist, exits 2 before any work), 3 file-format error,
4 numeric failure. All commands accept ``--threads`` (default 1); the
thread count is exported to the BLAS layer before numpy loads, which is
why the heavy imports below live inside the command handlers.

The knowledge-distillation protocol is two invocations:

    ttlstm train --config dense.cfg --corpus train.txt --out teacher.ttlm
    ttlstm train --config student.cfg --corpus train.txt \
                 --teacher teacher.ttlm --out student.ttlm

For ``distill=kda`` the second one passes the teacher over its own training
split first, for the covariances of the vectors each gate stack multiplies
(``training.stack_covariances``); the pass merges them window by window, so
its memory does not grow with the split.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys
import time

from .errors import ConfigError, DomainError, FormatError, NumericError

# the largest vocab_size, embed_dim or hidden_dim a config may ask for:
# ModelArch factors each stack size by trial division up to its square root
MAX_SIZE = 2**31 - 1
# the most cores per chain a config may ask for: every stack size is at most
# 4 * MAX_SIZE < 2**33, so it has at most 32 prime factors, and any further
# core would have extent 1
MAX_FACTORS = 32

_CONFIG_DEFAULTS: dict[str, str] = {
    "vocab_size": "10000",
    "embed_dim": "",
    "hidden_dim": "",
    "unroll": "35",
    "batch_size": "20",
    "representation": "dense",
    "factors": "2",
    "rank": "0",
    "target_rate": "0",
    "init": "gaussian-variance-matched",
    "wx_row_dims": "",
    "wx_col_dims": "",
    "wh_row_dims": "",
    "wh_col_dims": "",
    "optimizer": "sgd",
    "lr": "1.0",
    "epochs": "1",
    "clip": "5.0",
    "distill": "none",
    "lambda": "0.0",
    "valid_fraction": "0.1",
    "seed": "0",
}


def read_config(path) -> tuple[dict[str, str], str]:
    r"""Parse ``key=value`` lines (``#`` starts a comment); unknown or repeated keys are rejected.
    Lines end only at ``\n``, ``\r\n`` and ``\r``, as universal-newline reading gives them."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: repeated config key {key!r}")
        values[key] = value
    values = {**_CONFIG_DEFAULTS, **values}
    config_hash = hashlib.sha256(
        "".join(f"{k}={values[k]}\n" for k in sorted(values)).encode()).hexdigest()[:12]
    return values, config_hash


def _number(cfg: dict[str, str], key: str, kind=int):
    """``cfg[key]`` parsed as ``kind`` (int or float); a ``ConfigError``
    naming the key if it is not a finite number of that kind."""
    try:
        value = kind(cfg[key])
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"config key {key!r} must be {what}, got {cfg[key]!r}")
    return value


def _dims(cfg: dict[str, str], key: str):
    try:
        return tuple(int(v) for v in cfg[key].split(",") if v) or None
    except ValueError:
        raise ConfigError(f"config key {key!r} must be comma-separated integers, "
                          f"got {cfg[key]!r}") from None


_DIMS_KEYS = ("wx_row_dims", "wx_col_dims", "wh_row_dims", "wh_col_dims")


def _build_arch(cfg: dict[str, str], vocab_size: int):
    from .contract import pick_rank
    from .nn import ModelArch

    rep = cfg["representation"]
    fields = dict(
        vocab_size=vocab_size, embed_dim=_number(cfg, "embed_dim"),
        hidden_dim=_number(cfg, "hidden_dim"), representation=rep,
        n_factors=_number(cfg, "factors"), init=cfg["init"],
        unroll=_number(cfg, "unroll"), batch_size=_number(cfg, "batch_size"),
        **{key: _dims(cfg, key) for key in _DIMS_KEYS},
    )
    for key in ("vocab_size", "embed_dim", "hidden_dim"):
        if fields[key] > MAX_SIZE:
            raise ConfigError(f"config key {key!r} must be at most {MAX_SIZE}, "
                              f"got {fields[key]}")
    if not 1 <= fields["n_factors"] <= MAX_FACTORS:
        raise ConfigError(f"config key 'factors' must lie in [1, {MAX_FACTORS}], "
                          f"got {fields['n_factors']}")
    # a dense stack has no cores to factor or draw: these keys off their
    # ModelArch defaults would go unread
    ignored = [key for key, field in (("factors", "n_factors"), ("init", "init"),
                                      *((k, k) for k in _DIMS_KEYS))
               if rep == "dense" and fields[field] != getattr(ModelArch, field)]
    if ignored:
        raise ConfigError(f"a dense model ignores config keys {', '.join(map(repr, ignored))}")
    rank, target = _number(cfg, "rank"), _number(cfg, "target_rate", float)
    if rep == "dense" and (rank or target):
        raise ConfigError("a dense model takes neither 'rank' nor 'target_rate'")
    if rank >= 1 and target:
        raise ConfigError("config keys 'rank' and 'target_rate' exclude each other")
    if rep != "dense" and rank < 1:
        if target <= 1.0:
            raise ConfigError("tensor-train stacks need rank >= 1 or target_rate > 1")
        # the factorization does not depend on the rank, so any rank >= 1 plans it
        rank = pick_rank(target, ModelArch(**fields, rank=1).wx_fact(), rep)
    return ModelArch(**fields, rank=rank)


def _read_corpus(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc}") from exc


def _vocab_path(model_path) -> str:
    return str(model_path) + ".vocab"


def _vocab_sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_model_and_vocab(path):
    from .data import load_vocab
    from .modelfile import load_model

    model, manifest = load_model(path)
    vocab_file = _vocab_path(path)
    if not os.path.exists(vocab_file):
        raise ConfigError(f"vocab file {vocab_file} not found next to the model")
    expected = manifest["vocab_sha256"]
    if expected and _vocab_sha(vocab_file) != expected:
        raise ConfigError(f"vocab file {vocab_file} does not match the model manifest")
    vocab = load_vocab(vocab_file)
    if vocab.size != model.vocab_size:
        raise ConfigError(f"vocab file {vocab_file} has {vocab.size} tokens, "
                          f"the model has {model.vocab_size}")
    return model, vocab, manifest


def _split_ids(ids, valid_fraction: float):
    cut = int(round(ids.size * (1.0 - valid_fraction)))
    cut = max(1, min(ids.size - 1, cut))
    return ids[:cut], ids[cut:]


def _check_output_dirs(args) -> None:
    """Fail before any work if an output file (``--out``, the ``.vocab``
    file next to it, ``--records``) names an existing directory or lies in
    a directory that does not exist."""
    out = getattr(args, "out", None)
    paths = ([out, _vocab_path(out)] if out is not None else []) + [args.records]
    for path in (str(p) for p in paths if p is not None):
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"cannot write {path}: no directory {folder}")


def cmd_train(args) -> int:
    from .data import build_vocab, encode_stream, save_vocab
    from .distill import DistillConfig, TeacherWeights
    from .modelfile import RunRecord, append_records, save_model
    from .nn import build_model
    from .training import TrainConfig, stack_covariances, train_model

    cfg, cfg_hash = read_config(args.config)
    seed, seed_from = ((args.seed, "--seed") if args.seed is not None
                       else (_number(cfg, "seed"), "config key 'seed'"))
    if seed < 0:
        raise ConfigError(f"{seed_from} must be >= 0, got {seed}")
    # every check that reads only the config runs before any file is read;
    # the vocabulary size, which may come from the teacher, is set after
    arch = _build_arch(cfg, vocab_size=1)
    valid_fraction = _number(cfg, "valid_fraction", float)
    if not 0.0 < valid_fraction < 1.0:
        raise ConfigError(f"config key 'valid_fraction' must lie in (0, 1), got {valid_fraction}")
    distill = DistillConfig(cfg["distill"], _number(cfg, "lambda", float))
    train_cfg = TrainConfig(
        optimizer=cfg["optimizer"], lr=_number(cfg, "lr", float),
        epochs=_number(cfg, "epochs"), clip=_number(cfg, "clip", float), distill=distill)
    if distill.active and not args.teacher:
        raise ConfigError("distillation requires a teacher (--teacher)")
    text = _read_corpus(args.corpus)

    teacher = teacher_weights = None
    if args.teacher:
        teacher, vocab, _ = _load_model_and_vocab(args.teacher)
        teacher_weights = TeacherWeights.from_model(teacher, source=str(args.teacher))
    else:
        vocab = build_vocab(text, _number(cfg, "vocab_size"))

    ids = encode_stream(text, vocab)
    train_ids, valid_ids = _split_ids(ids, valid_fraction)
    arch = dataclasses.replace(arch, vocab_size=vocab.size)
    if teacher is not None:
        if (arch.embed_dim, arch.hidden_dim) != (teacher.arch.embed_dim, teacher.arch.hidden_dim):
            raise ConfigError("teacher and student embed/hidden dimensions differ")
    model = build_model(arch, seed=seed)

    cov_x = cov_h = None
    if distill.mode == "kda" and distill.active:
        cov_x, cov_h = stack_covariances(teacher, train_ids)
    del teacher     # the student needs only its weights and the covariances

    records: list[RunRecord] = []

    def on_epoch(stats):
        for metric, value in (("train_perplexity", stats.train_ppl),
                              ("valid_perplexity", stats.valid_ppl)):
            records.append(RunRecord(
                command="train", metric=metric, value=value, config_hash=cfg_hash,
                representation=arch.representation, rank=arch.rank,
                compression_rate=model.gate_compression_rate(), lam=distill.lam))
        print(f"epoch {stats.epoch}: train ppl {stats.train_ppl:.3f} "
              f"valid ppl {stats.valid_ppl:.3f} lr {stats.lr:g}")

    try:
        history = train_model(model, train_ids, valid_ids, train_cfg,
                              teacher=teacher_weights, cov_x=cov_x, cov_h=cov_h,
                              epoch_callback=on_epoch)
    except NumericError:
        records.append(RunRecord(
            command="train", metric="numeric_error", value=float("nan"),
            config_hash=cfg_hash, representation=arch.representation, rank=arch.rank,
            compression_rate=model.gate_compression_rate(), lam=distill.lam))
        if args.records:
            append_records(args.records, records)
        raise

    vocab_file = _vocab_path(args.out)
    save_vocab(vocab, vocab_file)
    save_model(model, args.out, vocab_sha256=_vocab_sha(vocab_file), train_meta={
        "optimizer": cfg["optimizer"], "lr": cfg["lr"], "epochs": cfg["epochs"],
        "clip": cfg["clip"], "distill_mode": distill.mode,
        "distill_lambda": repr(distill.lam),
    })
    if args.records:
        append_records(args.records, records)
    print(f"saved {args.out} (validation perplexity {history[-1].valid_ppl:.3f})")
    return 0


def cmd_eval(args) -> int:
    from .data import encode_stream
    from .modelfile import RunRecord, append_records
    from .training import evaluate

    model, vocab, manifest = _load_model_and_vocab(args.model)
    ids = encode_stream(_read_corpus(args.corpus), vocab)
    nll, ppl = evaluate(model, ids)
    print(f"test perplexity {ppl:.4f} (nll {nll:.4f})")
    if args.records:
        append_records(args.records, [RunRecord(
            command="eval", metric="test_perplexity", value=ppl,
            representation=model.arch.representation, rank=model.arch.rank,
            compression_rate=model.gate_compression_rate(),
            lam=float(manifest.get("distill_lambda", "0")))])
    return 0


def cmd_bench(args) -> int:
    import numpy as np

    from .data import encode_stream
    from .modelfile import RunRecord, append_records
    from .training import evaluate

    runs, discard = int(args.runs), int(args.discard)
    if not 0 <= discard < runs:
        raise ConfigError(f"need 0 <= discard < runs, got discard {discard} and runs {runs}")
    model, vocab, _ = _load_model_and_vocab(args.model)
    ids = encode_stream(_read_corpus(args.corpus), vocab)
    arch = model.arch
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        evaluate(model, ids)        # one pass: the recurrence, the output layer and its softmax-NLL
        seconds.append(time.perf_counter() - start)
    kept = np.array(seconds[discard:])
    mean, sd = float(kept.mean()), float(kept.std(ddof=1)) if kept.size > 1 else 0.0
    rate = model.gate_compression_rate()
    print(f"forward pass: mean {mean:.4f} s, sd {sd:.4f} s over {kept.size} runs "
          f"({arch.representation}, compression {rate:.2f})")
    if args.records:
        append_records(args.records, [RunRecord(
            command="bench", metric="forward_seconds", value=mean, value_sd=sd,
            representation=arch.representation, rank=arch.rank, compression_rate=rate)])
    return 0


def _info_rows(args):
    import numpy as np

    from .contract import CostReport, cost_model
    from .data import encode_stream
    from .training import stack_covariances

    rows = []
    eig = {}
    chains = {}
    if args.model and args.config:
        raise ConfigError("info takes --model or --config, not both")
    if args.model:
        model, vocab, _ = _load_model_and_vocab(args.model)
        arch = model.arch
        if arch.representation != "dense":
            # the stored chains, which need not be uniform at arch.rank
            for name, lin in (("wx", model.wx), ("wh", model.wh)):
                train = lin.to_train()
                chains[name] = ((train.row_ranks, train.col_ranks) if lin.kind == "mps"
                                else train.ranks)
        if args.corpus:
            ids = encode_stream(_read_corpus(args.corpus), vocab)
            for stack, s in zip(("wx", "wh"), stack_covariances(model, ids)):
                eig[stack] = tuple(float(e) for e in np.linalg.eigvalsh(s)[[0, -1]])
    elif args.corpus:
        raise ConfigError("info --corpus needs --model")
    elif args.config:
        cfg, _ = read_config(args.config)
        arch = _build_arch(cfg, _number(cfg, "vocab_size"))
    else:
        raise ConfigError("info needs --model or --config")
    rep, rank = arch.representation, arch.rank

    for stack, fact in (("wx", arch.wx_fact()), ("wh", arch.wh_fact())):
        lo, hi = eig.get(stack, ("", ""))
        full = fact.n_rows * fact.n_cols
        report = (CostReport("dense", 1, 0, full, full, full, 0, full) if rep == "dense"
                  else cost_model(fact, chains.get(stack, rank), rep))
        # the gain column: multiply-adds per input row of a dense product over this stack's
        rows.append({"matrix": stack, "kind": report.kind, "n_factors": report.n_factors,
                     "rank": report.max_rank, "storage": report.storage,
                     "storage_bound": report.storage_bound, "matvec_ops": report.matvec_ops,
                     "build_ops": report.build_ops, "ops_bound": report.matvec_ops_bound,
                     "compression_rate": full / report.storage,
                     "efficiency_gain": full / report.matvec_ops,
                     "s_eigen_min": lo, "s_eigen_max": hi})
    return rows


def cmd_info(args) -> int:
    import csv

    rows = _info_rows(args)
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if args.records:
        from .modelfile import RunRecord, append_records

        append_records(args.records, [RunRecord(
            command="info", metric=f"{row['matrix']}_storage", value=float(row["storage"]),
            representation=str(row["kind"]), rank=int(row["rank"]),
            compression_rate=float(row["compression_rate"])) for row in rows])
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttlstm",
        description="Tensor-train compressed LSTM language models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--threads", type=int, default=1,
                       help="BLAS thread count (default 1; >1 forfeits bitwise determinism)")
        p.add_argument("--records", default=None, help="append run records to this CSV")

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--teacher", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    common(p_train)

    p_eval = sub.add_parser("eval", help="test-set perplexity of a model")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--corpus", required=True)
    common(p_eval)

    p_bench = sub.add_parser("bench", help="time full evaluation passes")
    p_bench.add_argument("--model", required=True)
    p_bench.add_argument("--corpus", required=True)
    p_bench.add_argument("--runs", type=int, default=12)
    p_bench.add_argument("--discard", type=int, default=2)
    common(p_bench)

    p_info = sub.add_parser("info", help="storage/operation cost report as CSV")
    p_info.add_argument("--model", default=None)
    p_info.add_argument("--config", default=None)
    p_info.add_argument("--corpus", default=None)
    common(p_info)
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval, "bench": cmd_bench, "info": cmd_info}
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            # numpy loads lazily inside the commands, so assigning here takes
            # effect and overrides a value already in the environment
            os.environ[var] = str(args.threads)
        _check_output_dirs(args)
        return handlers[args.command](args)
    except (ConfigError, DomainError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
