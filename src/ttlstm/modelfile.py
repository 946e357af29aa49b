"""Binary model serialization and the CSV run-record format.

Model file layout:

    bytes 0..5   magic ``TTLM1\\n``
    bytes 6..13  little-endian uint64: manifest byte length
    manifest     UTF-8 ``key=value`` lines (architecture, representation,
                 factorizations and ranks per stack, gate order, training
                 provenance, seed, vocab hash, ordered tensor declarations)
    blobs        float64 little-endian values, row-major with the last
                 index fastest, in exactly the declared tensor order

Every tensor blob is ``8 * element_count`` bytes, so a save/load round
trip is bitwise. A file loads only if its manifest is the one
``save_model`` writes for the model its tensors build, plus optional
training provenance keys: every other key, value, spelling or line order
raises :class:`FormatError`, so every file that loads re-saves
byte-identical.

Run records are plain CSV with a single header row and dot-decimal
numbers; files are append-only.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .nn import GATE_ORDER, ModelArch, TTLinear, TTLstmModel, _assemble
from .ttrain import MpoTrain, MpsTrain, ShapeFactorization

__all__ = ["MAGIC", "save_model", "load_model", "RunRecord",
           "RUN_RECORD_FIELDS", "append_records"]

MAGIC = b"TTLM1\n"
FORMAT_VERSION = 1

# training provenance: written when ``save_model`` is given it, never required
_TRAIN_KEYS = {"optimizer", "lr", "epochs", "clip", "distill_mode", "distill_lambda"}


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v != "")


def _render(values) -> str:
    return ",".join(str(int(v)) for v in values)


def _stack_manifest(prefix: str, lin: TTLinear) -> dict[str, str]:
    out = {f"{prefix}_kind": lin.kind}
    if lin.kind == "dense":
        return out
    fact = lin.fact
    out[f"{prefix}_row_dims"] = _render(fact.row_dims)
    out[f"{prefix}_col_dims"] = _render(fact.col_dims)
    train = lin.to_train()
    if lin.kind == "mps":
        out[f"{prefix}_row_ranks"] = _render(train.row_ranks)
        out[f"{prefix}_col_ranks"] = _render(train.col_ranks)
    else:
        out[f"{prefix}_ranks"] = _render(train.ranks)
    return out


def _manifest(model: TTLstmModel, vocab_sha256: str, train_meta: dict) -> dict[str, str]:
    """The manifest ``save_model`` writes for ``model``: the one statement
    of the schema, which ``load_model`` holds every file to."""
    arch = model.arch
    manifest: dict[str, str] = {
        "format_version": str(FORMAT_VERSION),
        "vocab_size": str(arch.vocab_size),
        "embed_dim": str(arch.embed_dim),
        "hidden_dim": str(arch.hidden_dim),
        "unroll": str(arch.unroll),
        "batch_size": str(arch.batch_size),
        "gate_order": ",".join(GATE_ORDER),
        "init_kind": arch.init,
        "seed": str(model.seed),
        "vocab_sha256": vocab_sha256,
    }
    manifest.update(_stack_manifest("wx", model.wx))
    manifest.update(_stack_manifest("wh", model.wh))
    for key, value in train_meta.items():
        if key not in _TRAIN_KEYS:
            raise FormatError(f"train_meta key {key!r} is not a manifest key")
        manifest[key] = str(value)
    manifest["tensors"] = ";".join(
        f"{p.name}:{'x'.join(str(d) for d in p.value.shape)}" for p in model.parameters())
    for key, value in manifest.items():
        if "\n" in value:
            raise FormatError(f"manifest value {key}={value!r} holds a line break")
    try:
        finite = math.isfinite(float(manifest.get("distill_lambda", 0)))
    except ValueError:
        finite = False
    if not finite:
        raise FormatError(f"distill_lambda={manifest['distill_lambda']!r} is not a finite number")
    return manifest


def _manifest_text(manifest: dict[str, str]) -> bytes:
    return "".join(f"{k}={v}\n" for k, v in sorted(manifest.items())).encode("utf-8")


def save_model(model: TTLstmModel, path, vocab_sha256: str = "",
               train_meta: dict | None = None):
    """Write the model file; bitwise reproducible for identical parameters.
    ``train_meta`` holds provenance keys only (optimizer, lr, epochs, clip,
    distill_mode, distill_lambda). A manifest value holding ``\\n``, or a
    ``distill_lambda`` that is not a finite number, raises
    :class:`FormatError`: the load would refuse it."""
    blob = _manifest_text(_manifest(model, vocab_sha256, train_meta or {}))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for p in model.parameters():
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").data)


def _parse_manifest(blob: bytes, base_offset: int) -> dict[str, str]:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("manifest is not valid UTF-8", base_offset) from exc
    manifest: dict[str, str] = {}
    for line in text.split("\n"):      # not splitlines: a value may hold \x85 or \f
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"manifest line without '=': {line!r}", base_offset)
        key, value = line.split("=", 1)
        if key in manifest:
            raise FormatError(f"duplicate manifest key {key!r}", base_offset)
        manifest[key] = value
    for required in ("format_version", "tensors"):
        if required not in manifest:
            raise FormatError(f"missing manifest key {required!r}", base_offset)
    if manifest["format_version"] != str(FORMAT_VERSION):
        raise FormatError(f"unsupported format version {manifest['format_version']}", base_offset)
    return manifest


def _arch_from_manifest(man: dict[str, str]) -> ModelArch:
    def dims(key):
        return _ints(man[key]) if key in man else None

    rep = man["wx_kind"]
    if man["wh_kind"] != rep:
        raise FormatError(f"wx_kind={rep} and wh_kind={man['wh_kind']} differ; "
                          "a model has one representation")
    rank, n_factors = 0, 2
    if rep != "dense":
        chains = ("wx_row_ranks", "wx_col_ranks") if rep == "mps" else ("wx_ranks",)
        rank = max(r for key in chains for r in _ints(man[key]))
        n_factors = len(_ints(man["wx_row_dims"]))
    return ModelArch(
        vocab_size=int(man["vocab_size"]),
        embed_dim=int(man["embed_dim"]),
        hidden_dim=int(man["hidden_dim"]),
        representation=rep,
        n_factors=n_factors,
        rank=rank,
        init=man["init_kind"],
        unroll=int(man["unroll"]),
        batch_size=int(man["batch_size"]),
        wx_row_dims=dims("wx_row_dims"), wx_col_dims=dims("wx_col_dims"),
        wh_row_dims=dims("wh_row_dims"), wh_col_dims=dims("wh_col_dims"),
    )


def _rebuild_stack(prefix: str, kind: str, tensors: dict[str, np.ndarray],
                   fact: ShapeFactorization) -> TTLinear:
    """The ``kind`` stack from the tensors declared under ``{prefix}.``, in
    order; ``MpsTrain`` and ``MpoTrain`` validate the chains they form."""
    arrays = [arr for name, arr in tensors.items() if name.startswith(f"{prefix}.")]
    if kind == "dense":
        shape = (fact.n_rows, fact.n_cols)
        if len(arrays) != 1 or arrays[0].shape != shape:
            raise FormatError(f"{prefix} declares {[a.shape for a in arrays]}, "
                              f"architecture needs one {shape} weight")
        return TTLinear.dense(arrays[0], name=prefix)
    if kind == "mps":
        return TTLinear.from_train(MpsTrain(fact, arrays[:fact.n], arrays[fact.n:]), name=prefix)
    return TTLinear.from_train(MpoTrain(fact, arrays), name=prefix)


def load_model(path) -> tuple[TTLstmModel, dict[str, str]]:
    """Read a model file back; inverse of :func:`save_model` (bitwise).

    The framing, the tensor declarations and blobs, and the shapes are
    checked while the model is built; the manifest must then be exactly
    the one :func:`save_model` writes for that model and the file's
    provenance keys, else :class:`FormatError` names the first key that
    differs. Each tensor is read straight into its own array, so a load
    holds about one copy of the file at its peak."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(MAGIC) + 8)
        if head[: len(MAGIC)] != MAGIC:
            raise FormatError("bad magic; not a model file", 0)
        head_end = len(MAGIC) + 8
        if size < head_end:
            raise FormatError("truncated header", size)
        (man_len,) = struct.unpack("<Q", head[len(MAGIC):])
        man_end = head_end + man_len
        if size < man_end:
            raise FormatError("truncated manifest", size)
        blob = fh.read(man_len)
        manifest = _parse_manifest(blob, head_end)

        declared: list[tuple[str, tuple[int, ...]]] = []
        for item in manifest["tensors"].split(";"):
            name, _, shape_text = item.partition(":")
            dims = shape_text.split("x")
            if not all(d.isascii() and d.isdigit() and int(d) > 0 for d in dims):
                raise FormatError(f"tensor declaration {item!r} needs positive integer extents",
                                  head_end)
            if name in (n for n, _ in declared):
                raise FormatError(f"duplicate tensor declaration {name!r}", head_end)
            declared.append((name, tuple(int(d) for d in dims)))

        tensors: dict[str, np.ndarray] = {}
        offset = man_end
        for name, shape in declared:
            nbytes = 8 * math.prod(shape)
            if offset + nbytes > size:
                raise FormatError(f"truncated blob for tensor {name!r}", offset)
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr.data.cast("B")) != nbytes:
                raise FormatError(f"truncated blob for tensor {name!r}", offset)
            # min and max propagate NaN and reach +-inf without a temporary array
            if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise FormatError(f"non-finite values in tensor {name!r}", offset)
            tensors[name] = arr
            offset += nbytes
    if offset != size:
        raise FormatError("trailing bytes after the last declared tensor", offset)

    try:
        arch = _arch_from_manifest(manifest)
        model = _assemble(arch, tensors,
                          lambda prefix, fact: _rebuild_stack(prefix, arch.representation,
                                                              tensors, fact),
                          int(manifest["seed"]))
        expected = _manifest(model, manifest["vocab_sha256"],
                             {k: v for k, v in manifest.items() if k in _TRAIN_KEYS})
    except FormatError:
        raise
    except KeyError as exc:
        raise FormatError(f"missing manifest key or tensor {exc.args[0]!r}", man_end) from exc
    except ValueError as exc:
        raise FormatError(f"inconsistent manifest: {exc}", man_end) from exc
    for key in sorted(manifest.keys() | expected.keys()):
        if manifest.get(key) != expected.get(key):
            raise FormatError(f"manifest key {key!r} reads {manifest.get(key)!r}; the model its "
                              f"tensors build writes {expected.get(key)!r}", head_end)
    if blob != _manifest_text(expected):
        raise FormatError("manifest lines are not one per key in sorted order", head_end)
    return model, manifest


RUN_RECORD_FIELDS = ("command", "config_hash", "representation", "rank",
                     "compression_rate", "lambda", "metric", "value",
                     "value_sd", "timestamp")


@dataclass
class RunRecord:
    """One benchmark/experiment result row."""

    command: str
    metric: str
    value: float
    config_hash: str = ""
    representation: str = ""
    rank: int = 0
    compression_rate: float = 1.0
    lam: float = 0.0
    value_sd: float = 0.0
    timestamp: float = field(default_factory=time.time)

    def row(self) -> dict[str, str]:
        return {
            "command": self.command,
            "config_hash": self.config_hash,
            "representation": self.representation,
            "rank": repr(int(self.rank)),
            "compression_rate": repr(float(self.compression_rate)),
            "lambda": repr(float(self.lam)),
            "metric": self.metric,
            "value": repr(float(self.value)),
            "value_sd": repr(float(self.value_sd)),
            "timestamp": repr(float(self.timestamp)),
        }


def append_records(path, records: list[RunRecord]):
    """Append rows, writing the header only when the file starts empty."""
    need_header = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RUN_RECORD_FIELDS)
        if need_header:
            writer.writeheader()
        for record in records:
            writer.writerow(record.row())
