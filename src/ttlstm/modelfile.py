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
trip is bitwise. Unknown manifest keys are rejected.

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
from .nn import GATE_ORDER, LayerNormParams, ModelArch, TTLinear, TTLstmModel
from .autograd import Parameter
from .ttrain import MpoTrain, MpsTrain, ShapeFactorization

__all__ = ["MAGIC", "save_model", "load_model", "RunRecord",
           "RUN_RECORD_FIELDS", "append_records", "read_records"]

MAGIC = b"TTLM1\n"
FORMAT_VERSION = 1

_SCALAR_KEYS = {
    "format_version", "vocab_size", "embed_dim", "hidden_dim", "unroll",
    "batch_size", "gate_order", "seed", "vocab_sha256", "tensors",
    "init_kind", "optimizer", "lr", "epochs", "clip", "distill_mode",
    "distill_lambda",
}
_STACK_KEYS = {"kind", "row_dims", "col_dims", "row_ranks", "col_ranks", "ranks"}


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


def save_model(model: TTLstmModel, path, vocab_sha256: str = "",
               train_meta: dict | None = None):
    """Write the model file; bitwise reproducible for identical parameters."""
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
    for key, value in (train_meta or {}).items():
        if key not in _SCALAR_KEYS:
            raise FormatError(f"train_meta key {key!r} is not a manifest key")
        manifest[key] = str(value)
    tensors = [(p.name, p.value) for p in model.parameters()]
    manifest["tensors"] = ";".join(
        f"{name}:{'x'.join(str(d) for d in arr.shape)}" for name, arr in tensors)
    text = "".join(f"{k}={v}\n" for k, v in sorted(manifest.items()))
    blob = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


def _parse_manifest(blob: bytes, base_offset: int) -> dict[str, str]:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("manifest is not valid UTF-8", base_offset) from exc
    manifest: dict[str, str] = {}
    for line in text.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"manifest line without '=': {line!r}", base_offset)
        key, value = line.split("=", 1)
        if key in manifest:
            raise FormatError(f"duplicate manifest key {key!r}", base_offset)
        manifest[key] = value
    for key in manifest:
        if key in _SCALAR_KEYS:
            continue
        prefix, _, rest = key.partition("_")
        if prefix in ("wx", "wh") and rest in _STACK_KEYS:
            continue
        raise FormatError(f"unknown manifest key {key!r}", base_offset)
    for required in ("format_version", "vocab_size", "embed_dim", "hidden_dim", "unroll",
                     "batch_size", "gate_order", "init_kind", "seed", "vocab_sha256",
                     "tensors", "wx_kind", "wh_kind"):
        if required not in manifest:
            raise FormatError(f"missing manifest key {required!r}", base_offset)
    if manifest["format_version"] != str(FORMAT_VERSION):
        raise FormatError(f"unsupported format version {manifest['format_version']}", base_offset)
    if manifest["gate_order"] != ",".join(GATE_ORDER):
        raise FormatError(f"unsupported gate order {manifest['gate_order']!r}", base_offset)
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


def _check_dense_shapes(arch: ModelArch, tensors: dict[str, np.ndarray]):
    """The tensors outside the gate stacks must match the architecture."""
    v, e, h = arch.vocab_size, arch.embed_dim, arch.hidden_dim
    expected = {"embedding": (v, e), "gate_bias": (4 * h,),
                "ln_x.gain": (4, h), "ln_x.bias": (4, h), "ln_h.gain": (4, h), "ln_h.bias": (4, h),
                "proj.weight": (h, v), "proj.bias": (v,)}
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise FormatError(f"{name} declared {tensors[name].shape}, architecture needs {shape}")


def _rebuild_stack(prefix: str, man: dict[str, str], tensors: dict[str, np.ndarray],
                   out_dim: int, in_dim: int) -> TTLinear:
    """The stack from the tensors declared under ``{prefix}.``, in order;
    ``load_model`` checks their names against the ones ``TTLinear`` gives.
    The stack's manifest keys must be exactly the ones its kind writes."""
    kind = man[f"{prefix}_kind"]
    arrays = [arr for name, arr in tensors.items() if name.startswith(f"{prefix}.")]
    if kind == "dense":
        if len(arrays) != 1 or arrays[0].shape != (out_dim, in_dim):
            raise FormatError(f"{prefix} declares {[a.shape for a in arrays]}, "
                              f"architecture needs one {(out_dim, in_dim)} weight")
        lin = TTLinear.dense(arrays[0], name=prefix)
    else:
        fact = ShapeFactorization(_ints(man[f"{prefix}_row_dims"]),
                                  _ints(man[f"{prefix}_col_dims"]))
        if kind == "mps":
            train = MpsTrain(fact, arrays[:fact.n], arrays[fact.n:])
        else:
            train = MpoTrain(fact, arrays)
        lin = TTLinear.from_train(train, name=prefix)
    written = _stack_manifest(prefix, lin)
    for key in man:
        if key.startswith(f"{prefix}_") and key not in written:
            raise FormatError(f"{kind} stacks do not write {key}")
    # validates the chains against the declared ranks
    for key, value in written.items():
        if man[key] != value:
            raise FormatError(f"{key}={man[key]} disagrees with the stored cores ({value})")
    return lin


def load_model(path) -> tuple[TTLstmModel, dict[str, str]]:
    """Read a model file back; inverse of :func:`save_model` (bitwise).

    Each tensor is read straight into its own array, so a load holds
    about one copy of the file at its peak."""
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
        manifest = _parse_manifest(fh.read(man_len), head_end)

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
        _check_dense_shapes(arch, tensors)
        wx = _rebuild_stack("wx", manifest, tensors, 4 * arch.hidden_dim, arch.embed_dim)
        wh = _rebuild_stack("wh", manifest, tensors, 4 * arch.hidden_dim, arch.hidden_dim)
        model = TTLstmModel(
            arch,
            Parameter(tensors["embedding"], "embedding"),
            wx, wh,
            Parameter(tensors["gate_bias"], "gate_bias"),
            LayerNormParams(Parameter(tensors["ln_x.gain"], "ln_x.gain"),
                            Parameter(tensors["ln_x.bias"], "ln_x.bias")),
            LayerNormParams(Parameter(tensors["ln_h.gain"], "ln_h.gain"),
                            Parameter(tensors["ln_h.bias"], "ln_h.bias")),
            Parameter(tensors["proj.weight"], "proj.weight"),
            Parameter(tensors["proj.bias"], "proj.bias"),
            seed=int(manifest["seed"]),
        )
    except FormatError:
        raise
    except KeyError as exc:
        raise FormatError(f"missing manifest key or tensor {exc.args[0]!r}", man_end) from exc
    except ValueError as exc:
        raise FormatError(f"inconsistent manifest: {exc}", man_end) from exc
    if [name for name, _ in declared] != [p.name for p in model.parameters()]:
        raise FormatError("declared tensors differ from the ones the architecture stores", head_end)
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


def read_records(path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))
