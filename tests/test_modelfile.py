import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlstm.errors import FormatError
from ttlstm.modelfile import (
    MAGIC,
    RUN_RECORD_FIELDS,
    RunRecord,
    append_records,
    load_model,
    read_records,
    save_model,
)
from ttlstm.nn import ModelArch, TTLinear, build_model


def _arch(rep="mps", rank=3):
    return ModelArch(vocab_size=17, embed_dim=8, hidden_dim=8,
                     representation=rep, n_factors=2, rank=rank,
                     unroll=4, batch_size=2)


@pytest.mark.parametrize("rep,rank", [("dense", 0), ("mps", 3), ("mpo", 2)])
def test_round_trip_bitwise(tmp_path, rep, rank):
    model = build_model(_arch(rep, rank), seed=5)
    path = tmp_path / "m.ttlm"
    save_model(model, path, vocab_sha256="abc123")
    loaded, manifest = load_model(path)
    assert manifest["vocab_sha256"] == "abc123"
    assert loaded.arch.representation == rep
    originals = model.parameters()
    restored = loaded.parameters()
    assert len(originals) == len(restored)
    for a, b in zip(originals, restored):
        assert a.value.tobytes() == b.value.tobytes()


_LN_AND_PROJ = "gate_bias:32;ln_x.gain:4x8;ln_x.bias:4x8;ln_h.gain:4x8;ln_h.bias:4x8;" \
    "proj.weight:8x17;proj.bias:17"


@pytest.mark.parametrize("rep,stacks", [
    ("dense", "wx.weight:32x8;wh.weight:32x8"),
    ("mps", "wx.row0:1x4x3;wx.row1:3x8x3;wx.col0:3x2x3;wx.col1:3x4x1;"
            "wh.row0:1x4x3;wh.row1:3x8x3;wh.col0:3x2x3;wh.col1:3x4x1"),
    ("mpo", "wx.core0:1x8x3;wx.core1:3x32x1;wh.core0:1x8x3;wh.core1:3x32x1"),
])
def test_tensor_declaration_is_pinned(tmp_path, rep, stacks):
    # the file format: every tensor's name, shape and place in the blob order
    path = tmp_path / "m.ttlm"
    save_model(build_model(_arch(rep, 3 if rep != "dense" else 0), seed=1), path)
    _, manifest = load_model(path)
    assert manifest["tensors"] == f"embedding:17x8;{stacks};{_LN_AND_PROJ}"


def test_save_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.ttlm", tmp_path / "b.ttlm"
    save_model(build_model(_arch(), seed=9), p1, vocab_sha256="x")
    save_model(build_model(_arch(), seed=9), p2, vocab_sha256="x")
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ttlm"
    path.write_bytes(b"NOPE!\n" + b"\x00" * 32)
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert err.value.offset == 0


def test_truncated_blob_names_tensor_and_offset(tmp_path):
    path = tmp_path / "m.ttlm"
    save_model(build_model(_arch(), seed=1), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert "proj.bias" in str(err.value)
    assert err.value.offset is not None


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.ttlm"
    save_model(build_model(_arch(), seed=1), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_model(path)


def test_unknown_manifest_key_rejected(tmp_path):
    # wx_col_perm: an MPO pairs row factor k with column factor k, so a
    # column permutation is no stack key
    saved = tmp_path / "m.ttlm"
    save_model(build_model(_arch(), seed=1), saved)
    for line in (b"mystery_key=1\n", b"wx_col_perm=1,0\n"):
        raw = bytearray(saved.read_bytes())
        (man_len,) = struct.unpack("<Q", raw[len(MAGIC): len(MAGIC) + 8])
        head = len(MAGIC) + 8
        manifest = raw[head: head + man_len] + line
        raw[len(MAGIC): len(MAGIC) + 8] = struct.pack("<Q", len(manifest))
        path = tmp_path / "edited.ttlm"
        path.write_bytes(bytes(raw[:head]) + bytes(manifest) + bytes(raw[head + man_len:]))
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert line.split(b"=")[0].decode() in str(err.value)


def test_dim_blob_inconsistency_rejected(tmp_path):
    path = tmp_path / "m.ttlm"
    save_model(build_model(_arch(), seed=1), path)
    raw = bytearray(path.read_bytes())
    (man_len,) = struct.unpack("<Q", raw[len(MAGIC): len(MAGIC) + 8])
    head = len(MAGIC) + 8
    manifest = raw[head: head + man_len].decode()
    # inflate the embedding's declared extent: blob lengths no longer line up
    manifest = manifest.replace("embedding:17x8", "embedding:18x8")
    blob = manifest.encode()
    raw[len(MAGIC): len(MAGIC) + 8] = struct.pack("<Q", len(blob))
    path.write_bytes(bytes(raw[:head]) + blob + bytes(raw[head + man_len:]))
    with pytest.raises(FormatError):
        load_model(path)


def _edit_file(path, edit_manifest, blobs_suffix=b""):
    """Rewrite a model file's manifest through ``edit_manifest`` (fixing the
    length header) and append ``blobs_suffix`` after the tensor blobs."""
    raw = path.read_bytes()
    head = len(MAGIC) + 8
    (man_len,) = struct.unpack("<Q", raw[len(MAGIC): head])
    manifest = edit_manifest(raw[head: head + man_len].decode()).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest
                     + raw[head + man_len:] + blobs_suffix)


@pytest.mark.parametrize("old,new,message", [
    ("embedding:17x8", "embedding:-17x8", "positive integer extents"),
    ("embedding:17x8", "embedding:17xeight", "positive integer extents"),
    ("embedding:17x8", "embedding:17x", "positive integer extents"),
    ("embedding:17x8", "embedding:0x8", "positive integer extents"),
    ("vocab_size=17", "vocab_size=19", "embedding declared (17, 8)"),
    ("wh_row_ranks=1,3,3", "wh_row_ranks=1,3,9", "wh_row_ranks"),
    ("init_kind=gaussian", "init_kind=gaussion", "init kind"),
    ("unroll=4", "unroll=0", "must be positive"),
    ("batch_size=2", "batch_size=0", "must be positive"),
])
def test_inconsistent_manifest_rejected(tmp_path, old, new, message):
    path = tmp_path / "m.ttlm"
    save_model(build_model(_arch(), seed=1), path)
    _edit_file(path, lambda text: text.replace(old, new))
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert message in str(err.value)


def test_duplicate_tensor_declaration_rejected(tmp_path):
    path = tmp_path / "m.ttlm"
    save_model(build_model(_arch(), seed=1), path)
    _edit_file(path, lambda text: text.replace(";proj.bias:17", ";proj.bias:17;proj.bias:17"),
               np.ones(17).tobytes())
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert "duplicate tensor declaration 'proj.bias'" in str(err.value)


def test_undeclared_extra_tensor_rejected(tmp_path):
    path = tmp_path / "m.ttlm"
    save_model(build_model(_arch(), seed=1), path)
    _edit_file(path, lambda text: text.replace(";proj.bias:17", ";proj.bias:17;spare:2"),
               np.ones(2).tobytes())
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_rejected(tmp_path, value):
    path = tmp_path / "m.ttlm"
    save_model(build_model(_arch(), seed=1), path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.array([value], dtype="<f8").tobytes()    # last entry of proj.bias
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert "proj.bias" in str(err.value)


def test_mixed_stack_kinds_rejected(tmp_path):
    model = build_model(_arch("mps"), seed=1)
    model.wh = TTLinear.dense(np.zeros((32, 8)), name="wh")
    path = tmp_path / "m.ttlm"
    save_model(model, path)
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert "wh_kind=dense" in str(err.value)


@pytest.fixture(scope="module")
def wide_vocab_model():
    # V = 3000, E = H = 64: the embedding and the projection dominate a 3.1 MB file
    arch = ModelArch(vocab_size=3000, embed_dim=64, hidden_dim=64, representation="mps",
                     rank=8, unroll=4, batch_size=2)
    return build_model(arch, seed=2)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_peak_memory_is_about_one_copy_of_the_file(tmp_path, wide_vocab_model):
    path = tmp_path / "m.ttlm"
    save_model(wide_vocab_model, path)
    size = path.stat().st_size
    assert size > 3_000_000
    peak = _traced_peak(lambda: load_model(path))
    assert peak <= 1.25 * size, f"load peak {peak} B for a {size} B file"


def test_save_copies_no_tensor(tmp_path, wide_vocab_model):
    largest = max(p.value.nbytes for p in wide_vocab_model.parameters())
    peak = _traced_peak(lambda: save_model(wide_vocab_model, tmp_path / "m.ttlm"))
    assert peak < largest / 2, f"save peak {peak} B, largest tensor {largest} B"


def test_loaded_parameters_own_writeable_contiguous_memory(tmp_path, wide_vocab_model):
    path = tmp_path / "m.ttlm"
    save_model(wide_vocab_model, path)
    loaded, _ = load_model(path)
    for p in loaded.parameters():
        flags = p.value.flags
        assert flags.owndata and flags.writeable and flags.c_contiguous, p.name


@pytest.fixture(scope="module")
def valid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.ttlm"
    arch = ModelArch(vocab_size=5, embed_dim=4, hidden_dim=4, representation="mpo",
                     n_factors=2, rank=2, unroll=3, batch_size=2)
    save_model(build_model(arch, seed=3), path, vocab_sha256="ab")
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncated_or_byte_changed_file_loads_or_raises_format_error(valid_file, data):
    path, raw = valid_file
    if data.draw(st.booleans(), label="truncate"):
        changed = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        byte = data.draw(st.integers(0, 255), label="byte")
        changed = raw[:pos] + bytes([byte]) + raw[pos + 1:]
    mutated = path.with_name("mutated.ttlm")
    mutated.write_bytes(changed)
    try:
        load_model(mutated)
    except FormatError:
        pass


class TestRunRecords:
    def test_header_written_once_and_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        append_records(path, [RunRecord("train", "valid_perplexity", 12.5, rank=3)])
        append_records(path, [RunRecord("eval", "test_perplexity", 11.25,
                                        representation="mps", compression_rate=1.8)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(RUN_RECORD_FIELDS)
        assert sum(1 for line in lines if line.startswith("command")) == 1
        rows = read_records(path)
        assert len(rows) == 2
        assert float(rows[0]["value"]) == 12.5
        assert rows[1]["representation"] == "mps"
        assert float(rows[1]["compression_rate"]) == 1.8

    def test_dot_decimal_rendering(self, tmp_path):
        path = tmp_path / "records.csv"
        append_records(path, [RunRecord("bench", "forward_seconds", 1.39, value_sd=0.08)])
        text = path.read_text()
        assert "1.39" in text and "0.08" in text and "," in text
