import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlstm.data import (
    EOS_TOKEN,
    UNK_TOKEN,
    _word_list,
    build_vocab,
    encode_stream,
    load_vocab,
    make_batches,
    save_vocab,
    synthetic_corpus,
)
from ttlstm.errors import DomainError, FormatError, VocabError


class TestBuildVocab:
    def test_frequency_cap(self):
        vocab = build_vocab("a a b", 3)
        assert vocab.id_to_token == (UNK_TOKEN, EOS_TOKEN, "a")
        assert "b" not in vocab.id_to_token

    def test_tie_breaks_lexicographically(self):
        vocab = build_vocab("b a", 4)
        assert vocab.id_to_token == (UNK_TOKEN, EOS_TOKEN, "a", "b")

    def test_deterministic_rebuild(self):
        text = synthetic_corpus(2000, vocab_size=80, seed=3)
        a = build_vocab(text, 50)
        b = build_vocab(text, 50)
        assert a.id_to_token == b.id_to_token

    def test_empty_corpus(self):
        with pytest.raises(DomainError):
            build_vocab("   \n  ", 10)

    def test_reserved_tokens_not_duplicated(self):
        vocab = build_vocab(f"{UNK_TOKEN} {UNK_TOKEN} x", 5)
        assert vocab.id_to_token.count(UNK_TOKEN) == 1


class TestEncodeStream:
    def test_line_gets_eos(self):
        vocab = build_vocab("a b", 4)
        ids = encode_stream("a b\n", vocab)
        np.testing.assert_array_equal(
            ids, [vocab.id_to_token.index("a"), vocab.id_to_token.index("b"), vocab.eos_id])

    def test_oov_maps_to_unk(self):
        vocab = build_vocab("a a b", 3)
        ids = encode_stream("b\n", vocab)
        np.testing.assert_array_equal(ids, [vocab.unk_id, vocab.eos_id])

    def test_concatenation_property(self):
        text = synthetic_corpus(3000, vocab_size=60, seed=9)
        vocab = build_vocab(text, 40)
        lines = text.splitlines(keepends=True)
        rng = np.random.default_rng(4)
        for _ in range(5):
            cut = int(rng.integers(1, len(lines)))
            left, right = "".join(lines[:cut]), "".join(lines[cut:])
            joined = np.concatenate([encode_stream(left, vocab), encode_stream(right, vocab)])
            np.testing.assert_array_equal(encode_stream(text, vocab), joined)

    def test_blank_lines_contribute_nothing(self):
        vocab = build_vocab("a b", 4)
        np.testing.assert_array_equal(encode_stream("a\n\n\nb\n", vocab),
                                      encode_stream("a\nb\n", vocab))

    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_only_file_line_ends_end_a_sentence(self, sep):
        """A separator that ``str.splitlines`` breaks at but universal-newline
        reading does not is whitespace between tokens, as in ``build_vocab``;
        ``\\r\\n`` and ``\\r`` end a line like ``\\n``."""
        vocab = build_vocab(f"a{sep}b\n", 4)
        assert vocab.size == 4
        np.testing.assert_array_equal(encode_stream(f"a{sep}b\n", vocab),
                                      encode_stream("a b\n", vocab))
        np.testing.assert_array_equal(encode_stream("a\r\nb\rc", vocab),
                                      encode_stream("a\nb\nc\n", vocab))


class TestVocabFile:
    def test_round_trip_bitwise(self, tmp_path):
        text = synthetic_corpus(1500, vocab_size=50, seed=5)
        vocab = build_vocab(text, 30)
        p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
        save_vocab(vocab, p1)
        save_vocab(build_vocab(text, 30), p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = load_vocab(p1)
        assert loaded.id_to_token == vocab.id_to_token

    def test_reserved_first_enforced(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a\t0\nb\t1\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_vocab(p)

    def test_bad_ids_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text(f"{UNK_TOKEN}\t0\n{EOS_TOKEN}\t7\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_vocab(p)

    def test_duplicate_token_rejected(self, tmp_path):
        p = tmp_path / "dup.tsv"
        p.write_text(f"{UNK_TOKEN}\t0\n{EOS_TOKEN}\t1\nfoo\t2\nfoo\t3\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 4: token 'foo' already has id 2"):
            load_vocab(p)


class TestMakeBatches:
    def test_hand_layout(self):
        stream = make_batches(np.arange(1, 14), batch_size=2, unroll=3)
        batches = list(stream)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0].inputs, [[1, 2, 3], [7, 8, 9]])
        np.testing.assert_array_equal(batches[0].targets, [[2, 3, 4], [8, 9, 10]])

    def test_single_lane_full_cover(self):
        ids = np.arange(10)
        stream = make_batches(ids, batch_size=1, unroll=9)
        batches = list(stream)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0].inputs[0], ids[:-1])
        np.testing.assert_array_equal(batches[0].targets[0], ids[1:])

    def test_target_token_accounting(self):
        stream = make_batches(np.arange(101), batch_size=4, unroll=5)
        total = sum(b.targets.size for b in stream)
        assert total == len(stream) * 4 * 5 == 80

    def test_every_target_shifted_within_lane(self):
        ids = np.arange(57)
        stream = make_batches(ids, batch_size=3, unroll=4)
        lanes = stream.lanes
        for w, batch in enumerate(stream):
            np.testing.assert_array_equal(batch.inputs, lanes[:, w * 4: w * 4 + 4])
            np.testing.assert_array_equal(batch.targets, lanes[:, w * 4 + 1: w * 4 + 5])

    def test_windows_never_cross_lanes(self):
        ids = np.arange(24)
        stream = make_batches(ids, batch_size=2, unroll=5)
        lane_sets = [set(lane) for lane in stream.lanes]
        for batch in stream:
            for row_in, row_t, lane in zip(batch.inputs, batch.targets, lane_sets):
                assert set(row_in) <= lane and set(row_t) <= lane

    def test_insufficient_tokens(self):
        with pytest.raises(DomainError):
            make_batches(np.arange(7), batch_size=2, unroll=3)

    def test_float_ids_raise_vocab_error(self):
        """They used to be truncated: 0.9 read as id 0, 3.99 as id 3."""
        with pytest.raises(VocabError):
            make_batches(np.arange(13) + 0.9, batch_size=2, unroll=3)


class TestSyntheticCorpus:
    def test_deterministic(self):
        assert synthetic_corpus(500, 40, seed=1) == synthetic_corpus(500, 40, seed=1)
        assert synthetic_corpus(500, 40, seed=1) != synthetic_corpus(500, 40, seed=2)

    @pytest.mark.parametrize("seed,digest", [
        (0, "cd19b29cfe043a2d1c933078abb79b21fb57142ac1f867b1ac5c4b49d61975cc"),
        (97, "c495f848d691005684c23db9ed9f9db98f5dab7af3ab458712e37522a9ffaaa8"),
    ])
    def test_benchmark_corpus_bytes_are_pinned(self, seed, digest):
        # the benchmark's input generator: its recorded NLLs rest on these bytes
        text = synthetic_corpus(5000, vocab_size=500, seed=seed)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("n_tokens,vocab_size,digest", [
        # the three benchmark workloads: eval-desk-mpo, eval-paper-mps, train-paper-kda
        (70020, 500, "475fc132c4b973043be0df866b5ead18b964f35dcf1153d249752ea8e9d08e41"),
        (4220, 10000, "422fba8de32410566526e649fc23cc79dde44bdc88edcab58966a3de22e71988"),
        (3540, 2000, "52e7de99135c4ebf065c3f536603d824f5dab859966eca7ffdc6fadce1a01482"),
    ])
    def test_benchmark_workload_corpus_bytes_are_pinned(self, n_tokens, vocab_size, digest):
        text = synthetic_corpus(n_tokens, vocab_size=vocab_size, seed=97)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @settings(deadline=None)
    @given(n_tokens=st.integers(1, 3000), vocab_size=st.integers(5, 300),
           seed=st.integers(0, 2**31))
    def test_matches_the_per_token_choice_loop(self, n_tokens, vocab_size, seed):
        assert synthetic_corpus(n_tokens, vocab_size, seed) == \
            _choice_loop_corpus(n_tokens, vocab_size, seed)

    def test_matches_the_per_token_choice_loop_at_paper_vocabulary(self):
        assert synthetic_corpus(2000, 10000, 5) == _choice_loop_corpus(2000, 10000, 5)

    @pytest.mark.parametrize("n_tokens,vocab_size", [(0, 40), (100, 4)])
    def test_too_few_tokens_or_word_types_raise_domain_error(self, n_tokens, vocab_size):
        # every word draws five distinct successors
        with pytest.raises(DomainError):
            synthetic_corpus(n_tokens, vocab_size)

    def test_token_budget_roughly_met(self):
        text = synthetic_corpus(5000, 100, seed=0)
        count = len(text.split())
        assert 4500 <= count <= 5600

    def test_has_markov_structure(self):
        # successor sets are sparse: each word should be followed by few
        # distinct words relative to the vocabulary
        text = synthetic_corpus(20000, 100, seed=7)
        tokens = text.split()
        followers: dict[str, set] = {}
        for a, b in zip(tokens, tokens[1:]):
            followers.setdefault(a, set()).add(b)
        avg = np.mean([len(s) for s in followers.values()])
        assert avg < 15


def _choice_loop_corpus(n_tokens: int, vocab_size: int, seed: int) -> str:
    """The generator as a per-token ``Generator.choice`` loop: the reference
    whose random stream and text ``synthetic_corpus`` must reproduce."""
    rng = np.random.default_rng(seed)
    words = _word_list(vocab_size, rng)
    successors = np.array([rng.choice(vocab_size, size=5, replace=False)
                           for _ in range(vocab_size)])
    weights = np.array([0.45, 0.25, 0.15, 0.10, 0.05])
    weights /= weights.sum()
    start_p = 1.0 / np.arange(1, vocab_size + 1, dtype=np.float64)
    start_p /= start_p.sum()
    lines = []
    produced = 0
    while produced < n_tokens:
        length = int(rng.integers(8, 21))
        w = int(rng.choice(vocab_size, p=start_p))
        sentence = [words[w]]
        for _ in range(length - 1):
            w = int(successors[w][rng.choice(5, p=weights)])
            sentence.append(words[w])
        lines.append(" ".join(sentence))
        produced += length + 1
    return "\n".join(lines) + "\n"
