import numpy as np
import pytest

from sadcluster.corpus import Corpus, Document
from sadcluster.encoder import (
    EncoderParams,
    TokenSequence,
    build_vocab,
    embed_corpus,
    encode_batch_backward,
    encode_batch_forward,
    init_params,
    load_checkpoint,
    load_external_embeddings,
    lookup_external,
    save_checkpoint,
    tokenize,
)


def corpus_of(*texts):
    return Corpus([Document(f"d{i}", t) for i, t in enumerate(texts)])


def encode_one(params, seq):
    """The encoder's output row for a single sequence."""
    out, _ = encode_batch_forward(params, [seq])
    return out[0]


def random_params(rng, vocab_size, embed_dim, output_dim=None):
    table = rng.normal(scale=0.5, size=(vocab_size, embed_dim))
    table[0, :] = 0.0
    if output_dim is None:
        return EncoderParams(embedding_table=table)
    return EncoderParams(
        embedding_table=table,
        projection_w=rng.normal(scale=0.5, size=(embed_dim, output_dim)),
        projection_b=rng.normal(scale=0.1, size=output_dim),
    )


def random_seqs(rng, n, vocab_size, max_len):
    seqs = []
    for _ in range(n):
        length = int(rng.integers(1, max_len + 1))
        seqs.append(TokenSequence(rng.integers(1, vocab_size, size=length), max_len))
    return seqs


class TestBuildVocab:
    def test_small_corpus(self):
        vocab = build_vocab(corpus_of("a a b"), max_vocab=10)
        assert set(vocab.token_to_id) == {"<pad>", "<unk>", "a", "b"}
        assert vocab.token_to_id["<pad>"] == 0
        assert vocab.unk_id == 1

    def test_frequency_cut(self):
        vocab = build_vocab(corpus_of("a a b"), max_vocab=1)
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id

    def test_tie_broken_lexicographically(self):
        vocab = build_vocab(corpus_of("b a"), max_vocab=1)
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            build_vocab(corpus_of("..."), max_vocab=5)

    def test_ids_dense(self):
        vocab = build_vocab(corpus_of("c b a"), max_vocab=10)
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))


class TestTokenize:
    def test_pad_and_length(self):
        vocab = build_vocab(corpus_of("a b"), max_vocab=10)
        seq = tokenize("a b", vocab, max_len=4)
        # the real ids only: no pad ids fill the view up to max_len
        assert seq.length == 2 and seq.max_len == 4
        assert seq.ids.tolist() == [vocab.token_to_id["a"], vocab.token_to_id["b"]]

    def test_truncation(self):
        vocab = build_vocab(corpus_of("a"), max_vocab=10)
        long_text = " ".join(["a"] * 300)
        seq = tokenize(long_text, vocab, max_len=256)
        assert seq.length == 256
        assert seq.ids.shape == (256,)

    def test_oov_maps_to_unk(self):
        vocab = build_vocab(corpus_of("a"), max_vocab=10)
        seq = tokenize("zzz a", vocab, max_len=4)
        assert seq.ids[0] == vocab.unk_id

    def test_empty_text_allowed_here(self):
        vocab = build_vocab(corpus_of("a"), max_vocab=10)
        seq = tokenize("", vocab, max_len=4)
        assert seq.length == 0


class TestTokenSequenceValidation:
    def test_length_bounds(self):
        with pytest.raises(ValueError, match="at most max_len"):
            TokenSequence(np.ones(5, dtype=np.int64), max_len=4)
        for max_len in (0, -1):
            with pytest.raises(ValueError, match="max_len must be >= 1"):
                TokenSequence(np.empty(0, dtype=np.int64), max_len)
        seq = TokenSequence(np.ones(4, dtype=np.int64), max_len=4)
        assert seq.length == 4
        with pytest.raises(AttributeError):
            seq.length = 3


class TestEncode:
    def test_single_token_row(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, vocab_size=6, embed_dim=4)
        seq = TokenSequence(np.array([3]), max_len=3)
        out = encode_one(params, seq)
        assert np.allclose(out, params.embedding_table[3])

    def test_two_tokens_mean(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, vocab_size=6, embed_dim=4)
        seq = TokenSequence(np.array([2, 5]), max_len=3)
        out = encode_one(params, seq)
        expected = (params.embedding_table[2] + params.embedding_table[5]) / 2
        assert np.allclose(out, expected)

    def test_projection_applies_tanh(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, vocab_size=6, embed_dim=4, output_dim=3)
        seq = TokenSequence(np.array([2]), max_len=2)
        out = encode_one(params, seq)
        pooled = params.embedding_table[2]
        expected = np.tanh(pooled @ params.projection_w + params.projection_b)
        assert np.allclose(out, expected)
        assert np.all(np.abs(out) < 1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, vocab_size=10, embed_dim=5, output_dim=4)
        for _ in range(20):
            tokens = rng.integers(1, 10, size=int(rng.integers(2, 6)))
            a = encode_one(params, TokenSequence(tokens, max_len=6))
            b = encode_one(params, TokenSequence(rng.permutation(tokens), max_len=6))
            assert np.allclose(a, b, atol=1e-12)

    def test_all_pad_errors_with_index(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, vocab_size=6, embed_dim=3)
        good = TokenSequence(np.array([2]), max_len=2)
        bad = TokenSequence(np.empty(0, dtype=np.int64), max_len=2)
        with pytest.raises(ValueError, match="sequence 1"):
            encode_batch_forward(params, [good, bad])

    def test_token_id_outside_the_table_raises(self):
        # e.g. a vocab.json that does not belong to the checkpoint
        params = random_params(np.random.default_rng(1), vocab_size=5, embed_dim=3)
        seq = TokenSequence(np.array([2, 5]), max_len=3)
        with pytest.raises(IndexError):
            encode_batch_forward(params, [seq])

    def test_batch_order_matches_input(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, vocab_size=8, embed_dim=4, output_dim=3)
        seqs = random_seqs(rng, 5, vocab_size=8, max_len=6)
        batch = encode_batch_forward(params, seqs)[0]
        for i, seq in enumerate(seqs):
            assert np.allclose(batch[i], encode_one(params, seq), atol=1e-15)


class TestGradients:
    def _loss_and_grads(self, params, seqs, coeffs):
        out, cache = encode_batch_forward(params, seqs)
        loss = float(np.sum(out * coeffs) + 0.5 * np.sum(out**2))
        grads = encode_batch_backward(params, cache, coeffs + out)
        return loss, grads

    def _numeric_grad(self, params, seqs, coeffs, tensor_name, step=1e-4):
        tensor = params.tensors()[tensor_name]
        numeric = np.zeros_like(tensor)
        flat = tensor.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            lp, _ = self._loss_and_grads(params, seqs, coeffs)
            flat[k] = orig - step
            lm, _ = self._loss_and_grads(params, seqs, coeffs)
            flat[k] = orig
            numeric.ravel()[k] = (lp - lm) / (2 * step)
        return numeric

    @pytest.mark.parametrize("with_projection", [False, True])
    def test_finite_difference_check(self, with_projection):
        rng = np.random.default_rng(7)
        for trial in range(5):
            v = int(rng.integers(4, 12))
            d = int(rng.integers(2, 6))
            d_out = int(rng.integers(2, 5)) if with_projection else None
            params = random_params(rng, v, d, d_out)
            seqs = random_seqs(rng, n=int(rng.integers(2, 5)), vocab_size=v, max_len=5)
            coeffs = rng.normal(size=(len(seqs), params.output_dim))
            _, analytic = self._loss_and_grads(params, seqs, coeffs)
            for name in params.tensors():
                numeric = self._numeric_grad(params, seqs, coeffs, name)
                denom = np.maximum(np.abs(numeric) + np.abs(analytic[name]), 1e-8)
                rel = np.abs(numeric - analytic[name]) / denom
                assert np.max(rel) < 1e-4, f"{name} grad mismatch {np.max(rel)}"

    def test_pad_row_gets_no_gradient(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, vocab_size=6, embed_dim=3)
        seqs = random_seqs(rng, 3, vocab_size=6, max_len=4)
        out, cache = encode_batch_forward(params, seqs)
        grads = encode_batch_backward(params, cache, np.ones_like(out))
        assert np.all(grads["embedding_table"][0] == 0.0)


class TestInitParams:
    def test_table_range_and_pad_row(self):
        params = init_params(vocab_size=50, embed_dim=8, output_dim=4, seed=123)
        table = params.embedding_table
        assert table.shape == (50, 8)
        assert np.all(np.abs(table[1:]) <= 0.05)
        assert np.all(table[0] == 0.0)

    def test_xavier_projection_bounds(self):
        params = init_params(vocab_size=10, embed_dim=16, output_dim=8, seed=3)
        limit = np.sqrt(6.0 / (16 + 8))
        assert np.all(np.abs(params.projection_w) <= limit)
        assert np.all(params.projection_b == 0.0)

    def test_seed_reproducibility(self):
        a = init_params(20, 4, 3, seed=9)
        b = init_params(20, 4, 3, seed=9)
        c = init_params(20, 4, 3, seed=10)
        assert np.array_equal(a.embedding_table, b.embedding_table)
        assert np.array_equal(a.projection_w, b.projection_w)
        assert not np.array_equal(a.embedding_table, c.embedding_table)

    def test_no_projection_variant(self):
        params = init_params(10, 6, None, seed=1)
        assert params.projection_w is None
        assert params.output_dim == 6


class TestEmbedCorpus:
    def test_rows_match_documents(self):
        corpus = corpus_of("alpha beta gamma", "delta alpha", "beta beta gamma")
        vocab = build_vocab(corpus, max_vocab=100)
        params = init_params(len(vocab), 8, 4, seed=0)
        emb = embed_corpus(params, vocab, corpus, max_len=16)
        assert emb.shape == (3, 4)
        seq = tokenize(corpus.documents[1].text, vocab, 16)
        assert np.allclose(emb[1], encode_one(params, seq))


class TestExternalEmbeddings:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("dim=4\nd0 0.1 0.2 0.3 0.4\nd1 1 2 3 4\n")
        emb = load_external_embeddings(p)
        assert set(emb) == {"d0", "d1"}
        assert np.allclose(emb["d1"], [1, 2, 3, 4])

    def test_dim_mismatch_errors(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("dim=3\nd0 1 2 3\nd1 1 2\n")
        with pytest.raises(ValueError, match="line 3"):
            load_external_embeddings(p)

    def test_missing_header_errors(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("d0 1 2 3\n")
        with pytest.raises(ValueError, match="dim="):
            load_external_embeddings(p)

    def test_lookup_absent_id_names_it(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("dim=2\nd0 1 2\n")
        emb = load_external_embeddings(p)
        corpus = corpus_of("a", "b")
        with pytest.raises(KeyError, match="d1"):
            lookup_external(emb, corpus)

    def test_lookup_stacks_in_corpus_order(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("dim=2\nd1 3 4\nd0 1 2\n")
        emb = load_external_embeddings(p)
        out = lookup_external(emb, corpus_of("a", "b"))
        assert np.allclose(out, [[1, 2], [3, 4]])


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        params = init_params(vocab_size=12, embed_dim=5, output_dim=3, seed=77)
        path = tmp_path / "ckpt.jsonl"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for name, tensor in params.tensors().items():
            assert np.array_equal(tensor, loaded.tensors()[name])

    def test_bytes_deterministic(self, tmp_path):
        params = init_params(vocab_size=6, embed_dim=4, output_dim=None, seed=5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text('{"something": "else"}\n')
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(p)
