import io
import json

import numpy as np
import pytest

from sadcluster.cli import main, read_embeddings
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
    save_checkpoint,
    tokenize,
)
from sadcluster.tfidf import index_tokens


def corpus_of(*texts):
    return Corpus([Document(f"d{i}", t) for i, t in enumerate(texts)])


def vocab_of(corpus, max_vocab):
    """The vocabulary ``train`` builds from a corpus's document texts."""
    tokens, terms = index_tokens(doc.text for doc in corpus.documents)
    return build_vocab(tokens, terms, max_vocab)[0]


def encode_one(params, seq):
    """The encoder's output row for a single sequence."""
    out, _ = encode_batch_forward(params, [seq])
    return out[0]


def random_params(rng, vocab_size, embed_dim, output_dim=3):
    table = rng.normal(scale=0.5, size=(vocab_size, embed_dim))
    table[0, :] = 0.0
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
        vocab = vocab_of(corpus_of("a a b"), max_vocab=10)
        assert set(vocab.token_to_id) == {"<pad>", "<unk>", "a", "b"}
        assert vocab.token_to_id["<pad>"] == 0
        assert vocab.unk_id == 1

    def test_frequency_cut(self):
        vocab = vocab_of(corpus_of("a a b"), max_vocab=1)
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id

    def test_tie_broken_lexicographically(self):
        vocab = vocab_of(corpus_of("b a"), max_vocab=1)
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            vocab_of(corpus_of("..."), max_vocab=5)

    def test_term_ids_map_dropped_tokens_to_unk(self):
        tokens, terms = index_tokens(["c a a b", "b a"])
        vocab, term_to_id = build_vocab(tokens, terms, max_vocab=2)
        assert list(vocab.token_to_id) == ["<pad>", "<unk>", "a", "b"]
        assert [term_to_id[t].tolist() for t in terms] == [[1, 2, 2, 3], [3, 2]]

    def test_ids_dense(self):
        vocab = vocab_of(corpus_of("c b a"), max_vocab=10)
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))


class TestTokenize:
    def test_pad_and_length(self):
        vocab = vocab_of(corpus_of("a b"), max_vocab=10)
        seq = tokenize("a b", vocab, max_len=4)
        # the real ids only: no pad ids fill the view up to max_len
        assert seq.length == 2 and seq.max_len == 4
        assert seq.ids.tolist() == [vocab.token_to_id["a"], vocab.token_to_id["b"]]

    def test_truncation(self):
        vocab = vocab_of(corpus_of("a"), max_vocab=10)
        long_text = " ".join(["a"] * 300)
        seq = tokenize(long_text, vocab, max_len=256)
        assert seq.length == 256
        assert seq.ids.shape == (256,)

    def test_oov_maps_to_unk(self):
        vocab = vocab_of(corpus_of("a"), max_vocab=10)
        seq = tokenize("zzz a", vocab, max_len=4)
        assert seq.ids[0] == vocab.unk_id

    def test_empty_text_allowed_here(self):
        vocab = vocab_of(corpus_of("a"), max_vocab=10)
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
        expected = np.tanh(params.embedding_table[3] @ params.projection_w
                           + params.projection_b)
        assert np.allclose(out, expected)

    def test_two_tokens_mean(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, vocab_size=6, embed_dim=4)
        seq = TokenSequence(np.array([2, 5]), max_len=3)
        out = encode_one(params, seq)
        pooled = (params.embedding_table[2] + params.embedding_table[5]) / 2
        assert np.allclose(out, np.tanh(pooled @ params.projection_w + params.projection_b))

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
        """The loss and the full gradients: the table's touched rows are
        scattered into zeros, after checking they are the batch's ids."""
        out, cache = encode_batch_forward(params, seqs)
        loss = float(np.sum(out * coeffs) + 0.5 * np.sum(out**2))
        grads, rows = encode_batch_backward(params, cache, coeffs + out)
        ids = rows["embedding_table"]
        assert ids.tolist() == sorted({int(i) for seq in seqs for i in seq.ids})
        table = np.zeros_like(params.embedding_table)
        table[ids] = grads["embedding_table"]
        return loss, dict(grads, embedding_table=table)

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

    def test_finite_difference_check(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            v = int(rng.integers(4, 12))
            d = int(rng.integers(2, 6))
            d_out = int(rng.integers(2, 5))
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
        grads, rows = encode_batch_backward(params, cache, np.ones_like(out))
        assert 0 not in rows["embedding_table"]
        assert grads["embedding_table"].shape == (rows["embedding_table"].size, 3)


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


class TestEmbedCorpus:
    def test_rows_match_documents(self):
        corpus = corpus_of("alpha beta gamma", "delta alpha", "beta beta gamma")
        vocab = vocab_of(corpus, max_vocab=100)
        params = init_params(len(vocab), 8, 4, seed=0)
        emb = embed_corpus(params, vocab, corpus, max_len=16)
        assert emb.shape == (3, 4)
        seq = tokenize(corpus.documents[1].text, vocab, 16)
        assert np.allclose(emb[1], encode_one(params, seq))


class TestExternalEmbeddings:
    """Embeddings made elsewhere stand in for this encoder's output.

    ``cluster`` and ``eval`` read them with ``cli.read_embeddings``, the
    one reader of the embeddings text format.
    """

    def run_eval(self, capsys, tmp_path, rows):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": "a b.", "label": i % 2})
                                  + "\n" for i in range(4)))
        assign = tmp_path / "assign.jsonl"
        assign.write_text("".join(json.dumps({"id": f"d{i}", "cluster": i % 2}) + "\n"
                                  for i in range(4)))
        emb = tmp_path / "emb.txt"
        emb.write_text("dim=2\n" + "".join(f"{doc_id} {x} {y}\n" for doc_id, x, y in rows))
        out = tmp_path / "eval.json"
        code = main(["eval", "--assignments", str(assign), "--corpus", str(corpus),
                     "--out", str(out), "--embeddings", str(emb)])
        return code, capsys.readouterr().err, out

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("dim=4\nd0 0.1 0.2 0.3 0.4\nd1 1 2 3 4\n")
        ids, matrix = read_embeddings(p)
        assert ids == ["d0", "d1"]
        assert np.array_equal(matrix, [[0.1, 0.2, 0.3, 0.4], [1, 2, 3, 4]])

    def test_dim_mismatch_errors(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("dim=3\nd0 1 2 3\nd1 1 2\n")
        with pytest.raises(ValueError, match="line 3"):
            read_embeddings(p)

    def test_missing_header_errors(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("d0 1 2 3\n")
        with pytest.raises(ValueError, match="dim="):
            read_embeddings(p)

    def test_lookup_absent_id_names_it(self, capsys, tmp_path):
        code, err, out = self.run_eval(capsys, tmp_path, [("d0", 1, 0), ("d1", 0, 1),
                                                          ("d2", 1, 0)])
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message":
                                   "no external embedding for document id 'd3'"}
        assert not out.exists()

    def test_lookup_stacks_in_corpus_order(self, capsys, tmp_path):
        # d0, d2 point one way and d1, d3 the other, as their clusters do; read
        # in file order, each cluster would hold one of each
        rows = [("d0", 1, 0.1), ("d1", 0.1, 1), ("d2", 1, 0.2), ("d3", 0.2, 1)]
        code, err, out = self.run_eval(capsys, tmp_path, rows)
        assert code == 0, err
        in_order = out.read_bytes()
        assert json.loads(in_order)["silhouette"] > 0.5
        code, err, out = self.run_eval(capsys, tmp_path, [rows[i] for i in (1, 0, 2, 3)])
        assert code == 0, err
        assert out.read_bytes() == in_order


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)


class Unpickles:
    """An object whose unpickling leaves a mark in ``UNPICKLED``."""

    def __reduce__(self):
        return _record_unpickling, ()


def checkpoint_bytes(names, records, version=2):
    """A checkpoint's bytes: the JSON header line, then ``.npy`` records."""
    header = {"format": "sadcluster-checkpoint", "version": version, "tensors": names}
    buf = io.BytesIO()
    buf.write(json.dumps(header, sort_keys=True).encode() + b"\n")
    for record in records:
        np.lib.format.write_array(buf, record, allow_pickle=True)
    return buf.getvalue()


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


TABLE = np.arange(6.0).reshape(3, 2)
PROJECTED = ["embedding_table", "projection_b", "projection_w"]


def projected(table=TABLE, bias=np.zeros(4), w=np.ones((2, 4))):
    """A checkpoint's bytes with the given tensors, the others valid."""
    return checkpoint_bytes(PROJECTED, [table, bias, w])


GOOD = projected()
HEADER_END = GOOD.index(b"\n") + 1
V1 = (b'{"format": "sadcluster-checkpoint", "tensors": ["embedding_table"], '
      b'"version": 1}\n{"data": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], '
      b'"name": "embedding_table", "shape": [3, 2]}\n')

# file bytes -> the error load_checkpoint must raise for them
BAD_CHECKPOINTS = {
    "version-1": (V1, "checkpoint version 1 is not supported"),
    "truncated-data": (GOOD[:-1], "checkpoint tensor 'projection_w'"),
    "truncated-record-header": (GOOD[:HEADER_END + 30],
                                "checkpoint tensor 'embedding_table'"),
    "no-records": (GOOD[:HEADER_END], "checkpoint tensor 'embedding_table'"),
    "trailing-bytes": (GOOD + b"\0", "bytes after its last tensor"),
    "empty": (b"", "not a checkpoint file"),
    "text-first-line": (b"embedding_table 0.0 1.0\n" + GOOD[HEADER_END:],
                        "not a checkpoint file"),
    "binary-first-line": (npy_bytes(TABLE), "not a checkpoint file"),
    "json-not-an-object": (b"[2]\n" + GOOD[HEADER_END:], "not a checkpoint file"),
    "tensor-list": (checkpoint_bytes(["embedding_table", "projection_w"],
                                     [TABLE, TABLE]), "tensor list"),
    "table-only": (checkpoint_bytes(["embedding_table"], [TABLE]), "tensor list"),
    "float32": (projected(table=TABLE.astype(np.float32)),
                "'embedding_table' has dtype <f4, not native float64"),
    "big-endian": (projected(table=TABLE.astype(">f8")),
                   "'embedding_table' has dtype >f8, not native float64"),
    "pickled": (projected(table=np.array([Unpickles()], dtype=object)),
                "checkpoint tensor 'embedding_table'.*allow_pickle"),
    "table-1d": (projected(table=np.arange(3.0)), r"'embedding_table' has shape \(3,\)"),
    "table-3d": (projected(table=np.zeros((3, 2, 1))),
                 r"'embedding_table' has shape \(3, 2, 1\)"),
    "table-no-columns": (projected(table=np.zeros((3, 0))),
                         r"'embedding_table' has shape \(3, 0\)"),
    "table-nan": (projected(table=np.where(TABLE == 4, np.nan, TABLE)),
                  "'embedding_table' has non-finite values"),
    "table-inf": (projected(table=np.where(TABLE == 4, -np.inf, TABLE)),
                  "'embedding_table' has non-finite values"),
    "projection-rows": (projected(w=np.zeros((3, 4))), r"'projection_w' has shape \(3, 4\)"),
    "projection-1d": (projected(bias=np.zeros(2), w=np.zeros(2)),
                      r"'projection_w' has shape \(2,\)"),
    "projection-no-columns": (projected(bias=np.zeros(0), w=np.zeros((2, 0))),
                              r"'projection_w' has shape \(2, 0\)"),
    "bias-length": (projected(bias=np.zeros(3)), r"'projection_b' has shape \(3,\)"),
    "bias-2d": (projected(bias=np.zeros((1, 4))), r"'projection_b' has shape \(1, 4\)"),
    "projection-nan": (projected(w=np.full((2, 4), np.nan)),
                       "'projection_w' has non-finite values"),
    "bias-inf": (projected(bias=np.full(4, np.inf)), "'projection_b' has non-finite values"),
}


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        params = init_params(vocab_size=12, embed_dim=5, output_dim=3, seed=77)
        params.embedding_table[1, :4] = [-0.0, np.finfo(float).max, -5e-324, 5e-324]
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path).tensors()
        assert loaded.keys() == params.tensors().keys()
        for name, tensor in params.tensors().items():
            assert loaded[name].dtype == np.float64 and loaded[name].shape == tensor.shape
            assert loaded[name].tobytes() == tensor.tobytes(), name

    def test_layout_is_a_header_line_then_npy_records(self, tmp_path):
        params = init_params(vocab_size=6, embed_dim=4, output_dim=2, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        with open(path, "rb") as fh:
            assert json.loads(fh.readline()) == {
                "format": "sadcluster-checkpoint", "version": 2,
                "tensors": ["embedding_table", "projection_b", "projection_w"]}
            for name in ("embedding_table", "projection_b", "projection_w"):
                record = np.lib.format.read_array(fh, allow_pickle=False)
                assert np.array_equal(record, params.tensors()[name])
            assert fh.read() == b""

    def test_bytes_deterministic(self, tmp_path):
        params = init_params(vocab_size=6, embed_dim=4, output_dim=2, seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_text('{"something": "else"}\n')
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(p)

    def test_reads_the_records_it_is_given(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(GOOD)
        params = load_checkpoint(path)
        assert params.embedding_table.tobytes() == TABLE.tobytes()
        assert params.projection_b.tobytes() == np.zeros(4).tobytes()
        assert params.projection_w.tobytes() == np.ones((2, 4)).tobytes()

    @pytest.mark.parametrize("kind", list(BAD_CHECKPOINTS))
    def test_rejects_other_files(self, tmp_path, kind):
        data, match = BAD_CHECKPOINTS[kind]
        path = tmp_path / "model.ckpt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)
        assert UNPICKLED == []
