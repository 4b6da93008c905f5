import math
import re

import numpy as np
import pytest
import scipy.sparse

from sadcluster import tfidf
from sadcluster.corpus import Corpus, Document
from sadcluster.synth import generate_synthetic_corpus
from sadcluster.tfidf import (
    PAIRING_BLOCK_ELEMENTS,
    TOP_K,
    PositivePairing,
    TopKSimilarity,
    blended_similarity,
    fit_tfidf,
    index_tokens,
    label_match_rate,
    similarity_matrix,
    tokenize_text,
    top1_from_matrix,
    transform_corpus,
)


def corpus_of(*texts, labels=None):
    docs = []
    for i, text in enumerate(texts):
        label = labels[i] if labels is not None else None
        docs.append(Document(f"d{i}", text, label=label))
    return Corpus(docs)


def fitted(*texts):
    """(tokens, idf, TF-IDF matrix) of a corpus of ``texts``."""
    tokens, terms = index_tokens(texts)
    idf = fit_tfidf(terms, len(tokens))
    return tokens, idf, transform_corpus(idf, terms)


def tfidf_matrix(corpus):
    return fitted(*(doc.text for doc in corpus.documents))[2]


def row(x, i):
    """Indices and values of row i of a CSR matrix."""
    start, stop = x.indptr[i], x.indptr[i + 1]
    return x.indices[start:stop], x.data[start:stop]


def cosine(a, b):
    """Cosine of two dense or sparse rows through similarity_matrix."""
    if scipy.sparse.issparse(a):
        return similarity_matrix(scipy.sparse.vstack([a, b], format="csr"))[0, 1]
    return similarity_matrix(np.vstack([a, b]).astype(np.float64))[0, 1]


def one_hots(columns, dim):
    """CSR matrix with a single 1.0 per row, at the given columns."""
    n = len(columns)
    return scipy.sparse.csr_matrix((np.ones(n), columns, np.arange(n + 1)),
                                   shape=(n, dim))


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize_text("Hello, WORLD-wide web!") == ["hello", "world", "wide", "web"]

    def test_digits_kept_underscore_splits(self):
        assert tokenize_text("abc_123 x9") == ["abc", "123", "x9"]

    def test_empty(self):
        assert tokenize_text("...") == []


class TestIndexTokens:
    def test_sorted_tokens_and_indices_in_text_order(self):
        tokens, terms = index_tokens(["b a, B c", "...", "c A"])
        assert tokens == ["a", "b", "c"]
        assert [t.tolist() for t in terms] == [[1, 0, 1, 2], [], [2, 0]]
        assert all(t.dtype == np.int64 for t in terms)

    def test_no_texts(self):
        tokens, terms = index_tokens([])
        assert tokens == [] and terms == []


class TestFitTfidf:
    def test_hand_counted_idf(self):
        tokens, terms = index_tokens(["a b", "a"])
        idf = fit_tfidf(terms, len(tokens))
        # df(a)=2 -> idf = ln(3/3)+1 = 1.0; df(b)=1 -> idf = ln(3/2)+1
        assert idf.shape == (2,)
        assert idf[tokens.index("a")] == pytest.approx(1.0, abs=1e-12)
        assert idf[tokens.index("b")] == pytest.approx(math.log(1.5) + 1.0, abs=1e-12)

    def test_single_doc_uniform_idf(self):
        _, idf, _ = fitted("x y z")
        assert np.allclose(idf, 1.0, atol=1e-12)

    def test_idf_always_positive(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choice(words, size=20)) for _ in range(50)]
        _, idf, _ = fitted(*texts)
        assert np.all(idf > 0)

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError, match="empty corpus"):
            fit_tfidf([], 0)

    def test_tokenless_corpus_errors(self):
        with pytest.raises(ValueError, match="no tokens"):
            fitted("...", "!!!")


class TestTransform:
    def test_hand_computed_vector(self):
        tokens, _, x = fitted("a a b", "a b")
        indices, values = row(x, 0)
        # idf(a)=idf(b)=1, tf=(2,1), normalized to (2,1)/sqrt(5)
        assert indices.tolist() == [tokens.index("a"), tokens.index("b")]
        assert values == pytest.approx([2 / math.sqrt(5), 1 / math.sqrt(5)], abs=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        words = [f"w{i}" for i in range(40)]
        texts = [" ".join(rng.choice(words, size=25)) for _ in range(30)]
        tokens, _, x = fitted(*texts)
        assert x.shape == (30, len(tokens))
        for i in range(x.shape[0]):
            _, values = row(x, i)
            assert np.sqrt(values @ values) == pytest.approx(1.0, abs=1e-9)

    def test_oov_only_gives_zero_support(self):
        # the columns are the fitted corpus's own tokens, so a document
        # without a column is one without tokens
        _, _, x = fitted("a", "... !!!", "b")
        assert x.shape == (3, 2)
        assert np.diff(x.indptr).tolist() == [1, 0, 1]

    def test_deterministic(self):
        tokens, terms = index_tokens(["c b a a", "d d c"])
        idf = fit_tfidf(terms, len(tokens))
        x1, x2 = transform_corpus(idf, terms), transform_corpus(idf, terms)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(x1, attr), getattr(x2, attr))


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = scipy.sparse.csr_matrix(np.array([[1.0, 0.0, 0.0, 2.0, 0.0]]))
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        x = one_hots([0, 1], 4)
        assert cosine(x[0], x[1]) == 0.0

    def test_hand_computed_dense(self):
        assert cosine([1, 1, 0], [1, 0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_norm_defined_as_zero(self):
        x = scipy.sparse.csr_matrix((np.ones(1), [1], [0, 0, 1]), shape=(2, 4))
        assert cosine(x[0], x[1]) == 0.0
        assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.normal(size=(2, 6))
            s = similarity_matrix(x)
            assert s[0, 1] == pytest.approx(s[1, 0], abs=1e-15)
            assert abs(s[0, 1]) <= 1.0 + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            c = float(rng.uniform(0.1, 100.0))
            assert cosine(c * a, b) == pytest.approx(cosine(a, b), abs=1e-12)

    def test_sparse_agrees_with_dense(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dense_a = np.abs(rng.normal(size=10)) * (rng.random(10) < 0.5)
            dense_b = np.abs(rng.normal(size=10)) * (rng.random(10) < 0.5)
            sparse_a = scipy.sparse.csr_matrix(dense_a[None, :])
            sparse_b = scipy.sparse.csr_matrix(dense_b[None, :])
            assert cosine(sparse_a, sparse_b) == pytest.approx(
                cosine(dense_a, dense_b), abs=1e-12
            )


class TestTop1Sampling:
    def test_two_docs_mutual_partners(self):
        corpus = corpus_of("apple banana", "apple cherry")
        pairing = top1_from_matrix(TopKSimilarity(tfidf_matrix(corpus)))
        assert pairing.partner.tolist() == [1, 0]

    def test_one_hot_tie_breaking(self):
        pairing = top1_from_matrix(TopKSimilarity(one_hots([0, 0, 1], 3)))
        # doc2 is orthogonal to both others: tie at 0 broken to index 0
        assert pairing.partner.tolist() == [1, 0, 0]

    def test_all_identical_smallest_other_index(self, monkeypatch):
        # with fewer kept entries than equal ones, every row ties with its
        # bound and is paired on its whole row
        for top_k in (1, 2, TOP_K):
            monkeypatch.setattr(tfidf, "TOP_K", top_k)
            pairing = top1_from_matrix(TopKSimilarity(one_hots([0] * 4, 2)))
            assert pairing.partner.tolist() == [1, 0, 0, 0]

    def test_fewer_than_two_errors(self):
        with pytest.raises(ValueError):
            top1_from_matrix(TopKSimilarity(one_hots([0], 2)))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=(n, 8))
            pairing = top1_from_matrix(TopKSimilarity(scipy.sparse.csr_matrix(x)))
            for i in range(n):
                best_j, best_s = -1, -np.inf
                for j in range(n):
                    if j == i:
                        continue
                    s = float(x[i] @ x[j]) / math.sqrt(float(x[i] @ x[i]) * float(x[j] @ x[j]))
                    if s > best_s:
                        best_j, best_s = j, s
                assert pairing.partner[i] == best_j
                assert pairing.similarity[i] == pytest.approx(best_s, abs=1e-9)

    def test_input_left_unchanged(self, monkeypatch):
        # two kept entries of 12 rows: some rows are paired on their whole row
        monkeypatch.setattr(tfidf, "TOP_K", 2)
        rng = np.random.default_rng(3)
        store = TopKSimilarity(scipy.sparse.csr_matrix(rng.normal(size=(12, 3))))
        embeddings = rng.normal(size=(12, 4))
        before = [a.tobytes() for a in (store.index, store.value, store.bound, embeddings)]
        for epoch in (1, 2, 3):
            top1_from_matrix(store, embeddings, 0.5, epoch)
        after = [a.tobytes() for a in (store.index, store.value, store.bound, embeddings)]
        assert after == before

    def test_blend_argument_checks(self):
        x = one_hots([0, 1, 1], 2)
        with pytest.raises(ValueError, match="alpha"):
            top1_from_matrix(TopKSimilarity(x), np.ones((3, 2)), 1.5, 2)

    def test_blended_epoch_without_embeddings_fails_before_any_block(self, monkeypatch):
        monkeypatch.setattr(tfidf, "blended_similarity",
                            lambda *args, **kwargs: pytest.fail("a block ran"))
        with pytest.raises(ValueError, match="epoch 2 .* no embeddings"):
            top1_from_matrix(TopKSimilarity(one_hots([0, 1, 0, 1], 2)), None, 0.5, 2)

    @pytest.mark.parametrize("shape", [(3, 5), (5, 5), (4,)])
    def test_embeddings_need_one_row_per_document(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"{shape}") + ".*" +
                           re.escape("(4, 4)")):
            top1_from_matrix(TopKSimilarity(one_hots([0, 1, 0, 1], 2)), np.ones(shape), 0.5, 2)

    def test_blend_makes_no_n_by_n_temporary(self, peak_bytes):
        # a block of model similarity, the blend of the kept entries and the
        # whole rows of the rows that do not settle; a fourth block (say the
        # previous block's, still alive) is past 3.5 of them, and the whole
        # model similarity alone would be n*n*8 bytes
        n = 3000
        rng = np.random.default_rng(10)
        x = scipy.sparse.random(n, 50, density=0.2, random_state=rng, format="csr")
        store, embeddings = TopKSimilarity(x), rng.normal(size=(n, 8))
        block_bytes = PAIRING_BLOCK_ELEMENTS // n * n * 8
        assert peak_bytes(lambda: top1_from_matrix(store, embeddings, 0.5, 2)) \
            < 3.5 * block_bytes

    def test_rows_settle_when_the_model_agrees_with_tfidf(self, monkeypatch):
        # embeddings that are the TF-IDF rows give each row's best kept blend
        # a margin over the bound, which leaves the diagonal out of the model
        # maximum; a row that does not settle would form its whole TF-IDF
        # row again, the only similarity_matrix call with an array of rows
        x = tfidf_matrix(generate_synthetic_corpus(topics=4, docs_per_topic=150, seed=3))
        store = TopKSimilarity(x)
        recomputed = []
        real = tfidf.similarity_matrix

        def counting(vectors, rows=None, out=None):
            if isinstance(rows, np.ndarray):
                recomputed.append(rows.size)
            return real(vectors, rows, out)

        monkeypatch.setattr(tfidf, "similarity_matrix", counting)
        for epoch in (1, 2, 3):
            top1_from_matrix(store, x.toarray(), 0.5, epoch)
        assert recomputed == []

    def test_self_partner_rejected_by_type(self):
        with pytest.raises(ValueError):
            PositivePairing(np.array([0, 0]), np.array([1.0, 1.0]))


class TestSimilarityMatrix:
    def test_sparse_and_dense_paths_agree(self):
        rng = np.random.default_rng(8)
        dense = np.abs(rng.normal(size=(12, 9))) * (rng.random((12, 9)) < 0.4)
        x = scipy.sparse.csr_matrix(dense)
        assert np.allclose(similarity_matrix(x), similarity_matrix(x.toarray()),
                           atol=1e-12)

    def test_sparse_path_holds_little_beside_its_result(self, peak_bytes):
        # the product of all rows at once (87% dense here) would sit beside
        # the n*n*8-byte result
        n = 3000
        x = scipy.sparse.random(n, 50, density=0.2, random_state=1, format="csr")
        assert peak_bytes(lambda: similarity_matrix(x)) < 1.5 * n * n * 8

    def test_top_k_store_holds_its_entries_and_one_block(self, peak_bytes):
        # the kept columns and values (16 bytes an entry), one block of rows
        # and either its product or its argpartition order: 0.34 of n*n*8
        # bytes at this n
        n = 3000
        x = scipy.sparse.random(n, 50, density=0.2, random_state=1, format="csr")
        block_bytes = PAIRING_BLOCK_ELEMENTS // n * n * 8
        assert peak_bytes(lambda: TopKSimilarity(x)) < n * TOP_K * 16 + 2.5 * block_bytes

    def test_top_k_store_takes_only_sparse_matrices(self):
        # a dense product's bits depend on the rows it is asked for
        with pytest.raises(TypeError, match="sparse"):
            TopKSimilarity(np.eye(3))

    def test_other_inputs_rejected(self):
        with pytest.raises(TypeError):
            similarity_matrix([[1.0, 0.0], [0.0, 1.0]])

    def test_zero_rows_give_zero_similarity(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        s = similarity_matrix(x)
        assert np.all(s[1, :] == 0.0)
        assert np.all(s[:, 1] == 0.0)


class TestBlendedSimilarity:
    def test_epoch_one_bit_identical(self):
        rng = np.random.default_rng(9)
        sim_tfidf = rng.random((6, 6))
        sim_tfidf = (sim_tfidf + sim_tfidf.T) / 2
        sim_model = rng.random((6, 6))
        out = blended_similarity(sim_tfidf, sim_model, alpha=0.37, epoch=1)
        assert np.array_equal(out, sim_tfidf)
        assert out.tobytes() == sim_tfidf.tobytes()

    def test_epoch_one_does_not_read_the_model_similarity(self):
        sim_tfidf = np.random.default_rng(11).random((4, 4))
        out = blended_similarity(sim_tfidf, None, alpha=0.5, epoch=1)
        assert out.tobytes() == sim_tfidf.tobytes()
        assert out is not sim_tfidf

    def test_out_receives_the_blend(self):
        rng = np.random.default_rng(12)
        a, b = rng.random((3, 4)), rng.random((3, 4))
        for epoch in (1, 3):
            out = np.empty((3, 4))
            assert blended_similarity(a, b, 0.5, epoch, out=out) is out
            assert out.tobytes() == blended_similarity(a, b, 0.5, epoch).tobytes()

    def test_alpha_zero_later_epochs_is_model(self):
        a = np.full((3, 3), 0.2)
        b = np.full((3, 3), 0.9)
        out = blended_similarity(a, b, alpha=0.0, epoch=2)
        assert np.array_equal(out, b)

    def test_hand_arithmetic(self):
        a = np.array([[0.8]])
        b = np.array([[0.4]])
        out = blended_similarity(a, b, alpha=0.5, epoch=3)
        assert out[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_shape_mismatch_errors(self):
        with pytest.raises(ValueError, match="shape"):
            blended_similarity(np.zeros((2, 2)), np.zeros((3, 3)), 0.5, 2)

    def test_parameter_validation(self):
        m = np.zeros((2, 2))
        with pytest.raises(ValueError):
            blended_similarity(m, m, alpha=1.5, epoch=2)
        with pytest.raises(ValueError):
            blended_similarity(m, m, alpha=0.5, epoch=0)


class TestLabelMatchRate:
    def test_all_same_class(self):
        pairing = PositivePairing(np.array([1, 0, 3, 2]), np.zeros(4))
        assert label_match_rate(pairing, [0, 0, 1, 1]) == 1.0

    def test_forced_cross_class(self):
        pairing = PositivePairing(np.array([1, 0]), np.zeros(2))
        assert label_match_rate(pairing, [0, 1]) == 0.0

    def test_disjoint_vocabulary_topics_match_perfectly(self):
        texts = []
        labels = []
        rng = np.random.default_rng(11)
        for topic in range(4):
            words = [f"t{topic}w{i}" for i in range(20)]
            for _ in range(10):
                texts.append(" ".join(rng.choice(words, size=12)))
                labels.append(topic)
        corpus = corpus_of(*texts, labels=labels)
        pairing = top1_from_matrix(TopKSimilarity(tfidf_matrix(corpus)))
        assert label_match_rate(pairing, labels) == 1.0

    def test_missing_label_errors(self):
        pairing = PositivePairing(np.array([1, 0]), np.zeros(2))
        with pytest.raises(ValueError):
            label_match_rate(pairing, [0, None])
