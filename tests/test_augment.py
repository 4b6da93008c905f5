import numpy as np
import pytest

from sadcluster.augment import shuffle_divide
from sadcluster.corpus import Document


def reference_shuffle(n, rng):
    # independent copy of the pinned draw protocol, kept deliberately dumb
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def make_doc(n_sentences, doc_id="d0"):
    text = " ".join(f"s{i} body." for i in range(n_sentences))
    return Document(doc_id, text)


class TestShuffleDivide:
    def test_identity_permutation_four_sentences(self):
        # seed 13 drives Fisher-Yates to the identity permutation for n=4
        doc = make_doc(4)
        assert reference_shuffle(4, np.random.default_rng(13)) == [0, 1, 2, 3]
        pair = shuffle_divide(doc, np.random.default_rng(13))
        assert pair.sentence_ids_a == [0, 1]
        assert pair.sentence_ids_b == [2, 3]
        assert pair.view_a == "s0 body. s1 body."
        assert pair.view_b == "s2 body. s3 body."

    def test_pinned_permutation_five_sentences(self):
        # seed 151 drives Fisher-Yates to [4, 0, 2, 1, 3] for n=5
        doc = make_doc(5)
        assert reference_shuffle(5, np.random.default_rng(151)) == [4, 0, 2, 1, 3]
        pair = shuffle_divide(doc, np.random.default_rng(151))
        assert pair.sentence_ids_a == [4, 0, 2]
        assert pair.sentence_ids_b == [1, 3]
        assert pair.view_a == "s4 body. s0 body. s2 body."

    def test_matches_reference_shuffler(self):
        for seed in range(50):
            for m in (2, 3, 5, 8, 13):
                doc = make_doc(m)
                pair = shuffle_divide(doc, np.random.default_rng(seed))
                ref = reference_shuffle(m, np.random.default_rng(seed))
                half = (m + 1) // 2
                assert pair.sentence_ids_a == ref[:half]
                assert pair.sentence_ids_b == ref[half:]

    def test_single_sentence_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            shuffle_divide(make_doc(1), np.random.default_rng(0))

    def test_two_sentences_split_one_one(self):
        pair = shuffle_divide(make_doc(2), np.random.default_rng(0))
        assert len(pair.sentence_ids_a) == 1
        assert len(pair.sentence_ids_b) == 1

    def test_deterministic_given_seed(self):
        doc = make_doc(7)
        a = shuffle_divide(doc, np.random.default_rng(42))
        b = shuffle_divide(doc, np.random.default_rng(42))
        assert a == b

    def test_invariants_hold_over_random_docs_and_seeds(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            m = int(rng.integers(2, 12))
            doc = make_doc(m)
            pair = shuffle_divide(doc, np.random.default_rng(int(rng.integers(0, 2**32))))
            ids = pair.sentence_ids_a + pair.sentence_ids_b
            assert sorted(ids) == list(range(m))
            assert abs(len(pair.sentence_ids_a) - len(pair.sentence_ids_b)) <= 1
            assert len(pair.sentence_ids_a) >= len(pair.sentence_ids_b)
            assert pair.view_a == " ".join(doc.sentences[i] for i in pair.sentence_ids_a)
            assert pair.view_b == " ".join(doc.sentences[i] for i in pair.sentence_ids_b)

    def test_multiset_of_sentences_preserved(self):
        from sadcluster.corpus import split_sentences

        rng = np.random.default_rng(5)
        doc = make_doc(9)
        for _ in range(100):
            pair = shuffle_divide(doc, np.random.default_rng(int(rng.integers(0, 2**32))))
            recombined = sorted(split_sentences(pair.view_a) + split_sentences(pair.view_b))
            assert recombined == sorted(doc.sentences)

    def test_source_id_propagated(self):
        pair = shuffle_divide(make_doc(4, doc_id="doc-xyz"), np.random.default_rng(1))
        assert pair.source_id == "doc-xyz"


class TestShuffleDivideEpoch:
    """shuffle_divide over several documents on one stream, as an epoch draws."""

    def _halves(self, docs, rng):
        return [shuffle_divide(doc, rng) for doc in docs]

    def _docs(self, n_docs=5, m=6):
        return [make_doc(m, doc_id=f"d{i}") for i in range(n_docs)]

    def test_different_seeds_differ(self):
        docs = self._docs(n_docs=20, m=8)
        a = self._halves(docs, np.random.default_rng(1))
        b = self._halves(docs, np.random.default_rng(2))
        assert a != b

    def test_distinct_partitions_across_epochs(self):
        # a 6-sentence doc has 6!/(3!*3!*2) = 10 distinct unordered halvings;
        # 1000 epochs must see at least 2 (in practice all 10)
        doc = make_doc(6)
        seen = set()
        for epoch in range(1000):
            pair = shuffle_divide(doc, np.random.default_rng(10_000 + epoch))
            key = tuple(sorted((
                tuple(sorted(pair.sentence_ids_a)),
                tuple(sorted(pair.sentence_ids_b)),
            )))
            seen.add(key)
        assert len(seen) >= 2
        assert len(seen) <= 10

    def test_draws_are_per_document(self):
        # consuming one shared stream, later docs see different draws
        pairs = self._halves(self._docs(n_docs=30, m=6), np.random.default_rng(8))
        orders = {tuple(p.sentence_ids_a + p.sentence_ids_b) for p in pairs}
        assert len(orders) > 1
