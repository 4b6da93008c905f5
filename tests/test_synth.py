import collections

import numpy as np
import pytest

from sadcluster.corpus import save_corpus
from sadcluster.synth import generate_synthetic_corpus
from sadcluster.tfidf import (
    fit_tfidf,
    index_tokens,
    label_match_rate,
    similarity_matrix,
    top1_from_matrix,
    transform_corpus,
)


class TestGenerateSyntheticCorpus:
    def test_balanced_counts_and_ids(self):
        corpus = generate_synthetic_corpus(topics=4, docs_per_topic=50, seed=0)
        assert len(corpus) == 200
        counts = collections.Counter(d.label for d in corpus.documents)
        assert counts == {0: 50, 1: 50, 2: 50, 3: 50}
        assert corpus.documents[0].id == "t0d0"
        assert corpus.documents[-1].id == "t3d49"
        assert corpus.label_names == ["topic0", "topic1", "topic2", "topic3"]

    def test_document_shape(self):
        corpus = generate_synthetic_corpus(topics=2, docs_per_topic=3,
                                           sentences_per_doc=6,
                                           tokens_per_sentence=5, seed=1)
        for doc in corpus.documents:
            assert len(doc.sentences) == 6
            for sentence in doc.sentences:
                assert sentence.endswith(".")
                assert len(sentence[:-1].split()) == 5

    def test_zero_overlap_vocabularies_disjoint(self):
        corpus = generate_synthetic_corpus(topics=3, docs_per_topic=4,
                                           overlap=0.0, seed=2)
        for doc in corpus.documents:
            words = doc.text.replace(".", "").split()
            assert all(w.startswith(f"topic{doc.label}word") for w in words)

    def test_full_overlap_only_shared_tokens(self):
        corpus = generate_synthetic_corpus(topics=2, docs_per_topic=2,
                                           overlap=1.0, seed=3)
        for doc in corpus.documents:
            words = doc.text.replace(".", "").split()
            assert all(w.startswith("shared") for w in words)

    def test_same_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        save_corpus(generate_synthetic_corpus(seed=7), a)
        save_corpus(generate_synthetic_corpus(seed=7), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self):
        a = generate_synthetic_corpus(topics=2, docs_per_topic=2, seed=0)
        b = generate_synthetic_corpus(topics=2, docs_per_topic=2, seed=1)
        assert a.documents[0].text != b.documents[0].text

    def test_per_document_streams_stable_under_corpus_growth(self):
        # adding documents must not perturb earlier ones
        small = generate_synthetic_corpus(topics=2, docs_per_topic=3, seed=4)
        large = generate_synthetic_corpus(topics=2, docs_per_topic=6, seed=4)
        for t in range(2):
            for d in range(3):
                i_small = t * 3 + d
                i_large = t * 6 + d
                assert (small.documents[i_small].text
                        == large.documents[i_large].text)

    def test_low_overlap_top1_neighbors_match_labels(self):
        corpus = generate_synthetic_corpus(topics=4, docs_per_topic=10,
                                           overlap=0.0, seed=5)
        tokens, terms = index_tokens(doc.text for doc in corpus.documents)
        sims = similarity_matrix(transform_corpus(fit_tfidf(terms, len(tokens)), terms))
        pairing = top1_from_matrix(sims)
        assert label_match_rate(pairing, corpus.labels_array()) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="topics"):
            generate_synthetic_corpus(topics=1)
        with pytest.raises(ValueError, match="docs_per_topic"):
            generate_synthetic_corpus(docs_per_topic=0)
        with pytest.raises(ValueError, match="counts"):
            generate_synthetic_corpus(sentences_per_doc=0)
        with pytest.raises(ValueError, match="overlap"):
            generate_synthetic_corpus(overlap=1.5)

    def test_overlap_controls_shared_fraction(self):
        corpus = generate_synthetic_corpus(topics=2, docs_per_topic=20,
                                           overlap=0.3, seed=6)
        tokens = [w for doc in corpus.documents
                  for w in doc.text.replace(".", "").split()]
        shared = sum(1 for w in tokens if w.startswith("shared"))
        assert shared / len(tokens) == pytest.approx(0.3, abs=0.03)
