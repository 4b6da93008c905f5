"""End-to-end acceptance checks for the whole pipeline.

Each test is one numbered criterion with pinned tolerances. Expected
values come from independent oracles implemented inline (brute-force
permutation search, exact combinatorial sums, counting-based TF-IDF,
exhaustive bipartitions) or from closed forms derived by hand.
"""

import itertools
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from sadcluster import cluster
from sadcluster.augment import shuffle_divide
from sadcluster.cli import read_embeddings
from sadcluster.cluster import spherical_kmeans
from sadcluster.contrastive import (
    TrainConfig,
    nt_xent_gradient,
    nt_xent_loss,
    supervised_finetune,
    train,
)
from sadcluster.corpus import Corpus, load_corpus, Document
from sadcluster.encoder import (
    TokenSequence,
    embed_corpus,
    encode_batch_backward,
    encode_batch_forward,
    init_params,
)
from sadcluster.evaluate import (
    adjusted_mutual_information,
    clustering_accuracy,
    evaluate_clustering,
    expected_mutual_information,
    hungarian,
)
from sadcluster.rng import derive_rng
from sadcluster.synth import generate_synthetic_corpus
from sadcluster.tfidf import (
    TopKSimilarity,
    fit_tfidf,
    index_tokens,
    label_match_rate,
    blended_similarity,
    top1_from_matrix,
    tokenize_text,
    transform_corpus,
)


def random_token_batch(rng, num_views, vocab_size, max_len):
    views = []
    for _ in range(num_views):
        length = int(rng.integers(1, max_len + 1))
        views.append(TokenSequence(rng.integers(1, vocab_size, size=length), max_len))
    return views


def test_criterion_01_composed_gradient_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    vocab_size, embed_dim, max_len = 12, 4, 6
    h = 1e-5  # truncation error scales as h^2; 1e-4 is marginal at tau=0.1
    worst = 0.0
    for instance in range(50):
        pairs = int(rng.choice([2, 3, 4]))
        out_dim = int(rng.choice([3, 8]))
        tau = float(rng.choice([0.1, 0.5, 1.0]))
        params = init_params(vocab_size, embed_dim, out_dim,
                             seed=1000 + instance)
        views = random_token_batch(rng, 2 * pairs, vocab_size, max_len)

        out, cache = encode_batch_forward(params, views)
        grads, rows = encode_batch_backward(
            params, cache, nt_xent_gradient(out, tau))
        table = np.zeros_like(params.embedding_table)
        table[rows["embedding_table"]] = grads["embedding_table"]
        grads["embedding_table"] = table

        def loss_at(p):
            return nt_xent_loss(encode_batch_forward(p, views)[0], tau)

        analytic_parts = []
        numeric_parts = []
        for name, tensor in params.tensors().items():
            numeric = np.zeros_like(tensor)
            flat = tensor.ravel()
            num_flat = numeric.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_at(params)
                flat[i] = orig - h
                down = loss_at(params)
                flat[i] = orig
                num_flat[i] = (up - down) / (2 * h)
            analytic_parts.append(grads[name].ravel())
            numeric_parts.append(num_flat)
        analytic = np.concatenate(analytic_parts)
        numeric = np.concatenate(numeric_parts)
        rel = (np.linalg.norm(analytic - numeric)
               / max(np.linalg.norm(numeric), 1e-12))
        worst = max(worst, rel)
        assert rel < 1e-4, f"instance {instance}: rel err {rel}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 1: PASS (50 instances, max rel err {worst:.2e}, "
          f"{elapsed:.1f}s)")


def test_criterion_02_nt_xent_closed_forms():
    for b in range(2, 9):
        collapsed = np.ones((2 * b, 6))
        for tau in (0.1, 0.5, 1.0):
            value = nt_xent_loss(collapsed, tau)
            assert abs(value - math.log(2 * b - 1)) <= 1e-9
    orthogonal = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    expected = -math.log(math.e / (math.e + 2))
    assert abs(nt_xent_loss(orthogonal, 1.0) - expected) <= 1e-6
    print("criterion 2: PASS (collapse = ln(2B-1) for B=2..8, "
          "orthogonal B=2 = -ln(e/(e+2)))")


def test_criterion_03_hungarian_and_accuracy_invariance():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        cost = rng.integers(0, 21, size=(k, k)).astype(np.float64)
        perm = hungarian(cost)
        got = float(cost[np.arange(k), perm].sum())
        best = min(
            sum(cost[i, p[i]] for i in range(k))
            for p in itertools.permutations(range(k))
        )
        assert got == best

    for case in range(1000):
        rng_case = np.random.default_rng(5000 + case)
        n = int(rng_case.integers(4, 40))
        k_labels = int(rng_case.integers(2, 6))
        k_clusters = int(rng_case.integers(2, 6))
        labels = rng_case.integers(0, k_labels, size=n)
        clusters = rng_case.integers(0, k_clusters, size=n)
        acc, _ = clustering_accuracy(labels, clusters)
        label_perm = rng_case.permutation(k_labels)
        cluster_perm = rng_case.permutation(k_clusters)
        acc_perm, _ = clustering_accuracy(label_perm[labels],
                                          cluster_perm[clusters])
        assert acc == pytest.approx(acc_perm, abs=1e-12)
    print("criterion 3: PASS (1000 assignment oracles exact, "
          "1000 relabeling invariance cases)")


def exact_expected_mi(labels_a, labels_b):
    """E[MI] under the permutation model via exact combinatorics."""
    n = len(labels_a)
    a_counts = Counter(labels_a)
    b_counts = Counter(labels_b)
    total = 0.0
    for ai in a_counts.values():
        for bj in b_counts.values():
            lower = max(1, ai + bj - n)
            upper = min(ai, bj)
            for nij in range(lower, upper + 1):
                p = (math.comb(ai, nij) * math.comb(n - ai, bj - nij)
                     / math.comb(n, bj))
                total += p * (nij / n) * math.log(n * nij / (ai * bj))
    return total


def test_criterion_04_adjusted_mutual_information_oracles():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(5, 50))
        labels = rng.integers(0, 4, size=n)
        if len(set(labels.tolist())) < 2:
            continue
        assert abs(adjusted_mutual_information(labels, labels) - 1.0) <= 1e-9

    for seed in range(20):
        rng_pair = np.random.default_rng(400 + seed)
        a = rng_pair.integers(0, 4, size=1000)
        b = rng_pair.integers(0, 4, size=1000)
        assert abs(adjusted_mutual_information(a, b)) < 0.05

    worst = 0.0
    for case in range(50):
        rng_case = np.random.default_rng(900 + case)
        n = int(rng_case.integers(4, 31))
        a = rng_case.integers(0, int(rng_case.integers(2, 5)), size=n)
        b = rng_case.integers(0, int(rng_case.integers(2, 5)), size=n)
        a_margins = np.array(sorted(Counter(a.tolist()).values()))
        b_margins = np.array(sorted(Counter(b.tolist()).values()))
        got = expected_mutual_information(a_margins, b_margins, n)
        want = exact_expected_mi(a.tolist(), b.tolist())
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-10
    print(f"criterion 4: PASS (identity AMI 1.0, independent |AMI| < 0.05, "
          f"E[MI] max abs err {worst:.2e})")


def test_criterion_05_shuffle_divide_invariants_bulk():
    pool = []
    for m in range(2, 13):
        for variant in range(30):
            text = " ".join(f"Sent{variant} number{j} end."
                            for j in range(m))
            pool.append(Document(f"m{m}v{variant}", text))
    violations = 0
    draws = 100_000
    picker = np.random.default_rng(47)
    doc_indices = picker.integers(0, len(pool), size=draws)
    for it in range(draws):
        doc = pool[doc_indices[it]]
        m = len(doc.sentences)
        half_a, half_b = shuffle_divide(doc, derive_rng(it, "bulk"))
        ids_a, ids_b = half_a.tolist(), half_b.tolist()
        if set(ids_a) & set(ids_b):
            violations += 1
        elif sorted(ids_a + ids_b) != list(range(m)):
            violations += 1
        elif abs(len(ids_a) - len(ids_b)) > 1:
            violations += 1
    assert violations == 0
    print(f"criterion 5: PASS ({draws} (doc, seed) pairs, 0 violations)")


def test_criterion_06_epoch_one_blend_is_bitwise_tfidf():
    rng = np.random.default_rng(53)
    for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
        sim_tfidf = rng.uniform(-1, 1, size=(12, 12))
        sim_tfidf = (sim_tfidf + sim_tfidf.T) / 2
        sim_model = rng.uniform(-1, 1, size=(12, 12))
        blended = blended_similarity(sim_tfidf, sim_model, alpha, epoch=1)
        assert blended.tobytes() == sim_tfidf.tobytes()
    print("criterion 6: PASS (epoch-1 blend bit-identical for all alpha)")


def exhaustive_two_partition_objective(x):
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    n = x.shape[0]
    best = -np.inf
    for bits in itertools.product([0, 1], repeat=n - 1):
        labels = np.array((0,) + bits)
        if labels.min() == labels.max():
            continue
        total = 0.0
        for j in (0, 1):
            members = x[labels == j]
            total += np.linalg.norm(members.sum(axis=0))
        best = max(best, total)
    return best


def test_criterion_07_kmeans_monotone_and_exhaustive_optimum(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cluster, "KMEANS_RESTARTS", 2)
        for run in range(100):
            rng = np.random.default_rng(600 + run)
            n = int(rng.integers(8, 40))
            d = int(rng.integers(2, 8))
            k = int(rng.integers(2, 5))
            x = rng.normal(size=(n, d))
            model = spherical_kmeans(x, k=k, seed=run)
            history = model.objective_history
            assert all(history[i + 1] >= history[i] - 1e-9
                       for i in range(len(history) - 1))

    for trial in range(5):
        rng = np.random.default_rng(700 + trial)
        n = int(rng.integers(6, 13))
        half = n // 2
        x = np.vstack([
            np.array([1.0, 0.0, 0.0]) + rng.normal(scale=0.05, size=(half, 3)),
            np.array([-1.0, 0.3, 0.0]) + rng.normal(scale=0.05, size=(n - half, 3)),
        ])
        model = spherical_kmeans(x, k=2, seed=trial)
        best = exhaustive_two_partition_objective(x)
        assert model.objective == pytest.approx(best, abs=1e-9)
    print("criterion 7: PASS (100 monotone runs, exhaustive 2-partition "
          "optimum matched)")


def test_criterion_08_tfidf_matches_counting_oracle():
    texts = [
        "the cat sat on the mat",
        "the dog sat on the log",
        "cats and dogs are animals",
        "the quick brown fox jumps",
        "a lazy dog sleeps all day",
        "the mat was red and worn",
        "foxes jump over lazy dogs",
        "animals sleep when tired",
        "the red fox runs quick",
        "a cat and a dog play",
    ]
    docs = tuple(Document(f"d{i}", t) for i, t in enumerate(texts))
    corpus = Corpus(documents=docs)
    tokens, terms = index_tokens(doc.text for doc in corpus.documents)
    x = transform_corpus(fit_tfidf(terms, len(tokens)), terms)

    n = len(texts)
    df = Counter()
    for text in texts:
        df.update(set(tokenize_text(text)))
    # column j is the j-th distinct token in sorted order
    assert tokens == sorted(df)
    column = {token: j for j, token in enumerate(sorted(df))}
    worst = 0.0
    assert x.shape == (n, len(df))
    for doc, dense in zip(corpus.documents, x.toarray()):
        tf = Counter(tokenize_text(doc.text))
        oracle = np.zeros(len(df))
        for token, count in tf.items():
            idf = math.log((1 + n) / (1 + df[token])) + 1
            oracle[column[token]] = count * idf
        oracle /= math.sqrt(float(oracle @ oracle))
        worst = max(worst, float(np.abs(dense - oracle).max()))
        assert np.allclose(dense, oracle, atol=1e-12)
    print(f"criterion 8: PASS (10-doc counting oracle, max abs err {worst:.2e})")


def cluster_accuracy_of(params, vocab, corpus, config):
    embeddings = embed_corpus(params, vocab, corpus, config.max_len_test)
    model = spherical_kmeans(embeddings, k=config.num_clusters, seed=0)
    acc, _ = clustering_accuracy(corpus.labels_array(), model.assignments)
    return acc


def test_criterion_09_end_to_end_synthetic():
    started = time.perf_counter()
    corpus = generate_synthetic_corpus(topics=4, docs_per_topic=50,
                                       overlap=0.2, seed=0)
    config = TrainConfig(method="sad", batch_size=32, learning_rate=5e-3,
                         epochs=25, num_clusters=4, seed=0)
    result = train(corpus, config)

    untrained = init_params(len(result.vocab), config.embed_dim,
                            config.output_dim, seed=config.seed)
    acc_untrained = cluster_accuracy_of(untrained, result.vocab, corpus, config)
    acc_trained = cluster_accuracy_of(result.best_params, result.vocab,
                                      corpus, config)
    assert acc_trained >= 0.90
    assert acc_trained >= acc_untrained + 0.2

    tps_config = TrainConfig(method="tps", batch_size=32, learning_rate=5e-3,
                             epochs=1, num_clusters=4, seed=0)
    tps_result = train(corpus, tps_config)
    match_rate = tps_result.history[0]["label_match_rate"]
    assert match_rate >= 0.95

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 9: PASS (untrained acc {acc_untrained:.3f}, trained acc "
          f"{acc_trained:.3f}, epoch-1 match rate {match_rate:.3f}, "
          f"{elapsed:.1f}s)")


def test_criterion_10_finetune_ordering_over_paired_seeds():
    acc_pre_aug, acc_fresh_aug, acc_fresh_plain = [], [], []
    for i in range(5):
        corpus = generate_synthetic_corpus(vocab_per_topic=300, seed=100 + i)
        n = len(corpus)
        order = derive_rng(i, "split").permutation(n)
        cut = int(n * 0.75)
        test_idx = set(int(j) for j in order[:cut])
        train_docs = tuple(d for j, d in enumerate(corpus.documents)
                           if j not in test_idx)
        test_docs = tuple(d for j, d in enumerate(corpus.documents)
                          if j in test_idx)
        train_c = Corpus(documents=train_docs, label_names=corpus.label_names)
        test_c = Corpus(documents=test_docs, label_names=corpus.label_names)

        pretrain_cfg = TrainConfig(method="sad", batch_size=32,
                                   learning_rate=5e-3, epochs=25,
                                   num_clusters=4, seed=i,
                                   max_len_train=64, max_len_test=128)
        pretrained = train(corpus, pretrain_cfg)

        vocab = pretrained.vocab
        fresh = init_params(len(vocab), pretrain_cfg.embed_dim,
                            pretrain_cfg.output_dim, seed=i + 777)
        ft_cfg = TrainConfig(method="sad", batch_size=32, learning_rate=3e-3,
                             epochs=8, num_clusters=4, seed=i,
                             max_len_train=64, max_len_test=128)

        _, a = supervised_finetune(pretrained.best_params, vocab, train_c,
                                   test_c, use_sad=True, config=ft_cfg)
        _, b = supervised_finetune(fresh, vocab, train_c, test_c,
                                   use_sad=True, config=ft_cfg)
        _, c = supervised_finetune(fresh, vocab, train_c, test_c,
                                   use_sad=False, config=ft_cfg)
        acc_pre_aug.append(a)
        acc_fresh_aug.append(b)
        acc_fresh_plain.append(c)

    mean_a = float(np.mean(acc_pre_aug))
    mean_b = float(np.mean(acc_fresh_aug))
    mean_c = float(np.mean(acc_fresh_plain))
    assert mean_a >= mean_b
    assert mean_b >= mean_c - 0.02
    print(f"criterion 10: PASS (pretrained+aug {mean_a:.3f} >= fresh+aug "
          f"{mean_b:.3f} >= fresh {mean_c:.3f} - 0.02, 5 paired seeds)")


EXTERNAL_EMBEDDINGS = os.environ.get("SADCLUSTER_NEWSGROUP_EMBEDDINGS")
EXTERNAL_CORPUS = os.environ.get("SADCLUSTER_NEWSGROUP_CORPUS")


@pytest.mark.skipif(
    not (EXTERNAL_EMBEDDINGS and EXTERNAL_CORPUS),
    reason="set SADCLUSTER_NEWSGROUP_EMBEDDINGS and SADCLUSTER_NEWSGROUP_CORPUS "
           "to run the full-fidelity path",
)
def test_criterion_11_external_embeddings_full_fidelity():
    corpus = load_corpus(EXTERNAL_CORPUS)
    ids, matrix = read_embeddings(EXTERNAL_EMBEDDINGS)
    row = {doc_id: i for i, doc_id in enumerate(ids)}
    embeddings = matrix[[row[doc.id] for doc in corpus.documents]]
    k = max(corpus.labels_array()) + 1
    model = spherical_kmeans(embeddings, k=k, seed=0)
    report = evaluate_clustering(corpus.labels_array(), model.assignments,
                                 embeddings=embeddings)
    assert np.isfinite(report.acc) and np.isfinite(report.ami)

    tokens, terms = index_tokens(doc.text for doc in corpus.documents)
    pairing = top1_from_matrix(TopKSimilarity(
        transform_corpus(fit_tfidf(terms, len(tokens)), terms)))
    rate = label_match_rate(pairing, corpus.labels_array())
    in_band = abs(rate - 0.85) <= 0.05
    print(f"criterion 11: PASS (acc {report.acc:.4f}, ami {report.ami:.4f}, "
          f"top-1 match rate {rate:.4f} vs 0.85 reference, "
          f"{'inside' if in_band else 'outside'} the +/-0.05 band)")
