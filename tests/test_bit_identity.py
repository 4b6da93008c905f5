"""Oracles that pin the fast encoder and optimizer to the reference maths.

The references below are the straightforward implementations: a padded
gather with a masked sum for the forward pass, ``np.add.at`` for the
embedding gradient, AdamW/SGD written as whole-array expressions,
TF-IDF built one document vector at a time, and k-means, silhouette,
MI and EMI written as loops over clusters, samples and table cells. The
sparse pooling and the in-place optimizer must reproduce them bit for
bit, step after step, views built from per-sentence token ids must equal
tokenizing the joined view, and the one-pass TF-IDF matrix must give the
same similarities. k-means must match bit for bit; the metrics, whose
sums run in another order, must agree within 1e-12.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse
from scipy.special import gammaln

from sadcluster.augment import shuffle_divide
from sadcluster.cluster import (
    _kmeanspp_init,
    _normalize_rows,
    _reseed_empty,
    _update_centroids,
    spherical_kmeans,
)
from sadcluster.contrastive import (
    TrainConfig,
    build_batch_sad,
    init_optimizer_state,
    nt_xent_gradient,
    optimizer_step,
)
from sadcluster.corpus import Corpus, Document
from sadcluster.evaluate import (
    adjusted_mutual_information,
    clustering_accuracy,
    confusion_matrix,
    entropy,
    expected_mutual_information,
    hungarian,
    mutual_information,
    silhouette_score,
)
from sadcluster.encoder import (
    TokenSequence,
    build_vocab,
    embed_corpus,
    encode_batch_backward,
    encode_batch_forward,
    init_params,
    text_ids,
    tokenize,
)
from sadcluster.rng import derive_rng
from sadcluster.synth import generate_synthetic_corpus
from sadcluster.tfidf import (
    fit_tfidf,
    similarity_matrix,
    tokenize_text,
    transform_corpus,
)


def reference_forward(params, seqs):
    lengths = np.array([seq.length for seq in seqs], dtype=np.int64)
    ids = np.zeros((len(seqs), max(seq.max_len for seq in seqs)), dtype=np.int64)
    for row, seq in zip(ids, seqs):
        row[:seq.length] = seq.ids  # pad ids (0) fill the rest of the row
    mask = np.arange(ids.shape[1])[None, :] < lengths[:, None]
    gathered = params.embedding_table[ids] * mask[:, :, None]
    pooled = gathered.sum(axis=1) / lengths[:, None]
    if params.projection_w is None:
        return pooled, {"ids": ids, "lengths": lengths, "mask": mask}
    out = np.tanh(pooled @ params.projection_w + params.projection_b)
    return out, {"ids": ids, "lengths": lengths, "mask": mask,
                 "pooled": pooled, "out": out}


def reference_backward(params, cache, grad_out):
    ids, lengths, mask = cache["ids"], cache["lengths"], cache["mask"]
    if params.projection_w is None:
        grad_pooled = grad_out
        grads = {}
    else:
        grad_affine = grad_out * (1.0 - cache["out"] ** 2)
        grads = {
            "projection_w": cache["pooled"].T @ grad_affine,
            "projection_b": grad_affine.sum(axis=0),
        }
        grad_pooled = grad_affine @ params.projection_w.T
    per_position = (grad_pooled / lengths[:, None])[:, None, :] * mask[:, :, None]
    grad_table = np.zeros_like(params.embedding_table)
    np.add.at(grad_table, ids.ravel(), per_position.reshape(-1, per_position.shape[2]))
    grads["embedding_table"] = grad_table
    return grads


def reference_optimizer_step(tensors, grads, config, state):
    lr = config.learning_rate
    wd = config.weight_decay
    if config.optimizer == "sgd":
        for name, grad in grads.items():
            tensors[name] -= lr * (grad + wd * tensors[name])
        return
    state["step"] += 1
    t = state["step"]
    b1, b2 = config.beta1, config.beta2
    for name, grad in grads.items():
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(grad)
            state["v"][name] = np.zeros_like(grad)
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        v += (1 - b2) * grad**2
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        tensors[name] -= lr * (m_hat / (np.sqrt(v_hat) + config.eps)
                               + wd * tensors[name])


def random_views(rng, n, vocab_size, max_len):
    """Views with many repeated ids, so pooling order matters."""
    views = []
    for _ in range(n):
        length = int(rng.integers(1, max_len + 1))
        views.append(TokenSequence(rng.integers(1, min(vocab_size, 12), size=length),
                                   max_len))
    return views


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("output_dim", [None, 8])
@pytest.mark.parametrize("optimizer,weight_decay", [("adamw", 0.0), ("adamw", 0.01),
                                                    ("sgd", 0.0), ("sgd", 0.01)])
def test_training_steps_match_the_reference(output_dim, optimizer, weight_decay):
    rng = np.random.default_rng(17)
    config = TrainConfig(optimizer=optimizer, weight_decay=weight_decay,
                         learning_rate=0.05, temperature=0.5)
    fast = init_params(40, 6, output_dim, seed=3)
    ref = fast.copy()
    ref_tensors = ref.tensors()
    state = init_optimizer_state()
    ref_state = {"step": 0, "m": {}, "v": {}}
    for _ in range(8):
        views = random_views(rng, 8, 40, 9)
        out, cache = encode_batch_forward(fast, views)
        ref_out, ref_cache = reference_forward(ref, views)
        assert same_bits(out, ref_out)
        grad_out = nt_xent_gradient(out, config.temperature)
        grads = encode_batch_backward(fast, cache, grad_out)
        ref_grads = reference_backward(ref, ref_cache, grad_out)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert same_bits(grads[name], ref_grads[name]), name
        optimizer_step(fast, grads, config, state)
        reference_optimizer_step(ref_tensors, ref_grads, config, ref_state)
        for name, tensor in fast.tensors().items():
            assert same_bits(tensor, ref_tensors[name]), name


@pytest.mark.parametrize("optimizer,weight_decay", [("adamw", 0.0), ("adamw", 0.1),
                                                    ("sgd", 0.1)])
def test_optimizer_matches_the_reference_over_many_steps(optimizer, weight_decay):
    rng = np.random.default_rng(5)
    config = TrainConfig(optimizer=optimizer, weight_decay=weight_decay,
                         learning_rate=1e-2)
    # the table spans several AdamW blocks, the last one partial
    fast = {"table": rng.normal(size=(9000, 16)), "bias": rng.normal(size=16),
            "scale": np.array(rng.normal())}
    ref = {name: tensor.copy() for name, tensor in fast.items()}
    state = init_optimizer_state()
    ref_state = {"step": 0, "m": {}, "v": {}}
    for _ in range(20):
        grads = {name: rng.normal(size=t.shape) * (rng.random(t.shape) < 0.3)
                 for name, t in fast.items()}
        optimizer_step(fast, grads, config, state)
        reference_optimizer_step(ref, grads, config, ref_state)
        for name in fast:
            assert same_bits(fast[name], ref[name]), name


def test_embed_corpus_matches_the_reference():
    texts = ["alpha beta beta gamma. delta alpha!", "beta beta beta.",
             "gamma delta epsilon zeta eta theta alpha beta."]
    corpus = Corpus([Document(f"d{i}", t, [t]) for i, t in enumerate(texts)])
    vocab = build_vocab(corpus, 100)
    for output_dim in (None, 5):
        params = init_params(len(vocab), 7, output_dim, seed=1)
        seqs = [tokenize(t, vocab, 4) for t in texts]
        expected, _ = reference_forward(params, seqs)
        assert same_bits(embed_corpus(params, vocab, corpus, 4), expected)


# Pieces whose lowercasing or tokenizing is unusual: Greek final sigma,
# dotted capital I (lowercases to two code points), sharp s, digits,
# underscores (token separators), combining marks and punctuation.
PIECES = ["ΟΔΟΣ", "ΣΑΣ", "Σ", "İstanbul", "İ", "STRAßE", "ß", "42", "3.14",
          "snake_case", "_", "naïve", "café", "ǅemal", "ﬁne", "word",
          "Word", "WORD.", "'Σ'", "x.Σ", "!!!", "...", "?", "—", "«»", "😀"]


def random_sentence(rng):
    if rng.random() < 0.2:
        return str(rng.choice(["!!!", "...", "?!", "— «»", "_ _"]))
    words = rng.choice(PIECES, size=int(rng.integers(1, 6)))
    return " ".join(str(w) for w in words) + str(rng.choice([".", "!", "?", ""]))


def test_sentence_ids_concatenate_to_the_joined_view():
    rng = np.random.default_rng(23)
    docs = []
    for d in range(60):
        sentences = [random_sentence(rng) for _ in range(int(rng.integers(2, 8)))]
        doc = Document(f"d{d}", " ".join(sentences))
        doc.sentences = sentences
        docs.append(doc)
    corpus = Corpus(docs)
    vocab = build_vocab(corpus, 1000)
    assert len(vocab) > 20  # the non-ASCII pieces are real tokens, not unk
    for doc in docs:
        joined = np.concatenate([text_ids(s, vocab) for s in doc.sentences])
        for max_len in (1, 3, 8, 64):
            expected = tokenize(doc.text, vocab, max_len)
            assert np.array_equal(joined[:max_len], expected.ids)
    sentence_ids = [[text_ids(s, vocab) for s in doc.sentences] for doc in docs]
    for max_len in (2, 5, 64):
        views = build_batch_sad(docs, derive_rng(9, "views"), sentence_ids, max_len)
        rng_views = derive_rng(9, "views")
        for k, doc in enumerate(docs):
            for view, half in zip(views[2 * k:2 * k + 2], shuffle_divide(doc, rng_views)):
                text = " ".join(doc.sentences[i] for i in half)
                expected = tokenize(text, vocab, max_len)
                assert np.array_equal(view.ids, expected.ids)
                assert view.length == expected.length


def reference_transform(model, doc):
    """One document's TF-IDF vector as sorted (indices, values)."""
    counts = Counter()
    for token in tokenize_text(doc.text):
        idx = model.vocabulary.get(token)
        if idx is not None:
            counts[idx] += 1
    if not counts:
        return np.empty(0, dtype=np.int64), np.empty(0)
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices], dtype=np.float64) * model.idf[indices]
    values /= np.sqrt(np.dot(values, values))
    return indices, values


def reference_similarity(model, corpus):
    """Per-document vectors stacked into CSR, then the sparse cosine."""
    vectors = [reference_transform(model, doc) for doc in corpus.documents]
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, (indices, _) in enumerate(vectors):
        indptr[i + 1] = indptr[i] + indices.size
    x = scipy.sparse.csr_matrix(
        (np.concatenate([v for _, v in vectors]), np.concatenate([i for i, _ in vectors]),
         indptr), shape=(len(vectors), len(model.vocabulary)))
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    safe = np.where(norms > 0, norms, 1.0)
    unit = scipy.sparse.diags(1.0 / safe) @ x
    sims = np.asarray((unit @ unit.T).todense())
    zero = norms == 0
    sims[zero, :] = 0.0
    sims[:, zero] = 0.0
    return x, sims


def corpus_of(*texts):
    return Corpus([Document(f"d{i}", t, [t]) for i, t in enumerate(texts)])


def tfidf_case(name):
    """(model, corpus) pairs: the model is fitted on the first corpus."""
    rng = np.random.default_rng(31)
    words = [f"w{i}" for i in range(60)]
    random_docs = corpus_of(*(" ".join(rng.choice(words, size=int(rng.integers(1, 30))))
                              for _ in range(40)))
    if name == "repeated-tokens":
        corpus = corpus_of("a a a b b c", "c c c c a", "b a b a b a", "a b c a b c d d")
        return fit_tfidf(corpus), corpus
    if name == "oov-only-and-zero-rows":
        applied = corpus_of("w1 w1 w2 zzz", "zzz qqq", "w3 w59 w59 w59", "!!! ...", "w0")
        return fit_tfidf(random_docs), applied
    if name == "random-words":
        return fit_tfidf(random_docs), random_docs
    corpus = generate_synthetic_corpus(topics=3, docs_per_topic=40, vocab_per_topic=80,
                                       sentences_per_doc=4, seed=3)
    assert len(corpus) > 100
    return fit_tfidf(corpus), corpus


@pytest.mark.parametrize("case", ["repeated-tokens", "oov-only-and-zero-rows",
                                  "random-words", "synthetic-n120"])
def test_tfidf_matrix_matches_the_per_document_reference(case):
    model, corpus = tfidf_case(case)
    expected_x, expected_sims = reference_similarity(model, corpus)
    x = transform_corpus(model, corpus)
    assert x.shape == expected_x.shape
    assert np.array_equal(x.indptr, expected_x.indptr)
    assert np.array_equal(x.indices, expected_x.indices)
    assert same_bits(x.data, expected_x.data)
    assert same_bits(similarity_matrix(x), expected_sims)


def reference_update_centroids(x, assignments, centroids):
    for j in range(centroids.shape[0]):
        members = x[assignments == j]
        if members.shape[0] == 0:
            continue
        mean = members.sum(axis=0)
        norm = np.linalg.norm(mean)
        if norm > 0:
            centroids[j] = mean / norm
    return centroids


def reference_run_once(x, k, rng, max_iter, tol):
    n = x.shape[0]
    centroids = _kmeanspp_init(x, k, rng)
    sims = x @ centroids.T
    assignments = np.argmax(sims, axis=1)
    _reseed_empty(x, sims, assignments, centroids)
    objective = float(sims[np.arange(n), assignments].sum())
    history = [objective]
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        centroids = reference_update_centroids(x, assignments, centroids)
        sims = x @ centroids.T
        new_assignments = np.argmax(sims, axis=1)
        _reseed_empty(x, sims, new_assignments, centroids)
        new_objective = float(sims[np.arange(n), new_assignments].sum())
        assert new_objective >= objective - 1e-9
        history.append(new_objective)
        improved = new_objective - objective
        assignments, objective = new_assignments, new_objective
        if improved < tol:
            break
    return centroids, assignments, objective, iterations, history


def reference_kmeans(embeddings, k, seed, max_iter=100, tol=1e-6, restarts=10):
    x = _normalize_rows(embeddings)
    best = None
    for r in range(restarts):
        run = reference_run_once(x, k, derive_rng(seed, "kmeans", r), max_iter, tol)
        if best is None or run[2] > best[2]:
            best = run
    return best


def reference_silhouette(embeddings, assignments, sample_cap=2000, seed=0):
    x = np.asarray(embeddings, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.int64)
    n = x.shape[0]
    cluster_ids = np.unique(assignments)
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    if n > sample_cap:
        sample = np.sort(derive_rng(seed, "silhouette").choice(n, size=sample_cap,
                                                                replace=False))
    else:
        sample = np.arange(n)
    counts = {int(c): int(np.sum(assignments == c)) for c in cluster_ids}
    dists = 1.0 - unit[sample] @ unit.T
    scores = np.empty(sample.size)
    for row, i in enumerate(sample):
        own = int(assignments[i])
        if counts[own] == 1:
            scores[row] = 0.0
            continue
        d = dists[row]
        a = (d[assignments == own].sum() - d[i]) / (counts[own] - 1)
        b = np.inf
        for c in cluster_ids:
            c = int(c)
            if c == own:
                continue
            b = min(b, d[assignments == c].mean())
        top = max(a, b)
        scores[row] = 0.0 if top == 0.0 else (b - a) / top
    return float(scores.mean())


def reference_mutual_information(counts):
    n = counts.sum()
    a = counts.sum(axis=1)
    b = counts.sum(axis=0)
    mi = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            nij = counts[i, j]
            if nij > 0:
                mi += (nij / n) * np.log(n * nij / (a[i] * b[j]))
    return float(mi)


def reference_expected_mutual_information(a, b, n):
    emi = 0.0
    log_n = np.log(n)
    for ai in np.asarray(a, dtype=np.int64):
        for bj in np.asarray(b, dtype=np.int64):
            for nij in range(max(1, ai + bj - n), min(ai, bj) + 1):
                log_term = (
                    gammaln(ai + 1) + gammaln(bj + 1)
                    + gammaln(n - ai + 1) + gammaln(n - bj + 1)
                    - gammaln(n + 1) - gammaln(nij + 1)
                    - gammaln(ai - nij + 1) - gammaln(bj - nij + 1)
                    - gammaln(n - ai - bj + nij + 1)
                )
                emi += (nij / n) * (log_n + np.log(nij) - np.log(ai * bj)) * np.exp(log_term)
    return float(emi)


def reference_accuracy(labels, clusters):
    counts = confusion_matrix(labels, clusters)
    n_labels, n_clusters = counts.shape
    size = max(n_labels, n_clusters)
    padded = np.zeros((size, size), dtype=np.float64)
    padded[:n_labels, :n_clusters] = counts
    perm = hungarian(-padded)
    mapping = {}
    matched = 0
    for label_row, cluster_col in enumerate(perm):
        if label_row < n_labels and cluster_col < n_clusters:
            mapping[int(cluster_col)] = label_row
            matched += counts[label_row, cluster_col]
    return float(matched / counts.sum()), mapping


def reference_ami(labels, clusters):
    counts = confusion_matrix(labels, clusters)
    a = counts.sum(axis=1)
    b = counts.sum(axis=0)
    a, b = a[a > 0], b[b > 0]
    if a.size == 1 and b.size == 1:
        return 1.0
    n = int(counts.sum())
    mi = reference_mutual_information(counts)
    emi = reference_expected_mutual_information(a, b, n)
    denom = (entropy(a) + entropy(b)) / 2.0 - emi
    return 0.0 if denom == 0.0 else float((mi - emi) / denom)


def kmeans_case(name):
    """(embeddings, k, seed) for one named k-means case."""
    rng = np.random.default_rng(41)
    if name == "reseeded-empty-cluster":
        # three directions for five clusters: k-means++ must repeat a point
        x = np.repeat(rng.normal(size=(3, 4)), [6, 5, 4], axis=0)
        x *= rng.uniform(0.5, 2.0, size=(x.shape[0], 1))
        return x, 5, 0
    if name == "blobs-d2":
        centers = rng.normal(size=(4, 2))
        return np.repeat(centers, 30, axis=0) + rng.normal(scale=0.3, size=(120, 2)), 4, 3
    if name == "noise-k20":
        return rng.normal(size=(400, 16)), 20, 7
    x, k = rng.normal(size=(60, 5)), 6
    x[-3:] = x[0]  # repeated rows among otherwise random ones
    return x, k, 11


@pytest.mark.parametrize("case", ["reseeded-empty-cluster", "blobs-d2", "noise-k20",
                                  "repeated-rows"])
def test_kmeans_matches_the_loop_reference(case):
    x, k, seed = kmeans_case(case)
    if case == "reseeded-empty-cluster":
        unit = _normalize_rows(x)
        first = _kmeanspp_init(unit, k, derive_rng(seed, "kmeans", 0))
        assert np.bincount(np.argmax(unit @ first.T, axis=1), minlength=k).min() == 0
    model = spherical_kmeans(x, k=k, seed=seed)
    centroids, assignments, objective, iterations, history = reference_kmeans(x, k, seed)
    assert same_bits(model.centroids, centroids)
    assert same_bits(model.assignments, assignments)
    assert model.objective == objective
    assert model.iterations_run == iterations
    assert model.objective_history == history


def test_update_centroids_matches_the_masked_sums():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n, d, k = int(rng.integers(2, 80)), int(rng.integers(2, 20)), int(rng.integers(2, 9))
        x = _normalize_rows(rng.normal(size=(n, d)))
        assignments = rng.integers(0, k, size=n)  # some clusters stay empty
        start = _normalize_rows(rng.normal(size=(k, d)))
        got = _update_centroids(x, assignments, start.copy())
        assert same_bits(got, reference_update_centroids(x, assignments, start.copy()))


def silhouette_case(name):
    """(embeddings, assignments, sample_cap) for one named silhouette case."""
    rng = np.random.default_rng(47)
    x = rng.normal(size=(90, 6))
    assignments = rng.integers(0, 4, size=90)
    if name == "singletons":
        assignments[:3] = [4, 5, 6]
        assignments[3:] = np.minimum(assignments[3:], 3)
        return x, assignments, 2000
    if name == "identical-points":
        # two clusters of one repeated point: a = b = 0 everywhere
        return np.tile(x[:1], (10, 1)), np.repeat([0, 1], 5), 2000
    if name == "sampled":
        return x, assignments, 25
    return x, np.where(assignments % 2 == 0, 0, 5), 2000  # ids {0, 5}


@pytest.mark.parametrize("case", ["singletons", "identical-points", "sampled",
                                  "non-contiguous-ids"])
def test_silhouette_matches_the_loop_reference(case):
    x, assignments, cap = silhouette_case(case)
    for seed in (0, 3):
        got = silhouette_score(x, assignments, sample_cap=cap, seed=seed)
        assert abs(got - reference_silhouette(x, assignments, cap, seed)) <= 1e-12
    if case == "identical-points":
        assert got == 0.0


def test_accuracy_mi_emi_and_ami_match_the_loop_references():
    rng = np.random.default_rng(53)
    for trial in range(40):
        n = int(rng.integers(2, 300))
        labels = rng.integers(0, int(rng.integers(1, 8)), size=n)
        clusters = rng.integers(0, int(rng.integers(1, 8)), size=n)
        if trial % 4 == 0:
            clusters = np.where(clusters % 2 == 0, 0, 5)  # empty columns between ids
        acc, mapping = clustering_accuracy(labels, clusters)
        ref_acc, ref_mapping = reference_accuracy(labels, clusters)
        assert acc == ref_acc
        assert list(mapping.items()) == list(ref_mapping.items())
        counts = confusion_matrix(labels, clusters)
        assert abs(mutual_information(counts) - reference_mutual_information(counts)) <= 1e-12
        a, b = counts.sum(axis=1), counts.sum(axis=0)
        a, b = a[a > 0], b[b > 0]
        emi = expected_mutual_information(a, b, n)
        assert abs(emi - reference_expected_mutual_information(a, b, n)) <= 1e-12
        assert abs(adjusted_mutual_information(labels, clusters)
                   - reference_ami(labels, clusters)) <= 1e-12
