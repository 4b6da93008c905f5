"""Oracles that pin the fast encoder and optimizer to the reference maths.

The references below are the straightforward implementations: a padded
gather with a masked sum for the forward pass, ``np.add.at`` for the
embedding gradient, AdamW written as whole-array expressions,
TF-IDF built one document vector at a time, its cosine as one sparse
product of all rows, top-1 pairing on a whole masked copy of the
epoch's blended matrix, the vocabulary counted
token by token with a ``Counter``, and k-means, silhouette,
MI and EMI written as loops over clusters, points and table cells, and
Fisher-Yates with one draw per swap. The sparse pooling and the gradient
of the touched table rows (scattered into zeros) must reproduce them bit
for bit, step after step, and the row-sparse in-place optimizer, whose
moments are scaled arrays, its parameters and true moments to
``ADAMW_RTOL``; views built
from per-sentence token ids must equal tokenizing the joined view, and a
text's sentences must tokenize to the text's tokens; the one-call
Fisher-Yates must give the same permutations and leave the stream where
the per-swap draws do; the one-pass TF-IDF matrix must give the same
similarities, the row-blocked similarity and pairing passes the
same bytes at any block size, and each row block of the similarity the
rows of the whole matrix; the sparse similarity must equal its
transpose, the top-K store must keep each row's largest entries and
bound the rest, and pairing on it must give the whole blended matrix's
top-1 at any kept count; and the
vocabulary and ids built from token indices must equal the ones
counted over the tokens of the regex the tokenizer is defined by, in
dict order and id for id. k-means must match bit for bit; the
metrics, whose sums run in another order, must agree within 1e-12,
the silhouette from cluster sums with the one from whole distance rows
on the benchmark's shapes too.
"""

import re
from collections import Counter

import numpy as np
import pytest
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from sadcluster import contrastive, tfidf
from sadcluster.augment import shuffle_divide
from sadcluster.cluster import (
    _kmeanspp_init,
    _reseed_empty,
    _update_centroids,
    spherical_kmeans,
    unit_rows,
)
from sadcluster.contrastive import (
    ADAMW_BETA1,
    ADAMW_BETA2,
    ADAMW_EPS,
    OptimizerState,
    TrainConfig,
    build_batch_sad,
    nt_xent_gradient,
    optimizer_step,
)
from sadcluster.corpus import Corpus, Document, split_sentences
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
    PAD_TOKEN,
    UNK_TOKEN,
    TokenSequence,
    build_vocab,
    embed_corpus,
    encode_batch_backward,
    encode_batch_forward,
    init_params,
    text_ids,
    tokenize,
)
from sadcluster.rng import derive_rng, fisher_yates
from sadcluster.synth import generate_synthetic_corpus
from test_encoder import vocab_of
from test_tfidf import oracle_tokens
from sadcluster.tfidf import (
    TopKSimilarity,
    blended_similarity,
    fit_tfidf,
    index_tokens,
    similarity_matrix,
    tokenize_text,
    top1_from_matrix,
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
    out = np.tanh(pooled @ params.projection_w + params.projection_b)
    return out, {"ids": ids, "lengths": lengths, "mask": mask,
                 "pooled": pooled, "out": out}


def reference_backward(params, cache, grad_out):
    ids, lengths, mask = cache["ids"], cache["lengths"], cache["mask"]
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
    state["step"] += 1
    t = state["step"]
    b1, b2 = ADAMW_BETA1, ADAMW_BETA2
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
        tensors[name] -= lr * (m_hat / (np.sqrt(v_hat) + ADAMW_EPS)
                               + wd * tensors[name])


# The row-sparse optimizer holds each moment as a scale times an array
# (``OptimizerState``), so it rounds differently from the reference above.
# The largest relative deviation these tests measure is 3.5e-11, on a
# first moment of 5.9e-7 left when terms of about 0.1 cancel; a wrong
# step, decay or bias correction is off by far more.
ADAMW_RTOL = 1e-9
# ±0.0 and subnormal entries, where the reference loses the bits that the
# scaled arrays keep in the normal range
ADAMW_ATOL = 1e-300


def assert_adamw_close(actual, expected, name):
    np.testing.assert_allclose(actual, expected, rtol=ADAMW_RTOL, atol=ADAMW_ATOL,
                               err_msg=name)


def true_moments(state, name):
    """The first and second moments that ``state`` holds for ``name``."""
    return state.m_scale * state.m[name], state.v_scale * np.square(state.r[name])


def assert_matches_reference(tensors, state, ref, ref_state):
    """Parameters and both true moments agree with the reference's."""
    for name in ref:
        assert_adamw_close(tensors[name], ref[name], name)
    for name in ref_state["m"]:
        m, v = true_moments(state, name)
        assert_adamw_close(m, ref_state["m"][name], f"m of {name}")
        assert_adamw_close(v, ref_state["v"][name], f"v of {name}")


def random_views(rng, n, vocab_size, max_len, high=12):
    """Views of ids below ``high``, with many repeats, so pooling order matters."""
    views = []
    for _ in range(n):
        length = int(rng.integers(1, max_len + 1))
        views.append(TokenSequence(rng.integers(1, min(vocab_size, high), size=length),
                                   max_len))
    return views


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def full_gradients(grads, rows, tensors):
    """The gradients with each row-sparse one scattered into rows of +0.0."""
    full = dict(grads)
    for name, touched in rows.items():
        full[name] = np.zeros_like(tensors[name])
        full[name][touched] = grads[name]
    return full


@pytest.mark.parametrize("output_dim", [8])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_training_steps_match_the_reference(output_dim, weight_decay):
    # the forward pass and the gradient must equal the references' on the
    # same parameters; the optimizer steps both on the same gradients
    rng = np.random.default_rng(17)
    config = TrainConfig(weight_decay=weight_decay, learning_rate=0.05, temperature=0.5)
    fast = init_params(40, 6, output_dim, seed=3)
    ref_tensors = {name: tensor.copy() for name, tensor in fast.tensors().items()}
    state = OptimizerState()
    ref_state = {"step": 0, "m": {}, "v": {}}
    for step in range(12):
        # rows 12..39 go untouched for six steps, then batches reach them
        views = random_views(rng, 8, 40, 9, high=12 if step < 6 else 40)
        out, cache = encode_batch_forward(fast, views)
        ref_out, ref_cache = reference_forward(fast, views)
        assert same_bits(out, ref_out)
        grad_out = nt_xent_gradient(out, config.temperature)
        grads, rows = encode_batch_backward(fast, cache, grad_out)
        ref_grads = reference_backward(fast, ref_cache, grad_out)
        assert rows.keys() == {"embedding_table"}
        assert same_bits(rows["embedding_table"],
                         np.unique(np.concatenate([view.ids for view in views])))
        full = full_gradients(grads, rows, fast.tensors())
        assert full.keys() == ref_grads.keys()
        for name in full:
            assert same_bits(full[name], ref_grads[name]), name
        optimizer_step(fast.tensors(), grads, config, state, rows)
        reference_optimizer_step(ref_tensors, ref_grads, config, ref_state)
        assert_matches_reference(fast.tensors(), state, ref_tensors, ref_state)


def sparse_gradient(rng, shape, touched):
    """Random rows for ``touched``, with entries of +0.0, -0.0 and subnormals."""
    grad = rng.normal(size=(len(touched), *shape[1:]))
    special = rng.choice([0.0, -0.0, 5e-324, -5e-324, -1e-310], size=grad.shape)
    return np.where(rng.random(grad.shape) < 0.3, special, grad)


def check_row_sparse_steps(config, tensors, sparse, steps, seed):
    """Step the optimizer with random row subsets of the ``sparse`` tensors
    and dense gradients for the others; the reference steps on the full
    gradients. Both start from zero moments, and after every step the
    parameters and true moments must agree within ``ADAMW_RTOL``."""
    rng = np.random.default_rng(seed)
    ref = {name: tensor.copy() for name, tensor in tensors.items()}
    state = OptimizerState()
    ref_state = {"step": 0, "m": {}, "v": {}}
    for step in range(steps):
        grads, rows = {}, {}
        for name, tensor in tensors.items():
            if name in sparse:
                # the last rows stay untouched for the first half, then not
                high = len(tensor) if step >= steps // 2 else max(1, len(tensor) // 2)
                count = int(rng.integers(0, high + 1))
                rows[name] = np.sort(rng.choice(high, size=count, replace=False))
                grads[name] = sparse_gradient(rng, tensor.shape, rows[name])
            else:
                grads[name] = sparse_gradient(rng, (1, *tensor.shape), [0])[0]
        optimizer_step(tensors, grads, config, state, rows)
        reference_optimizer_step(ref, full_gradients(grads, rows, tensors), config,
                                 ref_state)
        assert_matches_reference(tensors, state, ref, ref_state)


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_optimizer_matches_the_reference_over_many_steps(weight_decay):
    rng = np.random.default_rng(5)
    config = TrainConfig(weight_decay=weight_decay, learning_rate=1e-2)
    # the table spans several blocks, the last one partial; the bias is
    # row-sparse too, and the table's rows include -0.0 and subnormals
    table = rng.normal(size=(9000, 16))
    table[:50] = rng.choice([0.0, -0.0, 5e-324, -5e-324], size=(50, 16))
    tensors = {"table": table, "bias": rng.normal(size=16),
               "dense": rng.normal(size=(5, 3))}
    check_row_sparse_steps(config, tensors, {"table", "bias"}, 20, 11)


def reference_finetune(params, vocab, train_corpus, test_corpus, use_sad, config):
    """Fine-tuning on the dense references, with the head and the encoder
    each stepped by an optimizer state of its own."""
    train_labels = np.array(train_corpus.labels_array())
    test_labels = np.array(test_corpus.labels_array())
    k = int(max(train_labels.max(), test_labels.max())) + 1
    head = {"head_w": np.zeros((params.output_dim, k)), "head_b": np.zeros(k)}
    params = params.copy()
    tensors = params.tensors()
    head_state = {"step": 0, "m": {}, "v": {}}
    enc_state = {"step": 0, "m": {}, "v": {}}
    n = len(train_corpus)
    for epoch in range(1, config.epochs + 1):
        rng = derive_rng(config.seed, "finetune-epoch", epoch)
        texts = []
        for doc in train_corpus.documents:
            if use_sad and len(doc.sentences) >= 2:
                half_a, _ = shuffle_divide(doc, rng)
                texts.append(" ".join(doc.sentences[i] for i in half_a))
            else:
                texts.append(doc.text)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            seqs = [tokenize(texts[i], vocab, config.max_len_train) for i in idx]
            out, cache = reference_forward(params, seqs)
            logits = out @ head["head_w"] + head["head_b"]
            shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
            d_logits = shifted / shifted.sum(axis=1, keepdims=True)
            d_logits[np.arange(idx.size), train_labels[idx]] -= 1.0
            d_logits /= idx.size
            head_grads = {"head_w": out.T @ d_logits, "head_b": d_logits.sum(axis=0)}
            grad_out = d_logits @ head["head_w"].T
            reference_optimizer_step(head, head_grads, config, head_state)
            reference_optimizer_step(tensors, reference_backward(params, cache, grad_out),
                                     config, enc_state)
    test_emb = embed_corpus(params, vocab, test_corpus, config.max_len_test)
    predictions = np.argmax(test_emb @ head["head_w"] + head["head_b"], axis=1)
    return head, float(np.mean(predictions == test_labels))


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
@pytest.mark.parametrize("use_sad", [False, True])
def test_finetune_with_one_state_matches_two_state_reference(use_sad, weight_decay):
    corpus = generate_synthetic_corpus(topics=3, docs_per_topic=6, vocab_per_topic=40,
                                       seed=4)
    docs = corpus.documents
    train_c = Corpus(documents=docs[0::2], label_names=corpus.label_names)
    test_c = Corpus(documents=docs[1::2], label_names=corpus.label_names)
    vocab = vocab_of(corpus, 30000)
    params = init_params(len(vocab), 8, 6, seed=2)
    # 9 training documents in batches of 4: the last batch is partial
    config = TrainConfig(batch_size=4, learning_rate=0.05, weight_decay=weight_decay,
                         epochs=3, seed=7, max_len_train=24, max_len_test=32)
    head, accuracy = contrastive.supervised_finetune(params, vocab, train_c, test_c,
                                                     use_sad, config)
    ref_head, ref_accuracy = reference_finetune(params, vocab, train_c, test_c,
                                                use_sad, config)
    assert head.keys() == ref_head.keys()
    for name in head:
        assert_adamw_close(head[name], ref_head[name], name)
    assert accuracy == ref_accuracy


@st.composite
def row_sparse_cases(draw):
    rows = draw(st.integers(1, 70))
    cols = draw(st.integers(1, 4))
    config = TrainConfig(weight_decay=draw(st.sampled_from([0.0, 0.1])),
                         learning_rate=draw(st.sampled_from([1e-3, 0.5])))
    block_elements = draw(st.integers(1, rows * cols + 3))
    return (config, (rows, cols), block_elements, draw(st.integers(1, 6)),
            draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(row_sparse_cases())
def test_row_sparse_steps_match_the_reference_property(case):
    config, shape, block_elements, steps, seed = case
    table = np.random.default_rng(seed).normal(size=shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contrastive, "ADAMW_BLOCK_ELEMENTS", block_elements)
        check_row_sparse_steps(config, {"table": table}, {"table"}, steps, seed)


def test_embed_corpus_matches_the_reference():
    texts = ["alpha beta beta gamma. delta alpha!", "beta beta beta.",
             "gamma delta epsilon zeta eta theta alpha beta."]
    corpus = Corpus([Document(f"d{i}", t, [t]) for i, t in enumerate(texts)])
    vocab = vocab_of(corpus, 100)
    params = init_params(len(vocab), 7, 5, seed=1)
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
    vocab = vocab_of(corpus, 1000)
    assert len(vocab) > 20  # the non-ASCII pieces are real tokens, not unk
    for doc in docs:
        joined = np.concatenate([text_ids(s, vocab) for s in doc.sentences])
        for max_len in (1, 3, 8, 64):
            expected = tokenize(doc.text, vocab, max_len)
            assert np.array_equal(joined[:max_len], expected.ids)
    sentence_ids = [[text_ids(s, vocab) for s in doc.sentences] for doc in docs]
    for max_len in (2, 5, 64):
        rng = derive_rng(9, "views")
        halves = [shuffle_divide(doc, rng) for doc in docs]
        views = build_batch_sad(halves, sentence_ids, max_len)
        for k, doc in enumerate(docs):
            for view, half in zip(views[2 * k:2 * k + 2], halves[k]):
                text = " ".join(doc.sentences[i] for i in half)
                expected = tokenize(text, vocab, max_len)
                assert np.array_equal(view.ids, expected.ids)
                assert view.length == expected.length


# Characters where splitting could plausibly change tokens: final and
# medial sigma, dotted capital I, sharp s, terminators, abbreviations,
# an initial, a decimal, the ideographic full stop and several kinds of
# whitespace (tab, newline, no-break space, line separator).
SPLIT_PIECES = ["Σ", "ς", "σ", "ΟΔΟΣ", "İ", "ı", "ß", "ẞ", "a", "Ab", "7", "3.14",
                "_", "'", "—", ".", "!", "?", "。", " ", "  ", "\t", "\n", "\u00a0",
                "\u2028", "Mr", "e.g", "J", "ǅ", "\u0301"]


def test_sentences_tokenize_to_the_text_tokens():
    # sad training builds a document's ids from its sentences' ids
    rng = np.random.default_rng(31)
    for _ in range(5000):
        text = "".join(rng.choice(SPLIT_PIECES, size=int(rng.integers(0, 30))))
        joined = [token for s in split_sentences(text) for token in tokenize_text(s)]
        assert joined == tokenize_text(text), repr(text)


def reference_fisher_yates(n, rng):
    """One ``rng.integers(0, i + 1)`` per swap, from the top index down."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 20, 21, 64, 257])
def test_fisher_yates_draws_as_one_call_per_swap(n):
    for seed in range(60):
        fast, ref = derive_rng(seed, "fy"), derive_rng(seed, "fy")
        perm = fisher_yates(n, fast)
        expected = reference_fisher_yates(n, ref)
        assert perm.dtype == expected.dtype and perm.tolist() == expected.tolist()
        # the stream continues where the per-swap draws leave it
        assert fast.integers(0, 7, size=3).tolist() == ref.integers(0, 7, size=3).tolist()
        assert fisher_yates(9, fast).tolist() == reference_fisher_yates(9, ref).tolist()


def reference_fit(texts):
    """Column of each distinct token (sorted) and its smoothed idf, by counting."""
    df = Counter()
    for text in texts:
        df.update(set(oracle_tokens(text)))
    vocabulary = {token: i for i, token in enumerate(sorted(df))}
    df_arr = np.array([df[token] for token in vocabulary], dtype=np.float64)
    return vocabulary, np.log((1.0 + len(texts)) / (1.0 + df_arr)) + 1.0


def reference_transform(vocabulary, idf, text):
    """One document's TF-IDF vector as sorted (indices, values)."""
    counts = Counter(vocabulary[token] for token in oracle_tokens(text))
    if not counts:
        return np.empty(0, dtype=np.int64), np.empty(0)
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices], dtype=np.float64) * idf[indices]
    values /= np.sqrt(np.dot(values, values))
    return indices, values


def reference_tfidf(texts):
    """Per-document vectors stacked into CSR."""
    vocabulary, idf = reference_fit(texts)
    vectors = [reference_transform(vocabulary, idf, text) for text in texts]
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, (indices, _) in enumerate(vectors):
        indptr[i + 1] = indptr[i] + indices.size
    x = scipy.sparse.csr_matrix(
        (np.concatenate([v for _, v in vectors]), np.concatenate([i for i, _ in vectors]),
         indptr), shape=(len(vectors), len(vocabulary)))
    return idf, x


def reference_sparse_similarity(x):
    """Cosine of the unit rows as one sparse product, then made dense."""
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    unit = scipy.sparse.diags(1.0 / norms) @ x
    return np.asarray((unit @ unit.T).todense())


def tfidf_case(name):
    """The texts of one corpus."""
    rng = np.random.default_rng(31)
    words = [f"w{i}" for i in range(60)]
    random_texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 30))))
                    for _ in range(40)]
    if name == "repeated-tokens":
        return ["a a a b b c", "c c c c a", "b a b a b a", "a b c a b c d d"]
    if name == "oov-only-and-zero-rows":
        # columns are the corpus's own tokens: only token-free rows are empty
        return random_texts + ["w1 w1 w2", "!!! ...", "w3 w59 w59 w59", "", "w0"]
    if name == "random-words":
        return random_texts
    corpus = generate_synthetic_corpus(topics=3, docs_per_topic=40, vocab_per_topic=80,
                                       sentences_per_doc=4, seed=3)
    assert len(corpus) > 100
    return [doc.text for doc in corpus.documents]


@pytest.mark.parametrize("case", ["repeated-tokens", "oov-only-and-zero-rows",
                                  "random-words", "synthetic-n120"])
def test_tfidf_matrix_matches_the_per_document_reference(case):
    texts = tfidf_case(case)
    expected_idf, expected_x = reference_tfidf(texts)
    tokens, terms = index_tokens(texts)
    idf = fit_tfidf(terms, len(tokens))
    assert same_bits(idf, expected_idf)
    x = transform_corpus(idf, terms)
    assert x.shape == expected_x.shape
    assert np.array_equal(x.indptr, expected_x.indptr)
    assert np.array_equal(x.indices, expected_x.indices)
    assert same_bits(x.data, expected_x.data)
    # a token-free document's empty row has no cosine and is rejected
    # (tests/test_tfidf.py); every other row's is the one product's
    nonempty = np.diff(x.indptr) > 0
    assert same_bits(similarity_matrix(x[nonempty]),
                     reference_sparse_similarity(expected_x[nonempty]))


@pytest.mark.parametrize("case", ["oov-only-and-zero-rows", "synthetic-n120"])
@pytest.mark.parametrize("block_rows", [1, 7, 1000])
def test_sparse_similarity_blocks_match_the_one_product_reference(case, block_rows):
    # 7-row blocks leave a ragged last block; the first case's empty rows
    # are rejected (tests/test_tfidf.py), so its other rows are compared
    texts = tfidf_case(case)
    tokens, terms = index_tokens(texts)
    x = transform_corpus(fit_tfidf(terms, len(tokens)), terms)
    x = x[np.diff(x.indptr) > 0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tfidf, "PAIRING_BLOCK_ELEMENTS", block_rows * x.shape[0])
        assert same_bits(similarity_matrix(x), reference_sparse_similarity(x))


def reference_top1(sims):
    """Mask the diagonal of a whole copy, argmax each row."""
    n = sims.shape[0]
    masked = sims.astype(np.float64, copy=True)
    np.fill_diagonal(masked, -np.inf)
    partner = np.argmax(masked, axis=1)
    return partner, masked[np.arange(n), partner]


def reference_pairing(x, model_rows, alpha, epoch):
    """Top-1 of the whole blended matrix, ties to the smallest index."""
    return reference_top1(blended_similarity(
        similarity_matrix(x), similarity_matrix(model_rows), alpha, epoch))


def tied_vectors(rng, n, dim, duplicates):
    """Random rows, some copied from others (ties)."""
    x = rng.normal(size=(n, dim))
    x[rng.integers(0, n, size=duplicates)] = x[rng.integers(0, n, size=duplicates)]
    return x


def with_rows_set(x, rows, value, columns=slice(None)):
    """``x`` with ``value`` at the given rows and columns, in the format of ``x``."""
    x = x.tolil(copy=True) if scipy.sparse.issparse(x) else x.copy()
    x[rows, columns] = value
    return x.tocsr() if scipy.sparse.issparse(x) else x


def with_no_zero_row(x):
    """``x`` with a 1 in the first column of each all-zero row: a row of
    zero norm has no cosine and is rejected (tests/test_tfidf.py)."""
    return with_rows_set(x, np.flatnonzero(abs(x).sum(axis=1) == 0), 1.0, 0)


@st.composite
def pairing_cases(draw):
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tfidf_rows = tied_vectors(rng, n, draw(st.integers(1, 6)), draw(st.integers(0, n)))
    model_rows = tied_vectors(rng, n, draw(st.integers(1, 6)), draw(st.integers(0, n)))
    block_rows = draw(st.integers(1, n))
    block_elements = block_rows * n + draw(st.integers(0, n - 1))
    return (scipy.sparse.csr_matrix(tfidf_rows), model_rows,
            draw(st.sampled_from([0.0, 0.37, 0.5, 1.0])), draw(st.integers(1, 5)),
            block_elements)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(pairing_cases())
def test_blocked_top1_matches_the_whole_blend_reference(case):
    # the model similarity's bits depend on the row blocks it is formed in,
    # so the reference forms the whole one under the same block size; past
    # n = TOP_K + 1 rows keep only their top entries
    x, model_rows, alpha, epoch, block_elements = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tfidf, "PAIRING_BLOCK_ELEMENTS", block_elements)
        expected_partner, expected_similarity = reference_pairing(x, model_rows,
                                                                  alpha, epoch)
        pairing = top1_from_matrix(TopKSimilarity(x), None if epoch == 1 else model_rows,
                                   alpha, epoch)
    assert same_bits(pairing.partner, expected_partner)
    assert same_bits(pairing.similarity, expected_similarity)


@st.composite
def top_k_cases(draw):
    """A kept count K of 2-4; CSR matrices of n = K+1, K+2 or more rows,
    with more than K copies of one row; embeddings with copied rows;
    every blended epoch."""
    k = draw(st.integers(2, 4))
    n = draw(st.sampled_from([k + 1, k + 2, draw(st.integers(k + 3, 40))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 5))
    # few distinct values and columns, so that sums and blends tie often
    dense = rng.integers(-2, 4, size=(n, dim)) * (rng.random((n, dim)) < 0.6) / 2.0
    copies = rng.choice(n, size=min(n, draw(st.integers(0, k + 2))), replace=False)
    dense[copies] = dense[copies[:1]]
    model_rows = np.round(tied_vectors(rng, n, draw(st.integers(1, 4)),
                                       draw(st.integers(0, n))), 1)
    return (k, scipy.sparse.csr_matrix(with_no_zero_row(dense)), with_no_zero_row(model_rows),
            draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0])), draw(st.integers(1, 6)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(top_k_cases())
def test_top_k_pairing_matches_the_whole_blend_reference(case):
    # with K of 2-4, ties at the K-th place and rows whose best kept blend
    # does not clear the bound fall back on their whole row
    k, x, model_rows, alpha, epoch = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tfidf, "TOP_K", k)
        store = TopKSimilarity(x)
    assert store.index.shape == (x.shape[0], min(k, x.shape[0] - 1))
    expected_partner, expected_similarity = reference_pairing(x, model_rows, alpha, epoch)
    pairing = top1_from_matrix(store, None if epoch == 1 else model_rows, alpha, epoch)
    assert same_bits(pairing.partner, expected_partner)
    assert same_bits(pairing.similarity, expected_similarity)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("n, last_rows", [(6000, 84), (6001, 85), (1774, 1), (40, 40)])
def test_row_blocks_of_the_similarity_are_the_whole_ones_rows(sparse, n, last_rows):
    # 6000 x 64 is the tps-short-n6000 embedding; 6001 and 1774 leave a
    # short and a one-row last block, and one block covers a small n. The
    # sparse draw at n = 1774 has an empty row, which is given an entry
    rng = np.random.default_rng(n)
    x = with_no_zero_row(
        scipy.sparse.random(n, 300, density=0.03, random_state=rng, format="csr")
        if sparse else rng.normal(size=(n, 64)))
    blocks = tfidf._row_blocks(n)
    assert blocks[-1].stop - blocks[-1].start == last_rows
    whole = similarity_matrix(x)
    for rows in blocks:
        assert same_bits(similarity_matrix(x, rows), whole[rows])
    # a zero-norm row is named, whether or not the rows asked for hold it
    zeroed = with_rows_set(x, [n // 2, n - 1], 0.0)
    for rows in (blocks[0], blocks[-1]):
        with pytest.raises(ValueError, match=f"^zero-norm row {n // 2}$"):
            similarity_matrix(zeroed, rows)
    if sparse:
        # the store keeps each row's largest off-diagonal entries, and the
        # next largest bounds every entry left out
        store = TopKSimilarity(x)
        k = min(tfidf.TOP_K, n - 1)
        r = np.arange(n)
        assert store.index.shape == (n, k)
        assert np.all(np.diff(store.index, axis=1) > 0) and not np.any(store.index == r[:, None])
        assert same_bits(store.value, whole[r[:, None], store.index])
        np.fill_diagonal(whole, -np.inf)
        ranked = -np.sort(-whole, axis=1)
        assert same_bits(np.sort(store.value, axis=1), ranked[:, k - 1::-1])
        assert same_bits(store.bound, ranked[:, k])


@st.composite
def csr_cases(draw):
    """CSR matrices with rows listing their columns in any order and more
    than once, and copies of a row with its entries reordered; and a
    block size. A row of zero norm is rejected (tests/test_tfidf.py), so
    none is drawn."""
    dim = draw(st.integers(1, 12))
    entry = st.tuples(st.integers(0, dim - 1),
                      st.floats(-8.0, 8.0, allow_subnormal=False))
    rows = draw(st.lists(st.lists(entry, min_size=1, max_size=2 * dim), min_size=1,
                         max_size=30))
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=8)):
        rows.append(draw(st.permutations(rows[k])))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([c for r in rows for c, _ in r], dtype=np.int32)
    data = np.array([v for r in rows for _, v in r], dtype=np.float64)
    x = scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(rows), dim))
    # entries can be zero, cancel once duplicates are summed or underflow
    # when squared
    canonical = x.copy()
    canonical.sum_duplicates()
    assume(np.all(np.linalg.norm(canonical.toarray(), axis=1) > 0))
    return x, draw(st.integers(1, len(rows))) * len(rows)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(csr_cases())
def test_sparse_similarity_is_symmetric_bit_for_bit(case):
    # each row block is formed as the transpose of a sparse x dense
    # product, so it holds S_ji where S_ij is asked for; and a row asked
    # for on its own, as the top-1 pass does for a row that does not
    # settle, is the same row of the whole matrix
    x, block_elements = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tfidf, "PAIRING_BLOCK_ELEMENTS", block_elements)
        whole = similarity_matrix(x)
    assert same_bits(whole, np.ascontiguousarray(whole.T))
    rows = np.arange(x.shape[0])[::-2]
    assert same_bits(similarity_matrix(x, rows), whole[rows])


def reference_build_vocab(texts, max_vocab):
    """Count every token, keep the most frequent, ties lexicographic."""
    counts = Counter()
    for text in texts:
        counts.update(oracle_tokens(text))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    token_to_id = {PAD_TOKEN: 0, UNK_TOKEN: 1}
    for token, _ in ranked[:max_vocab]:
        token_to_id[token] = len(token_to_id)
    return token_to_id


def reference_text_ids(text, token_to_id):
    return [token_to_id.get(token, 1) for token in oracle_tokens(text)]


@pytest.mark.parametrize("max_vocab", [1, 5, 100, 3000, 30000])
def test_vocabulary_and_ids_match_the_counting_reference(max_vocab):
    # few distinct tokens with many count ties, the Unicode pieces, and
    # token-free texts; sad indexes sentences, tps whole texts
    rng = np.random.default_rng(max_vocab)
    words = PIECES + [f"w{i}" for i in range(3500)]
    docs = []
    for d in range(400):
        sentences = [random_sentence(rng) if rng.random() < 0.5 else
                     " ".join(rng.choice(words, size=int(rng.integers(0, 40)))) + "."
                     for _ in range(int(rng.integers(1, 6)))]
        docs.append(Document(f"d{d}", " ".join(sentences)))
    texts = [doc.text for doc in docs]
    expected = reference_build_vocab(texts, max_vocab)
    distinct = {token for text in texts for token in oracle_tokens(text)}
    assert (len(distinct) > max_vocab) == (max_vocab < 30000)  # about 3400
    for units in ([[t] for t in texts], [doc.sentences for doc in docs]):
        tokens, terms = index_tokens(u for unit in units for u in unit)
        vocab, term_to_id = build_vocab(tokens, terms, max_vocab)
        assert list(vocab.token_to_id.items()) == list(expected.items())
        rows = iter(terms)
        for text, unit in zip(texts, units):
            ids = np.concatenate([np.empty(0, np.int64)]
                                 + [term_to_id[next(rows)] for _ in unit])
            assert ids.tolist() == reference_text_ids(text, expected), repr(text)
            assert text_ids(text, vocab).tolist() == ids.tolist()


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
    x = unit_rows(embeddings)[0]
    best = None
    for r in range(restarts):
        run = reference_run_once(x, k, derive_rng(seed, "kmeans", r), max_iter, tol)
        if best is None or run[2] > best[2]:
            best = run
    return best


def reference_silhouette(embeddings, assignments):
    x = np.asarray(embeddings, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.int64)
    n = x.shape[0]
    cluster_ids = np.unique(assignments)
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    counts = {int(c): int(np.sum(assignments == c)) for c in cluster_ids}
    dists = 1.0 - unit @ unit.T
    scores = np.empty(n)
    for i in range(n):
        own = int(assignments[i])
        if counts[own] == 1:
            scores[i] = 0.0
            continue
        d = dists[i]
        a = (d[assignments == own].sum() - d[i]) / (counts[own] - 1)
        b = np.inf
        for c in cluster_ids:
            c = int(c)
            if c == own:
                continue
            b = min(b, d[assignments == c].mean())
        top = max(a, b)
        scores[i] = 0.0 if top == 0.0 else (b - a) / top
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
        unit = unit_rows(x)[0]
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
        x = unit_rows(rng.normal(size=(n, d)))[0]
        assignments = rng.integers(0, k, size=n)  # some clusters stay empty
        start = unit_rows(rng.normal(size=(k, d)))[0]
        got = _update_centroids(x, assignments, start.copy())
        assert same_bits(got, reference_update_centroids(x, assignments, start.copy()))


def silhouette_case(name):
    """(embeddings, assignments) for one named silhouette case."""
    rng = np.random.default_rng(47)
    x = rng.normal(size=(90, 6))
    assignments = rng.integers(0, 4, size=90)
    if name == "singletons":
        assignments[:3] = [4, 5, 6]
        assignments[3:] = np.minimum(assignments[3:], 3)
        return x, assignments
    if name == "identical-points":
        # two clusters of one repeated point: a = b = 0 everywhere
        return np.tile(x[:1], (10, 1)), np.repeat([0, 1], 5)
    return x, np.where(assignments % 2 == 0, 0, 5)  # ids {0, 5}


@pytest.mark.parametrize("case", ["singletons", "identical-points", "non-contiguous-ids"])
def test_silhouette_matches_the_loop_reference(case):
    x, assignments = silhouette_case(case)
    got = silhouette_score(x, assignments)
    assert abs(got - reference_silhouette(x, assignments)) <= 1e-12
    if case == "identical-points":
        assert got == 0.0


def reference_distance_silhouette(embeddings, assignments, block_rows=1000):
    """The silhouette from whole distance rows, built ``block_rows`` at a time."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    cluster_ids, index, sizes = np.unique(assignments, return_inverse=True,
                                           return_counts=True)
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    members = index[:, None] == np.arange(cluster_ids.size)
    scores = np.zeros(n)
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        block = np.arange(start, stop)
        dists = unit[block] @ unit.T
        np.subtract(1.0, dists, out=dists)
        sums = dists @ members
        rows = np.arange(block.size)
        own = index[block]
        own_size = sizes[own]
        a = (sums[rows, own] - dists[rows, block]) / np.maximum(own_size - 1, 1)
        means = sums / sizes
        means[rows, own] = np.inf
        b = means.min(axis=1)
        top = np.maximum(a, b)
        np.divide(b - a, top, out=scores[start:stop],
                  where=(own_size > 1) & (top != 0.0))
    return float(scores.mean())


@pytest.mark.parametrize("n,k", [(1600, 16), (6000, 8), (8000, 20)])
def test_cluster_sum_silhouette_matches_the_distance_reference(n, k):
    # the benchmark workloads' n, k and d, every point scored
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 64)) + 2.0 * rng.normal(size=(k, 64))[rng.integers(0, k, n)]
    assignments = spherical_kmeans(x, k=k, seed=0).assignments
    expected = reference_distance_silhouette(x, assignments)
    assert abs(silhouette_score(x, assignments) - expected) <= 1e-12


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
