"""Oracles that pin the fast encoder and optimizer to the reference maths.

The references below are the straightforward implementations: a padded
gather with a masked sum for the forward pass, ``np.add.at`` for the
embedding gradient, AdamW/SGD written as whole-array expressions,
TF-IDF built one document vector at a time, its cosine as one sparse
product of all rows, top-1 pairing on a whole masked copy of the
epoch's blended matrix, the vocabulary counted
token by token with a ``Counter``, and k-means, silhouette,
MI and EMI written as loops over clusters, samples and table cells, and
Fisher-Yates with one draw per swap. The sparse pooling, the gradient of
the touched table rows (scattered into zeros) and the row-sparse in-place
optimizer must reproduce them bit for bit, step after step; views built
from per-sentence token ids must equal tokenizing the joined view, and a
text's sentences must tokenize to the text's tokens; the one-call
Fisher-Yates must give the same permutations and leave the stream where
the per-swap draws do; the one-pass TF-IDF matrix must give the same
similarities, and the row-blocked similarity and pairing passes the
same bytes at any block size; and the vocabulary and ids built from
token indices must equal the counted ones, in dict order and id for id. k-means must match bit for bit; the metrics, whose sums
run in another order, must agree within 1e-12, and the row-blocked
silhouette must equal the whole-sample one on the benchmark's shapes.
"""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from sadcluster import contrastive, evaluate, tfidf
from sadcluster.augment import shuffle_divide
from sadcluster.cluster import (
    _kmeanspp_init,
    _normalize_rows,
    _reseed_empty,
    _update_centroids,
    spherical_kmeans,
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
from sadcluster.tfidf import (
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
    if config.optimizer == "sgd":
        for name, grad in grads.items():
            tensors[name] -= lr * (grad + wd * tensors[name])
        return
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
@pytest.mark.parametrize("optimizer,weight_decay", [("adamw", 0.0), ("adamw", 0.01),
                                                    ("sgd", 0.0), ("sgd", 0.01)])
def test_training_steps_match_the_reference(output_dim, optimizer, weight_decay):
    rng = np.random.default_rng(17)
    config = TrainConfig(optimizer=optimizer, weight_decay=weight_decay,
                         learning_rate=0.05, temperature=0.5)
    fast = init_params(40, 6, output_dim, seed=3)
    ref = fast.copy()
    ref_tensors = ref.tensors()
    state = OptimizerState()
    ref_state = {"step": 0, "m": {}, "v": {}}
    for step in range(12):
        # rows 12..39 go untouched for six steps, then batches reach them
        views = random_views(rng, 8, 40, 9, high=12 if step < 6 else 40)
        out, cache = encode_batch_forward(fast, views)
        ref_out, ref_cache = reference_forward(ref, views)
        assert same_bits(out, ref_out)
        grad_out = nt_xent_gradient(out, config.temperature)
        grads, rows = encode_batch_backward(fast, cache, grad_out)
        ref_grads = reference_backward(ref, ref_cache, grad_out)
        assert rows.keys() == {"embedding_table"}
        assert same_bits(rows["embedding_table"],
                         np.unique(np.concatenate([view.ids for view in views])))
        full = full_gradients(grads, rows, fast.tensors())
        assert full.keys() == ref_grads.keys()
        for name in full:
            assert same_bits(full[name], ref_grads[name]), name
        optimizer_step(fast.tensors(), grads, config, state, rows)
        reference_optimizer_step(ref_tensors, ref_grads, config, ref_state)
        for name, tensor in fast.tensors().items():
            assert same_bits(tensor, ref_tensors[name]), name


def sparse_gradient(rng, shape, touched):
    """Random rows for ``touched``, with entries of +0.0, -0.0 and subnormals."""
    grad = rng.normal(size=(len(touched), *shape[1:]))
    special = rng.choice([0.0, -0.0, 5e-324, -5e-324, -1e-310], size=grad.shape)
    return np.where(rng.random(grad.shape) < 0.3, special, grad)


def check_row_sparse_steps(config, tensors, sparse, steps, seed, minus_zero_moments):
    """Step the optimizer with random row subsets of the ``sparse`` tensors
    and dense gradients for the others; the reference steps on the full
    gradients. Both must stay bit-identical, moments included."""
    rng = np.random.default_rng(seed)
    ref = {name: tensor.copy() for name, tensor in tensors.items()}
    state = OptimizerState()
    ref_state = {"step": 0, "m": {}, "v": {}}
    if minus_zero_moments:  # a -0.0 moment meets rows with and without gradient
        for name, tensor in tensors.items():
            state.m[name] = np.where(rng.random(tensor.shape) < 0.5, -0.0, 0.0)
            state.v[name] = np.zeros_like(tensor)
            ref_state["m"][name] = state.m[name].copy()
            ref_state["v"][name] = state.v[name].copy()
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
        for name in tensors:
            assert same_bits(tensors[name], ref[name]), name
            if config.optimizer == "adamw":
                assert same_bits(state.m[name], ref_state["m"][name]), name
                assert same_bits(state.v[name], ref_state["v"][name]), name


@pytest.mark.parametrize("optimizer,weight_decay", [("adamw", 0.0), ("adamw", 0.1),
                                                    ("sgd", 0.0), ("sgd", 0.1)])
def test_optimizer_matches_the_reference_over_many_steps(optimizer, weight_decay):
    rng = np.random.default_rng(5)
    config = TrainConfig(optimizer=optimizer, weight_decay=weight_decay,
                         learning_rate=1e-2)
    for minus_zero_moments in (False, True):
        # the table spans several blocks, the last one partial; the bias is
        # row-sparse too, and the table's rows include -0.0 and subnormals
        table = rng.normal(size=(9000, 16))
        table[:50] = rng.choice([0.0, -0.0, 5e-324, -5e-324], size=(50, 16))
        tensors = {"table": table, "bias": rng.normal(size=16),
                   "dense": rng.normal(size=(5, 3)), "scale": np.array(rng.normal())}
        check_row_sparse_steps(config, tensors, {"table", "bias"}, 20, 11,
                               minus_zero_moments)


@st.composite
def row_sparse_cases(draw):
    rows = draw(st.integers(1, 70))
    cols = draw(st.integers(1, 4))
    config = TrainConfig(optimizer=draw(st.sampled_from(["adamw", "sgd"])),
                         weight_decay=draw(st.sampled_from([0.0, 0.1])),
                         learning_rate=draw(st.sampled_from([1e-3, 0.5])))
    block_elements = draw(st.integers(1, rows * cols + 3))
    return (config, (rows, cols), block_elements, draw(st.integers(1, 6)),
            draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(row_sparse_cases())
def test_row_sparse_steps_match_the_reference_property(case):
    config, shape, block_elements, steps, seed, minus_zero_moments = case
    table = np.random.default_rng(seed).normal(size=shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contrastive, "ADAMW_BLOCK_ELEMENTS", block_elements)
        check_row_sparse_steps(config, {"table": table}, {"table"}, steps, seed,
                               minus_zero_moments)


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
        df.update(set(tokenize_text(text)))
    vocabulary = {token: i for i, token in enumerate(sorted(df))}
    df_arr = np.array([df[token] for token in vocabulary], dtype=np.float64)
    return vocabulary, np.log((1.0 + len(texts)) / (1.0 + df_arr)) + 1.0


def reference_transform(vocabulary, idf, text):
    """One document's TF-IDF vector as sorted (indices, values)."""
    counts = Counter(vocabulary[token] for token in tokenize_text(text))
    if not counts:
        return np.empty(0, dtype=np.int64), np.empty(0)
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices], dtype=np.float64) * idf[indices]
    values /= np.sqrt(np.dot(values, values))
    return indices, values


def reference_similarity(texts):
    """Per-document vectors stacked into CSR, then the sparse cosine."""
    vocabulary, idf = reference_fit(texts)
    vectors = [reference_transform(vocabulary, idf, text) for text in texts]
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, (indices, _) in enumerate(vectors):
        indptr[i + 1] = indptr[i] + indices.size
    x = scipy.sparse.csr_matrix(
        (np.concatenate([v for _, v in vectors]), np.concatenate([i for i, _ in vectors]),
         indptr), shape=(len(vectors), len(vocabulary)))
    return idf, x, reference_sparse_similarity(x)


def reference_sparse_similarity(x):
    """Cosine of the unit rows as one sparse product, then made dense."""
    norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    safe = np.where(norms > 0, norms, 1.0)
    unit = scipy.sparse.diags(1.0 / safe) @ x
    sims = np.asarray((unit @ unit.T).todense())
    zero = norms == 0
    sims[zero, :] = 0.0
    sims[:, zero] = 0.0
    return sims


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
    expected_idf, expected_x, expected_sims = reference_similarity(texts)
    tokens, terms = index_tokens(texts)
    idf = fit_tfidf(terms, len(tokens))
    assert same_bits(idf, expected_idf)
    x = transform_corpus(idf, terms)
    assert x.shape == expected_x.shape
    assert np.array_equal(x.indptr, expected_x.indptr)
    assert np.array_equal(x.indices, expected_x.indices)
    assert same_bits(x.data, expected_x.data)
    assert same_bits(similarity_matrix(x), expected_sims)


@pytest.mark.parametrize("case", ["oov-only-and-zero-rows", "synthetic-n120"])
@pytest.mark.parametrize("block_rows", [1, 7, 1000])
def test_sparse_similarity_blocks_match_the_one_product_reference(case, block_rows):
    # 7-row blocks leave a ragged last block; the first case has empty rows
    texts = tfidf_case(case)
    tokens, terms = index_tokens(texts)
    x = transform_corpus(fit_tfidf(terms, len(tokens)), terms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tfidf, "PAIRING_BLOCK_ELEMENTS", block_rows * len(texts))
        assert same_bits(similarity_matrix(x), reference_sparse_similarity(x))


def reference_top1(sims):
    """Mask the diagonal of a whole copy, argmax each row."""
    n = sims.shape[0]
    masked = sims.astype(np.float64, copy=True)
    np.fill_diagonal(masked, -np.inf)
    partner = np.argmax(masked, axis=1)
    return partner, masked[np.arange(n), partner]


def tied_vectors(rng, n, dim, duplicates, zeros):
    """Random rows, some copied from others (ties) and some all-zero."""
    x = rng.normal(size=(n, dim))
    x[rng.integers(0, n, size=duplicates)] = x[rng.integers(0, n, size=duplicates)]
    x[rng.integers(0, n, size=zeros)] = 0.0
    return x


@st.composite
def pairing_cases(draw):
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tfidf_rows = tied_vectors(rng, n, draw(st.integers(1, 6)),
                              draw(st.integers(0, n)), draw(st.integers(0, 3)))
    model_rows = tied_vectors(rng, n, draw(st.integers(1, 6)),
                              draw(st.integers(0, n)), draw(st.integers(0, 3)))
    block_rows = draw(st.integers(1, n))
    block_elements = block_rows * n + draw(st.integers(0, n - 1))
    return (similarity_matrix(tfidf_rows), similarity_matrix(model_rows),
            draw(st.sampled_from([0.0, 0.37, 0.5, 1.0])), draw(st.integers(1, 5)),
            block_elements)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(pairing_cases())
def test_blocked_top1_matches_the_whole_blend_reference(case):
    sim_tfidf, sim_model, alpha, epoch, block_elements = case
    expected_partner, expected_similarity = reference_top1(
        blended_similarity(sim_tfidf, sim_model, alpha, epoch))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tfidf, "PAIRING_BLOCK_ELEMENTS", block_elements)
        pairing = top1_from_matrix(sim_tfidf, None if epoch == 1 else sim_model,
                                   alpha ** (epoch - 1))
    assert same_bits(pairing.partner, expected_partner)
    assert same_bits(pairing.similarity, expected_similarity)


def reference_build_vocab(texts, max_vocab):
    """Count every token, keep the most frequent, ties lexicographic."""
    counts = Counter()
    for text in texts:
        counts.update(tokenize_text(text))
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    token_to_id = {PAD_TOKEN: 0, UNK_TOKEN: 1}
    for token, _ in ranked[:max_vocab]:
        token_to_id[token] = len(token_to_id)
    return token_to_id


def reference_text_ids(text, token_to_id):
    return [token_to_id.get(token, 1) for token in tokenize_text(text)]


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
    distinct = {token for text in texts for token in tokenize_text(text)}
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
def test_silhouette_matches_the_loop_reference(case, monkeypatch):
    x, assignments, cap = silhouette_case(case)
    monkeypatch.setattr(evaluate, "SILHOUETTE_SAMPLE_CAP", cap)
    # distance blocks of one row, of a few rows, and the whole sample
    for block_elements in (1, 1000, evaluate.SILHOUETTE_BLOCK_ELEMENTS):
        monkeypatch.setattr(evaluate, "SILHOUETTE_BLOCK_ELEMENTS", block_elements)
        for seed in (0, 3):
            got = silhouette_score(x, assignments, seed=seed)
            assert abs(got - reference_silhouette(x, assignments, cap, seed)) <= 1e-12
    if case == "identical-points":
        assert got == 0.0


def reference_whole_sample_silhouette(embeddings, assignments, seed=0):
    """The silhouette from one distance array over the whole sample."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    cluster_ids, index, sizes = np.unique(assignments, return_inverse=True,
                                           return_counts=True)
    unit = x / np.linalg.norm(x, axis=1)[:, None]
    if n > evaluate.SILHOUETTE_SAMPLE_CAP:
        sample = np.sort(derive_rng(seed, "silhouette").choice(
            n, size=evaluate.SILHOUETTE_SAMPLE_CAP, replace=False))
    else:
        sample = np.arange(n)
    dists = unit[sample] @ unit.T
    np.subtract(1.0, dists, out=dists)
    sums = dists @ (index[:, None] == np.arange(cluster_ids.size))
    rows = np.arange(sample.size)
    own = index[sample]
    own_size = sizes[own]
    a = (sums[rows, own] - dists[rows, sample]) / np.maximum(own_size - 1, 1)
    means = sums / sizes
    means[rows, own] = np.inf
    b = means.min(axis=1)
    top = np.maximum(a, b)
    scores = np.divide(b - a, top, out=np.zeros(sample.size),
                       where=(own_size > 1) & (top != 0.0))
    return float(scores.mean())


@pytest.mark.parametrize("n,k", [(1600, 16), (6000, 8), (8000, 20)])
def test_row_blocked_silhouette_matches_the_whole_sample_reference(n, k):
    # the benchmark workloads' n, k and d, in 2, 11 and 15 row blocks; on
    # these shapes BLAS sums every entry of a block in the order it uses
    # for the whole sample (not on every shape: see silhouette_score)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 64)) + 2.0 * rng.normal(size=(k, 64))[rng.integers(0, k, n)]
    assignments = spherical_kmeans(x, k=k, seed=0).assignments
    for seed in (0, 1):
        expected = reference_whole_sample_silhouette(x, assignments, seed)
        assert silhouette_score(x, assignments, seed=seed) == expected


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
