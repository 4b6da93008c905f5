"""Token indices, TF-IDF matrix, cosine similarity, and top-1 sampling.

Provides the lexical half of positive-pair construction: each text is
tokenized once into indices of the corpus's sorted distinct tokens, each
document gets a smoothed TF-IDF row in one CSR matrix over those
indices, every document is paired with its most cosine-similar neighbor,
and across epochs the lexical similarity is blended with model-embedding
similarity by a decaying weight so the pairing shifts from lexical to
semantic as training progresses.
"""

import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The n x n similarity and pairing passes work one block of rows at a time,
# about 1M float64 elements (8 MB) per block, so their temporaries stay
# small at any n.
PAIRING_BLOCK_ELEMENTS = 1 << 20


def tokenize_text(text: str) -> list[str]:
    """Lowercase tokens split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def index_tokens(texts) -> tuple[list[str], list[np.ndarray]]:
    """Tokenize each text once; returns (tokens, terms).

    ``tokens`` is the sorted list of distinct tokens and ``terms[k]``
    holds text k's tokens, in order, as int64 indices into it. The
    vocabulary counts, the TF-IDF columns and the encoder ids all read
    these indices.
    """
    first_seen: dict[str, int] = {}
    terms = [np.array([first_seen.setdefault(token, len(first_seen))
                       for token in tokenize_text(text)], dtype=np.int64)
             for text in texts]
    tokens = sorted(first_seen)
    rank = np.empty(len(tokens), dtype=np.int64)
    rank[[first_seen[token] for token in tokens]] = np.arange(len(tokens))
    for k, provisional in enumerate(terms):
        terms[k] = rank[provisional]  # each provisional array is freed here
    return tokens, terms


@dataclass
class PositivePairing:
    """For each document index n, its sampled partner m != n."""

    partner: np.ndarray
    similarity: np.ndarray

    def __post_init__(self):
        self.partner = np.asarray(self.partner, dtype=np.int64)
        self.similarity = np.asarray(self.similarity, dtype=np.float64)
        n = self.partner.shape[0]
        if np.any(self.partner == np.arange(n)):
            raise ValueError("a document cannot be its own partner")
        if np.any((self.partner < 0) | (self.partner >= n)):
            raise ValueError("partner index out of range")


def fit_tfidf(terms: list[np.ndarray], num_terms: int) -> np.ndarray:
    """Smoothed idf weight of each of ``num_terms`` terms over the rows of ``terms``.

    idf[t] = ln((1 + N) / (1 + df(t))) + 1, always > 0, where df(t) is
    the number of rows holding term t.
    """
    if len(terms) == 0:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    if num_terms == 0:
        raise ValueError("corpus contains no tokens")
    df = np.bincount(np.concatenate([np.unique(t) for t in terms]), minlength=num_terms)
    return np.log((1.0 + len(terms)) / (1.0 + df.astype(np.float64))) + 1.0


def transform_corpus(idf: np.ndarray, terms: list[np.ndarray]) -> scipy.sparse.csr_matrix:
    """TF-IDF matrix with one L2-normalized row per row of ``terms``.

    Row k holds the counts of row k's terms times their idf, at sorted
    columns; a row without terms (a token-free document) stays empty.
    """
    n, dim = len(terms), idf.size
    # one key per (row, column), sorted and counted in a single pass
    rows = np.repeat(np.arange(n, dtype=np.int64), [t.size for t in terms])
    keys, counts = np.unique(rows * dim + np.concatenate([np.empty(0, np.int64), *terms]),
                             return_counts=True)
    indices = keys % dim
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // dim, minlength=n), out=indptr[1:])
    data = counts.astype(np.float64) * idf[indices]
    for start, stop in zip(indptr[:-1], indptr[1:]):
        if stop > start:
            row = data[start:stop]
            row /= np.sqrt(np.dot(row, row))
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(n, dim))


def _row_blocks(n: int):
    """Slices of about ``PAIRING_BLOCK_ELEMENTS`` elements of an n-column matrix."""
    step = max(1, PAIRING_BLOCK_ELEMENTS // max(1, n))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def similarity_matrix(vectors) -> np.ndarray:
    """Dense n x n cosine similarity of the rows of a dense or sparse matrix.

    Zero-norm rows give 0 rows and columns.
    """
    if isinstance(vectors, np.ndarray):
        x = np.asarray(vectors, dtype=np.float64)
        norms = np.linalg.norm(x, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        unit = x / safe[:, None]
        sims = unit @ unit.T
    elif scipy.sparse.issparse(vectors):
        x = vectors
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
        safe = np.where(norms > 0, norms, 1.0)
        unit = scipy.sparse.diags(1.0 / safe) @ x
        unit_t = unit.T.tocsr()
        n = x.shape[0]
        sims = np.empty((n, n))
        # one block of rows at a time, so the sparse product of all rows never
        # sits beside the dense result
        for rows in _row_blocks(n):
            sims[rows] = (unit[rows] @ unit_t).toarray()
    else:
        raise TypeError("expected a 2-D array or a scipy sparse matrix")
    zero = norms == 0
    if np.any(zero):
        sims[zero, :] = 0.0
        sims[:, zero] = 0.0
    return sims


def top1_from_matrix(sim_tfidf: np.ndarray, sim_model: np.ndarray | None = None,
                     weight: float = 1.0) -> PositivePairing:
    """Partner of each row = argmax off the diagonal, ties to smallest index.

    The rows compared are those of sim_tfidf, or with ``sim_model`` those
    of the blend weight * sim_tfidf + (1 - weight) * sim_model, bit for
    bit as ``blended_similarity`` forms it. The blend is formed one block
    of rows at a time, so no n x n array is made.
    """
    n = sim_tfidf.shape[0]
    if n < 2:
        raise ValueError("need at least 2 documents to sample positives")
    if sim_tfidf.shape != (n, n):
        raise ValueError("similarity matrix must be square")
    if sim_model is not None and sim_model.shape != (n, n):
        raise ValueError(f"shape mismatch: {sim_tfidf.shape} vs {sim_model.shape}")
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must be in [0, 1]")
    partner = np.empty(n, dtype=np.int64)
    similarity = np.empty(n)
    for rows in _row_blocks(n):
        if sim_model is None:
            blk = sim_tfidf[rows].astype(np.float64)
        else:
            blk = np.multiply(sim_tfidf[rows], weight, dtype=np.float64)
            blk += np.multiply(sim_model[rows], 1.0 - weight, dtype=np.float64)
        r = np.arange(blk.shape[0])
        blk[r, r + rows.start] = -np.inf
        best = np.argmax(blk, axis=1)
        partner[rows] = best
        similarity[rows] = blk[r, best]
    return PositivePairing(partner, similarity)


def blended_similarity(sim_tfidf: np.ndarray, sim_model: np.ndarray,
                       alpha: float, epoch: int) -> np.ndarray:
    """Per-epoch blend of lexical and model similarity.

    S = a^(epoch-1) * sim_tfidf + (1 - a^(epoch-1)) * sim_model. At
    epoch 1 the result is sim_tfidf exactly, bit for bit.
    """
    sim_tfidf = np.asarray(sim_tfidf, dtype=np.float64)
    sim_model = np.asarray(sim_model, dtype=np.float64)
    if sim_tfidf.shape != sim_model.shape:
        raise ValueError(
            f"shape mismatch: {sim_tfidf.shape} vs {sim_model.shape}"
        )
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if epoch < 1:
        raise ValueError("epoch numbering starts at 1")
    if epoch == 1:
        return sim_tfidf.copy()
    w = alpha ** (epoch - 1)
    return w * sim_tfidf + (1.0 - w) * sim_model


def label_match_rate(pairing: PositivePairing, labels) -> float:
    """Fraction of documents whose sampled partner shares their label.

    Diagnostic only: uses gold labels for reporting, never for training.
    """
    labels = list(labels)
    if any(label is None for label in labels):
        raise ValueError("all documents must be labeled to compute match rate")
    if len(labels) != pairing.partner.shape[0]:
        raise ValueError("labels and pairing size mismatch")
    arr = np.asarray(labels)
    return float(np.mean(arr[pairing.partner] == arr))
