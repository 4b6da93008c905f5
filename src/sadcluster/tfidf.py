"""Token indices, TF-IDF matrix, cosine similarity, and top-1 sampling.

Provides the lexical half of positive-pair construction: each text is
tokenized once into indices of the corpus's sorted distinct tokens, each
document gets a smoothed TF-IDF row in one CSR matrix over those
indices, every document is paired with its most cosine-similar neighbor,
and across epochs the lexical similarity is blended with model-embedding
similarity by a decaying weight so the pairing shifts from lexical to
semantic as training progresses. The n x n TF-IDF similarity is never
held: ``TopKSimilarity`` keeps each row's largest entries and a bound on
the rest, and the pairing forms a row's whole similarity again only when
that bound cannot rule out the entries left out.
"""

import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .cluster import unit_rows

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The n x n similarity and pairing passes work one block of rows at a time,
# about 1M float64 elements (8 MB) per block, so their temporaries stay
# small at any n.
PAIRING_BLOCK_ELEMENTS = 1 << 20
# The TF-IDF similarity keeps this many of each row's largest entries
# (``TopKSimilarity``): 128 settle all but a few percent of the rows in the
# first blended epochs.
TOP_K = 128


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


class _UnitRows(NamedTuple):
    """Rows scaled to unit norm: what every block of their cosine similarity reads."""

    unit: np.ndarray | scipy.sparse.csr_matrix


def _unit_rows(vectors) -> _UnitRows:
    if not (isinstance(vectors, np.ndarray) or scipy.sparse.issparse(vectors)):
        raise TypeError("expected a 2-D array or a scipy sparse matrix")
    return _UnitRows(unit_rows(vectors)[0])


def _similarity_rows(u: _UnitRows, rows: slice | np.ndarray,
                     out: np.ndarray | None) -> np.ndarray:
    if scipy.sparse.issparse(u.unit):
        # sparse x dense, transposed: entry (i, j) adds row j's products in
        # row j's order, which is S_ji and so S_ij bit for bit. Each entry's
        # bits depend on its two rows only, not on which rows are asked for
        product = u.unit @ u.unit[rows].T.toarray()
        block = np.empty(product.shape[::-1]) if out is None else out
        np.copyto(block, product.T)
        return block
    return np.matmul(u.unit[rows], u.unit.T, out=out)


def similarity_matrix(vectors, rows: slice | np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Dense cosine similarity of the rows of a dense or sparse matrix.

    The whole n x n matrix as a new array, or with ``rows`` only those
    rows of it, into ``out`` if given. The whole matrix is filled one
    block of ``_row_blocks(n)`` at a time, so for each such block
    ``rows`` gives its rows bit for bit, and the product of all rows
    never sits beside the result. For a sparse matrix ``rows`` may also
    be any array of row indices, and gives those rows bit for bit. A row
    of zero or non-finite norm, asked for or not, raises ValueError naming
    the first one (``cluster.unit_rows``). ``vectors`` may also be the
    ``_unit_rows`` of a matrix, so a caller asking for many blocks
    normalizes it once.
    """
    u = vectors if isinstance(vectors, _UnitRows) else _unit_rows(vectors)
    if rows is not None:
        return _similarity_rows(u, rows, out)
    n = u.unit.shape[0]
    sims = np.empty((n, n))
    for block in _row_blocks(n):
        _similarity_rows(u, block, sims[block])
    return sims


class TopKSimilarity:
    """``similarity_matrix(vectors)`` of a sparse matrix, held as each
    row's ``TOP_K`` largest off-diagonal entries and a bound on the rest:
    O(n·TOP_K) memory instead of n².

    With k = min(TOP_K, n - 1), row i keeps in ``index[i]`` the columns
    of its k largest off-diagonal similarities, ascending (of entries
    tied at the k-th place, any may be kept), and in ``value[i]`` those
    entries of the whole matrix bit for bit. ``bound[i]`` is its (k+1)-th
    largest off-diagonal entry, so no entry left out exceeds it; when
    k = n - 1 every entry is kept and the bound is -inf. ``unit`` is
    what ``similarity_matrix(unit, rows)`` reads to give any rows of the
    whole matrix again, bit for bit. The matrix is formed one block of
    ``_row_blocks(n)`` at a time, and each block is read once. Rows are
    checked as in ``similarity_matrix``: a token-free document's row raises.
    """

    def __init__(self, vectors):
        if not scipy.sparse.issparse(vectors):
            raise TypeError("expected a scipy sparse matrix")
        self.unit = _unit_rows(vectors)
        n = vectors.shape[0]
        self.shape = (n, n)
        k = min(TOP_K, max(n - 1, 0))
        self.index = np.empty((n, k), dtype=np.int64)
        self.value = np.empty((n, k))
        self.bound = np.empty(n)
        blocks = _row_blocks(n)  # the first is the largest
        buffer = np.empty((blocks[0].stop if blocks else 0, n))
        for rows in blocks:
            block = similarity_matrix(self.unit, rows, buffer[:rows.stop - rows.start])
            r = np.arange(block.shape[0])
            block[r, r + rows.start] = -np.inf  # below every entry, so never kept
            # the (k+1)-th largest, then the k largest; the whole order is freed
            top = np.argpartition(block, n - 1 - k, axis=1)[:, n - 1 - k:].copy()
            self.bound[rows] = block[r, top[:, 0]]
            kept = np.sort(top[:, 1:], axis=1)
            self.index[rows] = kept
            self.value[rows] = np.take_along_axis(block, kept, axis=1)


def top1_from_matrix(sim_tfidf: TopKSimilarity, embeddings: np.ndarray | None = None,
                     alpha: float = 1.0, epoch: int = 1) -> PositivePairing:
    """Partner of each row = argmax off the diagonal, ties to smallest index.

    The rows compared are those of ``blended_similarity(S,
    similarity_matrix(embeddings), alpha, epoch)``, where S is the whole
    TF-IDF similarity that ``sim_tfidf`` keeps the top of; at epoch 1 the
    blend is S alone (and ``embeddings`` is not read and may be None).
    The partner and its similarity are those of the whole blended row,
    bit for bit. One block of ``_row_blocks(n)`` at a time, the model
    similarity is formed by ``similarity_matrix(embeddings, rows)`` and
    the kept entries are blended. A row's best kept blend wins outright
    when it is strictly above the blend of the row's TF-IDF bound and
    its largest off-diagonal model similarity: rounding is monotone, so
    no entry left out can reach it. Any other row forms its whole TF-IDF
    row again and takes the argmax of its whole blended row. No n x n
    array is made. A bad embedding row raises as in ``similarity_matrix``.
    """
    n = sim_tfidf.shape[0]
    if n < 2:
        raise ValueError("need at least 2 documents to sample positives")
    model = None
    if epoch > 1:
        if embeddings is None:
            raise ValueError(f"epoch {epoch} blends in the model similarity, "
                             "but no embeddings were given")
        if len(np.shape(embeddings)) != 2 or np.shape(embeddings)[0] != n:
            raise ValueError(f"embeddings of shape {np.shape(embeddings)} do not give "
                             f"one row per row of the {sim_tfidf.shape} similarity")
        model = _unit_rows(embeddings)
    every_entry_kept = sim_tfidf.index.shape[1] == n - 1
    partner = np.empty(n, dtype=np.int64)
    similarity = np.empty(n)
    blocks = _row_blocks(n)  # the first is the largest
    # one buffer holds every block's model similarity: new arrays per block
    # are trimmed from the heap and fault in fresh pages for the next block
    model_buffer = None if model is None else np.empty((blocks[0].stop, n))
    for rows in blocks:
        size = rows.stop - rows.start
        r = np.arange(size)
        index = sim_tfidf.index[rows]
        sim_model = None if model is None else similarity_matrix(model, rows,
                                                                 model_buffer[:size])
        kept = blended_similarity(
            sim_tfidf.value[rows],
            None if sim_model is None else np.take_along_axis(sim_model, index, axis=1),
            alpha, epoch)
        best = np.argmax(kept, axis=1)  # the first of equal entries: the smallest column
        partner[rows] = index[r, best]
        similarity[rows] = kept[r, best]
        if every_entry_kept:
            continue
        model_max = None
        if sim_model is not None:
            diagonal = sim_model[r, r + rows.start]
            sim_model[r, r + rows.start] = -np.inf
            model_max = sim_model.max(axis=1)
            sim_model[r, r + rows.start] = diagonal
        bound = blended_similarity(sim_tfidf.bound[rows], model_max, alpha, epoch)
        unsettled = np.flatnonzero(similarity[rows] <= bound)
        if unsettled.size:
            i, j = unsettled + rows.start, np.arange(unsettled.size)
            if sim_model is not None:  # to the top of the block: the settled rows are done
                sim_model[j] = sim_model[unsettled]
                sim_model = sim_model[:j.size]
            exact = similarity_matrix(sim_tfidf.unit, i)
            whole = blended_similarity(exact, sim_model, alpha, epoch, out=exact)
            whole[j, i] = -np.inf
            best = np.argmax(whole, axis=1)
            partner[i] = best
            similarity[i] = whole[j, best]
    return PositivePairing(partner, similarity)


def blended_similarity(sim_tfidf: np.ndarray, sim_model: np.ndarray | None,
                       alpha: float, epoch: int, out: np.ndarray | None = None) -> np.ndarray:
    """Per-epoch blend of lexical and model similarity, into ``out`` if given.

    S = a^(epoch-1) * sim_tfidf + (1 - a^(epoch-1)) * sim_model. At
    epoch 1 the result is sim_tfidf exactly, bit for bit, and
    ``sim_model`` is not read.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if epoch < 1:
        raise ValueError("epoch numbering starts at 1")
    if epoch == 1:
        return np.positive(sim_tfidf, out=out, dtype=np.float64)  # a copy
    if np.shape(sim_tfidf) != np.shape(sim_model):
        raise ValueError(f"shape mismatch: {np.shape(sim_tfidf)} vs {np.shape(sim_model)}")
    w = alpha ** (epoch - 1)
    blend = np.multiply(sim_tfidf, w, out=out, dtype=np.float64)
    blend += np.multiply(sim_model, 1.0 - w, dtype=np.float64)  # in place: one temporary
    return blend


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
