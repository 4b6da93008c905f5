"""Clustering metrics: Hungarian-matched accuracy, AMI, cosine silhouette.

Accuracy maximizes the matched count over injective cluster-to-label
mappings (computed by the Hungarian algorithm on the negated confusion
matrix). AMI uses natural logarithms, arithmetic-mean normalization, and
the exact expected mutual information under the permutation model.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import gammaln

from .rng import derive_rng

# At most this many points are scored; train and the eval command share it.
SILHOUETTE_SAMPLE_CAP = 2000
# Distances are held for this many (scored point, point) pairs at a time,
# up to twice that (less a row), or for the whole sample if it is smaller:
# 8 MB, where the whole 2000 x n sample takes 128 MB at n = 8000.
SILHOUETTE_BLOCK_ELEMENTS = 1 << 20


@dataclass
class EvalReport:
    """ACC/AMI/silhouette plus the confusion matrix and mapping behind ACC."""

    acc: float
    ami: float
    silhouette: float | None
    confusion: np.ndarray
    mapping: dict[int, int]


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row in a minimum-cost perfect matching.

    Rectangular inputs are zero-padded to square first, so every row gets
    a column. O(k^3).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost must be a matrix")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix has non-finite entries")
    rows, cols = cost.shape
    size = max(rows, cols)
    padded = np.zeros((size, size))
    padded[:rows, :cols] = cost
    row_ind, col_ind = linear_sum_assignment(padded)
    perm = np.empty(size, dtype=np.int64)
    perm[row_ind] = col_ind
    return perm


def confusion_matrix(labels, clusters) -> np.ndarray:
    """Count matrix: rows index true labels, columns index clusters."""
    labels = np.asarray(labels, dtype=np.int64)
    clusters = np.asarray(clusters, dtype=np.int64)
    if labels.shape != clusters.shape:
        raise ValueError("labels and clusters must have equal length")
    if labels.size == 0:
        raise ValueError("need at least one point")
    if np.any(labels < 0) or np.any(clusters < 0):
        raise ValueError("labels and clusters must be non-negative")
    n_labels = int(labels.max()) + 1
    n_clusters = int(clusters.max()) + 1
    counts = np.zeros((n_labels, n_clusters), dtype=np.int64)
    np.add.at(counts, (labels, clusters), 1)
    return counts


def clustering_accuracy(labels, clusters) -> tuple[float, dict[int, int]]:
    """Best-mapping accuracy and the cluster-to-label mapping achieving it."""
    counts = confusion_matrix(labels, clusters)
    n_labels, n_clusters = counts.shape
    perm = hungarian(-counts)
    rows = np.flatnonzero(perm[:n_labels] < n_clusters)
    cols = perm[rows]
    mapping = dict(zip(cols.tolist(), rows.tolist()))
    return float(counts[rows, cols].sum() / counts.sum()), mapping


def entropy(counts: np.ndarray) -> float:
    """Natural-log entropy of a discrete distribution given by counts."""
    counts = counts[counts > 0].astype(np.float64)
    n = counts.sum()
    p = counts / n
    return float(-(p * np.log(p)).sum())


def mutual_information(counts: np.ndarray) -> float:
    """MI (natural logs) of the joint distribution given by a count matrix."""
    n = counts.sum()
    a = counts.sum(axis=1)
    b = counts.sum(axis=0)
    i, j = np.nonzero(counts)
    nij = counts[i, j]
    return float(np.sum((nij / n) * np.log(n * nij / (a[i] * b[j]))))


def expected_mutual_information(a: np.ndarray, b: np.ndarray, n: int) -> float:
    """E[MI] over random tables with fixed margins (permutation model).

    Exact sum over the hypergeometric support using log-gamma terms.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    emi = 0.0
    log_n = np.log(n)
    for ai in a:
        for bj in b:
            nij = np.arange(max(1, ai + bj - n), min(ai, bj) + 1)
            log_term = (
                gammaln(ai + 1) + gammaln(bj + 1)
                + gammaln(n - ai + 1) + gammaln(n - bj + 1)
                - gammaln(n + 1) - gammaln(nij + 1)
                - gammaln(ai - nij + 1) - gammaln(bj - nij + 1)
                - gammaln(n - ai - bj + nij + 1)
            )
            emi += np.sum((nij / n) * (log_n + np.log(nij) - np.log(ai * bj))
                          * np.exp(log_term))
    return float(emi)


def adjusted_mutual_information(labels, clusters) -> float:
    """AMI with arithmetic-mean normalization and natural logarithms.

    Defined as 1.0 when both partitions are a single cluster (identical
    trivial partitions).
    """
    counts = confusion_matrix(labels, clusters)
    a = counts.sum(axis=1)
    b = counts.sum(axis=0)
    a = a[a > 0]
    b = b[b > 0]
    if a.size == 1 and b.size == 1:
        return 1.0
    n = int(counts.sum())
    mi = mutual_information(counts)
    emi = expected_mutual_information(a, b, n)
    h_mean = (entropy(a) + entropy(b)) / 2.0
    denom = h_mean - emi
    if denom == 0.0:
        return 0.0
    return float((mi - emi) / denom)


def silhouette_score(embeddings: np.ndarray, assignments, seed: int = 0) -> float:
    """Mean silhouette with cosine distance d = 1 - cos.

    s(i) = (b - a) / max(a, b) with a = mean intra-cluster distance
    (excluding self) and b = smallest mean distance to another cluster.
    Singletons score 0, as does the a = b = 0 degenerate case. When n
    exceeds ``SILHOUETTE_SAMPLE_CAP``, scores are averaged over a seeded
    subsample of that many points (distances still use the full dataset).
    """
    x = np.asarray(embeddings, dtype=np.float64)
    assignments = np.asarray(assignments, dtype=np.int64)
    n = x.shape[0]
    if assignments.shape != (n,):
        raise ValueError("assignments must match embeddings rows")
    if n < 3:
        raise ValueError("need at least 3 points")
    cluster_ids, index, sizes = np.unique(assignments, return_inverse=True,
                                           return_counts=True)
    if cluster_ids.size < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0):
        raise ValueError("embeddings contain a zero row")
    unit = x / norms[:, None]

    if n > SILHOUETTE_SAMPLE_CAP:
        sample = np.sort(derive_rng(seed, "silhouette").choice(
            n, size=SILHOUETTE_SAMPLE_CAP, replace=False))
    else:
        sample = np.arange(n)

    # A block holds about SILHOUETTE_BLOCK_ELEMENTS distances or more, or
    # the whole sample, so BLAS takes no small-matrix kernel that sums in
    # another order than the whole-sample product. For some n the bits
    # still differ from that product (with OpenBLAS at n = 2100); train and
    # eval share this code, so they agree anyway.
    members = (index[:, None] == np.arange(cluster_ids.size)).astype(np.float64)
    sums = np.empty((sample.size, cluster_ids.size))
    self_dists = np.empty(sample.size)
    for block in np.array_split(np.arange(sample.size),
                                max(1, sample.size * n // SILHOUETTE_BLOCK_ELEMENTS)):
        dists = unit[sample[block]] @ unit.T
        np.subtract(1.0, dists, out=dists)
        sums[block] = dists @ members
        self_dists[block] = dists[np.arange(block.size), sample[block]]
        del dists  # so the next block is not computed beside this one
    rows = np.arange(sample.size)
    own = index[sample]
    own_size = sizes[own]
    a = (sums[rows, own] - self_dists) / np.maximum(own_size - 1, 1)
    means = sums / sizes
    means[rows, own] = np.inf
    b = means.min(axis=1)
    top = np.maximum(a, b)
    scores = np.divide(b - a, top, out=np.zeros(sample.size),
                       where=(own_size > 1) & (top != 0.0))
    return float(scores.mean())


def evaluate_clustering(labels, clusters, embeddings: np.ndarray | None = None,
                        seed: int = 0) -> EvalReport:
    """Full metric report; silhouette is None when embeddings are omitted."""
    acc, mapping = clustering_accuracy(labels, clusters)
    ami = adjusted_mutual_information(labels, clusters)
    return EvalReport(
        acc=acc,
        ami=ami,
        silhouette=(None if embeddings is None
                    else silhouette_score(embeddings, clusters, seed=seed)),
        confusion=confusion_matrix(labels, clusters),
        mapping=mapping,
    )
