"""Spherical k-means: k-means on the unit sphere with cosine similarity.

Rows are L2-normalized, assignment maximizes cosine to the centroid, and
the update step sets each centroid to the normalized mean of its members,
which maximizes the within-cluster cosine sum. The objective (total
cosine of points to their centroids) is non-decreasing across iterations
and is asserted so on every step.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .rng import derive_rng

# one k-means recipe for train and the cluster command: a recorded seed reproduces it
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6


@dataclass
class ClusterModel:
    """Fitted spherical k-means state.

    ``objective`` is the cosine sum at the returned assignment and is
    recomputable from centroids + assignments; ``objective_history`` has
    one entry per iteration of the run (for ``spherical_kmeans``, of the
    winning restart).
    """

    centroids: np.ndarray
    assignments: np.ndarray
    objective: float
    iterations_run: int
    objective_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        norms = np.linalg.norm(self.centroids, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("centroids must have unit norm")
        k = self.centroids.shape[0]
        if np.any((self.assignments < 0) | (self.assignments >= k)):
            raise ValueError("assignment out of range")


def unit_rows(x) -> tuple[np.ndarray | scipy.sparse.csr_matrix, np.ndarray]:
    """The rows of ``x`` as float64 scaled to unit L2 norm, and their norms.
    Raises ValueError naming the first row of zero or non-finite norm.
    A scipy sparse ``x`` gives a CSR matrix."""
    sparse = scipy.sparse.issparse(x)
    if sparse:
        # a canonical copy (sorted columns, duplicates summed), which the
        # product below turns into rows that all list their columns in
        # descending order, so S_ij and S_ji of a cosine similarity add the
        # same products in the same order and are equal bit for bit
        x = scipy.sparse.csr_matrix(x, copy=True)
        x.sum_duplicates()
        norms = np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    else:
        x = np.asarray(x, dtype=np.float64)
        norms = np.linalg.norm(x, axis=1)
    bad = np.flatnonzero(~(norms > 0) | ~np.isfinite(norms))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{'zero-norm' if norms[i] == 0 else 'non-finite'} row {i}")
    return (scipy.sparse.diags(1.0 / norms) @ x if sparse else x / norms[:, None]), norms


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with cosine distance d = 1 - cos."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = x[first]
    best_sim = x @ centroids[0]
    for j in range(1, k):
        dist = np.maximum(1.0 - best_sim, 0.0)
        weights = dist**2
        total = weights.sum()
        if total > 0:
            probs = weights / total
            choice = int(rng.choice(n, p=probs))
        else:
            choice = int(rng.integers(0, n))
        centroids[j] = x[choice]
        best_sim = np.maximum(best_sim, x @ centroids[j])
    return centroids


def _reseed_empty(x, sims, assignments, centroids):
    """Move the worst-fit point into each empty cluster, updating in place."""
    k = centroids.shape[0]
    n = x.shape[0]
    counts = np.bincount(assignments, minlength=k)
    for j in range(k):
        if counts[j] > 0:
            continue
        point_sims = sims[np.arange(n), assignments]
        movable = counts[assignments] > 1
        candidates = np.flatnonzero(movable)
        worst = candidates[np.argmin(point_sims[candidates])]
        counts[assignments[worst]] -= 1
        assignments[worst] = j
        counts[j] = 1
        centroids[j] = x[worst]
        sims[:, j] = x @ x[worst]


def cluster_sums(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """The k x d row sums of ``x`` per label 0..k-1: the indicator product adds
    each cluster's members in index order, as a masked ``sum(axis=0)`` does."""
    n = x.shape[0]
    return scipy.sparse.csr_array((np.ones(n), (labels, np.arange(n))), shape=(k, n)) @ x


def _update_centroids(x, assignments, centroids):
    """Normalized member sum of each cluster; a zero sum keeps the centroid."""
    sums = cluster_sums(x, assignments, centroids.shape[0])
    # the norm of one vector is a BLAS dot, which an axis=1 norm does not match
    norms = np.array([np.linalg.norm(row) for row in sums])
    nonzero = norms > 0
    centroids[nonzero] = sums[nonzero] / norms[nonzero, None]
    return centroids


def _run_once(x, k, rng) -> ClusterModel:
    centroids = _kmeanspp_init(x, k, rng)
    history = []
    # iteration 0 scores the k-means++ seeding; each later one updates first
    for iterations in range(KMEANS_MAX_ITER + 1):
        if iterations:
            centroids = _update_centroids(x, assignments, centroids)
        sims = x @ centroids.T
        assignments = np.argmax(sims, axis=1)
        _reseed_empty(x, sims, assignments, centroids)
        history.append(float(sims[np.arange(x.shape[0]), assignments].sum()))
        if iterations:
            assert history[-1] >= history[-2] - 1e-9, (
                f"objective decreased: {history[-2]} -> {history[-1]}"
            )
            if history[-1] - history[-2] < KMEANS_TOL:
                break
    return ClusterModel(centroids, assignments, history[-1], iterations, history)


def spherical_kmeans(embeddings: np.ndarray, k: int, seed: int = 0) -> ClusterModel:
    """Cluster rows of ``embeddings`` into ``k`` groups by cosine.

    Runs ``KMEANS_RESTARTS`` k-means++ initializations, each for at most
    ``KMEANS_MAX_ITER`` updates or until an update gains less than
    ``KMEANS_TOL``, and keeps the run with the highest objective. Rows are
    normalized internally, so the result is invariant to positive
    rescaling of any input row.
    """
    x, _ = unit_rows(embeddings)
    n = x.shape[0]
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    # max keeps the first of equal objectives: ties go to the earliest restart
    return max((_run_once(x, k, derive_rng(seed, "kmeans", r))
                for r in range(KMEANS_RESTARTS)), key=lambda model: model.objective)

