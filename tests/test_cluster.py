import itertools

import numpy as np
import pytest

from sadcluster.cluster import ClusterModel, spherical_kmeans


def blobs(rng, centers, per_cluster, spread=0.05):
    points = []
    labels = []
    for label, center in enumerate(centers):
        c = np.asarray(center, dtype=np.float64)
        c = c / np.linalg.norm(c)
        for _ in range(per_cluster):
            points.append(c + rng.normal(scale=spread, size=c.shape))
            labels.append(label)
    return np.array(points), np.array(labels)


def exhaustive_two_partition_objective(x):
    """Best spherical 2-means objective by trying every bipartition."""
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


class TestSphericalKmeans:
    def test_antipodal_clouds_perfectly_separated(self):
        rng = np.random.default_rng(0)
        x, labels = blobs(rng, [[1, 0, 0], [-1, 0, 0]], per_cluster=20)
        model = spherical_kmeans(x, k=2, seed=1)
        a = model.assignments
        assert len(np.unique(a[labels == 0])) == 1
        assert len(np.unique(a[labels == 1])) == 1
        assert a[0] != a[-1]
        assert model.objective > 0.99 * x.shape[0]

    def test_n_equals_k_each_own_cluster(self):
        x = np.eye(4)
        model = spherical_kmeans(x, k=4, seed=0)
        assert len(np.unique(model.assignments)) == 4
        assert model.objective == pytest.approx(4.0, abs=1e-9)

    def test_duplicated_dataset_same_centroids(self):
        rng = np.random.default_rng(2)
        x, _ = blobs(rng, [[1, 0], [0, 1]], per_cluster=10)
        single = spherical_kmeans(x, k=2, seed=3)
        doubled = spherical_kmeans(np.vstack([x, x]), k=2, seed=3)
        key = lambda c: tuple(np.round(c, 6))
        assert sorted(map(key, single.centroids)) == pytest.approx(
            sorted(map(key, doubled.centroids)), abs=1e-6
        )

    def test_validation_errors(self):
        x = np.eye(3)
        with pytest.raises(ValueError):
            spherical_kmeans(x, k=1, seed=0)
        with pytest.raises(ValueError):
            spherical_kmeans(x, k=4, seed=0)
        with pytest.raises(ValueError):
            spherical_kmeans(np.zeros((4, 3)), k=2, seed=0)
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            spherical_kmeans(x, k=2, seed=0, max_iter=-1)

    def test_objective_history_monotone(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 5))
        model = spherical_kmeans(x, k=4, seed=5)
        history = np.array(model.objective_history)
        assert np.all(np.diff(history) >= -1e-9)
        assert history[-1] == pytest.approx(model.objective, abs=1e-9)

    def test_objective_recomputable(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 4))
        model = spherical_kmeans(x, k=3, seed=7)
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        recomputed = sum(
            float(unit[i] @ model.centroids[model.assignments[i]])
            for i in range(x.shape[0])
        )
        assert recomputed == pytest.approx(model.objective, abs=1e-9)

    def test_centroids_unit_norm(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 6))
        model = spherical_kmeans(x, k=5, seed=9)
        assert np.allclose(np.linalg.norm(model.centroids, axis=1), 1.0, atol=1e-9)

    def test_scale_invariance_of_rows(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 4))
        scales = rng.uniform(0.1, 50.0, size=30)
        a = spherical_kmeans(x, k=3, seed=11)
        b = spherical_kmeans(x * scales[:, None], k=3, seed=11)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.allclose(a.centroids, b.centroids, atol=1e-12)

    def test_matches_exhaustive_two_partition_search(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            x, _ = blobs(rng, [[1, 0, 0], [0, 1, 0]], per_cluster=5, spread=0.15)
            model = spherical_kmeans(x, k=2, seed=trial, restarts=10)
            best = exhaustive_two_partition_objective(x)
            assert model.objective == pytest.approx(best, abs=1e-9)

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 4))
        one = spherical_kmeans(x, k=4, seed=14, restarts=1)
        ten = spherical_kmeans(x, k=4, seed=14, restarts=10)
        assert ten.objective >= one.objective - 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(30, 3))
        a = spherical_kmeans(x, k=3, seed=16)
        b = spherical_kmeans(x, k=3, seed=16)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)

    def test_empty_cluster_reseeded(self):
        # two far clouds but k=3 forces a third cluster to be carved out
        rng = np.random.default_rng(17)
        x, _ = blobs(rng, [[1, 0], [0, 1]], per_cluster=12, spread=0.02)
        model = spherical_kmeans(x, k=3, seed=18)
        assert len(np.unique(model.assignments)) == 3


class TestClusterModelValidation:
    def test_rejects_unnormalized_centroids(self):
        with pytest.raises(ValueError):
            ClusterModel(
                centroids=np.array([[2.0, 0.0], [0.0, 1.0]]),
                assignments=np.array([0, 1]),
                objective=2.0,
                iterations_run=1,
            )

    def test_rejects_out_of_range_assignment(self):
        with pytest.raises(ValueError):
            ClusterModel(
                centroids=np.eye(2),
                assignments=np.array([0, 5]),
                objective=2.0,
                iterations_run=1,
            )
