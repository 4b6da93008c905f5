import itertools
import math

import numpy as np
import pytest
from scipy.stats import hypergeom

from sadcluster.evaluate import (
    adjusted_mutual_information,
    clustering_accuracy,
    confusion_matrix,
    evaluate_clustering,
    expected_mutual_information,
    hungarian,
    mutual_information,
    silhouette_score,
)


def brute_force_assignment_cost(cost):
    best_perm, best_total = None, np.inf
    k = cost.shape[0]
    for perm in itertools.permutations(range(k)):
        total = sum(cost[i, perm[i]] for i in range(k))
        if total < best_total:
            best_perm, best_total = perm, total
    return best_perm, best_total


def emi_direct_hypergeom(a, b, n):
    """Independent E[MI] oracle via scipy's hypergeometric pmf."""
    total = 0.0
    for ai in a:
        for bj in b:
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            for nij in range(lo, hi + 1):
                p = hypergeom.pmf(nij, n, ai, bj)
                total += p * (nij / n) * math.log(n * nij / (ai * bj))
    return total


def emi_by_permutation_enumeration(labels, clusters):
    """Exact permutation-model E[MI] for tiny n by full enumeration."""
    labels = list(labels)
    clusters = list(clusters)
    n = len(labels)
    values = []
    for perm in itertools.permutations(range(n)):
        shuffled = [clusters[p] for p in perm]
        values.append(mutual_information(confusion_matrix(labels, shuffled)))
    return float(np.mean(values))


class TestHungarian:
    def test_identity_favoring_cost(self):
        cost = np.ones((4, 4)) - np.eye(4)
        perm = hungarian(cost)
        assert perm.tolist() == [0, 1, 2, 3]

    def test_two_by_two_hand_case(self):
        perm = hungarian(np.array([[4.0, 1.0], [2.0, 3.0]]))
        assert perm.tolist() == [1, 0]
        cost = 4 * 0 + 1 * 1 + 2 * 1 + 3 * 0  # rows pick columns 1 and 0
        assert cost == 3

    def test_matches_brute_force_6x6(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cost = rng.normal(size=(6, 6))
            perm = hungarian(cost)
            total = sum(cost[i, perm[i]] for i in range(6))
            _, best = brute_force_assignment_cost(cost)
            assert total == pytest.approx(best, abs=1e-9)

    def test_rectangular_padded(self):
        cost = np.array([[1.0, 0.0, 5.0], [0.0, 2.0, 5.0]])
        perm = hungarian(cost)
        assert perm.shape == (3,)
        assert perm[0] == 1
        assert perm[1] == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian(np.array([[np.nan, 1.0], [1.0, 0.0]]))


class TestClusteringAccuracy:
    def test_identity(self):
        acc, _ = clustering_accuracy([0, 1, 2, 0], [0, 1, 2, 0])
        assert acc == 1.0

    def test_relabeling_still_perfect(self):
        labels = [0, 0, 1, 1, 2, 2]
        clusters = [2, 2, 0, 0, 1, 1]
        acc, mapping = clustering_accuracy(labels, clusters)
        assert acc == 1.0
        assert mapping == {2: 0, 0: 1, 1: 2}

    def test_hand_case_half(self):
        acc, _ = clustering_accuracy([0, 0, 1, 1], [0, 1, 0, 1])
        assert acc == 0.5

    def test_invariant_under_id_permutations(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            labels = rng.integers(0, 4, size=n)
            clusters = rng.integers(0, 4, size=n)
            base, _ = clustering_accuracy(labels, clusters)
            label_perm = rng.permutation(4)
            cluster_perm = rng.permutation(4)
            acc2, _ = clustering_accuracy(label_perm[labels], cluster_perm[clusters])
            assert acc2 == pytest.approx(base, abs=1e-12)

    def test_acc_at_least_largest_confusion_cell(self):
        # an injective mapping containing the largest cell always exists
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 5, size=n)
            clusters = rng.integers(0, 5, size=n)
            acc, _ = clustering_accuracy(labels, clusters)
            counts = confusion_matrix(labels, clusters)
            assert acc >= counts.max() / n - 1e-12

    def test_injective_mapping_can_score_below_majority_class(self):
        # the Hungarian protocol maps each cluster to a distinct label, so
        # its accuracy can fall below the majority-class frequency
        labels = [0, 0, 0, 0, 1, 1]
        clusters = [0, 1, 0, 1, 0, 1]
        acc, _ = clustering_accuracy(labels, clusters)
        assert acc == 0.5
        assert acc < 4 / 6

    def test_more_clusters_than_labels(self):
        acc, mapping = clustering_accuracy([0, 0, 1, 1], [0, 1, 2, 2])
        assert acc == 0.75
        assert set(mapping.values()) <= {0, 1}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            clustering_accuracy([0, 1], [0, 1, 1])


class TestAdjustedMutualInformation:
    def test_identical_partitions(self):
        labels = [0, 0, 1, 1, 2, 2, 2]
        assert adjusted_mutual_information(labels, labels) == pytest.approx(1.0, abs=1e-9)

    def test_identical_after_relabeling(self):
        labels = [0, 0, 1, 1, 2, 2]
        clusters = [5, 5, 3, 3, 4, 4]
        assert adjusted_mutual_information(labels, clusters) == pytest.approx(1.0, abs=1e-9)

    def test_hand_case_minus_half(self):
        # MI = 0, E[MI] = ln(2)/3, mean entropy = ln(2)
        # AMI = (0 - ln2/3) / (ln2 - ln2/3) = -1/2
        value = adjusted_mutual_information([0, 0, 1, 1], [0, 1, 0, 1])
        assert value == pytest.approx(-0.5, abs=1e-12)
        emi = expected_mutual_information(np.array([2, 2]), np.array([2, 2]), 4)
        assert emi == pytest.approx(math.log(2) / 3, abs=1e-12)

    def test_independent_partitions_near_zero(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, 4, size=1000)
            clusters = rng.integers(0, 4, size=1000)
            assert abs(adjusted_mutual_information(labels, clusters)) < 0.05

    def test_emi_matches_hypergeom_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(6, 40))
            labels = rng.integers(0, 3, size=n)
            clusters = rng.integers(0, 4, size=n)
            counts = confusion_matrix(labels, clusters)
            a = counts.sum(axis=1)
            b = counts.sum(axis=0)
            a, b = a[a > 0], b[b > 0]
            ours = expected_mutual_information(a, b, n)
            oracle = emi_direct_hypergeom(a, b, n)
            assert ours == pytest.approx(oracle, abs=1e-10)

    def test_emi_matches_full_permutation_enumeration(self):
        cases = [
            ([0, 0, 1, 1], [0, 1, 0, 1]),
            ([0, 0, 0, 1, 1], [0, 1, 2, 0, 1]),
            ([0, 1, 2, 0, 1, 2], [0, 0, 1, 1, 2, 2]),
        ]
        for labels, clusters in cases:
            counts = confusion_matrix(labels, clusters)
            a = counts.sum(axis=1)
            b = counts.sum(axis=0)
            ours = expected_mutual_information(a[a > 0], b[b > 0], len(labels))
            exact = emi_by_permutation_enumeration(labels, clusters)
            assert ours == pytest.approx(exact, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            labels = rng.integers(0, 3, size=30)
            clusters = rng.integers(0, 5, size=30)
            assert adjusted_mutual_information(labels, clusters) == pytest.approx(
                adjusted_mutual_information(clusters, labels), abs=1e-12
            )

    def test_both_single_cluster_is_one(self):
        assert adjusted_mutual_information([0, 0, 0], [0, 0, 0]) == 1.0

    def test_one_single_cluster_is_zero(self):
        assert adjusted_mutual_information([0, 0, 0, 0], [0, 1, 2, 3]) == pytest.approx(
            0.0, abs=1e-12
        )


class TestSilhouette:
    def test_hand_instance(self):
        x = np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0], [-0.6, 0.8]])
        value = silhouette_score(x, [0, 0, 1, 1])
        # per-point scores 11/13, 5/7, 5/7, 11/13; mean = 71/91
        assert value == pytest.approx(71 / 91, abs=1e-12)

    def test_tight_antipodal_clusters_near_one(self):
        rng = np.random.default_rng(5)
        a = np.array([1.0, 0.0, 0.0]) + rng.normal(scale=1e-3, size=(30, 3))
        b = np.array([-1.0, 0.0, 0.0]) + rng.normal(scale=1e-3, size=(30, 3))
        x = np.vstack([a, b])
        labels = np.array([0] * 30 + [1] * 30)
        assert silhouette_score(x, labels) > 0.99

    def test_identical_points_zero(self):
        x = np.ones((6, 3))
        assert silhouette_score(x, [0, 0, 0, 1, 1, 1]) == 0.0

    def test_singleton_cluster_scores_zero(self):
        x = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        value = silhouette_score(x, [0, 0, 1])
        s0 = silhouette_score(np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]), [0, 0, 1])
        assert value == s0  # deterministic
        # the singleton contributes exactly 0
        x2 = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        v = silhouette_score(x2, [0, 0, 1])
        assert v == pytest.approx(2 / 3, abs=1e-12)

    def test_single_cluster_errors(self):
        with pytest.raises(ValueError):
            silhouette_score(np.eye(3), [0, 0, 0])

    def test_sample_cap_below_one_rejected(self):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="sample_cap must be >= 1"):
                silhouette_score(np.eye(4), [0, 0, 1, 1], sample_cap=cap)

    def test_subsample_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 4))
        labels = rng.integers(0, 3, size=300)
        a = silhouette_score(x, labels, sample_cap=100, seed=9)
        b = silhouette_score(x, labels, sample_cap=100, seed=9)
        c = silhouette_score(x, labels, sample_cap=100, seed=10)
        assert a == b
        assert a != c

    def test_subsample_close_to_full(self):
        rng = np.random.default_rng(7)
        a = np.array([1.0, 0.0, 0.0]) + rng.normal(scale=0.1, size=(200, 3))
        b = np.array([0.0, 1.0, 0.0]) + rng.normal(scale=0.1, size=(200, 3))
        x = np.vstack([a, b])
        labels = np.array([0] * 200 + [1] * 200)
        full = silhouette_score(x, labels)
        sub = silhouette_score(x, labels, sample_cap=150, seed=0)
        assert abs(full - sub) < 0.05

    def test_range_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.normal(size=(20, 3))
            labels = rng.integers(0, 3, size=20)
            if len(np.unique(labels)) < 2:
                continue
            v = silhouette_score(x, labels)
            assert -1.0 <= v <= 1.0


class TestEvaluateClustering:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        clusters = rng.integers(0, 3, size=30)
        report = evaluate_clustering(labels, clusters, embeddings=x)
        assert report.confusion.sum() == 30
        matched = sum(
            report.confusion[label, cluster]
            for cluster, label in report.mapping.items()
        )
        assert report.acc == pytest.approx(matched / 30, abs=1e-12)
        assert -1.0 <= report.silhouette <= 1.0

    def test_silhouette_nan_without_embeddings(self):
        report = evaluate_clustering([0, 1], [0, 1])
        assert math.isnan(report.silhouette)
