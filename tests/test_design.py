import numpy as np
import pytest

import spillscale as ss
from spillscale.design import (cluster_distances, draw_treatments,
                               extend_uniform_overlap, greedy_cover,
                               incidence, scaling_clusters, scaling_rule,
                               singleton_partition)
from spillscale.estimators import dependency_graph
from spillscale.harness import build_population
from spillscale.owopt import interacting_pairs

from conftest import line_space, saturation_indicators


class TestScalingRule:
    def test_reference_point(self):
        # eta=1 exponent is 1/3, so n=1000 gives exactly 10
        assert scaling_rule(1000, 1.0) == pytest.approx(10.0, abs=1e-12)

    def test_unit_population(self):
        assert scaling_rule(1, 3.7, c0=2.5) == 2.5

    def test_fast_decay_limit(self):
        assert scaling_rule(10 ** 6, 50.0) < 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_rule(0, 1.0)
        with pytest.raises(ValueError):
            scaling_rule(10, -1.0)


class TestGreedyCover:
    def test_middle_point_covers_line(self):
        space = line_space(3)
        assert greedy_cover(space, 1.0) == [1]

    def test_spread_line_needs_everyone(self):
        space = line_space(3, spacing=2.0)
        assert greedy_cover(space, 1.0) == [0, 1, 2]

    def test_cover_property_random(self, disk500):
        space, _, _ = disk500
        for g in (2.0, 8.0):
            cover = greedy_cover(space, g)
            M = space.neighborhood_matrix(g)
            assert M[cover].any(axis=0).all()

    def test_cover_size_vs_packing_bound(self, disk500):
        # greedy covers stay within the audited packing budget K4 * n / g
        space, _, _ = disk500
        g = scaling_rule(space.n, 1.0)
        audit = ss.audit_geometry(space, [g], max_units=40)
        cover = greedy_cover(space, g)
        assert len(cover) <= max(audit.k4_hat, 1.0) * space.n / g * 2.0


class TestScalingClusters:
    def test_single_cluster_when_g_huge(self):
        space = line_space(4)
        part = scaling_clusters(space, 10.0)
        assert part.n_clusters == 1
        assert part.clusters[0].size == 4

    def test_singletons_when_g_tiny(self):
        space = line_space(4, spacing=3.0)
        part = scaling_clusters(space, 1.0)
        assert part.n_clusters == 4

    def test_partition_invariants_random(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            pts = rng.uniform(-8, 8, size=(40, 2))
            space = ss.build_space(pts)
            g = float(rng.uniform(1.0, 12.0))
            part = scaling_clusters(space, g)
            part.validate()
            M = space.neighborhood_matrix(g)
            for seed, members in zip(part.seeds, part.clusters):
                assert M[seed][members].all()   # cluster inside seed nbhd

    def test_cluster_ids_in_cover_order(self, disk500):
        space, _, _ = disk500
        part = scaling_clusters(space, 5.0)
        assert part.assignment[part.clusters[0]].max() == 0
        sizes = [c.size for c in part.clusters]
        assert sum(sizes) == space.n


class TestIncidence:
    def test_single_cluster(self):
        space = line_space(5)
        part = scaling_clusters(space, 100.0)
        counts = incidence(space, part, 1.0)
        assert np.all(counts.phi == 1)
        assert counts.gamma.tolist() == [5]

    def test_singleton_clusters(self):
        space = line_space(6)
        part = singleton_partition(6)
        counts = incidence(space, part, 1.5)
        M = space.neighborhood_matrix(1.5)
        assert np.array_equal(counts.phi, M.sum(axis=1))
        assert np.array_equal(counts.gamma, M.sum(axis=0))

    def test_double_counting_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            pts = rng.uniform(0, 20, size=(35, 2))
            space = ss.build_space(pts)
            part = scaling_clusters(space, float(rng.uniform(1, 9)))
            counts = incidence(space, part, float(rng.uniform(0.5, 25)))
            assert counts.phi.sum() == counts.gamma.sum()
            assert counts.phi.min() >= 1
            assert counts.gamma.max() <= space.n


class TestNeighborhoodProductsAgainstSets:
    """The boolean products of incidence, dependency graph and interacting
    pairs, against the set relations they stand for."""

    @pytest.fixture(scope="class", params=["scaling_clusters", "singleton"])
    def instance(self, request):
        space, _, _ = build_population(120, 4)
        h = scaling_rule(space.n, 1.0)
        part = (scaling_clusters(space, h) if request.param == "scaling_clusters"
                else singleton_partition(space.n))
        return space, part, h

    @staticmethod
    def cluster_sets(space, part, s):
        """Cluster ids meeting N(i, s), one set per unit."""
        return [{int(part.assignment[j]) for j in space.neighborhood(i, s)}
                for i in range(space.n)]

    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_incidence(self, instance, scale):
        space, part, h = instance
        sets = self.cluster_sets(space, part, scale * h)
        want = np.array([[c in row for c in range(part.n_clusters)]
                         for row in sets])
        counts = incidence(space, part, scale * h)
        assert np.array_equal(counts.incidence, want)
        assert counts.phi.tolist() == [len(row) for row in sets]

    def test_dependency_graph(self, instance):
        space, part, h = instance
        sets = self.cluster_sets(space, part, h ** 1.1)
        want = np.array([[bool(a & b) for b in sets] for a in sets])
        assert np.array_equal(dependency_graph(space, part, h, 1.0), want)

    def test_interacting_pairs(self, instance):
        space, part, h = instance
        top = 2.0 * h
        sets = self.cluster_sets(space, part, top)
        want = [[i, j] for i in range(space.n) for j in range(i, space.n)
                if sets[i] & sets[j]]
        pairs = interacting_pairs(incidence(space, part, top))
        assert pairs.tolist() == want


class TestIncidenceCounts:
    """`treated`, `pure` and `shared`, the one reading of purity and of
    shared clusters, against independent references."""

    @pytest.fixture(scope="class", params=["scaling_clusters", "singleton"])
    def instance(self, request):
        space, _, _ = build_population(120, 4)
        h = scaling_rule(space.n, 1.0)
        part = (scaling_clusters(space, h) if request.param == "scaling_clusters"
                else singleton_partition(space.n))
        B = (np.random.default_rng(17).uniform(size=(part.n_clusters, 30))
             < 0.5).astype(np.int8)
        # the constant draws, where every neighborhood is pure
        B[:, 0], B[:, 1] = 1, 0
        return space, part, h, B

    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_treated_is_the_integer_count(self, instance, scale):
        space, part, h, B = instance
        counts = incidence(space, part, scale * h)
        got = counts.treated(B.astype(np.float64))
        want = counts.incidence.astype(np.int64) @ B.astype(np.int64)
        assert got.dtype == np.float64 and got.shape == (space.n, B.shape[1])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_pure_matches_unit_level_reference(self, instance, scale):
        space, part, h, B = instance
        counts = incidence(space, part, scale * h)
        sat, dis = counts.pure(counts.treated(B.astype(np.float64)))
        for k in range(B.shape[1]):
            want_sat, want_dis = saturation_indicators(
                space, B[part.assignment, k], scale * h)
            assert np.array_equal(sat[:, k], want_sat)
            assert np.array_equal(dis[:, k], want_dis)
        assert sat[:, 0].all() and dis[:, 1].all()

    @pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
    def test_shared_matches_set_relations(self, instance, scale):
        space, part, h, _ = instance
        sets = TestNeighborhoodProductsAgainstSets.cluster_sets(
            space, part, scale * h)
        want = np.array([[bool(a & b) for b in sets] for a in sets])
        assert np.array_equal(incidence(space, part, scale * h).shared(), want)


class TestExtendUniformOverlap:
    def test_single_cluster_no_extension(self):
        space = line_space(5)
        part = scaling_clusters(space, 100.0)
        ext = extend_uniform_overlap(space, part, 1.0)
        assert ext.phi_target == 1
        assert all(e.size == 0 for e in ext.extra)

    def test_already_uniform_no_extension(self):
        # symmetric pair of 2-point clusters, s wide enough to see both
        space = line_space(4)
        part = scaling_clusters(space, 1.0)
        assert part.n_clusters == 2
        ext = extend_uniform_overlap(space, part, 4.0)
        assert ext.phi_target == 2
        assert all(e.size == 0 for e in ext.extra)

    def test_hand_built_line_instance(self):
        # units at 0,1,10,11; clusters {0,1} and {10,11}; s=9 sees across
        # the gap only from the inner units, so the outer pair is extended
        space = ss.build_space(np.array([[0.0], [1.0], [10.0], [11.0]]))
        part = scaling_clusters(space, 1.0)
        assert [c.tolist() for c in part.clusters] == [[0, 1], [2, 3]]
        base = incidence(space, part, 9.0)
        assert base.phi.tolist() == [1, 2, 2, 1]
        ext = extend_uniform_overlap(space, part, 9.0)
        assert ext.phi_target == 2
        assert ext.extra[0].tolist() == [2, 3]     # whole nearest cluster
        assert ext.extra[3].tolist() == [0, 1]
        assert np.all(ext.exposure_phi() == 2)

    def test_uniform_after_extension_and_gamma_growth(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            pts = rng.uniform(0, 15, size=(30, 2))
            space = ss.build_space(pts)
            g = float(rng.uniform(2, 6))
            part = scaling_clusters(space, g)
            base = incidence(space, part, g)
            ext = extend_uniform_overlap(space, part, g)
            assert np.all(ext.exposure_phi() == ext.phi_target)
            gamma_ext = ext.incidence.sum(axis=0).astype(float)
            grown = float(np.sum(gamma_ext ** 2))
            assert grown <= base.phi_max ** 2 * base.sum_gamma_sq + 1e-9

    def test_nearest_cluster_chosen(self):
        D = cluster_distances(*_three_cluster_line())
        # unit 0 is closest to cluster 1, then cluster 2
        assert D[0, 1] < D[0, 2]


def _three_cluster_line():
    space = ss.build_space(np.array([[0.0], [5.0], [5.5], [12.0]]))
    part = scaling_clusters(space, 1.0)
    return space, part


class TestDrawTreatments:
    def test_within_cluster_constancy_and_extreme_p(self):
        space = line_space(6)
        part = scaling_clusters(space, 100.0)
        draw = draw_treatments(part, 0.999999, seed=4)
        assert np.unique(draw.d).size == 1
        assert np.all(draw.d == draw.b[0])

    def test_determinism(self):
        part = singleton_partition(12)
        a = draw_treatments(part, 0.4, seed=99)
        b = draw_treatments(part, 0.4, seed=99)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.d, b.d)
        c = draw_treatments(part, 0.4, seed=100)
        assert not np.array_equal(a.b, c.b)

    def test_marginal_rate(self):
        part = singleton_partition(1)
        draws = np.array([draw_treatments(part, 0.5, seed=s).d[0]
                          for s in range(100_000)])
        # binomial 99.99% band around 0.5 at 1e5 draws is well inside 0.01
        assert abs(draws.mean() - 0.5) < 0.01

    def test_covariance_structure(self):
        # units 0,1 share a cluster; unit 2 is independent of them
        space = ss.build_space(np.array([[0.0], [1.0], [50.0]]))
        part = scaling_clusters(space, 1.5)
        assert part.assignment[0] == part.assignment[1] != part.assignment[2]
        D = np.array([draw_treatments(part, 0.5, seed=s).d
                      for s in range(10_000)], dtype=float)
        cov_shared = np.mean(D[:, 0] * D[:, 1]) - D[:, 0].mean() * D[:, 1].mean()
        cov_apart = np.mean(D[:, 0] * D[:, 2]) - D[:, 0].mean() * D[:, 2].mean()
        assert cov_shared >= 0.2
        assert abs(cov_apart) <= 0.05

    def test_rejects_bad_p(self):
        part = singleton_partition(3)
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                draw_treatments(part, p, seed=0)
