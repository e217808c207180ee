import csv
import hashlib
import tracemalloc

import numpy as np
import pytest

import spillscale as ss
from spillscale.design import (TAG_TREAT, ClusterPartition, cluster_distances,
                               cluster_sums, draw_bits_batch, draw_treatments,
                               extend_uniform_overlap, greedy_cover, rng_for,
                               incidence, scaling_clusters, scaling_rule,
                               singleton_partition)
from spillscale.cli import load_clusters
from spillscale.estimators import dependency_graph
from spillscale.geometry import build_space_from_dist
from spillscale.harness import build_population
from spillscale.owopt import interacting_pairs

from conftest import (cluster_members, concatenated_by_cluster,
                      lexsort_extension, line_space, saturation_indicators)


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


def per_seed_clusters(space, g):
    """The scaling-cluster partition rebuilt after the cover, seed by seed:
    each seed's g-neighborhood row, less the units already assigned, is the
    next cluster, and a seed with nothing left makes none."""
    assignment = np.full(space.n, -1, dtype=np.int64)
    n_clusters = 0
    for u in greedy_cover(space, g)[0]:
        members = space.neighborhood_matrix(g, u) & (assignment < 0)
        if members.any():
            assignment[members] = n_clusters
            n_clusters += 1
    return assignment


class TestGreedyCover:
    def test_middle_point_covers_line(self):
        space = line_space(3)
        cover, labels = greedy_cover(space, 1.0)
        assert cover == [1] and labels.tolist() == [0, 0, 0]

    def test_spread_line_needs_everyone(self):
        space = line_space(3, spacing=2.0)
        cover, labels = greedy_cover(space, 1.0)
        assert cover == [0, 1, 2] and labels.tolist() == [0, 1, 2]

    def test_cover_property_random(self, disk500):
        space, _, _ = disk500
        for g in (2.0, 8.0):
            cover, labels = greedy_cover(space, g)
            M = space.neighborhood_matrix(g)
            assert M[cover].any(axis=0).all()
            # each unit's label is the first pick whose neighborhood holds it
            assert np.array_equal(labels, M[cover].argmax(axis=0))

    def test_cover_size_vs_packing_bound(self, disk500):
        # greedy covers stay within the audited packing budget K4 * n / g
        space, _, _ = disk500
        g = scaling_rule(space.n, 1.0)
        audit = ss.audit_geometry(space, [g], max_units=40)
        cover, _ = greedy_cover(space, g)
        assert len(cover) <= max(audit.k4_hat, 1.0) * space.n / g * 2.0


class TestScalingClusters:
    def test_single_cluster_when_g_huge(self):
        space = line_space(4)
        part = scaling_clusters(space, 10.0)
        assert part.n_clusters == 1
        assert part.assignment.tolist() == [0, 0, 0, 0]

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
            # every unit has an id in 0..C-1 (bincount rejects -1), and
            # each id names a nonempty cluster
            assert np.bincount(part.assignment).min() > 0
            # every cover pick forms a cluster, and cluster k lies inside
            # the g-neighborhood of pick k
            cover, _ = greedy_cover(space, g)
            assert part.n_clusters == len(cover)
            M = space.neighborhood_matrix(g)
            for k, members in enumerate(cluster_members(part)):
                assert M[cover[k]][members].all()

    @pytest.mark.parametrize("kind", ["euclidean", "tied_table"])
    def test_matches_per_seed_rebuild(self, kind):
        # the cover's own labels against the partition rebuilt from each
        # seed's neighborhood row, also on asymmetric tables of integer
        # distances, with many ties in the neighborhoods and the gains
        rng = np.random.default_rng(12)
        for trial in range(10):
            n = int(rng.integers(20, 90))
            if kind == "euclidean":
                space = ss.build_space(rng.uniform(-8, 8, size=(n, 2)))
                g = float(rng.uniform(0.5, 30.0))
            else:
                dist = rng.integers(1, rng.integers(3, 13), size=(n, n)).astype(float)
                np.fill_diagonal(dist, 0.0)
                space = build_space_from_dist(dist)
                g = float(rng.integers(1, 6))
            part = scaling_clusters(space, g)
            assert np.array_equal(part.assignment, per_seed_clusters(space, g))

    def test_cluster_ids_in_cover_order(self, disk500):
        # cluster 0 grows from the first cover seed: its whole neighborhood
        space, _, _ = disk500
        part = scaling_clusters(space, 5.0)
        first = greedy_cover(space, 5.0)[0][0]
        assert np.array_equal(np.flatnonzero(part.assignment == 0),
                              space.neighborhood(first, 5.0))
        assert np.bincount(part.assignment).sum() == space.n

    def test_peak_memory_is_one_neighborhood_matrix(self):
        # the cover takes every unit as a member, so its candidate block is
        # the boolean n x n neighborhood matrix itself, not a second copy
        # (2.14 n^2 bytes at n = 1000 with the copy, 1.11 without)
        n = 1000
        space, _, _ = build_population(n, 7)
        tracemalloc.start()
        try:
            scaling_clusters(space, scaling_rule(n, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * n * n


def interleaved_partition(tmp_path):
    """(assignment, partition) of 300 units in 40 interleaved clusters,
    loaded through the CLI: each cluster's units are scattered over the
    population, and clusters are not numbered in any spatial order."""
    assignment = np.random.default_rng(2).permutation(np.arange(300) % 40)
    path = tmp_path / "clusters.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [("unit_id", "cluster_id"), *enumerate(assignment.tolist())])
    return assignment, load_clusters(path, list(range(300)))


class TestByCluster:
    """`by_cluster` (one stable argsort of the assignment) against the
    concatenated per-cluster scans it replaced."""

    @pytest.mark.parametrize("kind", ["scaling", "singleton", "interleaved"])
    def test_matches_concatenated_scans(self, kind, tmp_path):
        if kind == "scaling":
            space = build_population(700, 3)[0]
            part = scaling_clusters(space, scaling_rule(700, 1.0))
        elif kind == "singleton":
            part = singleton_partition(700)
        else:
            part = interleaved_partition(tmp_path)[1]
        order, starts = part.by_cluster
        want_order, want_starts = concatenated_by_cluster(part)
        assert order.dtype == starts.dtype == np.int64
        assert np.array_equal(order, want_order)
        assert np.array_equal(starts, want_starts)
        assert part.by_cluster is part.by_cluster       # computed once


class TestClusterSums:
    """`cluster_sums` against the product with the n x C cluster indicator."""

    @pytest.mark.parametrize("kind", ["scaling", "interleaved"])
    def test_matches_indicator_product(self, kind, tmp_path):
        if kind == "scaling":
            space = build_population(700, 3)[0]
            part = scaling_clusters(space, scaling_rule(700, 1.0))
        else:
            part = interleaved_partition(tmp_path)[1]
        M = np.random.default_rng(4).uniform(size=(part.n, part.n))
        indicator = np.zeros((part.n, part.n_clusters))
        indicator[np.arange(part.n), part.assignment] = 1.0
        np.testing.assert_allclose(cluster_sums(part, M), M @ indicator, rtol=1e-12)

    def test_singletons_in_order_give_the_matrix_itself(self):
        M = np.random.default_rng(0).uniform(size=(40, 40))
        assert cluster_sums(singleton_partition(40), M) is M
        shuffled = ClusterPartition(np.random.default_rng(1).permutation(40))
        assert np.array_equal(cluster_sums(shuffled, M)[:, shuffled.assignment], M)

    def test_traced_peak_is_output_plus_one_row_block(self):
        n = 1000
        space, outcomes, _ = build_population(n, 5)
        part = scaling_clusters(space, scaling_rule(n, 1.0))
        part.by_cluster                     # the partition's, built once
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cluster_sums(part, outcomes.A)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the output and one gathered 256-row block, plus 16 KiB for the
        # views and index objects of the loop
        assert peak <= (n * part.n_clusters + 256 * n) * 8 + 2 ** 14


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
        want = counts.incidence.astype(np.int64) @ B.astype(np.int64)
        for bits in (B, B.astype(np.float64), B.T.copy().T):
            got = counts.treated(bits)
            assert got.dtype == np.float32 and got.shape == (space.n, B.shape[1])
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
        ext = extend_uniform_overlap(space, part, incidence(space, part, 1.0))
        assert ext.phi_max == 1
        assert all(e.size == 0 for e in ext.extra)

    def test_already_uniform_no_extension(self):
        # symmetric pair of 2-point clusters, s wide enough to see both
        space = line_space(4)
        part = scaling_clusters(space, 1.0)
        assert part.n_clusters == 2
        ext = extend_uniform_overlap(space, part, incidence(space, part, 4.0))
        assert ext.phi_max == 2
        assert all(e.size == 0 for e in ext.extra)

    def test_hand_built_line_instance(self):
        # units at 0,1,10,11; clusters {0,1} and {10,11}; s=9 sees across
        # the gap only from the inner units, so the outer pair is extended
        space = ss.build_space(np.array([[0.0], [1.0], [10.0], [11.0]]))
        part = scaling_clusters(space, 1.0)
        assert part.assignment.tolist() == [0, 0, 1, 1]
        base = incidence(space, part, 9.0)
        assert base.phi.tolist() == [1, 2, 2, 1]
        ext = extend_uniform_overlap(space, part, base)
        assert ext.phi_max == 2
        # the extension pads a copy; the base counts keep phi = 1 at the ends
        assert base.incidence.sum(axis=1).tolist() == [1, 2, 2, 1]
        assert ext.extra[0].tolist() == [2, 3]     # whole nearest cluster
        assert ext.extra[3].tolist() == [0, 1]
        assert np.all(ext.phi == 2)

    def test_uniform_after_extension_and_gamma_growth(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            pts = rng.uniform(0, 15, size=(30, 2))
            space = ss.build_space(pts)
            g = float(rng.uniform(2, 6))
            part = scaling_clusters(space, g)
            base = incidence(space, part, g)
            ext = extend_uniform_overlap(space, part, base)
            assert np.all(ext.phi == ext.phi_max)
            gamma_ext = ext.incidence.sum(axis=0).astype(float)
            grown = float(np.sum(gamma_ext ** 2))
            base_sq = float(np.sum(base.gamma.astype(float) ** 2))
            assert grown <= base.phi_max ** 2 * base_sq + 1e-9

    def test_extension_counts_its_own_incidence(self):
        space, _, _ = build_population(80, 83)
        h = ss.scaling_rule(80, 1.0)
        part = scaling_clusters(space, h)
        base = incidence(space, part, h)
        ext = extend_uniform_overlap(space, part, base)
        assert isinstance(ext, ss.IncidenceCounts)
        assert np.any(base.phi < base.phi_max)
        assert ext.phi_max == base.phi_max
        assert np.all(ext.phi == ext.phi_max)
        assert np.array_equal(ext.gamma, ext.incidence.sum(axis=0))

    def test_nearest_cluster_chosen(self):
        space, part = _three_cluster_line()
        D = cluster_distances(space, part, np.arange(space.n))
        # unit 0 is closest to cluster 1, then cluster 2
        assert D[0, 1] < D[0, 2]


class TestExtensionAgainstLexsort:
    """The row-blocked extension against the per-unit `lexsort` loop it
    replaced (`conftest.lexsort_extension`), ties included."""

    @staticmethod
    def check(space, part, base):
        ext = extend_uniform_overlap(space, part, base)
        want_inc, want_extra = lexsort_extension(space, part, base)
        assert np.array_equal(ext.incidence, want_inc)
        assert np.array_equal(ext.phi, want_inc.sum(axis=1))
        assert np.array_equal(ext.gamma, want_inc.sum(axis=0))
        assert len(ext.extra) == space.n
        for got, want in zip(ext.extra, want_extra):
            assert got.dtype == np.int64
            assert np.all(np.diff(got) > 0)
            assert np.array_equal(got, want)
        assert (sum(e.size > 0 for e in ext.extra)
                == np.count_nonzero(base.phi < base.phi_max))
        return ext

    @staticmethod
    def lattice(rows, cols):
        """rows x cols integer grid: many exactly tied cluster distances;
        a narrow strip, so most neighborhoods are cut by its edges."""
        grid = np.stack(np.meshgrid(np.arange(rows), np.arange(cols)), axis=-1)
        return ss.build_space(grid.reshape(-1, 2).astype(float))

    @pytest.mark.parametrize("design", ["scaling_clusters", "iid"])
    @pytest.mark.parametrize("points", ["disk", "lattice"])
    def test_matches_reference(self, design, points):
        space = (build_population(700, 3)[0] if points == "disk"
                 else self.lattice(6, 100))
        h = scaling_rule(space.n, 1.0)
        part = (scaling_clusters(space, h) if design == "scaling_clusters"
                else singleton_partition(space.n))
        base = incidence(space, part, h)
        # deficient units fill at least two row blocks
        assert np.count_nonzero(base.phi < base.phi_max) > 256
        if design == "iid":                 # units that need several clusters
            assert np.count_nonzero(base.phi_max - base.phi > 1) > 0
        self.check(space, part, base)

    def test_exact_ties_go_to_the_lowest_cluster_id(self):
        # unit 0 is at distance 2 from units 1..4, which are at distance 1
        # from one another: at s = 1 each of them meets 4 singleton
        # clusters and unit 0 only its own, so it needs 3 of 4 tied ones
        dist = np.ones((5, 5))
        dist[0, :] = dist[:, 0] = 2.0
        np.fill_diagonal(dist, 0.0)
        space = build_space_from_dist(dist)
        part = singleton_partition(5)
        base = incidence(space, part, 1.0)
        assert base.phi.tolist() == [1, 4, 4, 4, 4]
        ext = self.check(space, part, base)
        assert ext.extra[0].tolist() == [1, 2, 3]

    def test_partition_loaded_through_the_cli(self, tmp_path):
        space, _, _ = build_population(300, 5)
        assignment, part = interleaved_partition(tmp_path)
        assert np.array_equal(part.assignment, assignment)
        for s in (2.0, 8.0, 40.0):
            counts = incidence(space, part, s)
            want = np.zeros((300, 40), dtype=bool)
            for i in range(300):
                want[i, assignment[space.neighborhood(i, s)]] = True
            assert np.array_equal(counts.incidence, want)
            assert np.array_equal(counts.phi, want.sum(axis=1))
            assert np.array_equal(counts.gamma, want.sum(axis=0))
            self.check(space, part, counts)


def _three_cluster_line():
    space = ss.build_space(np.array([[0.0], [5.0], [5.5], [12.0]]))
    part = scaling_clusters(space, 1.0)
    return space, part


class TestDrawBitsBatch:
    @pytest.mark.parametrize("n_clusters", [1, 13, 900])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_rows_are_each_seeds_own_stream(self, n_clusters, p):
        seeds = [2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 5, 2**64 - 1]
        B = draw_bits_batch(n_clusters, p, seeds)
        ref = [rng_for(s, TAG_TREAT).uniform(size=n_clusters) < p for s in seeds]
        assert B.dtype == np.int8
        assert np.array_equal(B, np.array(ref, dtype=np.int8))

    def test_no_seeds(self):
        assert draw_bits_batch(5, 0.5, []).shape == (0, 5)

    def test_bits_are_pinned(self):
        # recorded from the per-seed SeedSequence construction
        B = draw_bits_batch(126, 0.5, range(7, 2007))
        assert hashlib.sha256(B.tobytes()).hexdigest() == (
            "eccaf96d8b7508cde85ebb8b73ffd0415432c68b66fd8c17d0a0339082f7b8c4")


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
