import numpy as np
import pytest

import spillscale as ss
from spillscale import geometry
from spillscale.design import TAG_COORDS, rng_for, scaling_rule
from spillscale.geometry import (GeometryError, audit_geometry, bool_matmul,
                                 build_space, build_space_from_dist,
                                 fit_interference_constant, greedy_packing,
                                 greedy_set_cover, off_neighborhood_sums,
                                 philox_keys, uniform_disk)

from conftest import line_space


TAGS = sorted({getattr(geometry, name) for name in dir(geometry) if name.startswith("TAG_")})
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def seed_sequence_key(seed, tag):
    return np.random.SeedSequence(entropy=seed, spawn_key=(tag,)).generate_state(2, np.uint64)


class TestPhiloxKeys:
    def test_tags_are_the_known_ones(self):
        assert TAGS == [0, 1, 2, 3, 4, 9]

    @pytest.mark.parametrize("tag", TAGS)
    def test_equal_seed_sequence_state(self, tag):
        random = np.random.default_rng(tag).integers(0, 2**64, 1000, dtype=np.uint64)
        seeds = EDGE_SEEDS + [int(s) for s in random]
        keys = philox_keys(seeds, tag)
        assert keys.dtype == np.uint64 and keys.shape == (len(seeds), 2)
        assert np.array_equal(keys, [seed_sequence_key(s, tag) for s in seeds])

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_rng_for_is_the_seed_sequence_stream(self, seed):
        ref = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(3,))))
        gen = rng_for(seed, 3)
        assert np.array_equal(gen.uniform(size=7), ref.uniform(size=7))
        assert np.array_equal(gen.standard_normal(9), ref.standard_normal(9))
        assert np.array_equal(gen.integers(0, 10, 5), ref.integers(0, 10, 5))

    def test_empty(self):
        assert philox_keys([], 3).shape == (0, 2)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            philox_keys([5, seed], 3)
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            rng_for(seed, 3)


class TestBuildSpace:
    def test_collinear_distances_and_neighborhood(self):
        space = build_space([[0.0], [1.0], [2.0]])
        assert space.dist[0, 2] == 2.0
        # q=1 radius rule: size 1 -> radius 1
        assert set(space.neighborhood(0, 1.0)) == {0, 1}

    def test_singleton(self):
        space = build_space([[0.0, 0.0]])
        for s in (0.25, 1.0, 100.0):
            assert set(space.neighborhood(0, s)) == {0}

    def test_rejects_nonfinite(self):
        with pytest.raises(GeometryError):
            build_space([[0.0], [np.nan]])
        with pytest.raises(GeometryError):
            build_space([[np.inf, 0.0], [0.0, 0.0]])

    def test_rejects_duplicates(self):
        with pytest.raises(GeometryError, match="duplicate"):
            build_space([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0]])

    def test_abstract_space_identity_rule(self):
        dist = np.array([[0.0, 2.0], [2.0, 0.0]])
        space = build_space_from_dist(dist)
        assert space.radius(1.5) == 1.5
        assert set(space.neighborhood(0, 1.5)) == {0}
        assert set(space.neighborhood(0, 2.0)) == {0, 1}

    def test_abstract_space_validation(self):
        with pytest.raises(GeometryError):
            build_space_from_dist([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(GeometryError):
            build_space_from_dist([[1.0]])


class TestNeighborhood:
    def test_rejects_nonpositive_size(self):
        space = line_space(3)
        with pytest.raises(ValueError):
            space.neighborhood(0, 0.0)
        with pytest.raises(ValueError):
            space.neighborhood(0, -1.0)

    def test_below_min_distance_is_self(self):
        space = line_space(5, spacing=2.0)
        assert set(space.neighborhood(2, 1.0)) == {2}

    def test_above_max_distance_is_everything(self):
        space = line_space(5)
        assert len(space.neighborhood(0, 10.0)) == 5

    @pytest.mark.parametrize("space, s", [
        (line_space(9), 2.0),
        (build_space([[x, y] for x in range(5) for y in range(4)]), 4.0),
        (build_space_from_dist([[0.0, 1.0, 3.0, 2.0], [2.0, 0.0, 1.5, 1.0],
                                [1.0, 3.0, 0.0, 2.5], [2.0, 0.5, 2.0, 0.0]]),
         2.0),
    ], ids=["line", "grid", "asymmetric_table"])
    def test_matrix_rows_match_full_matrix(self, space, s):
        # radius(s) is 2 in each space and some pairs sit exactly at
        # distance 2: an int, a slice and an index array select the same
        # rows, boundary pairs included, as the full matrix
        M = space.neighborhood_matrix(s)
        assert (space.dist == 2.0).any()
        assert np.array_equal(M, space.dist <= 2.0)
        rows = np.array([3, 0, 2])
        assert np.array_equal(space.neighborhood_matrix(s, rows), M[rows])
        assert np.array_equal(space.neighborhood_matrix(s, slice(1, 3)), M[1:3])
        for i in range(space.n):
            assert np.array_equal(space.neighborhood_matrix(s, i), M[i])
            assert np.array_equal(space.neighborhood(i, s), np.flatnonzero(M[i]))

    def test_middle_of_line_both_ends(self):
        space = line_space(3)
        assert set(space.neighborhood(1, 1.0)) == {0, 1, 2}

    def test_monotone_and_reflexive(self, disk500):
        space, _, _ = disk500
        rng = np.random.default_rng(3)
        for _ in range(25):
            i = int(rng.integers(space.n))
            s1, s2 = sorted(rng.uniform(0.5, 60.0, size=2))
            n1 = set(space.neighborhood(i, s1))
            n2 = set(space.neighborhood(i, s2))
            assert i in n1
            assert n1 <= n2

    def test_matches_direct_scan(self, disk500):
        space, _, _ = disk500
        rng = np.random.default_rng(4)
        for _ in range(10):
            i = int(rng.integers(space.n))
            s = float(rng.uniform(1.0, 40.0))
            direct = {j for j in range(space.n)
                      if np.linalg.norm(space.coords[i] - space.coords[j]) <= np.sqrt(s)}
            assert set(space.neighborhood(i, s)) == direct


def int_product(a, b):
    """Integer reference for bool_matmul: no float rounding anywhere."""
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


class TestBoolMatmul:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_integer_product(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(0, 40, size=3)
        density = rng.choice([0.0, 0.01, 0.1, 0.5, 0.9, 1.0])
        a = rng.uniform(size=(m, k)) < density
        b = rng.uniform(size=(k, n)) < density
        out = bool_matmul(a, b)
        assert out.dtype == bool and out.shape == (m, n)
        assert np.array_equal(out, int_product(a, b))

    @pytest.mark.parametrize("m", [255, 256, 257, 600])
    def test_rows_across_blocks(self, m):
        rng = np.random.default_rng(m)
        a = rng.uniform(size=(50, m)) < 0.05     # a transposed view, as
        b = rng.uniform(size=(50, 30)) < 0.05    # greedy_packing passes
        assert np.array_equal(bool_matmul(a.T, b), int_product(a.T, b))

    @pytest.mark.parametrize("shape", [(0, 3, 4), (3, 0, 4), (3, 4, 0),
                                       (0, 0, 0)], ids=str)
    def test_empty(self, shape):
        m, k, n = shape
        out = bool_matmul(np.ones((m, k), dtype=bool), np.ones((k, n), dtype=bool))
        assert out.shape == (m, n) and not out.any()

    @pytest.mark.parametrize("fill", [False, True])
    def test_constant_inputs(self, fill):
        a = np.full((7, 300), fill)
        b = np.full((300, 5), fill)
        assert np.array_equal(bool_matmul(a, b), np.full((7, 5), fill))

    def test_single_true_term_among_a_million(self):
        k = 10 ** 6
        a = np.zeros((2, k), dtype=bool)
        b = np.zeros((k, 2), dtype=bool)
        a[0, 765_431] = b[765_431, 1] = True
        a[1, 12] = True                      # b[12] is false: no true term
        out = bool_matmul(a, b)
        assert out.tolist() == [[False, True], [False, False]]
        assert np.array_equal(out, int_product(a, b))


class TestAudits:
    def test_line_density_constant(self):
        # 20 points, unit spacing, s = 4 covers 4 on each side: |N| = 9
        space = line_space(20)
        audit = audit_geometry(space, [4.0])
        assert audit.k3_hat == pytest.approx(2.0)

    def test_single_unit(self):
        space = build_space([[0.0, 0.0]])
        audit = audit_geometry(space, [1.0, 2.0])
        assert audit.k3_hat == 0.0
        assert audit.k5_hat == 1.0

    def test_disk_density_bound(self, disk500):
        space, _, _ = disk500
        audit = audit_geometry(space, np.arange(1.0, 51.0, 7.0), max_units=40)
        M = space.neighborhood_matrix(25.0)
        assert M.sum(axis=1).max() <= audit.k3_hat * 25.0 + 1.0

    def test_disk_covering_constant(self, disk500):
        # Euclidean q=2 populations satisfy the covering bound with 3^q = 9
        space, _, _ = disk500
        audit = audit_geometry(space, np.geomspace(1.0, 50.0, 8), max_units=40)
        assert audit.k5_hat <= 9.0

    def test_cover_and_packing_are_valid(self, disk500):
        space, _, _ = disk500
        rng = np.random.default_rng(11)
        for s in (4.0, 16.0):
            M = space.neighborhood_matrix(s)
            members = rng.uniform(size=space.n) < 0.4
            cover, labels = greedy_set_cover(members, M)
            assert np.all(M[cover][:, members].any(axis=0))
            # each member's label names a pick whose neighborhood holds it
            assert np.all(M[np.array(cover)[labels], np.flatnonzero(members)])
            pack = greedy_packing(members, M)
            inside = M[np.ix_(np.flatnonzero(members), pack)]
            assert inside.sum(axis=1).max() <= 1

    def test_greedy_cover_matches_naive_rescan(self):
        # the pick rule written out: rescan every candidate's uncovered
        # members at each pick, ties to the lowest id, and label the
        # members each pick newly covers with its index
        def naive(members, M):
            cand = np.flatnonzero(members)
            uncovered = set(cand.tolist())
            picked, label = [], {}
            while uncovered:
                gains = [len(uncovered & set(np.flatnonzero(M[c]).tolist()))
                         for c in cand]
                best = int(cand[int(np.argmax(gains))])
                newly = uncovered & set(np.flatnonzero(M[best]).tolist())
                label.update(dict.fromkeys(newly, len(picked)))
                picked.append(best)
                uncovered -= newly
            return picked, [label[c] for c in cand.tolist()]

        rng = np.random.default_rng(5)
        for trial in range(6):
            n = int(rng.integers(30, 120))
            space = build_space(uniform_disk(n, rng))
            M = space.neighborhood_matrix(float(rng.uniform(1.0, 8.0)))
            members = rng.uniform(size=n) < rng.uniform(0.3, 1.0)
            cover, labels = greedy_set_cover(members, M)
            assert (cover, labels.tolist()) == naive(members, M)

    def test_design_scale_constants_golden(self):
        # the design-scale audit (n = 600, seed 7); values recorded from the
        # boolean-matmul packing before it ran through bool_matmul
        n = 600
        space = build_space(uniform_disk(n, rng_for(7 + n, TAG_COORDS)))
        h = scaling_rule(n, 1.0)
        audit = audit_geometry(space, sorted({h, *np.geomspace(1.0, 50.0, 6)}),
                               max_units=30)
        assert (audit.k3_hat, audit.k4_hat, audit.k5_hat) == \
            (4.0, 1.0456395525912727, 8.0)


class TestInterference:
    """The fitted decay constant: a matrix passes a budget's decay bound on
    the grid iff the constant is at most the budget's k1."""

    def test_zero_matrix_passes(self, disk500):
        space, _, _ = disk500
        grid = np.geomspace(1.0, space.n, 16)
        A = np.zeros((space.n, space.n))
        assert fit_interference_constant(A, space, 1.0, grid) == 0.0

    def test_diagonal_passes_any_budget(self):
        space = line_space(12)
        A = np.diag(np.linspace(-3, 3, 12))
        grid = np.geomspace(1.0, 12.0, 16)
        assert fit_interference_constant(A, space, 5.0, grid) == 0.0

    def test_sim_matrix_passes_at_eta_one(self, disk500):
        space, outcomes, _ = disk500
        grid = np.geomspace(1.0, space.n, 16)
        k1 = fit_interference_constant(outcomes.A, space, 1.0, grid) * 1.0001
        for s in grid:
            assert off_neighborhood_sums(outcomes.A, space, s).max() <= k1 / s

    def test_fit_is_tight(self):
        # an end unit of the line leaves 10 - (s + 1) units outside N(i, s),
        # 0.01 each: s * 0.01 * (9 - s) is 0.08, 0.14, 0.2 at s = 1, 2, 4
        space = line_space(10)
        A = np.full((10, 10), 0.01)
        np.fill_diagonal(A, 1.0)
        k1 = fit_interference_constant(A, space, 1.0, s_grid=[1.0, 2.0, 4.0])
        assert k1 == pytest.approx(0.2, rel=1e-12)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ss.InterferenceBudget(eta=0.0, k1=1.0, ybar=1.0)
