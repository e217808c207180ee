import math

import numpy as np
import pytest

import spillscale as ss
from spillscale import design, harness
from spillscale.design import (cluster_bits, draw_bits_batch, incidence,
                               scaling_clusters, singleton_partition)
from spillscale import estimators
from spillscale.estimators import (HAC_EPSILON, HAC_ROWS, UNDEFINED, Band,
                                   DesignContext, DrawBlock, band_order,
                                   check_hac_window, dependency_graph,
                                   half_width, interval)
from spillscale.geometry import (build_space_from_dist, fit_interference_constant,
                                 row_blocks, uniform_disk)
from spillscale.oracle import enumerate_assignments, exact_expectation
from spillscale.outcomes import make_guess, make_sim_dgp, realize
from spillscale.owopt import default_ow_grid, saturation_tables, stilde_indices

from conftest import (SaturationProfile, line_space, per_row, population, saturation,
                      saturation_indicators, whole_array_estimates)


def one_draw(space, part, h, Y, d, p=0.5, eta=1.0, guess=None) -> DrawBlock:
    """The library's single-draw call: a one-column block on the draw's
    cluster bits."""
    return DrawBlock(DesignContext(space, part, h, p, eta), Y,
                     cluster_bits(part, d), guess=guess)


def exposure_draw(seed=0):
    """A context on a small simulated design, one draw's bits and its
    exposures, which vary across units."""
    space = harness.build_population(30, 31)
    h = ss.scaling_rule(30, 1.0)
    ctx = DesignContext(space, scaling_clusters(space, h), h, 0.5)
    b = draw_bits_batch(ctx.partition.n_clusters, 0.5, [seed])[0]
    T = DrawBlock(ctx, B=b).T[:, 0]
    assert T.var() > 0.01
    return ctx, b, T


def saturated_outcome_sum(outcomes, space, partition, h, p):
    """The unbiased comparison sum: observed outcomes replaced by the pure
    potential outcomes inside the saturation indicators."""
    n = space.n
    y1 = realize(outcomes, np.ones(n, dtype=np.int8))
    y0 = realize(outcomes, np.zeros(n, dtype=np.int8))
    phi = incidence(space, partition, h).phi

    def fn(b):
        d = np.asarray(b)[partition.assignment]
        sat, dis = saturation_indicators(space, d, h)
        return float(np.sum(y1 * sat / p ** phi - y0 * dis / (1 - p) ** phi) / n)

    return fn


class TestIpwHt:
    def test_single_treated_unit(self):
        space = ss.build_space([[0.0]])
        part = singleton_partition(1)
        block = one_draw(space, part, 1.0, np.array([3.0]), np.array([1]))
        assert block.ht[0] == pytest.approx(6.0)

    def test_single_cluster_all_treated(self):
        space = line_space(5)
        part = scaling_clusters(space, 100.0)
        Y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        block = one_draw(space, part, 2.0, Y, np.ones(5, dtype=int))
        assert block.ht[0] == pytest.approx(2.0 * Y.mean())

    def test_mixed_draw_drops_impure_units(self):
        space = line_space(2, spacing=5.0)
        part = singleton_partition(2)
        Y = np.array([10.0, -4.0])
        block = one_draw(space, part, 1.0, Y, np.array([1, 0]))
        # both units pure at h=1 (neighborhoods are singletons)
        assert block.ht[0] == pytest.approx((10.0 / 0.5 + 4.0 / 0.5) / 2)

    def test_unbiased_for_saturated_sum(self, small_exact_instance):
        space, outcomes, _, part, g = small_exact_instance
        enum = enumerate_assignments(part, 0.5)
        fn = saturated_outcome_sum(outcomes, space, part, g, 0.5)
        res = exact_expectation(per_row(fn), enum)
        assert res.p_defined == pytest.approx(1.0, abs=1e-12)
        assert res.mean == pytest.approx(outcomes.theta, abs=1e-10)

    def test_exact_bias_bound(self, small_exact_instance):
        space, outcomes, _, part, g = small_exact_instance
        p = 0.5
        enum = enumerate_assignments(part, p)
        counts = incidence(space, part, g)

        def ht(b):
            d = np.asarray(b)[part.assignment]
            Y = realize(outcomes, d)
            return one_draw(space, part, g, Y, d, p).ht[0]

        mean = exact_expectation(per_row(ht), enum).mean
        k1 = fit_interference_constant(
            outcomes.A, space, 1.0, s_grid=sorted({g, 1.0, 2.0, 5.0, 10.0}))
        bound = 2 * k1 * g ** -1.0 / (p * (1 - p)) ** counts.phi_max
        assert abs(mean - outcomes.theta) <= bound


class TestHajek:
    def test_location_invariance_constant_outcomes(self):
        space = line_space(4, spacing=3.0)
        part = singleton_partition(4)
        block = one_draw(space, part, 1.0, np.full(4, 7.7), np.array([1, 0, 1, 0]))
        assert block.hajek[0] == pytest.approx(0.0, abs=1e-12)

    def test_one_saturated_one_dissaturated(self):
        space = line_space(2, spacing=5.0)
        part = singleton_partition(2)
        Y = np.array([4.0, 1.5])
        block = one_draw(space, part, 1.0, Y, np.array([1, 0]))
        assert block.hajek[0] == pytest.approx(4.0 - 1.5)

    def test_scale_equivariance(self):
        space = line_space(6, spacing=4.0)
        part = singleton_partition(6)
        d = np.array([1, 0, 1, 1, 0, 0])
        rng = np.random.default_rng(0)
        Y = rng.normal(size=6)
        base = one_draw(space, part, 1.0, Y, d).hajek[0]
        scaled = one_draw(space, part, 1.0, 3.5 * Y, d).hajek[0]
        assert scaled == pytest.approx(3.5 * base)

    def test_undefined_when_one_group_empty(self):
        # no dissaturated unit: NaN, the one undefined-draw signal
        space = line_space(3, spacing=4.0)
        part = singleton_partition(3)
        block = one_draw(space, part, 1.0, np.ones(3), np.ones(3, dtype=int))
        assert np.isnan(block.hajek[0])
        assert np.isnan(block.hajek_weights).all()

    def test_weights_reproduce_estimate(self):
        space = line_space(6, spacing=4.0)
        part = singleton_partition(6)
        d = np.array([1, 0, 1, 1, 0, 0])
        Y = np.linspace(-2, 2, 6)
        block = one_draw(space, part, 1.0, Y, d)
        assert block.hajek_weights[:, 0] @ Y == pytest.approx(block.hajek[0])

    def test_ht_and_hajek_share_the_ipw_pair_in_either_order(self):
        # a block builds the IPW pair once; hajek_weights renormalizes it in
        # place and drops it, so an HT read after Hajek rebuilds it
        space, outcomes, _ = population(80, 3)
        h = ss.scaling_rule(80, 1.0)
        ctx = DesignContext(space, scaling_clusters(space, h), h, 0.5)
        B = design.draw_bits_batch(ctx.partition.n_clusters, 0.5, range(16))
        Y = realize(outcomes, B[:, ctx.partition.assignment].T)
        first, second = DrawBlock(ctx, Y, B.T), DrawBlock(ctx, Y, B.T)
        ht, hajek = first.ht, first.hajek
        assert "ipw" not in vars(first)
        assert np.array_equal(second.hajek, hajek, equal_nan=True)
        assert np.array_equal(second.ht, ht)

    def test_smaller_bias_than_ht_in_simulation(self):
        space, outcomes, guess = population(400, 7 + 400)
        h = ss.scaling_rule(400, 1.0)
        part = scaling_clusters(space, h)
        cell = harness.simulate_design(
            DesignContext(space, part, h, 0.5), outcomes.over(part), guess.over(part),
            harness.ExperimentConfig([400], estimators=["ht", "hajek"], reps=2000,
                                     base_seed=7))
        ht = cell.estimates["ht"]
        hj = cell.estimates["hajek"]
        bias_ht = abs(np.nanmean(ht) - outcomes.theta)
        bias_hj = abs(np.nanmean(hj) - outcomes.theta)
        assert bias_hj < bias_ht


class TestCountsDoNotWrap:
    """Bit vectors are int8; neighborhood counts must not wrap at 128/256."""

    def _one_treated_cluster(self):
        space = line_space(256)
        part = scaling_clusters(space, 1000.0)
        assert part.n_clusters == 1
        return space, part, np.ones(256, dtype=np.int8), np.ones(256)

    def test_ht_counts_256_treated_neighbors(self):
        space, part, d, Y = self._one_treated_cluster()
        assert one_draw(space, part, 1000.0, Y, d).ht[0] == pytest.approx(2.0)

    def test_hajek_undefined_without_dissaturated_units(self):
        space, part, d, Y = self._one_treated_cluster()
        assert np.isnan(one_draw(space, part, 1000.0, Y, d).hajek[0])
        assert UNDEFINED["hajek"] == "undefined_draw"

    def test_saturation_indicators(self):
        space, _, d, _ = self._one_treated_cluster()
        sat, dis = saturation_indicators(space, d, 1000.0)
        assert sat.all() and not dis.any()


class TestExposure:
    def _two_cluster_context(self):
        # clusters {0, 1} and {10, 11}; at s = 9 units 1 and 2 meet both,
        # units 0 and 3 one
        space = ss.build_space(np.array([[0.0], [1.0], [10.0], [11.0]]))
        part = scaling_clusters(space, 1.0)
        return DesignContext(space, part, 9.0, 0.5)

    def test_all_ones_and_all_zeros(self):
        ctx = self._two_cluster_context()
        assert np.all(DrawBlock(ctx, B=np.array([1, 1])).T == 1.0)
        assert np.all(DrawBlock(ctx, B=np.array([0, 0])).T == 0.0)

    def test_half_exposure(self):
        ctx = self._two_cluster_context()
        T = DrawBlock(ctx, B=np.array([1, 0])).T
        assert np.all(T == 0.5)
        assert ctx.extended.phi_max == 2

    def test_pads_nonuniform_overlap(self):
        # the exposure is the share over the padded neighborhoods, never
        # over the base incidence, whose counts differ across units
        ctx = self._two_cluster_context()
        assert np.array_equal(ctx.counts.phi, [1, 2, 2, 1])
        assert np.array_equal(ctx.extended.phi, [2, 2, 2, 2])
        block = DrawBlock(ctx, B=np.array([1, 0]))
        assert np.array_equal(ctx.counts.share(block.treated)[:, 0],
                              [1.0, 0.5, 0.5, 0.0])
        assert np.all(block.T == 0.5)


class TestOls:
    def test_exact_linear_fit(self):
        ctx, b, T = exposure_draw()
        assert DrawBlock(ctx, 3.0 * T, B=b).ols[0] == pytest.approx(3.0, abs=1e-12)

    def test_constant_outcomes(self):
        ctx, b, T = exposure_draw()
        assert DrawBlock(ctx, np.full(T.size, 9.9), B=b).ols[0] == pytest.approx(
            0.0, abs=1e-12)

    def test_translation_invariance(self):
        ctx, b, T = exposure_draw(3)
        Y = np.random.default_rng(3).normal(size=T.size)
        assert DrawBlock(ctx, Y + 123.4, B=b).ols[0] == pytest.approx(
            DrawBlock(ctx, Y, B=b).ols[0], abs=1e-9)

    def test_degenerate_exposure(self):
        # every cluster treated: every exposure is 1 and OLS is NaN
        ctx, b, T = exposure_draw()
        block = DrawBlock(ctx, np.linspace(1.0, 2.0, T.size), B=np.ones_like(b))
        assert np.all(block.T == 1.0)
        assert np.isnan(block.ols[0])

    def test_weights_reproduce_estimate(self):
        ctx, b, T = exposure_draw(4)
        Y = np.random.default_rng(4).normal(size=T.size)
        block = DrawBlock(ctx, Y, B=b)
        assert block.ols_weights(np.arange(Y.size))[:, 0] @ Y == pytest.approx(block.ols[0])


class TestShrinkage:
    def test_scaled_exposure_identity(self):
        # singleton clusters make A_hat = kappa * incidence/phi reproduce
        # exactly T_guess = kappa * T, so shrink = ols * (1'A_hat 1 / n) / kappa
        space = line_space(6, spacing=4.0)
        part = singleton_partition(6)
        ctx = DesignContext(space, part, 1.0, 0.5)
        b = draw_bits_batch(part.n_clusters, 0.5, [3])[0]
        kappa = 2.5
        A_hat = kappa * ctx.extended.incidence.astype(float) / ctx.extended.phi_max
        guess = ss.LinearOutcomes(0.0, A_hat, np.zeros(6))
        rng = np.random.default_rng(5)
        Y = rng.normal(size=6)
        block = DrawBlock(ctx, Y, b, guess=guess)
        got = block.shrink[0]
        want = block.ols[0] * (A_hat.sum() / 6) / kappa
        assert got == pytest.approx(want, abs=1e-10)

    def test_guess_must_be_over_the_partition(self):
        # a clustered design reads the guess's n x C cluster sums; an n x n
        # guess is refused by name, and its reduction gives the estimate
        space = line_space(6, spacing=1.0)
        part = ss.scaling_clusters(space, 1.5)
        assert part.n_clusters < 6
        guess = ss.make_guess(space, 2)
        d = draw_bits_batch(part.n_clusters, 0.5, [3])[0][part.assignment]
        Y = np.random.default_rng(5).normal(size=6)
        with pytest.raises(ValueError, match=r"guess\.over\(partition\)"):
            one_draw(space, part, 1.5, Y, d, guess=guess).shrink
        assert one_draw(space, part, 1.5, Y, d, guess=guess.over(part)).shrink.shape == (1,)

    @pytest.mark.parametrize("design_name", ["scaling_clusters", "iid"])
    def test_first_stage_is_the_guess_realized(self, disk500, design_name):
        # the first stage reads A_hat d as `realize` of the guess over the
        # partition, every bit as the product of its cluster sums with one
        # float64 cast of 256 bit columns at a time, and adding the guess's
        # beta0 + eps = +0.0 leaves every entry as it is
        space, _, guess = disk500
        h = ss.scaling_rule(space.n, 1.0)
        part = harness.make_partition(space, design_name, h)
        ctx, sums = DesignContext(space, part, h, 0.5), guess.over(part)
        for m in (1, 8, 256, 512):
            B = design.draw_bits_batch(part.n_clusters, 0.5, range(m)).T
            block = DrawBlock(ctx, B=B, guess=sums)
            Tg = np.empty((space.n, m))
            for cols in row_blocks(m):
                np.matmul(sums.A, block.B[:, cols].astype(np.float64), out=Tg[:, cols])
            cov = (np.einsum("im,im->m", block.T, Tg) / space.n
                   - block.tbar * Tg.mean(axis=0))
            want = np.where(np.abs(cov) > 1e-12, cov, np.nan)
            assert np.array_equal(block.first_stage, want, equal_nan=True), m

    def test_weak_instrument_error(self):
        # a zero guess has a zero first stage: NaN
        space = line_space(4, spacing=4.0)
        part = singleton_partition(4)
        d = draw_bits_batch(part.n_clusters, 0.5, [1])[0][part.assignment]
        guess = ss.LinearOutcomes(0.0, np.zeros((4, 4)), np.zeros(4))
        block = one_draw(space, part, 1.0, np.ones(4), d, guess=guess)
        assert np.isnan(block.first_stage[0])
        assert np.isnan(block.shrink[0])


def stilde_profile(space, part, d, grid) -> SaturationProfile:
    """Saturation sizes of one draw as `DrawBlock.ow` reads them: the tables'
    effective grid and incidence levels, then `stilde_indices`."""
    ctx = DesignContext(space, part, max(grid), 0.5)
    tables = saturation_tables(ctx, grid, mc_draws=1)
    levels = [ctx.level(s) for s in tables.grid]
    idx = stilde_indices(levels, cluster_bits(part, d)[:, None])[:, 0]
    return SaturationProfile(grid=tables.grid, s_tilde=tables.grid[idx], idx=idx)


class TestSaturation:
    """Saturation sizes from the cluster incidence; on singleton clusters
    cluster purity and unit purity coincide."""

    def test_everyone_treated_hits_grid_top(self):
        space = line_space(5)
        prof = stilde_profile(space, singleton_partition(5),
                              np.ones(5, dtype=int), [1.0, 2.0, 8.0])
        assert np.all(prof.s_tilde == 8.0)

    def test_untreated_neighbor_caps_the_size(self):
        # q=1: radius equals the size; unit 0's nearest neighbor sits at 3,
        # so the largest grid size excluding it is 2.5
        space = ss.build_space(np.array([[0.0], [3.0], [4.0]]))
        prof = stilde_profile(space, singleton_partition(3),
                              np.array([1, 0, 1]), [2.5, 3.5])
        assert prof.s_tilde[0] == pytest.approx(2.5)
        # unit 2's untreated neighbor is at distance 1: only the floor is pure
        assert prof.s_tilde[2] == prof.grid[0]

    def test_single_cluster_always_pure(self):
        space = line_space(4)
        part = scaling_clusters(space, 100.0)
        for d in draw_bits_batch(part.n_clusters, 0.5, range(3))[:, part.assignment]:
            prof = stilde_profile(space, part, d, [1.0, 4.0, 9.0])
            assert np.all(prof.s_tilde == 9.0)

    def test_floor_is_always_defined(self):
        space = line_space(4, spacing=2.0)
        d = np.array([1, 0, 1, 0])
        prof = stilde_profile(space, singleton_partition(4), d, [10.0])
        assert prof.grid[0] > 0
        assert np.all(prof.s_tilde >= prof.grid[0])

    def test_refinement_never_decreases(self):
        rng = np.random.default_rng(8)
        space = ss.build_space(rng.uniform(0, 10, size=(20, 2)))
        d = (rng.uniform(size=20) < 0.5).astype(int)
        part = singleton_partition(20)
        coarse = stilde_profile(space, part, d, [2.0, 8.0])
        fine = stilde_profile(space, part, d, [1.0, 2.0, 4.0, 8.0, 16.0])
        matched = np.searchsorted(fine.grid, coarse.s_tilde)
        assert np.all(fine.s_tilde >= coarse.s_tilde - 1e-12)
        assert matched.min() >= 0


class TestPurityOnClusterIncidence:
    """The core reads purity off the cluster incidence; the unit-level
    `saturation_indicators` and `saturation` in conftest are the reference
    it must reproduce."""

    @pytest.fixture(scope="class")
    def population(self):
        space = harness.build_population(120, 5)
        return space

    @pytest.mark.parametrize("design", ["scaling_clusters", "iid"])
    def test_stilde_reaches_h_where_drawblock_is_pure(self, population, design):
        # OW's saturation size reaches h exactly on the units that HT and
        # Hajek count as saturated or dissaturated at h
        space = population
        h = ss.scaling_rule(space.n, 1.0)
        part = harness.make_partition(space, design, h)
        ctx = DesignContext(space, part, h, 0.5)
        tables = saturation_tables(ctx, default_ow_grid(h), mc_draws=1)
        (k_h,) = np.flatnonzero(tables.grid == h)
        B = draw_bits_batch(part.n_clusters, 0.5, range(40)).T
        idx = stilde_indices([ctx.level(s) for s in tables.grid], B)
        sat, dis = DrawBlock(DesignContext(space, part, h, 0.5), B=B).pure
        assert np.array_equal(idx >= k_h, sat | dis)
        assert 0 < (idx >= k_h).sum() < idx.size

    @pytest.mark.parametrize("design", ["scaling_clusters", "iid"])
    def test_matches_unit_level_reference(self, population, design):
        space = population
        h_rule = ss.scaling_rule(space.n, 1.0)
        part = harness.make_partition(space, design, h_rule)
        sizes = (0.5 * space.saturation_floor(), h_rule,
                 2.0 * space.size_of_radius(space.dist.max()))
        # 20 seeded draws, plus the two constant ones: above the diameter
        # only those have pure neighborhoods
        bits = [*draw_bits_batch(part.n_clusters, 0.5, range(20)),
                 np.ones(part.n_clusters, dtype=np.int8),
                 np.zeros(part.n_clusters, dtype=np.int8)]
        for h in sizes:
            ctx = DesignContext(space, part, h, 0.5)
            for b in bits:
                d = b[part.assignment]
                sat, dis = DrawBlock(ctx, B=b).pure
                want_sat, want_dis = saturation_indicators(space, d, h)
                assert np.array_equal(sat[:, 0], want_sat)
                assert np.array_equal(dis[:, 0], want_dis)

    @pytest.mark.parametrize("design", ["scaling_clusters", "iid"])
    def test_stilde_matches_unit_level_reference(self, population, design):
        # every level of OW's default grid, floor included, on the same
        # draws as above
        space = population
        h_rule = ss.scaling_rule(space.n, 1.0)
        part = harness.make_partition(space, design, h_rule)
        grid = default_ow_grid(h_rule)
        ctx = DesignContext(space, part, h_rule, 0.5)
        tables = saturation_tables(ctx, grid, mc_draws=1)
        B = np.array([*draw_bits_batch(part.n_clusters, 0.5, range(20)),
                      np.ones(part.n_clusters, dtype=np.int8),
                      np.zeros(part.n_clusters, dtype=np.int8)])
        idx = stilde_indices([ctx.level(s) for s in tables.grid], B.T)
        for b, got in zip(B, idx.T):
            want = saturation(space, b[part.assignment], grid)
            assert np.array_equal(tables.grid, want.grid)
            assert np.array_equal(got, want.idx)


class TestDesignContext:
    @pytest.mark.parametrize("order", [("ht", "ols"), ("ols", "ht")])
    def test_incidence_at_h_computed_once(self, monkeypatch, order):
        # the extension pads the context's own base counts, so whichever
        # estimator reads first, the incidence at h is computed once
        space, outcomes, _ = population(40, 47)
        h = ss.scaling_rule(40, 1.0)
        part = scaling_clusters(space, h)
        b = draw_bits_batch(part.n_clusters, 0.5, [0])[0]
        sizes, real = [], design.incidence
        monkeypatch.setattr(design, "incidence",
                            lambda *args: sizes.append(args[2]) or real(*args))
        block = DrawBlock(DesignContext(space, part, h, 0.5),
                          realize(outcomes, b[part.assignment]), b)
        for name in order:
            getattr(block, name)
        assert sizes == [h]

    def test_counts_is_the_level_at_h(self, monkeypatch):
        # one incidence per size, built when the size is first asked for
        # (so a wrapper set on design.incidence after the context is made
        # sees the call) and returned as the same object after that
        space = harness.build_population(40, 47)
        h = ss.scaling_rule(40, 1.0)
        ctx = DesignContext(space, scaling_clusters(space, h), h, 0.5)
        sizes, real = [], design.incidence
        monkeypatch.setattr(design, "incidence",
                            lambda *args: sizes.append(args[2]) or real(*args))
        assert ctx.counts is ctx.level(ctx.h)
        assert ctx.level(2 * h) is ctx.level(2 * h)
        assert sizes == [h, 2 * h]
        assert ctx.n == space.n == 40

    def test_contexts_of_one_design_share_no_incidence(self):
        # nothing outlives a context: a second context of the same design
        # builds its own incidence at every size, with the same entries
        space = harness.build_population(40, 47)
        h = ss.scaling_rule(40, 1.0)
        part = scaling_clusters(space, h)
        first, second = (DesignContext(space, part, h, 0.5) for _ in range(2))
        assert first.counts is not second.counts
        for s in default_ow_grid(h):
            assert first.level(s) is not second.level(s)
            assert np.array_equal(first.level(s).incidence, second.level(s).incidence)

    def test_block_exposure_matches_single_draws(self):
        # each column of the batched exposure is the one-draw block's
        # exposure of that column's bits, bit for bit
        space = harness.build_population(60, 61)
        h = ss.scaling_rule(60, 1.0)
        part = scaling_clusters(space, h)
        ctx = DesignContext(space, part, h, 0.5)
        B = draw_bits_batch(part.n_clusters, 0.5, range(7)).T
        T = DrawBlock(ctx, B=B).T
        assert T.shape == (60, 7)
        for k in range(7):
            assert np.array_equal(T[:, k], DrawBlock(ctx, B=B[:, k]).T[:, 0])


class TestBlockMatchesWholeArrayReference:
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("design_name", ["scaling_clusters", "iid"])
    def test_bit_for_bit(self, design_name, seed):
        # the harness's block: int8 bits and treatments, m = block_width(n) draws
        n = 400
        m = harness.block_width(n)
        space, outcomes, guess = population(n, seed + n)
        h = ss.scaling_rule(n, 1.0)
        ctx = DesignContext(space, harness.make_partition(space, design_name, h),
                            h, 0.5)
        B = design.draw_bits_batch(ctx.partition.n_clusters, 0.5,
                                   range(seed, seed + m))
        D = B[:, ctx.partition.assignment].T
        Y = realize(outcomes, D)
        block = DrawBlock(ctx, Y, B.T, guess=guess.over(ctx.partition))
        want = whole_array_estimates(ctx, Y, D, B.T, guess)
        got = {name: getattr(block, name) for name in ("ht", "hajek", "ols", "shrink")}
        got["var_hajek"], got["var_ols"] = block.variance("hajek"), block.variance("ols")
        for name, value in want.items():
            if name in ("shrink", "var_hajek", "var_ols"):
                # sums over cluster sums and one side of lam's band: the
                # same terms added in another order
                np.testing.assert_allclose(got[name], value, rtol=1e-12, err_msg=name)
            else:
                assert np.array_equal(got[name], value, equal_nan=True), name
        assert np.isfinite(want["hajek"]).sum() > m // 2


def far_apart_table(n, seed):
    """An asymmetric integer distance table whose dependency graph has
    several components and isolated units: distances 1-4 between units of
    one group and 1000 between groups, group labels drawn per unit (so
    components interleave in id order), every fifth unit a group of one."""
    rng = np.random.default_rng(seed)
    group = rng.integers(0, max(1, n // 30), size=n)
    group[::5] = n + np.arange(group[::5].size)
    dist = rng.integers(1, 5, size=(n, n)).astype(float)
    dist[group[:, None] != group[None, :]] = 1000.0
    np.fill_diagonal(dist, 0.0)
    return build_space_from_dist(dist)


def band_context(kind, n, design_name) -> DesignContext:
    """A context on a random Euclidean population (the simulation's disk)
    or on `far_apart_table`, at h = 2 on the table."""
    if kind == "euclidean":
        space = ss.build_space(uniform_disk(n, np.random.default_rng(n)))
        h = ss.scaling_rule(n, 1.0)
    else:
        space, h = far_apart_table(n, n), 2.0
    return DesignContext(space, harness.make_partition(space, design_name, h), h, 0.5)


def band_stops(band) -> list:
    """Per row block of the band, the column where its band stops."""
    return [rows.start + block.shape[1] for rows, block
            in zip(row_blocks(band.order.size, HAC_ROWS), band.blocks)]


BAND_CASES = [(kind, n, design_name) for kind in ("euclidean", "table")
              for n in (1, 2, 63, 64, 65, 300)
              for design_name in ("scaling_clusters", "iid")]


class TestBand:
    @pytest.mark.parametrize("kind, n, design_name", BAND_CASES)
    def test_band_holds_every_nonzero(self, kind, n, design_name):
        ctx = band_context(kind, n, design_name)
        band = ctx.band
        lam = dependency_graph(ctx.space, ctx.partition, ctx.h, ctx.eta)
        assert np.array_equal(np.sort(band.order), np.arange(n))
        ordered = lam[band.order][:, band.order]
        blocks = list(row_blocks(n, HAC_ROWS))
        assert len(band.blocks) == len(blocks)
        for rows, stop, block in zip(blocks, band_stops(band), band.blocks):
            assert rows.stop <= stop <= n
            assert np.array_equal(block, ordered[rows, rows.start:stop])
            assert not ordered[rows, stop:].any()
        # the order depends on lam alone: another context finds the same band
        again = band_context(kind, n, design_name).band
        assert np.array_equal(again.order, band.order)
        assert band_stops(again) == band_stops(band)

    @pytest.mark.parametrize("kind, n, design_name", BAND_CASES)
    def test_banded_sum_matches_whole_product(self, kind, n, design_name):
        ctx = band_context(kind, n, design_name)
        lam = dependency_graph(ctx.space, ctx.partition, ctx.h, ctx.eta)
        e = np.random.default_rng(3).standard_normal((n, 6))
        np.testing.assert_allclose(ctx.band.quadratic(e[ctx.band.order]),
                                   np.einsum("im,im->m", e, lam @ e), rtol=1e-12)
        # and the HAC sums of a block, e built in band order, against the
        # unit-order formulas
        outcomes, guess = make_sim_dgp(ctx.space, n), make_guess(ctx.space, n)
        B = design.draw_bits_batch(ctx.partition.n_clusters, 0.5, range(16))
        D = B[:, ctx.partition.assignment].T
        Y = realize(outcomes, D)
        block = DrawBlock(ctx, Y, B.T, guess=guess.over(ctx.partition))
        want = whole_array_estimates(ctx, Y, D, B.T, guess)
        for name in ("hajek", "ols"):
            np.testing.assert_allclose(block.variance(name), want["var_" + name],
                                       rtol=1e-12, err_msg=name)

    def test_isolated_units_take_no_search(self, monkeypatch):
        # units with no neighbour but themselves are ordered at once: on
        # lam = I no breadth-first search runs, for any n
        calls, real = [], estimators._levels
        monkeypatch.setattr(estimators, "_levels",
                            lambda *args: calls.append(1) or real(*args))
        band = Band.of(np.eye(2000, dtype=bool))
        assert calls == []
        assert np.array_equal(np.sort(band.order), np.arange(2000))
        assert band_stops(band) == [rows.stop for rows in row_blocks(2000, HAC_ROWS)]

    def test_path_is_ordered_from_an_end(self):
        # on a path, the level order from an end is the path itself: the
        # reverse order runs from the other end, one unit per level, and
        # the band of each block reaches one column past it
        n = 200
        ids = np.random.default_rng(5).permutation(n)     # path in shuffled ids
        lam = np.eye(n, dtype=bool)
        lam[ids[:-1], ids[1:]] = lam[ids[1:], ids[:-1]] = True
        order = band_order(lam)
        assert np.array_equal(order, ids) or np.array_equal(order, ids[::-1])
        stops = band_stops(Band.of(lam))
        assert stops[:-1] == [rows.stop + 1 for rows in row_blocks(n, HAC_ROWS)][:-1]

    def test_band_is_narrow_on_the_simulation_population(self):
        # at n = 900 one side of 256-row blocks read 63% of lam's entries;
        # the band reads 17-22% (both designs, 64-row blocks)
        n = 900
        space = harness.build_population(n, 7 + n)
        h = ss.scaling_rule(n, 1.0)
        for design_name in ("scaling_clusters", "iid"):
            band = DesignContext(space, harness.make_partition(space, design_name, h),
                                 h, 0.5).band
            cells = sum(block.size for block in band.blocks)
            assert cells <= 0.3 * n * n, design_name


class TestMixedClusterTreatment:
    def test_purity_estimators_reject_mixed_d(self):
        # a single draw's cluster bits come from unit treatments d, which
        # must be constant within each cluster
        space = line_space(4)
        part = scaling_clusters(space, 100.0)      # one cluster of 4 units
        with pytest.raises(ValueError, match="not constant within cluster 0"):
            cluster_bits(part, np.array([1, 0, 1, 1]))


class TestVarianceCi:
    def test_zero_outcomes_zero_variance(self):
        space = line_space(4, spacing=3.0)
        part = singleton_partition(4)
        block = one_draw(space, part, 1.0, np.zeros(4), np.array([1, 0, 1, 0]))
        for name in ("hajek", "ols"):
            res = interval(getattr(block, name)[0], block.variance(name)[0], 0.95)
            assert res.variance_hat == pytest.approx(0.0, abs=1e-15)
            assert res.ci[1] == res.ci[2] == 0.0

    def test_identity_graph_reduces_to_independent_sum(self):
        # singleton clusters spaced beyond the inflated radius: the
        # dependency graph is diagonal, and both exposures are d
        space = line_space(5, spacing=10.0)
        part = singleton_partition(5)
        rng = np.random.default_rng(2)
        Y = rng.normal(size=5)
        d = np.array([1, 0, 1, 0, 1])
        T = d.astype(float)
        block = one_draw(space, part, 2.0, Y, d)
        weights = {"hajek": T / T.sum() - (1 - T) / (1 - T).sum(),
                   "ols": (T - T.mean()) / (5 * T.var())}
        for name, w in weights.items():
            theta = w @ Y
            assert getattr(block, name)[0] == pytest.approx(theta, abs=1e-14)
            e = w * (Y - Y.mean() - theta * (T - 0.5))
            assert block.variance(name)[0] == pytest.approx(
                float(np.sum(e ** 2)), abs=1e-14)

    def test_ci_brackets_estimate(self):
        space, outcomes, _ = population(80, 3)
        h = ss.scaling_rule(80, 1.0)
        part = scaling_clusters(space, h)
        d = draw_bits_batch(part.n_clusters, 0.5, [2])[0][part.assignment]
        block = one_draw(space, part, h, realize(outcomes, d), d)
        estimate = block.hajek[0]
        res = interval(estimate, block.variance("hajek")[0], 0.95)
        level, lo, hi = res.ci
        assert level == 0.95
        assert lo <= estimate <= hi
        assert res.variance_hat >= 0.0

    def test_hajek_sum_releases_what_it_read_last(self):
        # the Hajek HAC sum drops the counts and the Hajek weights once it
        # has read them; a later read recomputes both, to the same bits
        space, outcomes, _ = population(80, 3)
        h = ss.scaling_rule(80, 1.0)
        ctx = DesignContext(space, scaling_clusters(space, h), h, 0.5)
        B = design.draw_bits_batch(ctx.partition.n_clusters, 0.5, range(16))
        block = DrawBlock(ctx, realize(outcomes, B[:, ctx.partition.assignment].T), B.T)
        treated, weights = block.treated.copy(), block.hajek_weights.copy()
        sigma2 = block.variance("hajek")
        assert "treated" not in vars(block) and "hajek_weights" not in vars(block)
        assert np.array_equal(block.treated, treated)
        assert np.array_equal(block.hajek_weights, weights, equal_nan=True)
        assert np.array_equal(block.variance("hajek"), sigma2, equal_nan=True)

    def test_epsilon_window_enforced(self):
        space = line_space(4, spacing=3.0)
        part = singleton_partition(4)
        block = one_draw(space, part, 1.0, np.ones(4), np.array([1, 0, 1, 0]),
                         eta=0.1)
        with pytest.raises(ValueError, match="epsilon"):
            block.variance("ols")

    def test_hac_window_boundary(self):
        # epsilon < 2*eta/3 is eta > 1.5 * epsilon = 0.15, strictly
        assert HAC_EPSILON == 0.1
        for eta in (0.1, 0.15):
            with pytest.raises(ValueError, match=r"need eta > 0\.15"):
                check_hac_window(eta)
        check_hac_window(0.1501)

    def test_variance_is_for_hajek_and_ols(self):
        space = line_space(4, spacing=3.0)
        part = singleton_partition(4)
        block = one_draw(space, part, 1.0, np.ones(4), np.array([1, 0, 1, 0]))
        with pytest.raises(ValueError, match="hajek and ols"):
            block.variance("ht")


class TestNormalQuantile:
    # ndtri(0.5 + level/2) from scipy 1.17.1 (scipy.special.ndtri, Cephes),
    # printed with repr
    NDTRI = {0.5: 0.6744897501960817, 0.8: 1.2815515655446004,
             0.9: 1.6448536269514722, 0.95: 1.959963984540054,
             0.99: 2.5758293035489004, 0.999: 3.2905267314919255}
    # NormalDist.inv_cdf (AS241) is 0, 2, 3, 2, 1 and 0 ulp from these
    ULPS = 3

    @pytest.mark.parametrize("level", sorted(NDTRI))
    def test_half_width_is_the_normal_quantile(self, level):
        want = self.NDTRI[level]
        z = float(half_width(1.0, level))
        assert abs(z - want) <= self.ULPS * math.ulp(want)

    @pytest.mark.parametrize("sigma2", [-0.5, -1e-300, -0.0, 0.0, 5e-324, 0.3])
    def test_interval_symmetric_and_truncated_below_zero(self, sigma2):
        est = 1.7
        res = interval(est, sigma2, 0.9)
        level, lo, hi = res.ci
        assert level == 0.9
        assert hi - est == pytest.approx(est - lo, rel=0.0, abs=1e-15)
        assert res.truncated is (sigma2 < 0.0)
        assert res.variance_hat == max(sigma2, 0.0)
        if res.truncated:
            assert lo == hi == est
        assert hi - lo == pytest.approx(2.0 * float(half_width(sigma2, 0.9)),
                                        rel=0.0, abs=1e-15)


class TestEmpCov:
    def test_matches_numpy_population_covariance(self):
        # the core's Cov(T, Y): x'y/n - mean(x)mean(y), no dof correction
        ctx, b, x = exposure_draw(6)
        y = np.random.default_rng(6).normal(size=x.size)
        cov = DrawBlock(ctx, y, B=b).cov_ty[0]
        assert cov == pytest.approx(float(np.cov(x, y, bias=True)[0, 1]))
