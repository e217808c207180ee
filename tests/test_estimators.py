import math

import numpy as np
import pytest

import spillscale as ss
from spillscale import harness
from spillscale.design import (cluster_bits, draw_treatments,
                               extend_uniform_overlap, incidence,
                               scaling_clusters, singleton_partition)
from spillscale.estimators import (HAC_EPSILON, DesignContext, DrawBlock,
                                   EstimatorUndefinedError, check_hac_window,
                                   exposure, hajek, hajek_weights, half_width,
                                   interval, ipw_ht, ols, ols_weights,
                                   shrinkage, variance_ci)
from spillscale.geometry import fit_interference_constant
from spillscale.oracle import enumerate_assignments, exact_expectation
from spillscale.outcomes import realize
from spillscale.owopt import (default_ow_grid, ipw_weight_table, ow_estimate,
                              saturation_tables, stilde_indices)

from conftest import (SaturationProfile, line_space, per_row, saturation,
                      saturation_indicators)


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
        rep = ipw_ht(np.array([3.0]), np.array([1]), space, part, 1.0, 0.5)
        assert rep.estimate == pytest.approx(6.0)

    def test_single_cluster_all_treated(self):
        space = line_space(5)
        part = scaling_clusters(space, 100.0)
        Y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        rep = ipw_ht(Y, np.ones(5, dtype=int), space, part, 2.0, 0.5)
        assert rep.estimate == pytest.approx(2.0 * Y.mean())

    def test_mixed_draw_drops_impure_units(self):
        space = line_space(2, spacing=5.0)
        part = singleton_partition(2)
        Y = np.array([10.0, -4.0])
        rep = ipw_ht(Y, np.array([1, 0]), space, part, 1.0, 0.5)
        # both units pure at h=1 (neighborhoods are singletons)
        assert rep.estimate == pytest.approx((10.0 / 0.5 + 4.0 / 0.5) / 2)

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
            return ipw_ht(Y, d, space, part, g, p).estimate

        mean = exact_expectation(per_row(ht), enum).mean
        k1 = fit_interference_constant(
            outcomes.A, space, 1.0, s_grid=sorted({g, 1.0, 2.0, 5.0, 10.0}))
        bound = 2 * k1 * g ** -1.0 / (p * (1 - p)) ** counts.phi_max
        assert abs(mean - outcomes.theta) <= bound


class TestHajek:
    def test_location_invariance_constant_outcomes(self):
        space = line_space(4, spacing=3.0)
        part = singleton_partition(4)
        rep = hajek(np.full(4, 7.7), np.array([1, 0, 1, 0]), space, part, 1.0, 0.5)
        assert rep.estimate == pytest.approx(0.0, abs=1e-12)

    def test_one_saturated_one_dissaturated(self):
        space = line_space(2, spacing=5.0)
        part = singleton_partition(2)
        Y = np.array([4.0, 1.5])
        rep = hajek(Y, np.array([1, 0]), space, part, 1.0, 0.5)
        assert rep.estimate == pytest.approx(4.0 - 1.5)

    def test_scale_equivariance(self):
        space = line_space(6, spacing=4.0)
        part = singleton_partition(6)
        d = np.array([1, 0, 1, 1, 0, 0])
        rng = np.random.default_rng(0)
        Y = rng.normal(size=6)
        base = hajek(Y, d, space, part, 1.0, 0.5).estimate
        scaled = hajek(3.5 * Y, d, space, part, 1.0, 0.5).estimate
        assert scaled == pytest.approx(3.5 * base)

    def test_undefined_when_one_group_empty(self):
        space = line_space(3, spacing=4.0)
        part = singleton_partition(3)
        with pytest.raises(EstimatorUndefinedError, match="dissaturated"):
            hajek(np.ones(3), np.ones(3, dtype=int), space, part, 1.0, 0.5)

    def test_weights_reproduce_estimate(self):
        space = line_space(6, spacing=4.0)
        part = singleton_partition(6)
        d = np.array([1, 0, 1, 1, 0, 0])
        Y = np.linspace(-2, 2, 6)
        w = hajek_weights(d, space, part, 1.0, 0.5)
        assert w @ Y == pytest.approx(hajek(Y, d, space, part, 1.0, 0.5).estimate)

    def test_smaller_bias_than_ht_in_simulation(self):
        space, outcomes, guess = harness.build_population(400, 7 + 400)
        h = ss.scaling_rule(400, 1.0)
        part = scaling_clusters(space, h)
        cell = harness.simulate_design(space, outcomes, guess, part, h, 0.5,
                                       2000, 7, ["ht", "hajek"])
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
        assert ipw_ht(Y, d, space, part, 1000.0, 0.5).estimate == pytest.approx(2.0)

    def test_hajek_undefined_without_dissaturated_units(self):
        space, part, d, Y = self._one_treated_cluster()
        with pytest.raises(EstimatorUndefinedError) as exc:
            hajek(Y, d, space, part, 1000.0, 0.5)
        assert exc.value.reason == "undefined_draw"

    def test_saturation_indicators(self):
        space, _, d, _ = self._one_treated_cluster()
        sat, dis = saturation_indicators(space, d, 1000.0)
        assert sat.all() and not dis.any()


class TestExposure:
    def _two_cluster_setup(self):
        space = ss.build_space(np.array([[0.0], [1.0], [10.0], [11.0]]))
        part = scaling_clusters(space, 1.0)
        ext = extend_uniform_overlap(space, part, 9.0)
        return space, part, ext

    def test_all_ones_and_all_zeros(self):
        _, part, ext = self._two_cluster_setup()
        assert np.all(exposure(part, ext, np.array([1, 1])).T == 1.0)
        assert np.all(exposure(part, ext, np.array([0, 0])).T == 0.0)

    def test_half_exposure(self):
        _, part, ext = self._two_cluster_setup()
        T = exposure(part, ext, np.array([1, 0]))
        assert np.all(T.T == 0.5)
        assert T.phi_used == 2

    def test_rejects_nonuniform_overlap(self):
        space = ss.build_space(np.array([[0.0], [1.0], [10.0], [11.0]]))
        part = scaling_clusters(space, 1.0)
        base = incidence(space, part, 9.0)
        fake = ss.ExtendedNeighborhoods(s=9.0, extra=[np.empty(0)] * 4,
                                        phi_target=2, incidence=base.incidence)
        with pytest.raises(ValueError, match="uniform overlap"):
            exposure(part, fake, np.array([1, 0]))


class TestOls:
    def test_exact_linear_fit(self):
        T = np.array([0.0, 0.5, 1.0, 0.5])
        assert ols(3.0 * T, T).estimate == pytest.approx(3.0, abs=1e-12)

    def test_constant_outcomes(self):
        T = np.array([0.0, 0.5, 1.0])
        assert ols(np.full(3, 9.9), T).estimate == pytest.approx(0.0, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        T = rng.uniform(size=12)
        Y = rng.normal(size=12)
        assert ols(Y + 123.4, T).estimate == pytest.approx(
            ols(Y, T).estimate, abs=1e-9)

    def test_degenerate_exposure(self):
        with pytest.raises(EstimatorUndefinedError, match="variance"):
            ols(np.array([1.0, 2.0]), np.array([0.5, 0.5]))

    def test_weights_reproduce_estimate(self):
        rng = np.random.default_rng(4)
        T = rng.uniform(size=9)
        Y = rng.normal(size=9)
        assert ols_weights(T) @ Y == pytest.approx(ols(Y, T).estimate)


class TestShrinkage:
    def test_scaled_exposure_identity(self):
        # singleton clusters make A_hat = kappa * incidence/phi reproduce
        # exactly T_guess = kappa * T, so shrink = ols * strength / kappa
        space = line_space(6, spacing=4.0)
        part = singleton_partition(6)
        ext = extend_uniform_overlap(space, part, 1.0)
        draw = draw_treatments(part, 0.5, seed=3)
        T = exposure(part, ext, draw.b)
        kappa = 2.5
        A_hat = kappa * ext.incidence.astype(float) / ext.phi_target
        guess = ss.GuessMatrix(A_hat=A_hat, strength=abs(A_hat.sum()) / 6)
        rng = np.random.default_rng(5)
        Y = rng.normal(size=6)
        got = shrinkage(Y, T, draw.d, guess).estimate
        want = ols(Y, T).estimate * (A_hat.sum() / 6) / kappa
        assert got == pytest.approx(want, abs=1e-10)

    def test_weak_instrument_error(self):
        space = line_space(4, spacing=4.0)
        part = singleton_partition(4)
        ext = extend_uniform_overlap(space, part, 1.0)
        draw = draw_treatments(part, 0.5, seed=1)
        T = exposure(part, ext, draw.b)
        guess = ss.GuessMatrix(A_hat=np.zeros((4, 4)), strength=1.0)
        with pytest.raises(EstimatorUndefinedError, match="first stage"):
            shrinkage(np.ones(4), T, draw.d, guess)


def stilde_profile(space, part, d, grid) -> SaturationProfile:
    """Saturation sizes of one draw as `ow_estimate` reads them: the tables'
    effective grid and incidence levels, then `stilde_indices`."""
    tables = saturation_tables(space, part, grid, 0.5, mc_draws=1)
    idx = stilde_indices(tables.levels, cluster_bits(part, d)[:, None])[:, 0]
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
        for seed in range(3):
            d = draw_treatments(part, 0.5, seed).d
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
        space, _, _ = harness.build_population(120, 5)
        return space

    @pytest.mark.parametrize("design", ["scaling_clusters", "iid"])
    def test_stilde_reaches_h_where_drawblock_is_pure(self, population, design):
        # OW's saturation size reaches h exactly on the units that HT and
        # Hajek count as saturated or dissaturated at h
        space = population
        h = ss.scaling_rule(space.n, 1.0)
        part = harness.make_partition(space, design, h)
        tables = saturation_tables(space, part, default_ow_grid(h), 0.5,
                                   mc_draws=1)
        (k_h,) = np.flatnonzero(tables.grid == h)
        B = np.array([draw_treatments(part, 0.5, seed).b
                      for seed in range(40)]).T
        idx = stilde_indices(tables.levels, B)
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
        bits = [draw_treatments(part, 0.5, seed).b for seed in range(20)]
        bits += [np.ones(part.n_clusters, dtype=np.int8),
                 np.zeros(part.n_clusters, dtype=np.int8)]
        for h in sizes:
            ctx = DesignContext(space, part, h, 0.5)
            for b in bits:
                d = b[part.assignment]
                sat, dis = DrawBlock(ctx, D=d, B=b).pure
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
        tables = saturation_tables(space, part, grid, 0.5, mc_draws=1)
        B = np.array([draw_treatments(part, 0.5, seed).b for seed in range(20)]
                     + [np.ones(part.n_clusters, dtype=np.int8),
                        np.zeros(part.n_clusters, dtype=np.int8)])
        idx = stilde_indices(tables.levels, B.T)
        for b, got in zip(B, idx.T):
            want = saturation(space, b[part.assignment], grid)
            assert np.array_equal(tables.grid, want.grid)
            assert np.array_equal(got, want.idx)


class TestMixedClusterTreatment:
    def test_purity_estimators_reject_mixed_d(self):
        # single-draw functions need d constant within each cluster
        space = line_space(4)
        part = scaling_clusters(space, 100.0)      # one cluster of 4 units
        d, Y = np.array([1, 0, 1, 1]), np.linspace(0.0, 1.0, 4)
        tables = saturation_tables(space, part, [1.0], 0.5, method="exact")
        weights = ipw_weight_table(tables, 1.0, 0.5)
        for call in (lambda: ipw_ht(Y, d, space, part, 1.0, 0.5),
                     lambda: hajek(Y, d, space, part, 1.0, 0.5),
                     lambda: hajek_weights(d, space, part, 1.0, 0.5),
                     lambda: variance_ci(Y, d, d.astype(float), 0.0, space,
                                         part, 1.0, 1.0, 0.5,
                                         estimator="hajek"),
                     lambda: ow_estimate(Y, d, part, tables, weights)):
            with pytest.raises(ValueError, match="not constant within cluster 0"):
                call()


class TestVarianceCi:
    def test_zero_outcomes_zero_variance(self):
        space = line_space(4, spacing=3.0)
        part = singleton_partition(4)
        Y = np.zeros(4)
        T = np.array([1.0, 0.0, 1.0, 0.0])
        res = variance_ci(Y, T.astype(int), T, 0.0, space, part, 1.0, 1.0, 0.5,
                          weights=np.full(4, 0.25))
        assert res.variance_hat == pytest.approx(0.0, abs=1e-15)
        assert res.ci[1] == res.ci[2] == 0.0

    def test_identity_graph_reduces_to_independent_sum(self):
        # singleton clusters spaced beyond the inflated radius: the
        # dependency graph is diagonal
        space = line_space(5, spacing=10.0)
        part = singleton_partition(5)
        rng = np.random.default_rng(2)
        Y = rng.normal(size=5)
        d = np.array([1, 0, 1, 0, 1])
        T = d.astype(float)
        w = np.full(5, 1.0 / 5)
        theta = 1.3
        res = variance_ci(Y, d, T, theta, space, part, 2.0, 1.0, 0.5, weights=w)
        e = w * (Y - Y.mean() - theta * (T - 0.5))
        assert res.variance_hat == pytest.approx(float(np.sum(e ** 2)), abs=1e-14)

    def test_ci_brackets_estimate(self):
        space, outcomes, _ = harness.build_population(80, 3)
        h = ss.scaling_rule(80, 1.0)
        part = scaling_clusters(space, h)
        draw = draw_treatments(part, 0.5, seed=2)
        Y = realize(outcomes, draw.d)
        rep = hajek(Y, draw.d, space, part, h, 0.5)
        counts = incidence(space, part, h)
        T = (counts.incidence @ draw.b) / counts.phi
        res = variance_ci(Y, draw.d, T, rep.estimate, space, part, h, 1.0, 0.5,
                          estimator="hajek")
        level, lo, hi = res.ci
        assert level == 0.95
        assert lo <= rep.estimate <= hi
        assert res.variance_hat >= 0.0

    def test_epsilon_window_enforced(self):
        space = line_space(4, spacing=3.0)
        part = singleton_partition(4)
        with pytest.raises(ValueError, match="epsilon"):
            variance_ci(np.ones(4), np.ones(4, dtype=int), np.ones(4), 0.0,
                        space, part, 1.0, 0.1, 0.5, weights=np.ones(4) / 4)

    def test_hac_window_boundary(self):
        # epsilon < 2*eta/3 is eta > 1.5 * epsilon = 0.15, strictly
        assert HAC_EPSILON == 0.1
        for eta in (0.1, 0.15):
            with pytest.raises(ValueError, match=r"need eta > 0\.15"):
                check_hac_window(eta)
        check_hac_window(0.1501)

    def test_estimator_name_required_without_weights(self):
        space = line_space(4, spacing=3.0)
        part = singleton_partition(4)
        with pytest.raises(ValueError, match="weights or estimator"):
            variance_ci(np.ones(4), np.ones(4, dtype=int), np.ones(4), 0.0,
                        space, part, 1.0, 1.0, 0.5)


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
        rng = np.random.default_rng(6)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        cov = DrawBlock(None, Y=y, T=x).cov_ty[0]
        assert cov == pytest.approx(float(np.cov(x, y, bias=True)[0, 1]))
