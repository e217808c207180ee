import numpy as np
import pytest

import spillscale as ss
from spillscale import harness, owopt
from spillscale.estimators import (DesignContext, DrawBlock,
                                   EstimatorUndefinedError, exposure,
                                   variance_ci)
from spillscale.harness import (ConfigError, ExperimentConfig, parse_config,
                                rate_slope, results_csv, run_experiment,
                                simulate_design, slopes_csv)
from spillscale.outcomes import sim_budget


class TestBatchedEngineMatchesReference:
    def test_every_estimator_per_draw(self):
        n, base_seed, reps = 48, 301, 30
        space, outcomes, guess = harness.build_population(n, base_seed + n)
        h = ss.scaling_rule(n, 1.0)
        part = ss.scaling_clusters(space, h)
        cell = simulate_design(space, outcomes, guess, part, h, 0.5, reps,
                               base_seed, ["ht", "hajek", "ols", "shrink", "ow"],
                               ow_mc_draws=10_000)
        ext = ss.extend_uniform_overlap(space, part, h)
        budget = sim_budget(outcomes, space, 1.0,
                            s_grid=sorted({h, *np.geomspace(1.0, n, 12)}))
        tables, _, ow_tab = owopt.optimize_weights(
            space, part, owopt.default_ow_grid(h), 0.5, budget, h,
            method="mc", mc_draws=10_000, seed=base_seed + n)
        for r in range(reps):
            draw = ss.draw_treatments(part, 0.5, base_seed + r)
            Y = ss.realize(outcomes, draw.d)
            assert cell.estimates["ht"][r] == pytest.approx(
                ss.ipw_ht(Y, draw.d, space, part, h, 0.5).estimate, abs=1e-10)
            T = exposure(part, ext, draw.b)
            assert cell.estimates["ols"][r] == pytest.approx(
                ss.ols(Y, T).estimate, abs=1e-10)
            assert cell.estimates["shrink"][r] == pytest.approx(
                ss.shrinkage(Y, T, draw.d, guess).estimate, abs=1e-10)
            try:
                ref = ss.hajek(Y, draw.d, space, part, h, 0.5).estimate
                assert cell.estimates["hajek"][r] == pytest.approx(ref, abs=1e-10)
            except EstimatorUndefinedError:
                assert np.isnan(cell.estimates["hajek"][r])
            assert cell.estimates["ow"][r] == pytest.approx(
                owopt.ow_estimate(Y, draw.d, part, tables, ow_tab).estimate,
                abs=1e-10)

    def test_ci_coverage_flags_match(self):
        n, base_seed, reps = 40, 77, 25
        space, outcomes, guess = harness.build_population(n, base_seed + n)
        h = ss.scaling_rule(n, 1.0)
        part = ss.scaling_clusters(space, h)
        cell = simulate_design(space, outcomes, guess, part, h, 0.5, reps,
                               base_seed, ["ols"])
        ext = ss.extend_uniform_overlap(space, part, h)
        for r in range(reps):
            draw = ss.draw_treatments(part, 0.5, base_seed + r)
            Y = ss.realize(outcomes, draw.d)
            T = exposure(part, ext, draw.b)
            est = ss.ols(Y, T).estimate
            res = variance_ci(Y, draw.d, T, est, space, part, h, 1.0, 0.5,
                              estimator="ols")
            covered = res.ci[1] <= outcomes.theta <= res.ci[2]
            assert bool(cell.covers["ols"][r]) == covered

    def test_hac_clip_counts(self):
        # negative HAC sums are clipped to zero-width intervals; the cell
        # counts them per estimator and the CSV does not carry the count
        n, base_seed, reps = 60, 5, 200
        space, outcomes, guess = harness.build_population(n, base_seed + n)
        h = ss.scaling_rule(n, 1.0)
        part = ss.scaling_clusters(space, h)
        cell = simulate_design(space, outcomes, guess, part, h, 0.5, reps,
                               base_seed, ["ht", "hajek", "ols"])
        ctx = DesignContext(space, part, h, 0.5, 1.0)
        want = {"hajek": 0, "ols": 0}
        for r in range(reps):
            draw = ss.draw_treatments(part, 0.5, base_seed + r)
            block = DrawBlock(ctx, ss.realize(outcomes, draw.d), draw.d, draw.b)
            for name in want:
                want[name] += int(block.variance(name)[0] < 0.0)
        assert cell.hac_clipped == want
        assert min(want.values()) > 0
        rows = harness.summarize(cell, n, "scaling_clusters", reps)
        assert {r.estimator: r.hac_clipped for r in rows} == {"ht": None, **want}
        assert "hac_clipped" not in results_csv(rows)


class TestDeterminism:
    def test_identical_configs_identical_csv(self):
        cfg = dict(n_list=[30], designs=["scaling_clusters"],
                   estimators=["ht", "ols"], reps=25, base_seed=5)
        rows_a = run_experiment(ExperimentConfig(**cfg))
        rows_b = run_experiment(ExperimentConfig(**cfg))
        assert results_csv(rows_a) == results_csv(rows_b)

    def test_seed_changes_results(self):
        rows_a = run_experiment(ExperimentConfig(
            n_list=[30], estimators=["ht"], reps=25, base_seed=5))
        rows_b = run_experiment(ExperimentConfig(
            n_list=[30], estimators=["ht"], reps=25, base_seed=6))
        assert results_csv(rows_a) != results_csv(rows_b)


class TestBookkeeping:
    def test_rmse_decomposition(self):
        rows = run_experiment(ExperimentConfig(
            n_list=[40], estimators=["ht", "ols"], reps=60, base_seed=3))
        space, outcomes, guess = harness.build_population(40, 3 + 40)
        h = ss.scaling_rule(40, 1.0)
        part = ss.scaling_clusters(space, h)
        cell = simulate_design(space, outcomes, guess, part, h, 0.5, 60, 3,
                               ["ht", "ols"])
        for row in rows:
            vals = cell.estimates[row.estimator]
            vals = vals[~np.isnan(vals)]
            var = float(np.mean((vals - vals.mean()) ** 2))
            assert row.rmse ** 2 == pytest.approx(row.bias ** 2 + var,
                                                  rel=1e-10)
            assert row.rmse ** 2 >= row.bias ** 2 - 1e-12

    def test_failures_counted_not_fatal(self):
        # two units in one cluster: every draw has an empty Hajek group
        space = ss.build_space(np.array([[0.0], [1.0]]))
        outcomes = ss.make_sim_dgp(space, 1)
        guess = ss.make_guess(space, 1)
        part = ss.scaling_clusters(space, 10.0)
        assert part.n_clusters == 1
        cell = simulate_design(space, outcomes, guess, part, 2.0, 0.5, 20, 0,
                               ["hajek"])
        rows = harness.summarize(cell, 2, "scaling_clusters", 20)
        assert rows[0].fail_rate == 1.0
        assert rows[0].reps_ok == 0


class TestRateSlope:
    def _row(self, n, rmse, est="ht"):
        return harness.ResultRow(n=n, design="scaling_clusters", estimator=est,
                                 reps_ok=10, fail_rate=0.0, mean_est=2.0,
                                 bias=0.0, rmse=rmse, coverage=None, seconds=0.0)

    def test_exact_power_law(self):
        rows = [self._row(n, 5.0 * n ** (-1.0 / 3.0))
                for n in (100, 400, 900, 1600)]
        assert rate_slope(rows) == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_constant_rmse(self):
        rows = [self._row(n, 0.7) for n in (100, 400, 900)]
        assert rate_slope(rows) == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_sizes(self):
        rows = [self._row(100, 1.0), self._row(400, 0.5)]
        with pytest.raises(ValueError):
            rate_slope(rows)

    def test_slopes_csv_lists_series(self):
        rows = [self._row(n, n ** -0.5) for n in (100, 200, 400)]
        text = slopes_csv(rows)
        assert text.splitlines()[0] == "estimator,design,slope,n_points"
        assert "ht,scaling_clusters,-0.5" in text


class TestConfigParsing:
    def test_full_roundtrip(self):
        text = """
        # comment
        n_list = 100, 400
        designs = scaling_clusters, iid
        estimators = ht, ols
        eta = 1.0
        c0 = 1.5
        p = 0.4
        reps = 50
        base_seed = 9
        ci_level = 0.9
        """
        cfg = parse_config(text)
        assert cfg.n_list == [100, 400]
        assert cfg.designs == ["scaling_clusters", "iid"]
        assert cfg.c0 == 1.5
        assert cfg.reps == 50

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("n_list = 10\nbogus = 1")

    def test_missing_n_list(self):
        with pytest.raises(ConfigError, match="n_list"):
            parse_config("reps = 10")

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config("n_list = ten")
        with pytest.raises(ConfigError):
            parse_config("n_list = 100\np = 1.5")
        with pytest.raises(ConfigError):
            parse_config("n_list = 100\ndesigns = bogus_design")
        with pytest.raises(ConfigError, match="ow_mc_draws must be >= 1"):
            parse_config("n_list = 100\nestimators = ht, ow\now_mc_draws = 0")
        with pytest.raises(ConfigError, match="base_seed must be >= 0"):
            parse_config("n_list = 100\nbase_seed = -1")
        with pytest.raises(ConfigError, match="eta must be in"):
            parse_config("n_list = 100\nestimators = ht\neta = nan")
        with pytest.raises(ConfigError, match="c0 must be in"):
            parse_config("n_list = 100\nc0 = inf")

    def test_n_below_two(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_list=[1]).validate()


class TestOwGate:
    def test_ow_skipped_above_size_gate(self):
        rows = run_experiment(ExperimentConfig(
            n_list=[30], estimators=["ht", "ow"], reps=10, base_seed=2,
            ow_max_n=20, ow_mc_draws=5000))
        assert {r.estimator for r in rows} == {"ht"}
