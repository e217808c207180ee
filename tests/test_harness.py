import tracemalloc
import weakref

import numpy as np
import pytest

import spillscale as ss
from spillscale import design, harness, owopt
from spillscale.design import draw_bits_batch
from spillscale.estimators import DesignContext, DrawBlock, interval
from spillscale.harness import (ConfigError, ExperimentConfig, parse_config,
                                results_csv, run_experiment, simulate_design,
                                slopes_csv)
from spillscale.outcomes import sim_budget

from conftest import population


class TestBlockWorkingSet:
    @pytest.mark.parametrize("design", ["scaling_clusters", "iid"])
    @pytest.mark.parametrize("n", [400, 900, 1600])
    def test_traced_peak_of_two_blocks(self, n, design):
        # a block of m = block_width(n) draws holds at most 7 n x m float64
        # arrays at once, the HAC sums included, so at most 7 BLOCK_BYTES at
        # any n: 4.6-4.7 (scaling clusters) and 5.2 (iid) here.  The cell's
        # context and its outcomes and guess over the partition (two n x C
        # cluster sums) are built before the trace, since they grow as n C
        # whatever the width.  512-draw
        # blocks peaked at 9.5-12.3 such arrays at n = 900 and 1600; at
        # n = 900 with the sums traced, 6.1 and 6.7 with a whole n x m
        # lam @ e buffer, and 11.4 and 12.4 when every weight array was
        # cached and the counts were float64
        m = harness.block_width(n)
        space, outcomes, guess = population(n, 7 + n)
        h = ss.scaling_rule(n, 1.0)
        part = harness.make_partition(space, design, h)
        ctx = DesignContext(space, part, h, 0.5)
        ctx.counts, ctx.extended, ctx.band          # the cell's, built once
        outcomes, guess = outcomes.over(part), guess.over(part)
        config = ExperimentConfig([n], estimators=["ht", "hajek", "ols", "shrink"],
                                  reps=2 * m, base_seed=7)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate_design(ctx, outcomes, guess, config)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 7 * n * m * 8


class TestPopulationRelease:
    @pytest.mark.parametrize("design, alive", [("scaling_clusters", False), ("iid", True)])
    def test_kernels_released_before_the_first_block(self, monkeypatch, design, alive):
        # a clustered cell reads A and A_hat only through their reductions
        # over its partition, so both n x n kernels are dead when the first
        # block is drawn; on the i.i.d. design the reductions are the kernels
        refs = {}

        def recording(name, build):
            def build_and_record(space, seed):
                model = build(space, seed)
                refs[name] = weakref.ref(model.A)
                return model
            return build_and_record

        monkeypatch.setattr(harness, "make_sim_dgp", recording("A", harness.make_sim_dgp))
        monkeypatch.setattr(harness, "make_guess", recording("A_hat", harness.make_guess))
        seen = []

        def draw_and_check(*args):
            if not seen:
                seen.append({name: ref() is not None for name, ref in refs.items()})
            return draw_bits_batch(*args)

        monkeypatch.setattr(harness, "draw_bits_batch", draw_and_check)
        run_experiment(ExperimentConfig(n_list=[400], designs=[design], reps=16,
                                        base_seed=7))
        assert seen == [{"A": alive, "A_hat": alive}]

    def test_traced_peak_of_a_clustered_size(self):
        # a scaling-clusters size holds dist and at most one n x n kernel:
        # 2.44 n^2 doubles traced at n = 1600, against 3.55 when A and A_hat
        # lived through the cells beside dist
        n = 1600
        tracemalloc.start()
        try:
            run_experiment(ExperimentConfig(n_list=[n], reps=8, base_seed=7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * 8 * n * n


class TestBlockWidth:
    def test_width_rule(self):
        widths = []
        for n in np.unique(np.geomspace(2, 10 ** 7, 400).astype(int)):
            m = harness.block_width(int(n))
            assert 8 <= m <= 512 and m & (m - 1) == 0, (n, m)
            assert m == 8 or 8 * n * m <= harness.BLOCK_BYTES, (n, m)
            assert m == 512 or 8 * n * 2 * m > harness.BLOCK_BYTES, (n, m)
            widths.append(m)
        assert widths == sorted(widths, reverse=True)
        assert [harness.block_width(n) for n in (80, 400, 900, 1600, 3000)] == \
            [512, 512, 256, 128, 64]


class TestOwBudget:
    def test_ow_cell_needs_the_budget(self):
        # the budget is fitted to the n x n A, which a cell no longer holds
        space, outcomes, guess = population(30, 5)
        part = ss.scaling_clusters(space, 2.0)
        with pytest.raises(ValueError, match="interference budget"):
            simulate_design(DesignContext(space, part, 2.0, 0.5), outcomes.over(part),
                            guess.over(part),
                            ExperimentConfig([30], estimators=["ow"], reps=4))


class TestIncidenceOncePerSize:
    def test_ht_ow_cell_builds_each_size_once(self, monkeypatch):
        # HT reads the incidence at h, and the OW tables and every block's
        # saturation sizes read it at each size of the effective grid, h
        # among them: the cell's context builds each size once
        n = 40
        sizes, real = [], design.incidence
        monkeypatch.setattr(design, "incidence",
                            lambda *args: sizes.append(args[2]) or real(*args))
        run_experiment(ExperimentConfig([n], estimators=["ht", "ow"], reps=24,
                                        base_seed=7, ow_mc_draws=2000))
        h = ss.scaling_rule(n, 1.0)
        space = harness.build_population(n, 7 + n)
        grid = owopt.effective_grid(space, owopt.default_ow_grid(h))
        assert h in sizes
        assert sorted(sizes) == sorted(grid.tolist())


class TestShrinkScale:
    def test_summed_once_per_guess(self, monkeypatch):
        # shrink's scale, the guess's theta 1'A_hat 1 / n, is an n^2 sum:
        # the guess takes it once, and a cell of three blocks over its
        # cluster sums takes no other sum of them, and shrink keeps the bits
        # it had when each block summed A_hat itself
        n = 60
        space, outcomes, guess = population(n, 7 + n)
        h = ss.scaling_rule(n, 1.0)
        part = harness.make_partition(space, "scaling_clusters", h)
        calls = []

        class Counted(np.ndarray):
            def sum(self, *args, **kwargs):
                calls.append(1)
                return super().sum(*args, **kwargs)

        counted = ss.LinearOutcomes(0.0, guess.A.view(Counted), guess.eps).over(part)
        counted = ss.LinearOutcomes(0.0, counted.A.view(Counted), counted.eps, counted.theta)
        monkeypatch.setattr(harness, "block_width", lambda n: 8)
        ctx = DesignContext(space, part, h, 0.5)
        cell = simulate_design(ctx, outcomes.over(part), counted,
                               ExperimentConfig([n], estimators=["shrink"], reps=24,
                                                base_seed=7))
        assert len(calls) == 1
        B = draw_bits_batch(part.n_clusters, 0.5, range(7, 31)).T
        Y = ss.realize(outcomes.over(part), B)
        block = DrawBlock(ctx, Y, B, guess=guess.over(part))
        assert np.array_equal(
            block.shrink, block.cov_ty / block.first_stage * (guess.A.sum() / n),
            equal_nan=True)
        assert np.array_equal(block.shrink, cell.estimates["shrink"], equal_nan=True)


class TestBatchedEngineMatchesReference:
    def test_every_estimator_per_draw(self):
        n, base_seed, reps = 48, 301, 30
        space, outcomes, guess = population(n, base_seed + n)
        h = ss.scaling_rule(n, 1.0)
        part = ss.scaling_clusters(space, h)
        budget = sim_budget(outcomes, space, 1.0,
                            s_grid=sorted({h, *np.geomspace(1.0, n, 12)}))
        config = ExperimentConfig([n], estimators=["ht", "hajek", "ols", "shrink", "ow"],
                                  reps=reps, base_seed=base_seed, ow_mc_draws=10_000)
        cell = simulate_design(DesignContext(space, part, h, 0.5), outcomes.over(part),
                               guess.over(part), config, budget=budget)
        ctx = DesignContext(space, part, h, 0.5)
        _, _, ow_tab = owopt.optimize_weights(
            ctx, owopt.default_ow_grid(h), budget, method="mc", mc_draws=10_000,
            seed=base_seed + n)
        for r in range(reps):
            # the draw's own seeded treatments, as a one-draw block
            b = draw_bits_batch(part.n_clusters, 0.5, [base_seed + r])[0]
            block = DrawBlock(ctx, ss.realize(outcomes, b[part.assignment]), b,
                              guess=guess.over(part), weights=ow_tab)
            for name in ("ht", "ols", "shrink", "ow"):
                assert cell.estimates[name][r] == pytest.approx(
                    getattr(block, name)[0], abs=1e-10)
            if np.isnan(block.hajek[0]):
                assert np.isnan(cell.estimates["hajek"][r])
            else:
                assert cell.estimates["hajek"][r] == pytest.approx(
                    block.hajek[0], abs=1e-10)

    def test_bits_alone_give_the_cells_shrink_and_ow(self):
        # a block takes cluster bits alone and reads the unit treatments
        # through the partition; on the cell's own draws (one harness block)
        # shrink and ow equal the cell's estimates bit for bit
        n, base_seed, reps = 40, 23, 30
        space, outcomes, guess = population(n, base_seed + n)
        h = ss.scaling_rule(n, 1.0)
        part = ss.scaling_clusters(space, h)
        budget = sim_budget(outcomes, space, 1.0,
                            s_grid=sorted({h, *np.geomspace(1.0, n, 12)}))
        outcomes, guess = outcomes.over(part), guess.over(part)
        config = ExperimentConfig([n], estimators=["shrink", "ow"], reps=reps,
                                  base_seed=base_seed, ow_mc_draws=5000)
        cell = simulate_design(DesignContext(space, part, h, 0.5), outcomes, guess,
                               config, budget=budget)
        B = draw_bits_batch(part.n_clusters, 0.5, range(base_seed, base_seed + reps))
        ctx = DesignContext(space, part, h, 0.5)
        Y = ss.realize(outcomes, B.T)
        shrink = DrawBlock(ctx, Y, B=B.T, guess=guess).shrink
        ow = DrawBlock(ctx, Y, B=B.T, weights=cell.ow_table).ow
        assert np.array_equal(shrink, cell.estimates["shrink"], equal_nan=True)
        assert np.array_equal(ow, cell.estimates["ow"])

    @pytest.mark.parametrize("design", ["scaling_clusters", "iid"])
    def test_outcomes_from_cluster_sums(self, monkeypatch, design):
        # the cell reads a block's outcomes off the cluster sums of A and
        # the bits; they equal the product of A with the unit treatments
        n, base_seed, reps = 300, 9, 40
        space, outcomes, guess = population(n, base_seed + n)
        h = ss.scaling_rule(n, 1.0)
        part = harness.make_partition(space, design, h)
        seen = []

        class Recording(DrawBlock):
            def __init__(self, ctx, Y, *args, **kwargs):
                seen.append(Y)
                super().__init__(ctx, Y, *args, **kwargs)

        monkeypatch.setattr(harness, "DrawBlock", Recording)
        simulate_design(DesignContext(space, part, h, 0.5), outcomes.over(part),
                        guess.over(part),
                        ExperimentConfig([n], estimators=["ht"], reps=reps,
                                         base_seed=base_seed))
        B = draw_bits_batch(part.n_clusters, 0.5, range(base_seed, base_seed + reps))
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], ss.realize(outcomes, B[:, part.assignment].T),
                                   rtol=1e-12)

    def test_ci_coverage_flags_match(self):
        n, base_seed, reps = 40, 77, 25
        space, outcomes, guess = population(n, base_seed + n)
        h = ss.scaling_rule(n, 1.0)
        part = ss.scaling_clusters(space, h)
        ctx = DesignContext(space, part, h, 0.5, 1.0)
        cell = simulate_design(ctx, outcomes.over(part), guess.over(part),
                               ExperimentConfig([n], estimators=["ols"], reps=reps,
                                                base_seed=base_seed))
        for r in range(reps):
            b = draw_bits_batch(part.n_clusters, 0.5, [base_seed + r])[0]
            block = DrawBlock(ctx, ss.realize(outcomes, b[part.assignment]), b)
            res = interval(block.ols[0], block.variance("ols")[0], 0.95)
            covered = res.ci[1] <= outcomes.theta <= res.ci[2]
            assert bool(cell.covers["ols"][r]) == covered

    def test_hac_clip_counts(self):
        # negative HAC sums are clipped to zero-width intervals; the cell
        # counts them per estimator and the CSV does not carry the count
        n, base_seed, reps = 60, 5, 200
        space, outcomes, guess = population(n, base_seed + n)
        h = ss.scaling_rule(n, 1.0)
        part = ss.scaling_clusters(space, h)
        ctx = DesignContext(space, part, h, 0.5, 1.0)
        cell = simulate_design(ctx, outcomes.over(part), guess.over(part),
                               ExperimentConfig([n], estimators=["ht", "hajek", "ols"],
                                                reps=reps, base_seed=base_seed))
        want = {"hajek": 0, "ols": 0}
        for r in range(reps):
            b = draw_bits_batch(part.n_clusters, 0.5, [base_seed + r])[0]
            block = DrawBlock(ctx, ss.realize(outcomes, b[part.assignment]), b)
            for name in want:
                want[name] += int(block.variance(name)[0] < 0.0)
        assert cell.hac_clipped == want
        assert min(want.values()) > 0
        rows = harness.summarize(cell, n, "scaling_clusters", reps)
        assert {r.estimator: r.hac_clipped for r in rows} == {"ht": None, **want}
        assert "hac_clipped" not in results_csv(rows)


class TestBlockSize:
    @pytest.mark.parametrize("design", ["scaling_clusters", "iid"])
    def test_per_draw_results_do_not_depend_on_block_size(self, monkeypatch, design):
        # every per-draw value is a column of its block, built by the same
        # operations whichever block the draw falls in; at 601 draws a
        # block of 100 leaves a 1-draw block, padded to 8 draws like the
        # blocks of 100 and 7; the first cell takes the harness's own
        # width, block_width(n)
        n = 300
        space, outcomes, guess = population(n, 7 + n)
        h = ss.scaling_rule(n, 1.0)
        part = harness.make_partition(space, design, h)
        outcomes, guess = outcomes.over(part), guess.over(part)
        rule = harness.block_width
        for reps, blocks in ((600, (None, 512, 100, 7)), (601, (None, 512, 100))):
            config = ExperimentConfig([n], estimators=["ht", "hajek", "ols", "shrink"],
                                      reps=reps, base_seed=7)
            cells = []
            for block in blocks:
                monkeypatch.setattr(harness, "block_width",
                                    rule if block is None else lambda n, m=block: m)
                cells.append(simulate_design(DesignContext(space, part, h, 0.5),
                                             outcomes, guess, config))
            first = cells[0]
            for cell in cells[1:]:
                for name, values in first.estimates.items():
                    assert np.array_equal(cell.estimates[name], values,
                                          equal_nan=True), (reps, name)
                for name, flags in first.covers.items():
                    assert np.array_equal(cell.covers[name], flags), (reps, name)
                assert cell.hac_clipped == first.hac_clipped


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
        space, outcomes, guess = population(40, 3 + 40)
        h = ss.scaling_rule(40, 1.0)
        part = ss.scaling_clusters(space, h)
        cell = simulate_design(DesignContext(space, part, h, 0.5), outcomes.over(part),
                               guess.over(part),
                               ExperimentConfig([40], estimators=["ht", "ols"], reps=60,
                                                base_seed=3))
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
        cell = simulate_design(DesignContext(space, part, 2.0, 0.5), outcomes.over(part),
                               guess.over(part),
                               ExperimentConfig([2], estimators=["hajek"], reps=20))
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
        assert harness.slopes_table(rows) == [
            ("ht", "scaling_clusters", pytest.approx(-1.0 / 3.0, abs=1e-12), 4)]

    def test_constant_rmse(self):
        rows = [self._row(n, 0.7) for n in (100, 400, 900)]
        assert harness.slopes_table(rows) == [
            ("ht", "scaling_clusters", pytest.approx(0.0, abs=1e-12), 3)]

    def test_needs_three_sizes(self):
        rows = [self._row(100, 1.0), self._row(400, 0.5)]
        assert harness.slopes_table(rows) == []

    def test_slopes_csv_lists_series(self):
        rows = [self._row(n, n ** -0.5) for n in (100, 200, 400)]
        text = slopes_csv(rows)
        assert text.splitlines()[0] == "estimator,design,slope,n_points"
        assert "ht,scaling_clusters,-0.5" in text

    def test_slopes_count_finite_rmse_sizes(self):
        # a size where every draw failed has RMSE NaN: it is no point of the
        # fit, so three sizes with one NaN give no slope, and four give a
        # slope over three points
        rows = [self._row(n, n ** -0.5) for n in (100, 200, 400)]
        rows.append(self._row(50, np.nan, est="hajek"))
        rows += [self._row(n, n ** -0.25, est="hajek") for n in (100, 200)]
        assert harness.slopes_table(rows) == [
            ("ht", "scaling_clusters", pytest.approx(-0.5, abs=1e-12), 3)]
        rows.append(self._row(400, 400 ** -0.25, est="hajek"))
        assert harness.slopes_table(rows)[0] == (
            "hajek", "scaling_clusters", pytest.approx(-0.25, abs=1e-12), 3)


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

    def test_every_seed_below_2_64(self):
        # treatment seeds run to base_seed + reps - 1, population seeds to
        # base_seed + max(n_list)
        top = 2**64 - 1
        for reps, n_list in ((10, [5]), (3, [20])):
            biggest = max(reps - 1, *n_list)
            ExperimentConfig(n_list=n_list, reps=reps, base_seed=top - biggest).validate()
            with pytest.raises(ConfigError, match="must be < 2\\*\\*64"):
                ExperimentConfig(n_list=n_list, reps=reps,
                                 base_seed=top - biggest + 1).validate()
        with pytest.raises(ConfigError, match="must be < 2\\*\\*64"):
            parse_config(f"n_list = 100\nbase_seed = {2**64}")

    def test_n_below_two(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_list=[1]).validate()


class TestOwGate:
    def test_ow_skipped_above_size_gate(self):
        rows = run_experiment(ExperimentConfig(
            n_list=[30], estimators=["ht", "ow"], reps=10, base_seed=2,
            ow_max_n=20, ow_mc_draws=5000))
        assert {r.estimator for r in rows} == {"ht"}

    def test_size_without_cells_builds_no_population(self, monkeypatch):
        built = []
        build = harness.build_population
        monkeypatch.setattr(harness, "build_population",
                            lambda n, seed: built.append(n) or build(n, seed))
        rows = run_experiment(ExperimentConfig(
            n_list=[20, 30], estimators=["ow"], reps=4, base_seed=2,
            ow_max_n=20, ow_mc_draws=5000))
        assert built == [20]
        assert [(r.n, r.estimator) for r in rows] == [(20, "ow")]
