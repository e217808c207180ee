import tracemalloc

import numpy as np
import pytest

import spillscale as ss
from spillscale import harness, owopt
from spillscale.design import (TAG_TABLES, draw_bits_batch, rng_for,
                               scaling_clusters, scaling_rule,
                               singleton_partition)
from spillscale.estimators import DesignContext, DrawBlock
from spillscale.oracle import enumerate_assignments
from spillscale.outcomes import sim_budget
from spillscale.owopt import (_row_projector, assemble_objective,
                              ipw_weight_table, objective_kernel,
                              saturation_tables, solve_qp, stilde_indices)

from conftest import (bruteforce_polytope_min, line_space, masked_stilde_indices,
                      population, saturation, whole_array_saturation_tables)


def four_cluster_line():
    """Six units, four clusters, every size-4 neighborhood spans 2+ clusters."""
    space = ss.build_space(np.array([[0.0], [1.0], [4.0], [5.0], [8.0], [11.0]]))
    part = scaling_clusters(space, 1.0)
    assert part.n_clusters == 4
    return space, part


class TestSaturationTables:
    def test_single_cluster_concentrates_at_top(self):
        space = line_space(4)
        part = scaling_clusters(space, 50.0)
        ctx = DesignContext(space, part, 5.0, 0.5)
        tab = saturation_tables(ctx, [2.0, 5.0], method="exact")
        assert np.allclose(tab.marg[:, -1], 1.0)

    def test_rows_sum_to_one(self):
        space, part = four_cluster_line()
        ctx = DesignContext(space, part, 4.0, 0.3)
        tab = saturation_tables(ctx, [4.0], method="exact")
        assert np.allclose(tab.marg.sum(axis=1), 1.0, atol=1e-9)

    def test_label_flip_symmetry_at_half(self):
        space, part = four_cluster_line()
        ctx = DesignContext(space, part, 4.0, 0.5)
        tab = saturation_tables(ctx, [4.0], method="exact")
        flipped = saturation_tables(DesignContext(space, part, 4.0, 0.5), [4.0],
                                    method="exact")
        # p = 1/2 makes treated/untreated exchangeable: recomputing with the
        # roles of saturated and dissaturated swapped changes nothing
        assert np.allclose(tab.marg, flipped.marg)
        # and purity probabilities match the closed form p^phi + (1-p)^phi
        counts = ss.incidence(space, part, 4.0)
        pure_top = tab.marg[:, -1]
        assert np.allclose(pure_top, 2.0 * 0.5 ** counts.phi)

    def test_joint_marginalizes_and_is_symmetric(self):
        space, part = four_cluster_line()
        ctx = DesignContext(space, part, 4.0, 0.3)
        tab = saturation_tables(ctx, [4.0], method="exact")
        pair_of = {(int(i), int(j)): r for r, (i, j) in enumerate(tab.pairs)}
        for (i, j), r in pair_of.items():
            block = tab.joint[r]
            assert np.allclose(block.sum(axis=1), tab.marg[i], atol=1e-9)
            assert np.allclose(block.sum(axis=0), tab.marg[j], atol=1e-9)
            if (j, i) in pair_of and i != j:
                assert np.allclose(block, tab.joint[pair_of[(j, i)]].T)

    def test_self_pair_is_diagonal(self):
        space, part = four_cluster_line()
        ctx = DesignContext(space, part, 4.0, 0.5)
        tab = saturation_tables(ctx, [4.0], method="exact")
        for r, (i, j) in enumerate(tab.pairs):
            if i == j:
                assert np.allclose(tab.joint[r], np.diag(tab.marg[i]))

    def test_mc_matches_exact(self):
        space, outcomes, _ = population(8, 3)
        for g in np.linspace(1.0, 6.0, 40):
            part = scaling_clusters(space, g)
            if part.n_clusters == 4:
                break
        assert part.n_clusters == 4
        grid = [g, 2 * g]
        ctx = DesignContext(space, part, g, 0.5)
        exact = saturation_tables(ctx, grid, method="exact")
        mc = saturation_tables(ctx, grid, method="mc",
                               mc_draws=200_000, seed=9)
        assert np.max(np.abs(exact.marg - mc.marg)) < 0.01
        assert np.max(np.abs(exact.joint - mc.joint)) < 0.01

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_tables_match_plain_pair_counts(self, method):
        # independent of the table loop's bincounts: one weighted sum per
        # (unit, size) and per (pair, size, size) over the same draws;
        # 20000 draws span two table chunks
        space, part = four_cluster_line()
        p, draws, seed = 0.3, 20_000, 4
        ctx = DesignContext(space, part, 4.0, p)
        tab = saturation_tables(ctx, [2.0, 4.0], method=method,
                                mc_draws=draws, seed=seed)
        if method == "exact":
            enum = enumerate_assignments(part, p)
            B, w = enum.assignments, enum.probs
        else:
            u = rng_for(seed, TAG_TABLES).uniform(size=(draws, part.n_clusters))
            B, w = (u < p).astype(np.int8), np.full(draws, 1.0 / draws)
        idx = stilde_indices([ctx.level(s) for s in tab.grid], B.T).T
        S = tab.n_sizes
        assert S == 3
        at = [[idx[:, i] == s for s in range(S)] for i in range(space.n)]
        for i in range(space.n):
            for s in range(S):
                assert tab.marg[i, s] == pytest.approx(
                    w[at[i][s]].sum(), rel=1e-10, abs=1e-15)
        assert len(tab.pairs) > space.n         # off-diagonal pairs present
        for r, (i, j) in enumerate(tab.pairs):
            for s in range(S):
                for t in range(S):
                    assert tab.joint[r, s, t] == pytest.approx(
                        w[at[i][s] & at[j][t]].sum(), rel=1e-10, abs=1e-15)

    def test_exact_cutoff(self):
        space = line_space(21, spacing=3.0)
        part = singleton_partition(21)
        with pytest.raises(Exception, match="C <= 20"):
            saturation_tables(DesignContext(space, part, 1.0, 0.5), [1.0], method="exact")


class TestChunkedTables:
    """The chunked tables against the whole-array reference, bit for bit."""

    def assert_matches_reference(self, space, part, grid, p, **kw):
        tab = saturation_tables(DesignContext(space, part, max(grid), p), grid, **kw)
        joint, marg = whole_array_saturation_tables(space, part, grid, p, **kw)
        assert np.array_equal(tab.joint, joint)
        assert np.array_equal(tab.marg, marg)
        return tab

    def test_mc_stream_crosses_a_chunk_boundary(self):
        n = 40
        space = harness.build_population(n, 7 + n)
        h = scaling_rule(n, 1.0)
        part = scaling_clusters(space, h)
        self.assert_matches_reference(space, part, owopt.default_ow_grid(h),
                                      0.5, method="mc",
                                      mc_draws=owopt._CHUNK + 37, seed=7)

    def test_exact(self, small_exact_instance):
        space, _, _, part, g = small_exact_instance
        self.assert_matches_reference(space, part, owopt.default_ow_grid(g),
                                      0.3, method="exact")

    def test_index_dtype_widens_past_256_sizes(self):
        # the middle unit's whole line is pure at sizes 1 to 2.5 whenever
        # all three bits agree, so indices above 255 occur
        space, part = line_space(3), singleton_partition(3)
        grid = np.linspace(1.0, 2.5, 300)
        tab = self.assert_matches_reference(space, part, grid, 0.5,
                                            method="mc", mc_draws=400, seed=3)
        assert tab.n_sizes > 256
        assert tab.marg[1, -1] > 0.0

    @pytest.mark.parametrize("sizes, first_pure",
                             [([2.0, 4.0, 8.0], True),
                              ([8.0, 2.0, 4.0, 1.0], False)],
                             ids=["ascending", "first_level_impure"])
    def test_stilde_indices_match_masked_assignment(self, sizes, first_pure):
        space, part = four_cluster_line()
        levels = [ss.incidence(space, part, s) for s in sizes]
        B = enumerate_assignments(part, 0.5).assignments.T
        sat, dis = levels[0].pure(levels[0].treated(B))
        assert (sat | dis).all() == first_pure
        idx = stilde_indices(levels, B)
        assert idx.dtype == np.int64
        assert np.array_equal(idx, masked_stilde_indices(levels, B))

    def test_peak_memory_is_output_plus_one_chunk(self):
        n, draws = 200, 20_000
        space = harness.build_population(n, 7 + n)
        h = scaling_rule(n, 1.0)
        part = scaling_clusters(space, h)
        tracemalloc.start()
        try:
            ctx = DesignContext(space, part, h, 0.5)
            tab = saturation_tables(ctx, owopt.default_ow_grid(h),
                                    mc_draws=draws, seed=7 + n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-array form peaks at 79.8 MB here, against a 4.2 MB joint
        assert peak <= tab.joint.nbytes + 5 * n * owopt._CHUNK


class TestAssembleObjective:
    def test_single_unit_single_size(self):
        space = ss.build_space([[0.0]])
        part = singleton_partition(1)
        ctx = DesignContext(space, part, 2.0, 0.5)
        tab = saturation_tables(ctx, [2.0], method="exact")
        # one unit: the floor and the grid size are always pure, so the
        # marginal concentrates at the top size
        budget = ss.InterferenceBudget(eta=1.0, k1=3.0, ybar=2.0)
        Q = assemble_objective(tab, budget)
        top = tab.grid[-1]
        expected = 2 * 2.0 ** 2 + 3.0 ** 2 * top ** -2.0
        assert Q[-1, -1] == pytest.approx(expected)

    def test_interference_off_leaves_probability_structure(self):
        space, part = four_cluster_line()
        ctx = DesignContext(space, part, 4.0, 0.5)
        tab = saturation_tables(ctx, [4.0], method="exact")
        budget = ss.InterferenceBudget(eta=1.0, k1=1e-12, ybar=1.5)
        Q = assemble_objective(tab, budget)
        S = tab.grid.size
        r0 = {tuple(p): k for k, p in enumerate(tab.pairs)}[(0, 1)]
        assert np.allclose(Q[0:S, S:2 * S], 2 * 1.5 ** 2 * tab.joint[r0],
                           atol=1e-9)

    def test_zero_marginal_zeroes_row_and_column(self):
        # a size a unit never takes: its product terms and joint entries
        # are probabilities of an event that never occurs
        n = 40
        space, outcomes, _ = population(n, 7 + n)
        h = scaling_rule(n, 1.0)
        part = scaling_clusters(space, h)
        ctx = DesignContext(space, part, h, 0.5)
        tab = saturation_tables(ctx, owopt.default_ow_grid(h),
                                mc_draws=2000, seed=3)
        budget = sim_budget(outcomes, space, 1.0, np.geomspace(1.0, n, 16))
        Q = assemble_objective(tab, budget)
        zero = tab.marg.reshape(-1) == 0
        assert 0 < zero.sum() < zero.size
        assert not Q[zero].any() and not Q[:, zero].any()
        assert np.all(np.diag(Q)[~zero] > 0)

    @pytest.mark.parametrize("n", [40, 60, 80, 120])
    def test_exactly_symmetric_without_symmetrizing(self, n):
        space, outcomes, _ = population(n, 7 + n)
        h = scaling_rule(n, 1.0)
        ctx = DesignContext(space, scaling_clusters(space, h), h, 0.5)
        tab = saturation_tables(ctx, owopt.default_ow_grid(h), mc_draws=20_000,
                                seed=7 + n)
        Q = assemble_objective(
            tab, sim_budget(outcomes, space, 1.0, np.geomspace(1.0, n, 16)))
        assert np.array_equal(Q, Q.T)
        assert np.array_equal(Q, 0.5 * (Q + Q.T))   # the former last step

    def test_quadratic_form_matches_full_enumeration(self):
        # direct oracle: joint table for EVERY pair from scratch, then the
        # literal double sum over units and sizes
        space, part = four_cluster_line()
        p = 0.4
        ctx = DesignContext(space, part, 4.0, p)
        tab = saturation_tables(ctx, [4.0], method="exact")
        budget = ss.InterferenceBudget(eta=0.7, k1=1.3, ybar=1.1)
        Q = assemble_objective(tab, budget)
        n, S = tab.marg.shape
        rng = np.random.default_rng(0)
        w = rng.uniform(size=n * S)

        enum = enumerate_assignments(part, p)
        idx = stilde_indices([ctx.level(s) for s in tab.grid], enum.assignments.T).T
        kern = objective_kernel(tab.grid, budget)
        direct = 0.0
        for a, prob in enumerate(enum.probs):
            for i in range(n):
                for j in range(n):
                    si, sj = idx[a, i], idx[a, j]
                    direct += prob * w[i * S + si] * w[j * S + sj] * kern[si, sj]
        assert float(w @ Q @ w) == pytest.approx(direct, abs=1e-10)


def bisection_projection(v, m, r):
    """One row of the row projector by bisection on its multiplier lam: the mass
    sum_s m_s max(0, v_s - lam m_s) is nonincreasing in lam."""
    def mass(lam):
        return float(np.sum(m * np.maximum(0.0, v - lam * m)))

    lo, hi = -1.0, 1.0
    while mass(lo) < r:
        lo *= 2.0
    while mass(hi) > r:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) > r:
            lo = mid
        else:
            hi = mid
    return np.maximum(0.0, v - 0.5 * (lo + hi) * m)


class TestProjection:
    def test_satisfies_constraints(self):
        rng = np.random.default_rng(1)
        M = rng.uniform(size=(7, 5))
        M[0, :3] = 0.0
        M /= M.sum(axis=1, keepdims=True)
        V = rng.normal(size=(7, 5))
        r = 0.2
        W = _row_projector(M, r)(V)
        assert np.all(W >= 0)
        assert np.allclose((W * M).sum(axis=1), r, atol=1e-12)

    def test_idempotent_and_closest(self):
        rng = np.random.default_rng(2)
        M = rng.uniform(0.1, 1.0, size=(3, 4))
        V = rng.normal(size=(3, 4))
        r = 0.5
        W = _row_projector(M, r)(V)
        assert np.allclose(_row_projector(M, r)(W), W, atol=1e-12)
        # no feasible random point is closer to V than the projection
        for _ in range(200):
            cand = np.abs(rng.normal(size=(3, 4)))
            cand *= (r / (cand * M).sum(axis=1))[:, None]
            assert np.linalg.norm(cand - V) >= np.linalg.norm(W - V) - 1e-9

    @pytest.mark.parametrize("r", [0.5, 1e-6, 1e-12])
    def test_matches_bisection(self, r):
        rng = np.random.default_rng(11)
        for _ in range(40):
            M = rng.uniform(0.01, 1.0, size=(6, 9))
            M[rng.uniform(size=M.shape) < 0.25] = 0.0       # free coordinates
            M[:, 0] = np.maximum(M[:, 0], 0.05)             # a feasible row
            V = rng.normal(size=(6, 9))
            V[1, :4] = 0.7 * M[1, :4]                       # four tied breakpoints
            V[2] = -0.3 * M[2]                              # every breakpoint tied
            V[3, ::2] = 1.1 * M[3, ::2]
            W = _row_projector(M, r)(V)
            want = np.array([bisection_projection(v, m, r) for v, m in zip(V, M)])
            np.testing.assert_allclose(W, want, rtol=0, atol=1e-14)
            np.testing.assert_allclose((W * M).sum(axis=1), r, rtol=1e-9, atol=1e-14)


class TestSolveQp:
    def test_unique_feasible_point(self):
        space = ss.build_space([[0.0]])
        part = singleton_partition(1)
        ctx = DesignContext(space, part, 2.0, 0.5)
        tab = saturation_tables(ctx, [2.0], method="exact")
        budget = ss.InterferenceBudget(eta=1.0, k1=1.0, ybar=1.0)
        Q = assemble_objective(tab, budget)
        ow = solve_qp(Q, tab.marg, 0.5)
        # marg mass sits on the top size; the constraint pins that weight
        assert ow.W[0, -1] == pytest.approx(1.0 / (0.5 * 1 * tab.marg[0, -1]))
        assert ow.converged

    @pytest.mark.parametrize("i, j", [(1, 0), (1, 2), (0, 1)])
    def test_zero_diagonal_with_nonzero_entry_rejected(self, i, j):
        # the support block leaves out rows and columns with a zero
        # diagonal, which is exact only when they are zero
        Q = np.diag([1.0, 0.0, 2.0])
        Q[i, j] = 0.5
        marg = np.array([[0.5, 0.0, 0.5]])
        with pytest.raises(ValueError, match="diagonal"):
            solve_qp(Q, marg, 0.5)

    def test_objective_never_above_warm_start(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            n = int(rng.integers(6, 26))
            space = ss.build_space(rng.uniform(0, 12, size=(n, 2)))
            g = float(rng.uniform(2.0, 9.0))
            part = scaling_clusters(space, g)
            p = float(rng.uniform(0.3, 0.7))
            ctx = DesignContext(space, part, 2 * g, p)
            tab = saturation_tables(ctx, [g, 2 * g], method="mc",
                                    mc_draws=20_000, seed=trial)
            budget = ss.InterferenceBudget(eta=1.0, k1=1.0, ybar=2.0)
            Q = assemble_objective(tab, budget)
            start = ipw_weight_table(tab, g, p)
            w0 = start.W.reshape(-1)
            ow = solve_qp(Q, tab.marg, p, warm_start=start.W)
            assert ow.objective_value <= float(w0 @ Q @ w0) + 1e-12
            assert np.all(ow.W >= 0)
            gap = np.abs((ow.W * tab.marg).sum(axis=1) - 1.0 / (p * n))
            assert gap.max() < 1e-8

    def test_matches_bruteforce_polytope_scan(self):
        space, part = four_cluster_line()
        p = 0.5
        ctx = DesignContext(space, part, 4.0, p)
        tab = saturation_tables(ctx, [4.0], method="exact")
        assert tab.grid.size == 2 and np.all(tab.marg > 0)
        budget = ss.InterferenceBudget(eta=1.0, k1=0.5, ybar=1.0)
        Q = assemble_objective(tab, budget)
        n = space.n
        start = ipw_weight_table(tab, 4.0, p)
        ow = solve_qp(Q, tab.marg, p, warm_start=start.W)
        assert ow.kkt_residual < 1e-7

        # independent oracle: cyclic per-unit grid scans over the feasible
        # segments (the constraints are separable across units)
        best, _ = bruteforce_polytope_min(Q, tab.marg, p, n, start.W)
        assert abs(ow.objective_value - best) <= 1e-4


class TestQpTrajectoryGolden:
    """The seed-7 replicate cells at n = 40, 60 and 80 with ow_mc_draws =
    20000.

    Iteration counts and objectives were recorded from the solver that ran
    two matvecs per iteration (n = 40, 60) and from the one that ran its
    matvec on the full Q (n = 80); the support-block loop must stop at the
    same iteration with the same objective to 12 digits.
    """

    PINS = {40: (2000, 218.88976954775939), 60: (2000, 191.45859302295844),
            80: (2550, 174.9844553216904)}

    @pytest.mark.parametrize("n", sorted(PINS))
    def test_iterations_and_objective_pinned(self, n):
        space, outcomes, _ = population(n, 7 + n)
        h = scaling_rule(n, 1.0, 1.0)
        part = scaling_clusters(space, h)
        budget = sim_budget(outcomes, space, 1.0,
                            s_grid=sorted({h, *np.geomspace(1.0, n, 12)}))
        tables, start, ow = owopt.optimize_weights(
            DesignContext(space, part, h, 0.5), owopt.default_ow_grid(h), budget,
            method="mc", mc_draws=20_000, seed=7 + n)
        iterations, objective = self.PINS[n]
        assert ow.iterations == iterations
        assert ow.objective_value == pytest.approx(objective, rel=1e-12)
        assert ow.converged and ow.objective_value < start.objective_value
        # a polish is tried every 1000 iterations; off-support weights keep
        # the (nonnegative) warm start until the solve moves to a candidate
        assert 0 <= ow.polish_adopted <= ow.iterations // 1000
        off = tables.marg == 0
        assert off.any()
        want = start.W[off] if ow.polish_adopted == 0 else 0.0
        np.testing.assert_array_equal(ow.W[off], want)


class TestIpwWeightTable:
    def test_constraint_exact(self):
        space, part = four_cluster_line()
        ctx = DesignContext(space, part, 4.0, 0.5)
        tab = saturation_tables(ctx, [4.0], method="exact")
        start = ipw_weight_table(tab, 4.0, 0.5)
        gap = np.abs((start.W * tab.marg).sum(axis=1) - 1.0 / (0.5 * space.n))
        assert gap.max() < 1e-12

    def test_reproduces_ht_at_half(self, small_exact_instance):
        space, outcomes, _, part, g = small_exact_instance
        ctx = DesignContext(space, part, g, 0.5)
        tab = saturation_tables(ctx, owopt.default_ow_grid(g), method="exact")
        start = ipw_weight_table(tab, g, 0.5)
        for b in draw_bits_batch(part.n_clusters, 0.5, range(12)):
            block = DrawBlock(ctx, ss.realize(outcomes, b[part.assignment]), b,
                              weights=start)
            assert block.ow[0] == pytest.approx(block.ht[0], abs=1e-10)


class TestOwEstimate:
    def test_zero_outcomes(self, small_exact_instance):
        space, outcomes, _, part, g = small_exact_instance
        ctx = DesignContext(space, part, g, 0.5)
        start = ipw_weight_table(saturation_tables(ctx, [g], method="exact"), g, 0.5)
        b = draw_bits_batch(part.n_clusters, 0.5, [0])[0]
        block = DrawBlock(ctx, np.zeros(space.n), b, weights=start)
        assert block.ow[0] == 0.0

    @pytest.mark.parametrize("design", ["scaling_clusters", "iid"])
    def test_matches_unit_level_reference(self, design):
        # the sum sum_i (2 d_i - 1) W[i, s_tilde_i] Y_i with s_tilde read
        # unit by unit off the conftest reference, equal to the last bit in
        # one draw and as one column of a 40-draw block; distinct positive
        # weights make every unit's size enter the sum
        n = 60
        space, outcomes, _ = population(n, 7 + n)
        h = scaling_rule(n, 1.0)
        part = harness.make_partition(space, design, h)
        ctx = DesignContext(space, part, h, 0.5)
        tab = saturation_tables(ctx, owopt.default_ow_grid(h), mc_draws=1)
        W = np.random.default_rng(3).uniform(0.5, 1.5, size=tab.marg.shape)
        weights = owopt.OwWeightTable(W=W, grid=tab.grid,
                                      objective_value=0.0, iterations=0,
                                      kkt_residual=0.0, converged=True)
        B = draw_bits_batch(part.n_clusters, 0.5, range(40))
        D = B[:, part.assignment]
        Y = ss.realize(outcomes, D.T)
        block = DrawBlock(ctx, Y, B.T, weights=weights)
        for r, (b, d) in enumerate(zip(B, D)):
            idx = saturation(space, d, tab.grid).idx
            want = np.sum((2.0 * d - 1.0) * W[np.arange(n), idx] * Y[:, r])
            got = DrawBlock(ctx, Y[:, r], b, weights=weights).ow[0]
            assert got == pytest.approx(want, rel=1e-13)
            assert block.ow[r] == pytest.approx(want, rel=1e-13)

    def test_ow_matches_stilde_on_fresh_incidences(self):
        # the block reads the incidences of the weights' grid from its own
        # context, which the tables filled; the sum is the same bits as one
        # taken on saturation indices over incidences built afresh
        n = 60
        space, outcomes, _ = population(n, 7 + n)
        h = scaling_rule(n, 1.0)
        part = scaling_clusters(space, h)
        ctx = DesignContext(space, part, h, 0.5)
        tab = saturation_tables(ctx, owopt.default_ow_grid(h), mc_draws=1)
        W = np.random.default_rng(4).uniform(0.5, 1.5, size=tab.marg.shape)
        weights = owopt.OwWeightTable(W=W, grid=tab.grid, objective_value=0.0,
                                      iterations=0, kkt_residual=0.0, converged=True)
        B = draw_bits_batch(part.n_clusters, 0.5, range(40)).T.astype(np.float32)
        Y = ss.realize(outcomes.over(part), B)
        idx = stilde_indices([ss.incidence(space, part, s) for s in tab.grid], B)
        signed = (2.0 * B[part.assignment] - 1.0) * np.take_along_axis(W, idx, axis=1)
        want = np.einsum("im,im->m", signed, Y)
        assert np.array_equal(DrawBlock(ctx, Y, B, weights=weights).ow, want)

    def test_weight_expectation_identity(self):
        # E[omega_i | d_i = 1] = 1/(p n), checked by full enumeration at the
        # exchangeable p where the marginal table equals the conditional one
        space, part = four_cluster_line()
        p = 0.5
        ctx = DesignContext(space, part, 4.0, p)
        tab = saturation_tables(ctx, [4.0], method="exact")
        budget = ss.InterferenceBudget(eta=1.0, k1=0.5, ybar=1.0)
        Q = assemble_objective(tab, budget)
        ow = solve_qp(Q, tab.marg, p, warm_start=ipw_weight_table(tab, 4.0, p).W)
        enum = enumerate_assignments(part, p)
        idx = stilde_indices([ctx.level(s) for s in tab.grid], enum.assignments.T).T
        for i in range(space.n):
            d_i = enum.assignments[:, part.assignment[i]].astype(float)
            w_i = ow.W[i, idx[:, i]]
            num = float(np.sum(enum.probs * d_i * w_i))
            den = float(np.sum(enum.probs * d_i))
            assert num / den == pytest.approx(1.0 / (p * space.n), abs=1e-9)
