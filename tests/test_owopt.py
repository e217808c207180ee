import numpy as np
import pytest

import spillscale as ss
from spillscale import harness, owopt
from spillscale.design import (TAG_TABLES, draw_treatments, rng_for,
                               scaling_clusters, scaling_rule,
                               singleton_partition)
from spillscale.estimators import ipw_ht
from spillscale.oracle import enumerate_assignments
from spillscale.outcomes import sim_budget
from spillscale.owopt import (assemble_objective, ipw_weight_table,
                              objective_kernel, ow_estimate, project_rows,
                              saturation_tables, solve_qp, stilde_indices)

from conftest import bruteforce_polytope_min, line_space, saturation


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
        tab = saturation_tables(space, part, [2.0, 5.0], 0.5, method="exact")
        assert np.allclose(tab.marg[:, -1], 1.0)

    def test_rows_sum_to_one(self):
        space, part = four_cluster_line()
        tab = saturation_tables(space, part, [4.0], 0.3, method="exact")
        assert np.allclose(tab.marg.sum(axis=1), 1.0, atol=1e-9)

    def test_label_flip_symmetry_at_half(self):
        space, part = four_cluster_line()
        tab = saturation_tables(space, part, [4.0], 0.5, method="exact")
        flipped = saturation_tables(space, part, [4.0], 0.5, method="exact")
        # p = 1/2 makes treated/untreated exchangeable: recomputing with the
        # roles of saturated and dissaturated swapped changes nothing
        assert np.allclose(tab.marg, flipped.marg)
        # and purity probabilities match the closed form p^phi + (1-p)^phi
        counts = ss.incidence(space, part, 4.0)
        pure_top = tab.marg[:, -1]
        assert np.allclose(pure_top, 2.0 * 0.5 ** counts.phi)

    def test_joint_marginalizes_and_is_symmetric(self):
        space, part = four_cluster_line()
        tab = saturation_tables(space, part, [4.0], 0.3, method="exact")
        pair_of = {(int(i), int(j)): r for r, (i, j) in enumerate(tab.pairs)}
        for (i, j), r in pair_of.items():
            block = tab.joint[r]
            assert np.allclose(block.sum(axis=1), tab.marg[i], atol=1e-9)
            assert np.allclose(block.sum(axis=0), tab.marg[j], atol=1e-9)
            if (j, i) in pair_of and i != j:
                assert np.allclose(block, tab.joint[pair_of[(j, i)]].T)

    def test_self_pair_is_diagonal(self):
        space, part = four_cluster_line()
        tab = saturation_tables(space, part, [4.0], 0.5, method="exact")
        for r, (i, j) in enumerate(tab.pairs):
            if i == j:
                assert np.allclose(tab.joint[r], np.diag(tab.marg[i]))

    def test_mc_matches_exact(self):
        space, outcomes, _ = harness.build_population(8, 3)
        for g in np.linspace(1.0, 6.0, 40):
            part = scaling_clusters(space, g)
            if part.n_clusters == 4:
                break
        assert part.n_clusters == 4
        grid = [g, 2 * g]
        exact = saturation_tables(space, part, grid, 0.5, method="exact")
        mc = saturation_tables(space, part, grid, 0.5, method="mc",
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
        tab = saturation_tables(space, part, [2.0, 4.0], p, method=method,
                                mc_draws=draws, seed=seed)
        if method == "exact":
            enum = enumerate_assignments(part, p)
            B, w = enum.assignments, enum.probs
        else:
            u = rng_for(seed, TAG_TABLES).uniform(size=(draws, part.n_clusters))
            B, w = (u < p).astype(np.int8), np.full(draws, 1.0 / draws)
        idx = stilde_indices(tab.levels, B.T).T
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
            saturation_tables(space, part, [1.0], 0.5, method="exact")


class TestAssembleObjective:
    def test_single_unit_single_size(self):
        space = ss.build_space([[0.0]])
        part = singleton_partition(1)
        tab = saturation_tables(space, part, [2.0], 0.5, method="exact")
        # one unit: the floor and the grid size are always pure, so the
        # marginal concentrates at the top size
        budget = ss.InterferenceBudget(eta=1.0, k1=3.0, ybar=2.0)
        Q = assemble_objective(tab, budget)
        top = tab.grid[-1]
        expected = 2 * 2.0 ** 2 + 3.0 ** 2 * top ** -2.0
        assert Q[-1, -1] == pytest.approx(expected)

    def test_interference_off_leaves_probability_structure(self):
        space, part = four_cluster_line()
        tab = saturation_tables(space, part, [4.0], 0.5, method="exact")
        budget = ss.InterferenceBudget(eta=1.0, k1=1e-12, ybar=1.5)
        Q = assemble_objective(tab, budget)
        S = tab.grid.size
        r0 = {tuple(p): k for k, p in enumerate(tab.pairs)}[(0, 1)]
        assert np.allclose(Q[0:S, S:2 * S], 2 * 1.5 ** 2 * tab.joint[r0],
                           atol=1e-9)

    def test_quadratic_form_matches_full_enumeration(self):
        # direct oracle: joint table for EVERY pair from scratch, then the
        # literal double sum over units and sizes
        space, part = four_cluster_line()
        p = 0.4
        tab = saturation_tables(space, part, [4.0], p, method="exact")
        budget = ss.InterferenceBudget(eta=0.7, k1=1.3, ybar=1.1)
        Q = assemble_objective(tab, budget)
        n, S = tab.marg.shape
        rng = np.random.default_rng(0)
        w = rng.uniform(size=n * S)

        enum = enumerate_assignments(part, p)
        idx = stilde_indices(tab.levels, enum.assignments.T).T
        kern = objective_kernel(tab.grid, budget)
        direct = 0.0
        for a, prob in enumerate(enum.probs):
            for i in range(n):
                for j in range(n):
                    si, sj = idx[a, i], idx[a, j]
                    direct += prob * w[i * S + si] * w[j * S + sj] * kern[si, sj]
        assert float(w @ Q @ w) == pytest.approx(direct, abs=1e-10)


def bisection_projection(v, m, r):
    """One row of project_rows by bisection on its multiplier lam: the mass
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
        W = project_rows(V, M, r)
        assert np.all(W >= 0)
        assert np.allclose((W * M).sum(axis=1), r, atol=1e-12)

    def test_idempotent_and_closest(self):
        rng = np.random.default_rng(2)
        M = rng.uniform(0.1, 1.0, size=(3, 4))
        V = rng.normal(size=(3, 4))
        r = 0.5
        W = project_rows(V, M, r)
        assert np.allclose(project_rows(W, M, r), W, atol=1e-12)
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
            W = project_rows(V, M, r)
            want = np.array([bisection_projection(v, m, r) for v, m in zip(V, M)])
            np.testing.assert_allclose(W, want, rtol=0, atol=1e-14)
            np.testing.assert_allclose((W * M).sum(axis=1), r, rtol=1e-9, atol=1e-14)


class TestSolveQp:
    def test_unique_feasible_point(self):
        space = ss.build_space([[0.0]])
        part = singleton_partition(1)
        tab = saturation_tables(space, part, [2.0], 0.5, method="exact")
        budget = ss.InterferenceBudget(eta=1.0, k1=1.0, ybar=1.0)
        Q = assemble_objective(tab, budget)
        ow = solve_qp(Q, tab.marg, 0.5, 1)
        # marg mass sits on the top size; the constraint pins that weight
        assert ow.W[0, -1] == pytest.approx(1.0 / (0.5 * 1 * tab.marg[0, -1]))
        assert ow.converged

    def test_objective_never_above_warm_start(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            n = int(rng.integers(6, 26))
            space = ss.build_space(rng.uniform(0, 12, size=(n, 2)))
            g = float(rng.uniform(2.0, 9.0))
            part = scaling_clusters(space, g)
            p = float(rng.uniform(0.3, 0.7))
            tab = saturation_tables(space, part, [g, 2 * g], p, method="mc",
                                    mc_draws=20_000, seed=trial)
            budget = ss.InterferenceBudget(eta=1.0, k1=1.0, ybar=2.0)
            Q = assemble_objective(tab, budget)
            start = ipw_weight_table(tab, g, p)
            w0 = start.W.reshape(-1)
            ow = solve_qp(Q, tab.marg, p, n, warm_start=start.W)
            assert ow.objective_value <= float(w0 @ Q @ w0) + 1e-12
            assert np.all(ow.W >= 0)
            assert ow.constraint_gap(tab.marg, n) < 1e-8

    def test_matches_bruteforce_polytope_scan(self):
        space, part = four_cluster_line()
        p = 0.5
        tab = saturation_tables(space, part, [4.0], p, method="exact")
        assert tab.grid.size == 2 and np.all(tab.marg > 0)
        budget = ss.InterferenceBudget(eta=1.0, k1=0.5, ybar=1.0)
        Q = assemble_objective(tab, budget)
        n = space.n
        start = ipw_weight_table(tab, 4.0, p)
        ow = solve_qp(Q, tab.marg, p, n, warm_start=start.W)
        assert ow.kkt_residual < 1e-7

        # independent oracle: cyclic per-unit grid scans over the feasible
        # segments (the constraints are separable across units)
        best, _ = bruteforce_polytope_min(Q, tab.marg, p, n, start.W)
        assert abs(ow.objective_value - best) <= 1e-4


class TestQpTrajectoryGolden:
    """The seed-7 replicate cells at n = 40 and 60 with ow_mc_draws = 20000.

    Iteration counts and objectives were recorded from the solver that ran
    two matvecs per iteration; the one-matvec loop must stop at the same
    iteration with the same objective to 12 digits.
    """

    PINS = {40: (2000, 218.88976954775939), 60: (2000, 191.45859302295844)}

    @pytest.mark.parametrize("n", sorted(PINS))
    def test_iterations_and_objective_pinned(self, n):
        space, outcomes, _ = harness.build_population(n, 7 + n)
        h = scaling_rule(n, 1.0, 1.0)
        part = scaling_clusters(space, h)
        budget = sim_budget(outcomes, space, 1.0,
                            s_grid=sorted({h, *np.geomspace(1.0, n, 12)}))
        _, start, ow = owopt.optimize_weights(
            space, part, owopt.default_ow_grid(h), 0.5, budget, h,
            method="mc", mc_draws=20_000, seed=7 + n)
        iterations, objective = self.PINS[n]
        assert ow.iterations == iterations
        assert ow.objective_value == pytest.approx(objective, rel=1e-12)
        assert ow.converged and ow.objective_value < start.objective_value


class TestIpwWeightTable:
    def test_constraint_exact(self):
        space, part = four_cluster_line()
        tab = saturation_tables(space, part, [4.0], 0.5, method="exact")
        start = ipw_weight_table(tab, 4.0, 0.5)
        assert start.constraint_gap(tab.marg, space.n) < 1e-12

    def test_reproduces_ht_at_half(self, small_exact_instance):
        space, outcomes, _, part, g = small_exact_instance
        tab = saturation_tables(space, part, owopt.default_ow_grid(g), 0.5,
                                method="exact")
        start = ipw_weight_table(tab, g, 0.5)
        start.grid = tab.grid
        for seed in range(12):
            draw = draw_treatments(part, 0.5, seed)
            Y = ss.realize(outcomes, draw.d)
            got = ow_estimate(Y, draw.d, part, tab, start).estimate
            want = ipw_ht(Y, draw.d, space, part, g, 0.5).estimate
            assert got == pytest.approx(want, abs=1e-10)


class TestOwEstimate:
    def test_zero_outcomes(self, small_exact_instance):
        space, outcomes, _, part, g = small_exact_instance
        tab = saturation_tables(space, part, [g], 0.5, method="exact")
        start = ipw_weight_table(tab, g, 0.5)
        start.grid = tab.grid
        draw = draw_treatments(part, 0.5, 0)
        rep = ow_estimate(np.zeros(space.n), draw.d, part, tab, start)
        assert rep.estimate == 0.0

    def test_grid_mismatch_rejected(self, small_exact_instance):
        space, outcomes, _, part, g = small_exact_instance
        tab = saturation_tables(space, part, [g], 0.5, method="exact")
        start = ipw_weight_table(tab, g, 0.5)
        start.grid = tab.grid
        draw = draw_treatments(part, 0.5, 0)
        wider = saturation_tables(space, part, [g, 3 * g], 0.5, method="exact")
        with pytest.raises(ValueError, match="grid"):
            ow_estimate(np.zeros(space.n), draw.d, part, wider, start)

    @pytest.mark.parametrize("design", ["scaling_clusters", "iid"])
    def test_matches_unit_level_reference(self, design):
        # the sum sum_i (2 d_i - 1) W[i, s_tilde_i] Y_i with s_tilde read
        # unit by unit off the conftest reference, equal to the last bit;
        # distinct positive weights make every unit's size enter the sum
        n = 60
        space, outcomes, _ = harness.build_population(n, 7 + n)
        h = scaling_rule(n, 1.0)
        part = harness.make_partition(space, design, h)
        tab = saturation_tables(space, part, owopt.default_ow_grid(h), 0.5,
                                mc_draws=1)
        W = np.random.default_rng(3).uniform(0.5, 1.5, size=tab.marg.shape)
        weights = owopt.OwWeightTable(W=W, grid=tab.grid, objective_value=0.0,
                                      iterations=0, kkt_residual=0.0,
                                      converged=True, p=0.5)
        for seed in range(40):
            draw = draw_treatments(part, 0.5, seed)
            Y = ss.realize(outcomes, draw.d)
            idx = saturation(space, draw.d, tab.grid).idx
            want = np.sum((2.0 * draw.d - 1.0) * W[np.arange(n), idx] * Y)
            got = ow_estimate(Y, draw.d, part, tab, weights).estimate
            assert got == pytest.approx(want, rel=1e-13)
            assert got == owopt.ow_estimates(
                weights, idx[:, None], draw.d.astype(float)[:, None],
                Y[:, None])[0]

    def test_weight_expectation_identity(self):
        # E[omega_i | d_i = 1] = 1/(p n), checked by full enumeration at the
        # exchangeable p where the marginal table equals the conditional one
        space, part = four_cluster_line()
        p = 0.5
        tab = saturation_tables(space, part, [4.0], p, method="exact")
        budget = ss.InterferenceBudget(eta=1.0, k1=0.5, ybar=1.0)
        Q = assemble_objective(tab, budget)
        ow = solve_qp(Q, tab.marg, p, space.n,
                      warm_start=ipw_weight_table(tab, 4.0, p).W)
        ow.grid = tab.grid
        enum = enumerate_assignments(part, p)
        idx = stilde_indices(tab.levels, enum.assignments.T).T
        for i in range(space.n):
            d_i = enum.assignments[:, part.assignment[i]].astype(float)
            w_i = ow.W[i, idx[:, i]]
            num = float(np.sum(enum.probs * d_i * w_i))
            den = float(np.sum(enum.probs * d_i))
            assert num / den == pytest.approx(1.0 / (p * space.n), abs=1e-9)
