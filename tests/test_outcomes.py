import tracemalloc

import numpy as np
import pytest

import spillscale as ss
from spillscale import harness
from spillscale.design import TAG_COORDS, TAG_DGP, TAG_GUESS, rng_for
from spillscale.geometry import (build_space, fit_interference_constant,
                                 off_neighborhood_sums)
from spillscale.outcomes import (LinearOutcomes, OutcomeModelError,
                                 decay_kernel, make_guess, make_sim_dgp,
                                 realize)

from conftest import population


class TestSimDgp:
    @pytest.mark.parametrize("n,seed", [(50, 0), (120, 3), (400, 11)])
    def test_estimand_is_two(self, n, seed):
        space, outcomes, _ = population(n, seed)
        assert outcomes.theta == pytest.approx(2.0, abs=1e-12)
        assert outcomes.theta == float(outcomes.A.sum() / n)    # derived

    def test_single_unit(self):
        space = ss.build_space([[0.0, 0.0]])
        outcomes = make_sim_dgp(space, 5)
        assert outcomes.A.tolist() == [[2.0]]
        d1 = realize(outcomes, np.array([1]))
        d0 = realize(outcomes, np.array([0]))
        assert d1[0] - d0[0] == pytest.approx(2.0)

    def test_residuals_centered_and_fixed_by_seed(self):
        space, outcomes, _ = population(80, 6)
        assert abs(outcomes.eps.sum()) <= 1e-9 * space.n
        again = make_sim_dgp(space, 6)
        assert np.array_equal(outcomes.eps, again.eps)
        other = make_sim_dgp(space, 7)
        assert not np.array_equal(outcomes.eps, other.eps)

    def test_interference_decay_at_eta_one(self):
        space, outcomes, _ = population(400, 7)
        grid = np.geomspace(1.0, 400.0, 16)
        k1 = fit_interference_constant(outcomes.A, space, 1.0, grid) * (1 + 1e-9)
        for s in grid:
            assert off_neighborhood_sums(outcomes.A, space, s).max() <= k1 / s

    def test_fitted_k1_bounded_and_stabilizing(self):
        # uniformly bounded over the simulation sizes; settles at large n
        grid = np.geomspace(1.0, 50.0, 16)
        fits = {}
        for n in (100, 400, 900, 1600, 2500):
            space, outcomes, _ = population(n, 7 + n)
            fits[n] = fit_interference_constant(outcomes.A, space, 1.0, s_grid=grid)
        vals = np.array(list(fits.values()))
        assert np.all(np.isfinite(vals))
        assert np.all((vals > 0.3) & (vals < 2.0))
        assert abs(fits[2500] / fits[1600] - 1.0) < 0.10


class TestRealize:
    def test_all_control_is_baseline(self):
        space, outcomes, _ = population(30, 2)
        y0 = realize(outcomes, np.zeros(30, dtype=int))
        assert np.allclose(y0, outcomes.beta0 + outcomes.eps)

    def test_global_contrast_equals_theta(self):
        space, outcomes, _ = population(30, 2)
        y1 = realize(outcomes, np.ones(30, dtype=int))
        y0 = realize(outcomes, np.zeros(30, dtype=int))
        assert np.mean(y1 - y0) == pytest.approx(outcomes.theta, abs=1e-12)

    def test_superposition_for_disjoint_assignments(self):
        space, outcomes, _ = population(40, 8)
        rng = np.random.default_rng(1)
        y0 = realize(outcomes, np.zeros(40, dtype=int))
        for _ in range(10):
            d1 = (rng.uniform(size=40) < 0.3).astype(int)
            d2 = ((rng.uniform(size=40) < 0.3) & (d1 == 0)).astype(int)
            lhs = realize(outcomes, d1 + d2) - y0
            rhs = (realize(outcomes, d1) - y0) + (realize(outcomes, d2) - y0)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_wrong_length_rejected(self):
        space, outcomes, _ = population(30, 2)
        with pytest.raises(ValueError):
            realize(outcomes, np.zeros(29, dtype=int))
        with pytest.raises(ValueError, match=r"\(30,\) or \(30, m\)"):
            realize(outcomes, np.zeros((30, 2, 2), dtype=int))

    def test_block_is_one_assignment_per_column(self):
        _, outcomes, _ = population(30, 2)
        outcomes = LinearOutcomes(beta0=1.5, A=outcomes.A, eps=outcomes.eps)
        D = (np.random.default_rng(3).uniform(size=(30, 7)) < 0.5).astype(np.int8)
        Y = realize(outcomes, D)
        assert Y.shape == (30, 7)
        for k in range(7):
            assert np.allclose(Y[:, k], realize(outcomes, D[:, k]),
                               rtol=1e-14, atol=1e-14)


class TestAge:
    """The average global effect, `theta`, against Y(1) - Y(0)."""

    def test_zero_matrix(self):
        out = LinearOutcomes(beta0=0.0, A=np.zeros((4, 4)), eps=np.zeros(4))
        assert out.theta == 0.0

    def test_matches_two_evaluation_brute_force(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(6, 6))
        eps = rng.normal(size=6)
        out = LinearOutcomes(beta0=0.7, A=A, eps=eps - eps.mean())
        brute = np.mean(realize(out, np.ones(6, dtype=int))
                        - realize(out, np.zeros(6, dtype=int)))
        assert out.theta == pytest.approx(brute, abs=1e-12)


class TestGuess:
    def test_normalized_total_exact(self):
        space, _, guess = population(60, 4)
        assert guess.A.sum() / 60 == pytest.approx(2.0, abs=1e-12)

    def test_linear_outcomes_without_offset(self):
        # the guess is the linear model of its matrix with beta0 = 0 and
        # eps = 0, and its theta is 1'A_hat 1 / n summed as the shrink
        # estimator's scale always was
        _, _, guess = population(60, 4)
        assert isinstance(guess, LinearOutcomes)
        assert guess.beta0 == 0.0
        assert np.array_equal(guess.eps, np.zeros(60))
        assert guess.theta == float(guess.A.sum() / guess.n)

    def test_parameter_degeneration_recovers_truth(self):
        space, outcomes, _ = population(25, 9)
        assert np.array_equal(decay_kernel(space, 1, 4), outcomes.A)

    def test_guess_respects_decay_and_row_bound(self):
        space, outcomes, guess = population(200, 5)
        grid = np.geomspace(1.0, 200.0, 16)
        k1 = fit_interference_constant(outcomes.A, space, 1.0, grid)
        assert fit_interference_constant(guess.A, space, 1.0, grid) <= k1 * 1.05
        ybar = np.max(np.abs(outcomes.A).sum(axis=1) + np.abs(outcomes.eps))
        assert np.abs(guess.A).sum(axis=1).max() <= ybar

    def test_noise_varies_with_seed(self):
        space = harness.build_population(20, 3)
        g1 = make_guess(space, 3)
        g2 = make_guess(space, 4)
        assert not np.allclose(g1.A, g2.A)


class TestValidation:
    def test_uncentered_residuals_rejected(self):
        with pytest.raises(OutcomeModelError):
            ss.LinearOutcomes(beta0=0.0, A=np.eye(3), eps=np.ones(3))


def whole_array_population(coords, seed):
    """dist, A, eps and A_hat from whole n x n expressions: the reference
    the in-place, row-blocked construction must match bit for bit."""
    n = coords.shape[0]
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(dist, 0.0)
    B = (dist + 1.0) ** -4.0
    A = 2.0 * B * n / B.sum()
    e = rng_for(seed, TAG_DGP).standard_normal(n)
    eps = (np.sqrt(n) / np.linalg.norm(A, "fro")) * (A @ e)
    eps = eps - eps.mean()
    delta = rng_for(seed, TAG_GUESS).uniform(0.9, 1.0, size=(n, n))
    B_hat = (1.1 * dist + 1.0) ** -4.25 * delta
    A_hat = 2.0 * B_hat * n / B_hat.sum()
    return dist, A, eps, A_hat


class TestDensePopulation:
    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 1000])
    def test_matches_whole_array_reference(self, n, q):
        coords = np.sqrt(n) * rng_for(n, TAG_COORDS).uniform(-1, 1, size=(n, q))
        space = build_space(coords)
        outcomes, guess = make_sim_dgp(space, 5), make_guess(space, 5)
        dist, A, eps, A_hat = whole_array_population(coords, 5)
        assert np.array_equal(space.dist, dist)
        assert np.array_equal(outcomes.A, A)
        assert np.array_equal(outcomes.eps, eps)
        assert np.array_equal(guess.A, A_hat)
        for s in (0.5, 2.0, 10.0):
            outside = ~(dist <= space.radius(s))
            assert np.array_equal(off_neighborhood_sums(A, space, s),
                                  np.abs(np.where(outside, A, 0.0)).sum(axis=1))
        off = dist[~np.eye(n, dtype=bool)]
        assert space.min_positive_distance() == (off.min() if n > 1 else np.inf)

    def test_build_population_peak_memory(self):
        # the space with its outcomes and guess over units: three live n x n
        # float64 arrays (dist, A, A_hat) plus one 256-row block of the
        # guess noise, 3.26 n^2 doubles at n = 1000, against 5.0 when every
        # operator made a whole n x n temporary
        n = 1000
        tracemalloc.start()
        try:
            population(n, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.3 * 8 * n * n
