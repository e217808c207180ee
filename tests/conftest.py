from dataclasses import dataclass

import numpy as np
import pytest

import spillscale as ss
from spillscale import harness
from spillscale.estimators import effective_grid
from spillscale.geometry import PremetricSpace


@pytest.fixture(scope="session")
def disk500():
    """The simulation geometry at n=500: uniform disk of radius sqrt(n)."""
    space, outcomes, guess = harness.build_population(500, 42)
    return space, outcomes, guess


@pytest.fixture(scope="session")
def small_exact_instance():
    """n=10 population carrying exactly 6 clusters with phi_max >= 2.

    The size parameter is found by a deterministic scan so the fixture has
    no magic constants; used by the enumeration-based exactness tests.
    """
    space, outcomes, guess = harness.build_population(10, 1)
    for g in np.linspace(0.8, 8.0, 100):
        partition = ss.scaling_clusters(space, g)
        if partition.n_clusters == 6 and ss.incidence(space, partition, g).phi_max >= 2:
            return space, outcomes, guess, partition, float(g)
    raise RuntimeError("no size parameter yields 6 clusters on this population")


def per_row(fn):
    """Block form of a one-assignment closure, for `exact_expectation`."""
    return lambda B: np.array([fn(b) for b in B], dtype=float)


def line_space(n, spacing=1.0):
    """Collinear points in R^1 with the given spacing."""
    return ss.build_space(np.arange(n, dtype=float).reshape(-1, 1) * spacing)


def bruteforce_polytope_min(Q, marg, p, n, start_W, grid_points=1001,
                            sweeps=60):
    """Cyclic per-unit grid scan over the feasible segments (|S| = 2 only).

    The constraints are separable across units, so block scans converge to
    the global minimum of the convex quadratic; grid granularity bounds the
    residual error.  Independent of the projected-gradient path.
    """
    r = 1.0 / (p * n)
    W = start_W.copy()

    def objective(Wm):
        v = Wm.reshape(-1)
        return float(v @ Q @ v)

    best = objective(W)
    for _ in range(sweeps):
        improved = False
        for i in range(n):
            m1, m2 = marg[i]
            w1_grid = np.linspace(0.0, r / m1, grid_points)
            w2_grid = (r - m1 * w1_grid) / m2
            trial = np.repeat(W[None, :, :], grid_points, axis=0)
            trial[:, i, 0] = w1_grid
            trial[:, i, 1] = w2_grid
            flat = trial.reshape(grid_points, -1)
            vals = np.einsum("ki,ij,kj->k", flat, Q, flat)
            k = int(np.argmin(vals))
            if vals[k] < best - 1e-15:
                best = float(vals[k])
                W = trial[k]
                improved = True
        if not improved:
            break
    return best, W


# --- unit-level saturation: the partition-free purity reference -------------
# A neighborhood is pure when every unit in it is treated, or none is.  The
# package reads purity off the cluster incidence instead, in one place
# (`IncidenceCounts.pure`, which `DrawBlock.pure` and `owopt.stilde_indices`
# call); the two agree whenever d is constant within each cluster, which the
# tests check against this reference.


@dataclass(frozen=True)
class SaturationProfile:
    """Largest grid size at which each unit's neighborhood is pure."""

    grid: np.ndarray                # ascending, grid[0] is the floor s0
    s_tilde: np.ndarray
    idx: np.ndarray                 # index of s_tilde in grid


def saturation_indicators(space: PremetricSpace, d, h) -> tuple[np.ndarray, np.ndarray]:
    """(saturated, dissaturated) flags of each unit's size-h neighborhood,
    unit by unit: the partition-free reference for `DrawBlock.pure`."""
    M = space.neighborhood_matrix(h).astype(np.float64)
    d = np.asarray(d, dtype=np.float64)
    return M @ (1.0 - d) == 0.0, M @ d == 0.0


def saturation(space: PremetricSpace, d, grid) -> SaturationProfile:
    """Largest grid size whose neighborhood is fully treated or untreated."""
    grid_eff = effective_grid(space, grid)
    idx = np.zeros(space.n, dtype=np.int64)
    alive = np.ones(space.n, dtype=bool)   # purity is monotone down the grid
    for k, s in enumerate(grid_eff):
        sat, dis = saturation_indicators(space, d, s)
        alive &= sat | dis
        idx[alive] = k
    return SaturationProfile(grid=grid_eff, s_tilde=grid_eff[idx], idx=idx)
