from dataclasses import dataclass

import numpy as np
import pytest

import spillscale as ss
from spillscale import harness
from spillscale.design import TAG_TABLES, incidence, rng_for
from spillscale.estimators import dependency_graph
from spillscale.geometry import PremetricSpace, row_blocks
from spillscale.oracle import enumerate_assignments
from spillscale.owopt import _CHUNK, effective_grid, interacting_pairs


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
# (`IncidenceCounts.pure`, which `DrawBlock.pure` and `design.stilde_indices`
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


# --- whole-array saturation tables: the reference for the chunked tables ----
# `owopt.saturation_tables` draws its bits one column block at a time, keeps
# uint8 saturation indices and forms each pair's code on its own.  Below is
# the form it replaced: every draw's bits at once, int64 indices by masked
# assignment and an n x chunk array of scaled codes.  Both sum each joint
# entry over the same chunks of draws in the same order, so they agree bit
# for bit.


def masked_stilde_indices(levels: list, B) -> np.ndarray:
    """Grid index by masked assignment: idx[alive] = k down the levels."""
    B = np.asarray(B, dtype=np.float64)
    idx = np.zeros((levels[0].phi.size, B.shape[1]), dtype=np.int64)
    alive = np.ones(idx.shape, dtype=bool)
    for k, level in enumerate(levels):
        sat, dis = level.pure(level.treated(B))
        alive &= sat | dis
        idx[alive] = k
    return idx


def whole_array_saturation_tables(space, partition, grid, p, method="mc",
                                  mc_draws=100_000, seed=0):
    """(joint, marg) of `owopt.saturation_tables`, from whole arrays."""
    grid_eff = effective_grid(space, grid)
    levels = [incidence(space, partition, s) for s in grid_eff]
    S = grid_eff.size
    pairs = interacting_pairs(levels[-1])
    if method == "exact":
        enum = enumerate_assignments(partition, p)
        B_all, weights_all = enum.assignments, enum.probs
    else:
        gen = rng_for(seed, TAG_TABLES)
        B_all = (gen.uniform(size=(mc_draws, partition.n_clusters)) < p).astype(np.int8)
        weights_all = np.full(mc_draws, 1.0 / mc_draws)
    joint = np.zeros((len(pairs), S, S))
    for lo in range(0, B_all.shape[0], _CHUNK):
        w = weights_all[lo:lo + _CHUNK]
        idx = masked_stilde_indices(levels, B_all[lo:lo + _CHUNK].T)
        hi = idx * S
        for r, (i, j) in enumerate(pairs.tolist()):
            code = hi[i] + idx[j]
            joint[r] += np.bincount(code, weights=w, minlength=S * S).reshape(S, S)
    marg = joint[pairs[:, 0] == pairs[:, 1]][:, np.arange(S), np.arange(S)]
    return joint, marg


# --- whole-array estimators: the reference for the batched core's order ----
# `DrawBlock` keeps only the n x m arrays that more than one estimator reads,
# counts treated clusters in float32 and builds each HAC residual in place.
# Below are the formulas it replaced, one expression each: float64 counts,
# both IPW weight arrays kept, e = w * (Y - ybar - estimate * (c - p)), the
# guess applied to unit treatments (A_hat @ D) and the whole of lam @ e,
# with lam from `dependency_graph` in unit order.  The counts are the same
# integers, and ht, hajek and ols go through the same operations in the
# same order, so they agree bit for bit.  shrink and the HAC sums add the
# same terms in another order (over cluster sums, and over one side of the
# band of the symmetric lam, its units in band order), so they agree to
# rounding.


def whole_array_estimates(ctx, Y, D, B, guess) -> dict:
    """ht, hajek, ols, shrink and the hajek/ols HAC sums of an n x m block."""
    n, p, counts, ext = Y.shape[0], ctx.p, ctx.counts, ctx.extended
    B, D = np.asarray(B, dtype=np.float64), np.asarray(D, dtype=np.float64)

    def dot(a, b):
        return np.einsum("im,im->m", a, b)

    ybar = Y.mean(axis=0)
    treated = counts.incidence.astype(np.float64) @ B
    sat, dis = treated == counts.phi[:, None], treated == 0.0
    phi = counts.phi.astype(float)[:, None]
    w1, w0 = sat * p ** -phi, dis * (1.0 - p) ** -phi
    s1, s0 = w1.sum(axis=0), w0.sum(axis=0)
    hajek_w = w1 / np.where(s1 > 0, s1, np.nan) - w0 / np.where(s0 > 0, s0, np.nan)
    T = (ext.incidence.astype(np.float64) @ B) / ext.phi[:, None]
    tbar = T.mean(axis=0)
    cov_ty = dot(T, Y) / n - tbar * ybar
    var_t = dot(T, T) / n - tbar ** 2
    var_t = np.where(var_t > 1e-12, var_t, np.nan)
    Tg = guess.A_hat @ D
    first = dot(T, Tg) / n - tbar * Tg.mean(axis=0)
    first = np.where(np.abs(first) > 1e-12, first, np.nan)
    out = {"ht": dot(w1 - w0, Y) / n, "hajek": dot(hajek_w, Y),
           "ols": cov_ty / var_t,
           "shrink": cov_ty / first * (guess.A_hat.sum() / guess.n)}

    lam = dependency_graph(ctx.space, ctx.partition, ctx.h, ctx.eta)

    def hac(w, estimate, c):
        e = w * (Y - ybar - estimate * (c - p))
        lam_e = np.empty_like(e)
        for rows in row_blocks(n):
            np.matmul(lam[rows], e, out=lam_e[rows])
        return dot(e, lam_e)

    out["var_hajek"] = hac(hajek_w, out["hajek"], treated / counts.phi[:, None])
    out["var_ols"] = hac((T - tbar) / (n * var_t), out["ols"], T)
    return out


# --- cluster members: the reference for `ClusterPartition.by_cluster` -------
# A partition stores only its assignment; `by_cluster` derives the grouped
# unit order from one stable `argsort`.  Below is the form it replaced: each
# cluster's members by one `flatnonzero` scan, concatenated in id order.


def cluster_members(partition) -> list:
    """Per cluster id, its unit ids ascending."""
    return [np.flatnonzero(partition.assignment == c)
            for c in range(partition.n_clusters)]


def concatenated_by_cluster(partition) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts) of `by_cluster`, from the per-cluster scans."""
    members = cluster_members(partition)
    sizes = np.array([m.size for m in members])
    return np.concatenate(members), np.cumsum(sizes) - sizes


# --- per-unit overlap padding: the reference for the row-blocked extension --
# `design.extend_uniform_overlap` ranks candidate clusters one block of
# deficient units at a time, by repeated `argmin` over a min-distance table
# built with one `np.minimum.reduceat`, and derives `extra` only when read.
# Below is the form it replaced: an n x C table filled cluster by cluster,
# then per unit a `lexsort` by (distance, cluster id) and the chosen
# clusters' members, concatenated and sorted.


def lexsort_extension(space: PremetricSpace, partition, base) -> tuple[np.ndarray, list]:
    """(padded incidence, extra) of `extend_uniform_overlap`, unit by unit."""
    clusters = cluster_members(partition)
    D = np.empty((space.n, partition.n_clusters))
    for c, members in enumerate(clusters):
        D[:, c] = space.dist[:, members].min(axis=1)
    inc = base.incidence.copy()
    extra = [np.empty(0, dtype=np.int64) for _ in range(space.n)]
    for i in np.flatnonzero(base.phi < base.phi_max):
        need = base.phi_max - base.phi[i]
        candidates = np.flatnonzero(~inc[i])
        order = candidates[np.lexsort((candidates, D[i, candidates]))]
        chosen = order[:need]
        inc[i, chosen] = True
        extra[i] = np.sort(np.concatenate(
            [clusters[c] for c in chosen]))
    return inc, extra
