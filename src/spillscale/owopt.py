"""Optimized outcome weighting over saturation sizes.

Weights are per-unit functions of the largest grid size at which the unit's
neighborhood is fully treated or fully untreated, odd in own treatment
status.  The mean-squared-error bound they minimize is a quadratic form in
the weight table whose coefficients are joint saturation-size probabilities,
all computable from the design alone (exactly by enumerating cluster
assignments, or by Monte Carlo).  The constrained minimization runs by
projected gradient descent over per-unit scaled simplices, warm-started at
the inverse-probability weights, which are a feasible point of the class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import (TAG_TABLES, ClusterPartition, IncidenceCounts,
                     cluster_bits, incidence, rng_for)
from .estimators import EstimateReport, _cols, effective_grid
from .geometry import InterferenceBudget, PremetricSpace
from .oracle import enumerate_assignments

_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class SaturationTables:
    """Marginal and pairwise saturation-size probabilities on a grid.

    joint rows exist only for unit pairs whose largest-grid neighborhoods
    share a cluster; all other pairs factor exactly into marginal products
    because their saturation sizes depend on disjoint cluster bits.
    """

    grid: np.ndarray                # ascending, grid[0] = floor s0
    marg: np.ndarray                # n x S, P(s_tilde_i = s)
    pairs: np.ndarray               # (P, 2) unit ids with i <= j
    joint: np.ndarray               # (P, S, S), P(s_tilde_i = s, s_tilde_j = t)
    levels: list                    # IncidenceCounts at each grid size

    @property
    def n(self) -> int:
        return self.marg.shape[0]

    @property
    def n_sizes(self) -> int:
        return self.grid.size


def stilde_indices(levels: list, B) -> np.ndarray:
    """Saturation-size grid index per unit and draw (n x m) for C x m bits B
    and the grid sizes' incidence `levels`: purity is monotone down the grid,
    so the index is the last level before the first impure one."""
    B = np.asarray(B, dtype=np.float64)
    idx = np.zeros((levels[0].phi.size, B.shape[1]), dtype=np.int64)
    alive = np.ones(idx.shape, dtype=bool)
    for k, level in enumerate(levels):
        sat, dis = level.pure(level.treated(B))
        alive &= sat | dis
        idx[alive] = k
    return idx


def interacting_pairs(top: IncidenceCounts) -> np.ndarray:
    """Unit pairs i <= j (self included, row-major) meeting a common cluster."""
    return np.argwhere(np.triu(top.shared()))


def saturation_tables(space: PremetricSpace, partition: ClusterPartition,
                      grid, p: float, method: str = "mc",
                      mc_draws: int = 100_000, seed: int = 0) -> SaturationTables:
    """Tabulate P(s_tilde_i = s) and interacting-pair joints.

    method "exact" enumerates all 2**C cluster assignments (C <= 20) with
    their product-Bernoulli weights; "mc" averages mc_draws seeded draws.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    grid_eff = effective_grid(space, grid)
    levels = [incidence(space, partition, s) for s in grid_eff]
    S = grid_eff.size
    pairs = interacting_pairs(levels[-1])

    if method == "exact":
        enum = enumerate_assignments(partition, p)
        B_all, weights_all = enum.assignments, enum.probs
    elif method == "mc":
        gen = rng_for(seed, TAG_TABLES)
        B_all = (gen.uniform(size=(mc_draws, partition.n_clusters)) < p).astype(np.int8)
        weights_all = np.full(mc_draws, 1.0 / mc_draws)
    else:
        raise ValueError("method must be 'exact' or 'mc'")

    joint = np.zeros((len(pairs), S, S))
    for lo in range(0, B_all.shape[0], _CHUNK):
        w = weights_all[lo:lo + _CHUNK]
        # unit-major rows: each unit's draws are one contiguous run
        idx = stilde_indices(levels, B_all[lo:lo + _CHUNK].T)
        hi = idx * S
        for r, (i, j) in enumerate(pairs.tolist()):
            code = hi[i] + idx[j]
            joint[r] += np.bincount(code, weights=w, minlength=S * S).reshape(S, S)
    # i is in N(i, s): each unit's marginal is its self-pair joint's diagonal
    marg = joint[pairs[:, 0] == pairs[:, 1]][:, np.arange(S), np.arange(S)]
    return SaturationTables(grid=grid_eff, marg=marg, pairs=pairs, joint=joint,
                            levels=levels)


def objective_kernel(grid: np.ndarray, budget: InterferenceBudget) -> np.ndarray:
    """S x S size kernel 2*K^2 + k1^2 (s*t)**-eta of the MSE bound."""
    if np.any(grid <= 0):
        raise ValueError("grid sizes must be positive so (s*t)**-eta is finite")
    decay = grid ** -budget.eta
    return 2.0 * budget.k_effects ** 2 + budget.k1 ** 2 * np.outer(decay, decay)


def assemble_objective(tables: SaturationTables, budget: InterferenceBudget) -> np.ndarray:
    """Dense quadratic form over (unit, size) index pairs.

    Entry [(i,s),(j,t)] is P(s_tilde_i = s, s_tilde_j = t) * kernel(s, t);
    non-interacting pairs use the exact factorization into marginals.
    """
    k = objective_kernel(tables.grid, budget)
    n, S = tables.marg.shape
    u = tables.marg.reshape(-1)
    Q = np.tile(k, (n, n)) * np.outer(u, u)
    for r, (i, j) in enumerate(tables.pairs):
        block = tables.joint[r] * k
        Q[i * S:(i + 1) * S, j * S:(j + 1) * S] = block
        Q[j * S:(j + 1) * S, i * S:(i + 1) * S] = block.T
    return 0.5 * (Q + Q.T)


@dataclass
class OwWeightTable:
    """Nonnegative weight table; realized weight is (2 d_i - 1) W[i, s_idx]."""

    W: np.ndarray                   # n x S
    grid: np.ndarray
    objective_value: float
    iterations: int
    kkt_residual: float
    converged: bool
    p: float

    def constraint_gap(self, marg: np.ndarray, n: int) -> float:
        lhs = np.sum(self.W * marg, axis=1)
        return float(np.max(np.abs(lhs - 1.0 / (self.p * n))))


def reaches_h(sizes, h):
    """Whether each size is at least the estimator size h, to 1e-12 relative."""
    return np.asarray(sizes) >= float(h) * (1.0 - 1e-12)


def ipw_weight_table(tables: SaturationTables, h, p: float) -> OwWeightTable:
    """Inverse-probability weights expressed over the saturation grid.

    W[i, s] = const_i * 1{s >= h}, scaled per unit so sum_s W[i,s] marg[i,s]
    equals 1/(p n) exactly against the supplied tables.  This is the
    feasible warm start; at p = 1/2 it reproduces the Horvitz-Thompson
    estimator draw for draw.
    """
    mask = reaches_h(tables.grid, h)
    if not mask.any():
        raise ValueError("grid must reach the estimator size h")
    cover = (tables.marg * mask).sum(axis=1)
    if np.any(cover <= 0.0):
        raise ValueError("some unit never has a pure size-h neighborhood "
                         "under the tables; enlarge mc_draws or the grid")
    W = mask.astype(float)[None, :] / (p * tables.n * cover)[:, None]
    return OwWeightTable(W=W, grid=tables.grid, objective_value=np.nan,
                         iterations=0, kkt_residual=np.nan, converged=True,
                         p=float(p))


def project_rows(V: np.ndarray, M: np.ndarray, r: float) -> np.ndarray:
    """Row-wise Euclidean projection onto {w >= 0, sum_s M[i,s] w[s] = r}.

    Water-filling with exact breakpoints: w = max(0, v - lam*m) with the
    per-row lam solving the equality.  Coordinates with m = 0 are free and
    only clipped at zero.
    """
    V = np.asarray(V, dtype=float)
    M = np.asarray(M, dtype=float)
    n, S = V.shape
    beta = np.where(M > 0, V / np.where(M > 0, M, 1.0), -np.inf)
    rows = np.arange(n)
    flat = np.argsort(-beta, axis=1) + S * rows[:, None]
    beta_s = beta.ravel()[flat]
    mv_s = (M * V).ravel()[flat]
    mm_s = (M * M).ravel()[flat]
    cum_mv = np.cumsum(mv_s, axis=1)
    cum_mm = np.cumsum(mm_s, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_k = (cum_mv - r) / cum_mm
    # the mass sum_s m_s max(0, v_s - lam m_s) falls as lam grows, so lam
    # lies on the first segment whose own solution is at or above the next
    # breakpoint; the last segment's lower end is -inf
    lower = np.concatenate([beta_s[:, 1:], np.full((n, 1), -np.inf)], axis=1)
    valid = (lam_k >= lower) & (cum_mm > 0)
    first = np.argmax(valid, axis=1)
    lam = lam_k[rows, first]
    return np.maximum(0.0, V - lam[:, None] * M)


def _power_lmax(Q: np.ndarray, iters: int = 60, seed: int = 0) -> float:
    gen = rng_for(seed, TAG_TABLES)
    v = gen.standard_normal(Q.shape[0])
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = Q @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 1.0
        lam = nw
        v = w / nw
    return float(lam)


def _active_set_solve(Q, marg, r, free, S):
    """Equality-constrained exact solve with the complement pinned at zero.

    Returns the stacked candidate (zeros on pinned coords) or None when the
    linear solve cannot satisfy the per-unit constraints.
    """
    n = marg.shape[0]
    flat_m = marg.reshape(-1)
    idx = np.flatnonzero(free)
    if idx.size == 0:
        return None
    nf = idx.size
    A = np.zeros((n, nf))
    A[idx // S, np.arange(nf)] = flat_m[idx]
    if not A.any(axis=1).all():        # some unit has no free coordinate
        return None
    kkt = np.zeros((nf + n, nf + n))
    kkt[:nf, :nf] = 2.0 * Q[np.ix_(idx, idx)]
    kkt[:nf, nf:] = A.T
    kkt[nf:, :nf] = A
    rhs = np.concatenate([np.zeros(nf), np.full(n, r)])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    cand = np.zeros_like(flat_m, dtype=float)
    cand[idx] = sol[:nf]
    lhs = (cand.reshape(n, S) * marg).sum(axis=1)
    if np.max(np.abs(lhs - r)) > 1e-9 * max(r, 1.0):
        return None
    return cand


def _active_set_polish(Q, marg, r, w_proj, S, rounds: int = 12):
    """Primal-dual active-set refinement seeded by a projected iterate.

    Coordinates the projection pinned at zero start active.  Each round
    solves the equality-constrained problem on the free set exactly, moves
    newly negative coordinates back to the active set, and releases active
    coordinates whose KKT multiplier comes out negative.  Returns a
    feasible candidate (clipped at zero) or None.
    """
    n = marg.shape[0]
    flat_m = marg.reshape(-1)
    usable = flat_m > 0
    free = (w_proj > 1e-14) & usable
    best = None
    for _ in range(rounds):
        cand = _active_set_solve(Q, marg, r, free, S)
        if cand is None:
            return best
        neg = cand < -1e-12
        if neg.any():
            free &= ~neg
            continue
        cand = np.maximum(cand, 0.0)
        g = 2.0 * (Q @ cand)
        # per-unit multiplier from the free coords (g = lam * m at optimum)
        gm = np.where(free, g * flat_m, 0.0).reshape(n, S).sum(axis=1)
        mm = np.where(free, flat_m * flat_m, 0.0).reshape(n, S).sum(axis=1)
        lam = gm / np.where(mm > 0, mm, 1.0)
        mu = g - np.repeat(lam, S) * flat_m
        best = cand
        blocked = usable & ~free & (mu < -1e-10 * max(1.0, np.abs(g).max()))
        if not blocked.any():
            return cand
        release = np.argmin(np.where(blocked, mu, np.inf))
        free[release] = True
    return best


def solve_qp(Q: np.ndarray, marg: np.ndarray, p: float, n: int,
             warm_start: np.ndarray = None, max_iter: int = 50_000,
             tol: float = 1e-7) -> OwWeightTable:
    """Minimize w'Qw over the per-unit constraint polytope.

    Accelerated projected gradient with gradient-scheme restarts, run on the
    Jacobi-preconditioned variable sqrt(diag Q) * w (diag entries span many
    orders of magnitude because they carry saturation probabilities), with
    periodic exact active-set refinements.  A final monotone projected
    gradient pass guarantees the returned objective never exceeds the warm
    start's.  Non-convergence is reported on the result, never silent.
    """
    S = marg.shape[1]
    r = 1.0 / (p * n)
    if warm_start is None:
        start = np.zeros_like(marg)
    else:
        start = np.asarray(warm_start, dtype=float).reshape(n, S)

    # preconditioned variable x = sd * w; a PSD row with zero diagonal is a
    # zero row, so the unit scale placeholder is inert there
    dq = np.diag(Q).copy()
    sd = np.sqrt(np.where(dq > 0, dq, 1.0))
    Qt = Q / np.outer(sd, sd)
    mt = (marg.reshape(-1) / sd).reshape(n, S)

    def proj_x(xv):
        return project_rows(xv.reshape(n, S), mt, r).reshape(-1)

    lmax = _power_lmax(Qt)
    step = 1.0 / max(2.0 * lmax, 1e-30)

    def residual_x(xv, qv):
        return float(np.max(np.abs(xv - proj_x(xv - step * 2.0 * qv))) / step)

    # one matvec per iteration: qx = Qt @ x is carried, the momentum point's
    # product follows by linearity, and x @ qx is the objective w'Qw
    x = proj_x(start.reshape(-1) * sd)
    qx = Qt @ x
    best_x = x
    best_f = float(x @ qx)
    y, qy = x, qx
    t = 1.0
    it = 0
    res = residual_x(x, qx)
    while res > tol and it < max_iter:
        it += 1
        x_new = proj_x(y - step * 2.0 * qy)
        qx_new = Qt @ x_new
        if (y - x_new) @ (x_new - x) > 0.0:   # momentum points uphill
            y, qy = x_new, qx_new
            t = 1.0
        else:
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            y = x_new + beta * (x_new - x)
            qy = qx_new + beta * (qx_new - qx)
            t = t_new
        x, qx = x_new, qx_new
        f_new = float(x @ qx)
        if f_new < best_f:
            best_f = f_new
            best_x = x
        if it % 50 == 0:
            res = residual_x(x, qx)
            if res > tol and it % 1000 == 0:
                # projected step identifies the active face; refine on it
                x_probe = proj_x(x - step * 2.0 * qx)
                cand = _active_set_polish(Qt, mt, r, x_probe, S)
                if cand is not None:
                    q_cand = Qt @ cand
                    f_cand = float(cand @ q_cand)
                    if f_cand <= best_f + 1e-12 * abs(best_f):
                        cand_res = residual_x(cand, q_cand)
                        if cand_res < res:
                            x, qx = cand, q_cand
                            y, qy = cand, q_cand
                            t = 1.0
                            res = cand_res
                        if f_cand < best_f:
                            best_f = f_cand
                            best_x = cand
    # monotone tail from the best point: plain projected-gradient descent,
    # so the returned objective never exceeds the warm start's
    if x @ qx > best_f:
        x = best_x
        qx = Qt @ x
        res = residual_x(x, qx)
    while res > tol and it < max_iter:
        it += 1
        x = proj_x(x - step * 2.0 * qx)
        qx = Qt @ x
        if it % 50 == 0:
            res = residual_x(x, qx)
    res = residual_x(x, qx)
    w = x / sd
    return OwWeightTable(W=w.reshape(n, S), grid=None,
                         objective_value=float(w @ (Q @ w)), iterations=it,
                         kkt_residual=res, converged=res <= tol, p=float(p))


def optimize_weights(space: PremetricSpace, partition: ClusterPartition,
                     grid, p: float, budget: InterferenceBudget, h,
                     method: str = "mc", mc_draws: int = 100_000,
                     seed: int = 0, max_iter: int = 50_000,
                     tol: float = 1e-7):
    """Full pipeline: tables -> objective -> warm-started QP solve.

    Returns (tables, ipw_table, ow_table); both weight tables share the
    tables' effective grid.
    """
    tables = saturation_tables(space, partition, grid, p, method=method,
                               mc_draws=mc_draws, seed=seed)
    Q = assemble_objective(tables, budget)
    start = ipw_weight_table(tables, h, p)
    start.objective_value = float(start.W.reshape(-1) @ (Q @ start.W.reshape(-1)))
    ow = solve_qp(Q, tables.marg, p, space.n, warm_start=start.W,
                  max_iter=max_iter, tol=tol)
    ow.grid = tables.grid
    return tables, start, ow


def default_ow_grid(h: float) -> list:
    """Size grid h * 2**k for k = -5..2 (the floor is added downstream)."""
    return [float(h) * 2.0 ** k for k in range(-5, 3)]


def ow_estimates(weights: OwWeightTable, idx, D, Y) -> np.ndarray:
    """sum_i (2 d_i - 1) W[i, s_tilde_i] Y_i per draw; idx, D, Y are n x m."""
    rows = np.arange(weights.W.shape[0])[:, None]
    w_real = (2.0 * D - 1.0) * weights.W[rows, idx]
    return np.einsum("im,im->m", w_real, Y)


def ow_estimate(Y, d, partition: ClusterPartition, tables: SaturationTables,
                weights: OwWeightTable) -> EstimateReport:
    """Weighted outcome sum sum_i (2 d_i - 1) W[i, s_tilde_i] Y_i of one
    draw: the m = 1 case of `ow_estimates`, with the saturation sizes read
    off the tables' levels.  d must be constant within each cluster."""
    if weights.grid is None or tables.grid.size != weights.grid.size or \
            not np.allclose(tables.grid, weights.grid):
        raise ValueError("saturation tables and weight table use different grids")
    idx = stilde_indices(tables.levels, cluster_bits(partition, d)[:, None])
    est = ow_estimates(weights, idx, _cols(d), _cols(Y))[0]
    return EstimateReport(estimate=float(est), estimator="ow",
                          params={"grid_size": int(weights.grid.size)},
                          diagnostics={"objective": weights.objective_value})
