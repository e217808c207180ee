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
from functools import cached_property

import numpy as np

from .design import IncidenceCounts, stilde_indices
from .geometry import (TAG_TABLES, InterferenceBudget, PremetricSpace, rng_for,
                       row_blocks)
from .oracle import enumerate_assignments

_CHUNK = 1 << 14
QP_TOL = 1e-7                   # solve_qp's convergence residual, read per call
QP_MAX_ITER = 50_000            # solve_qp's iteration cap, read per call


class UnseenSaturationError(ValueError):
    """A unit's size-h neighborhood is never pure in the tables' draws."""


@dataclass(frozen=True, eq=False)
class SaturationTables:
    """Marginal and pairwise saturation-size probabilities on a grid.

    joint rows exist only for unit pairs whose largest-grid neighborhoods
    share a cluster; all other pairs factor exactly into marginal products
    because their saturation sizes depend on disjoint cluster bits.
    """

    grid: np.ndarray                # ascending, grid[0] = floor s0
    pairs: np.ndarray               # (P, 2) unit ids with i <= j
    joint: np.ndarray               # (P, S, S), P(s_tilde_i = s, s_tilde_j = t)

    @cached_property
    def marg(self) -> np.ndarray:
        """n x S, P(s_tilde_i = s): i is in N(i, s), so the self-pairs' diagonals."""
        diag = np.arange(self.n_sizes)
        return self.joint[self.pairs[:, 0] == self.pairs[:, 1]][:, diag, diag]

    @property
    def n(self) -> int:
        return self.marg.shape[0]

    @property
    def n_sizes(self) -> int:
        return self.grid.size


def interacting_pairs(top: IncidenceCounts) -> np.ndarray:
    """Unit pairs i <= j (self included, row-major) meeting a common cluster."""
    return np.argwhere(np.triu(top.shared()))


def effective_grid(space: PremetricSpace, grid) -> np.ndarray:
    """Ascending grid with the saturation floor s0 prepended.

    s0 is the largest size at which every unit's neighborhood is just itself,
    so own treatment status keeps every s_tilde well defined.
    """
    s0 = space.saturation_floor()
    grid = np.asarray(sorted(set(float(s) for s in np.atleast_1d(grid))))
    if np.any(grid <= 0):
        raise ValueError("grid sizes must be positive")
    return np.concatenate([[s0], grid[grid > s0]])


def saturation_tables(ctx, grid, method: str = "mc", mc_draws: int = 100_000,
                      seed: int = 0) -> SaturationTables:
    """Tabulate P(s_tilde_i = s) and interacting-pair joints of the design
    `ctx` (a `DesignContext`), on its incidence at each effective grid size.

    method "exact" enumerates all 2**C cluster assignments (C <= 20) with
    their product-Bernoulli weights; "mc" averages mc_draws seeded draws.
    Beyond its output (and the exact enumeration) it holds one chunk's
    saturation indices, in the narrowest unsigned dtype that holds S - 1,
    and the cluster bits of one column block of draws.
    """
    if not 0.0 < ctx.p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if method == "exact":
        enum = enumerate_assignments(ctx.partition, ctx.p)
        total = enum.count

        def draws(lo, hi):
            return enum.assignments[lo:hi].T, enum.probs[lo:hi]
    elif method == "mc":
        gen = rng_for(seed, TAG_TABLES)
        total = mc_draws

        def draws(lo, hi):
            # called in draw order, so the uniforms continue one Philox
            # stream and the bits do not depend on the block size
            u = gen.uniform(size=(hi - lo, ctx.partition.n_clusters))
            return (u < ctx.p).T, np.full(hi - lo, 1.0 / mc_draws)
    else:
        raise ValueError("method must be 'exact' or 'mc'")
    grid_eff = effective_grid(ctx.space, grid)
    levels = [ctx.level(s) for s in grid_eff]
    S = grid_eff.size
    pairs = interacting_pairs(levels[-1])
    idx_type = np.min_scalar_type(S - 1)
    code_type = np.min_scalar_type(S * S - 1)

    joint = np.zeros((len(pairs), S, S))
    for lo in range(0, total, _CHUNK):
        rows = min(_CHUNK, total - lo)
        # unit-major rows: each unit's draws are one contiguous run
        idx = np.empty((ctx.n, rows), dtype=idx_type)
        w = np.empty(rows)
        for cols in row_blocks(rows):
            bits, w[cols] = draws(lo + cols.start, lo + cols.stop)
            idx[:, cols] = stilde_indices(levels, bits)
        for r, (i, j) in enumerate(pairs.tolist()):
            code = idx[i].astype(code_type) * S + idx[j]
            joint[r] += np.bincount(code, weights=w, minlength=S * S).reshape(S, S)
    return SaturationTables(grid=grid_eff, pairs=pairs, joint=joint)


def objective_kernel(grid: np.ndarray, budget: InterferenceBudget) -> np.ndarray:
    """S x S size kernel 2*ybar^2 + k1^2 (s*t)**-eta of the MSE bound."""
    if np.any(grid <= 0):
        raise ValueError("grid sizes must be positive so (s*t)**-eta is finite")
    decay = grid ** -budget.eta
    return 2.0 * budget.ybar ** 2 + budget.k1 ** 2 * np.outer(decay, decay)


def assemble_objective(tables: SaturationTables, budget: InterferenceBudget) -> np.ndarray:
    """Dense quadratic form over (unit, size) index pairs.

    Entry [(i,s),(j,t)] is P(s_tilde_i = s, s_tilde_j = t) * kernel(s, t);
    non-interacting pairs use the exact factorization into marginals.  Q is
    exactly symmetric, each pair's block being written with its transpose.
    """
    k = objective_kernel(tables.grid, budget)
    n, S = tables.marg.shape
    u = tables.marg.reshape(-1)
    Q = np.tile(k, (n, n)) * np.outer(u, u)
    for r, (i, j) in enumerate(tables.pairs):
        block = tables.joint[r] * k
        Q[i * S:(i + 1) * S, j * S:(j + 1) * S] = block
        Q[j * S:(j + 1) * S, i * S:(i + 1) * S] = block.T
    return Q


@dataclass
class OwWeightTable:
    """Nonnegative weight table; realized weight is (2 d_i - 1) W[i, s_idx]."""

    W: np.ndarray                   # n x S
    grid: np.ndarray | None         # the effective sizes W was solved on
    objective_value: float
    iterations: int
    kkt_residual: float
    converged: bool
    polish_adopted: int = 0         # active-set candidates solve_qp moved to


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
        raise UnseenSaturationError(f"unit {np.argmax(cover <= 0.0)} never has a "
                                    f"pure size-h neighborhood in the tables' draws")
    W = mask.astype(float)[None, :] / (p * tables.n * cover)[:, None]
    return OwWeightTable(W=W, grid=tables.grid, objective_value=np.nan,
                         iterations=0, kkt_residual=np.nan, converged=True)


def _row_projector(M: np.ndarray, r: float):
    """Row-wise Euclidean projection onto {w >= 0, sum_s M[i,s] w[s] = r},
    as a function of V with the arrays that depend on M alone built once.

    Water-filling with exact breakpoints: w = max(0, v - lam*m) with the
    per-row lam solving the equality.  Coordinates with m = 0 are free and
    only clipped at zero.
    """
    M = np.asarray(M, dtype=float)
    n, S = M.shape
    pos = M > 0
    safe = np.where(pos, M, 1.0)
    mm = (M * M).ravel()
    rows = np.arange(n)
    offsets = S * rows[:, None]
    tail = np.full((n, 1), -np.inf)

    def project(V):
        V = np.asarray(V, dtype=float).reshape(n, S)
        beta = np.where(pos, V / safe, -np.inf)
        flat = np.argsort(-beta, axis=1) + offsets
        beta_s = beta.ravel()[flat]
        cum_mv = np.cumsum((M * V).ravel()[flat], axis=1)
        cum_mm = np.cumsum(mm[flat], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam_k = (cum_mv - r) / cum_mm
        # the mass sum_s m_s max(0, v_s - lam m_s) falls as lam grows, so
        # lam lies on the first segment whose own solution is at or above
        # the next breakpoint; the last segment's lower end is -inf
        lower = np.concatenate([beta_s[:, 1:], tail], axis=1)
        valid = (lam_k >= lower) & (cum_mm > 0)
        lam = lam_k[rows, np.argmax(valid, axis=1)]
        return np.maximum(0.0, V - lam[:, None] * M)

    return project


def _power_lmax(Q: np.ndarray) -> float:
    """Largest eigenvalue of PSD Q by 60 power iterations from a seed-0 start."""
    v = rng_for(0, TAG_TABLES).standard_normal(Q.shape[0])
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(60):
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


def _active_set_polish(Q, marg, r, w_proj, S):
    """Primal-dual active-set refinement seeded by a projected iterate.

    Coordinates the projection pinned at zero start active.  Each round
    solves the equality-constrained problem on the free set exactly, moves
    newly negative coordinates back to the active set, and releases active
    coordinates whose KKT multiplier comes out negative, for at most 12
    rounds.  Returns a feasible candidate (clipped at zero) or None.
    """
    n = marg.shape[0]
    flat_m = marg.reshape(-1)
    usable = flat_m > 0
    free = (w_proj > 1e-14) & usable
    best = None
    for _ in range(12):
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


def solve_qp(Q: np.ndarray, marg: np.ndarray, p: float,
             warm_start: np.ndarray = None) -> OwWeightTable:
    """Minimize w'Qw over the per-unit constraint polytope.

    Accelerated projected gradient with gradient-scheme restarts, run on the
    Jacobi-preconditioned variable sqrt(diag Q) * w (diag entries span many
    orders of magnitude because they carry saturation probabilities), with
    periodic exact active-set refinements.  A final monotone projected
    gradient pass guarantees the returned objective never exceeds the warm
    start's.  Non-convergence is reported on the result, never silent.
    Raises ValueError when a row or column of Q whose diagonal is not
    positive has a nonzero entry, which no PSD Q has.
    """
    n, S = marg.shape
    r = 1.0 / (p * n)
    if warm_start is None:
        start = np.zeros_like(marg)
    else:
        start = np.asarray(warm_start, dtype=float).reshape(n, S)

    # preconditioned variable x = sd * w.  A (unit, size) whose event never
    # occurs has a zero diagonal and, Q being PSD, a zero row and column:
    # the matvecs run on the support block of the positive diagonal and
    # write the zero products off it, where the unit scale is inert
    dq = np.diag(Q).copy()
    off = ~(dq > 0)
    nonzero = Q != 0
    if nonzero[off].any() or nonzero[:, off].any():
        raise ValueError("Q has a nonzero entry in a row or column whose "
                         "diagonal is not positive; Q must be PSD")
    sd = np.sqrt(np.where(off, 1.0, dq))
    Qt = np.outer(sd, sd)                   # then Q / outer(sd, sd), in place
    np.divide(Q, Qt, out=Qt)
    supp = np.flatnonzero(~off)
    Qs = Qt[np.ix_(supp, supp)]
    mt = (marg.reshape(-1) / sd).reshape(n, S)
    project = _row_projector(mt, r)

    def matvec(xv):
        qv = np.zeros_like(xv)
        qv[supp] = Qs @ xv[supp]
        return qv

    def proj_x(xv):
        return project(xv).reshape(-1)

    lmax = _power_lmax(Qs)
    step = 1.0 / max(2.0 * lmax, 1e-30)

    def residual_x(xv, qv):
        return float(np.max(np.abs(xv - proj_x(xv - step * 2.0 * qv))) / step)

    # one matvec per iteration: qx = Qt @ x is carried, the momentum point's
    # product follows by linearity, and x @ qx is the objective w'Qw
    x = proj_x(start.reshape(-1) * sd)
    qx = matvec(x)
    best_x = x
    best_f = float(x @ qx)
    y, qy = x, qx
    t = 1.0
    it = 0
    adopted = 0
    res = residual_x(x, qx)
    while res > QP_TOL and it < QP_MAX_ITER:
        it += 1
        x_new = proj_x(y - step * 2.0 * qy)
        qx_new = matvec(x_new)
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
            if res > QP_TOL and it % 1000 == 0:
                # projected step identifies the active face; refine on it
                x_probe = proj_x(x - step * 2.0 * qx)
                cand = _active_set_polish(Qt, mt, r, x_probe, S)
                if cand is not None:
                    q_cand = matvec(cand)
                    f_cand = float(cand @ q_cand)
                    if f_cand <= best_f + 1e-12 * abs(best_f):
                        cand_res = residual_x(cand, q_cand)
                        if cand_res < res:
                            x, qx = cand, q_cand
                            y, qy = cand, q_cand
                            t = 1.0
                            res = cand_res
                            adopted += 1
                        if f_cand < best_f:
                            best_f = f_cand
                            best_x = cand
    # monotone tail from the best point: plain projected-gradient descent,
    # so the returned objective never exceeds the warm start's
    if x @ qx > best_f:
        x = best_x
        qx = matvec(x)
        res = residual_x(x, qx)
    while res > QP_TOL and it < QP_MAX_ITER:
        it += 1
        x = proj_x(x - step * 2.0 * qx)
        qx = matvec(x)
        if it % 50 == 0:
            res = residual_x(x, qx)
    res = residual_x(x, qx)
    w = x / sd
    return OwWeightTable(W=w.reshape(n, S), grid=None,
                         objective_value=float(w @ (Q @ w)), iterations=it,
                         kkt_residual=res, converged=res <= QP_TOL,
                         polish_adopted=adopted)


def optimize_weights(ctx, grid, budget: InterferenceBudget, method: str = "mc",
                     mc_draws: int = 100_000, seed: int = 0):
    """Full pipeline for the design `ctx`: tables -> objective -> QP solve
    warm-started at the IPW weights of the context's h and p.

    Returns (tables, ipw_table, ow_table); both weight tables share the
    tables' effective grid.
    """
    tables = saturation_tables(ctx, grid, method=method, mc_draws=mc_draws, seed=seed)
    Q = assemble_objective(tables, budget)
    start = ipw_weight_table(tables, ctx.h, ctx.p)
    start.objective_value = float(start.W.reshape(-1) @ (Q @ start.W.reshape(-1)))
    ow = solve_qp(Q, tables.marg, ctx.p, warm_start=start.W)
    ow.grid = tables.grid
    return tables, start, ow


def default_ow_grid(h: float) -> list:
    """Size grid h * 2**k for k = -5..2 (the floor is added downstream)."""
    return [float(h) * 2.0 ** k for k in range(-5, 3)]
