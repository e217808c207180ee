"""Point estimators for the average global effect, and their HAC intervals.

Horvitz-Thompson compares units whose whole size-h neighborhood is treated
against units whose whole neighborhood is untreated, inverse-weighted by the
exact saturation probabilities p**phi and (1-p)**phi: a neighborhood is pure
when all phi clusters meeting it share one status.  Hajek renormalizes each
comparison group's weights to sum to one.  OLS regresses outcomes on
the fraction of treated clusters among those meeting each (extended)
neighborhood, and the shrink estimator instruments a guess-implied
exposure with that fraction.  Variances come from a spatial HAC sum over
pairs whose slightly inflated neighborhoods share a randomization cluster.

Every estimator is linear in the outcomes with weights that depend only on
the design, so one batched core serves all callers: a `DesignContext` holds
the design-derived arrays and a `DrawBlock` evaluates the estimators on an
n x m block of draws, one draw being the case m = 1.  An estimate is NaN on
a draw where the estimator is undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from . import design
from .design import ClusterPartition, ExtendedNeighborhoods, IncidenceCounts
from .geometry import PremetricSpace, row_blocks
from .outcomes import GuessMatrix

HAC_EPSILON = 0.1               # HAC dependency radius h**(1 + HAC_EPSILON)
HAC_ROWS = 64                   # rows per block of the banded HAC sum
WITH_CI = ("hajek", "ols")      # the estimators with a HAC interval


@dataclass(frozen=True)
class VarianceResult:
    variance_hat: float
    ci: tuple                       # (level, lo, hi)
    truncated: bool                 # negative HAC sum clipped to zero


def _cols(x, dtype=np.float64):
    """Array with draws along the columns (1-D input is one draw)."""
    if x is None:
        return None
    x = np.asarray(x, dtype=dtype)
    return x[:, None] if x.ndim == 1 else x


def _dot(a, b) -> np.ndarray:
    """Column-wise dot products of two n x m arrays."""
    return np.einsum("im,im->m", a, b)


@dataclass(frozen=True, eq=False)
class Band:
    """The upper band of a symmetric dependency graph lam, its units in
    `band_order`.  For the k-th block R of HAC_ROWS rows in that order (the
    last one shorter), blocks[k] is lam[R, R.start:stop], where stop is one
    past the last column that a row of R reaches, and at least R.stop; with
    lam's symmetry the blocks hold every nonzero of lam."""

    order: np.ndarray
    blocks: list

    @classmethod
    def of(cls, lam) -> Band:
        order = band_order(lam)
        where = np.empty_like(order)
        where[order] = np.arange(order.size)        # each unit's place in order
        blocks = []
        for rows in row_blocks(order.size, HAC_ROWS):
            reach = lam[order[rows]]
            stop = int(where[reach.any(axis=0)].max(initial=rows.stop - 1)) + 1
            blocks.append(reach[:, order[rows.start:stop]])
        return cls(order=order, blocks=blocks)

    def quadratic(self, e) -> np.ndarray:
        """Column sums e' lam e of an n x m array e whose rows are in band
        order.  lam is symmetric, so each block of rows R adds
        e_R' lam[R, R] e_R and twice e_R' lam[R, R.stop:stop] e[R.stop:stop],
        from one float64 cast of its block, lam[R, R.start:stop]."""
        total = np.zeros(e.shape[1])
        for rows, block in zip(row_blocks(e.shape[0], HAC_ROWS), self.blocks):
            lam = block.astype(np.float64)
            lam[:, rows.stop - rows.start:] *= 2.0
            total += _dot(e[rows], lam @ e[rows.start:rows.start + lam.shape[1]])
            del lam                 # before the next block casts its own
        return total


def band_order(lam) -> np.ndarray:
    """Reverse Cuthill-McKee order of the symmetric boolean graph lam.

    Units with no neighbour but themselves come last, all at once.  Each
    other component is searched breadth first from a pseudo-peripheral
    unit (George & Liu, 1979) with one set of array operations per level,
    and its levels are listed in turn (Cuthill & McKee, 1969), then the
    whole list is reversed.  Every edge then joins units of one level or
    of adjacent levels, so each row's nonzeros lie within a narrow band.
    """
    degree = lam.sum(axis=1, dtype=np.int32) - lam.diagonal()
    seen = degree == 0
    parts = [np.flatnonzero(seen)]
    while not seen.all():
        rest = np.flatnonzero(~seen)
        levels = _levels(lam, degree, rest[np.argmin(degree[rest])], seen)
        while True:
            last = levels[-1]
            deeper = _levels(lam, degree, last[np.argmin(degree[last])], seen)
            if len(deeper) <= len(levels):
                break
            levels = deeper
        parts.extend(levels)
        seen[np.concatenate(levels)] = True
    return np.concatenate(parts)[::-1]


def _levels(lam, degree, root, seen) -> list:
    """Breadth-first levels of root's component among the units not `seen`;
    each level's units ordered by the first unit of the level before that
    neighbours them, then by degree, then by id."""
    seen = seen.copy()
    seen[root] = True
    levels, level = [], np.array([root])
    while level.size:
        levels.append(level)
        rows = lam[level]
        nxt = np.flatnonzero(rows.any(axis=0) & ~seen)
        first = rows[:, nxt].argmax(axis=0)
        level = nxt[np.lexsort((degree[nxt], first))]
        seen[level] = True
    return levels


class DesignContext:
    """Incidence at h, its extension, the dependency graph and the cluster
    sums of one design, each computed on first use and kept for one Monte
    Carlo cell or one command; nothing is cached across contexts."""

    def __init__(self, space: PremetricSpace, partition: ClusterPartition,
                 h, p: float, eta: float = 1.0):
        self.space, self.partition = space, partition
        self.h, self.p, self.eta = h, p, eta
        self._sums = {}             # id(M) -> (M, its cluster sums)

    def cluster_sums(self, M) -> np.ndarray:
        """`design.cluster_sums` of the n x n matrix M over this partition,
        built once per matrix: M is kept beside its sums, so its id is not
        reused while the context lives."""
        if id(M) not in self._sums:
            self._sums[id(M)] = (M, design.cluster_sums(self.partition, M))
        return self._sums[id(M)][1]

    @cached_property
    def extended(self) -> ExtendedNeighborhoods:
        return design.extend_uniform_overlap(self.space, self.partition, self.counts)

    @cached_property
    def counts(self) -> IncidenceCounts:
        return design.incidence(self.space, self.partition, self.h)

    @cached_property
    def band(self) -> Band:
        """The dependency graph's band, the only form of the graph this
        context keeps."""
        return Band.of(dependency_graph(self.space, self.partition, self.h, self.eta))


class DrawBlock:
    """The estimators over m draws of one design, one draw per column.

    Y is n x m outcomes, B is C x m cluster bits kept as float32 (1-D inputs
    are one draw, m = 1) and unit treatments are B[assignment], built where
    read; `guess` serves shrink and `weights` (an `owopt.OwWeightTable`) ow.
    Of the n x m arrays, only those that several estimators read are kept.
    Each estimate is an (m,) array, NaN where undefined.
    """

    def __init__(self, ctx: DesignContext, Y=None, B=None,
                 guess: GuessMatrix | None = None, weights=None):
        self.ctx, self.guess, self.weights = ctx, guess, weights
        self.Y, self.B = _cols(Y), _cols(B, np.float32)
        self.ybar = None if Y is None else self.Y.mean(axis=0)

    @cached_property
    def treated(self) -> np.ndarray:
        """Treated clusters among the phi meeting each size-h neighborhood."""
        return self.ctx.counts.treated(self.B)

    @property
    def pure(self) -> tuple[np.ndarray, np.ndarray]:
        """(saturated, dissaturated): all or none of those clusters treated."""
        return self.ctx.counts.pure(self.treated)

    @cached_property
    def ipw(self) -> tuple[np.ndarray, np.ndarray]:
        """Saturated and dissaturated weights 1/p**phi and 1/(1-p)**phi;
        `hajek_weights` takes them over and renormalizes them in place."""
        sat, dis = self.pure
        phi, p = self.ctx.counts.phi.astype(float)[:, None], self.ctx.p
        return sat * p ** -phi, dis * (1.0 - p) ** -phi

    @cached_property
    def T(self) -> np.ndarray:
        """Exposure: treated share of the clusters meeting each extended
        neighborhood."""
        ext = self.ctx.extended
        return ext.share(ext.treated(self.B))

    @cached_property
    def tbar(self) -> np.ndarray:
        return self.T.mean(axis=0)

    @cached_property
    def cov_ty(self) -> np.ndarray:
        return _dot(self.T, self.Y) / self.T.shape[0] - self.tbar * self.ybar

    @cached_property
    def ht(self) -> np.ndarray:
        w1, w0 = self.ipw
        return _dot(w1 - w0, self.Y) / self.Y.shape[0]

    @cached_property
    def hajek_weights(self) -> np.ndarray:
        """Each group's weights renormalized to sum to 1, NaN if it is empty."""
        w1, w0 = self.ipw
        del self.ipw                # its arrays are overwritten below
        s1, s0 = w1.sum(axis=0), w0.sum(axis=0)
        w1 /= np.where(s1 > 0, s1, np.nan)      # in place, same bits
        w0 /= np.where(s0 > 0, s0, np.nan)
        w1 -= w0
        return w1

    @cached_property
    def hajek(self) -> np.ndarray:
        return _dot(self.hajek_weights, self.Y)

    @cached_property
    def var_t(self) -> np.ndarray:
        var = _dot(self.T, self.T) / self.T.shape[0] - self.tbar ** 2
        return np.where(var > 1e-12, var, np.nan)

    def ols_weights(self, units) -> np.ndarray:
        """(T - tbar) / (n var_t) of the given units, in their order, built on
        each call in one new array."""
        w = self.T[units]
        w -= self.tbar
        w /= self.T.shape[0] * self.var_t
        return w

    @cached_property
    def ols(self) -> np.ndarray:
        return self.cov_ty / self.var_t

    @cached_property
    def first_stage(self) -> np.ndarray:
        """Cov(T, A_hat d), NaN where numerically zero; A_hat d is taken from
        the cluster sums of A_hat and the bits, one float64 cast of a block
        of bit columns at a time (a column's GEMM bits do not depend on the
        split)."""
        sums = self.ctx.cluster_sums(self.guess.A_hat)
        Tg = np.empty((sums.shape[0], self.B.shape[1]))
        for cols in row_blocks(self.B.shape[1]):
            np.matmul(sums, self.B[:, cols].astype(np.float64), out=Tg[:, cols])
        cov = _dot(self.T, Tg) / self.T.shape[0] - self.tbar * Tg.mean(axis=0)
        return np.where(np.abs(cov) > 1e-12, cov, np.nan)

    @cached_property
    def shrink(self) -> np.ndarray:
        """[Cov(T, Y) / Cov(T, A_hat d)] * (1'A_hat 1 / n): consistent for any
        guess with nonzero total mass, tighter when the guess's split of
        spillovers across the neighborhood boundary matches the truth."""
        return self.cov_ty / self.first_stage * self.guess.scale

    @cached_property
    def ow(self) -> np.ndarray:
        """sum_i (2 d_i - 1) W[i, s_tilde_i] Y_i, s_tilde on the weights' levels."""
        idx = design.stilde_indices(self.weights.levels, self.B)
        W = np.take_along_axis(self.weights.W, idx, axis=1)
        return _dot((2.0 * self.B[self.ctx.partition.assignment] - 1.0) * W, self.Y)

    def variance(self, name: str) -> np.ndarray:
        """Unclipped spatial HAC sums e' lam e of a WITH_CI estimator's estimates.

        e = w (Y - mean(Y) - estimate (T - p)) with the estimator's own
        weights w, which carry the 1/n scale, so the sum estimates the
        estimate's variance directly.  OLS centres on its exposure; Hajek on
        the treated share of the clusters meeting the base neighborhood.
        e is built with its rows in the context's band order, one row block
        at a time, by that formula's operations in its order, each starting
        from a gather of the block's rows: every entry has the bits it has
        in unit order, and no other n x m array is made.  The Hajek sum is
        the last reader of `treated` and `hajek_weights` and releases each
        after its read; a later read recomputes it.  `Band.quadratic` then
        sums e' lam e over the band.
        """
        if name not in WITH_CI:
            raise ValueError(f"HAC variance is for {' and '.join(WITH_CI)}, "
                             f"not {name!r}")
        ols = name == "ols"
        band, estimate = self.ctx.band, self.ols if ols else self.hajek
        e = np.empty_like(self.Y)
        for rows in row_blocks(e.shape[0], HAC_ROWS):
            units = band.order[rows]
            c = self.T[units] if ols else self.ctx.counts.share(self.treated, units)
            c -= self.ctx.p
            c *= estimate
            e[rows] = self.Y[units]
            e[rows] -= self.ybar
            e[rows] -= c
            e[rows] *= self.ols_weights(units) if ols else self.hajek_weights[units]
        if not ols:
            del self.treated, self.hajek_weights
        return band.quadratic(e)


# the tag `estimate` writes into fail_flags when the estimator is undefined
UNDEFINED = {"hajek": "undefined_draw", "ols": "degenerate_exposure",
             "shrink": "weak_instrument"}


def half_width(sigma2, level: float):
    """Normal interval half-width z * sqrt(sigma2), negative sums clipped.

    z is the standard normal quantile at 0.5 + level/2, from the standard
    library's `NormalDist.inv_cdf` (Wichura's AS241 algorithm).
    """
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    return z * np.sqrt(np.maximum(sigma2, 0.0))


def interval(estimate: float, sigma2: float, level: float) -> VarianceResult:
    """Variance and normal confidence interval from one unclipped HAC sum."""
    half = half_width(sigma2, level)
    return VarianceResult(variance_hat=max(float(sigma2), 0.0),
                          ci=(level, estimate - half, estimate + half),
                          truncated=bool(sigma2 < 0.0))


def check_hac_window(eta: float):
    """Raise ValueError unless HAC_EPSILON lies in (0, 2*eta/3), i.e. eta >
    0.15: the window in which the inflation keeps the variance estimator
    consistent even for slow decay (eta < 1)."""
    if not 0.0 < HAC_EPSILON < 2.0 * eta / 3.0:
        raise ValueError(f"HAC intervals need eta > {1.5 * HAC_EPSILON:g} "
                         f"(epsilon = {HAC_EPSILON:g} must lie in "
                         f"(0, 2*eta/3)), got eta = {eta:g}")


def dependency_graph(space: PremetricSpace, partition: ClusterPartition,
                     h, eta: float) -> np.ndarray:
    """Pairs whose size-h**(1 + HAC_EPSILON) neighborhoods share a cluster."""
    check_hac_window(eta)
    s_dep = float(h) ** (1.0 + HAC_EPSILON)
    return design.incidence(space, partition, s_dep).shared()
