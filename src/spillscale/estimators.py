"""Point estimators for the average global effect, and their HAC intervals.

Horvitz-Thompson compares units whose whole size-h neighborhood is treated
against units whose whole neighborhood is untreated, inverse-weighted by the
exact saturation probabilities p**phi and (1-p)**phi: a neighborhood is pure
when all phi clusters meeting it share one status.  Hajek renormalizes each
comparison group's weights to sum to one.  OLS regresses outcomes on
the fraction of treated clusters among those meeting each (extended)
neighborhood, and the shrinkage estimator instruments a guess-implied
exposure with that fraction.  Variances come from a spatial HAC sum over
pairs whose slightly inflated neighborhoods share a randomization cluster.

Every estimator is linear in the outcomes with weights that depend only on
the design, so one batched core serves all callers: a `DesignContext` holds
the design-derived arrays, a `DrawBlock` evaluates the estimators on an
n x m block of draws, and the single-draw functions (d constant within
each cluster) are its m = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from statistics import NormalDist

import numpy as np

from . import design
from .design import ClusterPartition, ExtendedNeighborhoods, IncidenceCounts
from .geometry import PremetricSpace
from .outcomes import GuessMatrix

HAC_EPSILON = 0.1               # HAC dependency radius h**(1 + HAC_EPSILON)


class EstimatorUndefinedError(RuntimeError):
    """Draw on which the estimator is undefined; callers record a failure."""

    def __init__(self, reason: str, message: str = ""):
        self.reason = reason
        super().__init__(message or reason)


@dataclass
class EstimateReport:
    estimate: float
    estimator: str
    params: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExposureVector:
    """Fraction of treated clusters among those meeting each neighborhood."""

    T: np.ndarray
    phi_used: int


@dataclass(frozen=True)
class VarianceResult:
    variance_hat: float
    ci: tuple                       # (level, lo, hi)
    truncated: bool                 # negative HAC sum clipped to zero


def _cols(x):
    """Float64 array with draws along the columns (1-D input is one draw)."""
    if x is None:
        return None
    x = np.asarray(x.T if isinstance(x, ExposureVector) else x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def _dot(a, b) -> np.ndarray:
    """Column-wise dot products of two n x m arrays."""
    return np.einsum("im,im->m", a, b)


class DesignContext:
    """Incidence at h, its extension and the dependency graph of one design,
    each computed on first use and kept for one Monte Carlo cell or one
    command; nothing is cached across contexts."""

    def __init__(self, space: PremetricSpace, partition: ClusterPartition,
                 h, p: float, eta: float = 1.0):
        self.space, self.partition = space, partition
        self.h, self.p, self.eta = h, p, eta

    @cached_property
    def extended(self) -> ExtendedNeighborhoods:
        return design.extend_uniform_overlap(self.space, self.partition, self.h)

    @cached_property
    def counts(self) -> IncidenceCounts:
        """Base incidence at h, taken from the extension once that is built."""
        if "extended" in self.__dict__:
            return self.extended.base
        return design.incidence(self.space, self.partition, self.h)

    @cached_property
    def lam(self) -> np.ndarray:
        return dependency_graph(self.space, self.partition, self.h, self.eta)


class DrawBlock:
    """The estimators over m draws of one design, one draw per column.

    Y and D are n x m outcomes and unit treatments, B is C x m cluster bits
    (1-D inputs are one draw); T, when given, replaces the extended-
    neighborhood exposures.  Shared quantities are computed once, on first
    use.  Each estimate is an (m,) array, NaN where the estimator is
    undefined on that draw.
    """

    def __init__(self, ctx: DesignContext | None, Y=None, D=None, B=None,
                 T=None, guess: GuessMatrix | None = None):
        self.ctx, self.guess = ctx, guess
        self.Y, self.D, self.B = _cols(Y), _cols(D), _cols(B)
        if T is not None:
            self.T = _cols(T)
        self.ybar = None if Y is None else self.Y.mean(axis=0)

    @cached_property
    def treated(self) -> np.ndarray:
        """Treated clusters among the phi meeting each size-h neighborhood."""
        return self.ctx.counts.treated(self.B)

    @cached_property
    def pure(self) -> tuple[np.ndarray, np.ndarray]:
        """(saturated, dissaturated): all or none of those clusters treated."""
        return self.ctx.counts.pure(self.treated)

    @cached_property
    def ipw(self) -> tuple[np.ndarray, np.ndarray]:
        """Saturated and dissaturated weights 1/p**phi and 1/(1-p)**phi."""
        sat, dis = self.pure
        phi, p = self.ctx.counts.phi.astype(float)[:, None], self.ctx.p
        return sat * p ** -phi, dis * (1.0 - p) ** -phi

    @cached_property
    def T(self) -> np.ndarray:
        return exposure(self.ctx.partition, self.ctx.extended, self.B).T

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
        s1, s0 = w1.sum(axis=0), w0.sum(axis=0)
        return w1 / np.where(s1 > 0, s1, np.nan) - w0 / np.where(s0 > 0, s0, np.nan)

    @cached_property
    def hajek(self) -> np.ndarray:
        return _dot(self.hajek_weights, self.Y)

    @cached_property
    def var_t(self) -> np.ndarray:
        var = _dot(self.T, self.T) / self.T.shape[0] - self.tbar ** 2
        return np.where(var > 1e-12, var, np.nan)

    @cached_property
    def ols_weights(self) -> np.ndarray:
        return (self.T - self.tbar) / (self.T.shape[0] * self.var_t)

    @cached_property
    def ols(self) -> np.ndarray:
        return self.cov_ty / self.var_t

    @cached_property
    def first_stage(self) -> np.ndarray:
        """Cov(T, A_hat d), NaN where numerically zero."""
        Tg = self.guess.A_hat @ self.D
        cov = _dot(self.T, Tg) / self.T.shape[0] - self.tbar * Tg.mean(axis=0)
        return np.where(np.abs(cov) > 1e-12, cov, np.nan)

    @cached_property
    def shrink(self) -> np.ndarray:
        return self.cov_ty / self.first_stage * (self.guess.A_hat.sum() / self.guess.n)

    def hac(self, w, estimate, T) -> np.ndarray:
        """Unclipped HAC sums e' lam e, e = w (Y - mean(Y) - estimate (T - p))."""
        e = w * (self.Y - self.ybar - estimate * (T - self.ctx.p))
        return _dot(e, self.ctx.lam @ e)

    def variance(self, name: str) -> np.ndarray:
        """HAC sums of the "hajek" or "ols" estimates."""
        if name == "ols":
            return self.hac(self.ols_weights, self.ols, self.T)
        # Hajek centers on its own exposure, the treated share of the
        # clusters meeting the base neighborhood
        T = self.treated / self.ctx.counts.phi[:, None]
        return self.hac(self.hajek_weights, self.hajek, T)


# reason and message of each estimator's one failure mode
UNDEFINED = {
    "hajek": ("undefined_draw",
              "Hajek needs at least one saturated and one dissaturated unit"),
    "ols": ("degenerate_exposure", "exposure has zero sample variance"),
    "shrink": ("weak_instrument", "near-zero first stage Cov(T, A_hat d)"),
}


def _one_draw(values, name: str) -> np.ndarray:
    """The single draw of a block quantity; raises when it is undefined."""
    values = values[..., 0]
    if np.isnan(values).any():
        raise EstimatorUndefinedError(*UNDEFINED[name])
    return values


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


def _pure_comparison(name, Y, d, space, partition, h, p) -> EstimateReport:
    """One draw of "ht" or "hajek", with the purity counts behind it."""
    block = DrawBlock(DesignContext(space, partition, h, p), Y,
                      B=design.cluster_bits(partition, d))
    if name == "hajek":
        _one_draw(block.hajek_weights, name)
    sat, dis = block.pure
    return EstimateReport(
        estimate=float(getattr(block, name)[0]), estimator=name,
        params={"h": float(h), "p": p},
        diagnostics={"phi_max": block.ctx.counts.phi_max,
                     "n_saturated": int(sat.sum()),
                     "n_dissaturated": int(dis.sum())})


def ipw_ht(Y, d, space: PremetricSpace, partition: ClusterPartition,
           h, p: float) -> EstimateReport:
    """Horvitz-Thompson difference in saturation-weighted means.

    Units that are neither saturated nor dissaturated contribute zero, so
    the estimator is defined for every draw.
    """
    return _pure_comparison("ht", Y, d, space, partition, h, p)


def hajek_weights(d, space: PremetricSpace, partition: ClusterPartition,
                  h, p: float) -> np.ndarray:
    """Per-unit weights whose dot with Y is the Hajek estimate."""
    block = DrawBlock(DesignContext(space, partition, h, p),
                      B=design.cluster_bits(partition, d))
    return _one_draw(block.hajek_weights, "hajek")


def hajek(Y, d, space: PremetricSpace, partition: ClusterPartition,
          h, p: float) -> EstimateReport:
    """Group-renormalized IPW: saturated and dissaturated weights each sum to 1."""
    return _pure_comparison("hajek", Y, d, space, partition, h, p)


def exposure(partition: ClusterPartition, extended: ExtendedNeighborhoods,
             b) -> ExposureVector:
    """Mean treatment status among clusters meeting the extended neighborhood."""
    phi = extended.exposure_phi()
    if np.any(phi != extended.phi_target):
        raise ValueError("exposure requires uniform overlap; extend first")
    b = np.asarray(b, dtype=np.float64)
    T = (extended.incidence.astype(np.float64) @ b) / extended.phi_target
    return ExposureVector(T=T, phi_used=int(extended.phi_target))


def ols_weights(T) -> np.ndarray:
    """Per-unit weights whose dot with Y is the OLS estimate."""
    return _one_draw(DrawBlock(None, T=T).ols_weights, "ols")


def ols(Y, T) -> EstimateReport:
    """Regression slope of outcomes on exposures, empirical-covariance form."""
    block = DrawBlock(None, Y, T=T)
    _one_draw(block.var_t, "ols")
    return EstimateReport(estimate=float(block.ols[0]), estimator="ols")


def shrinkage(Y, T, d, guess: GuessMatrix, h=None) -> EstimateReport:
    """Exposure-instrumented regression on guess-implied exposures.

    theta = [Cov(T, Y) / Cov(T, A_hat d)] * (1'A_hat 1 / n); consistent for
    any guess with nonzero total mass, tighter when the guess's split of
    spillovers across the neighborhood boundary matches the truth.
    """
    block = DrawBlock(None, Y, d, T=T, guess=guess)
    first_stage = float(_one_draw(block.first_stage, "shrink"))
    return EstimateReport(estimate=float(block.shrink[0]), estimator="shrink",
                          params={"h": h}, diagnostics={"first_stage": first_stage})


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


def variance_ci(Y, d, T, estimate: float, space: PremetricSpace,
                partition: ClusterPartition, h, eta: float, p: float,
                level: float = 0.95, weights=None,
                estimator: str = None) -> VarianceResult:
    """Spatial HAC variance and normal confidence interval.

    sigma2 = sum over dependent pairs of e_i e_j with
    e_i = w_i (Y_i - mean(Y) - theta_hat (T_i - p)), where w are the weights
    implied by the chosen estimator (pass them, or name "hajek"/"ols").
    The weights carry the 1/n scale, so sigma2 estimates Var(theta_hat)
    directly and the interval is theta_hat +/- z * sqrt(sigma2).
    """
    if weights is None and estimator not in ("hajek", "ols"):
        raise ValueError("pass weights or estimator in {'hajek','ols'}")
    block = DrawBlock(DesignContext(space, partition, h, p, eta),
                      Y, B=design.cluster_bits(partition, d), T=T)
    if weights is None:
        weights = _one_draw(getattr(block, f"{estimator}_weights"), estimator)
    sigma2 = block.hac(_cols(weights), estimate, block.T)[0]
    return interval(estimate, sigma2, level)
