"""Potential-outcome engines: the linear spillover model, the simulation DGP
and the researcher's guess.

Under linearity, Y_i(d) = beta0 + A_i d + eps_i with a deterministic residual
that sums to zero, and the average global effect is 1'A1/n.  The simulation
DGP places spillovers proportional to (dist+1)**-4, normalized so the
estimand equals 2 in every population, with spatially autocorrelated noise
drawn once per population.  The guess is a model of the same type, with
beta0 = 0 and eps = 0: `realize` of it is the shrink estimator's guessed
exposure, and its theta that estimator's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import ClusterPartition, cluster_sums
from .geometry import (TAG_DGP, TAG_GUESS, InterferenceBudget, PremetricSpace,
                       fit_interference_constant, rng_for, row_blocks)


class OutcomeModelError(ValueError):
    """Degenerate outcome-model construction."""


@dataclass(frozen=True, eq=False)
class LinearOutcomes:
    """Y_i(d) = beta0 + A_i d + eps_i with sum(eps) = 0: d holds unit
    treatments and A is n x n, or d holds a partition's cluster bits and A
    is the n x C cluster sums of the n x n A (`over`).  theta, the estimand
    1'A1/n of the n x n A, is taken from A when not given."""

    beta0: float
    A: np.ndarray
    eps: np.ndarray
    theta: float | None = None

    def __post_init__(self):
        if abs(float(self.eps.sum())) > 1e-9 * self.n:
            raise OutcomeModelError("residuals must sum to zero")
        if self.theta is None:
            object.__setattr__(self, "theta", float(self.A.sum() / self.n))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def over(self, partition: ClusterPartition) -> LinearOutcomes:
        """The same outcomes of the partition's cluster bits, beta0, eps
        and theta kept, so that the n x n A can be released."""
        return LinearOutcomes(self.beta0, cluster_sums(partition, self.A),
                              self.eps, self.theta)


def decay_kernel(space: PremetricSpace, scale: float, exponent: float,
                 noise=None) -> np.ndarray:
    """Spillover kernel (scale*dist + 1)**-exponent, times noise(shape) one
    row block at a time (draws in row-major order) when given, normalized so
    1'K1/n = 2; built in place in one n x n array."""
    K = np.multiply(space.dist, scale)
    K += 1.0
    K **= -exponent
    if noise is not None:
        for rows in row_blocks(space.n):
            K[rows] *= noise(K[rows].shape)
    total = K.sum()
    K *= 2.0
    K *= space.n
    K /= total
    return K


def make_sim_dgp(space: PremetricSpace, seed: int) -> LinearOutcomes:
    """Simulation outcome model on the given population.

    A = decay_kernel(space, 1, 4), residuals (sqrt(n)/||A||_F) * A @ e
    with e i.i.d. standard normal drawn once from the population seed and
    then re-centered to sum exactly to zero.  The estimand is 2 by
    normalization.
    """
    n = space.n
    A = decay_kernel(space, 1.0, 4.0)
    gen = rng_for(seed, TAG_DGP)
    e = gen.standard_normal(n)
    eps = (np.sqrt(n) / np.linalg.norm(A, "fro")) * (A @ e)
    eps = eps - eps.mean()
    return LinearOutcomes(beta0=0.0, A=A, eps=eps)


def make_guess(space: PremetricSpace, seed: int) -> LinearOutcomes:
    """Noisy, structurally wrong but decay-respecting guess for A, as the
    linear outcomes it implies with beta0 = 0 and eps = 0.

    Its A is decay_kernel(space, 1.1, 4.25) with each entry times an i.i.d.
    Uniform(0.9, 1) factor from the seed's stream, so its theta, the shrink
    estimator's scale, is 2 exactly, like the true matrix's.
    """
    gen = rng_for(seed, TAG_GUESS)
    A = decay_kernel(space, 1.1, 4.25, lambda shape: gen.uniform(0.9, 1.0, size=shape))
    return LinearOutcomes(0.0, A, np.zeros(space.n))


def realize(outcomes: LinearOutcomes, d) -> np.ndarray:
    """Outcome vector under the treatment d, or an n x m block of them, one
    treatment per column: unit treatments (n or n x m), or cluster bits
    (C or C x m) when the outcomes are over a partition, whose n x C product
    stands in for an n x n one."""
    A = outcomes.A
    d = np.asarray(d)
    if d.shape[:1] != (A.shape[1],) or d.ndim > 2:
        raise ValueError(f"treatment must have shape ({A.shape[1]},) or "
                         f"({A.shape[1]}, m)")
    Ad = A @ d.astype(float, copy=False)
    np.add(Ad.T, outcomes.eps + outcomes.beta0, out=Ad.T)    # offset of each row
    return Ad


def sim_budget(outcomes: LinearOutcomes, space: PremetricSpace, eta: float,
               s_grid) -> InterferenceBudget:
    """Fit the decay/bound constants realized by a linear outcome model of
    unit treatments."""
    k1 = fit_interference_constant(outcomes.A, space, eta, s_grid)
    row_mass = np.abs(outcomes.A).sum(axis=1)
    ybar = float(np.max(abs(outcomes.beta0) + row_mass + np.abs(outcomes.eps)))
    return InterferenceBudget(eta=eta, k1=max(k1, 1e-12), ybar=ybar)
