"""Exact brute-force computations on small instances.

Enumerating all 2**C cluster assignments with their product-Bernoulli
probabilities turns expectations, MSEs, and saturation tables into finite
sums, giving ground truth for the randomized machinery.  Capped at C <= 20
(about a million assignments) to keep exact suites fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import ClusterPartition

MAX_EXACT_CLUSTERS = 20
BLOCK = 4096                    # assignments per call of an expectation's fn


class EnumerationError(ValueError):
    """Exact enumeration requested beyond the cluster-count cutoff."""


@dataclass(frozen=True, eq=False)
class AssignmentEnumeration:
    """Every cluster assignment with its exact probability."""

    assignments: np.ndarray         # 2**C x C bits
    probs: np.ndarray               # p**treated * (1-p)**untreated
    p: float

    @property
    def count(self) -> int:
        return self.assignments.shape[0]


def enumerate_assignments(partition: ClusterPartition, p: float) -> AssignmentEnumeration:
    """Every 2**C bit-vector in integer order (bit c = cluster c), with its
    product-Bernoulli probability."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    C = partition.n_clusters
    if C > MAX_EXACT_CLUSTERS:
        raise EnumerationError(
            f"exact enumeration needs C <= {MAX_EXACT_CLUSTERS} clusters, "
            f"got C = {C}")
    codes = np.arange(2 ** C, dtype=np.int64)
    bits = np.empty((codes.size, C), dtype=np.int8)
    for c in range(C):      # column by column: no 2**C x C int64 intermediate
        bits[:, c] = (codes >> c) & 1
    k = bits.sum(axis=1).astype(float)
    # log-space keeps tiny probabilities stable before the final exp
    probs = np.exp(k * np.log(p) + (C - k) * np.log1p(-p))
    return AssignmentEnumeration(assignments=bits, probs=probs, p=float(p))


@dataclass(frozen=True)
class ExactExpectation:
    """Conditional mean over the assignments where fn was defined."""

    mean: float
    p_defined: float


def exact_expectation(fn, enumeration: AssignmentEnumeration) -> ExactExpectation:
    """E[fn(B)] by direct summation over every assignment.

    fn is called once per block of BLOCK consecutive rows of
    ``enumeration.assignments``: it maps an m x C int8 block to an (m,)
    array, NaN where it is undefined (the signal `DrawBlock` gives).  The
    result is the expectation conditional on fn being defined, plus
    P(defined).
    """
    values = np.hstack([fn(enumeration.assignments[lo:lo + BLOCK])
                        for lo in range(0, enumeration.count, BLOCK)])
    if values.shape != (enumeration.count,):
        raise ValueError(f"fn gave values of shape {values.shape} for "
                         f"{enumeration.count} assignments")
    ok = ~np.isnan(values)
    mass = float(enumeration.probs[ok].sum())
    if mass == 0.0:
        raise ValueError("fn undefined on every assignment")
    return ExactExpectation(mean=float(enumeration.probs[ok] @ values[ok]) / mass,
                            p_defined=mass)
