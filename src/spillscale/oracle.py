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
            f"exact enumeration needs C <= {MAX_EXACT_CLUSTERS}, got {C}")
    codes = np.arange(2 ** C, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(C)) & 1).astype(np.int8)
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
    """E[fn(b)] by direct summation; partial fns are handled by conditioning.

    fn may signal an undefined draw by returning None or raising an
    exception carrying ``undefined_draw = True`` (the estimator errors do);
    the result is then the conditional expectation plus P(defined).
    """
    total = 0.0
    mass = 0.0
    for b, w in zip(enumeration.assignments, enumeration.probs):
        try:
            value = fn(b)
        except Exception as exc:  # noqa: BLE001 - only undefined-draw errors pass
            if getattr(exc, "undefined_draw", False):
                value = None
            else:
                raise
        if value is None:
            continue
        total += w * float(value)
        mass += w
    if mass == 0.0:
        raise ValueError("fn undefined on every assignment")
    return ExactExpectation(mean=total / mass, p_defined=mass)

