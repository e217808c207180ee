"""Scaling-clusters experimental design and cluster randomization.

The partition grows each cluster from a greedy neighborhood cover whose size
parameter scales as c0 * n**(1/(2*eta+1)), which equalizes the rate of the
off-neighborhood bias and the dependence-driven variance.  Cluster bits are
i.i.d. Bernoulli(p) from a counter-based generator, so every draw is
reproducible from (partition, p, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# every stream tag, so that spillscale.design.rng_for and its tags resolve
from .geometry import (TAG_COORDS, TAG_DGP, TAG_GUESS, TAG_TABLES, TAG_TREAT, rng_for,
                       PremetricSpace, bool_matmul, greedy_set_cover, philox_keys,
                       row_blocks)


def scaling_rule(n: int, eta: float, c0: float = 1.0) -> float:
    """Cluster/neighborhood size h = c0 * n**(1/(2*eta + 1))."""
    if n < 1 or eta <= 0 or c0 <= 0:
        raise ValueError("need n >= 1, eta > 0, c0 > 0")
    return c0 * float(n) ** (1.0 / (2.0 * eta + 1.0))


@dataclass(frozen=True, eq=False)
class ClusterPartition:
    """Disjoint clusters covering the population: unit -> cluster id, the
    ids 0..C-1 each naming a nonempty cluster."""

    assignment: np.ndarray

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @cached_property
    def n_clusters(self) -> int:
        return int(self.assignment.max()) + 1

    @cached_property
    def by_cluster(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, starts): unit ids grouped cluster by cluster, ascending
        within each, and where each group starts, for a ufunc's `reduceat`
        over a unit axis taken in that order; it needs every cluster
        nonempty, as every constructor ensures."""
        sizes = np.bincount(self.assignment)
        return np.argsort(self.assignment, kind="stable"), np.cumsum(sizes) - sizes


def greedy_cover(space: PremetricSpace, g: float) -> tuple[list, np.ndarray]:
    """Greedy max-coverage g-cover of the population (ties by lowest id):
    the picks u in pick order and, per unit, the index of the first pick
    whose N(u, g) holds it."""
    return greedy_set_cover(np.ones(space.n, dtype=bool),
                            space.neighborhood_matrix(g))


def scaling_clusters(space: PremetricSpace, g: float) -> ClusterPartition:
    """One cluster per cover pick, in pick order: the part of its
    g-neighborhood that no earlier pick covered.  None is empty: rho(i, i)
    = 0, so while unit i is uncovered, candidate i would cover one new unit
    and the greedy pick, which covers the most, covers at least one."""
    return ClusterPartition(greedy_cover(space, g)[1])


def singleton_partition(n: int) -> ClusterPartition:
    """One unit per cluster: the i.i.d. benchmark design."""
    return ClusterPartition(np.arange(n, dtype=np.int64))


@dataclass
class IncidenceCounts:
    """Incidence at one size s; the one reader of purity and shared clusters."""

    incidence: np.ndarray           # n x C boolean: cluster c meets N(i, s)

    @cached_property
    def phi(self) -> np.ndarray:
        """Per unit: the clusters meeting N(i, s)."""
        return self.incidence.sum(axis=1)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Per cluster: the neighborhoods meeting it."""
        return self.incidence.sum(axis=0)

    @property
    def phi_max(self) -> int:
        return int(self.phi.max())

    def treated(self, B) -> np.ndarray:
        """n x m treated clusters meeting each N(i, s), for C x m bits B: float32
        BLAS products by row block, exact as partial sums are integers <= C < 2**24."""
        B = np.asarray(B, dtype=np.float32)
        out = np.empty((self.phi.size, B.shape[1]), dtype=np.float32)
        for rows in row_blocks(out.shape[0]):
            np.matmul(self.incidence[rows].astype(np.float32), B, out=out[rows])
        return out

    def pure(self, treated) -> tuple[np.ndarray, np.ndarray]:
        """(saturated, dissaturated) from `treated`: all or none treated;
        phi is compared as float32 (exact), so no float64 copy is made."""
        return treated == self.phi.astype(np.float32)[:, None], treated == 0.0

    def share(self, treated, units=slice(None)) -> np.ndarray:
        """Treated share of the phi clusters meeting each N(i, s) of the
        given units (all by default), from `treated`."""
        return treated[units] / self.phi[units, None]

    def shared(self) -> np.ndarray:
        """n x n: N(i, s) and N(j, s) meet a common cluster."""
        return bool_matmul(self.incidence, self.incidence.T)


def incidence(space: PremetricSpace, partition: ClusterPartition, s) -> IncidenceCounts:
    """Exact phi/gamma counts by direct intersection tests.

    Per row block, the neighborhood matrix's rows are transposed into
    cluster order and or-reduced over each cluster's units eight booleans at
    a time, as 64-bit words: a bitwise or of 0/1 bytes is their logical or.
    """
    order, starts = partition.by_cluster
    inc = np.empty((space.n, partition.n_clusters), dtype=bool)
    for rows in row_blocks(space.n):
        b = rows.stop - rows.start
        near = np.zeros((space.n, -(-b // 8) * 8), dtype=bool)    # whole words
        near[:, :b] = space.neighborhood_matrix(s, rows).T[order]
        words = np.bitwise_or.reduceat(near.view(np.int64), starts, axis=0)
        inc[rows] = words.view(bool)[:, :b].T      # cluster c meets N(i, s)
    return IncidenceCounts(incidence=inc)


def stilde_indices(levels: list, B) -> np.ndarray:
    """Saturation-size grid index (n x m) for C x m bits B: the last of the
    incidence `levels` before the first impure one: the number of levels
    after level 0 through which a neighborhood pure at level 0 stays pure."""
    B = np.asarray(B, dtype=np.float32)

    def is_pure(level):
        sat, dis = level.pure(level.treated(B))
        return sat | dis

    alive = is_pure(levels[0])
    idx = np.zeros(alive.shape, dtype=np.int64)
    for level in levels[1:]:
        alive &= is_pure(level)
        idx += alive
    return idx


@dataclass
class ExtendedNeighborhoods(IncidenceCounts):
    """Incidence padded so every unit meets exactly phi_max clusters."""

    base_incidence: np.ndarray      # n x C boolean incidence before padding
    assignment: np.ndarray          # unit -> cluster id

    @cached_property
    def extra(self) -> list:
        """Per unit: the ids of the units in its padded clusters, ascending
        (int64; empty where nothing was appended)."""
        extra = []
        for rows in row_blocks(self.phi.size):
            added = self.incidence[rows] & ~self.base_incidence[rows]
            extra.extend(np.flatnonzero(a) for a in added[:, self.assignment])
        return extra


def cluster_distances(space: PremetricSpace, partition: ClusterPartition,
                      units) -> np.ndarray:
    """len(units) x C matrix of min distance from each unit to each cluster."""
    order, starts = partition.by_cluster
    # `take` keeps the gathered block C-contiguous, where `[:, order]` on a
    # float table does not and more than doubles the reduction's time
    return np.minimum.reduceat(np.take(space.dist[units], order, axis=1),
                               starts, axis=1)


def cluster_sums(partition: ClusterPartition, M) -> np.ndarray:
    """n x C sums of M's columns within each cluster, so that M @ d equals
    cluster_sums(partition, M) @ b for unit treatments d = b[assignment];
    M itself when the assignment is arange(n).  Built one row block at a
    time, by the `reduceat` over `by_cluster` that `cluster_distances` runs."""
    if np.array_equal(partition.assignment, np.arange(partition.n)):
        return M
    order, starts = partition.by_cluster
    out = np.empty((M.shape[0], partition.n_clusters))
    for rows in row_blocks(M.shape[0]):
        np.add.reduceat(np.take(M[rows], order, axis=1), starts, axis=1, out=out[rows])
    return out


def extend_uniform_overlap(space: PremetricSpace, partition: ClusterPartition,
                           base: IncidenceCounts) -> ExtendedNeighborhoods:
    """Append whole nearest clusters until `base`'s phi is uniform at phi_max.

    Candidate clusters are ranked by minimum distance from the unit to any
    member, ties broken by cluster id (`argmin` keeps the first minimum);
    units already at phi_max and `base` stay unchanged.  Always achievable
    since the clusters partition everything.  Distances are taken one row
    block of deficient units at a time.
    """
    phi_max = base.phi_max
    inc = base.incidence.copy()
    deficient = np.flatnonzero(base.phi < phi_max)
    for rows in row_blocks(deficient.size):
        units = deficient[rows]
        D = cluster_distances(space, partition, units)
        D[inc[units]] = np.inf             # only clusters not yet met
        need = phi_max - base.phi[units]
        for k in range(int(need.max())):
            nearest = D.argmin(axis=1)
            D[np.arange(units.size), nearest] = np.inf
            take = need > k
            inc[units[take], nearest[take]] = True
    return ExtendedNeighborhoods(incidence=inc, base_incidence=base.incidence,
                                 assignment=partition.assignment)


@dataclass(frozen=True)
class DesignDraw:
    """One realized cluster randomization."""

    b: np.ndarray                   # cluster treatment bits
    d: np.ndarray                   # induced unit treatment bits


def cluster_bits(partition: ClusterPartition, d) -> np.ndarray:
    """Cluster bits behind unit treatments d; ValueError if a cluster is mixed."""
    d = np.asarray(d)
    order, starts = partition.by_cluster
    b = d[order[starts]]                   # each cluster's first member
    mixed = partition.assignment[d != b[partition.assignment]]
    if mixed.size:
        raise ValueError(f"treatments are not constant within cluster {mixed.min()}")
    return b


def draw_bits_batch(n_clusters: int, p: float, seeds) -> np.ndarray:
    """m x C int8 Bernoulli(p) cluster bits, row k from seeds[k]'s stream:
    rng_for(seeds[k], TAG_TREAT).uniform(size=C) < p.  One Philox is reset
    to each row's key, counter 0 and an empty buffer, the state a fresh
    Philox(key=...) starts in; `random` is `uniform`'s 0 + 1 * x."""
    keys = philox_keys(seeds, TAG_TREAT)
    B = np.empty((keys.shape[0], n_clusters), dtype=np.int8)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    zeros = (0, 0, 0, 0)
    for k, key in enumerate(keys.tolist()):
        bitgen.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        B[k] = gen.random(n_clusters) < p
    return B


def draw_treatments(partition: ClusterPartition, p: float, seed: int) -> DesignDraw:
    """One draw of `draw_bits_batch` and the unit treatments it induces."""
    if not 0.0 < p < 1.0:
        raise ValueError("treatment probability p must be in (0, 1)")
    b = draw_bits_batch(partition.n_clusters, p, [seed])[0]
    return DesignDraw(b=b, d=b[partition.assignment])
