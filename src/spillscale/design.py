"""Scaling-clusters experimental design and cluster randomization.

The partition grows each cluster from a greedy neighborhood cover whose size
parameter scales as c0 * n**(1/(2*eta+1)), which equalizes the rate of the
off-neighborhood bias and the dependence-driven variance.  Cluster bits are
i.i.d. Bernoulli(p) from a counter-based generator, so every draw is
reproducible from (partition, p, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import PremetricSpace, bool_matmul, greedy_set_cover

# spawn-key purpose tags; keep streams for different uses disjoint even when
# integer seeds collide (e.g. population seed base+n vs replicate seed base+r)
TAG_COORDS = 0
TAG_DGP = 1
TAG_GUESS = 2
TAG_TREAT = 3
TAG_TABLES = 4


def rng_for(seed: int, tag: int) -> np.random.Generator:
    """Philox generator for one (64-bit seed, purpose tag) pair."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(tag,))
    return np.random.Generator(np.random.Philox(ss))


def scaling_rule(n: int, eta: float, c0: float = 1.0) -> float:
    """Cluster/neighborhood size h = c0 * n**(1/(2*eta + 1))."""
    if n < 1 or eta <= 0 or c0 <= 0:
        raise ValueError("need n >= 1, eta > 0, c0 > 0")
    return c0 * float(n) ** (1.0 / (2.0 * eta + 1.0))


@dataclass(frozen=True, eq=False)
class ClusterPartition:
    """Disjoint clusters covering the population, one per cover seed."""

    assignment: np.ndarray          # unit -> cluster id
    clusters: list                  # list of unit-id arrays
    seeds: list                     # cover member that grew each cluster
    g: float                        # size parameter used to grow clusters

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def indicator(self) -> np.ndarray:
        """n x C boolean membership matrix."""
        P = np.zeros((self.n, self.n_clusters), dtype=bool)
        P[np.arange(self.n), self.assignment] = True
        return P

    def validate(self):
        seen = np.zeros(self.n, dtype=bool)
        for members in self.clusters:
            if seen[members].any():
                raise ValueError("clusters overlap")
            seen[members] = True
        if not seen.all():
            raise ValueError("clusters do not cover the population")


def greedy_cover(space: PremetricSpace, g: float) -> list:
    """Greedy max-coverage g-cover of the population (ties by lowest id).

    Every unit ends up inside N(u, g) of some returned u; the pick order is
    deterministic given the input ordering.
    """
    return greedy_set_cover(np.ones(space.n, dtype=bool),
                            space.neighborhood_matrix(g))


def scaling_clusters(space: PremetricSpace, g: float) -> ClusterPartition:
    """Partition by growing one cluster per cover seed, in cover order.

    Each cluster is the not-yet-assigned part of its seed's g-neighborhood;
    seeds whose neighborhood was fully absorbed earlier produce no cluster.
    """
    cover = greedy_cover(space, g)
    M = space.neighborhood_matrix(g)
    assignment = np.full(space.n, -1, dtype=np.int64)
    clusters, seeds = [], []
    for u in cover:
        members = np.flatnonzero(M[u] & (assignment < 0))
        if members.size == 0:
            continue
        assignment[members] = len(clusters)
        clusters.append(members)
        seeds.append(u)
    return ClusterPartition(assignment=assignment, clusters=clusters,
                            seeds=seeds, g=float(g))


def singleton_partition(n: int) -> ClusterPartition:
    """One unit per cluster: the i.i.d. benchmark design."""
    assignment = np.arange(n, dtype=np.int64)
    clusters = [np.array([i]) for i in range(n)]
    return ClusterPartition(assignment=assignment, clusters=clusters,
                            seeds=list(range(n)), g=0.0)


@dataclass
class IncidenceCounts:
    """Incidence at one size s; the one reader of purity and shared clusters."""

    phi: np.ndarray                 # per unit: clusters meeting N(i, s)
    gamma: np.ndarray               # per cluster: neighborhoods meeting it
    incidence: np.ndarray           # n x C boolean
    s: float

    @property
    def phi_max(self) -> int:
        return int(self.phi.max())

    @property
    def sum_gamma_sq(self) -> float:
        return float(np.sum(self.gamma.astype(float) ** 2))

    def treated(self, B) -> np.ndarray:
        """n x m treated clusters meeting each N(i, s), for C x m bits B."""
        return self.incidence.astype(np.float64) @ B

    def pure(self, treated) -> tuple[np.ndarray, np.ndarray]:
        """(saturated, dissaturated) from `treated`: all or none treated."""
        return treated == self.phi[:, None], treated == 0.0

    def shared(self) -> np.ndarray:
        """n x n: N(i, s) and N(j, s) meet a common cluster."""
        return bool_matmul(self.incidence, self.incidence.T)


def incidence(space: PremetricSpace, partition: ClusterPartition, s) -> IncidenceCounts:
    """Exact phi/gamma counts by direct intersection tests."""
    M = space.neighborhood_matrix(s)
    P = partition.indicator()
    inc = bool_matmul(M, P)                # cluster c meets N(i, s)
    return IncidenceCounts(phi=inc.sum(axis=1), gamma=inc.sum(axis=0),
                           incidence=inc, s=float(s))


@dataclass
class ExtendedNeighborhoods:
    """Neighborhoods padded so every unit meets exactly phi_target clusters."""

    s: float
    extra: list                     # per unit: appended unit ids (array)
    phi_target: int
    incidence: np.ndarray           # n x C boolean, rows sum to phi_target
    base: IncidenceCounts | None = None     # counts before the extension

    def exposure_phi(self) -> np.ndarray:
        return self.incidence.sum(axis=1)


def cluster_distances(space: PremetricSpace, partition: ClusterPartition) -> np.ndarray:
    """n x C matrix of min distance from each unit to each cluster."""
    D = np.empty((space.n, partition.n_clusters))
    for c, members in enumerate(partition.clusters):
        D[:, c] = space.dist[:, members].min(axis=1)
    return D


def extend_uniform_overlap(space: PremetricSpace, partition: ClusterPartition,
                           s) -> ExtendedNeighborhoods:
    """Append whole nearest clusters until phi(i, s) is uniform at phi_max.

    Candidate clusters are ranked by minimum distance from the unit to any
    member, ties broken by cluster id; units already at phi_max are left
    unchanged.  Always achievable since the clusters partition everything.
    """
    base = incidence(space, partition, s)
    phi_target = base.phi_max
    inc = base.incidence.copy()
    extra = [np.empty(0, dtype=np.int64) for _ in range(space.n)]
    deficient = np.flatnonzero(base.phi < phi_target)
    if deficient.size:
        D = cluster_distances(space, partition)
        for i in deficient:
            need = phi_target - base.phi[i]
            candidates = np.flatnonzero(~inc[i])
            order = candidates[np.lexsort((candidates, D[i, candidates]))]
            chosen = order[:need]
            inc[i, chosen] = True
            extra[i] = np.sort(np.concatenate(
                [partition.clusters[c] for c in chosen]))
    return ExtendedNeighborhoods(s=float(s), extra=extra,
                                 phi_target=int(phi_target), incidence=inc,
                                 base=base)


@dataclass(frozen=True)
class DesignDraw:
    """One realized cluster randomization."""

    b: np.ndarray                   # cluster treatment bits
    d: np.ndarray                   # induced unit treatment bits
    p: float
    seed: int


def cluster_bits(partition: ClusterPartition, d) -> np.ndarray:
    """Cluster bits behind unit treatments d; ValueError if a cluster is mixed."""
    d = np.asarray(d)
    b = d[[members[0] for members in partition.clusters]]
    mixed = partition.assignment[d != b[partition.assignment]]
    if mixed.size:
        raise ValueError(f"treatments are not constant within cluster {mixed.min()}")
    return b


def draw_treatments(partition: ClusterPartition, p: float, seed: int) -> DesignDraw:
    """i.i.d. Bernoulli(p) cluster bits from the seeded generator."""
    if not 0.0 < p < 1.0:
        raise ValueError("treatment probability p must be in (0, 1)")
    gen = rng_for(seed, TAG_TREAT)
    b = (gen.uniform(size=partition.n_clusters) < p).astype(np.int8)
    d = b[partition.assignment]
    return DesignDraw(b=b, d=d, p=float(p), seed=int(seed))
