"""Premetric populations, s-neighborhoods, and geometric regularity audits.

A population is a finite set of units with a pairwise "distance" table that
only needs to satisfy rho(i,i)=0 and rho(i,j)>0 for i != j (no symmetry or
triangle inequality required).  Neighborhoods N(i,s) collect every unit whose
distance from i is at most a threshold radius_rule(s); in Euclidean space the
threshold is s**(1/q) so that |N(i,s)| grows linearly in s under bounded
density.  Everything downstream (clustering, exposures, weights) consumes
only N(i,s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AUDIT_SUBSETS = 5               # random subsets Q per size in the k4 audit
_ROW_BLOCK = 256                # rows per block of an n x n temporary

# spawn-key purpose tags; keep streams for different uses disjoint even when
# integer seeds collide (e.g. population seed base+n vs replicate seed base+r)
TAG_COORDS = 0
TAG_DGP = 1
TAG_GUESS = 2
TAG_TREAT = 3
TAG_TABLES = 4
TAG_AUDIT = 9

SEED_LIMIT = 2**64             # seeds lie in [0, SEED_LIMIT)
_WORD = 0xFFFFFFFF


def _hash_schedule(init: int, mult: int, count: int) -> np.ndarray:
    """The count + 1 hash constants init, init*mult, ... mod 2**32 (column)."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _WORD)
    return np.array(consts, dtype=np.uint32)[:, None]


# numpy's SeedSequence, O'Neill's seed_seq hash: 20 hashmix calls mix the
# pool, 4 more draw the two 64-bit Philox key words out of it
_HASH_MIX = _hash_schedule(0x43B0D7E5, 0x931E8875, 20)
_HASH_OUT = _hash_schedule(0x8B51F9DD, 0x58F38DED, 4)
_OTHER_WORDS = [np.array([j for j in range(4) if j != i]) for i in range(4)]


def _hashmix(v, consts, start: int, count: int):
    """count hashmix calls, row r of v with constant pair start + r."""
    v = (v ^ consts[start:start + count]) * consts[start + 1:start + count + 1]
    return v ^ (v >> 16)


def _mix(x, y):
    r = x * 0xCA01F9DD - y * 0x4973F715
    return r ^ (r >> 16)


def philox_keys(seeds, tag: int) -> np.ndarray:
    """m x 2 uint64 Philox keys: row k is
    SeedSequence(entropy=seeds[k], spawn_key=(tag,)).generate_state(2, uint64).

    A seed in [0, 2**64) is two 32-bit entropy words, always padded to a
    4-word pool because the spawn key is not empty, and the tag is a fifth
    word, so one fixed mixing schedule (numpy's `SeedSequence.mix_entropy`
    and `generate_state`) serves every seed; it runs on uint32 arrays,
    whose products wrap mod 2**32 as the hash's do.  ValueError on a seed
    outside [0, 2**64).
    """
    seeds = [int(s) for s in seeds]
    if seeds and not (min(seeds) >= 0 and max(seeds) < SEED_LIMIT):
        bad = next(s for s in seeds if not 0 <= s < SEED_LIMIT)
        raise ValueError(f"seed {bad} is outside [0, 2**64)")
    s = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, s.size), dtype=np.uint32)
    pool[0] = s & _WORD
    pool[1] = s >> 32
    pool = _hashmix(pool, _HASH_MIX, 0, 4)
    start = 4
    for i, rest in enumerate(_OTHER_WORDS):
        pool[rest] = _mix(pool[rest], _hashmix(pool[i], _HASH_MIX, start, 3))
        start += 3
    pool = _mix(pool, _hashmix(np.uint32(tag), _HASH_MIX, start, 4))
    # each seed's four output words, read as two little-endian 64-bit words
    # as generate_state reads them
    words = _hashmix(pool, _HASH_OUT, 0, 4).T.astype("<u4", order="C")
    return words.view("<u8").astype(np.uint64)


def rng_for(seed: int, tag: int) -> np.random.Generator:
    """Philox generator for one (seed in [0, 2**64), purpose tag) pair: the
    stream of Philox(SeedSequence(seed, spawn_key=(tag,)))."""
    return np.random.Generator(np.random.Philox(key=philox_keys([seed], tag)[0]))


class GeometryError(ValueError):
    """Invalid population input (non-finite, duplicated, or malformed)."""


@dataclass(frozen=True)
class InterferenceBudget:
    """Decay-rate budget: off-neighborhood influence is at most k1 * s**-eta.

    ybar bounds outcomes in absolute value and is the constant of the
    quadratic term of the optimal-weighting objective.
    """

    eta: float
    k1: float
    ybar: float

    def __post_init__(self):
        if not (self.eta > 0 and self.k1 > 0 and self.ybar > 0):
            raise ValueError("eta, k1, ybar must be strictly positive")


@dataclass(frozen=True, eq=False)
class PremetricSpace:
    """Population of n units with an n x n pairwise distance table.

    coords (n x q) are present exactly for Euclidean populations, in which
    case dist is the L2 distance matrix and radius_rule(s) = s**(1/q).
    Abstract populations supply dist alone and use the identity radius
    rule.  Instances are immutable; all operations on them are pure.
    """

    dist: np.ndarray
    coords: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def radius(self, s) -> float:
        """Distance threshold of the size-s neighborhood."""
        if np.any(np.asarray(s) <= 0):
            raise ValueError("neighborhood size s must be > 0")
        if self.coords is None:
            return s
        return np.power(s, 1.0 / self.coords.shape[1])

    def size_of_radius(self, r):
        """Inverse of radius(): the size parameter whose threshold is r."""
        if self.coords is None:
            return r
        return np.power(r, float(self.coords.shape[1]))

    def neighborhood(self, i: int, s) -> np.ndarray:
        """Unit ids j in N(i, s), ascending; always contains i."""
        if not 0 <= i < self.n:
            raise ValueError(f"unit id {i} out of range [0, {self.n})")
        return np.flatnonzero(self.neighborhood_matrix(s, i))

    def neighborhood_matrix(self, s, rows=slice(None)) -> np.ndarray:
        """M[k, j] = (j in N(i, s)) for the k-th unit i of `rows` (all by
        default): the package's one neighborhood test, dist <= radius(s).
        An int or slice compares a view; an index array copies its rows."""
        return self.dist[rows] <= self.radius(s)

    def min_positive_distance(self) -> float:
        dmin = np.inf
        for rows in row_blocks(self.n):
            off = self.dist[rows].copy()
            np.fill_diagonal(off[:, rows.start:], np.inf)    # rho(i, i)
            dmin = min(dmin, float(off.min()))
        return dmin

    def saturation_floor(self) -> float:
        """Largest size s0 with N(i, s0) = {i} for every unit.

        Backed off a relative epsilon below the minimum pairwise distance so
        the <= test of neighborhood_matrix() cannot capture the closest pair.
        For n = 1 any size works; returns 1.0.
        """
        dmin = self.min_positive_distance()
        if not np.isfinite(dmin):
            return 1.0
        return float(self.size_of_radius(dmin * (1.0 - 1e-9)))


def row_blocks(n: int, size: int = _ROW_BLOCK):
    """Slices of consecutive rows covering range(n), each at most `size`
    long (_ROW_BLOCK, the unit in which n x n temporaries are built)."""
    for lo in range(0, n, size):
        yield slice(lo, min(lo + size, n))


def build_space(coords) -> PremetricSpace:
    """Build a Euclidean population from an n x q coordinate array.

    Rejects non-finite coordinates and duplicated points (a zero
    off-diagonal distance breaks the premetric requirement).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
        raise GeometryError("coords must be a nonempty n x q array")
    if not np.all(np.isfinite(coords)):
        raise GeometryError("coordinates must be finite")
    n, q = coords.shape
    dist = np.empty((n, n))
    buf = np.empty((min(n, _ROW_BLOCK), n, q))     # one block's differences
    for rows in row_blocks(n):
        diff = buf[:rows.stop - rows.start]
        for k in range(q):                         # one coordinate at a time
            np.subtract(coords[rows, k, None], coords[:, k], out=diff[..., k])
        np.einsum("ijk,ijk->ij", diff, diff, out=dist[rows])
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, 0.0)
    if np.count_nonzero(dist == 0.0) > n:
        raise GeometryError("duplicate coordinates: rho(i,j)=0 for i != j")
    return PremetricSpace(dist, coords)


def build_space_from_dist(dist) -> PremetricSpace:
    """Build an abstract population from a distance table (identity rule)."""
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or dist.shape[0] < 1:
        raise GeometryError("dist must be a square n x n table")
    if not np.all(np.isfinite(dist)):
        raise GeometryError("distances must be finite")
    if np.any(np.diag(dist) != 0.0):
        raise GeometryError("dist[i][i] must be 0")
    n = dist.shape[0]
    if np.count_nonzero(dist <= 0.0) > n:     # the n zeros of the diagonal
        raise GeometryError("off-diagonal distances must be strictly positive")
    return PremetricSpace(dist)


def uniform_disk(n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on a disk of radius sqrt(n) (q=2)."""
    r = np.sqrt(n) * np.sqrt(rng.uniform(size=n))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


# --- assumption audits -------------------------------------------------------

@dataclass
class GeometryAudit:
    """Empirical regularity constants over a tested s-grid.

    Greedy constructions make k5_hat an upper bound on the true covering
    constant and k4_hat a lower bound on the true packing constant; both are
    reported as approximations, not certificates.
    """

    k3_hat: float
    k4_hat: float
    k5_hat: float


def bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product: out[i, j] = any_k (a[i, k] and b[k, j]).

    Runs as a float32 BLAS product, where numpy's boolean `@` runs a generic
    loop.  The result is exact at every size and under any BLAS kernel or
    thread count: every term is 0 or 1, so a sum with a term equal to 1 is
    at least 1 however it is rounded, and a sum with none is exactly 0.
    The sums are exact counts too below 2**24 terms (`> 0` needs no bound).
    Rows of `a` are cast and multiplied one row block at a time.
    """
    a, b = np.asarray(a), np.asarray(b, dtype=np.float32)
    out = np.empty((a.shape[0], b.shape[1]), dtype=bool)
    for rows in row_blocks(a.shape[0]):
        np.greater(np.asarray(a[rows], dtype=np.float32) @ b, 0, out=out[rows])
    return out


def greedy_set_cover(members: np.ndarray, nbhd_matrix: np.ndarray) -> tuple[list, np.ndarray]:
    """Greedy s-cover of the `members` mask by neighborhoods of its own units.

    Returns the picked unit ids in coverage order (ties to the lowest id)
    and, per member in id order, the index of the pick that first covered
    it.  Greedy never beats the minimal cover, so the pick count is an
    upper bound on the covering number.
    """
    members = np.asarray(members, dtype=bool)
    cand = np.flatnonzero(members)
    # a full cover's candidate block is the matrix itself: no n x n copy
    sets = (nbhd_matrix if members.all()
            else nbhd_matrix[np.ix_(cand, cand)])
    uncovered = np.ones(len(cand), dtype=bool)
    # gains[k]: members still uncovered in candidate k's neighborhood, kept
    # exact by subtracting each pick's newly covered columns
    gains = sets.sum(axis=1, dtype=np.int64)
    labels, picked = np.empty(len(cand), dtype=np.int64), []    # every label set below
    while uncovered.any():
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise GeometryError("neighborhoods cannot cover the member set")
        newly = sets[best] & uncovered
        labels[newly] = len(picked)
        picked.append(int(cand[best]))
        gains -= sets[:, newly].sum(axis=1, dtype=np.int64)
        uncovered &= ~newly
    return picked, labels


def greedy_packing(candidates: np.ndarray, in_nbhd: np.ndarray) -> list:
    """Greedy maximal s-packing of the candidate units (ids ascending).

    in_nbhd[i, j] = (j in N(i, s)). Two units conflict when some candidate's
    neighborhood contains both; greedy insertion yields a maximal packing, a
    lower bound on the packing number.
    """
    cand = np.flatnonzero(candidates)
    conflict = in_nbhd[cand][:, cand]
    # pair conflict: exists i among candidates with both a, b in N(i, s)
    pair_conflict = bool_matmul(conflict.T, conflict)
    blocked = np.zeros(len(cand), dtype=bool)
    packed = []
    for k in range(len(cand)):
        if not blocked[k]:
            packed.append(int(cand[k]))
            blocked |= pair_conflict[k]
    return packed


def audit_geometry(space: PremetricSpace, s_grid, max_units: int = 60) -> GeometryAudit:
    """Measure the density/covering/packing constants on a grid of sizes.

    k3_hat: max over tested (i, s) of (|N(i,s)| - 1) / s.
    k5_hat: max greedy-cover size of U(N(i,s), s) and V(N(i,s), s) by
            s-neighborhoods of their own members.
    k4_hat: max over AUDIT_SUBSETS seeded random subsets Q per s of
            |greedy packing| * s / n.

    Cover/packing audits scan a deterministic unit subsample of size
    max_units when the population is larger (cost is cubic in |N|).
    """
    s_grid = [float(s) for s in np.atleast_1d(s_grid)]
    if not s_grid or min(s_grid) <= 0:
        raise ValueError("s_grid must be nonempty with positive sizes")
    n = space.n
    tested = np.linspace(0, n - 1, min(n, max_units)).astype(int)

    k3 = 0.0
    k5 = 0.0
    k4 = 0.0
    rng = rng_for(0, TAG_AUDIT)
    for s in s_grid:
        M = space.neighborhood_matrix(s)
        sizes = M.sum(axis=1)
        k3 = max(k3, float((sizes.max() - 1) / s))
        for i in tested:
            nbhd = M[i]
            # U: union of neighborhoods of members; V: units whose
            # neighborhoods reach into N(i,s)
            u_set = M[nbhd].any(axis=0)
            v_set = M[:, nbhd].any(axis=1)
            for target in (u_set, v_set):
                k5 = max(k5, float(len(greedy_set_cover(target, M)[0])))
        for _ in range(AUDIT_SUBSETS):
            q_mask = rng.uniform(size=n) < 0.5
            if not q_mask.any():
                continue
            pack = greedy_packing(q_mask, M)
            k4 = max(k4, len(pack) * s / n)
    return GeometryAudit(k3_hat=k3, k4_hat=k4, k5_hat=k5)


def off_neighborhood_sums(A: np.ndarray, space: PremetricSpace, s) -> np.ndarray:
    """Per-unit sum of |A[i, j]| over j outside N(i, s)."""
    sums = np.empty(space.n)
    for rows in row_blocks(space.n):
        inside = space.neighborhood_matrix(s, rows)
        np.abs(np.where(inside, 0.0, A[rows])).sum(axis=1, out=sums[rows])
    return sums


def fit_interference_constant(A, space: PremetricSpace, eta: float,
                              s_grid) -> float:
    """Smallest k1 making the decay bound hold on the tested grid."""
    A = np.asarray(A, dtype=float)
    k1 = 0.0
    for s in np.atleast_1d(s_grid):
        off = off_neighborhood_sums(A, space, s)
        k1 = max(k1, float(off.max()) * float(s) ** eta)
    return k1
