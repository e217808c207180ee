"""Monte Carlo replication engine over designs, estimators, and sizes.

Each (population size, design) cell builds a fresh uniform-disk population,
the linear simulation outcomes, a guess matrix, and the partition, then
replays seeded treatment draws (the Philox streams of `draw_treatments`)
in blocks through the batched estimator core, `estimators.DrawBlock`, so
identical configs give identical CSV bytes.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

from . import owopt
from .design import (ClusterPartition, draw_bits_batch, scaling_clusters,
                     scaling_rule, singleton_partition)
from .estimators import WITH_CI, DesignContext, DrawBlock, check_hac_window, half_width
from .geometry import (SEED_LIMIT, TAG_COORDS, PremetricSpace, build_space, rng_for,
                       uniform_disk)
from .outcomes import (GuessMatrix, LinearOutcomes, make_guess, make_sim_dgp,
                       realize, sim_budget)

DESIGNS = ("scaling_clusters", "iid")
ESTIMATORS = ("ht", "hajek", "ols", "shrink", "ow")
BLOCK_BYTES = 2 ** 21           # bytes of one n x m float64 array of a block


def block_width(n: int) -> int:
    """Draws per Monte Carlo block at population size n: the largest power
    of two m <= 512 whose n x m float64 array fits in BLOCK_BYTES, and at
    least 8, so that a block's memory does not grow with n."""
    m = 512
    while m > 8 and 8 * n * m > BLOCK_BYTES:
        m //= 2
    return m


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    n_list: list
    designs: list = field(default_factory=lambda: ["scaling_clusters"])
    estimators: list = field(default_factory=lambda: ["ht", "hajek", "ols", "shrink"])
    eta: float = 1.0
    c0: float = 1.0
    p: float = 0.5
    reps: int = 2000
    base_seed: int = 0
    ci_level: float = 0.95
    ow_max_n: int = 120
    ow_mc_draws: int = 100_000

    def validate(self):
        if not self.n_list or any(int(n) < 2 for n in self.n_list):
            raise ConfigError("n_list must be nonempty with every n >= 2")
        for key, allowed in (("designs", DESIGNS), ("estimators", ESTIMATORS)):
            if not getattr(self, key) or not set(getattr(self, key)) <= set(allowed):
                raise ConfigError(f"{key} must be a nonempty subset of {allowed}")
        for key in ("n_list", "designs", "estimators"):
            values = list(getattr(self, key))
            repeated = [v for v in values if values.count(v) > 1]
            if repeated:
                raise ConfigError(f"{key} lists {repeated[0]} more than once")
        for key, lo, hi in (("p", 0, 1), ("ci_level", 0, 1), ("eta", 0, np.inf),
                            ("c0", 0, np.inf)):
            if not lo < getattr(self, key) < hi:
                raise ConfigError(f"{key} must be in ({lo}, {hi})")
        for key, low in (("reps", 1), ("ow_max_n", 1), ("ow_mc_draws", 1), ("base_seed", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}")
        # treatment seeds are base_seed + r, population and table seeds base_seed + n
        if self.base_seed + max(self.reps - 1, *map(int, self.n_list)) >= SEED_LIMIT:
            raise ConfigError("base_seed + max(reps - 1, max(n_list)) must be < 2**64")
        if not any(self.estimators_at(int(n)) for n in self.n_list):
            raise ConfigError(f"no cell runs: every n is above ow_max_n = {self.ow_max_n}")
        if set(WITH_CI) & set(self.estimators):
            try:
                check_hac_window(self.eta)
            except ValueError as exc:
                raise ConfigError(f"{exc}; the {' and '.join(WITH_CI)} rows "
                                  f"need their intervals") from None
        return self

    def estimators_at(self, n) -> list:
        """The estimators run at size n: ow only at n <= ow_max_n."""
        return [e for e in self.estimators if e != "ow" or n <= self.ow_max_n]


@dataclass
class ResultRow:
    n: int
    design: str
    estimator: str
    reps_ok: int
    fail_rate: float
    mean_est: float
    bias: float
    rmse: float
    coverage: float | None
    seconds: float
    ow_table: owopt.OwWeightTable | None = None     # the QP solve, OW rows only
    hac_clipped: int | None = None  # negative HAC sums clipped, hajek/ols rows

    # seconds is wall clock and would break byte-for-byte reruns; the QP
    # trace and the clip count are stdout-only too
    CSV_COLUMNS = ("n", "design", "estimator", "reps_ok", "fail_rate",
                   "mean_est", "bias", "rmse", "coverage")


def csv_text(header, rows) -> str:
    """CSV with "\n" line ends: None as empty, floats to 12 digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buf.getvalue()


def build_population(n: int, seed: int) -> tuple[PremetricSpace, LinearOutcomes, GuessMatrix]:
    """Uniform disk of radius sqrt(n), outcomes, and guess from one seed."""
    coords = uniform_disk(n, rng_for(seed, TAG_COORDS))
    space = build_space(coords)
    outcomes = make_sim_dgp(space, seed)
    guess = make_guess(space, seed)
    return space, outcomes, guess


def make_partition(space: PremetricSpace, design: str, h: float) -> ClusterPartition:
    if design == "scaling_clusters":
        return scaling_clusters(space, h)
    if design == "iid":
        return singleton_partition(space.n)
    raise ConfigError(f"unknown design {design!r}")


@dataclass
class CellResult:
    """Per-replicate estimator outputs for one (n, design) cell."""

    estimates: dict                 # name -> (reps,) float, NaN on failure
    covers: dict                    # name -> (reps,) bool array (ci estimators)
    hac_clipped: dict               # name -> draws whose HAC sum was < 0
    theta: float
    seconds: float
    ow_table: owopt.OwWeightTable | None = None     # iterations, KKT residual


def simulate_design(space, outcomes, guess, partition, h, p, reps, base_seed,
                    estimators, ci_level=0.95, eta=1.0,
                    ow_mc_draws=100_000) -> CellResult:
    """Replay `reps` seeded draws and evaluate the requested estimators.

    Replicate r uses treatment seed base_seed + r, in blocks of
    `block_width(n)` draws, so that a block holds a bounded number of bytes
    at any n.  A block of k draws, k not a multiple of 8, is padded with
    all-control draws up to the next multiple, and their values are
    dropped: OpenBLAS computes the columns of a last partial group of 8
    otherwise than those of a full one, and numpy reduces a single column
    by another loop, so the pad keeps each draw's bits independent of the
    block it lands in.  The dependency graph's band is built before the
    first block, and each WITH_CI estimator's HAC sum runs right after its
    estimate, so the Hajek sum releases the arrays that only it still reads
    before the later estimators build theirs.
    Estimator failures (empty Hajek group, degenerate exposure, weak first
    stage) are recorded as NaN, never raised.
    """
    t0 = time.perf_counter()
    n = space.n
    ctx = DesignContext(space, partition, h, p, eta)
    need_ci = [name for name in estimators if name in WITH_CI]

    ow_table = None
    if "ow" in estimators:
        budget = sim_budget(outcomes, space, eta,
                            s_grid=sorted({h, *np.geomspace(1.0, max(n, 2), 12)}))
        _, _, ow_table = owopt.optimize_weights(
            space, partition, owopt.default_ow_grid(h), p, budget, h,
            method="mc", mc_draws=ow_mc_draws, seed=base_seed + n)

    estimates = {name: np.full(reps, np.nan) for name in estimators}
    covers = {name: np.zeros(reps, dtype=bool) for name in need_ci}
    clipped = dict.fromkeys(need_ci, 0)

    if need_ci:     # the graph's n x n temporaries, before any block's arrays
        ctx.band
    m = block_width(n)
    for sl in (slice(lo, min(lo + m, reps)) for lo in range(0, reps, m)):
        k = sl.stop - sl.start
        B = draw_bits_batch(partition.n_clusters, p,
                            range(base_seed + sl.start, base_seed + sl.stop))
        B = np.pad(B, ((0, -k % 8), (0, 0)))       # whole groups of 8 draws
        block = DrawBlock(ctx, realize(outcomes, B.T, ctx.cluster_sums(outcomes.A)),
                          B.T, guess=guess, weights=ow_table)
        for name in estimators:
            estimates[name][sl] = getattr(block, name)[:k]
            if name in WITH_CI:
                sigma2 = block.variance(name)[:k]
                clipped[name] += int((sigma2 < 0.0).sum())
                half = half_width(sigma2, ci_level)
                covers[name][sl] = np.abs(estimates[name][sl] - outcomes.theta) <= half
        del block       # the next block's arrays replace this one's

    return CellResult(estimates=estimates, covers=covers,
                      hac_clipped=clipped, theta=outcomes.theta,
                      seconds=time.perf_counter() - t0, ow_table=ow_table)


def summarize(cell: CellResult, n: int, design: str, reps: int) -> list:
    rows = []
    for name, vals in cell.estimates.items():
        ok = ~np.isnan(vals)
        reps_ok = int(ok.sum())
        good = vals[ok]
        mean_est = float(good.mean()) if reps_ok else np.nan
        bias = mean_est - cell.theta if reps_ok else np.nan
        rmse = float(np.sqrt(np.mean((good - cell.theta) ** 2))) if reps_ok else np.nan
        coverage = None
        if name in cell.covers and reps_ok:
            coverage = float(cell.covers[name][ok].mean())
        rows.append(ResultRow(n=n, design=design, estimator=name,
                              reps_ok=reps_ok,
                              fail_rate=float(1.0 - reps_ok / reps),
                              mean_est=mean_est, bias=bias, rmse=rmse,
                              coverage=coverage, seconds=cell.seconds,
                              ow_table=cell.ow_table if name == "ow" else None,
                              hac_clipped=cell.hac_clipped.get(name)))
    return rows


def run_experiment(config: ExperimentConfig) -> list:
    """All (n, design) cells of the configured grid, as ResultRows."""
    config.validate()
    rows = []
    for n in [int(v) for v in config.n_list]:
        rows.extend(_size_rows(config, n))
    return rows


def _size_rows(config: ExperimentConfig, n: int) -> list:
    """The cells of one population size; its population is released on
    return, before the next size builds its own."""
    names = config.estimators_at(n)
    if not names:
        return []
    space, outcomes, guess = build_population(n, config.base_seed + n)
    h = scaling_rule(n, config.eta, config.c0)
    rows = []
    for design in config.designs:
        partition = make_partition(space, design, h)
        try:
            cell = simulate_design(
                space, outcomes, guess, partition, h, config.p, config.reps,
                config.base_seed, names, ci_level=config.ci_level,
                eta=config.eta, ow_mc_draws=config.ow_mc_draws)
        except owopt.UnseenSaturationError as exc:
            raise type(exc)(f"cell n={n} design={design}: {exc}; raise "
                            f"ow_mc_draws (now {config.ow_mc_draws})") from None
        rows.extend(summarize(cell, n, design, config.reps))
    return rows


def slopes_table(rows: list) -> list:
    """(estimator, design, slope, n_points): the least-squares slope of log
    RMSE on log n for every series with a finite RMSE at >= 3 distinct n;
    n_points counts the finite points."""
    out = []
    for est, design in sorted({(r.estimator, r.design) for r in rows}):
        pts = [(r.n, r.rmse) for r in rows if (r.estimator, r.design)
               == (est, design) and np.isfinite(r.rmse)]
        if len({n for n, _ in pts}) >= 3:
            x = np.log([float(n) for n, _ in pts])
            y = np.log([v for _, v in pts])
            out.append((est, design, float(np.polyfit(x, y, 1)[0]), len(pts)))
    return out


# --- config file parsing (key = value, lists comma-separated) ---------------


def parse_config(text: str) -> ExperimentConfig:
    kinds = get_type_hints(ExperimentConfig)    # list, int or float per key
    kwargs, set_on = {}, {}         # key -> value, line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"lines {set_on[key]} and {lineno}: key "
                              f"{key!r} is set more than once")
        set_on[key] = lineno
        try:
            if kinds[key] is list:
                items = [v.strip() for v in value.split(",") if v.strip()]
                kwargs[key] = [int(v) for v in items] if key == "n_list" else items
            else:
                kwargs[key] = kinds[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    if "n_list" not in kwargs:
        raise ConfigError("config must set n_list")
    return ExperimentConfig(**kwargs).validate()


def results_csv(rows: list) -> str:
    cols = ResultRow.CSV_COLUMNS
    return csv_text(cols, [[getattr(r, c) for c in cols] for r in rows])


def slopes_csv(rows: list) -> str:
    return csv_text(["estimator", "design", "slope", "n_points"],
                    slopes_table(rows))
