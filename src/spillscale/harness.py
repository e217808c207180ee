"""Monte Carlo replication engine over designs, estimators, and sizes.

Each (population size, design) cell builds a fresh uniform-disk population,
the linear simulation outcomes, a guess matrix, and the partition, then
replays seeded treatment draws in blocks through the same batched
estimator core the single-draw functions use (same Philox streams as
`draw_treatments`), so identical configs give identical CSV bytes.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import owopt
from .design import (TAG_COORDS, TAG_TREAT, ClusterPartition, rng_for,
                     scaling_clusters, scaling_rule, singleton_partition)
from .estimators import DesignContext, DrawBlock, check_hac_window, half_width
from .geometry import PremetricSpace, build_space, uniform_disk
from .outcomes import (GuessMatrix, LinearOutcomes, make_guess, make_sim_dgp,
                       realize, sim_budget)

DESIGNS = ("scaling_clusters", "iid")
ESTIMATORS = ("ht", "hajek", "ols", "shrink", "ow")
BLOCK = 512                     # replicates evaluated per batched call


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
        if not self.designs or any(d not in DESIGNS for d in self.designs):
            raise ConfigError(f"designs must be a nonempty subset of {DESIGNS}")
        if not self.estimators or any(e not in ESTIMATORS for e in self.estimators):
            raise ConfigError(f"estimators must be a nonempty subset of {ESTIMATORS}")
        for key, lo, hi in (("p", 0, 1), ("ci_level", 0, 1), ("eta", 0, np.inf),
                            ("c0", 0, np.inf)):
            if not lo < getattr(self, key) < hi:
                raise ConfigError(f"{key} must be in ({lo}, {hi})")
        for key, low in (("reps", 1), ("ow_mc_draws", 1), ("base_seed", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}")
        if {"hajek", "ols"} & set(self.estimators):
            try:
                check_hac_window(self.eta)
            except ValueError as exc:
                raise ConfigError(f"{exc}; the hajek and ols rows need "
                                  f"their intervals") from None
        return self


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


def draw_bits_batch(n_clusters: int, p: float, seeds) -> np.ndarray:
    """Cluster bits for many replicates, one Philox stream per seed.

    Stream-for-stream identical to design.draw_treatments(partition, p, s).
    """
    B = np.empty((len(seeds), n_clusters), dtype=np.int8)
    for k, s in enumerate(seeds):
        B[k] = rng_for(int(s), TAG_TREAT).uniform(size=n_clusters) < p
    return B


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

    Replicate r uses treatment seed base_seed + r.  Estimator failures
    (empty Hajek group, degenerate exposure, weak first stage) are recorded
    as NaN, never raised.
    """
    t0 = time.perf_counter()
    n = space.n
    ctx = DesignContext(space, partition, h, p, eta)
    if "ols" in estimators or "shrink" in estimators:
        ctx.extended        # built first, so HT and Hajek reuse its base counts
    core = [name for name in estimators if name != "ow"]
    need_ci = [name for name in core if name in ("hajek", "ols")]

    ow_table = None
    if "ow" in estimators:
        budget = sim_budget(outcomes, space, eta,
                            s_grid=sorted({h, *np.geomspace(1.0, max(n, 2), 12)}))
        tables, _, ow_table = owopt.optimize_weights(
            space, partition, owopt.default_ow_grid(h), p, budget, h,
            method="mc", mc_draws=ow_mc_draws, seed=base_seed + n)

    estimates = {name: np.full(reps, np.nan) for name in estimators}
    covers = {name: np.zeros(reps, dtype=bool) for name in need_ci}
    clipped = dict.fromkeys(need_ci, 0)

    for lo in range(0, reps, BLOCK):
        seeds = range(base_seed + lo, base_seed + min(lo + BLOCK, reps))
        B = draw_bits_batch(partition.n_clusters, p, list(seeds))
        D = B[:, partition.assignment].T.astype(np.float64)     # n x m
        Y = realize(outcomes, D)
        block = DrawBlock(ctx, Y, D, B.T, guess=guess)
        sl = slice(lo, lo + D.shape[1])
        for name in core:
            estimates[name][sl] = getattr(block, name)
        for name in need_ci:
            sigma2 = block.variance(name)
            clipped[name] += int((sigma2 < 0.0).sum())
            half = half_width(sigma2, ci_level)
            covers[name][sl] = np.abs(estimates[name][sl] - outcomes.theta) <= half
        if "ow" in estimators:
            idx = owopt.stilde_indices(tables.levels, block.B)
            estimates["ow"][sl] = owopt.ow_estimates(ow_table, idx, D, Y)

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
        space, outcomes, guess = build_population(n, config.base_seed + n)
        h = scaling_rule(n, config.eta, config.c0)
        for design in config.designs:
            partition = make_partition(space, design, h)
            names = [e for e in config.estimators
                     if not (e == "ow" and n > config.ow_max_n)]
            if not names:
                continue
            cell = simulate_design(
                space, outcomes, guess, partition, h, config.p, config.reps,
                config.base_seed, names, ci_level=config.ci_level,
                eta=config.eta, ow_mc_draws=config.ow_mc_draws)
            rows.extend(summarize(cell, n, design, config.reps))
    return rows


def rate_slope(rows: list) -> float:
    """Least-squares slope of log RMSE on log n over one estimator/design."""
    pts = [(r.n, r.rmse) for r in rows if np.isfinite(r.rmse)]
    if len({n for n, _ in pts}) < 3:
        raise ValueError("rate_slope needs at least 3 distinct n")
    x = np.log([float(n) for n, _ in pts])
    y = np.log([v for _, v in pts])
    return float(np.polyfit(x, y, 1)[0])


def slopes_table(rows: list) -> list:
    """(estimator, design, slope, n_points) for every series with >= 3 sizes."""
    out = []
    combos = sorted({(r.estimator, r.design) for r in rows})
    for est, design in combos:
        series = [r for r in rows if r.estimator == est and r.design == design]
        if len({r.n for r in series}) >= 3:
            out.append((est, design, rate_slope(series), len(series)))
    return out


# --- config file parsing (key = value, lists comma-separated) ---------------

_LIST_FIELDS = {"n_list", "designs", "estimators"}
_INT_FIELDS = {"reps", "base_seed", "ow_max_n", "ow_mc_draws"}
_FLOAT_FIELDS = {"eta", "c0", "p", "ci_level"}


def parse_config(text: str) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key in _LIST_FIELDS:
                items = [v.strip() for v in value.split(",") if v.strip()]
                kwargs[key] = [int(v) for v in items] if key == "n_list" else items
            elif key in _INT_FIELDS:
                kwargs[key] = int(value)
            elif key in _FLOAT_FIELDS:
                kwargs[key] = float(value)
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
