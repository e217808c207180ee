"""Command-line front end.

Subcommands: design (build and save a partition), estimate (one estimate
from realized data), ow-weights (solve the weighting program), oracle
(exact expectations on small instances), replicate (Monte Carlo tables).
All outputs are CSV with platform-independent newlines; identical inputs
produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import math
import operator
import re
import sys
from pathlib import Path

import numpy as np

from . import harness, oracle, owopt
from .design import (ClusterPartition, cluster_bits, draw_treatments,
                     incidence, scaling_clusters, scaling_rule)
from .estimators import (UNDEFINED, DesignContext, DrawBlock, check_hac_window,
                         effective_grid, interval)
from .geometry import (GeometryError, InterferenceBudget, build_space,
                       build_space_from_dist)
from .outcomes import make_guess, make_sim_dgp, realize


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _repeated(values):
    """First value listed more than once in a sorted sequence, else None."""
    return next((a for a, b in zip(values, values[1:]) if a == b), None)


def _checked(kind, ok, what):
    """argparse type: kind(text), rejected (exit 2) unless ok(value)."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    parse.__name__ = kind.__name__      # argparse names it in "invalid ... value"
    return parse


_probability = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_level = _checked(float, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
_count = _checked(int, lambda v: v > 0, "a positive integer")


def _sizes(text):
    """argparse type: comma-separated sizes, rejected (exit 2) unless each
    is a positive finite number."""
    try:
        return [_positive(v) for v in text.split(",") if v.strip()]
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"{text} is not a comma-separated list of positive finite "
            f"numbers") from None


def _number(path, column, text, kind):
    """kind(text) for one CSV cell (kind is int or float), or SystemExit
    naming the file, the column and the bad value."""
    try:
        return kind(text)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise SystemExit(f"{path}: {column} value {text!r} is not {noun}") from None


def load_population(path):
    """Population CSV: either unit_id,x1..xq coordinates or i,j,dist table.

    Returns the space and its sorted unit ids; unit k of the space is the
    k-th id, and the other loaders and outputs key units by these ids.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip().lower() for h in next(reader, [])]
        body = [row for row in reader if row]
    ragged = next((row for row in body if len(row) != len(header)), None)
    if ragged is not None:
        raise SystemExit(f"{path}: row {ragged} has {len(ragged)} fields "
                         f"for the {len(header)} columns {header}")
    try:
        if header[:1] == ["unit_id"] and len(header) >= 2:
            body = sorted(([_number(path, "unit_id", row[0], int)]
                           + [_number(path, col, v, float)
                              for col, v in zip(header[1:], row[1:])]
                           for row in body), key=lambda row: row[0])
            ids = [row[0] for row in body]
            repeated = _repeated(ids)
            if repeated is not None:
                raise SystemExit(f"{path} lists unit_id {repeated} more than once")
            coords = np.array([row[1:] for row in body], dtype=float)
            return build_space(coords), ids
        if header == ["i", "j", "dist"]:
            body = [(_number(path, "i", i, int), _number(path, "j", j, int),
                     _number(path, "dist", d, float)) for i, j, d in body]
            pairs = sorted((i, j) for i, j, _ in body)
            repeated = _repeated(pairs)
            if repeated is not None:
                raise SystemExit(f"{path} lists pair {repeated} more than once")
            ids = sorted({u for pair in pairs for u in pair})
            remap = {u: k for k, u in enumerate(ids)}
            given = np.eye(len(ids), dtype=bool)
            dist = np.zeros((len(ids), len(ids)))
            for i, j, d in body:
                a, b = remap[i], remap[j]
                given[a, b] = True
                dist[a, b] = d
            if not given.all():
                a, b = np.argwhere(~given)[0]
                raise SystemExit(f"{path} has no distance for pair "
                                 f"({ids[a]}, {ids[b]})")
            return build_space_from_dist(dist), ids
    except GeometryError as exc:
        raise SystemExit(f"invalid population in {path}: {exc}") from None
    raise SystemExit(f"unrecognized population header in {path}: {header}")


def _unit_index(path, ids, rows):
    """Positions of the rows' unit ids in the population, or SystemExit."""
    index = {u: k for k, u in enumerate(ids)}
    unknown = next((u for u in rows if u not in index), None)
    if unknown is not None:
        raise SystemExit(f"{path} lists unit_id {unknown}, which is not in "
                         f"the population")
    repeated = _repeated(sorted(rows))
    if repeated is not None:
        raise SystemExit(f"{path} lists unit_id {repeated} more than once; "
                         f"each of the {len(ids)} units needs one row")
    return np.array([index[u] for u in rows], dtype=np.int64)


def load_clusters(path, ids):
    """clusters.csv (unit_id, cluster_id), keyed by the population's ids."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"unit_id", "cluster_id"} <= set(reader.fieldnames or ()):
            raise SystemExit(f"{path} must have unit_id and cluster_id columns")
        rows = [tuple(_number(path, col, r[col], int)
                      for col in ("unit_id", "cluster_id"))
                for r in reader]
    assignment = np.full(len(ids), -1, dtype=np.int64)
    assignment[_unit_index(path, ids, [u for u, _ in rows])] = [c for _, c in rows]
    if np.any(assignment < 0):
        raise SystemExit(f"{path} does not assign every unit a cluster")
    n_clusters = int(assignment.max()) + 1
    clusters = [np.flatnonzero(assignment == c) for c in range(n_clusters)]
    if any(c.size == 0 for c in clusters):
        raise SystemExit(f"{path} has empty cluster ids; renumber 0..C-1")
    return ClusterPartition(assignment=assignment, clusters=clusters,
                            seeds=[int(c[0]) for c in clusters], g=0.0)


def load_outcomes(path, ids):
    """Outcomes CSV (Y, d, optional unit_id keyed by the population's ids)."""
    n = len(ids)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = {name.strip().lower(): name for name in reader.fieldnames or ()}
        if "y" not in cols or "d" not in cols:
            raise SystemExit(f"{path} must have Y and d columns")
        rows = list(reader)
    if len(rows) != n:
        raise SystemExit(f"{path} has {len(rows)} rows for {n} units")

    def column(key, kind):
        return [_number(path, cols[key], r[cols[key]], kind) for r in rows]

    if "unit_id" in cols:
        pos = _unit_index(path, ids, column("unit_id", int))
        rows = [rows[k] for k in np.argsort(pos)]
    Y = np.array(column("y", float))
    if not np.all(np.isfinite(Y)):
        raise SystemExit(f"{path} has non-finite Y values")
    d = np.array(column("d", int))
    if not np.isin(d, (0, 1)).all():
        raise SystemExit(f"{path} has d values other than 0 and 1")
    return Y, d.astype(np.int8)


def cmd_design(args):
    space, ids = load_population(args.population)
    h = scaling_rule(space.n, args.eta, args.c0)
    partition = scaling_clusters(space, h)
    draw = draw_treatments(partition, args.p, args.seed)
    counts = incidence(space, partition, h)
    out = Path(args.out)
    _write(out / "clusters.csv", harness.csv_text(
        ["unit_id", "cluster_id"],
        [(u, int(partition.assignment[i])) for i, u in enumerate(ids)]))
    inc_rows = [("phi", u, int(counts.phi[i])) for i, u in enumerate(ids)]
    inc_rows += [("gamma", c, int(counts.gamma[c]))
                 for c in range(partition.n_clusters)]
    _write(out / "incidence.csv",
           harness.csv_text(["kind", "id", "value"], inc_rows))
    _write(out / "treatments.csv", harness.csv_text(
        ["unit_id", "d"], [(u, int(draw.d[i])) for i, u in enumerate(ids)]))
    print(f"n={space.n} clusters={partition.n_clusters} h={h:.6g} "
          f"phi_max={counts.phi_max} seed={args.seed}")
    return 0


def cmd_estimate(args):
    want_ci = args.estimator in ("hajek", "ols") and args.ci_level > 0
    if want_ci:
        try:
            check_hac_window(args.eta)
        except ValueError as exc:
            print(f"estimate: {exc}; raise --eta, or pass --ci-level 0 to "
                  f"skip the interval", file=sys.stderr)
            return 2
    space, ids = load_population(args.population)
    partition = load_clusters(args.clusters, ids)
    Y, d = load_outcomes(args.outcomes, ids)
    try:
        b = cluster_bits(partition, d)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    h = args.h if args.h is not None else scaling_rule(space.n, args.eta, args.c0)
    guess = make_guess(space, args.guess_seed) if args.estimator == "shrink" else None
    block = DrawBlock(DesignContext(space, partition, h, args.p, args.eta),
                      Y, d, b, guess=guess)

    estimate = float(getattr(block, args.estimator)[0])
    var = lo = hi = ""
    flags = []
    if np.isnan(estimate):
        estimate, flags = "", [UNDEFINED[args.estimator][0]]
    elif want_ci:
        vr = interval(estimate, block.variance(args.estimator)[0], args.ci_level)
        var, (_, lo, hi) = vr.variance_hat, vr.ci
        flags = ["variance_truncated"] if vr.truncated else []

    text = harness.csv_text(
        ["estimator", "estimate", "var_hat", "ci_lo", "ci_hi", "fail_flags"],
        [(args.estimator, estimate, var, lo, hi, ";".join(flags))])
    if args.out:
        _write(Path(args.out), text)
    sys.stdout.write(text)
    return 0


def cmd_ow_weights(args):
    space, ids = load_population(args.population)
    partition = load_clusters(args.clusters, ids)
    h = args.h if args.h is not None else scaling_rule(space.n, args.eta, args.c0)
    grid = args.grid or owopt.default_ow_grid(h)
    top = effective_grid(space, grid)[-1]
    if not owopt.reaches_h(top, h):
        print(f"ow-weights: --grid must reach the estimator size h = {h:g}, "
              f"but its largest size is {top:g}", file=sys.stderr)
        return 2
    budget = InterferenceBudget(eta=args.eta, k1=args.k1, ybar=args.ybar)
    tables, start, ow = owopt.optimize_weights(
        space, partition, grid, args.p, budget, h, method=args.method,
        mc_draws=args.mc_draws, seed=args.seed)
    out = Path(args.out)
    rows = [(u, f"{tables.grid[s]:.12g}", f"{ow.W[i, s]:.12g}")
            for i, u in enumerate(ids) for s in range(tables.grid.size)]
    _write(out / "weights.csv", harness.csv_text(["unit_id", "s", "w"], rows))
    _write(out / "qp_report.csv", harness.csv_text(
        ["objective", "kkt_residual", "iterations", "converged",
         "ipw_objective"],
        [(f"{ow.objective_value:.12g}", f"{ow.kkt_residual:.12g}",
          ow.iterations, int(ow.converged), f"{start.objective_value:.12g}")]))
    print(f"objective={ow.objective_value:.6g} "
          f"ipw_start={start.objective_value:.6g} iters={ow.iterations}")
    return 0


def cmd_oracle(args):
    space, ids = load_population(args.population)
    partition = load_clusters(args.clusters, ids)
    outcomes = make_sim_dgp(space, args.seed)
    h = args.h if args.h is not None else scaling_rule(space.n, args.eta, args.c0)
    if args.dump_matrices:
        if space.n > 500:
            raise SystemExit("--dump-matrices is limited to n <= 500")
        guess = make_guess(space, args.seed)
        out = Path(args.dump_matrices)
        np.savetxt(out / "A.csv" if out.is_dir() else out.with_name("A.csv"),
                   outcomes.A, delimiter=",", fmt="%.12g")
        np.savetxt(out / "A_hat.csv" if out.is_dir() else out.with_name("A_hat.csv"),
                   guess.A_hat, delimiter=",", fmt="%.12g")

    enum = oracle.enumerate_assignments(partition, args.p)
    ctx = DesignContext(space, partition, h, args.p, args.eta)

    def run(B):
        Y = realize(outcomes, B[:, partition.assignment].T)
        return getattr(DrawBlock(ctx, Y, B=B.T), args.estimator)

    res = oracle.exact_expectation(run, enum)
    print(f"estimator={args.estimator} n={space.n} C={partition.n_clusters} "
          f"h={h:.6g} p={args.p}")
    print(f"exact_mean={res.mean:.12g} p_defined={res.p_defined:.12g} "
          f"theta={outcomes.theta:.12g}")
    return 0


_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}
_METRICS = ("slope",) + harness.ResultRow.CSV_COLUMNS[3:]   # the numeric columns


def _operand(token):
    """float(token), or (token, metric, estimator, design, n or None) for a
    result token metric:estimator:design[:n]; ArgumentTypeError otherwise."""
    try:
        return float(token)
    except ValueError:
        m = re.fullmatch(r"(\w+):(\w+):(\w+)(?::(\d+))?", token) or [None] * 5
    if m[1] in _METRICS and m[2] in harness.ESTIMATORS and \
            m[3] in harness.DESIGNS and not (m[1] == "slope" and m[4]) and \
            (m[1] != "coverage" or m[2] in ("hajek", "ols")):
        return token, m[1], m[2], m[3], m[4] and int(m[4])
    raise argparse.ArgumentTypeError(
        f"{token!r} is not a number or metric:estimator:design[:n] (metric in "
        f"{', '.join(_METRICS)}; slope takes no n, coverage only hajek, ols)")


def _assertion(text):
    """argparse type for --assert 'lhs op rhs': (text, op, lhs, rhs)."""
    op = next((op for op in _OPS if op in text), None)
    if op is None:
        raise argparse.ArgumentTypeError(f"{text!r} needs an operator <, <=, >, >=")
    return text, op, *(_operand(side.strip()) for side in text.split(op, 1))


def _value(rows, side):
    """The number an operand stands for; NaN for a row without it."""
    if isinstance(side, float):
        return side
    token, metric, est, design, n = side
    series = [r for r in rows if (r.estimator, r.design) == (est, design)
              and n in (None, r.n)]
    if len({r.n for r in series}) < (3 if metric == "slope" else 1):
        raise SystemExit(f"no result matches {token}")
    value = harness.rate_slope(series) if metric == "slope" else \
        getattr(series[0], metric)
    return math.nan if value is None else value


def cmd_replicate(args):
    try:
        config = harness.parse_config(Path(args.config).read_text())
    except (harness.ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    rows = harness.run_experiment(config)
    out = Path(args.out)
    _write(out / "results.csv", harness.results_csv(rows))
    _write(out / "slopes.csv", harness.slopes_csv(rows))
    for row in rows:
        qp = row.ow_table
        trace = "" if qp is None else \
            f" qp_iters={qp.iterations} kkt={qp.kkt_residual:.3g}"
        if row.hac_clipped is not None:
            trace += f" hac_clipped={row.hac_clipped}"
        print(f"n={row.n} design={row.design} est={row.estimator} "
              f"rmse={row.rmse:.6g} bias={row.bias:.6g} "
              f"fail={row.fail_rate:.4g}{trace} [{row.seconds:.2f}s]")
        if qp is not None and not qp.converged:
            print(f"warning: OW weights for n={row.n} design={row.design} did "
                  f"not converge (qp_iters={qp.iterations}, "
                  f"kkt={qp.kkt_residual:.3g})", file=sys.stderr)
    passed = []
    for text, op, *sides in args.assertion:
        a, b = (_value(rows, side) for side in sides)
        passed.append(_OPS[op](a, b))
        print(f"assert {text}: {a:.6g} {op} {b:.6g} -> {'pass' if passed[-1] else 'FAIL'}")
    return 0 if all(passed) else 3


def build_parser():
    ap = argparse.ArgumentParser(prog="spillscale")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("design", help="build a scaling-clusters partition")
    d.add_argument("--population", required=True)
    d.add_argument("--eta", type=_positive, default=1.0)
    d.add_argument("--c0", type=_positive, default=1.0)
    d.add_argument("--p", type=_probability, default=0.5)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_design)

    e = sub.add_parser("estimate", help="one estimate from realized data")
    e.add_argument("--population", required=True)
    e.add_argument("--outcomes", required=True)
    e.add_argument("--clusters", required=True)
    e.add_argument("--estimator", required=True,
                   choices=["ht", "hajek", "ols", "shrink"])
    e.add_argument("--eta", type=_positive, default=1.0)
    e.add_argument("--c0", type=_positive, default=1.0)
    e.add_argument("--h", type=_positive, default=None)
    e.add_argument("--p", type=_probability, default=0.5)
    e.add_argument("--ci-level", type=_level, default=0.95, dest="ci_level")
    e.add_argument("--guess-seed", type=int, default=0, dest="guess_seed")
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_estimate)

    w = sub.add_parser("ow-weights", help="solve the optimal weighting program")
    w.add_argument("--population", required=True)
    w.add_argument("--clusters", required=True)
    w.add_argument("--eta", type=_positive, required=True)
    w.add_argument("--k1", type=_positive, required=True)
    w.add_argument("--ybar", type=_positive, required=True)
    w.add_argument("--p", type=_probability, default=0.5)
    w.add_argument("--h", type=_positive, default=None)
    w.add_argument("--c0", type=_positive, default=1.0)
    w.add_argument("--grid", type=_sizes, default=None,
                   help="comma-separated sizes; default h*2^(-5..2)")
    w.add_argument("--method", choices=["exact", "mc"], default="mc")
    w.add_argument("--mc-draws", type=_count, default=100_000, dest="mc_draws")
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_ow_weights)

    o = sub.add_parser("oracle", help="exact expectation over all assignments")
    o.add_argument("--population", required=True)
    o.add_argument("--clusters", required=True)
    o.add_argument("--estimator", default="ht", choices=["ht", "hajek"])
    o.add_argument("--p", type=_probability, default=0.5)
    o.add_argument("--eta", type=_positive, default=1.0)
    o.add_argument("--c0", type=_positive, default=1.0)
    o.add_argument("--h", type=_positive, default=None)
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--dump-matrices", default=None, dest="dump_matrices")
    o.set_defaults(func=cmd_oracle)

    r = sub.add_parser("replicate", help="Monte Carlo RMSE/coverage tables")
    r.add_argument("--config", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--assert", action="append", default=[], dest="assertion",
                   type=_assertion,
                   help="e.g. 'rmse:shrink:scaling_clusters:900 < "
                        "rmse:ols:scaling_clusters:900'")
    r.set_defaults(func=cmd_replicate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except oracle.EnumerationError as exc:
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
