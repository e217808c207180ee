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
import io
import math
import operator
import re
import sys
from pathlib import Path

import numpy as np

from . import harness, oracle, owopt
from .design import (ClusterPartition, cluster_bits, draw_bits_batch,
                     incidence, scaling_clusters, scaling_rule)
from .estimators import (UNDEFINED, WITH_CI, DesignContext, DrawBlock,
                         check_hac_window, interval)
from .geometry import (SEED_LIMIT, GeometryError, InterferenceBudget, build_space,
                       build_space_from_dist)
from .outcomes import make_guess, make_sim_dgp, realize


def _output(command, flag, path, is_dir=True) -> Path:
    """The output `path` given to `flag`, or exit 1 naming both when an
    existing file stands where a directory for it must go (the path itself
    when it names a directory (is_dir), or one of its parents), or an
    existing directory stands where the output file must go.  Commands
    call it before any work; `_write` creates the directories."""
    path = Path(path)
    if not is_dir and path.is_dir():
        raise SystemExit(f"{command}: {flag} {path}: {path} is a directory, "
                         f"not a file")
    for p in ([path] if is_dir else []) + list(path.parents):
        if p.is_dir():
            break
        if p.exists():
            raise SystemExit(f"{command}: {flag} {path}: {p} is a file, "
                             f"not a directory")
    return path


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _matrix_text(A) -> str:
    buf = io.StringIO()
    np.savetxt(buf, A, delimiter=",", fmt="%.12g")
    return buf.getvalue()


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
_seed = _checked(int, lambda v: 0 <= v < SEED_LIMIT, "an integer in [0, 2**64)")


def _sizes(text):
    """argparse type: comma-separated sizes, rejected (exit 2) unless there
    is at least one and each is a positive finite number."""
    try:
        sizes = [_positive(v) for v in text.split(",") if v.strip()]
    except (ValueError, argparse.ArgumentTypeError):
        sizes = []
    if not sizes:
        raise argparse.ArgumentTypeError(
            f"{text} is not a comma-separated list of positive finite numbers")
    return sizes


def _number(path, column, text, kind):
    """kind(text) for one CSV cell, or SystemExit naming file, column and value."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise SystemExit(f"{path}: {column} value {text!r} is not {noun}") from None


def _read_text(path) -> str:
    """An input file's text: UTF-8, a leading byte-order mark dropped.  Not
    UTF-8 raises OSError naming the file, reported as an unreadable file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise OSError(f"{path} is not UTF-8 text: byte "
                      f"0x{exc.object[exc.start]:02x} on line {line}") from None


def _read_csv(path, kinds):
    """Header and rows of a CSV input, blank lines skipped: names stripped and
    lowercased; a row with more or fewer fields, or text the csv module
    rejects, exits 1.  kinds(header) types each column: int or float via
    `_number`, None keeps the text."""
    try:
        rows = [row for row in csv.reader(io.StringIO(_read_text(path))) if row]
    except csv.Error as exc:
        raise SystemExit(f"{path}: {exc}") from None
    names = [name.strip() for name in rows[0]] if rows else []
    ragged = next((row for row in rows[1:] if len(row) != len(names)), None)
    if ragged is not None:
        raise SystemExit(f"{path}: row {ragged} has {len(ragged)} fields "
                         f"for the {len(names)} columns {names}")
    header = [name.lower() for name in names]
    typed = kinds(header)
    return header, [[text if kind is None else _number(path, name, text, kind)
                     for name, kind, text in zip(names, typed, row)]
                    for row in rows[1:]]


def load_population(path):
    """Population CSV: either unit_id,x1..xq coordinates or i,j,dist table.

    Returns the space and its sorted unit ids; unit k of the space is the
    k-th id, and the other loaders and outputs key units by these ids.
    """
    header, body = _read_csv(path, lambda h: (
        [int, int, float] if h == ["i", "j", "dist"] else
        [int] + [float] * (len(h) - 1) if h[:1] == ["unit_id"] else [None] * len(h)))
    try:
        if header[:1] == ["unit_id"] and len(header) >= 2:
            body.sort(key=lambda row: row[0])
            ids = [row[0] for row in body]
            repeated = _repeated(ids)
            if repeated is not None:
                raise SystemExit(f"{path} lists unit_id {repeated} more than once")
            coords = np.array([row[1:] for row in body], dtype=float)
            return build_space(coords), ids
        if header == ["i", "j", "dist"]:
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
    header, rows = _read_csv(path, lambda header: [
        int if key in ("unit_id", "cluster_id") else None for key in header])
    if not {"unit_id", "cluster_id"} <= set(header):
        raise SystemExit(f"{path} must have unit_id and cluster_id columns")
    unit, cluster = header.index("unit_id"), header.index("cluster_id")
    rows = [(r[unit], r[cluster]) for r in rows]
    outside = next((c for _, c in rows if not 0 <= c < len(ids)), None)
    if outside is not None:        # C <= n, so a larger id leaves a gap
        raise SystemExit(f"{path}: cluster_id {outside} is outside "
                         f"0..{len(ids) - 1}")
    assignment = np.full(len(ids), -1, dtype=np.int64)
    assignment[_unit_index(path, ids, [u for u, _ in rows])] = [c for _, c in rows]
    if np.any(assignment < 0):
        raise SystemExit(f"{path} does not assign every unit a cluster")
    if not np.bincount(assignment).all():
        raise SystemExit(f"{path} has empty cluster ids; renumber 0..C-1")
    return ClusterPartition(assignment)


def load_outcomes(path, ids):
    """Outcomes CSV (Y, d, optional unit_id keyed by the population's ids)."""
    header, rows = _read_csv(path, lambda header: [
        {"unit_id": int, "y": float, "d": int}.get(key) for key in header])
    if not {"y", "d"} <= set(header):
        raise SystemExit(f"{path} must have Y and d columns")
    if len(rows) != len(ids):
        raise SystemExit(f"{path} has {len(rows)} rows for {len(ids)} units")
    rows = [dict(zip(header, r)) for r in rows]
    if "unit_id" in header:
        pos = _unit_index(path, ids, [r["unit_id"] for r in rows])
        rows = [rows[k] for k in np.argsort(pos)]
    Y = np.array([r["y"] for r in rows])
    if not np.all(np.isfinite(Y)):
        raise SystemExit(f"{path} has non-finite Y values")
    d = np.array([r["d"] for r in rows])
    if not np.isin(d, (0, 1)).all():
        raise SystemExit(f"{path} has d values other than 0 and 1")
    return Y, d.astype(np.int8)


def _h(args, space) -> float:
    """--h where the command has it and it is given, else the scaling rule's h."""
    h = getattr(args, "h", None)
    return h if h is not None else scaling_rule(space.n, args.eta, args.c0)


def cmd_design(args):
    out = _output("design", "--out", args.out)
    space, ids = load_population(args.population)
    h = _h(args, space)
    partition = scaling_clusters(space, h)
    d = draw_bits_batch(partition.n_clusters, args.p, [args.seed])[0][partition.assignment]
    counts = incidence(space, partition, h)
    _write(out / "clusters.csv", harness.csv_text(
        ["unit_id", "cluster_id"],
        [(u, int(partition.assignment[i])) for i, u in enumerate(ids)]))
    inc_rows = [("phi", u, int(counts.phi[i])) for i, u in enumerate(ids)]
    inc_rows += [("gamma", c, int(counts.gamma[c]))
                 for c in range(partition.n_clusters)]
    _write(out / "incidence.csv",
           harness.csv_text(["kind", "id", "value"], inc_rows))
    _write(out / "treatments.csv", harness.csv_text(
        ["unit_id", "d"], [(u, int(d[i])) for i, u in enumerate(ids)]))
    print(f"n={space.n} clusters={partition.n_clusters} h={h:.6g} "
          f"phi_max={counts.phi_max} seed={args.seed}")
    return 0


def cmd_estimate(args):
    out = args.out and _output("estimate", "--out", args.out, is_dir=False)
    want_ci = args.estimator in WITH_CI and args.ci_level > 0
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
        raise SystemExit(f"{args.outcomes}: {exc}") from None
    h = _h(args, space)
    guess = (make_guess(space, args.guess_seed).over(partition)
             if args.estimator == "shrink" else None)
    block = DrawBlock(DesignContext(space, partition, h, args.p, args.eta),
                      Y, b, guess=guess)

    estimate = float(getattr(block, args.estimator)[0])
    var = lo = hi = ""
    flags = []
    if np.isnan(estimate):
        estimate, flags = "", [UNDEFINED[args.estimator]]
    elif want_ci:
        vr = interval(estimate, block.variance(args.estimator)[0], args.ci_level)
        var, (_, lo, hi) = vr.variance_hat, vr.ci
        flags = ["variance_truncated"] if vr.truncated else []

    text = harness.csv_text(
        ["estimator", "estimate", "var_hat", "ci_lo", "ci_hi", "fail_flags"],
        [(args.estimator, estimate, var, lo, hi, ";".join(flags))])
    if out:
        _write(out, text)
    sys.stdout.write(text)
    return 0


def cmd_ow_weights(args):
    out = _output("ow-weights", "--out", args.out)
    space, ids = load_population(args.population)
    partition = load_clusters(args.clusters, ids)
    h = _h(args, space)
    grid = args.grid or owopt.default_ow_grid(h)
    top = owopt.effective_grid(space, grid)[-1]
    if not owopt.reaches_h(top, h):
        print(f"ow-weights: --grid must reach the estimator size h = {h:g}, "
              f"but its largest size is {top:g}", file=sys.stderr)
        return 2
    budget = InterferenceBudget(eta=args.eta, k1=args.k1, ybar=args.ybar)
    try:
        tables, start, ow = owopt.optimize_weights(
            DesignContext(space, partition, h, args.p, args.eta), grid, budget,
            method=args.method, mc_draws=args.mc_draws, seed=args.seed)
    except owopt.UnseenSaturationError as exc:      # main() names the command
        raise type(exc)(f"{exc}; raise --mc-draws (now {args.mc_draws})") from None
    rows = [(u, tables.grid[s], ow.W[i, s])
            for i, u in enumerate(ids) for s in range(tables.grid.size)]
    _write(out / "weights.csv", harness.csv_text(["unit_id", "s", "w"], rows))
    _write(out / "qp_report.csv", harness.csv_text(
        ["objective", "kkt_residual", "iterations", "converged",
         "ipw_objective"],
        [(ow.objective_value, ow.kkt_residual, ow.iterations,
          int(ow.converged), start.objective_value)]))
    print(f"objective={ow.objective_value:.6g} "
          f"ipw_start={start.objective_value:.6g} iters={ow.iterations}")
    return 0


def cmd_oracle(args):
    dump = args.dump_matrices and _output("oracle", "--dump-matrices",
                                          args.dump_matrices)
    space, ids = load_population(args.population)
    if dump and space.n > 500:
        raise SystemExit("--dump-matrices is limited to n <= 500")
    partition = load_clusters(args.clusters, ids)
    outcomes = make_sim_dgp(space, args.seed)
    h = _h(args, space)
    if dump:
        _write(dump / "A.csv", _matrix_text(outcomes.A))
        _write(dump / "A_hat.csv", _matrix_text(make_guess(space, args.seed).A))

    outcomes = outcomes.over(partition)
    enum = oracle.enumerate_assignments(partition, args.p)
    ctx = DesignContext(space, partition, h, args.p, args.eta)

    def run(B):
        return getattr(DrawBlock(ctx, realize(outcomes, B.T), B=B.T), args.estimator)

    try:
        res = oracle.exact_expectation(run, enum)
    except oracle.UndefinedError:
        raise SystemExit(f"oracle: estimator {args.estimator} is defined on none of "
                         f"the 2^{partition.n_clusters} assignments") from None
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
            (m[1] != "coverage" or m[2] in WITH_CI):
        return token, m[1], m[2], m[3], m[4] and int(m[4])
    raise argparse.ArgumentTypeError(
        f"{token!r} is not a number or metric:estimator:design[:n] (metric in "
        f"{', '.join(_METRICS)}; slope takes no n, coverage only "
        f"{', '.join(WITH_CI)})")


def _assertion(text):
    """argparse type for --assert 'lhs op rhs': (text, op, lhs, rhs)."""
    op = next((op for op in _OPS if op in text), None)
    if op is None:
        raise argparse.ArgumentTypeError(f"{text!r} needs an operator <, <=, >, >=")
    return text, op, *(_operand(side.strip()) for side in text.split(op, 1))


def _unmatched(config, side):
    """Why a result operand names no row the config's run writes, naming the
    token, or None when it names one (numbers always do)."""
    if isinstance(side, float):
        return None
    token, metric, est, design, n = side
    sizes = {int(v) for v in config.n_list}
    runs = {v for v in sizes if est in config.estimators_at(v)}
    need = 3 if metric == "slope" else 1
    if est not in config.estimators:
        why = f"estimator {est} is not in the config's estimators"
    elif design not in config.designs:
        why = f"design {design} is not in the config's designs"
    elif n is not None and n not in sizes:
        why = f"n = {n} is not in n_list"
    elif n is not None and n not in runs:
        why = f"ow runs only up to ow_max_n = {config.ow_max_n}"
    elif n is None and len(runs) < need:
        why = f"{metric} needs {need} or more sizes, the config runs {est} " \
              f"at {len(runs)}"
    else:
        return None
    return f"--assert token {token!r} matches no result: {why}"


def _value(rows, side):
    """The number an operand stands for; NaN for a row without it, or for a
    series without a slope (finite RMSEs at fewer than three sizes)."""
    if isinstance(side, float):
        return side
    _, metric, est, design, n = side
    if metric == "slope":
        slopes = {(e, d): v for e, d, v, _ in harness.slopes_table(rows)}
        return slopes.get((est, design), math.nan)
    series = [r for r in rows if (r.estimator, r.design) == (est, design)
              and n in (None, r.n)]
    value = getattr(series[0], metric)
    return math.nan if value is None else value


def cmd_replicate(args):
    out = _output("replicate", "--out", args.out)
    try:
        config = harness.parse_config(_read_text(args.config))
    except (harness.ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    unmatched = next((why for _, _, *sides in args.assertion for side in sides
                      if (why := _unmatched(config, side))), None)
    if unmatched:
        print(f"replicate: {unmatched}", file=sys.stderr)
        return 2
    rows = harness.run_experiment(config)
    _write(out / "results.csv", harness.results_csv(rows))
    _write(out / "slopes.csv", harness.slopes_csv(rows))
    for row in rows:
        qp = row.ow_table
        trace = "" if qp is None else \
            f" qp_iters={qp.iterations} kkt={qp.kkt_residual:.3g}" \
            f" polish={qp.polish_adopted}"
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
    d.add_argument("--seed", type=_seed, default=0)
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
    e.add_argument("--guess-seed", type=_seed, default=0, dest="guess_seed")
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
    w.add_argument("--seed", type=_seed, default=0)
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
    o.add_argument("--seed", type=_seed, default=0)
    o.add_argument("--dump-matrices", default=None, dest="dump_matrices",
                   help="directory for A.csv and A_hat.csv, created if missing")
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
    except (oracle.EnumerationError, owopt.UnseenSaturationError, OSError) as exc:
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
