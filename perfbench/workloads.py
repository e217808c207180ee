"""The three benchmark workloads: inputs from a seed, one timed operation,
the work it does, and the check of its output.

Every operation goes through the package's public entry points:
`spillscale.cli.main` in-process for `replicate` and `oracle`, and
`geometry.audit_geometry` for the audit that has no CLI command.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re

import numpy as np

from spillscale import cli, geometry
from spillscale.design import TAG_COORDS, rng_for, scaling_clusters, scaling_rule
from spillscale.geometry import build_space, uniform_disk

DEFAULT_SEED = 7            # the acceptance suite's base_seed
THETA = 2.0                 # the simulation DGP pins the estimand at 2
RTOL, ATOL = 1e-6, 1e-9     # reference tolerance on every float output
SCALE_SIZES = (600, 1000, 1600)     # design-scale population sizes
ORACLE = (50, 11, 3.5)             # design-scale oracle: n, C, first g


def _cli(argv):
    """Run the CLI in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _close(a, b):
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


class Replicate:
    """`spillscale replicate` on one config; output is results.csv."""

    def __init__(self, name, n_list, designs, estimators, reps, extra=""):
        self.name = name
        self.n_list, self.designs = n_list, designs
        self.estimators, self.reps, self.extra = estimators, reps, extra

    def config_text(self, seed):
        return (f"n_list = {', '.join(map(str, self.n_list))}\n"
                f"designs = {', '.join(self.designs)}\n"
                f"estimators = {', '.join(self.estimators)}\n"
                f"reps = {self.reps}\np = 0.5\nbase_seed = {seed}\n"
                + self.extra)

    def setup(self, work, seed):
        cfg = work / "config.txt"
        cfg.write_text(self.config_text(seed))
        return {"config": cfg, "out": work / "out", "seed": seed}

    def work(self, inputs):
        """Replicate draws x cells in one operation."""
        return self.reps * len(self.n_list) * len(self.designs)

    def run(self, inputs):
        rc, _ = _cli(["replicate", "--config", str(inputs["config"]),
                      "--out", str(inputs["out"])])
        results = (inputs["out"] / "results.csv").read_bytes() if rc == 0 else b""
        return {"rc": rc, "results": results}

    @staticmethod
    def perturb(out):
        text = out["results"].decode()
        lines = text.splitlines()
        cols = lines[1].split(",")
        cols[5] = repr(float(cols[5]) + 0.5)          # mean_est
        lines[1] = ",".join(cols)
        return dict(out, results=("\n".join(lines) + "\n").encode())

    def check(self, out, inputs, ref):
        if out["rc"] != 0:
            return [f"replicate exited {out['rc']}"]
        rows = list(csv.DictReader(io.StringIO(out["results"].decode())))
        errors = []
        want = {(n, d, e) for n in self.n_list for d in self.designs
                for e in self.estimators}
        got = {(int(r["n"]), r["design"], r["estimator"]) for r in rows}
        if got != want:
            errors.append(f"result cells {sorted(got ^ want)} missing or extra")
        for r in rows:
            errors += [f"{r['n']}/{r['design']}/{r['estimator']}: {e}"
                       for e in self._row_invariants(r)]
        if ref is not None:
            errors += self._against_reference(rows, ref["results_csv"])
        return errors

    def _row_invariants(self, r):
        errs = []
        reps_ok = int(r["reps_ok"])
        if not 0 <= reps_ok <= self.reps:
            errs.append(f"reps_ok {reps_ok} outside [0, {self.reps}]")
        if not 0.0 <= float(r["fail_rate"]) <= 1.0:
            errs.append(f"fail_rate {r['fail_rate']} outside [0, 1]")
        if reps_ok:
            mean, bias, rmse = (float(r[k]) for k in ("mean_est", "bias", "rmse"))
            if not abs(mean - bias - THETA) <= 1e-9:
                errs.append(f"mean_est - bias = {mean - bias!r}, not {THETA}")
            if not (math.isfinite(rmse) and rmse >= 0.0):
                errs.append(f"rmse {rmse!r} not finite and >= 0")
        if r["coverage"] and not 0.0 <= float(r["coverage"]) <= 1.0:
            errs.append(f"coverage {r['coverage']} outside [0, 1]")
        return errs

    @staticmethod
    def _against_reference(rows, ref_text):
        ref_rows = list(csv.DictReader(io.StringIO(ref_text)))
        if len(rows) != len(ref_rows):
            return [f"{len(rows)} result rows, reference has {len(ref_rows)}"]
        errs = []
        for r, q in zip(rows, ref_rows):
            for k, v in q.items():
                a = r[k]
                if k in ("n", "design", "estimator", "reps_ok") or not v:
                    same = a == v
                else:
                    same = bool(a) and _close(float(a), float(v))
                if not same:
                    errs.append(f"{q['n']}/{q['design']}/{q['estimator']} "
                                f"{k}={a} differs from reference {v}")
        return errs

    def reference(self, out, inputs):
        return {"results_csv": out["results"].decode()}


class DesignScale(Replicate):
    """replicate at growing n, the geometry audit at the smallest n, then
    the exact oracle on a small instance (see `OracleExact`)."""

    def __init__(self, *args, oracle, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle = oracle

    def setup(self, work, seed):
        inputs = super().setup(work, seed)
        n = self.n_list[0]
        # the same coordinates replicate draws for population n
        coords = uniform_disk(n, rng_for(seed + n, TAG_COORDS))
        h = scaling_rule(n, 1.0)
        inputs["audit_space"] = build_space(coords)
        inputs["audit_grid"] = sorted({h, *np.geomspace(1.0, 50.0, 6)})
        inputs["oracle"] = self.oracle.setup(work, seed)
        return inputs

    def run(self, inputs):
        out = super().run(inputs)
        audit = geometry.audit_geometry(
            inputs["audit_space"], inputs["audit_grid"], max_units=30)
        out["audit"] = {"k3_hat": audit.k3_hat, "k4_hat": audit.k4_hat,
                        "k5_hat": audit.k5_hat}
        out["oracle"] = self.oracle.run(inputs["oracle"])
        return out

    def check(self, out, inputs, ref):
        errors = super().check(out, inputs, ref)
        a = out["audit"]
        if not (a["k3_hat"] >= 0.0 and a["k4_hat"] > 0.0 and a["k5_hat"] >= 1.0):
            errors.append(f"audit constants out of range: {a}")
        if ref is not None:
            errors += [f"audit {k}={a[k]!r} differs from reference {v!r}"
                       for k, v in ref["audit"].items() if not _close(a[k], v)]
        errors += [f"oracle: {e}" for e in self.oracle.check(
            out["oracle"], inputs["oracle"], ref and ref["oracle"])]
        return errors

    def reference(self, out, inputs):
        return dict(super().reference(out, inputs), audit=out["audit"],
                    oracle=self.oracle.reference(out["oracle"], inputs["oracle"]))


class OwSmall(Replicate):
    """replicate with ht and ow; the OW objective is checked when traced.

    The instance is pinned at the default seed for every --seed: the QP's
    iteration count is chaotic in its input (1000 to 9000 iterations at
    n = 80 across population seeds, 1650 to 4000 for one population across
    Monte Carlo table seeds), so a seed-varied instance cannot give a
    steady wall time.
    """

    def setup(self, work, seed):
        return super().setup(work, DEFAULT_SEED)

    @staticmethod
    def check_objectives(objectives, ref):
        """objectives: n -> (ow objective, ipw-start objective)."""
        errors = [f"n={n}: OW objective {ow!r} above its IPW start {start!r}"
                  for n, (ow, start) in objectives.items()
                  if not ow <= start * (1.0 + 1e-12)]
        if ref is not None:
            for n, (ow, _) in objectives.items():
                want = ref["ow_objective"][str(n)]
                if not _close(ow, want):
                    errors.append(f"n={n}: OW objective {ow!r} differs from "
                                  f"reference {want!r}")
        return errors


class OracleExact:
    """Two `spillscale oracle` calls (ht, hajek) over all 2^C assignments.

    Not a workload of its own: its per-assignment Python loop over tiny
    arrays swings with a shared host far more than the vectorised
    workloads do (see perfbench/README.md), so it runs inside
    `design-scale`, a small share of that operation.
    """

    estimators = ("ht", "hajek")
    _line = re.compile(r"exact_mean=(\S+) p_defined=(\S+) theta=(\S+)")

    def __init__(self, n, clusters, g_start=3.5):
        self.n, self.clusters, self.g_start = n, clusters, g_start

    def _partition(self, space):
        """The first partition with exactly self.clusters clusters on a fixed
        upward scan of the cluster size g, or None when the count skips it."""
        for g in np.arange(self.g_start, 4.0 * self.g_start, 0.05):
            part = scaling_clusters(space, float(g))
            if part.n_clusters <= self.clusters:
                return part if part.n_clusters == self.clusters else None
        return None

    def setup(self, work, seed):
        # the seed's own population first; when its scan skips C, further
        # populations drawn from the seed, so every seed enumerates 2^C
        for attempt in range(100):
            coords = uniform_disk(
                self.n, rng_for(seed + self.n + 100_003 * attempt, TAG_COORDS))
            part = self._partition(build_space(coords))
            if part is not None:
                break
        else:
            raise RuntimeError(f"no population with {self.clusters} clusters")
        pop, clu = work / "population.csv", work / "clusters.csv"
        with open(pop, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["unit_id", "x1", "x2"])
            w.writerows([i, repr(float(x)), repr(float(y))]
                        for i, (x, y) in enumerate(coords))
        with open(clu, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["unit_id", "cluster_id"])
            w.writerows(enumerate(part.assignment.tolist()))
        return {"population": pop, "clusters": clu, "seed": seed,
                "n_clusters": part.n_clusters}

    def run(self, inputs):
        out = {"rc": 0}
        for est in self.estimators:
            rc, text = _cli(["oracle", "--population", str(inputs["population"]),
                             "--clusters", str(inputs["clusters"]),
                             "--estimator", est, "--seed", str(inputs["seed"])])
            m = self._line.search(text)
            out["rc"] = out["rc"] or rc
            out[est] = ({"exact_mean": float(m[1]), "p_defined": float(m[2]),
                         "theta": float(m[3])} if m else None)
        return out

    def check(self, out, inputs, ref):
        if out["rc"] != 0:
            return [f"oracle exited {out['rc']}"]
        errors = []
        for est in self.estimators:
            r = out[est]
            if r is None:
                errors.append(f"{est}: no exact_mean line in the output")
                continue
            if not 0.0 < r["p_defined"] <= 1.0 + 1e-12:
                errors.append(f"{est}: p_defined {r['p_defined']!r} outside (0, 1]")
            if est == "ht" and not abs(r["p_defined"] - 1.0) <= 1e-9:
                errors.append(f"ht: p_defined {r['p_defined']!r}, HT is always defined")
            if not math.isfinite(r["exact_mean"]):
                errors.append(f"{est}: exact_mean {r['exact_mean']!r} not finite")
            if not abs(r["theta"] - THETA) <= 1e-9:
                errors.append(f"{est}: theta {r['theta']!r}, not {THETA}")
            if ref is not None:
                errors += [f"{est}: {k}={r[k]!r} differs from reference {v!r}"
                           for k, v in ref[est].items() if not _close(r[k], v)]
        return errors

    def reference(self, out, inputs):
        return {est: {k: out[est][k] for k in ("exact_mean", "p_defined")}
                for est in self.estimators}


FIG1 = (("scaling_clusters", "iid"), ("ht", "hajek", "ols", "shrink"))


def workloads(tiny=False):
    """name -> workload; tiny=True gives the smoke-test sizes."""
    if tiny:
        sizes = dict(fig1=((40, 60), 40), scale=((50, 80, 120), 8),
                     ow=((20, 30), 40, 2000), oracle=(20, 6, 1.0))
    else:
        sizes = dict(fig1=((400, 900), 2000), scale=(SCALE_SIZES, 64),
                     ow=((40, 60, 80), 2000, 20000), oracle=ORACLE)
    ow_n, ow_reps, ow_draws = sizes["ow"]
    return {w.name: w for w in (
        Replicate("mc-fig1", sizes["fig1"][0], *FIG1, sizes["fig1"][1]),
        DesignScale("design-scale", sizes["scale"][0], ("scaling_clusters",),
                    FIG1[1], sizes["scale"][1],
                    oracle=OracleExact(*sizes["oracle"])),
        OwSmall("ow-small", ow_n, ("scaling_clusters",), ("ht", "ow"),
                ow_reps, extra=f"ow_mc_draws = {ow_draws}\n"),
    )}
