import csv
import errno
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spillscale as ss
from spillscale import cli, harness, oracle, owopt
from spillscale.cli import load_population, main
from spillscale.estimators import DesignContext, DrawBlock, interval
from spillscale.oracle import enumerate_assignments

from conftest import saturation_indicators


def write_population(path, coords):
    q = coords.shape[1]
    header = ["unit_id"] + [f"x{k+1}" for k in range(q)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for i, row in enumerate(coords):
            w.writerow([i] + [f"{v:.10g}" for v in row])


@pytest.fixture()
def population_csv(tmp_path):
    space, _, _ = harness.build_population(40, 12)
    path = tmp_path / "pop.csv"
    write_population(path, space.coords)
    return path, space


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def pure_comparison(estimator, space, part, h, p, Y, d):
    """HT or Hajek of one draw from the unit-level purity masks and the
    saturation probabilities p**phi, (1-p)**phi; NaN where Hajek has an
    empty group."""
    sat, dis = saturation_indicators(space, d, h)
    phi = ss.incidence(space, part, h).phi
    w1, w0 = sat * p ** -phi, dis * (1.0 - p) ** -phi
    if estimator == "ht":
        return float((w1 - w0) @ Y) / Y.size
    if not (w1.any() and w0.any()):
        return float("nan")
    return float(w1 @ Y) / w1.sum() - float(w0 @ Y) / w0.sum()


class TestDesignCommand:
    def test_outputs(self, population_csv, tmp_path, capsys):
        path, space = population_csv
        out = tmp_path / "design"
        rc = main(["design", "--population", str(path), "--eta", "1.0",
                   "--p", "0.5", "--seed", "3", "--out", str(out)])
        assert rc == 0
        clusters = read_csv(out / "clusters.csv")
        assert len(clusters) == space.n
        inc = read_csv(out / "incidence.csv")
        kinds = {row["kind"] for row in inc}
        assert kinds == {"phi", "gamma"}
        phi = [int(r["value"]) for r in inc if r["kind"] == "phi"]
        gamma = [int(r["value"]) for r in inc if r["kind"] == "gamma"]
        assert sum(phi) == sum(gamma)

    def test_distance_matrix_input(self, tmp_path):
        dist = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        path = tmp_path / "dist.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["i", "j", "dist"])
            for i in range(3):
                for j in range(3):
                    if i != j:
                        w.writerow([i, j, dist[i, j]])
        rc = main(["design", "--population", str(path), "--out",
                   str(tmp_path / "d2")])
        assert rc == 0


class TestEstimateCommand:
    def _realized_data(self, tmp_path, population_csv, seed=4):
        pop_path, space = population_csv
        h = ss.scaling_rule(space.n, 1.0)
        part = ss.scaling_clusters(space, h)
        draw = ss.draw_treatments(part, 0.5, seed)
        outcomes = ss.make_sim_dgp(space, 12 + 40)
        Y = ss.realize(outcomes, draw.d)
        out_csv = tmp_path / "outcomes.csv"
        with open(out_csv, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["unit_id", "Y", "d"])
            for i in range(space.n):
                w.writerow([i, f"{Y[i]:.12g}", int(draw.d[i])])
        clu_csv = tmp_path / "clusters.csv"
        with open(clu_csv, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["unit_id", "cluster_id"])
            for i in range(space.n):
                w.writerow([i, int(part.assignment[i])])
        return pop_path, out_csv, clu_csv, space, part, draw, Y, h

    @pytest.mark.parametrize("estimator", ["ht", "hajek", "ols", "shrink"])
    def test_matches_library(self, tmp_path, population_csv, estimator):
        pop, ocsv, ccsv, space, part, draw, Y, h = self._realized_data(
            tmp_path, population_csv)
        out = tmp_path / f"{estimator}.csv"
        rc = main(["estimate", "--population", str(pop), "--outcomes",
                   str(ocsv), "--clusters", str(ccsv), "--estimator",
                   estimator, "--eta", "1.0", "--p", "0.5", "--out", str(out),
                   "--guess-seed", "52"])
        assert rc == 0
        row = read_csv(out)[0]
        assert row["estimator"] == estimator
        # independent formulas on the outcomes as the command read them
        Y = np.array([float(r["Y"]) for r in read_csv(ocsv)])
        if estimator in ("ht", "hajek"):
            want = pure_comparison(estimator, space, part, h, 0.5, Y, draw.d)
        else:
            ext = ss.extend_uniform_overlap(
                space, part, ss.incidence(space, part, h))
            T = (ext.incidence @ draw.b) / ext.phi_max
            cov = np.cov(T, Y)
            if estimator == "ols":
                want = cov[0, 1] / cov[0, 0]
            else:
                A_hat = ss.make_guess(space, 52).A_hat
                first = np.cov(T, A_hat @ draw.d)[0, 1]
                want = cov[0, 1] / first * A_hat.sum() / space.n
        assert float(row["estimate"]) == pytest.approx(want, rel=1e-9)
        if estimator in ("hajek", "ols"):
            assert float(row["ci_lo"]) <= want <= float(row["ci_hi"])
            block = DrawBlock(DesignContext(space, part, h, 0.5, 1.0), Y,
                              draw.b)
            res = interval(getattr(block, estimator)[0],
                           block.variance(estimator)[0], 0.95)
            assert float(row["var_hat"]) == pytest.approx(res.variance_hat,
                                                          rel=1e-9)
            assert float(row["ci_lo"]) == pytest.approx(res.ci[1], rel=1e-9)
            assert float(row["ci_hi"]) == pytest.approx(res.ci[2], rel=1e-9)

    @pytest.mark.parametrize("estimator", ["hajek", "ols"])
    def test_eta_below_hac_window_exits_2(self, tmp_path, population_csv,
                                          capsys, estimator):
        # the HAC epsilon 0.1 needs eta > 0.15; the interval is optional
        pop, ocsv, ccsv, *_ = self._realized_data(tmp_path, population_csv)
        argv = ["estimate", "--population", str(pop), "--outcomes", str(ocsv),
                "--clusters", str(ccsv), "--estimator", estimator,
                "--eta", "0.1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--eta" in captured.err and "eta > 0.15" in captured.err
        assert "--ci-level 0" in captured.err
        assert main(argv + ["--ci-level", "0"]) == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["estimator"] == estimator and row["var_hat"] == ""

    @staticmethod
    def _all_treated_row(tmp_path, estimator):
        """`estimate` on one all-treated cluster of two units."""
        coords = np.array([[0.0], [1.0]])
        pop = tmp_path / "pop.csv"
        write_population(pop, coords)
        with open(tmp_path / "outcomes.csv", "w", newline="") as fh:
            fh.write("unit_id,Y,d\n0,1.0,1\n1,2.0,1\n")
        with open(tmp_path / "clusters.csv", "w", newline="") as fh:
            fh.write("unit_id,cluster_id\n0,0\n1,0\n")
        out = tmp_path / "est.csv"
        rc = main(["estimate", "--population", str(pop), "--outcomes",
                   str(tmp_path / "outcomes.csv"), "--clusters",
                   str(tmp_path / "clusters.csv"), "--estimator", estimator,
                   "--h", "2.0", "--out", str(out)])
        assert rc == 0
        return read_csv(out)[0]

    def test_failure_recorded_not_raised(self, tmp_path):
        # single cluster, all treated: Hajek's dissaturated group is empty
        row = self._all_treated_row(tmp_path, "hajek")
        assert row["estimate"] == ""
        assert row["fail_flags"] == "undefined_draw"

    @pytest.mark.parametrize("estimator, flag", [
        ("ols", "degenerate_exposure"), ("shrink", "weak_instrument")])
    def test_failure_flag_names_the_reason(self, tmp_path, estimator, flag):
        # every exposure is 1: OLS has no exposure variance and shrink no
        # first stage
        row = self._all_treated_row(tmp_path, estimator)
        assert (row["estimate"], row["fail_flags"]) == ("", flag)


    def test_non_finite_outcome_rejected(self, tmp_path):
        pop = tmp_path / "pop.csv"
        write_population(pop, np.array([[0.0], [1.0]]))
        (tmp_path / "outcomes.csv").write_text("unit_id,Y,d\n0,nan,1\n1,2.0,0\n")
        (tmp_path / "clusters.csv").write_text("unit_id,cluster_id\n0,0\n1,1\n")
        with pytest.raises(SystemExit, match="non-finite"):
            main(["estimate", "--population", str(pop), "--outcomes",
                  str(tmp_path / "outcomes.csv"), "--clusters",
                  str(tmp_path / "clusters.csv"), "--estimator", "ols",
                  "--h", "1.0"])

    def _estimate_with_outcomes(self, tmp_path, outcome_rows):
        pop = tmp_path / "pop.csv"
        write_population(pop, np.array([[0.0], [1.0]]))
        (tmp_path / "outcomes.csv").write_text("unit_id,Y,d\n" + outcome_rows)
        (tmp_path / "clusters.csv").write_text("unit_id,cluster_id\n0,0\n1,1\n")
        main(["estimate", "--population", str(pop), "--outcomes",
              str(tmp_path / "outcomes.csv"), "--clusters",
              str(tmp_path / "clusters.csv"), "--estimator", "ht",
              "--h", "1.0"])

    def test_non_binary_treatment_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="d values other than 0 and 1"):
            self._estimate_with_outcomes(tmp_path, "0,1.0,2\n1,2.0,0\n")

    def test_repeated_unit_id_rejected(self, tmp_path):
        # unit 0 twice, unit 1 missing
        with pytest.raises(SystemExit, match="unit_id 0 more than once"):
            self._estimate_with_outcomes(tmp_path, "0,1.0,1\n0,2.0,0\n")

    def test_mixed_cluster_treatment_rejected(self, tmp_path):
        pop = tmp_path / "pop.csv"
        write_population(pop, np.array([[0.0], [1.0]]))
        (tmp_path / "outcomes.csv").write_text("unit_id,Y,d\n0,1.0,1\n1,2.0,0\n")
        (tmp_path / "clusters.csv").write_text("unit_id,cluster_id\n0,0\n1,0\n")
        with pytest.raises(SystemExit, match="not constant within cluster 0"):
            main(["estimate", "--population", str(pop), "--outcomes",
                  str(tmp_path / "outcomes.csv"), "--clusters",
                  str(tmp_path / "clusters.csv"), "--estimator", "ht",
                  "--h", "1.0"])


class TestInvalidPopulation:
    @pytest.mark.parametrize("text, reason", [
        ("unit_id,x1\n0,0.0\n1,nan\n", "coordinates must be finite"),
        ("unit_id,x1\n0,1.0\n1,1.0\n", "duplicate coordinates"),
        ("i,j,dist\n0,1,1.0\n1,0,0.0\n", "off-diagonal distances"),
    ], ids=["non_finite", "duplicate", "zero_distance"])
    def test_geometry_error_exits_with_message(self, tmp_path, text, reason):
        pop = tmp_path / "pop.csv"
        pop.write_text(text)
        with pytest.raises(SystemExit, match=f"pop.csv: {reason}"):
            main(["design", "--population", str(pop), "--out",
                  str(tmp_path / "out")])


class TestBadNumbers:
    """A cell that does not parse as a number exits with a message naming
    the file, the column and the value, not a traceback."""

    FILES = {"pop.csv": "unit_id,x1\n0,0.0\n1,1.0\n",
             "clusters.csv": "unit_id,cluster_id\n0,0\n1,1\n",
             "outcomes.csv": "unit_id,Y,d\n0,1.0,1\n1,2.0,0\n"}

    def _estimate(self, tmp_path, files):
        """estimate on FILES, with the given files' texts replaced."""
        for fname, text in {**self.FILES, **files}.items():
            (tmp_path / fname).write_text(text)
        return main(["estimate", "--population", str(tmp_path / "pop.csv"),
                     "--outcomes", str(tmp_path / "outcomes.csv"),
                     "--clusters", str(tmp_path / "clusters.csv"),
                     "--estimator", "ht", "--h", "1.0"])

    @pytest.mark.parametrize("name, old, new, message", [
        ("pop.csv", "\n1,1.0", "\na,1.0", "pop.csv: unit_id value 'a' is not an integer"),
        ("pop.csv", "1,1.0", "1,east", "pop.csv: x1 value 'east' is not a number"),
        ("clusters.csv", "\n1,1", "\n1.5,1", "clusters.csv: unit_id value '1.5' is not an integer"),
        ("clusters.csv", "1,1", "1,x", "clusters.csv: cluster_id value 'x' is not an integer"),
        ("outcomes.csv", "\n1,2.0", "\nb,2.0", "outcomes.csv: unit_id value 'b' is not an integer"),
        ("outcomes.csv", "1.0,1\n", "1.0,1.0\n", "outcomes.csv: d value '1.0' is not an integer"),
        ("outcomes.csv", "2.0,0", "high,0", "outcomes.csv: Y value 'high' is not a number"),
    ], ids=["population_unit_id", "population_coordinate", "clusters_unit_id",
            "clusters_cluster_id", "outcomes_unit_id", "outcomes_d", "outcomes_y"])
    def test_named_in_message(self, tmp_path, name, old, new, message):
        assert old in self.FILES[name]
        with pytest.raises(SystemExit, match=re.escape(message)):
            self._estimate(tmp_path, {name: self.FILES[name].replace(old, new, 1)})

    @pytest.mark.parametrize("text, message", [
        ("i,j,dist\n0,1,1.0\n1,0,far\n", "dist value 'far' is not a number"),
        ("i,j,dist\n0,1,1.0\nk,0,1.0\n", "i value 'k' is not an integer"),
        ("unit_id,x1,x2\n0,0.0,0.0\n1,1.0\n", "row ['1', '1.0'] has 2 fields for the 3 columns"),
    ], ids=["distance", "distance_unit", "ragged_row"])
    def test_population_tables(self, tmp_path, text, message):
        pop = tmp_path / "pop.csv"
        pop.write_text(text)
        with pytest.raises(SystemExit, match=re.escape(f"pop.csv: {message}")):
            main(["design", "--population", str(pop), "--out",
                  str(tmp_path / "out")])

    @pytest.mark.parametrize("name, text, message", [
        ("pop.csv", "", "unrecognized population header in {path}: []"),
        ("clusters.csv", "unit,cluster_id\n0,0\n1,1\n",
         "{path} must have unit_id and cluster_id columns"),
        ("outcomes.csv", "", "{path} must have Y and d columns"),
    ], ids=["empty_population", "clusters_column", "empty_outcomes"])
    def test_missing_header_named(self, tmp_path, name, text, message):
        with pytest.raises(SystemExit,
                           match=re.escape(message.format(path=tmp_path / name))):
            self._estimate(tmp_path, {name: text})

    @pytest.mark.parametrize("cluster_id", ["2", "-1", str(10 ** 30)])
    def test_cluster_id_outside_range_named(self, tmp_path, cluster_id):
        # two units allow the ids 0..1 only; the id is rejected before it
        # sizes any array
        clusters = f"unit_id,cluster_id\n0,0\n1,{cluster_id}\n"
        message = f"{tmp_path / 'clusters.csv'}: cluster_id {cluster_id} " \
                  f"is outside 0..1"
        with pytest.raises(SystemExit, match=re.escape(message)):
            self._estimate(tmp_path, {"clusters.csv": clusters})

    def test_process_exits_one_without_traceback(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text("unit_id,x1\n0,0.0\na,1.0\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "spillscale.cli", "design", "--population",
             str(pop), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert proc.stderr.strip() == f"{pop}: unit_id value 'a' is not an integer"


def os_error(code, path):
    """The text of the OSError that opening `path` raises with errno `code`."""
    return str(OSError(code, os.strerror(code), str(path)))


class TestInputFiles:
    """The loaders share one header rule, and an input that cannot be
    opened exits with a one-line message, not a traceback."""

    FILES = TestBadNumbers.FILES

    @pytest.mark.parametrize("header", ["unit_id, cluster_id",
                                        "Unit_ID,Cluster_ID"],
                             ids=["spaced", "capitalized"])
    def test_clusters_header_variants(self, tmp_path, header):
        text = "unit_id,cluster_id\n0,1\n1,0\n2,1\n"
        (tmp_path / "plain.csv").write_text(text)
        (tmp_path / "variant.csv").write_text(
            text.replace("unit_id,cluster_id", header))
        ids = [0, 1, 2]
        plain = cli.load_clusters(tmp_path / "plain.csv", ids)
        variant = cli.load_clusters(tmp_path / "variant.csv", ids)
        assert variant.assignment.tolist() == plain.assignment.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("flag", ["--population", "--clusters", "--outcomes"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_exits_1(self, tmp_path, flag, kind):
        files = {}
        for name, text in self.FILES.items():
            files[name] = tmp_path / name
            files[name].write_text(text)
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        argv = {"--population": files["pop.csv"],
                "--clusters": files["clusters.csv"],
                "--outcomes": files["outcomes.csv"], flag: bad}
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--estimator", "ht", "--h", "1.0"]
                 + [str(v) for item in argv.items() for v in item])
        code = errno.EISDIR if kind == "directory" else errno.ENOENT
        assert exc.value.code == f"estimate: {os_error(code, bad)}"

    def test_config_directory_is_a_config_error(self, tmp_path, capsys):
        rc = main(["replicate", "--config", str(tmp_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"config error: {os_error(errno.EISDIR, tmp_path)}\n"


class TestReader:
    """Every input goes through one reader: UTF-8 with or without a
    byte-order mark, one header rule and one ragged-row rule."""

    # three units; the outcomes rows are out of id order, so an outcomes
    # file whose unit_id column is lost is read in the wrong order
    FILES = {"pop.csv": "unit_id,x1\n0,0.0\n1,1.0\n2,5.0\n",
             "clusters.csv": "unit_id,cluster_id\n0,0\n1,1\n2,2\n",
             "outcomes.csv": "unit_id,Y,d\n2,3.0,1\n1,2.0,0\n0,1.0,1\n",
             "config.txt": "n_list = 20\nestimators = ht\nreps = 5\n"}
    INPUTS = list(FILES)

    def run(self, tmp_path, capsys, name, data):
        """The command that reads `name`, with that file's bytes replaced by
        data: (exit code, stdout and results.csv, stderr)."""
        for fname, text in self.FILES.items():
            (tmp_path / fname).write_bytes(text.encode())
        (tmp_path / name).write_bytes(data)
        if name == "config.txt":
            out = tmp_path / "out"
            rc = main(["replicate", "--config", str(tmp_path / name),
                       "--out", str(out)])
            res = out / "results.csv"
            captured = capsys.readouterr()
            return rc, res.read_bytes() if res.exists() else None, captured.err
        rc = main(["estimate", "--population", str(tmp_path / "pop.csv"),
                   "--outcomes", str(tmp_path / "outcomes.csv"),
                   "--clusters", str(tmp_path / "clusters.csv"),
                   "--estimator", "ht", "--h", "1.0"])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("name", INPUTS)
    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, name):
        plain = self.run(tmp_path, capsys, name, self.FILES[name].encode())
        marked = self.run(tmp_path, capsys, name,
                          self.FILES[name].encode("utf-8-sig"))
        assert marked == plain and plain[0] == 0

    @pytest.mark.parametrize("name", INPUTS)
    def test_not_utf8_is_named(self, tmp_path, capsys, name):
        # a Latin-1 "e acute": in a comment line of the config, at the end
        # of the header of a table; both on line 1
        text = self.FILES[name]
        text = "# caf\xe9\n" + text if name == "config.txt" else \
            text.replace("\n", "\xe9\n", 1)
        data = text.encode("latin-1")
        message = f"{tmp_path / name} is not UTF-8 text: byte 0xe9 on line 1"
        if name == "config.txt":
            rc, _, err = self.run(tmp_path, capsys, name, data)
            assert (rc, err) == (2, f"config error: {message}\n")
            assert not (tmp_path / "out").exists()
        else:
            with pytest.raises(SystemExit) as exc:
                self.run(tmp_path, capsys, name, data)
            assert exc.value.code == f"estimate: {message}"

    @pytest.mark.parametrize("name, old, new, fields, columns", [
        ("clusters.csv", "\n0,0\n", "\n0,0,9\n", "['0', '0', '9'] has 3", 2),
        ("clusters.csv", "\n1,1\n", "\n1\n", "['1'] has 1", 2),
        ("outcomes.csv", "\n0,1.0,1\n", "\n0,1.0,1,5\n", "['0', '1.0', '1', '5'] has 4", 3),
        ("outcomes.csv", "\n1,2.0,0\n", "\n1,2.0\n", "['1', '2.0'] has 2", 3),
    ], ids=["clusters_long", "clusters_short", "outcomes_long", "outcomes_short"])
    def test_ragged_row_rejected(self, tmp_path, capsys, name, old, new,
                                 fields, columns):
        assert old in self.FILES[name]
        with pytest.raises(SystemExit, match=re.escape(
                f"{tmp_path / name}: row {fields} fields for the {columns} columns")):
            self.run(tmp_path, capsys, name,
                     self.FILES[name].replace(old, new).encode())

    def test_oversized_cell_is_named(self, tmp_path, capsys):
        # a coordinate longer than the csv module's field limit
        data = self.FILES["pop.csv"].replace("0.0", "1" * 200_000).encode()
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, capsys, "pop.csv", data)
        assert exc.value.code == (f"{tmp_path / 'pop.csv'}: field larger than "
                                  f"field limit (131072)")

    @pytest.mark.parametrize("name, old, new", [
        ("clusters.csv", "cluster_id\n0,0\n1,1\n2,2", "cluster_id,Note\n0,0,a\n1,1,b\n2,2,"),
        ("outcomes.csv", "d\n2,3.0,1\n1,2.0,0\n0,1.0,1", "d,site\n2,3.0,1,x\n1,2.0,0,\n0,1.0,1,y"),
    ], ids=["clusters", "outcomes"])
    def test_extra_named_column_loads(self, tmp_path, capsys, name, old, new):
        assert old in self.FILES[name]
        plain = self.run(tmp_path, capsys, name, self.FILES[name].encode())
        extra = self.run(tmp_path, capsys, name,
                         self.FILES[name].replace(old, new).encode())
        assert extra == plain and plain[0] == 0


def write_population_ids(path, coords, ids):
    """Coordinate CSV keyed by the given unit ids, rows in reverse order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["unit_id"] + [f"x{k+1}" for k in range(coords.shape[1])])
        for u, row in reversed(list(zip(ids, coords))):
            w.writerow([u] + [f"{v:.10g}" for v in row])


class TestUnitIdRoundTrip:
    """Population ids 1001, 1003, ... survive design -> estimate/oracle."""

    IDS = [1001 + 2 * k for k in range(40)]

    @pytest.fixture()
    def designed(self, tmp_path, population_csv):
        path, space = population_csv
        pop = tmp_path / "pop_ids.csv"
        write_population_ids(pop, space.coords, self.IDS)
        outs = {}
        for name, src in (("pos", path), ("ids", pop)):
            outs[name] = tmp_path / f"design_{name}"
            assert main(["design", "--population", str(src), "--seed", "3",
                         "--out", str(outs[name])]) == 0
        return path, pop, space, outs

    def test_design_writes_population_ids(self, designed):
        # the same rows as with positional ids, the unit ids relabelled
        _, _, _, outs = designed
        relabel = {str(k): str(u) for k, u in enumerate(self.IDS)}
        for name, key in (("clusters.csv", "unit_id"),
                          ("treatments.csv", "unit_id"), ("incidence.csv", "id")):
            want = read_csv(outs["pos"] / name)
            for row in want:
                if row.get("kind", "phi") == "phi":
                    row[key] = relabel[row[key]]
            assert read_csv(outs["ids"] / name) == want

    def test_oracle_reads_clusters_keyed_by_population_ids(
            self, designed, tmp_path, capsys):
        path, pop, _, outs = designed
        clu = tmp_path / "clusters_ids.csv"
        clu.write_text("unit_id,cluster_id\n" + "".join(
            f"{self.IDS[int(r['unit_id'])]},{r['cluster_id']}\n"
            for r in reversed(read_csv(outs["pos"] / "clusters.csv"))))
        printed = []
        for src, clusters in ((path, outs["pos"] / "clusters.csv"), (pop, clu)):
            capsys.readouterr()
            assert main(["oracle", "--population", str(src), "--clusters",
                         str(clusters), "--h", "3.0"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("estimator", ["ht", "hajek", "ols"])
    def test_estimate_reads_its_own_outputs(self, designed, tmp_path, estimator):
        path, pop, space, outs = designed
        outcomes = ss.make_sim_dgp(space, 5)
        for src, name, ids in ((path, "pos", range(space.n)), (pop, "ids", self.IDS)):
            treat = read_csv(outs[name] / "treatments.csv")
            d = np.array([int(r["d"]) for r in treat])
            Y = ss.realize(outcomes, d)
            ocsv = tmp_path / f"outcomes_{name}.csv"
            ocsv.write_text("unit_id,Y,d\n" + "".join(
                f"{u},{y:.12g},{di}\n"
                for u, y, di in reversed(list(zip(ids, Y, d)))))
            assert [int(r["unit_id"]) for r in treat] == list(ids)
            assert main(["estimate", "--population", str(src), "--outcomes",
                         str(ocsv), "--clusters", str(outs[name] / "clusters.csv"),
                         "--estimator", estimator,
                         "--out", str(tmp_path / f"est_{name}.csv")]) == 0
        assert (tmp_path / "est_pos.csv").read_bytes() == \
            (tmp_path / "est_ids.csv").read_bytes()

    def test_clusters_unknown_or_repeated_id_rejected(self, designed, tmp_path):
        _, pop, _, outs = designed
        rows = (outs["ids"] / "clusters.csv").read_text().splitlines()
        cases = {"unknown": rows[:-1] + ["7,0"],
                 "repeated": rows[:-1] + [rows[1]]}
        for case, lines in cases.items():
            clu = tmp_path / f"clusters_{case}.csv"
            clu.write_text("\n".join(lines) + "\n")
            want = "unit_id 7, which is not" if case == "unknown" else \
                f"unit_id {self.IDS[0]} more than once"
            with pytest.raises(SystemExit, match=f"clusters_{case}.csv.*{want}"):
                main(["oracle", "--population", str(pop), "--clusters",
                      str(clu), "--h", "3.0"])

    def test_outcomes_unknown_id_rejected(self, designed, tmp_path):
        _, pop, _, outs = designed
        ocsv = tmp_path / "outcomes.csv"
        ocsv.write_text("unit_id,Y,d\n" + "".join(
            f"{u},1.0,0\n" for u in [0] + self.IDS[1:]))
        with pytest.raises(SystemExit,
                           match="outcomes.csv lists unit_id 0, which is not"):
            main(["estimate", "--population", str(pop), "--outcomes", str(ocsv),
                  "--clusters", str(outs["ids"] / "clusters.csv"),
                  "--estimator", "ht"])

    def test_population_repeated_id_rejected(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text("unit_id,x1\n5,0.0\n6,1.0\n5,2.0\n")
        with pytest.raises(SystemExit, match="pop.csv lists unit_id 5 more than once"):
            main(["design", "--population", str(pop), "--out",
                  str(tmp_path / "out")])


class TestDistanceTable:
    """The i,j,dist loader names a missing or repeated pair."""

    def _design(self, tmp_path, text):
        pop = tmp_path / "dist.csv"
        pop.write_text("i,j,dist\n" + text)
        return main(["design", "--population", str(pop), "--out",
                     str(tmp_path / "out")])

    def test_missing_pair_named(self, tmp_path):
        with pytest.raises(SystemExit,
                           match=r"dist.csv has no distance for pair \(12, 10\)"):
            self._design(tmp_path, "10,11,1.0\n11,10,1.0\n10,12,2.0\n"
                                   "12,11,1.5\n11,12,1.5\n")

    def test_repeated_pair_named(self, tmp_path):
        with pytest.raises(SystemExit,
                           match=r"dist.csv lists pair \(0, 1\) more than once"):
            self._design(tmp_path, "0,1,1.0\n1,0,1.0\n0,1,3.0\n")

    def test_complete_table_keeps_ids(self, tmp_path):
        rows = [(10, 11, 1.0), (11, 10, 1.0), (10, 12, 2.0), (12, 10, 2.5),
                (11, 12, 1.5), (12, 11, 1.5)]
        assert self._design(tmp_path, "".join(f"{i},{j},{d}\n" for i, j, d in rows)) == 0
        clusters = read_csv(tmp_path / "out" / "clusters.csv")
        assert [r["unit_id"] for r in clusters] == ["10", "11", "12"]


class TestOwWeightsCommand:
    def test_outputs_and_descent(self, tmp_path):
        space, _, _ = harness.build_population(12, 3)
        pop = tmp_path / "pop.csv"
        write_population(pop, space.coords)
        h = ss.scaling_rule(space.n, 1.0)
        part = ss.scaling_clusters(space, h)
        with open(tmp_path / "clusters.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["unit_id", "cluster_id"])
            for i in range(space.n):
                w.writerow([i, int(part.assignment[i])])
        out = tmp_path / "ow"
        rc = main(["ow-weights", "--population", str(pop), "--clusters",
                   str(tmp_path / "clusters.csv"), "--eta", "1.0", "--k1",
                   "1.0", "--ybar", "2.0", "--p", "0.5", "--method", "mc",
                   "--mc-draws", "20000", "--out", str(out)])
        assert rc == 0
        report = read_csv(out / "qp_report.csv")[0]
        assert float(report["objective"]) <= float(report["ipw_objective"]) + 1e-12
        weights = read_csv(out / "weights.csv")
        assert all(float(r["w"]) >= 0 for r in weights)

    def test_grid_below_h_exits_2(self, tmp_path, capsys):
        # the IPW warm start needs a grid size >= h; h is known only once the
        # population is loaded, so this is checked after --grid is parsed
        pop, clu = tmp_path / "pop.csv", tmp_path / "clusters.csv"
        write_population(pop, np.arange(4.0)[:, None])
        clu.write_text("unit_id,cluster_id\n0,0\n1,1\n2,2\n3,3\n")

        def ow_weights(grid, out):
            return main(["ow-weights", "--population", str(pop), "--clusters",
                         str(clu), "--eta", "1", "--k1", "1", "--ybar", "1",
                         "--h", "5", "--grid", grid, "--mc-draws", "200",
                         "--out", str(tmp_path / out)])

        assert ow_weights("4", "short") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ow-weights: --grid must reach the "
                                       "estimator size h = 5,")
        assert not (tmp_path / "short").exists()
        # the same 1e-12 relative slack as owopt.ipw_weight_table
        assert ow_weights(f"4,{5 * (1 - 1e-13)!r}", "reaches") == 0
        assert (tmp_path / "reaches/weights.csv").exists()


class TestOracleCommand:
    def test_exact_mean_printed(self, tmp_path, capsys):
        space, _, _ = harness.build_population(8, 3)
        pop = tmp_path / "pop.csv"
        write_population(pop, space.coords)
        for g in np.linspace(1.0, 6.0, 40):
            part = ss.scaling_clusters(space, g)
            if part.n_clusters == 4:
                break
        with open(tmp_path / "clusters.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["unit_id", "cluster_id"])
            for i in range(space.n):
                w.writerow([i, int(part.assignment[i])])
        rc = main(["oracle", "--population", str(pop), "--clusters",
                   str(tmp_path / "clusters.csv"), "--estimator", "ht",
                   "--p", "0.5", "--h", f"{g}", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact_mean=" in out and "theta=" in out

    def test_estimator_defined_nowhere_exits_1(self, tmp_path):
        # one cluster: every assignment treats all units or none, so Hajek
        # has an empty group on both
        pop, clu = tmp_path / "pop.csv", tmp_path / "clusters.csv"
        pop.write_text("unit_id,x1\n0,0\n1,1\n2,2\n")
        clu.write_text("unit_id,cluster_id\n0,0\n1,0\n2,0\n")
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--population", str(pop), "--clusters", str(clu),
                  "--estimator", "hajek"])
        assert exc.value.code == ("oracle: estimator hajek is defined on none "
                                  "of the 2^1 assignments")

    def test_unsupported_estimator_rejected_at_parsing(self, tmp_path):
        space, _, _ = harness.build_population(6, 3)
        pop = tmp_path / "pop.csv"
        write_population(pop, space.coords)
        with open(tmp_path / "clusters.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["unit_id", "cluster_id"])
            for i in range(space.n):
                w.writerow([i, i])
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--population", str(pop), "--clusters",
                  str(tmp_path / "clusters.csv"), "--estimator", "ols",
                  "--h", "1.0"])
        assert exc.value.code == 2

    def test_dump_matrices(self, tmp_path):
        space, _, _ = harness.build_population(6, 3)
        pop = tmp_path / "pop.csv"
        write_population(pop, space.coords)
        with open(tmp_path / "clusters.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["unit_id", "cluster_id"])
            for i in range(space.n):
                w.writerow([i, i])
        dump = tmp_path / "dump"
        dump.mkdir()
        rc = main(["oracle", "--population", str(pop), "--clusters",
                   str(tmp_path / "clusters.csv"), "--p", "0.5",
                   "--h", "1.0", "--dump-matrices", str(dump)])
        assert rc == 0
        A = np.loadtxt(dump / "A.csv", delimiter=",")
        assert A.shape == (6, 6)
        assert A.sum() / 6 == pytest.approx(2.0, abs=1e-9)

    def test_dump_matrices_creates_directory(self, tmp_path):
        space, _, _ = harness.build_population(6, 3)
        pop, clu = tmp_path / "pop.csv", tmp_path / "clusters.csv"
        write_population(pop, space.coords)
        clu.write_text("unit_id,cluster_id\n" + "".join(
            f"{i},{i}\n" for i in range(space.n)))
        dump = tmp_path / "new" / "dump"
        assert main(["oracle", "--population", str(pop), "--clusters",
                     str(clu), "--h", "1.0", "--dump-matrices", str(dump)]) == 0
        assert sorted(p.name for p in dump.iterdir()) == ["A.csv", "A_hat.csv"]
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["dump"]


class TestOracleBlocks:
    """`oracle` sums the batched estimator core over blocks of assignments."""

    @staticmethod
    def _write(tmp_path, space_coords, assignment):
        pop, clu = tmp_path / "pop.csv", tmp_path / "clusters.csv"
        write_population(pop, space_coords)
        clu.write_text("unit_id,cluster_id\n" + "".join(
            f"{i},{c}\n" for i, c in enumerate(assignment)))
        return pop, clu

    @staticmethod
    def _recorded(monkeypatch, on_block=None):
        """The full-precision results of every exact_expectation call."""
        results = []
        exact = oracle.exact_expectation

        def recording(fn, enum):
            def block_fn(B):
                if on_block is not None:
                    on_block(B)
                return fn(B)
            results.append(exact(block_fn, enum))
            return results[-1]

        monkeypatch.setattr(oracle, "exact_expectation", recording)
        return results

    @pytest.mark.parametrize("estimator", ["ht", "hajek"])
    def test_matches_per_assignment_reference(self, tmp_path, capsys,
                                              monkeypatch, estimator):
        space0, _, _ = harness.build_population(30, 4)
        part = ss.scaling_clusters(space0, 4.0)
        pop, clu = self._write(tmp_path, space0.coords, part.assignment)
        space, _ = load_population(pop)
        h, p, seed = 3.0, 0.4, 3
        outcomes = ss.make_sim_dgp(space, seed)
        enum = enumerate_assignments(part, p)
        total = mass = 0.0
        for b, w in zip(enum.assignments, enum.probs):
            d = b[part.assignment]
            est = pure_comparison(estimator, space, part, h, p,
                                  ss.realize(outcomes, d), d)
            if np.isnan(est):
                continue
            total += w * est
            mass += w

        results = self._recorded(monkeypatch)
        assert main(["oracle", "--population", str(pop), "--clusters",
                     str(clu), "--estimator", estimator, "--p", str(p),
                     "--h", str(h), "--seed", str(seed)]) == 0
        [res] = results
        assert part.n_clusters == 8
        assert (mass < 1.0 - 1e-9) == (estimator == "hajek")
        assert res.p_defined == pytest.approx(mass, rel=1e-12)
        assert res.mean == pytest.approx(total / mass, rel=1e-12)
        assert (f"exact_mean={res.mean:.12g} p_defined={res.p_defined:.12g}"
                in capsys.readouterr().out)

    def test_completes_at_the_cap(self, tmp_path, capsys, monkeypatch):
        # 20 singleton clusters: 2**20 assignments, one call per block
        C = oracle.MAX_EXACT_CLUSTERS
        pop, clu = self._write(tmp_path, 3.0 * np.arange(C)[:, None], range(C))
        blocks = []
        results = self._recorded(monkeypatch, lambda B: blocks.append(B.shape))
        assert main(["oracle", "--population", str(pop), "--clusters",
                     str(clu), "--h", "1.0"]) == 0
        assert blocks == [(oracle.BLOCK, C)] * (2 ** C // oracle.BLOCK)
        assert results[0].p_defined == pytest.approx(1.0, rel=1e-12)
        assert f"C={C} " in capsys.readouterr().out


class TestArgumentRanges:
    """Out-of-range numbers stop at parsing (exit 2); a partition too large
    to enumerate exits 1 with a message naming C and the cap."""

    @staticmethod
    def _argv(tmp_path, command, n=2):
        files = {"pop": "unit_id,x1\n" + "".join(f"{i},{3.0 * i}\n" for i in range(n)),
                 "clusters": "unit_id,cluster_id\n" + "".join(
                     f"{i},{i}\n" for i in range(n)),
                 "outcomes": "unit_id,Y,d\n" + "".join(
                     f"{i},{i + 1.0},{i % 2}\n" for i in range(n))}
        path = {}
        for name, text in files.items():
            path[name] = str(tmp_path / f"{name}.csv")
            (tmp_path / f"{name}.csv").write_text(text)
        out = str(tmp_path / "out")
        rest = {"design": ["--out", out],
                "estimate": ["--outcomes", path["outcomes"], "--clusters",
                             path["clusters"], "--estimator", "hajek"],
                "ow-weights": ["--clusters", path["clusters"], "--eta", "1.0",
                               "--k1", "1.0", "--ybar", "2.0",
                               "--mc-draws", "200", "--out", out],
                "oracle": ["--clusters", path["clusters"], "--h", "1.0"]}
        return [command, "--population", path["pop"]] + rest[command]

    @pytest.mark.parametrize("command, flag, value", [
        ("estimate", "--p", "1.5"),
        ("estimate", "--ci-level", "1.5"),
        ("design", "--p", "1.5"),
        ("design", "--c0", "-1"),
        ("estimate", "--h", "-1"),
        ("estimate", "--eta", "0"),
        ("ow-weights", "--eta", "-1"),
        ("oracle", "--p", "0"),
        ("ow-weights", "--grid", "1,x"),
        ("ow-weights", "--grid", "-1,2"),
        ("ow-weights", "--grid", ","),
        ("design", "--seed", "-1"),
        ("estimate", "--guess-seed", "-1"),
        ("ow-weights", "--seed", "-1"),
        ("oracle", "--seed", "-1"),
        ("design", "--seed", str(2**64)),
        ("estimate", "--guess-seed", str(2**64)),
    ], ids=["estimate_p", "estimate_ci_level", "design_p", "design_c0",
            "estimate_h", "estimate_eta", "ow_weights_eta", "oracle_p",
            "ow_weights_grid_not_a_number", "ow_weights_grid_negative",
            "ow_weights_grid_empty",
            "design_seed", "estimate_guess_seed", "ow_weights_seed",
            "oracle_seed", "design_seed_2_64", "estimate_guess_seed_2_64"])
    def test_out_of_range_exits_2(self, tmp_path, capsys, command, flag, value):
        # flag=value, so that a value starting with "-" is not read as a flag
        with pytest.raises(SystemExit) as exc:
            main(self._argv(tmp_path, command) + [f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: {value} is not" in capsys.readouterr().err

    def test_largest_seed_is_taken(self, tmp_path, capsys):
        assert main(self._argv(tmp_path, "design") + [f"--seed={2**64 - 1}"]) == 0
        assert f"seed={2**64 - 1}" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag, below, taken_is", [
        ("design", "--out", "", "file"), ("replicate", "--out", "", "file"),
        ("ow-weights", "--out", "", "file"),
        ("estimate", "--out", "/estimate.csv", "file"),
        ("oracle", "--dump-matrices", "", "file"),
        ("estimate", "--out", "", "directory")],
        ids=["design", "replicate", "ow_weights", "estimate", "oracle",
             "estimate_on_a_directory"])
    def test_output_path_on_a_file_exits_1(self, tmp_path, monkeypatch,
                                           command, flag, below, taken_is):
        # an existing file where the output directory must go, or an
        # existing directory where the output file must go: exit 1 naming
        # the flag and the path, before any input is read or run
        taken = tmp_path / "taken"
        if taken_is == "file":
            taken.write_text("keep\n")
        else:
            taken.mkdir()
        path = f"{taken}{below}"
        for module, name in ((cli, "load_population"),
                             (harness, "run_experiment")):
            monkeypatch.setattr(module, name, lambda *a: pytest.fail("ran"))
        if command == "replicate":
            (tmp_path / "config.txt").write_text("n_list = 30\n")
            argv = ["replicate", "--config", str(tmp_path / "config.txt")]
        else:
            argv = self._argv(tmp_path, command)
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, path])
        other = "directory" if taken_is == "file" else "file"
        assert exc.value.code == (f"{command}: {flag} {path}: {taken} is a "
                                  f"{taken_is}, not a {other}")
        if taken_is == "file":
            assert taken.read_text() == "keep\n"
        else:
            assert not any(taken.iterdir())

    @pytest.mark.parametrize("command, extra", [
        ("oracle", []), ("ow-weights", ["--method", "exact"])],
        ids=["oracle", "ow_weights_exact"])
    def test_too_many_clusters_exits_1(self, tmp_path, command, extra):
        with pytest.raises(SystemExit, match=re.escape(
                f"{command}: exact enumeration needs C <= 20 clusters, "
                f"got C = 60")):
            main(self._argv(tmp_path, command, n=60) + extra)

    def test_too_few_mc_draws_exits_1(self, tmp_path):
        # one Monte Carlo draw leaves some unit without a pure size-h
        # neighborhood, so the inverse-probability start has no weight for it
        with pytest.raises(SystemExit, match=r"ow-weights: unit \d+ never has a "
                           r"pure size-h .*; raise --mc-draws \(now 1\)$"):
            main(self._argv(tmp_path, "ow-weights", n=40) + ["--mc-draws=1"])
        assert not (tmp_path / "out").exists()


CONFIG = """
n_list = 30
designs = scaling_clusters
estimators = ht, ols
reps = 25
base_seed = 5
"""


class TestReplicateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text(CONFIG)
        rc1 = main(["replicate", "--config", str(cfg), "--out",
                    str(tmp_path / "a")])
        rc2 = main(["replicate", "--config", str(cfg), "--out",
                    str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        assert (tmp_path / "a/results.csv").read_bytes() == \
               (tmp_path / "b/results.csv").read_bytes()
        assert (tmp_path / "a/slopes.csv").read_bytes() == \
               (tmp_path / "b/slopes.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("reps = 10\n")      # missing n_list
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "x")])
        assert rc == 2

    def test_eta_below_hac_window_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text("n_list = 30\nestimators = ht, hajek\neta = 0.1\n"
                       "reps = 5\n")
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "x")])
        assert rc == 2
        assert "config error: HAC intervals need eta > 0.15" in \
            capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, extra", [
        ("ow_mc_draws = 0", "ow_mc_draws must be >= 1"),
        ("base_seed = -1", "base_seed must be >= 0"),
        ("ow_max_n = 0", "ow_max_n must be >= 1"),
        ("ow_max_n = -3", "ow_max_n must be >= 1"),
    ], ids=["ow_mc_draws", "base_seed", "ow_max_n_zero", "ow_max_n_negative"])
    def test_config_range_exits_2(self, tmp_path, capsys, text, extra):
        cfg = tmp_path / "config.txt"
        cfg.write_text("n_list = 20\nestimators = ht, ow\nreps = 5\n" + text)
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "x")])
        assert rc == 2
        assert f"config error: {extra}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_config_running_no_cell_exits_2(self, tmp_path, capsys):
        # ow is the only estimator and every n is above ow_max_n, so the run
        # would write header-only CSVs
        cfg = tmp_path / "config.txt"
        cfg.write_text("n_list = 20, 30\nestimators = ow\now_max_n = 19\n"
                       "reps = 5\n")
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == "config error: no cell runs: every " \
            "n is above ow_max_n = 19\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, extra", [
        ("n_list = 20, 30, 20\nestimators = ht", "n_list lists 20"),
        ("n_list = 20\ndesigns = iid, iid", "designs lists iid"),
        ("n_list = 20\nestimators = ols, ht, ols", "estimators lists ols"),
    ], ids=["n_list", "designs", "estimators"])
    def test_repeated_list_entry_exits_2(self, tmp_path, capsys, text, extra):
        # a repeated entry would write (or, for estimators, merge) duplicate
        # rows, which slopes.csv would fit as extra points
        cfg = tmp_path / "config.txt"
        cfg.write_text(text + "\nreps = 5\n")
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "x")])
        assert rc == 2
        assert f"config error: {extra} more than once" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_repeated_key_exits_2(self, tmp_path, capsys):
        # which of two values a key takes is not guessed: both lines named
        cfg = tmp_path / "config.txt"
        cfg.write_text("n_list = 20\nreps = 5\n# reps again\nreps = 7\n")
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "x")])
        assert rc == 2
        assert "config error: lines 2 and 4: key 'reps' is set more than " \
            "once" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_too_few_ow_draws_exits_1(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text("n_list = 40\nestimators = ht, ow\nreps = 5\n"
                       "ow_mc_draws = 1\n")
        with pytest.raises(SystemExit, match=r"replicate: cell n=40 "
                           r"design=scaling_clusters: unit \d+ never has a "
                           r"pure size-h .*; raise ow_mc_draws \(now 1\)$"):
            main(["replicate", "--config", str(cfg), "--out",
                  str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("assertion, message", [
        *(pytest.param(f"{token} < 1", f"{token!r} is not a number", id=token)
          for token in (
              "rmse:ht", "slope:ht", "rmse:ht:scaling_clusters:x",
              "bogus:ht:scaling_clusters", "coverage:ht:scaling_clusters:30",
              "ow_table:ht:scaling_clusters:30",
              "rmse:bogus:scaling_clusters:30", "rmse:ht:bogus_design:30",
              "slope:ht:scaling_clusters:30")),
        pytest.param("rmse:ht:iid:30", "'rmse:ht:iid:30' needs an operator",
                     id="no_operator"),
    ])
    def test_bad_assertion_exits_2_before_running(self, tmp_path, capsys,
                                                  assertion, message):
        cfg = tmp_path / "config.txt"
        cfg.write_text(CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["replicate", "--config", str(cfg), "--out",
                  str(tmp_path / "x"), "--assert", assertion])
        assert exc.value.code == 2
        assert f"argument --assert: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("extra, token, why", [
        ("", "rmse:ht:scaling_clusters:40", "n = 40 is not in n_list"),
        ("", "rmse:hajek:scaling_clusters:30",
         "estimator hajek is not in the config's estimators"),
        ("", "rmse:ht:iid:30", "design iid is not in the config's designs"),
        ("estimators = ht, ow\now_max_n = 20\n", "rmse:ow:scaling_clusters:30",
         "ow runs only up to ow_max_n = 20"),
        ("estimators = ht, ow\now_max_n = 20\n", "rmse:ow:scaling_clusters",
         "rmse needs 1 or more sizes, the config runs ow at 0"),
        ("", "slope:ht:scaling_clusters",
         "slope needs 3 or more sizes, the config runs ht at 1"),
        ("n_list = 20, 25, 30\nestimators = ht, ow\now_max_n = 25\n",
         "slope:ow:scaling_clusters",
         "slope needs 3 or more sizes, the config runs ow at 2"),
    ], ids=["n", "estimator", "design", "ow_max_n", "ow_no_size", "slope",
            "ow_slope"])
    def test_assertion_matching_no_result_exits_2_before_running(
            self, tmp_path, capsys, extra, token, why):
        # extra's lines replace CONFIG's lines for the same keys, since a
        # config may set each key once
        keys = {line.split("=")[0] for line in extra.splitlines()}
        cfg = tmp_path / "config.txt"
        cfg.write_text("".join(f"{line}\n" for line in CONFIG.splitlines()
                               if line.split("=")[0] not in keys) + extra)
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "x"),
                   "--assert", "1 > rmse:ht:scaling_clusters:30",
                   "--assert", f"{token} < 1"])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"replicate: --assert token {token!r} matches no result: {why}\n"
        assert not (tmp_path / "x").exists()

    def test_assertion_exit_codes(self, tmp_path):
        cfg = tmp_path / "config.txt"
        cfg.write_text(CONFIG)
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "y"),
                   "--assert", "rmse:ht:scaling_clusters:30 < 100"])
        assert rc == 0
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "z"),
                   "--assert", "rmse:ht:scaling_clusters:30 < 0"])
        assert rc == 3

    def test_assertion_forms(self, tmp_path, capsys):
        # a slope reads the slopes.csv series, n is optional, a failing
        # assertion does not hide the ones after it
        cfg = tmp_path / "config.txt"
        cfg.write_text("n_list = 20, 25, 30\nestimators = ht, hajek\n"
                       "reps = 10\nbase_seed = 5\n")
        asserts = ["slope:ht:scaling_clusters > -100", "1 > 2",
                   "coverage:hajek:scaling_clusters:30 >= 0",
                   "rmse:ht:scaling_clusters <= rmse:ht:scaling_clusters:20"]
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "a")]
                  + [arg for text in asserts for arg in ("--assert", text)])
        assert rc == 3
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("assert ")]
        assert [ln.rsplit(" ", 1)[1] for ln in lines] == \
            ["pass", "FAIL", "pass", "pass"]
        (slope,) = [r for r in read_csv(tmp_path / "a/slopes.csv")
                    if r["estimator"] == "ht"]
        assert lines[0].startswith(f"assert {asserts[0]}: "
                                   f"{float(slope['slope']):.6g} > -100 ")

    def test_slope_with_fewer_than_three_finite_rmses(self, tmp_path, capsys):
        # every n = 6 draw leaves a Hajek group empty, so its RMSE is NaN:
        # the series has no slope, slopes.csv omits it and a slope
        # assertion reads NaN and fails (exit 3), not a traceback
        cfg = tmp_path / "config.txt"
        cfg.write_text("n_list = 6, 8, 10\nestimators = hajek\nreps = 1\n"
                       "base_seed = 1\n")
        rc = main(["replicate", "--config", str(cfg), "--out",
                   str(tmp_path / "a"), "--assert",
                   "slope:hajek:scaling_clusters < 0"])
        assert rc == 3
        rows = read_csv(tmp_path / "a/results.csv")
        assert [r["reps_ok"] for r in rows] == ["0", "1", "1"]
        assert (tmp_path / "a/slopes.csv").read_text() == \
            "estimator,design,slope,n_points\n"
        assert "assert slope:hajek:scaling_clusters < 0: nan < 0 -> FAIL" \
            in capsys.readouterr().out

    def test_hac_clip_counts_printed(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text(CONFIG.replace("ht, ols", "ht, hajek, ols"))
        assert main(["replicate", "--config", str(cfg), "--out",
                     str(tmp_path / "a")]) == 0
        lines = {re.search(r"est=(\w+)", ln)[1]: ln
                 for ln in capsys.readouterr().out.splitlines()}
        for row in harness.run_experiment(harness.parse_config(cfg.read_text())):
            line = lines[row.estimator]
            assert ("hac_clipped=" in line) is (row.hac_clipped is not None)
            assert f" hac_clipped={row.hac_clipped} " in line or \
                row.estimator == "ht"
        assert "hac_clipped" not in (tmp_path / "a/results.csv").read_text()

    def test_ow_qp_trace_and_non_convergence_warning(self, tmp_path, capsys,
                                                     monkeypatch):
        cfg = tmp_path / "config.txt"
        cfg.write_text("n_list = 20\ndesigns = scaling_clusters\n"
                       "estimators = ht, ow\nreps = 10\nbase_seed = 3\n"
                       "ow_mc_draws = 2000\n")

        def replicate(out):
            assert main(["replicate", "--config", str(cfg), "--out",
                         str(tmp_path / out)]) == 0
            return capsys.readouterr()

        run = replicate("a")
        lines = run.out.splitlines()
        assert [" qp_iters=" in ln and " kkt=" in ln and " polish=" in ln
                for ln in lines] == \
            ["est=ow" in ln for ln in lines] == [False, True]
        (row,) = [r for r in harness.run_experiment(
            harness.parse_config(cfg.read_text())) if r.estimator == "ow"]
        assert f" polish={row.ow_table.polish_adopted} [" in lines[1]
        assert "polish" not in (tmp_path / "a/results.csv").read_text()
        assert run.err == ""
        header = (tmp_path / "a/results.csv").read_text().splitlines()[0]
        assert header == ",".join(harness.ResultRow.CSV_COLUMNS)

        monkeypatch.setattr(owopt, "QP_MAX_ITER", 1)
        run = replicate("b")
        assert run.err.startswith("warning: OW weights for n=20 "
                                  "design=scaling_clusters did not converge "
                                  "(qp_iters=1, kkt=")
        assert " qp_iters=1 kkt=" in run.out


# Runs in a child process in which every scipy import raises: the package
# and each command must need numpy only.  Its own files are written and read
# as UTF-8, so that it also runs where a default-encoding open is an error.
NUMPY_ONLY = r"""
import sys
sys.modules["scipy"] = None

import spillscale, spillscale.cli
from pathlib import Path
import numpy as np
from spillscale import harness, outcomes

def scipy_keys():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")

assert scipy_keys() == ["scipy"] and sys.modules["scipy"] is None, scipy_keys()

work = Path(sys.argv[1])
main = spillscale.cli.main
space, dgp, _ = harness.build_population(24, 12)
pop = work / "pop.csv"
pop.write_text("unit_id,x1,x2\n" + "".join(
    f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(space.coords.tolist())),
    encoding="utf-8")
assert main(["design", "--population", str(pop), "--seed", "3",
             "--out", str(work / "design")]) == 0
clusters = str(work / "design" / "clusters.csv")
rows = (work / "design" / "treatments.csv").read_text(encoding="utf-8").split()[1:]
d = np.array([int(r.split(",")[1]) for r in rows], dtype=np.int8)
Y = outcomes.realize(dgp, d)
(work / "outcomes.csv").write_text("unit_id,Y,d\n" + "".join(
    f"{i},{y!r},{b}\n" for i, (y, b) in enumerate(zip(Y.tolist(), d))),
    encoding="utf-8")
assert main(["estimate", "--population", str(pop), "--outcomes",
             str(work / "outcomes.csv"), "--clusters", clusters,
             "--estimator", "hajek", "--ci-level", "0.9",
             "--out", str(work / "estimate.csv")]) == 0
row = (work / "estimate.csv").read_text(encoding="utf-8").split()[1].split(",")
assert row[3] and row[4], row       # the interval went through half_width
assert main(["oracle", "--population", str(pop), "--clusters", clusters,
             "--estimator", "hajek", "--dump-matrices", str(work / "dump")]) == 0
assert main(["ow-weights", "--population", str(pop), "--clusters", clusters,
             "--eta", "1", "--k1", "1", "--ybar", "2", "--mc-draws", "200",
             "--out", str(work / "ow")]) == 0
(work / "config.txt").write_text(
    "n_list = 20, 30\nestimators = ht, hajek, ols, shrink\nreps = 20\n",
    encoding="utf-8")
assert main(["replicate", "--config", str(work / "config.txt"),
             "--out", str(work / "replicate")]) == 0
assert scipy_keys() == ["scipy"], scipy_keys()
"""


def run_numpy_only(work, *flags):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, *flags, "-c", NUMPY_ONLY, str(work)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})


class TestNumpyOnlyRuntime:
    def test_import_and_commands_without_scipy(self, tmp_path):
        proc = run_numpy_only(tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_commands_open_files_with_an_explicit_encoding(self, tmp_path):
        # every command's reads and writes name their encoding: an open that
        # falls back on the locale's warns under -X warn_default_encoding,
        # and the warning is an error here
        proc = run_numpy_only(tmp_path, "-X", "warn_default_encoding",
                              "-W", "error::EncodingWarning")
        assert proc.returncode == 0, proc.stderr
