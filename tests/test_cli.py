import csv
import io
import sys
from pathlib import Path

import numpy as np
import pytest

import spillscale as ss
from spillscale import harness
from spillscale.cli import main


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
        if estimator == "ht":
            want = ss.ipw_ht(Y, draw.d, space, part, h, 0.5).estimate
        elif estimator == "hajek":
            want = ss.hajek(Y, draw.d, space, part, h, 0.5).estimate
        else:
            ext = ss.extend_uniform_overlap(space, part, h)
            T = ss.exposure(part, ext, draw.b)
            if estimator == "ols":
                want = ss.ols(Y, T).estimate
            else:
                guess = ss.make_guess(space, 52)
                want = ss.shrinkage(Y, T, draw.d, guess).estimate
        assert float(row["estimate"]) == pytest.approx(want, rel=1e-9)
        if estimator in ("hajek", "ols"):
            assert float(row["ci_lo"]) <= want <= float(row["ci_hi"])

    def test_failure_recorded_not_raised(self, tmp_path):
        # single cluster, all treated: Hajek's dissaturated group is empty
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
                   str(tmp_path / "clusters.csv"), "--estimator", "hajek",
                   "--h", "2.0", "--out", str(out)])
        assert rc == 0
        row = read_csv(out)[0]
        assert row["estimate"] == ""
        assert row["fail_flags"] == "undefined_draw"


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
