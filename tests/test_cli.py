import json

import pytest

from qent.cli import main
from qent.states import save_state, werner_state


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner09.json"
    save_state(path, werner_state(0.9).matrix, [2, 2])
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMeasure:
    def test_basic(self, capsys, werner_file):
        code, out, _ = run(capsys, ["measure", werner_file, "--q", "0.35",
                                    "--no-timestamp"])
        assert code == 0
        obj = json.loads(out)
        values = {r["label"]: r["value"] for r in obj["results"]}
        assert values["E_M"] == pytest.approx(0.951350, abs=1e-5)
        assert values["E_T(q=0.35)"] == pytest.approx(0.36627, abs=1e-4)
        assert "timestamp" not in obj

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, ["measure", str(bad)])
        assert code == 2
        assert err.strip()

    def test_non_density_rejected(self, capsys, tmp_path):
        path = tmp_path / "notdm.json"
        path.write_text(
            '{"dims": [1, 2], "re": [[1.0, 0.0], [0.0, 1.0]],'
            ' "im": [[0.0, 0.0], [0.0, 0.0]]}'
        )
        code, _, err = run(capsys, ["measure", str(path)])
        assert code == 2
        assert "density" in err

    def test_csv_format(self, capsys, werner_file):
        code, out, _ = run(capsys, ["measure", werner_file, "--format", "csv",
                                    "--no-timestamp"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("S,")


class TestWernerCommand:
    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, ["werner", "--sweep", "0.5:1.0:0.005",
                                    "--q", "0.35", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "F,e_tsallis,e_rel,e_mutual"
        crossings = [l for l in lines if l.startswith("# crossing F=")]
        assert len(crossings) == 2

    def test_e_rel_zero_column(self, capsys):
        code, out, _ = run(capsys, ["werner", "--sweep", "0.0:0.5:0.1",
                                    "--q", "0.35", "--format", "csv"])
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            if line.startswith("#"):
                continue
            assert float(line.split(",")[2]) == 0.0

    def test_q_zero_tsallis_column(self, capsys):
        code, out, _ = run(capsys, ["werner", "--sweep", "0.5:1.0:0.1",
                                    "--q", "0", "--format", "csv"])
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            if line.startswith("#"):
                continue
            assert float(line.split(",")[1]) == 0.0

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, ["werner", "--sweep", "0.9:0.1:0.1", "--q", "0.35"])
        assert code == 2

    def test_nan_step(self, capsys):
        code, out, err = run(capsys, ["werner", "--sweep", "0.5:1.0:nan", "--q", "0.35",
                                      "--format", "csv"])
        assert code == 2 and out == "" and err.startswith("error:")

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, ["werner", "--sweep", "0.5:0.6:0.05",
                                  "--q", "0.35", "--format", "csv",
                                  "--out", str(dest)])
        assert code == 0
        assert dest.read_text().startswith("F,e_tsallis")

    def test_plot_data(self, capsys):
        code, out, _ = run(capsys, ["werner", "--sweep", "0.5:0.6:0.05",
                                    "--q", "0.35", "--plot-data"])
        assert code == 0
        assert "# curve e_tsallis" in out
        assert "# curve e_rel" in out
        assert "# curve e_mutual" in out


class TestMatchQCommand:
    def test_closed_form_target(self, capsys):
        code, out, _ = run(capsys, ["match-q", "--werner", "0.9",
                                    "--target-er", "closed-form",
                                    "--no-timestamp"])
        assert code == 0
        obj = json.loads(out)
        values = {r["label"]: r["value"] for r in obj["results"]}
        assert 0.30 <= values["q_star"] <= 0.40

    def test_zero_target(self, capsys):
        code, out, _ = run(capsys, ["match-q", "--werner", "0.25",
                                    "--target-er", "0", "--no-timestamp"])
        assert code == 0
        obj = json.loads(out)
        values = {r["label"]: r["value"] for r in obj["results"]}
        assert values["q_star"] == 0.0

    def test_no_root(self, capsys):
        code, _, err = run(capsys, ["match-q", "--werner", "0.9",
                                    "--target-er", "10"])
        assert code == 4

    @pytest.mark.parametrize("option", ["--target-er", "--tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_input(self, capsys, option, value):
        # "--tol=-inf": argparse reads a bare "-inf" as an option
        code, out, err = run(capsys, ["match-q", "--werner", "0.9", f"{option}={value}"])
        assert code == 2 and out == "" and err.startswith("error:")

    def test_state_file(self, capsys, werner_file):
        code, out, _ = run(capsys, ["match-q", werner_file,
                                    "--target-er", "0.368", "--no-timestamp"])
        assert code == 0


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "nonnegativity",
                                    "--trials", "20", "--seed", "7",
                                    "--no-timestamp"])
        assert code == 0
        obj = json.loads(out)
        assert obj["failures"] == []

    def test_violating_suite_exits_one(self, capsys):
        # the deformed relative entropy does not dominate the trace norm
        # for small q, so this suite reports violations
        code, out, _ = run(capsys, ["verify", "--suite", "lemma-bounds",
                                    "--trials", "20", "--seed", "7",
                                    "--no-timestamp"])
        assert code == 1
        obj = json.loads(out)
        assert obj["failures"]
        first = obj["failures"][0]
        assert {"property", "trial", "seed", "slack", "detail"} <= set(first)

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, ["verify", "--suite", "nope"])
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials(self, capsys, trials):
        code, _, err = run(capsys, ["verify", "--suite", "nonnegativity",
                                    f"--trials={trials}", "--no-timestamp"])
        assert code == 2
        assert err.startswith("error:") and "--trials" in err

    def test_unknown_tol_suite(self, capsys):
        code, _, err = run(capsys, ["verify", "--suite", "nonnegativity",
                                    "--trials", "2", "--tol", "nonnegativty=1e-30",
                                    "--no-timestamp"])
        assert code == 2
        assert err.startswith("error:") and "nonnegativty" in err

    @pytest.mark.parametrize("grid", ["5", "nan", "0.5,-0.1"])
    def test_q_grid_out_of_range(self, capsys, grid):
        code, _, err = run(capsys, ["verify", "--suite", "nonnegativity",
                                    "--trials", "2", f"--q-grid={grid}",
                                    "--no-timestamp"])
        assert code == 2
        assert err.startswith("error:") and "q-grid" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol(self, capsys, tol):
        code, out, err = run(capsys, ["verify", "--suite", "unitary-invariance",
                                      "--trials", "3",
                                      f"--tol=unitary-invariance={tol}",
                                      "--no-timestamp"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--suite", "unitary-invariance", "--trials", "10",
                "--seed", "3", "--no-timestamp"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_q_grid_override(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "nonnegativity",
                                    "--trials", "5", "--seed", "1",
                                    "--q-grid", "0.5,1.5", "--no-timestamp"])
        assert code == 0

    def test_tol_override(self, capsys):
        # an absurdly tight unitary-invariance tolerance must trip failures
        code, _, _ = run(capsys, ["verify", "--suite", "unitary-invariance",
                                  "--trials", "5", "--seed", "1",
                                  "--tol", "unitary-invariance=1e-18",
                                  "--no-timestamp"])
        assert code == 1


class TestSeedEnv:
    def test_qent_seed_env(self, capsys, monkeypatch, werner_file):
        monkeypatch.setenv("QENT_SEED", "123")
        code, out, _ = run(capsys, ["measure", werner_file, "--no-timestamp"])
        assert code == 0
        assert json.loads(out)["inputs"]["seed"] == 123


class TestRunPath:
    """Every subcommand's errors, timestamp and output go through ``main``."""

    def test_measure_q_out_of_range(self, capsys, werner_file):
        code, out, err = run(capsys, ["measure", werner_file, "--q", "1.5"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "q must lie in [0, 1]" in err

    def test_measure_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, ["measure", str(tmp_path / "missing.json")])
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_match_q_werner_out_of_range(self, capsys):
        code, out, err = run(capsys, ["match-q", "--werner", "1.5"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "1.5" in err

    def test_werner_json_timestamp(self, capsys):
        argv = ["werner", "--sweep", "0.5:0.6:0.05", "--q", "0.35", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and "timestamp" in json.loads(out)
        code, out, _ = run(capsys, argv + ["--no-timestamp"])
        assert code == 0 and "timestamp" not in json.loads(out)
        assert list(json.loads(out)) == ["q", "rows", "crossings"]

    def test_werner_json_out_file(self, capsys, tmp_path):
        dest = tmp_path / "sweep.json"
        argv = ["werner", "--sweep", "0.5:0.6:0.05", "--q", "0.35", "--format", "json"]
        code, out, _ = run(capsys, argv + ["--out", str(dest)])
        assert code == 0 and out == ""
        obj = json.loads(dest.read_text())
        assert "timestamp" in obj and len(obj["rows"]) == 3
        run(capsys, argv + ["--no-timestamp", "--out", str(dest)])
        _, printed, _ = run(capsys, argv + ["--no-timestamp"])
        assert dest.read_text() == printed

    def test_unwritable_out_file(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "sweep.csv"
        code, out, err = run(capsys, ["werner", "--sweep", "0.5:0.6:0.05",
                                      "--q", "0.35", "--out", str(dest)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "sweep.csv" in err
