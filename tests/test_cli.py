import io

import numpy as np
import pytest

from qdcavity import algebra
from qdcavity.cli import (
    SweepConfig,
    cmd_simulate,
    cmd_teleport,
    main,
    parse_complex,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestParsing:
    def test_parse_complex(self):
        assert parse_complex("1") == 1.0
        assert parse_complex("0.5+0.5i") == 0.5 + 0.5j
        assert parse_complex("-0.3-0.2i") == -0.3 - 0.2j
        assert parse_complex("1+2j") == 1 + 2j
        with pytest.raises(ValueError):
            parse_complex("one")

    def test_atoms_norm_rejected_when_far_off(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--atoms", "0.5,0,0,0.5", "--steps", "3"], capsys)
        assert code == 2
        assert "norm" in err

    def test_atoms_renormalised_when_close(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--atoms", "0.6,0,0,0.800000001", "--steps", "3",
             "--nbar", "0", "--q", "1"], capsys)
        assert code == 0
        assert "renormalised" in err

    def test_sweep_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(steps=1)
        with pytest.raises(ValueError):
            SweepConfig(engine="magic")
        with pytest.raises(ValueError):
            SweepConfig(t_max=0.0)


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.5,0.9\nnbar=0\nsteps=4\n# comment\nt_max=2\n")
        code, out, _ = run_cli(
            ["simulate", "--config", str(cfg), "--steps", "3"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert len(rows) == 2 * 3  # two q values, steps overridden to 3
        assert "# t_max=2 steps=3" in out

    def test_bad_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps 4\n")
        code, _, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert "key=value" in err

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nbarr=5\nlambda=2\nsteps=3\n")
        code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "lambda, nbarr" in err
        assert "accepted keys: engine, q, m, nbar, lam, t_max" in err


class TestSimulate:
    def test_initial_row_values(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--q", "1", "--steps", "3", "--nbar", "10"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header[:2] == ["lambda_t", "q"]
        first = rows[0]
        assert float(first["lambda_t"]) == 0.0
        assert float(first["abs_s"]) == pytest.approx(1.0, abs=1e-9)
        assert float(first["entanglement"]) == pytest.approx(0.0, abs=1e-9)
        assert float(first["purity"]) == pytest.approx(1.0, abs=1e-9)

    def test_preset_emits_curve_groups(self, capsys):
        code, out, _ = run_cli(["simulate", "--fig", "1a", "--steps", "4"],
                               capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert [r["q"] for r in rows] == ["0"] * 4 + ["0.5"] * 4 + ["0.9"] * 4
        assert "# preset=fig1a" in out

    def test_both_engines_stay_close(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--engine", "both", "--q", "0.9", "--steps", "6",
             "--nbar", "10"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header[-1] == "max_dev"
        assert all(float(r["max_dev"]) < 1e-6 for r in rows)

    def test_exact_engine_alone(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--engine", "exact", "--q", "0.5", "--steps", "3",
             "--nbar", "0"], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 3

    def test_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["simulate", "--q", "0.9", "--steps", "5",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_field_built_once(self, monkeypatch, capsys):
        calls = []
        build = algebra.coherent_field

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(algebra, "coherent_field", counting)
        code, _, _ = run_cli(["simulate", "--steps", "3", "--nbar", "0"],
                             capsys)
        assert code == 0
        assert len(calls) == 1

    def test_stream_api(self):
        config = SweepConfig(q_values=(1.0,), steps=3, nbar=0.0)
        buffer = io.StringIO()
        assert cmd_simulate(config, buffer) == 0
        assert buffer.getvalue().count("\n") >= 4


class TestTeleport:
    def test_branches_and_selftest(self, capsys):
        code, out, _ = run_cli(
            ["teleport", "--q", "0.5", "--steps", "3", "--nbar", "10"],
            capsys)
        assert code == 0
        assert "# self-test: ideal channel" in out and "PASS" in out
        header, rows = csv_rows(out)
        assert header == ["lambda_t", "q", "branch", "probability",
                          "f_paper", "f_overlap", "f_average"]
        assert len(rows) == 3 * 4
        assert [r["branch"] for r in rows[:4]] == ["ee", "eg", "ge", "gg"]

    def test_initial_row_quarter_score(self, capsys):
        # At lambda_t = 0 the channel is the bare doubly-excited product
        # state: the ee-branch receiver vector is orthogonal to the
        # equatorial input, so the quarter-normalised score is 1/4.
        code, out, _ = run_cli(
            ["teleport", "--fig", "3a", "--steps", "2"], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        first = rows[0]
        assert first["branch"] == "ee"
        assert float(first["f_paper"]) == pytest.approx(0.25, abs=1e-12)
        probs = [float(r["probability"]) for r in rows[:4]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)

    def test_preset_groups(self, capsys):
        code, out, _ = run_cli(["teleport", "--fig", "3b", "--steps", "2"],
                               capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert {r["q"] for r in rows} == {"0.5", "0.9"}
        assert len(rows) == 2 * 2 * 4

    def test_custom_input_state(self, capsys):
        code, out, _ = run_cli(
            ["teleport", "--q", "0.9", "--steps", "2", "--alpha", "1",
             "--beta", "0"], capsys)
        assert code == 0
        assert "# alpha=1+0i beta=0+0i" in out

    def test_unnormalised_input_state_rejected(self, capsys):
        code, _, err = run_cli(
            ["teleport", "--steps", "2", "--alpha", "1", "--beta", "1"], capsys)
        assert code == 2
        assert "1.4142135623730951" in err and "np.float64" not in err

    def test_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["teleport", "--fig", "3a", "--steps", "3",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_engine_both_adds_deviation_column(self, capsys):
        code, out, _ = run_cli(
            ["teleport", "--engine", "both", "--q", "0.5", "--steps", "2",
             "--nbar", "0"], capsys)
        assert code == 0
        header, rows = csv_rows(out)
        assert header[-1] == "max_dev"
        assert all(float(r["max_dev"]) < 1e-6 for r in rows)

    def test_stream_api(self):
        config = SweepConfig(q_values=(0.9,), steps=2, nbar=0.0)
        buffer = io.StringIO()
        assert cmd_teleport(config, buffer) == 0
        assert "f_average" in buffer.getvalue()


class TestPresetConsistency:
    def test_wrong_subcommand_preset_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--fig", "3a"])


class TestValidateCommand:
    def test_full_report_passes(self, capsys):
        code, out, _ = run_cli(["validate"], capsys)
        assert code == 0
        assert "8/8 checks passed" in out
        assert "FAIL" not in out
        assert "INFO entanglement-minimum" in out


class TestTimeChunks:
    # --nbar 10 gives cutoff 59: 60 (time, Fock level) cells per time.
    SWEEPS = (
        ["simulate", "--engine", "both", "--q", "0.5", "--q", "0.9",
         "--nbar", "10", "--steps", "23"],
        ["teleport", "--engine", "both", "--q", "0.5", "--q", "0.9",
         "--nbar", "10", "--steps", "23", "--alpha", "0.6", "--beta", "0.8i"],
    )

    @pytest.mark.parametrize("argv", SWEEPS, ids=["simulate", "teleport"])
    def test_bytes_do_not_depend_on_chunking(self, argv, capsys, monkeypatch):
        outputs = {}
        # 1-row chunks, 7-row chunks (23 = 7 + 7 + 7 + 2), one chunk.
        for cells in (1, 7 * 60, 23 * 60):
            monkeypatch.setattr(algebra, "CHUNK_CELLS", cells)
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            outputs[cells] = out
        assert outputs[1] == outputs[7 * 60] == outputs[23 * 60]
        _, rows = csv_rows(outputs[1])
        per_time = 4 if argv[0] == "teleport" else 1
        assert len(rows) == 2 * 23 * per_time

    def test_chunks_cover_the_grid_once(self, monkeypatch):
        monkeypatch.setattr(algebra, "CHUNK_CELLS", 7 * 60)
        times = np.linspace(0.0, 1.0, 23)
        chunks = algebra.time_chunks(times, 59)
        assert [len(c) for c in chunks] == [7, 7, 7, 2]
        assert np.array_equal(np.concatenate(chunks), times)
        monkeypatch.setattr(algebra, "CHUNK_CELLS", 10)
        assert [len(c) for c in algebra.time_chunks(times, 59)] == [1] * 23


class TestBadConfigWritesNothing:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--q", "0.5", "--q", "2", "--steps", "3"],
        ["simulate", "--nbar", "-1"],
        ["simulate", "--m", "0"],
        ["teleport", "--alpha", "1", "--beta", "1"],
    ], ids=["q-out-of-range", "negative-nbar", "zero-m", "unnormalised-input"])
    def test_no_output_and_no_file(self, argv, tmp_path, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and err.startswith("error:")
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert not path.exists()
