import contextlib
import io
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qdcavity
from qdcavity import (DensityMatrix, algebra, closedform, exact, states,
                      teleport, validate)
from qdcavity.cli import (
    SweepConfig,
    build_parser,
    cmd_simulate,
    cmd_teleport,
    fmt,
    fmt_complex,
    format_rows,
    main,
    parse_complex,
)
from qdcavity.sweep import sweep
from qdcavity.validate import engine_pair_deviation


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

    def test_signed_zeros_print_unsigned(self):
        assert fmt(-0.0) == "0"
        assert fmt_complex(complex(0.6, -0.0)) == "0.6+0i"
        assert fmt_complex(complex(-0.0, -0.0)) == "0+0i"
        assert fmt_complex(complex(0.6, -0.5)) == "0.6-0.5i"

    def test_rows_format_every_cell_as_fmt(self):
        cells = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e16, 5e-324,
                 123456789012.5]
        assert format_rows([np.array(cells)]) == [fmt(v) for v in cells]
        assert format_rows([np.array([cells])]) == [
            ",".join(fmt(v) for v in cells)]
        assert fmt(-0.0) == "0" and fmt(5e-324) == "4.94065645841e-324"

    def test_one_parser_keeps_no_q_between_calls(self, capsys):
        # main builds the parser once; each call's --q list is its own.
        for q_values in (("0.3",), ("0.4", "0.6")):
            argv = ["simulate", "--steps", "2", "--nbar", "0"]
            code, out, _ = run_cli(
                argv + [f"--q={q}" for q in q_values], capsys)
            assert code == 0
            assert f"# q={','.join(q_values)}\n" in out
        assert build_parser() is build_parser()

    def test_input_echo_drops_signed_zero(self, capsys):
        code, out, _ = run_cli(
            ["teleport", "--alpha", "0.6-0i", "--beta", "0.8", "--steps", "2",
             "--nbar", "0"], capsys)
        assert code == 0
        assert "# alpha=0.6+0i beta=0.8+0i" in out

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

    def test_empty_q_values_rejected(self):
        # A sweep over no q would print a header and no row.
        with pytest.raises(ValueError, match="q_values"):
            SweepConfig(q_values=(), nbar=0.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_lambda_rejected(self, lam):
        # The engines never see lambda, so the config is its one check.
        with pytest.raises(ValueError, match="lambda"):
            SweepConfig(q_values=(0.5, 1.0), lam=lam, nbar=0.0)


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

    def test_keys_follow_the_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=1\nbeta=0\n")
        code, out, err = run_cli(
            ["simulate", "--config", str(cfg), "--steps", "2", "--nbar", "0"],
            capsys)
        assert code == 2
        assert out == ""
        assert "unknown config key(s) alpha, beta" in err
        assert err.rstrip().endswith(
            "accepted keys: engine, q, m, nbar, lam, t_max, steps, atoms, "
            "tail_eps")
        code, out, _ = run_cli(
            ["teleport", "--config", str(cfg), "--steps", "2", "--nbar", "0"],
            capsys)
        assert code == 0
        assert "# alpha=1+0i beta=0+0i" in out

    def test_missing_file_exits_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code, out, err = run_cli(["simulate", "--config", str(missing)],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "missing.cfg" in err


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

    def test_both_engines_agree_at_nbar_4000(self, capsys):
        # Cutoff 4,684: the exact engine's blocks take a few MiB, where
        # one dense 4(K+1)-square complex matrix would take 5.6 GB.
        code, out, _ = run_cli(
            ["simulate", "--engine", "both", "--nbar", "4000", "--steps", "3",
             "--q", "0.9", "--q", "0.3"], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert [r["q"] for r in rows] == ["0.9"] * 3 + ["0.3"] * 3
        assert all(float(r["max_dev"]) <= 1e-6 for r in rows)

    def test_both_engines_agree_at_nbar_3847(self, capsys):
        # Cutoff 4,519 keeps a squared mass 1.9e-12 short of unity from
        # log-space rounding alone, which is not truncation.
        code, out, err = run_cli(
            ["simulate", "--engine", "both", "--nbar", "3847", "--steps", "3",
             "--q", "0.5"], capsys)
        assert code == 0, err
        _, rows = csv_rows(out)
        assert len(rows) == 3
        assert all(float(r["max_dev"]) <= 1e-6 for r in rows)

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

    def test_input_state_renormalised_when_close(self, capsys):
        code, out, err = run_cli(
            ["teleport", "--alpha", "0.6", "--beta", "0.8000001",
             "--steps", "2", "--nbar", "0"], capsys)
        assert code == 0
        warning = "warning: renormalised unknown-qubit amplitudes"
        assert err.startswith(warning)
        assert f"# {warning}" in out

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


class TestCircuitIsTheOracle:
    """The teleport columns come from teleport.branch_map; the circuit
    runs once per teleport run, for the header's self-test, and once in
    validate's ideal-channel check, over all 50 inputs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = teleport.circuit_teleport

        def counted(channel, unknown):
            calls.append(unknown)
            return real(channel, unknown)

        monkeypatch.setattr(teleport, "circuit_teleport", counted)
        return calls

    @pytest.mark.parametrize("engine", ["closed", "exact", "both"])
    def test_teleport_runs_the_circuit_once(self, engine, calls, capsys):
        code, out, _ = run_cli(["teleport", "--engine", engine, "--q", "0.5",
                                "--q", "0.9", "--steps", "5"], capsys)
        assert code == 0 and "# self-test: ideal channel" in out
        assert len(calls) == 1

    def test_ideal_channel_check_runs_the_circuit_once(self, calls):
        assert validate.check_teleport_ideal().passed
        assert len(calls) == 1 and np.shape(calls[0].alpha) == (50,)


class TestPositivityWarnings:
    @pytest.mark.parametrize("command", ["simulate", "teleport"])
    def test_reported_on_stderr_csv_unchanged(self, command, capsys,
                                              monkeypatch):
        argv = [command, "--q", "0.5", "--q", "0.9", "--steps", "5",
                "--nbar", "2"]
        code, plain, err = run_cli(argv, capsys)
        assert code == 0 and "non-positive" not in err
        real_compose = states.compose
        calls = []

        def compose_with_warning(state):
            calls.append(state)
            rho = real_compose(state)
            return DensityMatrix(rho.matrix, warnings=rho.warnings + (
                "negative eigenvalue -1.000e-03 below floor",))

        monkeypatch.setattr(states, "compose", compose_with_warning)
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and out == plain
        assert err == (f"warning: {len(calls)} non-positive state(s), "
                       "first: negative eigenvalue -1.000e-03 below floor\n")
        assert len(calls) == 2

    @pytest.mark.parametrize("engine", ["closed", "exact"])
    def test_receiver_states_worded_as_from_matrix(self, engine, capsys,
                                                   monkeypatch):
        # A receiver vector of length 1.01 on the eg branch: the state
        # (1 + sb . sigma)/2 has the eigenvalue -0.005, which teleport
        # reports in from_matrix's words, once per time and q.
        branch_map = teleport.branch_map

        def stretched(bloch, su):
            probability, sb = branch_map(bloch, su)
            sb = sb.copy()
            sb[..., 1, :] = (0.0, 0.0, 1.01)
            return probability, sb

        monkeypatch.setattr(teleport, "branch_map", stretched)
        receiver = (np.eye(2) + 1.01 * states.PAULI_Z) / 2.0
        first = DensityMatrix.from_matrix(receiver, positivity="warn").warnings
        code, _, err = run_cli(["teleport", "--q", "0.5", "--q", "0.9",
                                "--steps", "5", "--nbar", "2",
                                "--engine", engine], capsys)
        assert code == 0 and len(first) == 1
        assert err == f"warning: 10 non-positive state(s), first: {first[0]}\n"


@pytest.mark.parametrize("command", ["simulate", "teleport"])
def test_huge_time_gives_finite_cells(command, capsys):
    # Frozen manifolds must not square t: (1e155)^2 overflows.  At this
    # lambda t the phases carry no digits, so the engines are not compared.
    code, out, err = run_cli([command, "--t-max", "1e155", "--steps", "3"],
                             capsys)
    assert code == 0, err
    _, rows = csv_rows(out)
    assert len(rows) == (3 if command == "simulate" else 12)
    assert all(np.isfinite(float(value)) for row in rows
               for key, value in row.items() if key != "branch")


@pytest.mark.parametrize("command", ["simulate", "teleport"])
def test_largest_finite_phase_runs(command, capsys):
    # 2 mu t is about 1.5e307 here, below the float range; 1e308 is
    # rejected before any output (TestBadConfigWritesNothing).
    code, out, err = run_cli([command, "--t-max", "1e306", "--steps", "3",
                              "--engine", "both"], capsys)
    assert code == 0, err
    _, rows = csv_rows(out)
    assert len(rows) == (3 if command == "simulate" else 12)
    assert all(np.isfinite(float(value)) for row in rows
               for key, value in row.items() if key != "branch")


def assert_rows_as_at_unit_lambda(argv, lam, capsys):
    """argv run with --lambda lam prints what it prints at lambda 1,
    apart from the lambda= cell of the header."""
    code, out, err = run_cli(argv + ["--lambda", lam], capsys)
    assert code == 0, err
    unit = run_cli(argv + ["--lambda", "1"], capsys)[1]
    assert f"lambda={fmt(float(lam))} " in out
    lines = out.replace(f"lambda={fmt(float(lam))} ", "lambda=1 ").splitlines()
    assert len(lines) == len(unit.splitlines())
    assert [i for i, (got, want) in enumerate(zip(lines, unit.splitlines()))
            if got != want] == []


@pytest.mark.parametrize("lam", ["0.7", "1.3", "2", "1e-100", "1e-155",
                                 "1e-200", "1e10"])
@pytest.mark.parametrize("argv", [
    ["simulate", "--fig", "1a"],
    ["simulate", "--fig", "1b", "--engine", "both"],
    ["teleport", "--fig", "3a", "--engine", "both"],
], ids=["1a", "1b-both", "3a-both"])
def test_lambda_changes_no_data_row(argv, lam, capsys):
    # The engines work in units of 1/lambda: the rows depend on lambda t
    # alone, and lambda itself appears only in the header.
    assert_rows_as_at_unit_lambda(argv, lam, capsys)


@pytest.mark.parametrize("argv, lam", [
    (["simulate", "--t-max", "1e10", "--steps", "3"], "1e-300"),
    (["simulate", "--steps", "3"], "1e-155"),
    (["simulate", "--steps", "3"], "1e-200"),
], ids=["phase-overflow-tiny-lambda", "tiny-lambda-swap-overflow",
        "tiny-lambda-mu-underflow"])
def test_tiny_lambda_runs(argv, lam, capsys):
    # Each input would leave the float range in an engine that scaled by
    # lambda: t_max / lambda, 1/mu^2 or mu, as the ids say.
    assert_rows_as_at_unit_lambda(argv, lam, capsys)


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

    @pytest.mark.parametrize("q,m,nbar", [(0.9, 2, 10.0), (0.5, 1, 0.0),
                                          (1.0, 1, 10.0)])
    def test_engine_pair_deviation_is_simulate_max_dev(self, q, m, nbar,
                                                       capsys):
        code, out, _ = run_cli(
            ["simulate", "--engine", "both", "--q", str(q), "--m", str(m),
             "--nbar", str(nbar)], capsys)
        assert code == 0
        _, rows = csv_rows(out)
        assert fmt(engine_pair_deviation(q, m, nbar)) == fmt(
            max(float(r["max_dev"]) for r in rows))


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
        # Blocks of CHUNK_CELLS // 16 times, kernel chunks of
        # CHUNK_CELLS // 60 inside them: 1-row blocks and chunks; 11-row
        # blocks (23 = 11 + 11 + 1) of 3-row chunks (11 = 3 + 3 + 3 + 2),
        # so a block ends inside a chunk's width; one block of 7-row
        # chunks (23 = 7 + 7 + 7 + 2); one block of one chunk.
        for cells in (1, 3 * 60, 7 * 60, 23 * 60):
            monkeypatch.setattr(algebra, "CHUNK_CELLS", cells)
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            outputs[cells] = out
        assert outputs[1] == outputs[3 * 60] == outputs[7 * 60] == \
            outputs[23 * 60]
        _, rows = csv_rows(outputs[1])
        per_time = 4 if argv[0] == "teleport" else 1
        assert len(rows) == 2 * 23 * per_time

    # Cutoff 627 at q = 0.5 and 0.9: the closed form computes X + 1 = 57
    # and 343 columns (head 54 and 340), in kernel chunks of 71 and 11
    # times; the exact engine takes all 628, in chunks of 6 times.  A chunk
    # holds at most CHUNK_CELLS cells, which size the sweep's buffer and
    # workspace.
    WIDEST = algebra.CHUNK_CELLS
    CLOSED_CHUNKS = [71] * 3 + [43, 45] + [11] * 23 + [3] + [11] * 4 + [1]

    def test_blocks_share_one_table_buffer(self, monkeypatch):
        # 256 = 3 * 71 + 43 and 45 times per block at q = 0.5, and
        # 256 = 23 * 11 + 3 and 45 = 4 * 11 + 1 at q = 0.9.
        buffers, shapes = [], []
        table = closedform.amplitude_table

        def recording(*args, out, work, factors):
            buffers.append(out)
            result = table(*args, out=out, work=work, factors=factors)
            assert np.shares_memory(result.c, out)
            shapes.append(result.c.shape)
            return result

        monkeypatch.setattr(closedform, "amplitude_table", recording)
        config = SweepConfig(q_values=(0.5, 0.9), nbar=400.0, steps=301)
        assert [len(times) for _, times, _, _ in sweep(config)] == \
            [256, 45] * 2
        assert [shape[0] for shape in shapes] == self.CLOSED_CHUNKS
        assert [shape[-1] for shape in shapes] == [57] * 5 + [343] * 29
        assert all(out is buffers[0] for out in buffers)
        assert buffers[0].shape == (4 * self.WIDEST,)

    def test_chunks_share_one_workspace_per_sweep(self, monkeypatch):
        # Every kernel chunk and its reduction work in one (2, CHUNK_CELLS)
        # workspace, a fresh one per sweep, never the table's.
        works, tables = [], []
        table, reduce_into = (closedform.amplitude_table,
                              closedform.AmplitudeTable.reduce_into)

        def recording(*args, out, work, factors):
            works.append(work)
            tables.append(out)
            return table(*args, out=out, work=work, factors=factors)

        def reducing(self, populations, correlations, work):
            works.append(work)
            return reduce_into(self, populations, correlations, work)

        monkeypatch.setattr(closedform, "amplitude_table", recording)
        monkeypatch.setattr(closedform.AmplitudeTable, "reduce_into", reducing)
        config = SweepConfig(q_values=(0.5, 0.9), nbar=400.0, steps=301)
        for _ in range(2):
            assert [len(times) for _, times, _, _ in sweep(config)] == \
                [256, 45] * 2
        per_sweep = 2 * len(self.CLOSED_CHUNKS)
        assert len(works) == 2 * per_sweep
        first, second = works[0], works[per_sweep]
        assert all(work is first for work in works[:per_sweep])
        assert all(work is second for work in works[per_sweep:])
        assert second is not first and first.shape == (2, self.WIDEST)
        assert not any(np.shares_memory(first, out) for out in tables)

    def test_sweep_forms_each_q_factors_once(self, monkeypatch):
        # The time-invariant rows of each q are formed once and read by all
        # of its kernel chunks (5 at q = 0.5, 29 at q = 0.9), not per chunk.
        formed, read = [], []
        form, table = closedform.kernel_factors, closedform.amplitude_table

        def forming(*args):
            formed.append(form(*args))
            return formed[-1]

        def recording(*args, out, work, factors):
            read.append(factors)
            return table(*args, out=out, work=work, factors=factors)

        monkeypatch.setattr(closedform, "kernel_factors", forming)
        monkeypatch.setattr(closedform, "amplitude_table", recording)
        config = SweepConfig(q_values=(0.5, 0.9), nbar=400.0, steps=301)
        assert [len(times) for _, times, _, _ in sweep(config)] == \
            [256, 45] * 2
        assert len(formed) == 2 and len(read) == 5 + 29
        assert all(factors is formed[0] for factors in read[:5])
        assert all(factors is formed[1] for factors in read[5:])

    def test_sweep_keeps_no_factors(self):
        # The rows belong to the sweep, like its buffer and workspace:
        # nothing of them outlives it (a cache of both q's rows and tail
        # forms would keep more than one 10 KB cutoff row).
        config = SweepConfig(q_values=(0.5, 0.9), nbar=400.0, steps=301)
        row_bytes = 16 * (config.field().cutoff + 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in sweep(config):
                pass
            del _
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < row_bytes

    @pytest.mark.parametrize("engine", ["closed", "exact", "both"])
    def test_sweep_holds_no_rows_across_the_last_yield(self, engine):
        # While the caller formats a block, the sweep holds no block sums,
        # and after a q's last block neither its rows nor its projection.
        config = SweepConfig(engine=engine, q_values=(0.5, 0.9), nbar=400.0,
                             steps=301)
        blocks = sweep(config)
        for index, _ in enumerate(blocks):
            held = blocks.gi_frame.f_locals
            assert "sums" not in held
            last = index % 2 == 1
            assert (held["factors"] is None) == (last or engine == "exact")
            assert (held["coefficients"] is None) == (last or engine == "closed")

    @pytest.mark.parametrize("engine", ["exact", "both"])
    def test_exact_stack_decomposed_after_the_q_state_is_dropped(
            self, engine, monkeypatch):
        # The decomposition's temporaries (two complex (times, 15, 4)
        # arrays) must not stack on the propagator and scratch of a q
        # that has no block left: that raised exact-large's peak RSS.
        dropped = []
        decompose = states.decompose

        def recording(rho):
            held = sys._getframe(1).f_locals
            dropped.append(held["scratch"] is None)
            return decompose(rho)

        monkeypatch.setattr(states, "decompose", recording)
        config = SweepConfig(engine=engine, q_values=(0.5, 0.9), nbar=400.0,
                             steps=301)
        assert [len(times) for _, times, _, _ in sweep(config)] == \
            [256, 45] * 2
        assert dropped == [False, True] * 2

    def test_sweep_takes_no_chunk_table_after_first_block(self):
        # Building c.real**2 + c.imag**2 per chunk (three real arrays of a
        # chunk's table) rose by about 480 KB past the first block.  numpy's
        # buffered iterator still takes two complex chunk-sized buffers for
        # a ufunc that broadcasts and casts, so the bound is the widest
        # chunk's table, 4 x CHUNK_CELLS cells, not one chunk row.
        config = SweepConfig(q_values=(0.5, 0.9), nbar=400.0, steps=301)
        table_bytes = 4 * self.WIDEST * 16
        blocks = sweep(config)
        tracemalloc.start()
        try:
            first = next(blocks)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            rest = [len(times) for _, times, _, _ in blocks]
            rise = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert len(first[1]) == 256 and rest == [45, 256, 45]
        assert rise < table_bytes

    @pytest.mark.parametrize("engine", ["exact", "both"])
    def test_blocks_share_one_state_buffer(self, engine, monkeypatch):
        # Cutoff 627: 256-time blocks of 6-time exact chunks, each q's
        # initial state projected on its eigenvectors once, all in the one
        # buffer of 4 x CHUNK_CELLS cells, each q's chunks working in one
        # scratch sized for the 6-time chunk.
        buffers, projections, works = [], [], []
        evolve = exact.Propagator.evolve

        def recording(self, state, t, *, out, work, coefficients):
            buffers.append(out)
            projections.append(coefficients)
            works.append(work)
            return evolve(self, state, t, out=out, work=work,
                          coefficients=coefficients)

        monkeypatch.setattr(exact.Propagator, "evolve", recording)
        config = SweepConfig(engine=engine, q_values=(0.5, 0.9), nbar=400.0,
                             steps=301)
        assert [len(times) for _, times, _, _ in sweep(config)] == \
            [256, 45] * 2
        assert [len(out) for out in buffers] == \
            ([6] * 42 + [4] + [6] * 7 + [3]) * 2
        assert all(out.base is buffers[0].base for out in buffers)
        assert buffers[0].base.shape == (4 * self.WIDEST,)
        assert all(c is projections[0] for c in projections[:51])
        assert all(c is projections[51] for c in projections[51:])
        first, second = works[0], works[51]
        assert all(work is first for work in works[:51])
        assert all(work is second for work in works[51:])
        assert second is not first and first.shape == (6 * 4 * 628,)
        assert not any(np.shares_memory(first, out) for out in buffers)

    def test_chunks_cover_the_grid_once(self, monkeypatch):
        monkeypatch.setattr(algebra, "CHUNK_CELLS", 7 * 60)
        times = np.linspace(0.0, 1.0, 23)
        chunks = algebra.time_chunks(times, 60)
        assert [len(c) for c in chunks] == [7, 7, 7, 2]
        assert np.array_equal(np.concatenate(chunks), times)
        monkeypatch.setattr(algebra, "CHUNK_CELLS", 3 * 60)
        blocks = algebra.time_chunks(times, 16)
        assert [len(b) for b in blocks] == [11, 11, 1]
        assert np.array_equal(np.concatenate(blocks), times)
        assert [len(c) for c in algebra.time_chunks(blocks[0], 60)] == \
            [3, 3, 3, 2]
        monkeypatch.setattr(algebra, "CHUNK_CELLS", 10)
        assert [len(c) for c in algebra.time_chunks(times, 60)] == [1] * 23
        assert [len(b) for b in algebra.time_chunks(times, 16)] == [1] * 23


class TestLargeNbar:
    def test_both_engines_agree_at_nbar_50000(self, capsys):
        # Cutoff 52,395: the closed form computes 57 and 343 explicit
        # columns and sums the rest of each q's saturated tail in closed
        # form; the exact engine evolves every manifold.
        code, out, _ = run_cli(["simulate", "--engine", "both", "--nbar",
                                "50000", "--steps", "5", "--q", "0.5", "--q",
                                "0.9"], capsys)
        assert code == 0 and "# cutoff=52395" in out
        _, rows = csv_rows(out)
        assert len(rows) == 10
        assert max(float(row["max_dev"]) for row in rows) <= 1e-9


# Each argv input is drawn valid five times in six.  Accepted runs are
# kept small, steps * (cutoff + 1) <= ARGV_CELLS; only inputs SweepConfig
# rejects before it allocates are large: 1e8 < steps <= 1e12, nbar past
# the 1e6-level ceiling, and m whose ladder overflows.
ARGV_CELLS = 10**5


def mostly(valid, invalid):
    return st.integers(0, 5).flatmap(lambda k: invalid if k == 5 else valid)


class TestBadConfigWritesNothing:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--q", "0.5", "--q", "2", "--steps", "3"],
        ["simulate", "--nbar", "-1"],
        ["simulate", "--m", "0"],
        ["teleport", "--alpha", "1", "--beta", "1"],
        ["simulate", "--t-max", "nan", "--steps", "3"],
        ["simulate", "--lambda", "inf", "--steps", "3"],
        ["simulate", "--lambda", "0", "--steps", "3"],
        ["simulate", "--lambda", "-1", "--steps", "3"],
        ["simulate", "--lambda", "nan", "--steps", "3"],
        ["simulate", "--nbar", "nan", "--steps", "3"],
        ["simulate", "--atoms", "nan,0,0,0", "--steps", "3"],
        ["teleport", "--alpha", "nan", "--beta", "0", "--steps", "3"],
        ["simulate", "--t-max", "1e308", "--steps", "3"],
        ["teleport", "--t-max", "1e308", "--steps", "3"],
        ["simulate", "--lambda", "1e-300", "--t-max", "1e308", "--steps", "3"],
    ], ids=["q-out-of-range", "negative-nbar", "zero-m", "unnormalised-input",
            "nan-t-max", "inf-lambda", "zero-lambda", "negative-lambda",
            "nan-lambda", "nan-nbar", "nan-atoms", "nan-alpha",
            "phase-overflow-simulate", "phase-overflow-teleport",
            "tiny-lambda-phase-overflow"])
    def test_no_output_and_no_file(self, argv, tmp_path, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and err.startswith("error:")
        path = tmp_path / "out.csv"
        code, out, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert not path.exists()

    @pytest.mark.parametrize("argv,cause", [
        (["simulate", "--steps", "1000000000000"], "steps must lie in"),
        (["simulate", "--m", "200", "--nbar", "10", "--steps", "3"],
         "m = 200 overflows the ladder"),
    ], ids=["grid-beyond-ceiling", "ladder-overflow"])
    def test_oversized_input_exits_before_any_allocation(self, argv, cause,
                                                         capsys):
        # Rejected by SweepConfig before the grid or the header: the grid
        # of 10**12 steps would take 8 TB, and 200 q-numbers overflow their
        # product, which used to leak a RuntimeWarning and blame t_max.
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and err.startswith("error:")
        assert cause in err and "t_max" not in err
        assert peak < 2**20
        assert threading.active_count() == 1

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="caps the child's address space")
    def test_grid_the_host_cannot_hold_exits_2(self):
        # 1e8 steps pass the range check, but the grid's 800 MB exceed the
        # child's 512 MiB address space.  SweepConfig builds the grid
        # before the header, so the MemoryError exits 2 with nothing on
        # stdout.  The child runs BLAS at one thread and starts no other.
        script = ("import resource, sys\n"
                  "from qdcavity import cli\n"
                  "cap = 512 * 2**20\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                  "sys.exit(cli.main(['simulate', '--steps', '100000000']))\n")
        source = os.path.dirname(os.path.dirname(qdcavity.__file__))
        env = dict(os.environ, PYTHONPATH=source, OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(command=st.sampled_from(["simulate", "teleport"]),
           engine=st.sampled_from([None, "closed", "exact", "both"]),
           q_values=st.lists(mostly(st.floats(0.0, 1.0), st.sampled_from(
               [math.nan, -0.5, -math.inf, 1.0 + 1e-12, 2.0, math.inf])),
               min_size=1, max_size=3),
           m=mostly(st.one_of(st.integers(1, 3), st.integers(1, 400)),
                    st.integers(-1, 0)),
           nbar=mostly(st.floats(0.0, 500.0), st.one_of(st.floats(1e6, 1e9),
                       st.sampled_from([math.nan, math.inf, -1.0]))),
           steps=mostly(st.integers(2, 40), st.one_of(
               st.integers(-1, 1), st.integers(10**8 + 1, 10**12))),
           t_max=mostly(st.floats(0.1, 50.0), st.sampled_from(
               [0.0, -1.0, math.nan, math.inf, 1e300, 1e308])))
    @example(command="simulate", engine="both", q_values=[0.0], m=400,
             nbar=500.0, steps=40, t_max=10.0)
    @example(command="teleport", engine=None, q_values=[1.0], m=400,
             nbar=0.0, steps=2, t_max=10.0)
    @example(command="simulate", engine="closed", q_values=[0.5], m=1,
             nbar=1e9, steps=10**12, t_max=10.0)
    def test_every_argv_exits_0_or_2(self, command, engine, q_values, m, nbar,
                                     steps, t_max):
        argv = [command, f"--m={m}", f"--nbar={nbar!r}", f"--steps={steps}",
                f"--t-max={t_max!r}", *(f"--q={q!r}" for q in q_values)]
        argv += [f"--engine={engine}"] if engine else []
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2) and "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error:")
        else:
            cutoff = int(out.split("# cutoff=", 1)[1].split("\n", 1)[0])
            assert steps * (cutoff + 1) <= ARGV_CELLS
            assert len(csv_rows(out)[1]) == steps * len(q_values) * (
                1 if command == "simulate" else len(teleport.OUTCOME_LABELS))

    def test_missing_out_directory_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "x.csv"
        code, out, err = run_cli(
            ["simulate", "--steps", "2", "--nbar", "0", "--out", str(path)],
            capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "missing-dir" in err
        assert not path.parent.exists()
