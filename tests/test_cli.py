import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trigcolloc import cli, integrator
from trigcolloc import lagrange as lg
from trigcolloc.errors import OracleUnreliableError
from trigcolloc.problems import build_problem


def run(argv):
    return cli.main(argv)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_cli_import_leaves_scipy_out():
    # scipy takes longer to import than the whole package, and only the
    # quadrature oracle needs it; a fresh interpreter sees every import
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import trigcolloc.cli; "
        "print(trigcolloc.cli.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [cli.__file__, "[]"]


def test_solve_writes_expected_csv(tmp_path):
    out = tmp_path / "solve.csv"
    code = run([
        "solve", "--problem", "fpu", "--h", "0.1", "--t-end", "1.0",
        "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    header, rows = read_csv(out)
    assert header == (
        ["t"] + [f"q{k}" for k in range(1, 7)] + [f"p{k}" for k in range(1, 7)]
        + ["iterations", "energy"]
    )
    assert len(rows) == 11
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 1.0
    # the initial row reports zero iterations, later rows at least one
    assert rows[0][13] == "0"
    assert all(int(r[13]) >= 1 for r in rows[1:])
    # initial state matches the registered problem
    assert float(rows[0][1]) == 1.0
    assert float(rows[0][7]) == 1.0


def test_solve_output_is_deterministic(tmp_path):
    args = ["solve", "--problem", "klein-gordon", "--h", "0.05", "--t-end", "0.5"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == cli.EXIT_OK
    assert run(args + ["--out", str(out2)]) == cli.EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_to_stdout(capsys):
    code = run(["solve", "--problem", "fpu", "--h", "0.5", "--t-end", "1.0"])
    assert code == cli.EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("t,q1")
    assert len(lines) == 4


def test_unknown_problem_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--problem", "pendulum", "--h", "0.1"])
    assert exc.value.code == cli.EXIT_USAGE


def test_convergence_needs_three_step_sizes():
    with pytest.raises(SystemExit) as exc:
        run(["convergence", "--problem", "wave", "--h-list", "0.1,0.05"])
    assert exc.value.code == cli.EXIT_USAGE


def test_coeffs_needs_exactly_one_matrix_source():
    with pytest.raises(SystemExit) as exc:
        run(["coeffs", "--h", "0.1"])
    assert exc.value.code == cli.EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        run(["coeffs", "--problem", "fpu", "--m-scalar", "4.0", "--h", "0.1"])
    assert exc.value.code == cli.EXIT_USAGE


def test_invalid_nodes_exit_with_usage_code(tmp_path, capsys):
    code = run([
        "solve", "--problem", "fpu", "--h", "0.1", "--t-end", "0.5",
        "--nodes", "0.3,0.3",
    ])
    assert code == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_energy_zero_force_drift_is_roundoff(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    code = run([
        "energy", "--problem", "fpu", "--zero-force", "--h", "0.01",
        "--t-end", "10.0", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    header, rows = read_csv(out)
    assert header == ["t", "energy_drift"]
    assert len(rows) == 1001
    drift = np.array([float(r[1]) for r in rows])
    assert drift.max() <= 1e-10
    assert "max energy drift:" in capsys.readouterr().err


def test_coeffs_scalar_matrix_reports_tiny_defects(tmp_path):
    out = tmp_path / "coeffs.csv"
    code = run([
        "coeffs", "--m-scalar", "100.0", "--h", "0.1", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    header, rows = read_csv(out)
    assert header == ["kind", "i", "j", "index1", "index2", "value", "oracle", "abs_err"]
    # gauss-2: 2 q rows + 2 p rows + 4 stage rows
    assert len(rows) == 8
    kinds = sorted({r[0] for r in rows})
    assert kinds == ["p", "q", "stage"]
    for r in rows:
        assert float(r[7]) <= 1e-10


def test_coeffs_wave_spectral_path_is_rejected(capsys):
    code = run([
        "coeffs", "--problem", "wave", "--n", "8", "--path", "spectral",
        "--h", "0.05",
    ])
    assert code == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_coeffs_wave_auto_uses_series_matrices(tmp_path):
    out = tmp_path / "coeffs_wave.csv"
    code = run([
        "coeffs", "--problem", "wave", "--n", "8", "--h", "0.05",
        "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    header, rows = read_csv(out)
    # d = 7: each of the 8 weight blocks dumps a full 7x7 matrix
    assert len(rows) == 8 * 49
    for r in rows:
        assert r[6] == "" and r[7] == ""


def test_stability_scan_is_deterministic(tmp_path):
    args = [
        "stability", "--v-range", "0,10", "--z-range=-2,2",
        "--grid", "11x11",
    ]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert run(args + ["--out", str(out1)]) == cli.EXIT_OK
    assert run(args + ["--out", str(out2)]) == cli.EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(out1)
    assert header == ["V", "z", "rho", "trace", "det", "stable", "periodic"]
    assert len(rows) == 121
    for r in rows:
        assert r[5] in ("0", "1") and r[6] in ("0", "1")


def test_stability_csv_matches_per_cell_formatting(tmp_path):
    # with the one node c = 1/2 the 11x9 grid holds the singular point
    # (V, z) = (0, -8), where the stage system 1 + z c^2 A is 1 - 8 / 8
    out = tmp_path / "s.csv"
    assert run([
        "stability", "--nodes=0.5", "--v-range=0,10", "--z-range=-8,0", "--grid=11x9",
        "--out", str(out),
    ]) == cli.EXIT_OK
    rows = cli.scan_region(lg.build_node_set([0.5]), (0.0, 10.0), (-8.0, 0.0), (11, 9))
    assert np.isnan(rows[:, 2]).sum() == 1
    assert out.read_text() == per_cell_stability_csv(rows)


def per_cell_stability_csv(rows):
    """The stability CSV formatted one cell at a time: the reference."""
    want = ["V,z,rho,trace,det,stable,periodic"] + [
        ",".join([cli.fmt(r[k]) for k in range(5)] + [str(int(r[5])), str(int(r[6]))])
        for r in rows
    ]
    return "\n".join(want) + "\n"


def test_stability_csv_writer_on_crafted_rows():
    # rho holds +0.0 and -0.0 (one value under ==, two bit patterns), NaNs
    # of both signs and +-inf; rho and det repeat, and all four flag pairs occur
    n_v, n_z = 3, 4
    V, z = np.meshgrid([0.0, 2.5, 1e300], [-1.0, -0.0, 0.0, 3.0], indexing="ij")
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, 0.0, -0.0, 1.0, 5e-324, 1.0]
    rows = np.column_stack([
        V.ravel(), z.ravel(),
        special,
        np.linspace(-2.0, 2.0, n_v * n_z),
        special[::-1],
        [0, 0, 1, 1] * n_v,
        [0, 1, 0, 1] * n_v,
    ])
    assert np.signbit(rows[:, 2]).any() and not np.signbit(rows[:, 2]).all()
    got = "".join(cli._stability_csv(rows, n_z))
    assert got == per_cell_stability_csv(rows)
    assert got.count(",-0.0000000000000000e+00,") >= 2
    assert ",nan," in got and ",-inf," in got


def test_stability_csv_of_a_gauss2_window_matches_per_cell_formatting(tmp_path):
    # Gauss-2 is symmetric: det S is 1 to round-off, so det repeats
    out = tmp_path / "s.csv"
    assert run(["stability", "--grid=41x41", "--out", str(out)]) == cli.EXIT_OK
    rows = cli.scan_region(lg.gauss2(), (0.0, 100.0), (-5.0, 5.0), (41, 41))
    assert len(np.unique(rows[:, 4])) < len(rows) // 10
    assert out.read_text() == per_cell_stability_csv(rows)


def test_stability_to_stdout_writes_the_bytes_of_out(tmp_path, capsys):
    args = ["stability", "--nodes=0.2,0.7", "--v-range=0,30", "--z-range=-3,3", "--grid=21x17"]
    out = tmp_path / "s.csv"
    assert run(args + ["--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert run(args) == cli.EXIT_OK
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize(
    "flag",
    ["--grid=1x5", "--grid=5x1", "--v-range=-1,5", "--v-range=0,-1",
     "--v-range=0,nan", "--v-range=0,1e400", "--z-range=-inf,0", "--z-range=0,nan"],
)
def test_stability_rejects_bad_windows_with_usage_code(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["stability", flag])
    assert exc.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["stability", "--tol", "1e-3"],
    ["stability", "--max-iter", "5"],
    ["coeffs", "--m-scalar", "1.0", "--h", "0.1", "--iteration-mode", "fixed"],
])
def test_commands_that_do_not_iterate_refuse_iteration_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["3x", "x3", "axb", "3", "3x4x5"])
def test_stability_rejects_malformed_grid_by_name(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["stability", f"--grid={grid}"])
    assert exc.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "--grid" in captured.err and "NVxNZ" in captured.err
    assert captured.out == ""


def test_convergence_on_wave_hits_roundoff(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = run([
        "convergence", "--problem", "wave", "--t-end", "1.0",
        "--h-list", "0.02,0.01,0.005", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    header, rows = read_csv(out)
    assert header == ["h", "global_error"]
    hs = [float(r[0]) for r in rows]
    assert hs == sorted(hs, reverse=True)
    errors = [float(r[1]) for r in rows]
    # the semi-discrete wave solution is reproduced to round-off at any
    # step size, so no order can be read off this problem
    assert max(errors) <= 1e-10
    err = capsys.readouterr().err
    assert "least-squares order: n/a (3 of 3 errors at or below 1e-12)" in err


def test_convergence_order_on_zero_force_fpu(tmp_path, capsys):
    out = tmp_path / "conv0.csv"
    code = run([
        "convergence", "--problem", "fpu", "--omega", "2.0", "--zero-force",
        "--t-end", "1.0", "--h-list", "0.1,0.05,0.025", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    err = capsys.readouterr().err
    # without a force the step is exact, so every error is round-off
    assert "least-squares order: n/a (3 of 3 errors at or below 1e-12)" in err


def test_convergence_order_on_fpu(tmp_path, capsys):
    # 320 substeps per unit fail the reference self-check here; the CLI and
    # estimate_order share the driver that retries it, so both run and agree
    out = tmp_path / "conv.csv"
    code = run([
        "convergence", "--problem", "fpu", "--omega", "20", "--t-end", "1",
        "--h-list", "0.1,0.05,0.025", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    est = integrator.estimate_order(
        build_problem("fpu", omega=20.0, t_end=1.0).ivp, [0.1, 0.05, 0.025]
    )
    assert 3.8 <= est.slope <= 4.2
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == est.errors.tolist()
    assert capsys.readouterr().err == f"least-squares order: {est.slope:.4f}\n"


def test_convergence_of_one_node_method_uses_gauss2_reference(tmp_path, capsys):
    # a midpoint reference misses its own self-check even after three retries
    code = run([
        "convergence", "--problem", "fpu", "--omega", "20", "--t-end", "1",
        "--h-list", "0.1,0.05,0.025", "--nodes", "0.5",
        "--out", str(tmp_path / "conv.csv"),
    ])
    assert code == cli.EXIT_OK
    assert 1.7 <= float(capsys.readouterr().err.split(":")[1]) <= 2.3


def test_convergence_retries_a_refused_reference(tmp_path, capsys):
    # 8 / min(h) = 320 substeps per unit fail the 1e-10 self-check here;
    # twice that passes
    out = tmp_path / "conv_sat.csv"
    code = run([
        "convergence", "--problem", "satellite", "--t-end", "2",
        "--h-list", "0.1,0.05,0.025", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    _, rows = read_csv(out)
    errors = [float(r[1]) for r in rows]
    assert errors == sorted(errors, reverse=True)
    assert 3.5 < float(capsys.readouterr().err.split(":")[1]) < 4.5


def test_convergence_gives_up_after_three_retries(monkeypatch, capsys):
    calls = []

    def refuse(ivp, per_unit, node_set=None):
        calls.append(per_unit)
        raise OracleUnreliableError("refused")

    monkeypatch.setattr(integrator, "reference_solve", refuse)
    code = run([
        "convergence", "--problem", "satellite", "--t-end", "1",
        "--h-list", "0.1,0.05,0.025",
    ])
    assert code == cli.EXIT_USAGE
    assert calls == [320, 640, 1280, 2560]
    assert "refused" in capsys.readouterr().err


def test_solver_failure_exits_with_code_3(capsys):
    code = run([
        "solve", "--problem", "fpu", "--h", "0.5", "--t-end", "1.0",
        "--tol", "1e-15", "--max-iter", "3",
    ])
    assert code == cli.EXIT_SOLVER
    assert "solver failed at step" in capsys.readouterr().err


def test_manifest_round_trip():
    parser = cli.build_parser()
    args = parser.parse_args([
        "convergence", "--problem", "fpu", "--omega", "50.0",
        "--h-list", "0.1,0.05,0.025", "--t-end", "2.0",
    ])
    manifest = cli.manifest_from_args(args)
    assert manifest.command == "convergence"
    assert manifest.problem == "fpu"
    assert manifest.overrides == {"omega": 50.0}
    assert manifest.h_list == (0.1, 0.05, 0.025)
    assert manifest.t_end == 2.0
    assert manifest.iteration_mode == "tolerance"


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--m-scalar", "nan", "--h", "0.1"],
        ["coeffs", "--m-scalar", "inf", "--h", "0.1"],
        ["coeffs", "--m-scalar", "1", "--h", "nan"],
        ["solve", "--problem", "fpu", "--h", "nan"],
        ["energy", "--problem", "fpu", "--h", "inf"],
        ["convergence", "--problem", "fpu", "--h-list", "0.1,nan,0.025"],
    ],
)
def test_non_finite_numbers_are_usage_errors(argv, capsys):
    # once a traceback, a NaN CSV with exit 0, or an OverflowError
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert "must be finite" in capsys.readouterr().err
