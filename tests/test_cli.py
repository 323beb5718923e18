import numpy as np
import pytest

from conftest import cnormal, random_pencil, rng, run_cli
from qritz.builtin import example31_basis, example31_pencil
from qritz.kernels import orthonormalize
from qritz.mmio import write_matrix_market


@pytest.fixture
def builtin_files(tmp_path):
    p = example31_pencil()
    paths = {}
    for name, mat in (("M", p.M), ("D", p.D), ("K", p.K), ("Q", example31_basis())):
        path = tmp_path / f"{name}.mtx"
        write_matrix_market(path, mat)
        paths[name] = str(path)
    return paths


def _parse_complex_field(line):
    text = line.split("=", 1)[1].strip()
    return complex(text.replace(" ", ""))


def test_solve_finds_unit_eigenvalue(tmp_path, builtin_files):
    r = run_cli(
        ["solve", builtin_files["M"], builtin_files["D"], builtin_files["K"],
         "--target", "1", "--count", "1"],
        cwd=tmp_path,
    )
    assert r.returncode == 0
    out = r.stdout.decode().splitlines()
    lam_line = next(l for l in out if l.startswith("pair 1: lambda="))
    lam = complex(lam_line.split("lambda=")[1].split(" ")[0])
    assert abs(lam - 1.0) <= 1e-6
    # Eigenvector concentrates on the third coordinate (up to phase).
    x2 = _parse_complex_field(next(l for l in out if l.strip().startswith("x[2]")))
    assert abs(abs(x2) - 1.0) <= 1e-6


def test_solve_singular_mass_exits_2(tmp_path):
    for name, mat in (("M", np.zeros((2, 2))), ("D", np.eye(2)), ("K", np.eye(2))):
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    r = run_cli(
        ["solve", str(tmp_path / "M.mtx"), str(tmp_path / "D.mtx"), str(tmp_path / "K.mtx")],
        cwd=tmp_path,
    )
    assert r.returncode == 2
    assert b"Singular" in r.stderr


def test_missing_file_exits_3(tmp_path, builtin_files):
    r = run_cli(
        ["solve", str(tmp_path / "nope.mtx"), builtin_files["D"], builtin_files["K"]],
        cwd=tmp_path,
    )
    assert r.returncode == 3


def test_usage_error_exits_1(tmp_path):
    r = run_cli(["solve", "--bogus-flag"], cwd=tmp_path)
    assert r.returncode == 1
    assert b"error:" in r.stderr


def test_project_reports_degenerate_projection(tmp_path, builtin_files):
    r = run_cli(
        ["project", builtin_files["M"], builtin_files["D"], builtin_files["K"],
         "--subspace", builtin_files["Q"], "--target", "1", "--refined"],
        cwd=tmp_path,
    )
    assert r.returncode == 0
    out = r.stdout.decode()
    assert "clustered          = True" in out
    lines = dict(
        l.split("=", 1) for l in out.splitlines() if "=" in l and "lambda" not in l
    )
    ritz_angle = float(lines["ritz angle         "])
    refined_angle = float(lines["refined angle      "])
    # The projection cannot pick the right coefficient; refined extraction can.
    assert ritz_angle >= 1e-3
    assert refined_angle <= 1e-6


def test_project_rejects_skewed_basis_without_flag(tmp_path, builtin_files):
    skew = example31_basis().copy()
    skew[0, 0] = 0.5
    write_matrix_market(tmp_path / "skew.mtx", skew)
    args = ["project", builtin_files["M"], builtin_files["D"], builtin_files["K"],
            "--subspace", str(tmp_path / "skew.mtx")]
    r = run_cli(args, cwd=tmp_path)
    assert r.returncode == 2
    assert b"orthonormal" in r.stderr.lower()
    r2 = run_cli(args + ["--orthonormalize"], cwd=tmp_path)
    assert r2.returncode == 0


def test_example31_passes_and_is_deterministic(tmp_path):
    r1 = run_cli(["example31"], cwd=tmp_path)
    r2 = run_cli(["example31"], cwd=tmp_path)
    assert r1.returncode == 0
    assert r1.stdout.count(b"PASS") == 5
    assert b"all 5 checks passed" in r1.stdout
    assert r1.stdout == r2.stdout


def test_study_builtin_deterministic_bytes(tmp_path):
    args = ["study", "--builtin", "example31", "--eps-list", "1e-4,1e-8,1e-12",
            "--seed", "7", "--out", "out.csv"]
    r1 = run_cli(args, cwd=tmp_path)
    assert r1.returncode == 0, r1.stderr
    csv1 = (tmp_path / "out.csv").read_bytes()
    r2 = run_cli(args, cwd=tmp_path)
    csv2 = (tmp_path / "out.csv").read_bytes()
    assert r1.stdout == r2.stdout
    assert csv1 == csv2
    assert b"RITZ-STAGNANT" in r1.stdout
    header = csv1.decode().splitlines()[0]
    assert header.startswith("epsilon,sin_theta,ritz_value_err")


def test_study_zero_epsilon_exact_row(tmp_path):
    r = run_cli(
        ["study", "--builtin", "example31", "--eps-list", "0", "--seed", "1",
         "--out", "zero.csv"],
        cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    fields = (tmp_path / "zero.csv").read_text().splitlines()[1].split(",")
    header = (tmp_path / "zero.csv").read_text().splitlines()[0].split(",")
    row = dict(zip(header, fields))
    assert float(row["sin_theta"]) == 0.0
    assert float(row["refined_angle"]) <= 1e-13


def test_study_files_mode(tmp_path, builtin_files):
    r = run_cli(
        ["study", builtin_files["M"], builtin_files["D"], builtin_files["K"],
         "--target", "1", "--eps-list", "1e-6", "--seed", "3", "--out", "f.csv"],
        cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "f.csv").exists()


def test_env_fallback_beats_default_flags_beat_env(tmp_path):
    env = {"QRITZ_SEED": "9", "QRITZ_OUT": "env.csv"}
    r = run_cli(
        ["study", "--builtin", "example31", "--eps-list", "1e-6"],
        cwd=tmp_path,
        env_extra=env,
    )
    assert r.returncode == 0, r.stderr
    assert b"seed=9" in r.stdout
    assert (tmp_path / "env.csv").exists()
    r2 = run_cli(
        ["study", "--builtin", "example31", "--eps-list", "1e-6", "--seed", "4"],
        cwd=tmp_path,
        env_extra=env,
    )
    assert b"seed=4" in r2.stdout


def test_study_unknown_builtin_exits_1(tmp_path):
    r = run_cli(["study", "--builtin", "nonsense"], cwd=tmp_path)
    assert r.returncode == 1
    assert b"unknown builtin" in r.stderr


def test_project_large_problem_skips_reference(tmp_path):
    # Above the full-solve limit the report carries projection-level
    # quantities only.
    g = rng(31)
    p = random_pencil(g, 60)
    for name, mat in (("M", p.M), ("D", p.D), ("K", p.K)):
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    write_matrix_market(tmp_path / "Q.mtx", orthonormalize(cnormal(g, 60, 3)))
    r = run_cli(
        ["project", str(tmp_path / "M.mtx"), str(tmp_path / "D.mtx"),
         str(tmp_path / "K.mtx"), "--subspace", str(tmp_path / "Q.mtx"),
         "--target", "0.5", "--refined"],
        cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    out = r.stdout.decode()
    assert "(no reference)" in out
    assert "sigma_min" in out
