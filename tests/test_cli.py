import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env, cnormal, graded_projection, random_pencil, rng, run_cli
from qritz import cli
from qritz.builtin import example31_basis, example31_pencil
from qritz.errors import IndefiniteMass
from qritz.kernels import orthonormalize
from qritz.mmio import write_matrix_market
from qritz.solver import nearest_first, solve_full


@pytest.fixture
def run_main(tmp_path, monkeypatch, capsys):
    """Run ``qritz.cli.main`` in this process from ``tmp_path``; returns
    (exit code, stdout, stderr).

    ``QRITZ_*`` variables are cleared first, since the parser reads them as
    option defaults; a test sets its own with ``monkeypatch.setenv``.
    """
    monkeypatch.chdir(tmp_path)
    for name in [k for k in os.environ if k.startswith("QRITZ_")]:
        monkeypatch.delenv(name)

    def run(args):
        code = cli.main(args)
        out, err = capsys.readouterr()
        return code, out, err

    return run


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


def test_solve_finds_unit_eigenvalue(builtin_files, run_main):
    code, stdout, _ = run_main(
        ["solve", builtin_files["M"], builtin_files["D"], builtin_files["K"],
         "--target", "1", "--count", "1"]
    )
    assert code == 0
    out = stdout.splitlines()
    lam_line = next(l for l in out if l.startswith("pair 1: lambda="))
    lam = complex(lam_line.split("lambda=")[1].split(" ")[0])
    assert abs(lam - 1.0) <= 1e-6
    # Eigenvector concentrates on the third coordinate (up to phase).
    x2 = _parse_complex_field(next(l for l in out if l.strip().startswith("x[2]")))
    assert abs(abs(x2) - 1.0) <= 1e-6


def test_solve_count_clamps_to_2n_and_is_deterministic(tmp_path):
    g = rng(9400)
    p = random_pencil(g, 2)
    for name, mat in (("M", p.M), ("D", p.D), ("K", p.K)):
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    args = ["solve", "M.mtx", "D.mtx", "K.mtx", "--target", "0.2-0.1j", "--count", "9"]
    r1 = run_cli(args, cwd=tmp_path)
    r2 = run_cli(args, cwd=tmp_path)
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout
    out = r1.stdout.decode().splitlines()
    assert out[0].startswith("solve: n=2 eigenvalues=4 ") and out[0].endswith(" count=4")
    assert sum(line.startswith("pair ") for line in out) == 4


@pytest.mark.parametrize("count", ["1", "3"])
def test_solve_prints_refined_pairs_nearest_the_target(tmp_path, run_main, count):
    g = rng(9401)
    p = random_pencil(g, 6)
    for name, mat in (("M", p.M), ("D", p.D), ("K", p.K)):
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    code, stdout, _ = run_main(["solve", "M.mtx", "D.mtx", "K.mtx", "--target", "0.5j", "--count", count])
    assert code == 0
    out = stdout.splitlines()
    assert out[0].endswith(f" eigenvalues=12 target={cli.fmt_complex(0.5j)} count={count}")
    want = nearest_first(solve_full(p), 0.5j)
    for rank in range(int(count)):
        line = next(l for l in out if l.startswith(f"pair {rank + 1}: lambda="))
        lam = complex(line.split("lambda=")[1].split(" ")[0])
        printed = float(line.split("residual=")[1])
        assert abs(lam - want[rank].value) <= 1e-12 * max(1.0, abs(lam))
        assert printed <= want[rank].residual_norm + 1e-14 * p.residual_scale(lam)


def test_solve_singular_mass_exits_2(tmp_path, run_main):
    for name, mat in (("M", np.zeros((2, 2))), ("D", np.eye(2)), ("K", np.eye(2))):
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    with pytest.warns(IndefiniteMass):
        code, _, err = run_main(
            ["solve", str(tmp_path / "M.mtx"), str(tmp_path / "D.mtx"), str(tmp_path / "K.mtx")]
        )
    assert code == 2
    assert "Singular" in err


def test_missing_file_exits_3(tmp_path, builtin_files, run_main):
    code, _, err = run_main(
        ["solve", str(tmp_path / "nope.mtx"), builtin_files["D"], builtin_files["K"]]
    )
    assert code == 3
    assert "i/o failure" in err


@pytest.mark.parametrize(
    "body, message",
    [
        (("9" * 400).encode(), ":3: integer of 400 characters"),
        (b"1\xe9", ":3: non-ASCII byte 0xe9"),
    ],
    ids=["integer_overflow", "non_ascii"],
)
def test_unreadable_entry_exits_3(tmp_path, builtin_files, run_main, body, message):
    path = tmp_path / "bad.mtx"
    path.write_bytes(b"%%MatrixMarket matrix array integer general\n1 1\n" + body + b"\n")
    code, out, err = run_main(["solve", str(path), builtin_files["D"], builtin_files["K"]])
    assert code == 3
    assert out == ""
    assert message in err


def _limit_address_space():
    """Cap this process's address space at 3 GiB (or the lower hard limit)."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(3 * 2**30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_unallocatable_matrix_exits_3(tmp_path):
    # 68 bytes announcing a 6.4 GB dense matrix; the limit applies to the child only.
    path = tmp_path / "coo.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n20000 20000 1\n1 1 1.0\n")
    r = subprocess.run(
        [sys.executable, "-m", "qritz", "solve", str(path), str(path), str(path)],
        capture_output=True,
        cwd=tmp_path,
        env=child_env(),
        timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert r.returncode == 3, r.stderr
    assert b"i/o failure" in r.stderr
    assert b":2: 20000 x 20000 dense matrix does not fit in memory" in r.stderr
    assert b"Traceback" not in r.stderr


def test_usage_error_exits_1(tmp_path):
    r = run_cli(["solve", "--bogus-flag"], cwd=tmp_path)
    assert r.returncode == 1
    assert b"error:" in r.stderr


def test_project_reports_degenerate_projection(builtin_files, run_main):
    code, out, _ = run_main(
        ["project", builtin_files["M"], builtin_files["D"], builtin_files["K"],
         "--subspace", builtin_files["Q"], "--target", "1", "--refined"]
    )
    assert code == 0
    assert "clustered          = True" in out
    lines = dict(
        l.split("=", 1) for l in out.splitlines() if "=" in l and "lambda" not in l
    )
    ritz_angle = float(lines["ritz angle         "])
    refined_angle = float(lines["refined angle      "])
    # The projection cannot pick the right coefficient; refined extraction can.
    assert ritz_angle >= 1e-3
    assert refined_angle <= 1e-6


def test_project_rejects_skewed_basis_without_flag(tmp_path, builtin_files, run_main):
    skew = example31_basis().copy()
    skew[0, 0] = 0.5
    write_matrix_market(tmp_path / "skew.mtx", skew)
    args = ["project", builtin_files["M"], builtin_files["D"], builtin_files["K"],
            "--subspace", str(tmp_path / "skew.mtx")]
    code, _, err = run_main(args)
    assert code == 2
    assert "orthonormal" in err.lower()
    code2, _, _ = run_main(args + ["--orthonormalize"])
    assert code2 == 0


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


def test_study_zero_epsilon_exact_row(tmp_path, run_main):
    code, _, err = run_main(
        ["study", "--builtin", "example31", "--eps-list", "0", "--seed", "1",
         "--out", "zero.csv"]
    )
    assert code == 0, err
    fields = (tmp_path / "zero.csv").read_text().splitlines()[1].split(",")
    header = (tmp_path / "zero.csv").read_text().splitlines()[0].split(",")
    row = dict(zip(header, fields))
    assert float(row["sin_theta"]) == 0.0
    assert float(row["refined_angle"]) <= 1e-13


def test_study_files_mode(tmp_path, builtin_files, run_main):
    code, _, err = run_main(
        ["study", builtin_files["M"], builtin_files["D"], builtin_files["K"],
         "--target", "1", "--eps-list", "1e-6", "--seed", "3", "--out", "f.csv"]
    )
    assert code == 0, err
    assert (tmp_path / "f.csv").exists()


def test_env_fallback_beats_default_flags_beat_env(tmp_path, monkeypatch, run_main):
    monkeypatch.setenv("QRITZ_SEED", "9")
    monkeypatch.setenv("QRITZ_OUT", "env.csv")
    code, out, err = run_main(["study", "--builtin", "example31", "--eps-list", "1e-6"])
    assert code == 0, err
    assert "seed=9" in out
    assert (tmp_path / "env.csv").exists()
    _, out2, _ = run_main(
        ["study", "--builtin", "example31", "--eps-list", "1e-6", "--seed", "4"]
    )
    assert "seed=4" in out2


@pytest.mark.parametrize("source", ["flag", "env"])
def test_study_builtin_with_matrix_files_is_a_usage_error(
    builtin_files, monkeypatch, run_main, source
):
    args = ["study", builtin_files["M"], builtin_files["D"], builtin_files["K"]]
    if source == "flag":
        args += ["--builtin", "example31"]
    else:
        monkeypatch.setenv("QRITZ_BUILTIN", "example31")
    code, out, err = run_main(args)
    assert code == 1
    assert "--builtin" in err
    assert out == ""


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("option, value", [("--dim", "5"), ("--target", "3")])
def test_study_builtin_refuses_dim_and_target(monkeypatch, run_main, source, option, value):
    args = ["study", "--builtin", "example31", "--eps-list", "1e-6"]
    if source == "flag":
        args += [option, value]
    else:
        monkeypatch.setenv("QRITZ_" + option[2:].upper(), value)
    code, out, err = run_main(args)
    assert code == 1
    assert option in err
    assert out == ""


def test_study_unknown_builtin_exits_1(run_main):
    code, _, err = run_main(["study", "--builtin", "nonsense"])
    assert code == 1
    assert "unknown builtin" in err


def _code_and_err(run_main, capsys, args):
    """Exit code and stderr of ``run_main``, also when argparse exits."""
    try:
        code, _, err = run_main(args)
    except SystemExit as exc:
        code, err = exc.code, capsys.readouterr().err
    return code, err


def test_malformed_env_fallback_is_read_only_by_its_subcommand(monkeypatch, run_main, capsys):
    monkeypatch.setenv("QRITZ_SEED", "x")
    assert _code_and_err(run_main, capsys, ["example31"])[0] == 0
    code, err = _code_and_err(run_main, capsys, ["study", "--builtin", "example31"])
    assert code == 1
    assert "argument --seed: invalid int value: 'x'" in err
    code, err = _code_and_err(
        run_main, capsys, ["study", "--builtin", "example31", "--eps-list", "1e-6", "--seed", "4"]
    )
    assert code == 0, err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize(
    "command, option, value",
    [
        ("solve", "--count", "-1"),
        ("study", "--dim", "0"),
        ("study", "--dim", "4"),
        ("study", "--seed", "-1"),
        ("study", "--seed", str(2**96)),
        ("study", "--eps-list", "nan"),
        ("study", "--eps-list", "1e-3,-1e-3"),
        ("solve", "--target", "nan"),
        ("solve", "--target", "inf"),
        ("project", "--target", "nan"),
        ("study", "--target", "1e400"),
    ],
)
def test_out_of_range_option_is_a_usage_error(
    builtin_files, monkeypatch, run_main, capsys, source, command, option, value
):
    args = [command, builtin_files["M"], builtin_files["D"], builtin_files["K"]]
    if command == "study":
        args += ["--out", "o.csv"]
    if command == "project":
        args += ["--subspace", builtin_files["Q"]]
    if source == "flag":
        args.append(f"{option}={value}")
    else:
        monkeypatch.setenv("QRITZ_" + option[2:].upper().replace("-", "_"), value)
    code, err = _code_and_err(run_main, capsys, args)
    assert code == 1
    assert option in err


def test_project_basis_orthogonal_to_reference_reports_infinite_bounds(tmp_path, run_main):
    mats = {
        "M": np.diag([1.0, 2.0, 3.0]),
        "D": np.diag([0.5, 0.1, 0.2]),
        "K": np.diag([4.0, 1.0, 9.0]),
        "Q": np.eye(3)[:, :2],
    }
    for name, mat in mats.items():
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    code, out, err = run_main(
        ["project", "M.mtx", "D.mtx", "K.mtx", "--subspace", "Q.mtx", "--target", "1.7j", "--refined"]
    )
    assert code == 0, err
    assert "sin_theta1         = 1.0000000000000000e+00" in out
    assert "ritz vector bound  = inf" in out
    assert "refined vec bound  = inf" in out


def test_project_on_a_graded_mass_reports_the_ritz_pair(tmp_path, run_main):
    # The projected mass is about 1e-6 ||M||.  At cond(M) = 1e8 the full
    # reference pair is not admitted (``sep full`` reads n/a), so only the
    # Ritz lines are checked.
    p, Q = graded_projection(0)
    for name, mat in (("M", p.M), ("D", p.D), ("K", p.K), ("Q", Q)):
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    code, out, err = run_main(
        ["project", "M.mtx", "D.mtx", "K.mtx", "--subspace", "Q.mtx", "--target", "0.5", "--refined"]
    )
    assert code == 0, err
    fields = {k.strip(): v for k, v in (l.split("=", 1) for l in out.splitlines() if "=" in l)}
    assert np.isfinite(complex(fields["ritz value"].replace(" ", "")))
    for name in ("ritz angle", "ritz residual", "sep projected", "elsner bound"):
        assert np.isfinite(float(fields[name]))


def test_project_basis_with_wrong_row_count_is_a_dimension_mismatch(tmp_path, run_main):
    mats = {
        "M": np.diag([1.0, 2.0, 3.0]),
        "D": np.diag([0.5, 0.1, 0.2]),
        "K": np.diag([4.0, 1.0, 9.0]),
        "Q": np.eye(2)[:, :1],
    }
    for name, mat in mats.items():
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    code, out, err = run_main(["project", "M.mtx", "D.mtx", "K.mtx", "--subspace", "Q.mtx"])
    assert code == 2
    assert out == ""
    assert "DimensionMismatch: basis has 2 rows but the pencil has dimension 3" in err


def test_project_orthonormalize_zero_basis_reports_rank_zero(tmp_path, run_main):
    mats = {"M": np.eye(2), "D": np.diag([0.5, 0.1]), "K": np.diag([4.0, 1.0]), "Q": np.zeros((2, 1))}
    for name, mat in mats.items():
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    code, out, err = run_main(
        ["project", "M.mtx", "D.mtx", "K.mtx", "--subspace", "Q.mtx", "--orthonormalize"]
    )
    assert code == 2
    assert out == ""
    assert "RankDeficient: numerical rank 0 < 1" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n2 1 3.0\n1 1 5.0\n",
            ":4: skew-symmetric storage holds no diagonal entry",
        ),
        (
            "%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n1 1 1.0 2.0\n2 1 3.0 1.0\n",
            ":3: hermitian storage needs a real diagonal entry",
        ),
        (
            "%%MatrixMarket matrix array complex hermitian\n2 2\n1.0 0.0\n3.0 1.0\n1.0 2.0\n",
            ":5: hermitian storage needs a real diagonal entry",
        ),
    ],
    ids=["skew_coordinate", "hermitian_coordinate", "hermitian_array"],
)
def test_diagonal_storage_fault_exits_3(tmp_path, run_main, text, message):
    (tmp_path / "bad.mtx").write_text(text)
    code, out, err = run_main(["solve", "bad.mtx", "bad.mtx", "bad.mtx"])
    assert code == 3
    assert out == ""
    assert message in err


def test_project_large_problem_skips_reference(tmp_path, run_main):
    # Above the full-solve limit the report carries projection-level
    # quantities only.
    g = rng(31)
    p = random_pencil(g, 60)
    for name, mat in (("M", p.M), ("D", p.D), ("K", p.K)):
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    write_matrix_market(tmp_path / "Q.mtx", orthonormalize(cnormal(g, 60, 3)))
    code, out, err = run_main(
        ["project", str(tmp_path / "M.mtx"), str(tmp_path / "D.mtx"),
         str(tmp_path / "K.mtx"), "--subspace", str(tmp_path / "Q.mtx"),
         "--target", "0.5", "--refined"]
    )
    assert code == 0, err
    assert "(no reference)" in out
    assert "sigma_min" in out
