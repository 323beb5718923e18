import dataclasses
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env, cnormal, graded_projection, random_pencil, rng, run_cli
from qritz import builtin, cli, mmio, solver
from qritz.builtin import example31_basis, example31_pencil
from qritz.errors import IndefiniteMass
from qritz.kernels import orthonormalize, solve_linear
from qritz.mmio import write_matrix_market
from qritz.pencil import QuadraticPencil
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


def test_solve_prints_the_same_first_pair_at_every_count(tmp_path, run_main):
    # One route at every count: pair 1, its residual digits and its vector
    # lines, does not depend on how many pairs follow it.
    p = random_pencil(rng(9402), 40)
    for name, mat in (("M", p.M), ("D", p.D), ("K", p.K)):
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    first = set()
    for count in (1, 3, 5, 12, 13, 20):
        code, stdout, err = run_main(
            ["solve", "M.mtx", "D.mtx", "K.mtx", "--target", "0.3+0.2j", "--count", str(count)]
        )
        assert code == 0, err
        out = stdout.splitlines()
        assert sum(line.startswith("pair ") for line in out) == count
        first.add(tuple(out[1 : 2 + p.n]))
    assert len(first) == 1


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


@pytest.mark.parametrize(
    "args", [["solve", "--bogus-flag"], ["study", "--builtin", "nonsense"]], ids=["argparse", "study"]
)
def test_usage_error_is_returned_in_one_format(run_main, args):
    code, out, err = run_main(args)
    assert code == 1
    assert err.startswith(f"usage: qritz {args[0]} ")
    assert f"\nqritz {args[0]}: error: " in err
    assert out == ""


def test_project_reports_degenerate_projection(builtin_files, run_main):
    code, out, _ = run_main(
        ["project", builtin_files["M"], builtin_files["D"], builtin_files["K"],
         "--subspace", builtin_files["Q"], "--target", "1"]
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


@pytest.mark.parametrize(
    "args",
    [["example31"], ["study", "--builtin", "example31", "--seed", "1", "--out", "out.csv"]],
    ids=["example31", "study"],
)
def test_builtin_output_does_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch, args):
    # The README promises that the built-in example's bytes are unaffected
    # by the BLAS thread count: run it at one thread and at two and compare.
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        r = run_cli(args, cwd=cwd)
        assert r.returncode == 0, r.stderr
        csv = cwd / "out.csv"
        outputs.append((r.stdout, csv.read_bytes() if csv.exists() else None))
    assert outputs[0] == outputs[1]


def _block_companion(p):
    """The companion matrix assembled from separate blocks by ``np.block``."""
    n = p.n
    top = solve_linear(p.M, np.hstack([-p.D, -p.K]), certified=p.hermitian_pd)
    return np.block([[top], [np.eye(n), np.zeros((n, n))]])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_output_on_the_benchmark_files_matches_the_scanner(tmp_path, monkeypatch, seed):
    # The benchmark's files workload: `qritz solve` on n = 160 Matrix Market
    # files prints the same bytes with the streamed reader and the in-place
    # companion as with the line scanner and the block-assembled companion.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    w = workloads.make("files", seed, "full", tmp_path)
    w.setup()
    got = [w.op(i) for i in range(2)]
    monkeypatch.setattr(mmio, "_bulk_array", lambda *args: None)
    monkeypatch.setattr(solver, "companion_matrix", _block_companion)
    assert [w.op(i) for i in range(2)] == got
    assert all(w.check(i, out) == [] for i, out in enumerate(got))


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


#: ``(command, option, value, message)``: each message is the library admission's own.
OUT_OF_RANGE = [
    ("solve", "--count", "-1", "count must be an integer in [1,"),
    ("study", "--dim", "0", "dim must be an integer in [1,"),
    ("study", "--dim", "4", "dim must be an integer in [1, 4)"),
    ("study", "--seed", "-1", "seed must be an integer in [0,"),
    ("study", "--seed", str(2**96), "seed must be an integer in [0,"),
    ("study", "--eps-list", "nan", "epsilon must be finite and >= 0"),
    ("study", "--eps-list", "1e-3,-1e-3", "epsilon must be finite and >= 0"),
    ("solve", "--target", "nan", "target must be finite"),
    ("solve", "--target", "inf", "target must be finite"),
    ("project", "--target", "nan", "target must be finite"),
    ("study", "--target", "1e400", "target must be finite"),
]


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize(
    "command, option, value, message", OUT_OF_RANGE, ids=["-".join(row[:3]) for row in OUT_OF_RANGE]
)
def test_out_of_range_option_is_a_usage_error(
    builtin_files, monkeypatch, run_main, capsys, source, command, option, value, message
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
    assert message in err


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
        ["project", "M.mtx", "D.mtx", "K.mtx", "--subspace", "Q.mtx", "--target", "1.7j"]
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
        ["project", "M.mtx", "D.mtx", "K.mtx", "--subspace", "Q.mtx", "--target", "0.5"]
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
    }
    for name, mat in mats.items():
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    # The height is checked first: no orthonormalization makes a basis of
    # the wrong height fit the pencil.
    for Q, extra in ((np.eye(2)[:, :1], []), ([[2.0], [0.0]], []), ([[2.0], [0.0]], ["--orthonormalize"])):
        write_matrix_market(tmp_path / "Q.mtx", np.array(Q))
        code, out, err = run_main(["project", "M.mtx", "D.mtx", "K.mtx", "--subspace", "Q.mtx", *extra])
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


def _write_project_files(tmp_path, p, Q):
    for name, mat in (("M", p.M), ("D", p.D), ("K", p.K), ("Q", Q)):
        write_matrix_market(tmp_path / f"{name}.mtx", mat)
    return ["project", "M.mtx", "D.mtx", "K.mtx", "--subspace", "Q.mtx", "--target", "0.5"]


#: The labels of the one ``qritz project`` report, in print order.
PROJECT_LINES = [
    "reference lambda", "sin_theta1", "ritz value", "ritz value error", "ritz angle",
    "ritz residual", "clustered", "refined angle", "refined residual", "sep projected",
    "sep full", "elsner bound", "ritz vector bound", "refined vec bound",
]


@pytest.mark.parametrize("n", [3, 60, 160])
def test_project_prints_one_report_at_every_size(tmp_path, run_main, n):
    g = rng(31)
    p = random_pencil(g, n)
    code, out, err = run_main(_write_project_files(tmp_path, p, orthonormalize(cnormal(g, n, 3))))
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == f"project: n={n} m=3 target={cli.fmt_complex(0.5)}"
    fields = {k.strip(): v.strip() for k, v in (l.split("=", 1) for l in lines[1:])}
    assert list(fields) == PROJECT_LINES
    assert "(no reference)" not in out
    # The reference pair is admitted at every size, so every separation and
    # bound is a number.
    ref_value = complex(fields["reference lambda"].replace(" ", ""))
    assert ref_value == solve_full(p, 0.5, 1)[0].value
    assert float(fields["sep full"]) > 0
    for name in ("elsner bound", "ritz vector bound", "refined vec bound"):
        assert np.isfinite(float(fields[name]))


@pytest.mark.parametrize("n", [40, 60])
def test_project_refuses_a_singular_mass_at_every_size(tmp_path, run_main, n):
    g = rng(31)
    p = random_pencil(g, n)
    M = p.M.copy()
    M[0, :] = 0.0
    M[:, 0] = 0.0
    p = QuadraticPencil(M, p.D, p.K)
    argv = _write_project_files(tmp_path, p, orthonormalize(cnormal(g, n, 3)))
    with pytest.warns(IndefiniteMass):
        code, out, err = run_main(argv)
    assert code == 2
    assert out == ""
    assert "Singular" in err


def test_project_refined_option_is_a_usage_error(builtin_files, run_main):
    code, out, err = run_main(
        ["project", builtin_files["M"], builtin_files["D"], builtin_files["K"],
         "--subspace", builtin_files["Q"], "--refined"]
    )
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --refined" in err


def test_project_prints_n_a_for_every_field_of_a_failed_ritz_stage(tmp_path, run_main):
    # Q^H M Q = 0: the projected pencil has no finite Ritz value, so every
    # field from the Ritz value on is unavailable and reads n/a.
    Q = np.zeros((4, 1))
    Q[:2, 0] = 1.0 / np.sqrt(2.0)
    p = QuadraticPencil(np.diag([1.0, -1.0, 1.0, 2.0]), 0.3 * np.eye(4), np.diag([2.0, 3.0, 5.0, 7.0]))
    argv = _write_project_files(tmp_path, p, Q)
    argv[argv.index("--target") + 1] = "1"
    with pytest.warns(IndefiniteMass):
        code, out, err = run_main(argv)
    assert code == 0, err
    fields = {k.strip(): v.strip() for k, v in (l.split("=", 1) for l in out.splitlines()[1:])}
    assert list(fields) == PROJECT_LINES
    unavailable = PROJECT_LINES[PROJECT_LINES.index("ritz value") :]
    assert {name: fields[name] for name in unavailable} == dict.fromkeys(unavailable, "n/a")


def test_study_with_two_matrix_files_is_a_usage_error(builtin_files, run_main):
    code, out, err = run_main(["study", builtin_files["M"], builtin_files["D"]])
    assert code == 1
    assert out == ""
    assert "qritz study: error: need either --builtin or three matrix files" in err


def test_study_empty_epsilon_list_is_a_usage_error(run_main):
    code, out, err = run_main(["study", "--builtin", "example31", "--eps-list", ","])
    assert code == 1
    assert out == ""
    assert "argument --eps-list: epsilon list is empty" in err


def test_project_orthonormalize_wide_basis_is_invalid_input(tmp_path, run_main):
    p = QuadraticPencil(np.eye(4), np.diag([0.5, 0.1, 0.2, 0.3]), np.diag([4.0, 1.0, 9.0, 2.0]))
    argv = _write_project_files(tmp_path, p, cnormal(rng(9403), 4, 5))
    code, out, err = run_main([*argv, "--orthonormalize"])
    assert code == 2
    assert out == ""
    assert err == "qritz: invalid input: cannot orthonormalize 5 columns in dimension 4\n"


def test_example31_with_a_failing_check_exits_2(monkeypatch, run_main):
    checks = builtin.golden_checks()
    checks[0] = dataclasses.replace(checks[0], passed=False)
    monkeypatch.setattr(builtin, "golden_checks", lambda: checks)
    code, out, _ = run_main(["example31"])
    assert code == 2
    lines = out.splitlines()
    assert lines[0].startswith(f"FAIL {checks[0].name}: ")
    assert sum(line.startswith("PASS ") for line in lines) == 4
    assert lines[-1] == "1 of 5 checks failed"
