"""Command-line surface.

Subcommands:
    solve      dense solve, print the pairs nearest a target
    project    project onto a basis file, print Ritz/refined diagnostics
    study      perturbation sweep, verdict lines + CSV
    example31  golden checks of the built-in showcase problem

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure.
Options fall back to ``QRITZ_<NAME>`` environment variables (flags beat the
environment, the environment beats built-in defaults).  A fallback is kept
as text and converted only when its subcommand runs, by the library's
admission of that input, so a malformed or out-of-range value, from a flag
or from ``QRITZ_<NAME>``, is a usage error (exit 1) that names the option.  Every
usage error prints its parser's usage line and ``qritz <command>: error: ...``
to stderr, and ``main`` returns the exit code: only ``--help`` exits.  All
output is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import builtin, mmio, study
from .errors import IoFailure, NotOrthonormal, QritzError
from .kernels import as_integer, as_scalar, orthonormalize, require_orthonormal
from .pencil import QuadraticPencil
from .solver import solve_full
from .study import format_float
from .subspace import as_epsilon
from .theory import full_diagnostics, reference

USAGE_EXIT = 1
NUMERICAL_EXIT = 2
IO_EXIT = 3

DEFAULT_EPS_LIST = "1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8,1e-9,1e-10,1e-11,1e-12"


class _UsageError(Exception):
    """A usage error, formatted with the usage line of the parser that found it."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for
    # numerical failures, and main returns its exit code instead of exiting.
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")


def _env(name: str, fallback):
    return os.environ.get(f"QRITZ_{name}", fallback)


def _typed(kind, admit, *args):
    """An argparse type: the text read as ``kind``, then admitted by ``admit(value, *args)``.

    ``complex`` text may hold spaces; ``float`` reads a comma-separated list.
    A text ``kind`` cannot read keeps argparse's ``invalid int value: 'x'``;
    the admission's ``ValueError`` is the usage error as it stands.
    """

    def convert(text: str):
        if kind is complex:
            value = complex(text.replace(" ", ""))
        elif kind is float:
            value = [float(tok) for tok in text.split(",") if tok.strip()]
        else:
            value = kind(text)
        try:
            return admit(value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    convert.__name__ = kind.__name__
    return convert


def _eps_list(values: list[float]) -> list[float]:
    if not values:
        raise ValueError("epsilon list is empty")
    return [as_epsilon(v) for v in values]


def fmt_complex(z: complex) -> str:
    return f"{z.real:.16e}{z.imag:+.16e}j"


def _load_pencil(m_path, d_path, k_path) -> QuadraticPencil:
    return QuadraticPencil(
        mmio.read_matrix_market(m_path),
        mmio.read_matrix_market(d_path),
        mmio.read_matrix_market(k_path),
    )


def _cmd_solve(args) -> int:
    p = _load_pencil(args.M, args.D, args.K)
    pairs = solve_full(p, args.target, args.count)
    print(
        f"solve: n={p.n} eigenvalues={2 * p.n} "
        f"target={fmt_complex(args.target)} count={len(pairs)}"
    )
    for rank, ep in enumerate(pairs, start=1):
        print(f"pair {rank}: lambda={fmt_complex(ep.value)} residual={format_float(ep.residual_norm)}")
        for k, entry in enumerate(ep.vector):
            print(f"  x[{k}] = {fmt_complex(entry)}")
    return 0


def _cmd_project(args) -> int:
    p = _load_pencil(args.M, args.D, args.K)
    Q = mmio.read_matrix_market(args.subspace)
    try:
        require_orthonormal(Q, p.n)
    except NotOrthonormal as exc:
        if not args.orthonormalize:
            raise NotOrthonormal(
                f"subspace file is not orthonormal ({exc}); "
                "rerun with --orthonormalize to fix it in place"
            ) from exc
        Q = orthonormalize(Q)
    ep = solve_full(p, args.target, 1)[0]
    rep = full_diagnostics(reference(p, ep.value, ep.vector), Q)
    print(f"project: n={p.n} m={Q.shape[1]} target={fmt_complex(args.target)}")
    print(f"reference lambda   = {fmt_complex(rep.ref_value)}")
    print(f"sin_theta1         = {format_float(rep.sin_theta1)}")
    print(f"ritz value         = {_opt(rep.ritz_value, fmt_complex)}")
    print(f"ritz value error   = {_opt(rep.ritz_value_error)}")
    print(f"ritz angle         = {_opt(rep.ritz_angle)}")
    print(f"ritz residual      = {_opt(rep.ritz_residual)}")
    print(f"clustered          = {_opt(rep.clustered, str)}")
    print(f"refined angle      = {_opt(rep.refined_angle)}")
    print(f"refined residual   = {_opt(rep.refined_residual)}")
    print(f"sep projected      = {_opt(rep.sep_projected)}")
    print(f"sep full           = {_opt(rep.sep_full)}")
    print(f"elsner bound       = {_opt(rep.elsner_bound)}")
    print(f"ritz vector bound  = {_opt(rep.ritz_vector_bound)}")
    print(f"refined vec bound  = {_opt(rep.refined_vector_bound)}")
    return 0


def _opt(value, fmt=format_float) -> str:
    """``fmt(value)``, or ``n/a`` for a field the report could not compute."""
    return "n/a" if value is None else fmt(value)


def _cmd_study(args) -> int:
    error = args.parser.error
    if args.builtin is not None:
        if args.M or args.D or args.K:
            error("give --builtin or three matrix files, not both")
        if args.builtin != builtin.BUILTIN_NAME:
            error(f"unknown builtin {args.builtin!r}")
        for option, value in (("--dim", args.dim), ("--target", args.target)):
            if value is not None:
                error(f"{option} applies to matrix files, not to --builtin")
        case = study.builtin_case()
        label = args.builtin
    else:
        if not (args.M and args.D and args.K):
            error("need either --builtin or three matrix files")
        dim = 2 if args.dim is None else args.dim
        target = 0j if args.target is None else args.target
        p = _load_pencil(args.M, args.D, args.K)
        try:
            as_integer(dim, "dim", 1, p.n + 1)
        except ValueError as exc:
            error(f"argument --dim: {exc}")
        case = study.case_from_pencil(p, target, dim)
        label = "files"
    rows, verdicts = study.run_study(case, args.eps_list, args.seed)
    print(
        f"study: case={label} reference={fmt_complex(case.ref_value)} "
        f"m={case.companions.shape[1] + 1} seed={args.seed}"
    )
    for row, v in zip(rows, verdicts):
        print(
            f"eps={format_float(row.epsilon)} sin_theta={format_float(row.sin_theta)} "
            f"ritz_angle={format_float(row.ritz_angle)} "
            f"refined_angle={format_float(row.refined_angle)} {v}"
        )
    study.write_study_csv(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_example31(args) -> int:
    checks = builtin.golden_checks()
    failures = 0
    for ck in checks:
        status = "PASS" if ck.passed else "FAIL"
        failures += 0 if ck.passed else 1
        print(
            f"{status} {ck.name}: measured={format_float(ck.measured)} "
            f"threshold={format_float(ck.threshold)}"
        )
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return NUMERICAL_EXIT
    print(f"all {len(checks)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qritz", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    target = _typed(complex, as_scalar, "target")
    count = _typed(int, as_integer, "count", 1, math.inf)
    dim = _typed(int, as_integer, "dim", 1, math.inf)
    seed = _typed(int, as_integer, "seed", 0, 2**study.SEED_BITS)
    eps_list = _typed(float, _eps_list)

    ps = sub.add_parser("solve", help="full dense solve of a quadratic eigenproblem")
    ps.add_argument("M", help="Matrix Market file for the mass matrix")
    ps.add_argument("D", help="Matrix Market file for the damping matrix")
    ps.add_argument("K", help="Matrix Market file for the stiffness matrix")
    ps.add_argument("--target", type=target, default=_env("TARGET", "0"))
    ps.add_argument("--count", type=count, default=_env("COUNT", "1"))
    ps.set_defaults(fn=_cmd_solve)

    pp = sub.add_parser("project", help="Rayleigh-Ritz projection diagnostics")
    pp.add_argument("M")
    pp.add_argument("D")
    pp.add_argument("K")
    pp.add_argument("--subspace", required=True, help="Matrix Market file for the basis")
    pp.add_argument("--target", type=target, default=_env("TARGET", "0"))
    pp.add_argument(
        "--orthonormalize",
        action="store_true",
        help="orthonormalize the basis file instead of rejecting it",
    )
    pp.set_defaults(fn=_cmd_project)

    pt = sub.add_parser("study", help="perturbation sweep with per-epsilon verdicts")
    pt.add_argument("M", nargs="?")
    pt.add_argument("D", nargs="?")
    pt.add_argument("K", nargs="?")
    pt.add_argument("--builtin", default=_env("BUILTIN", None), help="named built-in problem")
    pt.add_argument("--eps-list", type=eps_list, default=_env("EPS_LIST", DEFAULT_EPS_LIST))
    pt.add_argument("--seed", type=seed, default=_env("SEED", "1"))
    pt.add_argument("--out", default=_env("OUT", "study.csv"))
    # No default: a built-in fixes its reference and basis, so _cmd_study
    # refuses either with --builtin; matrix files take 0 and 2.
    pt.add_argument("--target", type=target, default=_env("TARGET", None))
    pt.add_argument("--dim", type=dim, default=_env("DIM", None), help="subspace dimension")
    pt.set_defaults(fn=_cmd_study, parser=pt)

    pe = sub.add_parser("example31", help="golden checks of the built-in problem")
    pe.set_defaults(fn=_cmd_example31)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(exc, end="", file=sys.stderr)
        return USAGE_EXIT
    except (IoFailure, OSError) as exc:
        print(f"qritz: i/o failure: {exc}", file=sys.stderr)
        return IO_EXIT
    except QritzError as exc:
        print(f"qritz: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except ValueError as exc:
        print(f"qritz: invalid input: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT

