"""Command-line surface.

Subcommands:
    solve      dense solve, print the pairs nearest a target
    project    project onto a basis file, print Ritz/refined diagnostics
    study      perturbation sweep, verdict lines + CSV
    example31  golden checks of the built-in showcase problem

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure.
Options fall back to ``QRITZ_<NAME>`` environment variables (flags beat the
environment, the environment beats built-in defaults).  A fallback is kept
as text and converted by the option's own type only when its subcommand
runs, so a malformed or out-of-range value, from a flag or from
``QRITZ_<NAME>``, is a usage error (exit 1) that names the option.  All
output is deterministic for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import sys

from . import builtin, mmio, study
from .errors import IoFailure, NotOrthonormal, QritzError
from .kernels import orthonormalize, require_orthonormal
from .pencil import QuadraticPencil
from .projection import project, ritz_pairs
from .refined import refined_ritz
from .solver import select_eigenpair, solve_full
from .study import format_float
from .theory import full_diagnostics, reference

#: Reference eigenpairs are computed by full solve only up to this dimension.
FULL_SOLVE_LIMIT = 50

USAGE_EXIT = 1
NUMERICAL_EXIT = 2
IO_EXIT = 3

DEFAULT_EPS_LIST = "1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8,1e-9,1e-10,1e-11,1e-12"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for
    # numerical failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _env(name: str, fallback):
    return os.environ.get(f"QRITZ_{name}", fallback)


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_eps_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a float list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("epsilon list is empty")
    for v in values:
        if not (math.isfinite(v) and v >= 0.0):
            raise argparse.ArgumentTypeError(f"epsilon must be finite and >= 0, got {v!r}")
    return values


def _int_in(low: int, bits: int | None = None):
    """An argparse type: an int ``k >= low``, and ``k < 2**bits`` when ``bits`` is given."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
        if value < low or (bits is not None and value >= 2**bits):
            span = f">= {low}" if bits is None else f"in [{low}, 2**{bits})"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    return parse


#: A study's row key ``(seed << 32) + i`` must fit the 128-bit Philox key.
SEED_BITS = 96


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
        require_orthonormal(Q)
    except NotOrthonormal as exc:
        if not args.orthonormalize:
            raise NotOrthonormal(
                f"subspace file is not orthonormal ({exc}); "
                "rerun with --orthonormalize to fix it in place"
            ) from exc
        Q = orthonormalize(Q)
    if p.n <= FULL_SOLVE_LIMIT:
        ep = solve_full(p, args.target, 1)[0]
        rep = full_diagnostics(reference(p, ep.value, ep.vector), Q)
        print(f"project: n={p.n} m={Q.shape[1]} target={fmt_complex(args.target)}")
        print(f"reference lambda   = {fmt_complex(rep.ref_value)}")
        print(f"sin_theta1         = {format_float(rep.sin_theta1)}")
        print(f"ritz value         = {_opt_complex(rep.ritz_value)}")
        print(f"ritz value error   = {_opt_float(rep.ritz_value_error)}")
        print(f"ritz angle         = {_opt_float(rep.ritz_angle)}")
        print(f"ritz residual      = {_opt_float(rep.ritz_residual)}")
        print(f"clustered          = {rep.clustered}")
        if args.refined:
            print(f"refined angle      = {_opt_float(rep.refined_angle)}")
            print(f"refined residual   = {_opt_float(rep.refined_residual)}")
        print(f"sep projected      = {_opt_float(rep.sep_projected)}")
        print(f"sep full           = {_opt_float(rep.sep_full)}")
        print(f"elsner bound       = {_opt_float(rep.elsner_bound)}")
        print(f"ritz vector bound  = {_opt_float(rep.ritz_vector_bound)}")
        print(f"refined vec bound  = {_opt_float(rep.refined_vector_bound)}")
        return 0
    # Too large for a trustworthy reference pair: report projection-level
    # quantities only.
    pp = project(p, Q)
    sel = select_eigenpair(ritz_pairs(pp, p), args.target)
    print(f"project: n={p.n} m={Q.shape[1]} target={fmt_complex(args.target)} (no reference)")
    print(f"ritz value         = {fmt_complex(sel.value)}")
    print(f"ritz residual      = {format_float(sel.residual_norm)}")
    print(f"clustered          = {sel.clustered}")
    if args.refined:
        rr = refined_ritz(p, Q, sel.value)
        print(f"refined residual   = {format_float(rr.residual_norm)}")
        print(f"sigma_min          = {format_float(rr.sigma_min)}")
    return 0


def _opt_float(x) -> str:
    return "n/a" if x is None else format_float(float(x))


def _opt_complex(z) -> str:
    return "n/a" if z is None else fmt_complex(z)


def _cmd_study(args) -> int:
    if args.builtin is not None:
        if args.M or args.D or args.K:
            print("study: give --builtin or three matrix files, not both", file=sys.stderr)
            return USAGE_EXIT
        if args.builtin != builtin.BUILTIN_NAME:
            print(f"study: unknown builtin {args.builtin!r}", file=sys.stderr)
            return USAGE_EXIT
        case = study.builtin_case()
        label = args.builtin
    else:
        if not (args.M and args.D and args.K):
            print("study: need either --builtin or three matrix files", file=sys.stderr)
            return USAGE_EXIT
        p = _load_pencil(args.M, args.D, args.K)
        if args.dim > p.n:
            print(f"study: --dim {args.dim} exceeds the pencil size n={p.n}", file=sys.stderr)
            return USAGE_EXIT
        case = study.case_from_pencil(p, args.target, args.dim)
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

    ps = sub.add_parser("solve", help="full dense solve of a quadratic eigenproblem")
    ps.add_argument("M", help="Matrix Market file for the mass matrix")
    ps.add_argument("D", help="Matrix Market file for the damping matrix")
    ps.add_argument("K", help="Matrix Market file for the stiffness matrix")
    ps.add_argument("--target", type=_parse_complex, default=_env("TARGET", "0"))
    ps.add_argument("--count", type=_int_in(1), default=_env("COUNT", "1"))
    ps.set_defaults(fn=_cmd_solve)

    pp = sub.add_parser("project", help="Rayleigh-Ritz projection diagnostics")
    pp.add_argument("M")
    pp.add_argument("D")
    pp.add_argument("K")
    pp.add_argument("--subspace", required=True, help="Matrix Market file for the basis")
    pp.add_argument("--target", type=_parse_complex, default=_env("TARGET", "0"))
    pp.add_argument("--refined", action="store_true", help="include refined extraction")
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
    pt.add_argument("--eps-list", type=_parse_eps_list, default=_env("EPS_LIST", DEFAULT_EPS_LIST))
    pt.add_argument("--seed", type=_int_in(0, SEED_BITS), default=_env("SEED", "1"))
    pt.add_argument("--out", default=_env("OUT", "study.csv"))
    pt.add_argument("--target", type=_parse_complex, default=_env("TARGET", "0"))
    pt.add_argument("--dim", type=_int_in(1), default=_env("DIM", "2"), help="subspace dimension")
    pt.set_defaults(fn=_cmd_study)

    pe = sub.add_parser("example31", help="golden checks of the built-in problem")
    pe.set_defaults(fn=_cmd_example31)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (IoFailure, OSError) as exc:
        print(f"qritz: i/o failure: {exc}", file=sys.stderr)
        return IO_EXIT
    except QritzError as exc:
        print(f"qritz: {type(exc).__name__}: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except ValueError as exc:
        print(f"qritz: invalid input: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
