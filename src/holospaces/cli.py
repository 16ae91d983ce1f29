"""Command-line surface: kernels, norm tables, verification suites, sweeps.

Every emitted payload is self-describing (parameters in a leading comment
line for CSV, a ``meta`` object for JSON) and byte-identical across runs of
the same invocation.  Exit codes: 0 success, 1 verification failure, 2 usage
or domain error.

numpy is imported only by the quadrature suites of ``verify``
(norms, orthogonality, sobolev), so every other command starts on the
standard library alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import asymptotics, bargmann, bergman, hypergeo, spaces
from . import multiindex as mi
from .errors import DivergenceError, DomainError, NonconvergenceError
from .taylor import TaylorSeries, as_point, point_inner

_SOBOLEV_SEED = 20260809

NORM_TOL = 1e-8
ORTHO_TOL = 1e-10
SOBOLEV_TOL = 1e-8
IDENTITY_TOL = 1e-12


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(meta: dict, columns: list, rows: list, fmt: str, output) -> None:
    if fmt == "json":
        text = json.dumps({"meta": meta, "rows": rows}, sort_keys=True) + "\n"
    else:
        lines = ["# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta))]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_t(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"--t expects 're' or 're,im', got {text!r}")


def _build_space(args):
    if args.space == "ball":
        if args.alpha is None:
            raise DomainError("ball space requires --alpha")
        return bergman.BergmanDirichletSpace(
            n=args.n, alpha=args.alpha, m=args.m, radius=args.radius
        )
    if args.nu is None:
        raise DomainError("fock space requires --nu")
    return bargmann.BargmannDirichletSpace(n=args.n, nu=args.nu, m=args.m)


def _space_meta(args) -> dict:
    meta = {"space": args.space, "n": args.n, "m": args.m}
    if args.space == "ball":
        meta["alpha"] = args.alpha
        meta["radius"] = args.radius
    else:
        meta["nu"] = args.nu
    return meta


def _resolve_inner(args) -> complex:
    has_t = args.t is not None
    has_zw = args.z is not None or args.w is not None
    if has_t == has_zw:
        raise ValueError("provide either --t or both --z and --w")
    if has_t:
        return _parse_t(args.t)
    if args.z is None or args.w is None:
        raise ValueError("--z and --w must be given together")
    return point_inner(as_point(args.z.split(","), args.n), as_point(args.w.split(","), args.n))


def cmd_kernel(args) -> int:
    # checked whatever the method and m, though only a pFq series reads them
    hypergeo.check_budget(args.tol, args.max_terms)
    space = _build_space(args)
    t = _resolve_inner(args)
    if args.method == "closed":
        value, detail = spaces.kernel_closed_detail(space, t, args.tol, args.max_terms)
        terms_used, estimate = detail.terms_used, detail.error_estimate
    else:
        value, terms_used, estimate = spaces.kernel_series_with_tail(space, t, args.max_degree)
    meta = _space_meta(args)
    meta.update(
        command="kernel",
        method=args.method,
        t_re=t.real,
        t_im=t.imag,
        tol=args.tol,
        max_terms=args.max_terms,
        max_degree=args.max_degree,
    )
    rows = [
        {
            "re": value.real,
            "im": value.imag,
            "terms_used": terms_used,
            "error_estimate": estimate,
        }
    ]
    _emit(meta, ["re", "im", "terms_used", "error_estimate"], rows, args.format, args.output)
    return 0


def cmd_norms(args) -> int:
    space = _build_space(args)
    rows = []
    for k in range(args.max_total_degree + 1):
        for p in mi.enumerate_indices(args.n, k):
            norm_sq = space.monomial_norm_sq(p)
            coeff = spaces.normalized_norm_sq(space, p)
            rows.append({"p": " ".join(map(str, p)), "coeff": coeff, "norm_sq": norm_sq})
    meta = _space_meta(args)
    meta.update(command="norms", max_total_degree=args.max_total_degree)
    _emit(meta, ["p", "coeff", "norm_sq"], rows, args.format, args.output)
    return 0


def _verify_space_grid(args):
    """Parameter sets swept by the verification suites."""
    grid = []
    if args.space in ("ball", "both"):
        alphas = [args.alpha] if args.alpha is not None else [0.0, 0.5, 2.0]
        orders = [args.m] if args.m is not None else [0, 1, 2, 3]
        for alpha in alphas:
            for m in orders:
                grid.append(
                    bergman.BergmanDirichletSpace(n=args.n, alpha=alpha, m=m, radius=args.radius)
                )
    if args.space in ("fock", "both"):
        nus = [args.nu] if args.nu is not None else [1.0, 2.0]
        orders = [args.m] if args.m is not None else [0, 1, 2]
        for nu in nus:
            for m in orders:
                grid.append(bargmann.BargmannDirichletSpace(n=args.n, nu=nu, m=m))
    return grid


def _space_label(space) -> str:
    if isinstance(space, bergman.BergmanDirichletSpace):
        return f"ball n={space.n} alpha={space.alpha:g} m={space.m} R={space.radius:g}"
    return f"fock n={space.n} nu={space.nu:g} m={space.m}"


def _random_polynomial(rng, n: int, max_degree: int) -> TaylorSeries:
    coeffs = {}
    for k in range(max_degree + 1):
        for p in mi.enumerate_indices(n, k):
            coeffs[p] = complex(rng.standard_normal(), rng.standard_normal())
    return TaylorSeries(n, coeffs)


def _suite_norms(args):
    from . import quadrature

    cap = args.degree_cap
    cases = []
    for space in _verify_space_grid(args):
        grid = quadrature.default_grid(space, capacity=max(cap, 2))
        use_variant = args.nu_denominator_variant and isinstance(
            space, bargmann.BargmannDirichletSpace
        )
        for k in range(cap + 1):
            for p in mi.enumerate_indices(args.n, k):
                formula = (
                    bargmann.monomial_norm_sq_nu_denominator_variant(space, p) if use_variant else None
                )
                residual = quadrature.verify_monomial_norm(space, p, grid, formula=formula)
                cases.append((f"{_space_label(space)} p=({' '.join(map(str, p))})", residual))
    return cases, NORM_TOL


def _suite_orthogonality(args):
    from . import quadrature

    cap = min(args.degree_cap, 4)
    cases = []
    for space in _verify_space_grid(args):
        grid = quadrature.default_grid(space, capacity=max(cap, 2))
        indices = []
        for k in range(cap + 1):
            indices.extend(mi.enumerate_indices(args.n, k))
        for i, p in enumerate(indices):
            for q in indices[i + 1 :]:
                residual = quadrature.verify_orthogonality(space, p, q, grid)
                cases.append(
                    (
                        f"{_space_label(space)} p=({' '.join(map(str, p))})"
                        f" q=({' '.join(map(str, q))})",
                        residual,
                    )
                )
    return cases, ORTHO_TOL


def _suite_sobolev(args):
    import numpy as np

    from . import quadrature

    cap = args.degree_cap
    rng = np.random.default_rng(_SOBOLEV_SEED)
    cases = []
    for space in _verify_space_grid(args):
        grid = quadrature.default_grid(space, capacity=max(cap, 2))
        for trial in range(3):
            poly = _random_polynomial(rng, args.n, cap)
            residual = quadrature.verify_sobolev_norm(space, poly, grid)
            cases.append((f"{_space_label(space)} trial={trial}", residual))
    return cases, SOBOLEV_TOL


def _suite_identities(args):
    del args
    cases = []
    z_values = (-1.5, -0.5, 0.75, 2.0)
    for k in range(11):
        for z1 in z_values:
            for z2 in z_values:
                lhs = mi.falling_factorial(z1 + z2, k)
                residual = mi.snomial_identity_residual(z1, z2, k)
                cases.append(
                    (f"snomial z1={z1} z2={z2} k={k}", residual / max(1.0, abs(lhs)))
                )
    vectors = {
        1: ((0.4 + 0.9j,), (-0.7 + 0.2j,)),
        2: ((0.4 + 0.9j, -0.3 + 0.1j), (-0.7 + 0.2j, 0.5 - 0.6j)),
        3: ((0.4 + 0.9j, -0.3 + 0.1j, 0.2 + 0.2j), (-0.7 + 0.2j, 0.5 - 0.6j, -0.1 - 0.8j)),
    }
    for n, (z, w) in vectors.items():
        t = sum(zj * wj.conjugate() for zj, wj in zip(z, w))
        for k in range(11):
            scale = max(1.0, abs(t) ** k / math.factorial(k))
            cases.append(
                (f"power_sum n={n} k={k}", mi.power_sum_residual(z, w, k) / scale)
            )
    return cases, IDENTITY_TOL


_SUITES = {
    "norms": _suite_norms,
    "orthogonality": _suite_orthogonality,
    "sobolev": _suite_sobolev,
    "identities": _suite_identities,
}


def cmd_verify(args) -> int:
    cases, tolerance = _SUITES[args.suite](args)
    worst_case, worst_residual = max(cases, key=lambda item: item[1])
    passed = worst_residual <= tolerance
    meta = {
        "command": "verify",
        "suite": args.suite,
        "space": args.space,
        "n": args.n,
        "degree_cap": args.degree_cap,
        "cases": len(cases),
        "tolerance": tolerance,
    }
    if args.nu_denominator_variant:
        meta["nu_denominator_variant"] = True
    rows = [
        {
            "worst_case": worst_case,
            "residual": worst_residual,
            "tolerance": tolerance,
            "status": "pass" if passed else "fail",
        }
    ]
    _emit(meta, ["worst_case", "residual", "tolerance", "status"], rows, args.format, args.output)
    return 0 if passed else 1


def cmd_sweep(args) -> int:
    hypergeo.check_budget(args.tol, args.max_terms)
    radii = [float(r) for r in args.radii.split(",")]
    t = _parse_t(args.t)
    z = (t,) + (0j,) * (args.n - 1)
    w = (1.0 + 0j,) + (0j,) * (args.n - 1)
    records = asymptotics.convergence_sweep(
        args.nu, args.m, args.n, z, w, radii, tol=args.tol, max_terms=args.max_terms
    )
    rows = []
    previous = None
    for rec in records:
        ratio = previous / rec.abs_error if previous and rec.abs_error else ""
        rows.append(
            {
                "R": rec.radius,
                "Re(K_R)": rec.kernel_value.real,
                "Im(K_R)": rec.kernel_value.imag,
                "Re(K_inf)": rec.limit_value.real,
                "Im(K_inf)": rec.limit_value.imag,
                "abs_error": rec.abs_error,
                "error_ratio": ratio,
            }
        )
        previous = rec.abs_error
    meta = {
        "command": "sweep",
        "nu": args.nu,
        "m": args.m,
        "n": args.n,
        "t_re": t.real,
        "t_im": t.imag,
        "radii": args.radii,
    }
    columns = ["R", "Re(K_R)", "Im(K_R)", "Re(K_inf)", "Im(K_inf)", "abs_error", "error_ratio"]
    _emit(meta, columns, rows, args.format, args.output)
    return 0


def _add_output_flags(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", default=None, help="write to file instead of stdout")


def _add_space_flags(parser, *, required_space: bool) -> None:
    parser.add_argument(
        "--space",
        choices=("ball", "fock") if required_space else ("ball", "fock", "both"),
        required=required_space,
        default=None if required_space else "both",
    )
    parser.add_argument("--n", type=int, default=2, help="complex dimension")
    parser.add_argument("--alpha", type=float, default=None, help="ball weight exponent (> -1)")
    parser.add_argument("--nu", type=float, default=None, help="Gaussian weight (> 0)")
    parser.add_argument("--radius", type=float, default=1.0, help="ball radius (> 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holospaces",
        description="Kernels, norms, and verification for Bergman-Dirichlet "
        "and Bargmann-Dirichlet spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser("kernel", help="evaluate a reproducing kernel")
    _add_space_flags(kernel, required_space=True)
    kernel.add_argument("--m", type=int, default=0, help="derivative order of the space")
    kernel.add_argument("--t", default=None, help="<z,w> as 're' or 're,im'")
    kernel.add_argument("--z", default=None, help="point as comma-separated complex components")
    kernel.add_argument("--w", default=None, help="point as comma-separated complex components")
    kernel.add_argument("--method", choices=("closed", "series"), default="closed")
    kernel.add_argument("--max-degree", type=int, default=spaces.DEFAULT_SERIES_DEGREE)
    kernel.add_argument("--tol", type=float, default=1e-14)
    kernel.add_argument("--max-terms", type=int, default=10000)
    _add_output_flags(kernel)
    kernel.set_defaults(func=cmd_kernel)

    norms = sub.add_parser("norms", help="table of monomial norms")
    _add_space_flags(norms, required_space=True)
    norms.add_argument("--m", type=int, default=0)
    norms.add_argument("--max-total-degree", type=int, default=6)
    _add_output_flags(norms)
    norms.set_defaults(func=cmd_norms)

    verify = sub.add_parser("verify", help="run a quadrature/identity verification suite")
    verify.add_argument(
        "--suite", choices=("norms", "orthogonality", "sobolev", "identities"), required=True
    )
    _add_space_flags(verify, required_space=False)
    verify.add_argument("--m", type=int, default=None)
    verify.add_argument("--degree-cap", type=int, default=6)
    verify.add_argument("--nu-denominator-variant", action="store_true", help=argparse.SUPPRESS)
    _add_output_flags(verify)
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="scaled-ball kernels against the flat limit")
    sweep.add_argument("--nu", type=float, required=True)
    sweep.add_argument("--m", type=int, required=True)
    sweep.add_argument("--n", type=int, default=2)
    sweep.add_argument("--t", required=True, help="<z,w> as 're' or 're,im'")
    sweep.add_argument("--radii", required=True, help="comma-separated increasing radii")
    sweep.add_argument("--tol", type=float, default=1e-14)
    sweep.add_argument("--max-terms", type=int, default=10000)
    _add_output_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, DivergenceError, NonconvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
