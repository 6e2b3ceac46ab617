"""Command-line front end.

Subcommands: validate, figure, verify, mandel, squeeze, moments,
resolution, bargmann-check, state.  All numeric output is CSV with
'#'-metadata lines, 12 significant digits, deterministic ordering.
Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .algebra import build_operator, energy_eigenvalue, sga_structure_poly, validate_params
from .bargmann import check_commutators, check_hermiticity
from .errors import ClextError
from .figures import FIGURE_PRESETS, FigureJob, run_figure
from .measures import (
    MomentProblem,
    positivity_condition,
    PositivityRefusal,
    verify_identity_resolution,
    verify_moments,
    weight_function,
)
from .observables import (
    mandel_q_cs_alpha,
    mandel_q_eigenstate,
    squeezing_cs_alpha,
    squeezing_eigenstate,
)
from .states import CsAlphaSpec, cs_alpha_state, eigenstate


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--lambda", dest="lam", type=int, default=None, help="cyclic order (>= 2)")
    p.add_argument("--alpha", dest="alpha_csv", type=str, default=None,
                   help="comma-separated algebra parameters alpha_0,..,alpha_{lambda-1}")
    p.add_argument("--mu", type=int, default=None, help="Fock sector index")
    p.add_argument("--cs-alpha", dest="cs_alpha", type=int, default=None,
                   help="coherent-state family index")
    p.add_argument("--z-re", type=float, default=None)
    p.add_argument("--z-im", type=float, default=None)
    p.add_argument("--grid", type=str, default=None, help="min:max:n")
    p.add_argument("--k", dest="trunc", type=int, default=None, help="matrix/state truncation")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--config", type=str, default=None, help="key = value configuration file")


_DEFAULTS = {
    "mu": 0, "cs_alpha": 0, "z_re": 1.0, "z_im": 0.0,
    "trunc": 64, "tol": 1e-6,
}


def _resolve(args: argparse.Namespace):
    """Fill None-valued options from the config file, then from defaults."""
    cfg = _read_config(args.config) if args.config else {}
    for key, raw in cfg.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            cur_default = _DEFAULTS.get(key)
            cast = type(cur_default) if cur_default is not None else str
            if key == "alpha_csv":
                cast = str
            if key == "lam":
                cast = int
            setattr(args, key, cast(raw))
    for key, val in _DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, val)
    return args


def _params(args) -> "AlgebraParams":
    if args.lam is None or args.alpha_csv is None:
        raise ClextError("--lambda and --alpha are required")
    alpha = [float(v) for v in args.alpha_csv.split(",") if v.strip() != ""]
    return validate_params(args.lam, alpha)


def _grid(args, default=(0.02, 3.0, 60)):
    if args.grid is None:
        lo, hi, n = default
    else:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ClextError("--grid expects min:max:n")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 2:
            raise ClextError("--grid needs n >= 2")
    return np.linspace(lo, hi, int(n))


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x) -> str:
    return f"{x:.12g}"


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_validate(args) -> int:
    p = _params(args)
    lines = [f"# lambda = {p.lam}"]
    lines.append("mu,alpha_mu,beta_mu,beta_bar_mu,E_mu")
    for mu in range(p.lam):
        lines.append(
            ",".join(
                _fmt(v)
                for v in (mu, p.alpha[mu], p.beta[mu], p.beta_bar[mu], energy_eigenvalue(p, mu))
            )
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_figure(args) -> int:
    name = args.figure.lower().removeprefix("fig")
    jobs = []
    if name in FIGURE_PRESETS:
        jobs = [FIGURE_PRESETS[name]]
    elif name in "12345678":
        jobs = [j for key, j in sorted(FIGURE_PRESETS.items()) if key.rstrip("ab") == name]
    if not jobs:
        raise ClextError(f"unknown figure {args.figure!r}")
    docs = []
    for job in jobs:
        if args.grid is not None:
            g = _grid(args)
            job = FigureJob(
                job.figure, job.kind, job.lam, job.curves, job.grid_var,
                (float(g[0]), float(g[-1]), len(g)), job.options,
            )
        docs.append(run_figure(job))
    _emit(args, "".join(docs))
    return 0


def cmd_state(args) -> int:
    p = _params(args)
    z = complex(args.z_re, args.z_im)
    if args.cs_alpha is not None and args.mu is not None and args.cs_alpha >= 0:
        spec = CsAlphaSpec(p, args.mu, args.cs_alpha, z)
        st = cs_alpha_state(spec, args.trunc)
        head = f"# |z; mu; alpha> with z = {z}, mu = {args.mu}, alpha = {args.cs_alpha}"
    else:
        st = eigenstate(p, z, args.trunc)
        head = f"# eigenstate |z> with z = {z}"
    lines = [head, f"# norm_series = {_fmt(st.norm_sq_analytic)}, tail_bound = {st.tail_bound:.3e}"]
    lines.append("n,re_c,im_c")
    for n, c in enumerate(st.coeffs):
        lines.append(f"{n},{_fmt(c.real)},{_fmt(c.imag)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_mandel(args) -> int:
    p = _params(args)
    grid = _grid(args)
    if args.family == "sector":
        def q(r, method):
            return mandel_q_cs_alpha(CsAlphaSpec(p, args.mu, args.cs_alpha, r), method).mandel_Q
    else:
        def q(r, method):
            return mandel_q_eigenstate(p, r, method).mandel_Q
    lines = [f"# mandel Q, family = {args.family}", "r,Q_closed,Q_oracle"]
    for r, qc in zip(grid, q(grid, "closed")):
        lines.append(f"{_fmt(r)},{_fmt(qc)},{_fmt(q(float(r), 'oracle'))}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_squeeze(args) -> int:
    p = _params(args)
    grid = _grid(args)
    if args.family == "sector":
        def report(z, method):
            return squeezing_cs_alpha(CsAlphaSpec(p, args.mu, args.cs_alpha, z), args.kind, method)
    else:
        def report(z, method):
            return squeezing_eigenstate(p, z, args.kind, method)
    lines = [
        f"# squeezing, family = {args.family}, kind = {args.kind}, direction = {args.direction}",
        "g,X_closed,P_closed,X_oracle,P_oracle",
    ]
    zs = 1j * grid if args.direction == "im" else grid.astype(complex)
    closed = report(zs, "closed")
    for g, z, xc, pc in zip(grid, zs, closed.X, closed.P):
        ro = report(complex(z), "oracle")
        lines.append(",".join(_fmt(v) for v in (g, xc, pc, ro.X, ro.P)))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_moments(args) -> int:
    p = _params(args)
    problem = MomentProblem(p, args.mu, args.cs_alpha)
    weight = weight_function(p, args.mu, args.cs_alpha, require_positive=not args.allow_unsigned)
    report = verify_moments(weight, problem, k_max=args.k_max, tol=args.tol)
    lines = [
        f"# moments for mu = {args.mu}, alpha = {args.cs_alpha}, form = {weight.form}",
        "k,target,integral,rel_error",
    ]
    for row in report.rows:
        lines.append(
            f"{row.k},{_fmt(row.target)},{_fmt(row.integral)},{row.rel_error:.3e}"
        )
    lines.append(
        f"# max_rel_error = {report.max_rel_error:.3e}, passed = {report.passed}, "
        f"max_quad_err = {report.max_quad_err:.3e}"
    )
    _emit(args, "\n".join(lines) + "\n")
    return 0 if report.passed else 1


def cmd_resolution(args) -> int:
    p = _params(args)
    rep = verify_identity_resolution(p, args.mode, n_max=args.n_max, tol=args.tol)
    lines = [f"# resolution mode = {args.mode}", "n,n_prime,value"]
    for n, v in enumerate(rep.diagonal):
        lines.append(f"{n},{n},{_fmt(v)}")
    lines.append(f"# max |value - 1| = {rep.max_error:.3e}, passed = {rep.passed}")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if rep.passed else 1


def cmd_bargmann_check(args) -> int:
    p = _params(args)
    lines = ["basis,op_pair,max_residual"]
    ok = True
    rows = check_commutators(p, "sector", k_max=6)
    rows += check_commutators(p, "vector_alpha0", k_max=6)
    rows += check_commutators(p, "eigenstate", k_max=6)
    table: dict[tuple[str, str], float] = {}
    for r in rows:
        key = (r.basis, r.pair)
        table[key] = max(table.get(key, 0.0), r.residual)
    for (basis, pair), res in sorted(table.items()):
        ok &= res < 1e-10
        lines.append(f"{basis},{pair},{res:.3e}")
    cert = positivity_condition(p, args.mu, args.cs_alpha)
    if not isinstance(cert, PositivityRefusal):
        w = weight_function(p, args.mu, args.cs_alpha)
        herm = check_hermiticity(p, args.mu, args.cs_alpha, w)
        worst = max(r.residual for r in herm)
        scale = max(max(abs(r.lhs), abs(r.rhs)) for r in herm)
        res = worst / max(1.0, scale)
        ok &= res < args.tol
        lines.append(f"sector(mu={args.mu}),J+/J- hermiticity,{res:.3e}")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _verify_algebra(p, trunc, tol) -> list[tuple[str, float, bool]]:
    lam = p.lam
    a = build_operator(p, "a", trunc)
    ad = build_operator(p, "adag", trunc)
    interior = trunc - lam
    comm = (a.entries @ ad.entries - ad.entries @ a.entries)[:interior, :interior]
    expect = np.diag([1.0 + p.alpha_at(n) for n in range(interior)])
    rows = [("[a,adag] = 1 + sum alpha P", float(np.abs(comm - expect).max()), None)]
    worst = 0.0
    for mu in range(lam):
        pm = build_operator(p, "P", trunc, mu=mu)
        pm1 = build_operator(p, "P", trunc, mu=mu + 1)
        worst = max(worst, float(np.abs(ad.entries @ pm.entries - pm1.entries @ ad.entries).max()))
    rows.append(("adag P_mu = P_{mu+1} adag", worst, None))
    jp = build_operator(p, "Jplus", trunc)
    jm = build_operator(p, "Jminus", trunc)
    commj = (jp.entries @ jm.entries - jm.entries @ jp.entries)[:interior, :interior]
    worst = 0.0
    for n in range(interior):
        f = sga_structure_poly(p, energy_eigenvalue(p, n) / lam, n % lam)
        worst = max(worst, abs(commj[n, n] - f) / max(1.0, abs(f)))
    rows.append(("[J+,J-] = f(J0, P_mu)", worst, None))
    return [(name, res, res < tol) for name, res, _ in rows]


def _verify_states(p, trunc, tol):
    import cmath

    rows = []
    lam = p.lam
    worst = 0.0
    for alpha in range(lam // 2 + 1):
        for mu in range(lam - alpha):
            zmag = 0.85 if 2 * alpha == lam else 1.3
            spec = CsAlphaSpec(p, mu, alpha, zmag * cmath.exp(0.4j))
            st = cs_alpha_state(spec, trunc)
            a = build_operator(p, "a", st.dim).entries
            ad = build_operator(p, "adag", st.dim).entries
            op = np.linalg.matrix_power(a, lam - alpha) - spec.z * np.linalg.matrix_power(ad, alpha)
            res = np.linalg.norm((op @ st.coeffs)[: st.dim - lam])
            worst = max(worst, res)
    rows.append(("CS defining-equation residual", worst, worst < tol))
    st = eigenstate(p, 1.1 + 0.7j, trunc)
    a = build_operator(p, "a", st.dim).entries
    res = float(np.linalg.norm((a @ st.coeffs - (1.1 + 0.7j) * st.coeffs)[: st.dim - 1]))
    rows.append(("a |z> = z |z> residual", res, res < tol))
    return rows


def cmd_verify(args) -> int:
    p = _params(args)
    tol = args.tol
    if args.suite == "algebra":
        rows = _verify_algebra(p, args.trunc, max(tol, 1e-10))
    elif args.suite == "states":
        rows = _verify_states(p, args.trunc, max(tol, 1e-9))
    elif args.suite == "moments":
        problem = MomentProblem(p, args.mu, args.cs_alpha)
        weight = weight_function(p, args.mu, args.cs_alpha)
        rep = verify_moments(weight, problem, k_max=8, tol=tol)
        rows = [(f"moment k={r.k}", r.rel_error, r.rel_error < tol) for r in rep.rows]
    elif args.suite == "resolution":
        rep = verify_identity_resolution(p, "diagonal_alpha0", n_max=6, tol=tol)
        rows = [(f"<{n}|I|{n}>", abs(v - 1.0), abs(v - 1.0) < tol) for n, v in enumerate(rep.diagonal)]
    elif args.suite == "bargmann":
        rows = []
        for r in check_commutators(p, "sector", k_max=5):
            rows.append((f"{r.basis} {r.pair} k={r.k}", r.residual, r.residual < 1e-10))
    elif args.suite == "observables":
        # closed Q on the whole |z| list in one call, each point against the oracle
        checks = (
            ("eigenstate", (0.4, 1.0, 1.7, 8.0, 14.0),
             lambda z, method: mandel_q_eigenstate(p, z, method)),
            ("sector (0,0)", (1.0, 8.0),
             lambda z, method: mandel_q_cs_alpha(CsAlphaSpec(p, 0, 0, z), method)),
        )
        rows = []
        for family, zs, q in checks:
            for zz, qc in zip(zs, q(np.array(zs), "closed").mandel_Q):
                qo = q(zz, "oracle").mandel_Q
                err = abs(qc - qo) / (1.0 + abs(qo))
                rows.append((f"{family} Q at |z|={zz}", err, err < 1e-8))
    else:
        raise ClextError(f"unknown suite {args.suite!r}")
    lines = ["check,residual,passed"]
    ok = True
    for name, res, passed in rows:
        ok &= bool(passed)
        lines.append(f"{name},{res:.3e},{passed}")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="clext",
        description="C_lambda-extended oscillator numerics: states, measures, observables",
    )
    ap.add_argument("--version", action="version", version=f"clext {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check algebra parameters")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("figure", help="emit CSV data for figures 1-8")
    p.add_argument("figure", help="figure id: 1..8 or a panel like 4a")
    _add_common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["algebra", "states", "moments", "resolution", "bargmann", "observables"])
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mandel", help="Mandel Q over a |z| grid")
    p.add_argument("--family", choices=["sector", "eigen"], default="eigen")
    _add_common(p)
    p.set_defaults(func=cmd_mandel)

    p = sub.add_parser("squeeze", help="squeezing ratios over a grid")
    p.add_argument("--family", choices=["sector", "eigen"], default="eigen")
    p.add_argument("--kind", choices=["dressed", "real"], default="dressed")
    p.add_argument("--direction", choices=["re", "im"], default="re")
    _add_common(p)
    p.set_defaults(func=cmd_squeeze)

    p = sub.add_parser("moments", help="verify weight-function moments")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--allow-unsigned", action="store_true",
                   help="evaluate the inverse Mellin transform even without a positivity certificate")
    _add_common(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("resolution", help="verify a resolution of the identity")
    p.add_argument("--mode", choices=["diagonal_alpha0", "eigenstate_diag", "eigenstate_offdiag"],
                   default="diagonal_alpha0")
    p.add_argument("--n-max", type=int, default=6)
    _add_common(p)
    p.set_defaults(func=cmd_resolution)

    p = sub.add_parser("bargmann-check", help="commutator/Hermiticity residual table")
    _add_common(p)
    p.set_defaults(func=cmd_bargmann_check)

    p = sub.add_parser("state", help="dump coherent-state coefficients")
    _add_common(p)
    p.set_defaults(func=cmd_state)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # let --alpha take a leading-minus CSV without the '=' form
    for i, tok in enumerate(argv[:-1]):
        if tok == "--alpha" and argv[i + 1].startswith("-"):
            argv[i] = f"--alpha={argv[i + 1]}"
            del argv[i + 1]
            break
    args = ap.parse_args(argv)
    try:
        args = _resolve(args)
        return args.func(args)
    except ClextError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
