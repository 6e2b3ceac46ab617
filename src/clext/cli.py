"""Command-line front end.

Subcommands: validate, figure, verify, mandel, squeeze, moments,
resolution, bargmann-check, state.  All numeric output is CSV with
'#'-metadata lines, 12 significant digits, deterministic ordering.
Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .algebra import build_operator, energy_eigenvalue, sga_structure_poly, validate_params
from .bargmann import check_commutators, check_hermiticity, intertwining_residual
from .errors import ClextError, TruncationTooSmall
from .figures import FIGURE_PRESETS, run_figure
from .measures import (
    NO_PAIRING,
    eigenstate_measures,
    positivity_condition,
    verify_identity_resolution,
    verify_moments,
    weight_function,
)
from .observables import mandel_q, squeezing
from .states import cs_alpha_state, eigenstate

# the closed and oracle columns of a grid, both from one observables call
COLUMNS = ("closed", "oracle")
# the generators bargmann-check intertwines in the vector and eigenstate bases
VECTOR_OPS = ("a", "adag", "N", "J0", "Jplus", "Jminus")


def _params(args) -> "AlgebraParams":
    if args.lam is None or args.alpha_csv is None:
        raise ClextError("--lambda and --alpha are required")
    alpha = [float(v) for v in args.alpha_csv.split(",") if v.strip() != ""]
    return validate_params(args.lam, alpha)


def _sector(args):
    """The family of a grid command's states: (mu, alpha) for --family
    sector, None for the eigenstates |z>."""
    return (args.mu, args.cs_alpha) if args.family == "sector" else None


def finite_float(text: str) -> float:
    """The type of real-valued flags that reach the states: nan and inf are refused."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def positive_float(text: str) -> float:
    """The --tol type: a finite number above zero."""
    value = finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def min_max_n(text: str) -> np.ndarray:
    """The --grid type: n >= 2 evenly spaced points from min to max."""
    lo, hi, n = text.split(":")
    if int(n) < 2:
        raise ValueError(text)
    return np.linspace(finite_float(lo), finite_float(hi), int(n))


def _emit(args, text: str):
    """text to stdout, or to the --out file as its UTF-8 bytes in one write."""
    if not args.out:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def csv_rows(line: str, *columns) -> str:
    """One CSV line per row of the equal-length columns, each the % pattern
    line ("%d,%.12g", say) plus a newline, in one % operation over all the
    values: "%.12g" % v prints what f"{v:.12g}" does."""
    rows = len(columns[0])
    return ((line + "\n") * rows) % tuple(itertools.chain.from_iterable(zip(*columns)))


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_validate(args) -> int:
    p = _params(args)
    mus = range(p.lam)
    rows = csv_rows("%.12g,%.12g,%.12g,%.12g,%.12g", mus, p.alpha, p.beta, p.beta_bar,
                    [energy_eigenvalue(p, mu) for mu in mus])
    _emit(args, f"# lambda = {p.lam}\nmu,alpha_mu,beta_mu,beta_bar_mu,E_mu\n" + rows)
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
            job = replace(job, grid=(float(args.grid[0]), float(args.grid[-1]), len(args.grid)))
        docs.append(run_figure(job))
    _emit(args, "".join(docs))
    return 0


def cmd_state(args) -> int:
    p = _params(args)
    z = complex(args.z_re, args.z_im)
    if args.cs_alpha >= 0:
        st = cs_alpha_state(p, z, (args.mu, args.cs_alpha), args.trunc)
        head = f"# |z; mu; alpha> with z = {z}, mu = {args.mu}, alpha = {args.cs_alpha}"
    else:
        st = eigenstate(p, z, args.trunc)
        head = f"# eigenstate |z> with z = {z}"
    lines = [head, f"# norm_series = {st.norm_sq_analytic:.12g}, tail_bound = {st.tail_bound:.3e}",
             "n,re_c,im_c\n"]
    rows = csv_rows("%d,%.12g,%.12g", range(st.dim), st.coeffs.real.tolist(), st.coeffs.imag.tolist())
    _emit(args, "\n".join(lines) + rows)
    return 0


def cmd_mandel(args) -> int:
    p = _params(args)
    grid = np.linspace(0.02, 3.0, 60) if args.grid is None else args.grid
    closed, oracle = mandel_q(p, grid, _sector(args), COLUMNS)
    rows = csv_rows("%.12g,%.12g,%.12g", grid.tolist(), closed.mandel_Q.tolist(),
                    oracle.mandel_Q.tolist())
    _emit(args, f"# mandel Q, family = {args.family}\nr,Q_closed,Q_oracle\n" + rows)
    return 0


def cmd_squeeze(args) -> int:
    p = _params(args)
    grid = np.linspace(0.02, 3.0, 60) if args.grid is None else args.grid
    zs = 1j * grid if args.direction == "im" else grid.astype(complex)
    closed, oracle = squeezing(p, zs, args.kind, _sector(args), COLUMNS)
    head = (f"# squeezing, family = {args.family}, kind = {args.kind}, direction = {args.direction}\n"
            "g,X_closed,P_closed,X_oracle,P_oracle\n")
    cols = (v.tolist() for v in (grid, closed.X, closed.P, oracle.X, oracle.P))
    _emit(args, head + csv_rows("%.12g,%.12g,%.12g,%.12g,%.12g", *cols))
    return 0


def cmd_moments(args) -> int:
    p = _params(args)
    weight = weight_function(p, (args.mu, args.cs_alpha), require_positive=not args.allow_unsigned)
    report = verify_moments(weight, k_max=args.k_max, tol=args.tol)
    head = (f"# moments for mu = {args.mu}, alpha = {args.cs_alpha}, form = {weight.form}\n"
            "k,target,integral,rel_error\n")
    rows = csv_rows("%d,%.12g,%.12g,%.3e", *zip(*((r.k, r.target, r.integral, r.rel_error)
                                                    for r in report.rows)))
    foot = (f"# max_rel_error = {report.max_rel_error:.3e}, passed = {report.passed}, "
            f"max_quad_err = {report.max_quad_err:.3e}\n")
    _emit(args, head + rows + foot)
    return 0 if report.passed else 1


def cmd_resolution(args) -> int:
    p = _params(args)
    rep = verify_identity_resolution(p, args.mode, n_max=args.n_max, tol=args.tol)
    n = range(len(rep.diagonal))
    _emit(args, f"# resolution mode = {args.mode}\nn,n_prime,value\n"
          + csv_rows("%d,%d,%.12g", n, n, rep.diagonal)
          + f"# max |value - 1| = {rep.max_error:.3e}, passed = {rep.passed}\n")
    return 0 if rep.passed else 1


def _hermiticity_residual(rows) -> float:
    """The largest |lhs - rhs| of the rows over the largest side, at least 1."""
    worst = max(r.residual for r in rows)
    return worst / max(1.0, max(max(abs(r.lhs), abs(r.rhs)) for r in rows))


def cmd_bargmann_check(args) -> int:
    p = _params(args)
    sector = (args.mu, args.cs_alpha)
    pairing = positivity_condition(p, sector)  # refuses a sector outside the family
    lines = ["basis,op_pair,max_residual"]
    ok = True
    table: dict[tuple[str, str], float] = {}
    for basis in ("sector", "vector_alpha0", "eigenstate"):
        for r in check_commutators(p, basis, k_max=6):
            table[r.basis, r.pair] = max(table.get((r.basis, r.pair), 0.0), r.residual)
    for (basis, pair), res in sorted(table.items()):
        ok &= res < 1e-10
        lines.append(f"{basis},{pair},{res:.3e}")
    herm, notes = [], []
    if pairing is None:
        notes.append(f"# sector(mu={args.mu}),J+/J- hermiticity skipped: no positivity "
                     f"certificate for (mu, alpha) = {sector}: {NO_PAIRING}")
    else:
        herm.append((f"sector(mu={args.mu}),J+/J-",
                     check_hermiticity(p, "sector", weight_function(p, sector))))
    # the vector basis's alpha = 0 weights are the eigenstate measures' own
    meas = eigenstate_measures(p)
    herm += [("vector_alpha0,adag/a", check_hermiticity(p, "vector_alpha0", meas.weights)),
             ("eigenstate,adag/a", check_hermiticity(p, "eigenstate", meas))]
    for label, rows in herm:
        res = _hermiticity_residual(rows)
        ok &= res < args.tol
        lines.append(f"{label} hermiticity,{res:.3e}")
    # the transform of op |z> against op's realization on the transform of |z>
    psi = eigenstate(p, 0.9 + 0.4j)
    for basis, label, ops in (("sector", f"sector(mu={args.mu},alpha={args.cs_alpha})",
                               ("N", "J0", "Jplus", "Jminus")),
                              ("vector_alpha0", "vector_alpha0", VECTOR_OPS),
                              ("eigenstate", "eigenstate", VECTOR_OPS)):
        for op in ops:
            res = intertwining_residual(p, basis, op, psi, sector)
            ok &= res < 1e-10
            lines.append(f"{label},{op} intertwining,{res:.3e}")
    _emit(args, "\n".join(lines + notes) + "\n")
    return 0 if ok else 1


def _verify_algebra(p, trunc, tol) -> list[tuple[str, float, bool]]:
    lam = p.lam
    if trunc <= lam:
        raise TruncationTooSmall(f"verify algebra needs --k > lambda = {lam}, got {trunc}")
    a, ad, jp, jm, j0 = (build_operator(p, kind, trunc)
                         for kind in ("a", "adag", "Jplus", "Jminus", "J0"))
    # the last lambda levels of a product see the truncation
    interior = trunc - lam
    n = np.arange(interior)
    comm = (a @ ad - ad @ a).band[:interior]
    rows = [("[a,adag] = 1 + sum alpha P", np.abs(comm - (1.0 + np.asarray(p.alpha)[n % lam])))]
    proj = [build_operator(p, "P", trunc, mu=mu) for mu in range(lam + 1)]
    shifts = [(ad @ proj[mu] - proj[mu + 1] @ ad).band for mu in range(lam)]
    rows.append(("adag P_mu = P_{mu+1} adag", np.abs(np.concatenate(shifts))))
    f = np.empty(interior)
    for mu in range(lam):
        f[mu::lam] = sga_structure_poly(p, energy_eigenvalue(p, n[mu::lam]) / lam, mu)
    commj = (jp @ jm - jm @ jp).band[:interior]
    rows.append(("[J+,J-] = f(J0, P_mu)", np.abs(commj - f) / np.maximum(1.0, np.abs(f))))
    for name, sign, q in (("[J0,J+] = J+", 1.0, jp), ("[J0,J-] = -J-", -1.0, jm)):
        c = (j0 @ q - q @ j0).band
        rows.append((name, np.abs(c - sign * q.band) / np.maximum(1.0, np.abs(q.band))))
    worst = [(name, float(res.max())) for name, res in rows]
    return [(name, res, res < tol) for name, res in worst]


def _apply(op, c, times: int):
    for _ in range(times):
        c = op @ c
    return c


def _verify_states(p, trunc, tol):
    rows = []
    lam = p.lam
    # a and adag once per truncation a build reaches
    ladders = functools.cache(lambda dim: (build_operator(p, "a", dim),
                                           build_operator(p, "adag", dim)))
    worst = 0.0
    for alpha in range(lam // 2 + 1):
        z = (0.85 if 2 * alpha == lam else 1.3) * cmath.exp(0.4j)
        family = cs_alpha_state(p, z, (np.arange(lam - alpha), alpha), trunc)
        a, ad = ladders(family.dim)
        # a^(lam - alpha) |psi> = z adag^alpha |psi>, one row per member mu
        lhs = _apply(a, family.coeffs, lam - alpha) - z * _apply(ad, family.coeffs, alpha)
        worst = max(worst, *(np.linalg.norm(row[: family.dim - lam]) for row in lhs))
    rows.append(("CS defining-equation residual", worst, worst < tol))
    st = eigenstate(p, 1.1 + 0.7j, trunc)
    a = ladders(st.dim)[0]
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
        weight = weight_function(p, (args.mu, args.cs_alpha))
        rep = verify_moments(weight, k_max=8, tol=tol)
        rows = [(f"moment k={r.k}", r.rel_error, r.rel_error < tol) for r in rep.rows]
    elif args.suite == "resolution":
        rep = verify_identity_resolution(p, "diagonal_alpha0", n_max=6, tol=tol)
        rows = [(f"<{n}|I|{n}>", abs(v - 1.0), abs(v - 1.0) < tol) for n, v in enumerate(rep.diagonal)]
    elif args.suite == "bargmann":
        rows = [(f"{r.basis} {r.pair} k={r.k}", r.residual, r.residual < 1e-10)
                for r in check_commutators(p, "sector", k_max=5)]
        # the ladder rows run over the components mu, then k = 0..5
        for basis in ("vector_alpha0", "eigenstate"):
            rows += [(f"{basis}(mu={i // 6}) {r.pair} k={r.k}", r.residual, r.residual < 1e-10)
                     for i, r in enumerate(check_commutators(p, basis, k_max=5))]
    elif args.suite == "observables":
        # closed and oracle Q of one |z| list from one call
        checks = (("eigenstate", None, (0.4, 1.0, 1.7, 8.0, 14.0)),
                  ("sector (0,0)", (0, 0), (1.0, 8.0)))
        rows = []
        for family, sector, zs in checks:
            closed, oracle = (s.mandel_Q for s in mandel_q(p, np.array(zs), sector, COLUMNS))
            for zz, qc, qo in zip(zs, closed, oracle):
                err = abs(qc - qo) / (1.0 + abs(qo))
                rows.append((f"{family} Q at |z|={zz}", err, err < 1e-8))
    lines = ["check,residual,passed"]
    ok = True
    for name, res, passed in rows:
        ok &= bool(passed)
        lines.append(f"{name},{res:.3e},{passed}")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if ok else 1


# every option once: dest (also its config key) -> (flag, type, default, help).  A
# tuple type lists the choices, bool is a switch; the positionals have no flag.
OPTIONS = {
    "figure": (None, str, None, "figure id: 1..8 or a panel like 4a"),
    "suite": (None, ("algebra", "states", "moments", "resolution", "bargmann", "observables"),
              None, "verification suite"),
    "lam": ("--lambda", int, None, "cyclic order (>= 2)"),
    "alpha_csv": ("--alpha", str, None, "algebra parameters alpha_0,..,alpha_{lambda-1} as CSV"),
    "mu": ("--mu", int, 0, "Fock sector index"),
    "cs_alpha": ("--cs-alpha", int, 0, "coherent-state family index (state: < 0 is |z>)"),
    "z_re": ("--z-re", finite_float, 1.0, "real part of z"),
    "z_im": ("--z-im", finite_float, 0.0, "imaginary part of z"),
    "grid": ("--grid", min_max_n, None, "min:max:n (mandel, squeeze: 0.02:3:60)"),
    "trunc": ("--k", int, 64, "operator/state truncation"),
    "tol": ("--tol", positive_float, 1e-6, "pass tolerance"),
    "family": ("--family", ("sector", "eigen"), "eigen", "sector states or eigenstates |z>"),
    "kind": ("--kind", ("dressed", "real"), "dressed", "dressed or real photons"),
    "direction": ("--direction", ("re", "im"), "re", "grid along the real or imaginary z axis"),
    "k_max": ("--k-max", int, 8, "highest moment order"),
    "allow_unsigned": ("--allow-unsigned", bool, False,
                       "evaluate the weight even without a positivity certificate"),
    "mode": ("--mode", ("diagonal_alpha0", "eigenstate_diag", "eigenstate_offdiag"),
             "diagonal_alpha0", "resolution to verify"),
    "n_max": ("--n-max", int, 6, "highest Fock level"),
    "out": ("--out", str, None, "output path (default stdout)"),
    "config": ("--config", str, None,
               "file of key = value lines, keyed by dest (a switch takes true or false); flags win"),
}

_P = ("lam", "alpha_csv")
# command -> (handler, help, the options it reads; every command also takes out and config)
COMMANDS = {
    "validate": (cmd_validate, "check algebra parameters", _P),
    "figure": (cmd_figure, "emit CSV data for figures 1-8", ("figure", "grid")),
    "verify": (cmd_verify, "run a verification suite",
               ("suite", *_P, "mu", "cs_alpha", "trunc", "tol")),
    "mandel": (cmd_mandel, "Mandel Q over a |z| grid", ("family", *_P, "mu", "cs_alpha", "grid")),
    "squeeze": (cmd_squeeze, "squeezing ratios over a grid",
                ("family", "kind", "direction", *_P, "mu", "cs_alpha", "grid")),
    "moments": (cmd_moments, "verify weight-function moments",
                ("k_max", "allow_unsigned", *_P, "mu", "cs_alpha", "tol")),
    "resolution": (cmd_resolution, "verify a resolution of the identity",
                   ("mode", "n_max", *_P, "tol")),
    "bargmann-check": (cmd_bargmann_check,
                       "commutator, Hermiticity and intertwining residual table",
                       (*_P, "mu", "cs_alpha", "tol")),
    "state": (cmd_state, "dump coherent-state coefficients",
              (*_P, "z_re", "z_im", "mu", "cs_alpha", "trunc")),
}


# parsing leaves the parsers unchanged, so one set per process serves every call
@functools.cache
def build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own subparser, by command."""
    ap = argparse.ArgumentParser(
        prog="clext",
        description="C_lambda-extended oscillator numerics: states, measures, observables",
    )
    ap.add_argument("--version", action="version", version=f"clext {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (func, help_, dests) in COMMANDS.items():
        # no prefix matching: moments' --k-max must not take a stray --k
        p = commands[command] = sub.add_parser(command, help=help_, allow_abbrev=False)
        for dest in (*dests, "out", "config"):
            flag, kind, default, text = OPTIONS[dest]
            if kind is bool:
                kw = {"action": "store_true"}
            elif isinstance(kind, tuple):
                kw = {"choices": kind, "default": default}
            else:
                kw = {"type": kind, "default": default}
            if flag is not None:
                kw["dest"] = dest
            p.add_argument(flag or dest, help=text, **kw)
        p.set_defaults(func=func)
    return ap, commands


def _config_argv(args) -> list[str]:
    """The --config file's key = value lines as --flag=value tokens of args.command;
    a switch's value is true (the flag) or false (no token).  config itself
    is no key: a file does not name another."""
    keys = [k for k in vars(args) if k != "config" and OPTIONS.get(k, (None,))[0] is not None]
    argv = []
    with open(args.config, encoding="utf-8") as fh:
        for line in map(str.strip, fh):
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in keys:
                raise ClextError(f"config key {key!r} is not an option of clext {args.command}; "
                                 f"its keys are {', '.join(keys)}")
            flag, kind = OPTIONS[key][:2]
            if kind is not bool:
                argv.append(f"{flag}={val}")
            elif val not in ("true", "false"):
                raise ClextError(f"config key {key!r} is a switch: its value is true or false, got {val!r}")
            elif val == "true":
                argv.append(flag)
    return argv


def _parse_command(command: str, tokens: list[str]) -> argparse.Namespace:
    """tokens parsed by command's own subparser into the namespace the
    top-level parser would give; a leftover token is the top-level parser's
    "unrecognized arguments" error."""
    top, commands = build_parsers()
    args, extras = commands[command].parse_known_args(tokens, argparse.Namespace(command=command))
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def parse_args(argv) -> argparse.Namespace:
    """The namespace a handler reads; argparse exits 2 on a bad flag or value.

    A command's tokens take one pass of its own subparser (_parse_command);
    no command, -h, --version and an unknown command go to the top-level
    parser.  The --config file's values are parsed as flags placed before
    the command line's own, so the command line wins.
    """
    # a value-taking flag takes a value with one leading minus (--alpha -1,1,
    # --grid -1:1:3) without the '=' form; a long flag (two minus) is no value
    takes_value = {flag for flag, kind, *_ in OPTIONS.values() if flag and kind is not bool}
    tokens, argv = list(argv), []
    while tokens:
        tok = tokens.pop(0)
        if tok in takes_value and tokens and re.match("-(?!-)", tokens[0]):
            tok = f"{tok}={tokens.pop(0)}"
        argv.append(tok)
    top, commands = build_parsers()
    if argv and argv[0] in commands:
        args = _parse_command(argv[0], argv[1:])
    else:
        args = top.parse_args(argv)
    if args.config:
        args = _parse_command(args.command, [*_config_argv(args), *argv[1:]])
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (ClextError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
