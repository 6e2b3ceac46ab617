"""Checks of each command's output against computations made apart from clext.

Every reference here is built from the command's own input (its argv)
and the model's definitions only: the structure function
F(n) = n + beta_{n mod lambda}, the moment targets B(k) as Gamma
products, and the Meijer-G weight as mpmath's `meijerg`.  No check reads
a stored copy of earlier output.  `check(op, text, seed)` returns a list
of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
import random

import mpmath as mp

from workloads import Op

mp.mp.dps = 30

# brute-force Fock sums stop once a term is this small against the sum
_SUM_EPS = mp.mpf(10) ** -32
# absolute-plus-relative agreement demanded of observables: |a - b| <= TOL (1 + |b|)
OBS_TOL = 1e-8
# relative agreement demanded of weight values against mpmath meijerg
WEIGHT_TOL = 1e-9
# residual ceilings for the program's own verify suites
VERIFY_LIMITS = {"algebra": 1e-9, "states": 1e-9, "observables": 1e-8, "bargmann": 1e-10}
ROWS_PER_CURVE = 4


# --------------------------------------------------------------------------
# the model, from its definitions
# --------------------------------------------------------------------------

class Model:
    """beta, beta_bar and F(n) from the alpha vector, in mpmath."""

    def __init__(self, alpha):
        self.alpha = [mp.mpf(a) for a in alpha]
        self.lam = len(self.alpha)
        self.beta = [mp.fsum(self.alpha[:mu]) for mu in range(self.lam)]

    @classmethod
    def from_argv(cls, argv):
        return cls([float(v) for v in _flag(argv, "--alpha").split(",")])

    @classmethod
    def from_beta_bar(cls, beta_bar):
        lam = len(beta_bar) + 1
        beta = [mp.mpf(0)] + [lam * mp.mpf(b) - mu for mu, b in enumerate(beta_bar, start=1)]
        alpha = [beta[mu + 1] - beta[mu] for mu in range(lam - 1)] + [-beta[lam - 1]]
        return cls(alpha)

    def F(self, n: int):
        return n + self.beta[n % self.lam] if n > 0 else mp.mpf(0)

    def bbar(self, nu: int):
        return (self.beta[nu % self.lam] + nu) / self.lam


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def eigen_coeffs(model: Model, z):
    """Unnormalized eigenstate a|z> = z|z>: c_n = c_{n-1} z / sqrt(F(n))."""
    z = mp.mpc(z)
    coeffs = {0: mp.mpc(1)}
    c, total, n = mp.mpc(1), mp.mpf(1), 0
    while True:
        n += 1
        c = c * z / mp.sqrt(model.F(n))
        coeffs[n] = c
        total += abs(c) ** 2
        if n > 2 * abs(z) ** 2 + 10 and abs(c) ** 2 < _SUM_EPS * total:
            return coeffs
        if n > 5000:
            raise ArithmeticError("eigenstate brute-force sum did not settle")


def sector_coeffs(model: Model, mu: int, alpha: int, z):
    """Unnormalized a^(lam-alpha) psi = z adag^alpha psi on levels k lam + mu.

    Matching the level (k-1) lam + mu + alpha on both sides gives
    c_k / c_{k-1} = z sqrt(prod_{j=1..alpha} F((k-1) lam + mu + j)
                           / prod_{j=0..lam-alpha-1} F(k lam + mu - j)).
    """
    lam = model.lam
    z = mp.mpc(z)
    coeffs = {mu: mp.mpc(1)}
    c, total, k = mp.mpc(1), mp.mpf(1), 0
    while True:
        k += 1
        num = mp.fprod(model.F((k - 1) * lam + mu + j) for j in range(1, alpha + 1))
        den = mp.fprod(model.F(k * lam + mu - j) for j in range(lam - alpha))
        c = c * z * mp.sqrt(num / den)
        coeffs[k * lam + mu] = c
        total += abs(c) ** 2
        if k > 2 * abs(z) ** 2 + 10 and abs(c) ** 2 < _SUM_EPS * total:
            return coeffs
        if k > 5000:
            raise ArithmeticError("sector-state brute-force sum did not settle")


def mandel_q(coeffs) -> float:
    s = mp.fsum(abs(c) ** 2 for c in coeffs.values())
    m1 = mp.fsum(n * abs(c) ** 2 for n, c in coeffs.items()) / s
    m2 = mp.fsum(n * n * abs(c) ** 2 for n, c in coeffs.items()) / s
    return float((m2 - m1 * m1 - m1) / m1)


def squeeze_xp(model: Model, coeffs, kind: str, ref_level: int) -> tuple[float, float]:
    """(X, P): quadrature variances over those of the reference number state.

    Dressed photons use the deformed ladder a|n> = sqrt(F(n))|n-1>, real
    photons the boson ladder with F(n) replaced by n; the dressed
    reference is |ref_level>, the real one |0>.
    """
    g = model.F if kind == "dressed" else (lambda n: mp.mpf(n))
    s = mp.fsum(abs(c) ** 2 for c in coeffs.values())
    get = lambda n: coeffs.get(n, mp.mpc(0))
    lad = mp.fsum(mp.conj(get(n - 1)) * c * mp.sqrt(g(n)) for n, c in coeffs.items() if n >= 1) / s
    lad2 = mp.fsum(
        mp.conj(get(n - 2)) * c * mp.sqrt(g(n) * g(n - 1)) for n, c in coeffs.items() if n >= 2
    ) / s
    sym = mp.fsum(abs(c) ** 2 * (g(n) + g(n + 1)) for n, c in coeffs.items()) / (2 * s)
    var_x = mp.re(lad2) + sym - 2 * mp.re(lad) ** 2
    var_p = -mp.re(lad2) + sym - 2 * mp.im(lad) ** 2
    level = ref_level if kind == "dressed" else 0
    vac = (g(level) + g(level + 1)) / 2
    return float(var_x / vac), float(var_p / vac)


def moment_target(model: Model, mu: int, alpha: int, k):
    """B(k) of the (mu, alpha) moment problem as a Gamma product."""
    lam, bb = model.lam, model.bbar
    k = mp.mpf(k)
    out = mp.gamma(k + 1) / (mp.pi * mp.mpf(lam) ** (lam - 2 * alpha))
    for nu in range(1, mu + 1):
        out *= mp.gamma(bb(nu) + k + 1) / mp.gamma(bb(nu) + 1)
    for nu in range(mu + alpha + 1, lam):
        out *= mp.gamma(bb(nu) + k) / mp.gamma(bb(nu))
    for nu in range(mu + 1, mu + alpha + 1):
        out *= mp.gamma(bb(nu)) / mp.gamma(bb(nu) + k)
    return out


def weight_value(model: Model, mu: int, alpha: int, y):
    """Inverse Mellin transform of B(s-1): B(0)-scaled Meijer G^{m,0}_{alpha,m}."""
    lam, bb = model.lam, model.bbar
    b = [mp.mpf(0)] + [bb(nu) for nu in range(1, mu + 1)]
    b += [bb(nu) - 1 for nu in range(mu + alpha + 1, lam)]
    a = [bb(nu) - 1 for nu in range(mu + 1, mu + alpha + 1)]
    # B(k) = amp * prod Gamma(b_j + k + 1) / prod Gamma(a_i + k + 1)
    amp = moment_target(model, mu, alpha, 0) * mp.fprod(mp.gamma(v + 1) for v in a) / mp.fprod(
        mp.gamma(v + 1) for v in b
    )
    return amp * mp.meijerg([[], a], [b, []], y)


# --------------------------------------------------------------------------
# output parsing
# --------------------------------------------------------------------------

def _table(text: str) -> tuple[list[str], list[list[str]], list[str]]:
    """(header, rows, comment lines) of one CSV document."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        return [], [], comments
    return body[0].split(","), [ln.split(",") for ln in body[1:]], comments


def _close(got: float, ref, tol: float = OBS_TOL) -> bool:
    return math.isfinite(got) and abs(got - float(ref)) <= tol * (1.0 + abs(float(ref)))


def _sample_rows(rows, seed, name):
    """The last row (largest argument) plus seeded others."""
    rng = random.Random(f"check:{name}:{seed}")
    idx = {len(rows) - 1} | set(rng.sample(range(len(rows) - 1), ROWS_PER_CURVE - 1))
    return [rows[i] for i in sorted(idx)]


def _check_grid(rows, grid, errors):
    lo, hi, n = grid
    if len(rows) != n:
        errors.append(f"{len(rows)} rows, expected {n}")
        return
    for i, row in enumerate(rows):
        expect = lo + (hi - lo) * i / (n - 1)
        if abs(float(row[0]) - expect) > 1e-10 * max(1.0, abs(expect)):
            errors.append(f"grid value {row[0]} at row {i}, expected {expect:.12g}")
            return


# --------------------------------------------------------------------------
# per-command checks
# --------------------------------------------------------------------------

def _state_for(model, family, z, mu=0, alpha=0):
    if family == "eigen":
        return eigen_coeffs(model, z), 0
    return sector_coeffs(model, mu, alpha, z), mu


def check_figure(op: Op, text: str, seed: int) -> list[str]:
    from clext.figures import FIGURE_PRESETS  # the preset's inputs, not its outputs

    job = FIGURE_PRESETS[op.info["figure"]]
    header, rows, _ = _table(text)
    errors: list[str] = []
    if len(header) != 1 + len(job.curves):
        return [f"header {header} does not have {len(job.curves)} curves"]
    _check_grid(rows, op.info["grid"], errors)
    if errors:
        return errors
    opts = job.options
    for row in _sample_rows(rows, seed, op.name):
        g = float(row[0])
        for ci, curve in enumerate(job.curves):
            got = float(row[1 + ci])
            model = Model.from_beta_bar(curve.beta_bar)
            if job.kind in ("weight_h1", "weight_h2"):
                ref = weight_value(model, opts["mu"], opts["alpha"], g)
                if not (got >= 0.0 and abs(got - float(ref)) <= WEIGHT_TOL * abs(float(ref))):
                    errors.append(f"curve {ci + 1} at y={g}: {got!r} vs meijerg {float(ref)!r}")
                continue
            if job.kind == "q_sector":
                coeffs, _ = _state_for(model, "sector", g, opts["mu"], opts["alpha"])
                ref = mandel_q(coeffs)
            elif job.kind == "q_eigen":
                ref = mandel_q(eigen_coeffs(model, g))
            elif job.kind == "x_sector":
                z = -g if job.grid_var == "-Re z" else g
                coeffs, lvl = _state_for(model, "sector", z, opts["mu"], opts["alpha"])
                ref = squeeze_xp(model, coeffs, opts.get("squeeze_kind", "dressed"), lvl)[0]
            elif job.kind == "x_eigen":
                z = mp.mpc(0, g) if opts.get("direction") == "im" else g
                ref = squeeze_xp(model, eigen_coeffs(model, z),
                                 opts.get("squeeze_kind", "dressed"), 0)[0]
            else:
                return [f"no check for figure kind {job.kind!r}"]
            if not _close(got, ref):
                errors.append(f"curve {ci + 1} at {g}: {got!r} vs brute force {ref!r}")
    return errors


def check_moments(op: Op, text: str, seed: int) -> list[str]:
    info = op.info
    model = Model.from_argv(op.argv)
    header, rows, comments = _table(text)
    errors = []
    if not any(f"form = {info['form']}" in c for c in comments):
        errors.append(f"weight form is not {info['form']}: {comments[:1]}")
    if not any("passed = True" in c for c in comments):
        errors.append("command did not report passed = True")
    if len(rows) != 9:
        errors.append(f"{len(rows)} moment rows, expected k = 0..8")
    for k, target, integral, _ in rows:
        ref = moment_target(model, info["mu"], info["alpha"], int(k))
        if abs(float(target) - ref) > 1e-10 * ref:
            errors.append(f"k={k}: target {target} vs Gamma product {float(ref)!r}")
        if abs(float(integral) - ref) > info["tol"] * ref:
            errors.append(f"k={k}: integral {integral} vs B(k) {float(ref)!r}")
    return errors


def check_resolution(op: Op, text: str, seed: int) -> list[str]:
    _, rows, comments = _table(text)
    errors = []
    if len(rows) != op.info["n_max"] + 1:
        errors.append(f"{len(rows)} diagonal entries, expected {op.info['n_max'] + 1}")
    for n, _, value in rows:
        if not abs(float(value) - 1.0) <= op.info["tol"]:
            errors.append(f"<{n}|I|{n}> = {value}")
    if not any("passed = True" in c for c in comments):
        errors.append("command did not report passed = True")
    return errors


def check_verify(op: Op, text: str, seed: int) -> list[str]:
    limit = VERIFY_LIMITS[op.info["suite"]]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "check,residual,passed" or len(lines) < 2:
        return [f"unexpected verify table {lines[:1]}"]
    # check names may hold commas; the last two fields are fixed
    rows = [ln.rsplit(",", 2) for ln in lines[1:]]
    return [
        f"{r[0]}: residual {r[1]} (limit {limit:g}), passed = {r[2]}"
        for r in rows
        if not (float(r[1]) <= limit and r[2] == "True")
    ]


def check_state(op: Op, text: str, seed: int) -> list[str]:
    info = op.info
    model = Model.from_argv(op.argv)
    z = mp.mpc(*info["z"])
    coeffs, _ = _state_for(model, info["family"], z, info.get("mu", 0), info.get("alpha", 0))
    s = mp.fsum(abs(c) ** 2 for c in coeffs.values())
    _, rows, comments = _table(text)
    errors = []
    norm_line = [c for c in comments if "norm_series" in c]
    if not norm_line:
        return ["no norm_series line"]
    norm = float(norm_line[0].split("norm_series =")[1].split(",")[0])
    if abs(norm - s) > 1e-10 * s:
        errors.append(f"norm_series {norm!r} vs brute force {float(s)!r}")
    got_mass = 0.0
    for n, re_c, im_c in rows:
        got = complex(float(re_c), float(im_c))
        got_mass += abs(got) ** 2
        ref = complex(coeffs.get(int(n), 0) / mp.sqrt(s))
        if abs(got - ref) > 1e-10:
            errors.append(f"c_{n} = {got} vs {ref}")
            break
    if abs(got_mass - 1.0) > 1e-9:
        errors.append(f"coefficients carry mass {got_mass!r}, expected 1")
    return errors


def check_mandel(op: Op, text: str, seed: int) -> list[str]:
    info = op.info
    model = Model.from_argv(op.argv)
    _, rows, _ = _table(text)
    errors = []
    for r, qc, qo in _sample_rows(rows, seed, op.name):
        coeffs, _ = _state_for(model, info["family"], float(r), info.get("mu", 0), info.get("alpha", 0))
        ref = mandel_q(coeffs)
        for label, got in (("closed", qc), ("oracle", qo)):
            if not _close(float(got), ref):
                errors.append(f"Q_{label} at {r}: {got} vs brute force {ref!r}")
    return errors


def check_squeeze(op: Op, text: str, seed: int) -> list[str]:
    info = op.info
    model = Model.from_argv(op.argv)
    _, rows, _ = _table(text)
    errors = []
    for g, xc, pc, xo, po in _sample_rows(rows, seed, op.name):
        z = mp.mpc(0, float(g)) if info["direction"] == "im" else mp.mpf(float(g))
        coeffs, lvl = _state_for(model, info["family"], z, info.get("mu", 0), info.get("alpha", 0))
        x_ref, p_ref = squeeze_xp(model, coeffs, info["kind"], lvl)
        for label, got, ref in (("X_closed", xc, x_ref), ("P_closed", pc, p_ref),
                                ("X_oracle", xo, x_ref), ("P_oracle", po, p_ref)):
            if not _close(float(got), ref):
                errors.append(f"{label} at {g}: {got} vs brute force {ref!r}")
    return errors


CHECKS = {
    "figure": check_figure,
    "moments": check_moments,
    "resolution": check_resolution,
    "verify": check_verify,
    "state": check_state,
    "mandel": check_mandel,
    "squeeze": check_squeeze,
}


def check(op: Op, text: str, seed: int) -> list[str]:
    try:
        return CHECKS[op.kind](op, text, seed)
    except (ValueError, IndexError, KeyError, ArithmeticError) as exc:
        return [f"output could not be checked: {type(exc).__name__}: {exc}"]
