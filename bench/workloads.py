"""Seeded operation lists for the three benchmark workloads.

An operation is one `clext` command line, the argv a user would type
after `clext`, plus the facts its check needs.  The same seed gives the
same list.  Seeded parameter draws stay inside ranges where every
command passes its own tolerance with a wide margin and where the route
(and so the cost) of each command does not change with the draw; the
README lists the ranges.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("figures", "moments", "oracle")


@dataclass
class Op:
    """One CLI command and what its output must satisfy."""

    name: str
    argv: list[str]
    kind: str  # figure | moments | resolution | verify | state | mandel | squeeze
    info: dict = field(default_factory=dict)


def alpha_from_beta_bar(beta_bar: tuple[float, ...]) -> tuple[float, ...]:
    """alpha_0..alpha_{lam-1} with beta_mu = lam*bb_mu - mu and beta_0 = 0."""
    lam = len(beta_bar) + 1
    beta = [0.0] + [lam * bb - mu for mu, bb in enumerate(beta_bar, start=1)]
    alpha = [beta[mu + 1] - beta[mu] for mu in range(lam - 1)]
    alpha.append(-beta[lam - 1])
    return tuple(alpha)


def _params_argv(beta_bar) -> list[str]:
    alpha = alpha_from_beta_bar(tuple(beta_bar))
    return ["--lambda", str(len(alpha)), "--alpha", ",".join(repr(a) for a in alpha)]


def _jitter(rng: random.Random, base, width: float) -> tuple[float, ...]:
    return tuple(round(b + rng.uniform(-width, width), 6) for b in base)


def _grid(lo: float, hi: float, n: int) -> str:
    return f"{lo!r}:{hi!r}:{n}"


def figures_ops(rng: random.Random) -> list[Op]:
    """All 15 presets; each grid end moves inward by up to 1 % of its span."""
    from clext.figures import FIGURE_PRESETS

    ops = []
    for fig, job in FIGURE_PRESETS.items():
        lo, hi, n = job.grid
        span = hi - lo
        lo2 = round(lo + rng.uniform(0.0, 0.01) * span, 6)
        hi2 = round(hi - rng.uniform(0.0, 0.01) * span, 6)
        ops.append(
            Op(f"figure {fig}", ["figure", fig, "--grid", _grid(lo2, hi2, n)], "figure",
               {"figure": fig, "grid": (lo2, hi2, n)})
        )
    return ops


# (form, beta_bar base, jitter half-width, mu, cs_alpha)
MOMENT_CASES = (
    ("meijer_m0", (1.5,), 0.1, 0, 0),
    ("meijer_m0", (4 / 3, 2 / 3), 0.02, 0, 0),
    ("meijer_m0", (1.25, 1.75, 1.5), 0.01, 0, 0),
    ("kummer", (4 / 3, 2 / 3), 0.05, 0, 1),
    ("kummer", (1.5, 1.5, 1.5), 0.0, 0, 1),
    ("beta_power", (2.6,), 0.4, 0, 1),
    ("gauss2f1", (1.5, 1.5, 1.25), 0.05, 0, 2),
    ("appell_f3", (1.9, 1.7, 1.5, 0.9, 0.8), 0.0, 0, 3),
)
RESOLUTION_BASE = (4 / 3, 2 / 3)
RESOLUTION_MODES = ("diagonal_alpha0", "eigenstate_diag", "eigenstate_offdiag")


def moments_ops(rng: random.Random) -> list[Op]:
    ops = []
    for form, base, width, mu, alpha in MOMENT_CASES:
        bb = _jitter(rng, base, width)
        argv = ["moments", *_params_argv(bb), "--mu", str(mu), "--cs-alpha", str(alpha)]
        ops.append(Op(f"moments {form} lambda={len(bb) + 1}", argv, "moments",
                      {"form": form, "beta_bar": bb, "mu": mu, "alpha": alpha, "tol": 1e-6}))
    bb = _jitter(rng, RESOLUTION_BASE, 0.05)
    for mode in RESOLUTION_MODES:
        argv = ["resolution", *_params_argv(bb), "--mode", mode]
        ops.append(Op(f"resolution {mode}", argv, "resolution",
                      {"beta_bar": bb, "mode": mode, "tol": 1e-6, "n_max": 6}))
    return ops


# beta_bar bases for lambda = 2, 3, 4 in the oracle workload
ORACLE_BASES = {2: (1.0,), 3: (4 / 3, 2 / 3), 4: (1.5, 1.0, 0.75)}
# sector-family members (mu, alpha) swept at each lambda; alpha < lambda/2
# keeps |z| <= 3 inside each family's domain
SECTOR_FAMILIES = {2: (0, 0), 3: (0, 1), 4: (1, 1)}


def oracle_ops(rng: random.Random) -> list[Op]:
    ops = []
    for lam in (2, 3, 4):
        # the verify suites run at the base point: `verify states` at lambda=4
        # is the slowest operation, so its cost sets op_ms_tail, and draws
        # moved that cost by 10 %
        base = ORACLE_BASES[lam]
        for suite in ("algebra", "states", "observables", "bargmann"):
            argv = ["verify", suite, *_params_argv(base)]
            if suite == "algebra" and lam == 3:
                argv += ["--k", "256"]
            ops.append(Op(f"verify {suite} lambda={lam}", argv, "verify",
                          {"beta_bar": base, "suite": suite}))
        bb = _jitter(rng, base, 0.02)
        pa = _params_argv(bb)
        info = {"beta_bar": bb}
        mu, alpha = SECTOR_FAMILIES[lam]
        # |z| = 2 at a seeded phase: the state's length, and so the cost, stays put
        phase = rng.uniform(-math.pi, math.pi)
        zr, zi = round(2.0 * math.cos(phase), 6), round(2.0 * math.sin(phase), 6)
        ops.append(Op(f"state eigen lambda={lam}", ["state", *pa, "--cs-alpha", "-1",
                                                    "--z-re", repr(zr), "--z-im", repr(zi)],
                      "state", {**info, "family": "eigen", "z": (zr, zi)}))
        ops.append(Op(f"state sector lambda={lam}", ["state", *pa, "--mu", str(mu),
                                                     "--cs-alpha", str(alpha),
                                                     "--z-re", repr(zr), "--z-im", repr(zi)],
                      "state", {**info, "family": "sector", "mu": mu, "alpha": alpha, "z": (zr, zi)}))
        grid = _grid(round(rng.uniform(0.05, 0.1), 6), round(rng.uniform(2.95, 3.0), 6), 40)
        ops.append(Op(f"mandel eigen lambda={lam}", ["mandel", "--family", "eigen", *pa,
                                                     "--grid", grid],
                      "mandel", {**info, "family": "eigen"}))
        ops.append(Op(f"mandel sector lambda={lam}", ["mandel", "--family", "sector", *pa,
                                                      "--mu", str(mu), "--cs-alpha", str(alpha),
                                                      "--grid", grid],
                      "mandel", {**info, "family": "sector", "mu": mu, "alpha": alpha}))
        for kind, direction in (("dressed", "re"), ("real", "im")):
            ops.append(Op(f"squeeze eigen {kind} {direction} lambda={lam}",
                          ["squeeze", "--family", "eigen", "--kind", kind, "--direction", direction,
                           *pa, "--grid", grid],
                          "squeeze", {**info, "family": "eigen", "kind": kind,
                                      "direction": direction}))
        kind = "real" if lam == 2 else "dressed"
        ops.append(Op(f"squeeze sector {kind} lambda={lam}",
                      ["squeeze", "--family", "sector", "--kind", kind, "--direction", "re",
                       *pa, "--mu", str(mu), "--cs-alpha", str(alpha), "--grid", grid],
                      "squeeze", {**info, "family": "sector", "kind": kind, "direction": "re",
                                  "mu": mu, "alpha": alpha}))
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operation list of one workload.

    The order is fixed: shuffling it moved the moments workload's peak
    RSS between 77 and 91 MB with the same operations.
    """
    rng = random.Random(f"{workload}:{seed}")
    return {"figures": figures_ops, "moments": moments_ops, "oracle": oracle_ops}[workload](rng)
