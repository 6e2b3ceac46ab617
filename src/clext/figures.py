"""Figure-data jobs: weight functions, Mandel Q and squeezing ratios on
parameter grids, emitted as deterministic CSV documents.

Each preset names one curve family (figure id 1-8 with a/b panels);
run_figure computes every curve over the grid and returns
the CSV text with '#'-prefixed metadata lines and 12-significant-digit
numbers.  The curves of a Q or X preset are one observable call on the
stack of their algebras; a weight preset evaluates one weight per curve.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraParams, params_from_beta_bar
from .cli import csv_rows


@dataclass(frozen=True)
class Curve:
    beta_bar: tuple[float, ...]
    style: str = ""

    def params(self, lam: int) -> AlgebraParams:
        return params_from_beta_bar(lam, self.beta_bar)


@dataclass(frozen=True)
class FigureJob:
    figure: str  # "1", "2a", .., "8b"
    kind: str  # weight_h1 | weight_h2 | q_sector | q_eigen | x_sector | x_eigen
    lam: int
    curves: tuple[Curve, ...]
    grid_var: str
    grid: tuple[float, float, int]
    options: dict = field(default_factory=dict)

    def grid_values(self) -> np.ndarray:
        lo, hi, n = self.grid
        if n < 2:
            raise ValueError("grid needs at least 2 points")
        return np.linspace(lo, hi, int(n))


FIGURE_PRESETS: dict[str, FigureJob] = {
    "1": FigureJob(
        "1", "weight_h1", 3,
        (Curve((4 / 3, 2 / 3), "solid"), Curve((4 / 3, 4 / 3), "dashed")),
        "y", (0.02, 8.0, 120), {"mu": 0, "alpha": 1},
    ),
    "2a": FigureJob(
        "2a", "weight_h2", 4,
        (
            Curve((1.5, 1.5, 1.25), "solid"),
            Curve((1.5, 1.75, 1.25), "dashed"),
            Curve((1.5, 2.0, 1.25), "dot-dashed"),
        ),
        "y", (0.005, 0.995, 100), {"mu": 0, "alpha": 2},
    ),
    "2b": FigureJob(
        "2b", "weight_h2", 4,
        (
            Curve((1.5, 1.0, 0.75), "solid"),
            Curve((1.5, 1.25, 0.75), "dashed"),
            Curve((1.5, 1.5, 0.75), "dot-dashed"),
        ),
        "y", (0.005, 0.995, 100), {"mu": 0, "alpha": 2},
    ),
    "3a": FigureJob(
        "3a", "q_sector", 3,
        (
            Curve((1 / 3, 2 / 3), "solid"),
            Curve((1.0, 0.1), "dashed"),
            Curve((1.0, 0.01), "dotted"),
            Curve((0.1, 2 / 3), "dot-dashed"),
        ),
        "r", (0.02, 3.0, 100), {"mu": 0, "alpha": 1},
    ),
    "3b": FigureJob(
        "3b", "q_sector", 3,
        (
            Curve((1 / 3, 2 / 3), "solid"),
            Curve((1 / 3, 0.1), "dashed"),
            Curve((1 / 3, 0.02), "dotted"),
            Curve((1 / 3, 2.0), "dot-dashed"),
        ),
        "r", (0.02, 3.0, 100), {"mu": 1, "alpha": 1},
    ),
    "4a": FigureJob(
        "4a", "q_eigen", 2,
        (
            Curve((1 / 90,), "solid"),
            Curve((0.25,), "dashed"),
            Curve((1.0,), "dotted"),
            Curve((10.0,), "dot-dashed"),
        ),
        "r", (0.02, 3.0, 100),
    ),
    "4b": FigureJob(
        "4b", "q_eigen", 3,
        (
            Curve((0.01, 2 / 3), "solid"),
            Curve((1 / 3, 10.0), "dashed"),
            Curve((2 / 3, 0.01), "dotted"),
            Curve((10.0, 1 / 3), "dot-dashed"),
        ),
        "r", (0.02, 3.0, 100),
    ),
    "5a": FigureJob(
        "5a", "x_sector", 2,
        (
            Curve((0.5,), "solid"),
            Curve((0.3,), "dashed"),
            Curve((1.0,), "dotted"),
            Curve((2.0,), "dot-dashed"),
        ),
        "-Re z", (0.02, 3.0, 100), {"mu": 0, "alpha": 0, "squeeze_kind": "dressed"},
    ),
    "5b": FigureJob(
        "5b", "x_sector", 2,
        (
            Curve((0.5,), "solid"),
            Curve((0.3,), "dashed"),
            Curve((1.0,), "dotted"),
            Curve((2.0,), "dot-dashed"),
        ),
        "-Re z", (0.02, 3.0, 100), {"mu": 0, "alpha": 0, "squeeze_kind": "real"},
    ),
    "6a": FigureJob(
        "6a", "x_eigen", 2,
        (
            Curve((10.0,), "solid"),
            Curve((2.0,), "dashed"),
            Curve((0.75,), "dotted"),
            Curve((0.3,), "dot-dashed"),
        ),
        "r", (0.02, 3.0, 100), {"squeeze_kind": "dressed"},
    ),
    "6b": FigureJob(
        "6b", "x_eigen", 3,
        (
            Curve((2.0, 0.05), "solid"),
            Curve((2 / 3, 2 / 3), "dashed"),
            Curve((2.0, 5.0), "dotted"),
            Curve((0.25, 0.125), "dot-dashed"),
        ),
        "r", (0.02, 3.0, 100), {"squeeze_kind": "dressed"},
    ),
    "7a": FigureJob(
        "7a", "x_eigen", 2,
        (
            Curve((0.25,), "solid"),
            Curve((0.1,), "dashed"),
            Curve((0.025,), "dotted"),
            Curve((0.01,), "dot-dashed"),
        ),
        "Re z", (0.02, 3.0, 100), {"squeeze_kind": "real", "direction": "re"},
    ),
    "7b": FigureJob(
        "7b", "x_eigen", 2,
        (
            Curve((1.0,), "solid"),
            Curve((4.0,), "dashed"),
            Curve((10.0,), "dotted"),
            Curve((40.0,), "dot-dashed"),
        ),
        "Im z", (0.02, 3.0, 100), {"squeeze_kind": "real", "direction": "im"},
    ),
    "8a": FigureJob(
        "8a", "x_eigen", 3,
        (
            Curve((0.1, 0.4), "solid"),
            Curve((0.1, 1.0), "dashed"),
            Curve((1.0, 15.0), "dotted"),
            Curve((5.0, 50.0), "dot-dashed"),
        ),
        "Re z", (0.02, 3.0, 100), {"squeeze_kind": "real", "direction": "re"},
    ),
    "8b": FigureJob(
        "8b", "x_eigen", 3,
        (
            Curve((0.1, 0.1), "solid"),
            Curve((1.0, 0.1), "dashed"),
            Curve((5.0, 0.1), "dotted"),
            Curve((5.0, 1.0), "dot-dashed"),
        ),
        "Im z", (0.02, 3.0, 100), {"squeeze_kind": "real", "direction": "im"},
    ),
}


def _values(job: FigureJob, grid: np.ndarray) -> np.ndarray:
    """(curves, points) values of the job's curves on the grid."""
    params = tuple(c.params(job.lam) for c in job.curves)
    kind, opts = job.kind, job.options
    if kind in ("weight_h1", "weight_h2"):
        from .measures import weight_function

        return np.array([weight_function(p, (opts["mu"], opts["alpha"])).evaluate(grid)
                         for p in params], dtype=float)
    if kind not in ("q_sector", "q_eigen", "x_sector", "x_eigen"):
        raise ValueError(f"unknown figure kind {kind!r}")
    from .observables import mandel_q, squeezing

    sector = (opts["mu"], opts["alpha"]) if kind.endswith("sector") else None
    if kind.startswith("q"):
        return mandel_q(params, grid, sector, "closed").mandel_Q
    z = -grid if job.grid_var == "-Re z" else 1j * grid if opts.get("direction") == "im" else grid
    return squeezing(params, z.astype(complex), opts.get("squeeze_kind", "dressed"), sector,
                     "closed").X


def run_figure(job: FigureJob) -> str:
    """Compute all curves of a figure job; returns the CSV document."""
    grid = job.grid_values()
    # Python floats format faster than numpy scalars, to the same text
    cols = _values(job, grid).tolist()
    buf = io.StringIO()
    buf.write(f"# figure: {job.figure}\n")
    buf.write(f"# kind: {job.kind}, lambda = {job.lam}\n")
    for i, c in enumerate(job.curves, 1):
        bb = ", ".join(f"{v:.12g}" for v in c.beta_bar)
        buf.write(f"# curve {i} ({c.style}): beta_bar = ({bb})\n")
    header = [job.grid_var] + [f"curve{i}" for i in range(1, len(cols) + 1)]
    buf.write(",".join(header) + "\n")
    buf.write(csv_rows(",".join(["%.12g"] * (len(cols) + 1)), grid.tolist(), *cols))
    return buf.getvalue()
