import mpmath as mp
import numpy as np
import pytest

from clext import params_from_beta_bar, validate_params
from clext.measures import MomentProblem, mellin_lists


@pytest.fixture(scope="session")
def fig1_params():
    """lambda = 3 with beta_bar = (4/3, 2/3), i.e. alpha = (3, -3, 0)."""
    return validate_params(3, (3.0, -3.0, 0.0))


@pytest.fixture(scope="session")
def paraboson_params():
    """lambda = 2 with beta_bar_1 = 2 (alpha_0 = 3)."""
    return params_from_beta_bar(2, [2.0])


@pytest.fixture(scope="session")
def undeformed2():
    return validate_params(2, (0.0, 0.0))


def dense(op):
    """The dim x dim matrix of a band operator: op[n, n + offset] = band[n]."""
    m = np.zeros((op.dim, op.dim))
    n = np.arange(op.dim)
    inside = (n + op.offset >= 0) & (n + op.offset < op.dim)
    m[n[inside], n[inside] + op.offset] = op.band[inside]
    return m


def norm_sq(state):
    """sum |c_n|^2 of a 1-D state's coefficients."""
    return float(np.vdot(state.coeffs, state.coeffs).real)


def random_valid_params(rng, lam):
    """Random admissible parameter set: beta_bar_mu drawn in (0.08, 2.5)."""
    tail = rng.uniform(0.08, 2.5, size=lam - 1)
    return params_from_beta_bar(lam, tail)


@pytest.fixture()
def rng():
    # function-scoped: every test sees the same deterministic stream
    # regardless of execution order
    return np.random.default_rng(20260810)


def meijer_weight(params, mu, alpha, y):
    """A * G^{m,0}_{alpha,m}(y | a; b) of the (mu, alpha) Mellin lists, by mpmath
    at 30 digits: the reference for every weight, r = 0 or r > 0."""
    a, b = mellin_lists(params, (mu, alpha))
    with mp.workdps(30):
        amp = mp.exp(MomentProblem(params, (mu, alpha)).log_A)
        return float(amp * mp.meijerg([[], a], [b, []], mp.mpf(y)))


def hausdorff_closed_form(params, mu, alpha, y):
    """The paper's closed r = 0 weight A * h(y) for alpha = 2 or 3, by mpmath.

    With bb(j) = beta_bar(mu + j):
    alpha = 2: (1-y)^(s-1)/Gamma(s) 2F1(bb1-bb3, bb2-bb3; s; 1-y),
        s = bb1+bb2-bb3-1;
    alpha = 3: y^(bb5-bb3) (1-y)^(Z-1)/Gamma(Z)
        F3(bb1-bb4, bb3-bb5; bb2-bb4, bb3-1; Z; 1-y, 1-1/y),
        Z = bb1+bb2+bb3-bb4-bb5-1.
    """
    bb = lambda j: params.beta_bar_at(mu + j)
    with mp.workdps(30):
        y = mp.mpf(y)
        amp = mp.exp(MomentProblem(params, (mu, alpha)).log_A)
        if alpha == 2:
            s = bb(1) + bb(2) - bb(3) - 1
            h = (1 - y) ** (s - 1) / mp.gamma(s) * mp.hyp2f1(bb(1) - bb(3), bb(2) - bb(3), s, 1 - y)
        elif alpha == 3:
            z = bb(1) + bb(2) + bb(3) - bb(4) - bb(5) - 1
            h = y ** (bb(5) - bb(3)) * (1 - y) ** (z - 1) / mp.gamma(z) * mp.appellf3(
                bb(1) - bb(4), bb(3) - bb(5), bb(2) - bb(4), bb(3) - 1, z, 1 - y, 1 - 1 / y
            )
        else:
            raise ValueError(f"no closed form for alpha = {alpha}")
        return float(amp * h)
