import math

import numpy as np
import pytest

from clext import params_from_beta_bar
from clext.algebra import build_operator, structure_function, validate_params
import clext.bargmann as bargmann
import clext.states as states
from clext.algebra import sga_structure_poly
from clext.bargmann import (
    CommutatorRow,
    apply_realization,
    bargmann_transform,
    check_commutators,
    check_hermiticity,
    inner_product,
    intertwining_residual,
)
from clext.cli import main
from clext.errors import NonPolynomialResult, SectorError, ShapeError, UnsupportedOp
from clext.measures import EigenstateMeasures, eigenstate_measures, weight_function
from clext.states import StateVector, cs_alpha_state, eigenstate
from closed_forms import basis_function
from conftest import random_valid_params


def _monomial(k):
    c = np.zeros(k + 1, dtype=complex)
    c[k] = 1.0
    return c


def _per_monomial_commutators(params, basis, k_max):
    """check_commutators as one realization call per generator, monomial and
    (mu, alpha): the reference the stacked check must match bit for bit."""
    lam = params.lam
    rows = []
    if basis == "sector":
        for alpha in range(lam // 2 + 1):
            for mu in range(lam - alpha):
                label = f"sector(mu={mu},alpha={alpha})"

                def ap(op, f):
                    return apply_realization(params, "sector", op, f, (mu, alpha))

                for k in range(k_max + 1):
                    zk = _monomial(k)
                    for sgn, qop in ((1.0, "Jplus"), (-1.0, "Jminus")):
                        q_zk = ap(qop, zk)
                        lhs = ap("J0", q_zk)
                        rhs = ap(qop, ap("J0", zk))
                        diff = np.zeros(max(len(lhs), len(rhs)), dtype=complex)
                        diff[: len(lhs)] += lhs
                        diff[: len(rhs)] -= rhs
                        diff[: len(q_zk)] -= sgn * q_zk
                        scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
                        rows.append(CommutatorRow(label, f"[J0,{qop}]", k,
                                                  float(np.abs(diff).max()) / scale))
                    comm = (ap("Jplus", ap("Jminus", zk))[k]
                            - ap("Jminus", ap("Jplus", zk))[k])
                    f_val = sga_structure_poly(
                        params, k + 0.5 * (params.beta_bar_at(mu) + params.beta_bar_at(mu + 1)), mu)
                    rows.append(CommutatorRow(label, "[J+,J-]", k,
                                              float(abs(comm - f_val) / max(1.0, abs(f_val)))))
        return rows
    for m in range(lam):
        for k in range(k_max + 1):
            n = k * lam + m if basis == "eigenstate" else k
            c = np.zeros((lam, n + 1), dtype=complex)
            c[m, n] = 1.0

            def ap(op, g):
                return apply_realization(params, basis, op, g)

            lhs = ap("a", ap("adag", c))
            rhs = ap("adag", ap("a", c))
            w = max(lhs.shape[1], rhs.shape[1], c.shape[1])
            comm = np.zeros((lam, w), dtype=complex)
            comm[:, : lhs.shape[1]] += lhs
            comm[:, : rhs.shape[1]] -= rhs
            expect = np.zeros((lam, w), dtype=complex)
            expect[:, : c.shape[1]] = c * (1.0 + params.alpha_at(m))
            rows.append(CommutatorRow(basis, "[a,adag]", k, float(np.abs(comm - expect).max())))
    return rows


def _per_component_ops(params, basis, op, c):
    """vector_alpha0 a and adag, eigenstate a and J-, one component at a time
    and restacked into one (.., lambda, width) array: the reference the row
    operations over all components must equal bit for bit."""
    lam = params.lam
    bb, beta = params.beta_bar_at, params.beta_at
    prod = math.prod(bb(nu) for nu in range(1, lam))
    if (basis, op) == ("vector_alpha0", "adag"):
        rows = [bargmann._atom_mul_z(c[..., lam - 1, :]) / math.sqrt(lam ** (lam - 1) * prod)]
        rows += [math.sqrt(lam * bb(mu)) * c[..., mu - 1, :] for mu in range(1, lam)]
    elif (basis, op) == ("vector_alpha0", "a"):
        rows = [math.sqrt(lam / bb(mu + 1))
                * bargmann._atom_theta_plus(c[..., mu + 1, :], bb(mu + 1)) for mu in range(lam - 1)]
        rows.append(math.sqrt(lam ** (lam + 1) * prod) * bargmann._atom_ddz(c[..., 0, :]))
    elif (basis, op) == ("eigenstate", "a"):
        rows = [bargmann._atom_ddz_plus_over_z(c[..., mu + 1, :], beta(mu + 1))
                for mu in range(lam - 1)]
        rows.append(bargmann._atom_ddz(c[..., 0, :]))
    else:
        rows = []
        for mu in range(lam):
            row = c[..., mu, :]
            for nu in range(mu, 0, -1):
                row = bargmann._atom_ddz_plus_over_z(row, beta(nu))
            row = bargmann._atom_ddz(row)
            for nu in range(lam - 1, mu, -1):
                row = bargmann._atom_ddz_plus_over_z(row, beta(nu))
            rows.append(row / lam)
    width = max(r.shape[-1] for r in rows)
    return np.stack([bargmann._widen(r, width) for r in rows], axis=-2)


def _fock(params, amps, dim=48):
    c = np.zeros(dim, dtype=complex)
    for n, a in amps.items():
        c[n] = a
    return StateVector(dim, c, 1.0, 0.0)


class TestRealizations:
    def test_j0_on_monomial(self, fig1_params):
        p = fig1_params
        for mu, alpha, k in [(0, 1, 3), (1, 1, 2), (2, 0, 4)]:
            out = apply_realization(p, "sector", "J0", _monomial(k), (mu, alpha))
            expect = k + 0.5 * (p.beta_bar_at(mu) + p.beta_bar_at(mu + 1))
            assert out[k] == pytest.approx(expect, rel=1e-14)

    def test_perelomov_jminus_is_derivative(self, paraboson_params):
        # lambda = 2, alpha = 1, mu = 0: J- = d/dz
        out = apply_realization(paraboson_params, "sector", "Jminus", _monomial(3), (0, 1))
        assert out[2] == pytest.approx(3.0)
        assert np.abs(out[:2]).max() == 0.0

    def test_barut_girardello_jplus_is_half_z(self, paraboson_params):
        # lambda = 2, alpha = 0: J+ = z/2 in every sector
        for mu in (0, 1):
            out = apply_realization(paraboson_params, "sector", "Jplus", _monomial(2), (mu, 0))
            assert out[3] == pytest.approx(0.5)

    def test_number_operator(self, fig1_params):
        out = apply_realization(fig1_params, "sector", "N", _monomial(2), (1, 0))
        assert out[2] == pytest.approx(3 * 2 + 1)

    def test_unsupported_op_in_sector(self, fig1_params):
        with pytest.raises(UnsupportedOp):
            apply_realization(fig1_params, "sector", "a", _monomial(1), (0, 0))

    def test_pole_cancellation_guard(self, fig1_params):
        # component 1 holding a constant is an invalid sector function for a
        bad = np.array([[0.0], [1.0], [0.0]], dtype=complex)
        with pytest.raises(NonPolynomialResult):
            apply_realization(fig1_params, "eigenstate", "a", bad)

    def test_pole_guard_is_per_row(self, fig1_params):
        # each row of a stack is held to its own scale; the message names the bad row
        good = np.zeros((3, 1), dtype=complex)
        good[2, 0] = 1.0
        stack = np.stack([good, [[0.0], [1.0], [0.0]], 1e20 * good])
        with pytest.raises(NonPolynomialResult, match="of row 1 "):
            apply_realization(fig1_params, "eigenstate", "a", stack)
        out = apply_realization(fig1_params, "eigenstate", "a", stack[[0, 2]])
        assert out.shape == (2, 3, 1)

    @pytest.mark.parametrize("basis, op", [("sector", "Jminus"), ("sector", "Jplus"),
                                           ("vector_alpha0", "a"), ("vector_alpha0", "J0"),
                                           ("eigenstate", "a"), ("eigenstate", "J0")])
    def test_stack_rows_equal_single_calls(self, rng, basis, op):
        # a stack of polynomials maps row by row to exactly its single-call results
        p = random_valid_params(rng, 4)
        shape = (5, 7) if basis == "sector" else (5, 4, 7)
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if basis == "eigenstate":
            c[:, 1:, 0] = 0.0  # components mu >= 1 vanish at z = 0
        sector = (1, 1) if basis == "sector" else None
        stacked = apply_realization(p, basis, op, c, sector)
        for row, cr in zip(stacked, c):
            single = apply_realization(p, basis, op, cr, sector)
            assert np.array_equal(row, single)

    def test_member_array_takes_one_row_per_member(self, fig1_params):
        # three members of family 0 take a (3, width) stack, not one polynomial
        # whose coefficients would each meet another member's constant
        c = np.eye(3, dtype=complex)
        sector = (np.arange(3), 0)
        out = apply_realization(fig1_params, "sector", "J0", c, sector)
        for mu in range(3):
            assert np.array_equal(out[mu], apply_realization(fig1_params, "sector", "J0", c[mu], (mu, 0)))
        for bad in (c[0], c[:2]):
            with pytest.raises(ShapeError, match="^3 members take one leading row of c each"):
                apply_realization(fig1_params, "sector", "J0", bad, sector)

    @pytest.mark.parametrize("lam", [2, 3, 4, 5, 6])
    def test_component_rows_equal_per_component_loops(self, rng, lam):
        # the components as rows of one array operation: the same bits as one
        # component at a time, for stacks of any width
        p = random_valid_params(rng, lam)
        for width in (1, 2, lam + 1, 3 * lam + 2):
            shape = (3, 2, lam, width)
            c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for basis, ops in (("vector_alpha0", ("a", "adag")), ("eigenstate", ("a", "Jminus"))):
                if basis == "eigenstate":
                    # component m holds the levels n = m (mod lambda)
                    c[..., np.arange(lam)[:, None] != np.arange(width) % lam] = 0.0
                for op in ops:
                    got = apply_realization(p, basis, op, c)
                    want = _per_component_ops(p, basis, op, c)
                    assert got.shape == want.shape and (got == want).all(), (basis, op, width)

    def test_vector_bases_need_lambda_components(self, fig1_params):
        # axis -2 of a vector-basis array holds the lambda = 3 components
        for basis in ("vector_alpha0", "eigenstate"):
            for shape in ((4,), (2, 4), (3, 4, 4)):
                with pytest.raises(SectorError, match="3 components on axis -2"):
                    apply_realization(fig1_params, basis, "a", np.ones(shape))

    def test_inner_product_needs_lambda_components(self, fig1_params):
        # a (1, 4) array at lambda = 3, on either side of the Gram product, is
        # refused with apply_realization's SectorError, not numpy's shape error
        meas = eigenstate_measures(fig1_params)
        short, good = np.ones((1, 4)), np.ones((3, 4))
        for basis in ("vector_alpha0", "eigenstate"):
            with pytest.raises(SectorError) as want:
                apply_realization(fig1_params, basis, "a", short)
            for f, g in ((short, good), (good, short)):
                with pytest.raises(SectorError) as got:
                    inner_product(basis, meas, f, g)
                assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("basis", ["vector_alpha0", "eigenstate"])
    def test_projector_needs_its_sector(self, fig1_params, basis):
        with pytest.raises(ShapeError) as want:
            build_operator(fig1_params, "P", 8)
        with pytest.raises(ShapeError) as got:
            apply_realization(fig1_params, basis, "P", np.ones((3, 4)))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("mu, alpha", [(5, 0), (0, 2), (2, 1), (-1, 0), (0, -1), (0.5, 1), (1, 0.5)])
    def test_sector_outside_the_family_is_refused(self, mu, alpha):
        # lambda = 3: refused where it enters, with the message of cs_alpha_state
        p = validate_params(3, (1.0, 0.0, -1.0))
        with pytest.raises(SectorError) as want:
            cs_alpha_state(p, 0.5, (mu, alpha))
        psi = _fock(p, {0: 0.5, 1: 0.3, 4: 0.2}, dim=12)
        for call in (lambda: bargmann_transform(p, psi, "sector", (mu, alpha)),
                     lambda: apply_realization(p, "sector", "J0", _monomial(2), (mu, alpha)),
                     lambda: intertwining_residual(p, "sector", "N", psi, (mu, alpha))):
            with pytest.raises(SectorError) as got:
                call()
            assert str(got.value) == str(want.value)


class TestBasisFunctions:
    def test_k0_is_one(self, fig1_params):
        f = basis_function(fig1_params, 1, 1, 0)
        assert f[0] == pytest.approx(1.0)

    def test_perelomov_k1(self, paraboson_params):
        bb1 = paraboson_params.beta_bar[1]
        f = basis_function(paraboson_params, 0, 1, 1)
        assert f[1] == pytest.approx(math.sqrt(bb1))

    def test_orthonormal_under_weight(self, paraboson_params):
        w = weight_function(paraboson_params, (0, 1))
        for k in range(5):
            fk = basis_function(paraboson_params, 0, 1, k)
            assert inner_product("sector", w, fk, fk).real == pytest.approx(1.0, rel=1e-8)
        f0 = basis_function(paraboson_params, 0, 1, 0)
        f2 = basis_function(paraboson_params, 0, 1, 2)
        assert abs(inner_product("sector", w, f0, f2)) == 0.0

    def test_angular_orthogonality(self, paraboson_params):
        w = weight_function(paraboson_params, (0, 1))
        one = np.array([1.0], dtype=complex)
        z = np.array([0.0, 1.0], dtype=complex)
        assert inner_product("sector", w, one, z) == 0.0


def _per_member_sector_commutators(params, k_max):
    """The sector rows of check_commutators as one _apply_sector call per
    generator and member (mu, alpha), on the stack of monomials z^0..z^k_max:
    the reference the family-grouped check must equal."""
    lam = params.lam
    k = np.arange(k_max + 1)
    zk = np.eye(k_max + 1, dtype=complex)
    rows = []
    for alpha in range(lam // 2 + 1):
        for mu in range(lam - alpha):

            def ap(op, c):
                return bargmann._apply_sector(params, [mu], alpha, op, c[None])[0]

            j0_zk = ap("J0", zk)
            q_zk, res = {}, {}
            for sgn, qop in ((1.0, "Jplus"), (-1.0, "Jminus")):
                q_zk[qop] = ap(qop, zk)
                lhs = ap("J0", q_zk[qop])
                rhs = ap(qop, j0_zk)
                diff = np.abs(lhs - rhs - sgn * q_zk[qop]).max(axis=-1)
                scale = np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=-1),
                                                   np.abs(rhs).max(axis=-1)))
                res[f"[J0,{qop}]"] = diff / scale
            comm = (np.diagonal(ap("Jplus", q_zk["Jminus"]))
                    - np.diagonal(ap("Jminus", q_zk["Jplus"])))
            j0_eig = k + 0.5 * (params.beta_bar_at(mu) + params.beta_bar_at(mu + 1))
            f_val = sga_structure_poly(params, j0_eig, mu)
            res["[J+,J-]"] = np.abs(comm - f_val) / np.maximum(1.0, np.abs(f_val))
            rows += [CommutatorRow(f"sector(mu={mu},alpha={alpha})", pair, i, float(r[i]))
                     for i in range(k_max + 1) for pair, r in res.items()]
    return rows


class TestCommutators:
    @pytest.mark.parametrize("lam", [2, 3, 4, 5, 6])
    def test_sector_identities(self, rng, lam):
        p = random_valid_params(rng, lam)
        rows = check_commutators(p, "sector", k_max=12)
        worst = max(r.residual for r in rows)
        assert worst < 1e-10

    @pytest.mark.parametrize("basis", ["vector_alpha0", "eigenstate"])
    def test_ladder_commutator(self, rng, basis):
        for lam in (2, 3, 4, 5, 6):
            p = random_valid_params(rng, lam)
            rows = check_commutators(p, basis, k_max=12)
            worst = max(r.residual for r in rows)
            assert worst < 1e-12

    @pytest.mark.parametrize("basis", ["sector", "vector_alpha0", "eigenstate"])
    @pytest.mark.parametrize("lam", [2, 3, 4, 5, 6])
    def test_stacked_rows_equal_per_monomial_rows(self, rng, basis, lam):
        # same rows in the same order, residuals equal to the last bit
        for _ in range(2):
            p = random_valid_params(rng, lam)
            assert check_commutators(p, basis, k_max=7) == _per_monomial_commutators(p, basis, 7)

    @pytest.mark.parametrize("lam", [2, 3, 4, 5, 6])
    def test_family_rows_equal_per_member_rows(self, rng, lam):
        # one application per generator and family alpha: the same rows, in
        # the same order, as one per member
        for _ in range(2):
            p = random_valid_params(rng, lam)
            assert check_commutators(p, "sector", k_max=6) == _per_member_sector_commutators(p, 6)

    @pytest.mark.parametrize("op", ["N", "J0", "Jplus", "Jminus"])
    def test_member_column_is_each_members_application(self, rng, op):
        p = random_valid_params(rng, 5)
        for alpha in range(3):
            mus = np.arange(5 - alpha)
            c = rng.normal(size=(len(mus), 3, 6)) + 1j * rng.normal(size=(len(mus), 3, 6))
            out = bargmann._apply_sector(p, mus, alpha, op, c)
            for mu in mus:
                assert np.array_equal(out[mu], bargmann._apply_sector(p, [mu], alpha, op, c[mu][None])[0])

    def test_verify_bargmann_builds_each_members_lists_once(self):
        # lambda = 4 has 9 members (mu, alpha): 4 of family 0, 3 of 1 and 2 of 2;
        # each member's lists are built once, in the one cache of states, which
        # the realizations read once apply_realization has checked the family
        states._cached_lists.cache_clear()
        assert main(["verify", "bargmann", "--lambda", "4", "--alpha", "1,2,-1,-2"]) == 0
        assert states._cached_lists.cache_info().misses == 9

    @pytest.mark.parametrize("basis", ["sector", "vector_alpha0", "eigenstate"])
    def test_negative_k_max_is_refused(self, fig1_params, basis):
        with pytest.raises(ValueError, match="^k_max must be >= 0, got -1$"):
            check_commutators(fig1_params, basis, k_max=-1)

    @pytest.mark.parametrize("basis", ["sector", "vector_alpha0", "eigenstate"])
    def test_realization_calls_do_not_grow_with_k_max(self, monkeypatch, fig1_params, basis):
        counts = {}
        names = ("apply_realization", "_apply_sector", "_apply_vector_alpha0", "_apply_eigenstate")
        for name in names:
            fn = getattr(bargmann, name)

            def counted(*args, _fn=fn, **kwargs):
                counts["calls"] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(bargmann, name, counted)
        per_k_max = []
        for k_max in (5, 12):
            counts["calls"] = 0
            check_commutators(fig1_params, basis, k_max=k_max)
            per_k_max.append(counts["calls"])
        assert per_k_max[0] == per_k_max[1] > 0


class TestIntertwining:
    @pytest.mark.parametrize("op", ["N", "J0", "Jplus", "Jminus"])
    def test_sector_ops(self, fig1_params, op):
        p = fig1_params
        for mu, alpha in [(0, 1), (1, 1), (2, 0)]:
            psi = _fock(p, {mu: 0.8, 3 + mu: -0.4 + 0.2j, 9 + mu: 0.1})
            res = intertwining_residual(p, "sector", op, psi, (mu, alpha))
            assert res < 1e-12

    @pytest.mark.parametrize("op", ["a", "adag", "N", "Jplus", "Jminus", "J0"])
    @pytest.mark.parametrize("basis", ["vector_alpha0", "eigenstate"])
    def test_vector_ops(self, rng, op, basis):
        for lam in (2, 3):
            p = random_valid_params(rng, lam)
            psi = _fock(p, {0: 0.5, 1: 0.3 - 0.1j, 2: -0.2, 5: 0.15, 7: 0.08j})
            res = intertwining_residual(p, basis, op, psi)
            assert res < 1e-12

    def test_projector(self, fig1_params):
        psi = _fock(fig1_params, {0: 0.5, 1: 0.3, 2: -0.2, 4: 0.1})
        for mu in range(3):
            res = intertwining_residual(fig1_params, "vector_alpha0", "P", psi, mu_op=mu)
            assert res < 1e-14

    @pytest.mark.parametrize("basis, sector", [("sector", (1, 1)), ("sector", (np.arange(2), 1)),
                                               ("vector_alpha0", None), ("eigenstate", None)])
    def test_stacked_transform_is_each_states_transform(self, rng, fig1_params, basis, sector):
        # the leading axes of the coefficients are a stack: each state's image
        # is its own transform, bit for bit; a built family of states (one row
        # per z) and a (2, 3) stack of random ones
        p = fig1_params
        built = eigenstate(p, np.array([0.3, 0.9 + 0.4j, 1.7j]), 16)
        coeffs = rng.normal(size=(2, 3, 13)) + 1j * rng.normal(size=(2, 3, 13))
        for psi in (built, StateVector(13, coeffs, np.ones((2, 3)), np.zeros((2, 3)))):
            stacked = bargmann_transform(p, psi, basis, sector)
            for i in np.ndindex(psi.coeffs.shape[:-1]):
                one = bargmann_transform(p, _fock(p, dict(enumerate(psi.coeffs[i])), psi.dim), basis, sector)
                assert stacked[i].shape == one.shape and stacked[i].tobytes() == one.tobytes()

    def test_transform_maps_number_state_to_basis_function(self, fig1_params):
        p = fig1_params
        for mu, alpha, k in [(0, 1, 2), (1, 0, 3)]:
            psi = _fock(p, {k * 3 + mu: 1.0})
            f = bargmann_transform(p, psi, "sector", (mu, alpha))
            ref = basis_function(p, mu, alpha, k)
            assert f[k] == pytest.approx(ref[k], rel=1e-13)


class TestHermiticity:
    def test_sector_quadrature(self, paraboson_params, fig1_params):
        for p, mu, alpha, tol in [
            (paraboson_params, 0, 0, 1e-7),
            (paraboson_params, 0, 1, 1e-7),
            (fig1_params, 0, 1, 1e-6),
        ]:
            w = weight_function(p, (mu, alpha))
            rows = check_hermiticity(p, "sector", w)
            scale = max(max(abs(r.lhs), abs(r.rhs), 1.0) for r in rows)
            assert max(r.residual for r in rows) < tol * scale

    def test_trivial_pair_is_zero(self, paraboson_params):
        w = weight_function(paraboson_params, (0, 1))
        one = np.array([1.0], dtype=complex)
        jp = apply_realization(paraboson_params, "sector", "Jplus", one, (0, 1))
        jm = apply_realization(paraboson_params, "sector", "Jminus", one, (0, 1))
        assert inner_product("sector", w, jp, one) == 0.0
        assert np.abs(jm).max() == 0.0

    def test_vector_adjoint_pair(self, paraboson_params, fig1_params):
        for p in (paraboson_params, fig1_params):
            # each alpha = 0 weight built on its own, not by the family call
            meas = EigenstateMeasures(p, [weight_function(p, (m, 0)) for m in range(p.lam)])
            rows = check_hermiticity(p, "vector_alpha0", meas)
            scale = max(max(abs(r.lhs), abs(r.rhs), 1.0) for r in rows)
            assert max(r.residual for r in rows) < 2e-6 * scale


    @pytest.mark.parametrize("beta_bar", [(2.0,), (4 / 3, 2 / 3), (1.5, 1.0, 0.75)])
    def test_eigenstate_adjoint_pair(self, beta_bar):
        # adag and a are adjoint under the eigenstate measures h_mu, whose
        # alpha = 0 weights give the vector basis the same pair
        p = params_from_beta_bar(len(beta_bar) + 1, beta_bar)
        meas = eigenstate_measures(p)
        for basis in ("eigenstate", "vector_alpha0"):
            rows = check_hermiticity(p, basis, meas)
            assert len(rows) == (3 * p.lam) ** 2
            scale = max(max(abs(r.lhs), abs(r.rhs), 1.0) for r in rows)
            assert max(r.residual for r in rows) < 1e-10 * scale

    @pytest.mark.parametrize("basis", ["sector", "vector_alpha0", "eigenstate"])
    def test_generators_act_once_whatever_the_degree(self, monkeypatch, fig1_params, basis):
        calls = []
        original = bargmann.apply_realization

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(bargmann, "apply_realization", counted)
        meas = eigenstate_measures(fig1_params)
        measure = meas.weights[0] if basis == "sector" else meas
        per_degree = []
        for degree in (1, 4):
            calls.clear()
            monkeypatch.setattr(bargmann, "SAMPLE_DEGREE", degree)
            check_hermiticity(fig1_params, basis, measure)
            per_degree.append(sorted(calls))
        ops = ["J0", "J0", "Jminus", "Jplus"] if basis == "sector" else ["a", "adag"]
        assert per_degree == [ops, ops]

    def test_unknown_basis(self, fig1_params):
        with pytest.raises(UnsupportedOp):
            check_hermiticity(fig1_params, "polar", weight_function(fig1_params, (0, 0)))


def _loop_inner_product(basis, measure, f, g):
    """<f, g> of two polynomials as a sum over their coefficients, one scalar
    moment per term: pi scale^(k+1) M(k) in each component."""
    if basis == "sector":
        f, g, weights = f[None], g[None], [measure]
    else:
        weights = measure.weights
    lam = weights[0].problem.params.lam
    total = 0.0
    for m, (fm, gm) in enumerate(zip(f, g)):
        for k in range(min(len(fm), len(gm))):
            if fm[k] == 0 or gm[k] == 0:
                continue
            if basis == "eigenstate":
                moment = lam ** (k + 1) * measure.h_moment(m, float(k))
            else:
                problem = weights[m].problem
                scale = lam ** problem.r
                moment = scale ** (k + 1) * weights[m].moment(float(k))[0]
            total += np.conj(fm[k]) * gm[k] * math.pi * moment
    return complex(total)


class TestInnerProduct:
    @pytest.mark.parametrize("basis", ["sector", "vector_alpha0", "eigenstate"])
    def test_gram_of_stacks_is_every_pair(self, rng, fig1_params, basis):
        # one product over two stacks holds each pair's own inner product, and
        # that is the sum over its coefficients with one moment per term
        meas = eigenstate_measures(fig1_params)
        measure = meas.weights[1] if basis == "sector" else meas
        shape = (4, 5) if basis == "sector" else (4, 3, 7)
        f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        g = rng.normal(size=(2, *shape[1:-1], 6)) + 1j * rng.normal(size=(2, *shape[1:-1], 6))
        if basis == "eigenstate":
            # component m holds the levels n = m (mod 3)
            for c in (f, g):
                n = np.arange(c.shape[-1])
                c[:, np.arange(3)[:, None] != n % 3] = 0.0
        gram = inner_product(basis, measure, f, g)
        assert gram.shape == (4, 2)
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                one = inner_product(basis, measure, fi, gj)
                assert one.shape == ()
                assert gram[i, j] == pytest.approx(complex(one), rel=1e-13)
                loop = _loop_inner_product(basis, measure, fi, gj)
                assert gram[i, j] == pytest.approx(loop, rel=1e-13)
                # conjugate symmetry <g, f> = conj <f, g>
                back = inner_product(basis, measure, gj, fi)
                assert complex(back) == pytest.approx(np.conj(one), rel=1e-13)

    @pytest.mark.parametrize("basis", ["vector_alpha0", "eigenstate"])
    def test_number_states_are_orthonormal(self, fig1_params, basis):
        # the transforms of |0>..|11> as one stack: their Gram matrix is the identity
        p = fig1_params
        meas = eigenstate_measures(p)
        dim = 12
        images = bargmann_transform(p, StateVector(dim, np.eye(dim), np.ones(dim), np.zeros(dim)), basis)
        gram = inner_product(basis, meas, images, images)
        assert np.abs(gram - np.eye(dim)).max() < 1e-9

    def test_eigenstate_table_reads_only_its_levels(self, monkeypatch, fig1_params):
        # one h_mu moment call per component, at the levels n = mu (mod lambda),
        # n >= mu, where the order (n - mu) / lambda is not negative
        meas = eigenstate_measures(fig1_params)
        seen = []
        original = meas.h_moment

        def recorded(mu, n):
            seen.append((mu, np.asarray(n).tolist()))
            return original(mu, n)

        monkeypatch.setattr(meas, "h_moment", recorded)
        f = np.ones((3, 8), dtype=complex)
        inner_product("eigenstate", meas, f, f)
        assert seen == [(0, [0, 3, 6]), (1, [1, 4, 7]), (2, [2, 5])]


class TestEigenstateBasis:
    def test_transform_reproduces_unnormalized_evaluation(self, fig1_params):
        # psi(z) component mu at a point must equal <(z*|| psi> restricted
        p = fig1_params
        z0 = 0.9 + 0.4j
        st = eigenstate(p, 0.7, 48)
        f = bargmann_transform(p, st, "eigenstate")
        # reconstruct <(z0*)|| psi> by direct summation of c_n z^n / sqrt(prod F(1..n))
        fock_sq = [1.0]
        for n in range(1, 48):
            fock_sq.append(fock_sq[-1] * structure_function(p, n))
        for mu in range(3):
            direct = sum(
                st.coeffs[n] * z0**n / math.sqrt(fock_sq[n]) for n in range(mu, 48, 3)
            )
            poly = np.polyval(f[mu][::-1], z0)
            assert poly == pytest.approx(direct, rel=1e-12)

    def test_d_conjugation(self, rng):
        # eigenstate-basis ops equal D(z) (vector ops in omega) D(z)^{-1}
        for lam in (2, 3):
            p = random_valid_params(rng, lam)
            for op in ("a", "adag", "N"):
                for m in range(lam):
                    for k in (0, 1, 2):
                        n = k * lam + m
                        col = np.zeros((lam, n + 1), dtype=complex)
                        col[m, n] = 1.0
                        lhs = apply_realization(p, "eigenstate", op, col)
                        # conjugate route: scale into the omega variable
                        dm = np.zeros((lam, k + 1), dtype=complex)
                        pref = lam ** (m / 2.0)
                        for nu in range(1, m + 1):
                            pref *= math.sqrt(p.beta_bar_at(nu))
                        dm[m, k] = pref
                        rhs_v = apply_realization(p, "vector_alpha0", op, dm)
                        # map back: component nu, omega^j -> z^{j lam + nu} * D_nu
                        width = lhs.shape[1]
                        rhs = np.zeros((lam, width + lam), dtype=complex)
                        for nu in range(lam):
                            scale = lam ** (-nu / 2.0)
                            for j2 in range(1, nu + 1):
                                scale /= math.sqrt(p.beta_bar_at(j2))
                            for j, cj in enumerate(rhs_v[nu]):
                                tgt = j * lam + nu
                                if abs(cj) > 0:
                                    rhs[nu, tgt] += cj * scale
                        w = max(width, rhs.shape[1])
                        a_pad = np.zeros((lam, w), complex)
                        b_pad = np.zeros((lam, w), complex)
                        a_pad[:, :width] = lhs
                        b_pad[:, : rhs.shape[1]] = rhs
                        assert np.abs(a_pad - b_pad).max() < 1e-12

    def test_eigenstate_inner_product_orthonormality(self, paraboson_params):
        p = paraboson_params
        meas = eigenstate_measures(p)
        for n in range(4):
            psi = _fock(p, {n: 1.0}, dim=16)
            f = bargmann_transform(p, psi, "eigenstate")
            val = inner_product("eigenstate", meas, f, f)
            assert val.real == pytest.approx(1.0, rel=1e-7)


class TestWeightODE:
    """The sector weights satisfy the Meijer-G differential equation

    [(-1)^alpha prod_{nu=mu+1}^{mu+alpha}(theta - bb_nu + 2)
     - (-1)^(lam-alpha) d/dy prod_{nu=1}^{mu}(theta - bb_nu)
       prod_{nu=mu+alpha+1}^{lam-1}(theta - bb_nu + 1)] h(y) = 0,

    theta = y d/dy, checked here by finite differences at sample points.
    """

    @staticmethod
    def _ode_residual(params, mu, alpha, w, y0, h=4e-3):
        lam = params.lam
        bb = params.beta_bar_at
        # sample h on a stencil wide enough for the nested derivatives
        n_ops = max(alpha, lam - alpha - 1 + 1)
        width = n_ops + 2
        grid = y0 + h * np.arange(-width, width + 1)
        vals = np.asarray(w.evaluate(grid), dtype=float)

        def ddy(f):
            # 5-point central derivative, shrinking the stencil by 2
            return (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)

        def theta_plus(f, ys, c):
            d = ddy(f)
            return ys[2:-2] * d + c * f[2:-2], ys[2:-2]

        # left branch: (-1)^alpha prod (theta - bb_nu + 2)
        f, ys = vals, grid
        for nu in range(mu + alpha, mu, -1):
            f, ys = theta_plus(f, ys, 2.0 - bb(nu))
        left = (-1.0) ** alpha * f
        # right branch: (-1)^(lam-alpha) d/dy prod(theta - bb_nu) prod(theta - bb_nu + 1)
        g, ys2 = vals, grid
        for nu in range(lam - 1, mu + alpha, -1):
            g, ys2 = theta_plus(g, ys2, 1.0 - bb(nu))
        for nu in range(mu, 0, -1):
            g, ys2 = theta_plus(g, ys2, -bb(nu))
        g = ddy(g)
        right = (-1.0) ** (lam - alpha) * g
        k = (len(left) - len(right)) // 2
        if k > 0:
            left = left[k:-k] if k else left
        mid_l = left[len(left) // 2]
        mid_r = right[len(right) // 2]
        scale = max(abs(mid_l), abs(mid_r), float(np.abs(vals).max()))
        return abs(mid_l - mid_r) / scale

    def test_perelomov_weight_satisfies_ode(self, paraboson_params):
        w = weight_function(paraboson_params, (0, 1))
        for y0 in (0.25, 0.5, 0.75):
            assert self._ode_residual(paraboson_params, 0, 1, w, y0) < 1e-6

    def test_fig1_weight_satisfies_ode(self, fig1_params):
        w = weight_function(fig1_params, (0, 1))
        for y0 in (0.5, 1.5, 3.0):
            assert self._ode_residual(fig1_params, 0, 1, w, y0) < 1e-5

    def test_alpha0_weight_satisfies_ode(self, paraboson_params):
        w = weight_function(paraboson_params, (0, 0))
        for y0 in (0.5, 2.0):
            assert self._ode_residual(paraboson_params, 0, 0, w, y0) < 1e-5
