import math

import numpy as np
import pytest

from clext import (
    build_operator,
    energy_eigenvalue,
    params_from_beta_bar,
    sga_structure_poly,
    structure_function,
    validate_params,
)
from clext.algebra import OPERATOR_KINDS
from clext.errors import (
    NonFiniteParameter,
    PositivityViolation,
    ShapeError,
    TruncationTooSmall,
    ZeroSumViolation,
)
from clext.states import log_weights
from conftest import dense, random_valid_params


class TestValidate:
    def test_fig1_parameters(self):
        p = validate_params(3, (3, -3, 0))
        assert p.beta_bar == pytest.approx((0.0, 4 / 3, 2 / 3))

    def test_harmonic_limit(self):
        p = validate_params(2, (0.0, 0.0))
        assert p.beta_bar == (0.0, 0.5)

    def test_positivity_violation(self):
        with pytest.raises(PositivityViolation) as err:
            validate_params(2, (-1.5, 1.5))
        assert err.value.mu == 1

    def test_zero_sum(self):
        with pytest.raises(ZeroSumViolation):
            validate_params(2, (0.1, 0.0))

    @pytest.mark.parametrize(
        "alpha", [(math.nan, 0.0), (math.inf, -math.inf), (1.0, -1.0, math.nan)]
    )
    def test_non_finite_rejected(self, alpha):
        with pytest.raises(NonFiniteParameter):
            validate_params(len(alpha), alpha)

    def test_shape(self):
        with pytest.raises(ShapeError):
            validate_params(3, (1.0, -1.0))
        with pytest.raises(ShapeError):
            validate_params(1, (0.0,))

    def test_cyclic_accessors(self):
        p = validate_params(3, (3, -3, 0))
        assert p.alpha_at(4) == p.alpha[1]
        assert p.beta_bar_at(3) == pytest.approx(1.0)  # one full cycle adds 1
        assert p.beta_bar_at(4) == pytest.approx(p.beta_bar[1] + 1.0)

    def test_params_from_beta_bar_roundtrip(self):
        p = params_from_beta_bar(4, [1.5, 1.5, 1.25])
        assert p.alpha == pytest.approx((5.0, -1.0, -2.0, -2.0))


class TestStructureFunction:
    def test_examples(self):
        p2 = validate_params(2, (3, -3))
        assert structure_function(p2, 1) == pytest.approx(4.0)  # lam * bb_1
        p3 = validate_params(3, (3, -3, 0))
        assert structure_function(p3, 4) == pytest.approx(7.0)
        assert structure_function(p3, 0) == 0.0

    def test_f_mu_positive(self, rng):
        for lam in (2, 3, 4):
            p = random_valid_params(rng, lam)
            for mu in range(1, lam):
                assert structure_function(p, mu) == pytest.approx(lam * p.beta_bar[mu])
                assert structure_function(p, mu) > 0


class TestEnergies:
    def test_harmonic_oscillator(self):
        p = validate_params(2, (0.0, 0.0))
        for n in range(6):
            assert energy_eigenvalue(p, n) == pytest.approx(n + 0.5)

    def test_fig1_ground_state(self):
        p = validate_params(3, (3, -3, 0))
        assert energy_eigenvalue(p, 0) == pytest.approx(2.0)

    def test_harmonic_spacing_within_sector(self, rng):
        for lam in (2, 3, 4):
            p = random_valid_params(rng, lam)
            for mu in range(lam):
                for k in range(4):
                    gap = energy_eigenvalue(p, (k + 1) * lam + mu) - energy_eigenvalue(p, k * lam + mu)
                    assert gap == pytest.approx(lam, rel=1e-14)


class TestOperators:
    def test_harmonic_a_matrix(self):
        p = validate_params(2, (0.0, 0.0))
        a = build_operator(p, "a", 4)
        band = np.array([dense(a)[n - 1, n] for n in range(1, 4)])
        assert band == pytest.approx(np.sqrt([1.0, 2.0, 3.0]))

    def test_h0_diagonal_example(self):
        p = validate_params(2, (3, -3))
        h0 = build_operator(p, "H0", 4)
        expect = [energy_eigenvalue(p, n) for n in range(4)]
        assert np.diag(dense(h0)).real == pytest.approx(expect)
        # E_{2k+mu} = 2k + mu + gamma_mu + 1/2
        assert expect[0] == pytest.approx(p.gamma(0) + 0.5)

    def test_jplus_band_structure(self, rng):
        p = random_valid_params(rng, 3)
        jp = build_operator(p, "Jplus", 9)
        nz = np.argwhere(np.abs(dense(jp)) > 0)
        assert all(r - c == 3 for r, c in nz)

    def test_truncation_guard(self):
        p = validate_params(3, (3, -3, 0))
        with pytest.raises(TruncationTooSmall):
            build_operator(p, "a", 2)


class TestBands:
    @pytest.mark.parametrize("lam", [2, 3, 4, 5])
    def test_band_algebra_matches_dense(self, rng, lam):
        p = random_valid_params(rng, lam)
        for dim in (lam, lam + 1, 64):
            ops = [build_operator(p, kind, dim) for kind in OPERATOR_KINDS if kind != "P"]
            ops += [build_operator(p, "P", dim, mu=mu) for mu in range(lam)]
            c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            for x in ops:
                assert np.array_equal(x @ c, dense(x) @ c)
                for y in ops:
                    assert np.array_equal(dense(x @ y), dense(x) @ dense(y))

    def test_shape_mismatches_raise(self, fig1_params):
        a = build_operator(fig1_params, "a", 8)
        for other in ("adag", "N", "Jplus"):
            with pytest.raises(ShapeError):
                a - build_operator(fig1_params, other, 8)
        with pytest.raises(ShapeError):
            a - build_operator(fig1_params, "a", 9)
        with pytest.raises(ShapeError):
            a @ build_operator(fig1_params, "a", 9)
        with pytest.raises(ShapeError):
            a @ np.ones(9)
        with pytest.raises(ShapeError):
            a @ np.ones((3, 9))

    def test_stack_matvec_is_each_rows_matvec(self, rng, fig1_params):
        # a stack (.., K) maps row by row, bit for bit
        c = rng.standard_normal((2, 3, 16)) + 1j * rng.standard_normal((2, 3, 16))
        for kind in ("a", "adag", "Jplus", "Jminus", "N"):
            x = build_operator(fig1_params, kind, 16)
            out = x @ c
            assert out.shape == c.shape
            assert all(np.array_equal(out[i, j], x @ c[i, j]) for i in range(2) for j in range(3))

    @pytest.mark.parametrize("lam", [2, 3, 4, 5])
    def test_sga_poly_array_equals_scalar_calls(self, rng, lam):
        p = random_valid_params(rng, lam)
        for mu in range(lam):
            j0 = np.array([energy_eigenvalue(p, n) / lam for n in range(mu, 40 * lam, lam)])
            scalar = [sga_structure_poly(p, float(x), mu) for x in j0]
            assert np.array_equal(sga_structure_poly(p, j0, mu), scalar)

    @pytest.mark.parametrize("lam", range(2, 9))
    def test_sga_poly_prefix_sums_match_the_loops(self, rng, lam):
        # the alpha prefix sums, taken once per call, against w(l) and v(j)
        # rebuilt inside the product loops
        p = random_valid_params(rng, lam)
        for mu in range(lam):
            j0 = np.array([energy_eigenvalue(p, n) / lam for n in range(mu, 40 * lam, lam)])
            np.testing.assert_allclose(
                sga_structure_poly(p, j0, mu), _sga_poly_loops(p, j0, mu), rtol=1e-15, atol=0
            )

    def test_energy_array_equals_level_formula(self, rng):
        p = random_valid_params(rng, 4)
        levels = np.arange(50)
        assert np.array_equal(energy_eigenvalue(p, levels),
                              [n + p.gamma(n % 4) + 0.5 for n in range(50)])


def _sga_poly_loops(params, j0, mu):
    """sga_structure_poly with w(l) and v(j) rebuilt inside its product loops."""
    lam = params.lam

    def w(l):
        s = 2 * l + 1 + params.alpha_at(mu)
        for mm in range(1, l + 1):
            s += 2.0 * params.alpha_at(mu + mm)
        return 0.5 * s

    def v(j):
        s = -2 * j - 1 + params.alpha_at(mu)
        for kk in range(1, lam - j):
            s += 2.0 * params.alpha_at(mu + kk)
        return 0.5 * s

    x = lam * j0

    def t(count):
        prod = 1.0
        for l in range(count):
            prod = prod * (x + w(l))
        return prod

    total = t(lam - 1)
    head = x - 0.5 * (1.0 + params.alpha_at(mu))
    for i in range(1, lam):
        prod = head
        for j in range(1, i):
            prod = prod * (x + v(j))
        total = total + prod * t(lam - i - 1)
    return -total / lam


def _sample_params(rng, n_sets=20):
    out = []
    for _ in range(n_sets):
        lam = int(rng.integers(2, 5))
        out.append(random_valid_params(rng, lam))
    return out


class TestMatrixIdentities:
    DIM = 64

    def test_commutator_and_bands(self, rng):
        for p in _sample_params(rng):
            lam = p.lam
            dim = self.DIM
            a = dense(build_operator(p, "a", dim))
            ad = dense(build_operator(p, "adag", dim))
            interior = dim - lam
            comm = (a @ ad - ad @ a)[:interior, :interior]
            expect = np.diag([1.0 + p.alpha_at(n) for n in range(interior)])
            assert np.abs(comm - expect).max() < 1e-10
            for mu in range(lam):
                pm = dense(build_operator(p, "P", dim, mu=mu))
                pm1 = dense(build_operator(p, "P", dim, mu=mu + 1))
                assert np.array_equal(ad @ pm, pm1 @ ad)

    def test_number_products(self, rng):
        for p in _sample_params(rng, 6):
            dim = 32
            a = dense(build_operator(p, "a", dim))
            ad = dense(build_operator(p, "adag", dim))
            interior = dim - p.lam
            fn = np.diag([structure_function(p, n) for n in range(dim)])
            fn1 = np.diag([structure_function(p, n + 1) for n in range(dim)])
            assert np.abs((ad @ a - fn)[:interior, :interior]).max() < 1e-12
            assert np.abs((a @ ad - fn1)[:interior, :interior]).max() < 1e-12

    def test_sga_relations(self, rng):
        for p in _sample_params(rng, 8):
            lam = p.lam
            dim = self.DIM
            jp = dense(build_operator(p, "Jplus", dim))
            jm = dense(build_operator(p, "Jminus", dim))
            j0 = dense(build_operator(p, "J0", dim))
            interior = dim - lam
            assert np.abs((j0 @ jp - jp @ j0 - jp)[:interior, :interior]).max() < 1e-10
            assert np.abs((j0 @ jm - jm @ j0 + jm)[:interior, :interior]).max() < 1e-10
            comm = (jp @ jm - jm @ jp)[:interior, :interior]
            for n in range(interior):
                f = sga_structure_poly(p, energy_eigenvalue(p, n) / lam, n % lam)
                assert abs(comm[n, n] - f) < 1e-10 * max(1.0, abs(f))

    def test_undeformed_su11_case(self):
        p = validate_params(2, (0.0, 0.0))
        # f reduces to -2 J0 for the plain oscillator SGA
        for j0 in (0.25, 1.75, 3.0):
            assert sga_structure_poly(p, j0, 0) == pytest.approx(-2.0 * j0, abs=1e-10)

    def test_lowest_state_product_rule(self, rng):
        # <mu| [J+,J-] |mu> = -prod F(mu+1..mu+lam) / lam^2
        for p in _sample_params(rng, 6):
            lam = p.lam
            for mu in range(lam):
                prod = 1.0
                for j in range(1, lam + 1):
                    prod *= structure_function(p, mu + j)
                f = sga_structure_poly(p, energy_eigenvalue(p, mu) / lam, mu)
                assert f == pytest.approx(-prod / lam**2, rel=1e-11)

    def test_fock_normalization_identity(self, rng):
        # L(n) = log prod F(1..n) against the product itself and against the
        # Pochhammer form lam^n k! prod_(nu<=mu) (bb_nu)_(k+1) prod_(nu>mu) (bb_nu)_k
        for p in _sample_params(rng, 6):
            log_f = -sum(log_weights(p, 11))
            assert log_f[0] == 0.0
            for n in range(1, 12):
                prod = 1.0
                for j in range(1, n + 1):
                    prod *= structure_function(p, j)
                assert math.exp(log_f[n]) == pytest.approx(prod, rel=1e-12)
                k, mu = divmod(n, p.lam)
                poch = n * math.log(p.lam) + math.lgamma(k + 1)
                for nu in range(1, p.lam):
                    reps = k + 1 if nu <= mu else k
                    poch += math.lgamma(p.beta_bar[nu] + reps) - math.lgamma(p.beta_bar[nu])
                assert log_f[n] == pytest.approx(poch, abs=1e-12)

    def test_sga_poly_index_guard(self):
        p = validate_params(3, (3, -3, 0))
        with pytest.raises(IndexError):
            sga_structure_poly(p, 1.0, 3)
