import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clext import params_from_beta_bar, validate_params
from clext.observables import (
    mandel_q_cs_alpha,
    mandel_q_eigenstate,
    squeezing_cs_alpha,
    squeezing_eigenstate,
)
from clext.states import CsAlphaSpec
from closed_forms import mandel_q_bessel, mandel_q_branch_form
from conftest import random_valid_params
from fock_sums import FockSums


class TestMandelSector:
    def test_perelomov_closed_form(self, paraboson_params):
        # Q = (1+y)/(1-y), independent of the algebra parameter
        for y in (0.1, 0.5, 0.8):
            spec = CsAlphaSpec(paraboson_params, 0, 1, math.sqrt(y))
            st = mandel_q_cs_alpha(spec, "closed")
            assert st.mandel_Q == pytest.approx((1 + y) / (1 - y), rel=1e-12)
            oracle = mandel_q_cs_alpha(spec, "oracle")
            assert st.mandel_Q == pytest.approx(oracle.mandel_Q, rel=1e-8)

    def test_equal_bb_gives_q2(self):
        p = params_from_beta_bar(3, [4 / 3, 4 / 3])
        for z in (0.4, 1.1, 2.5):
            spec = CsAlphaSpec(p, 0, 1, z)
            assert mandel_q_cs_alpha(spec, "closed").mandel_Q == pytest.approx(2.0, abs=1e-10)
            assert mandel_q_branch_form(spec) == pytest.approx(2.0, abs=1e-10)

    def test_mu1_shifted_bb_formula(self):
        # bb2 = bb1 + 1: Q = 2 - 3/(3y+1), independent of bb1
        p = params_from_beta_bar(3, [0.7, 1.7])
        y = 1.0 / 3.0
        spec = CsAlphaSpec(p, 1, 1, math.sqrt(3 * y))
        assert mandel_q_cs_alpha(spec, "closed").mandel_Q == pytest.approx(0.5, abs=1e-10)
        assert mandel_q_branch_form(spec) == pytest.approx(0.5, abs=1e-10)

    def test_branch_forms_match_oracle(self, rng):
        for lam in (2, 3, 4):
            p = random_valid_params(rng, lam)
            for alpha in range((lam - 1) // 2 + 1):
                for mu in range(lam - alpha):
                    for zmag in (0.5, 1.4):
                        spec = CsAlphaSpec(p, mu, alpha, zmag)
                        qo = mandel_q_cs_alpha(spec, "oracle").mandel_Q
                        qc = mandel_q_cs_alpha(spec, "closed").mandel_Q
                        qb = mandel_q_branch_form(spec)
                        assert qc == pytest.approx(qo, abs=1e-8 * (1 + abs(qo)))
                        assert qb == pytest.approx(qo, abs=1e-8 * (1 + abs(qo)))

    def test_z_zero_limits(self, fig1_params):
        spec = CsAlphaSpec(fig1_params, 0, 1, 0.0)
        st = mandel_q_cs_alpha(spec, "closed")
        assert st.source == "closed_limit"
        assert st.mandel_Q == pytest.approx(2.0)  # lambda - 1
        spec = CsAlphaSpec(fig1_params, 1, 1, 0.0)
        assert mandel_q_cs_alpha(spec, "closed").mandel_Q == pytest.approx(-1.0)

    def test_variance_nonnegativity(self, rng):
        p = random_valid_params(rng, 3)
        for z in (0.3, 1.0, 2.0):
            st = mandel_q_cs_alpha(CsAlphaSpec(p, 0, 1, z), "oracle")
            assert st.mean_N2 >= st.mean_N**2 - 1e-12


class TestMandelEigenstate:
    def test_undeformed_is_poissonian(self, undeformed2):
        for z in (0.3, 1.0, 2.5):
            assert mandel_q_eigenstate(undeformed2, z, "closed").mandel_Q == pytest.approx(0.0, abs=1e-10)
            assert mandel_q_eigenstate(undeformed2, z, "oracle").mandel_Q == pytest.approx(0.0, abs=1e-10)

    def test_bessel_form_lambda2(self, paraboson_params):
        for z in (0.5, 1.2, 2.4):
            qc = mandel_q_eigenstate(paraboson_params, z, "closed").mandel_Q
            qb = mandel_q_bessel(paraboson_params, z)
            qo = mandel_q_eigenstate(paraboson_params, z, "oracle").mandel_Q
            assert qb == pytest.approx(qc, rel=1e-9)
            assert qc == pytest.approx(qo, abs=1e-8 * (1 + abs(qo)))

    def test_small_z_quadratic_slope(self, paraboson_params):
        bb1 = 2.0
        z = 0.05
        q = mandel_q_eigenstate(paraboson_params, z, "closed").mandel_Q
        assert q / z**2 == pytest.approx((2 * bb1 - 1) / (2 * bb1), rel=0.01)

    def test_small_z_quartic_when_bb2_is_2bb1(self):
        # bb2 = 2 bb1: the quadratic term cancels; the quartic coefficient
        # verified against the exact moment series and the brute-force
        # oracle is (3 bb1 - 1)/(9 bb1^2)
        for bb1 in (0.4, 0.5, 0.7):
            p = params_from_beta_bar(3, [bb1, 2 * bb1])
            z = 0.05
            q = mandel_q_eigenstate(p, z, "closed").mandel_Q
            assert q / z**4 == pytest.approx((3 * bb1 - 1) / (9 * bb1**2), rel=0.01)

    def test_small_z_quadratic_lambda3(self):
        bb1, bb2 = 0.5, 0.8
        p = params_from_beta_bar(3, [bb1, bb2])
        z = 0.04
        q = mandel_q_eigenstate(p, z, "closed").mandel_Q
        assert q / z**2 == pytest.approx((2 * bb1 - bb2) / (3 * bb1 * bb2), rel=0.01)

    def test_sign_dichotomy(self):
        # sign(Q) = sign(bb1 - 1/2) over r in (0, 3]
        for bb1, sign in [(0.25, -1.0), (10.0, 1.0)]:
            p = params_from_beta_bar(2, [bb1])
            for r in np.linspace(0.1, 3.0, 8):
                q = mandel_q_eigenstate(p, float(r), "closed").mandel_Q
                assert math.copysign(1.0, q) == sign


class TestSqueezingSector:
    def test_vacuum_reference(self, paraboson_params):
        spec = CsAlphaSpec(paraboson_params, 0, 0, 0.0)
        rep = squeezing_cs_alpha(spec, "dressed", "closed")
        assert rep.X == pytest.approx(1.0, abs=1e-12)
        assert rep.P == pytest.approx(1.0, abs=1e-12)

    def test_no_squeezing_for_lambda3(self, rng):
        p = random_valid_params(rng, 3)
        for alpha in (0, 1):
            for z in (-1.5, -0.3, 0.8):
                rep = squeezing_cs_alpha(CsAlphaSpec(p, 0, alpha, z), "dressed", "oracle")
                assert rep.X >= 1.0 - 1e-10 and rep.P >= 1.0 - 1e-10
                repb = squeezing_cs_alpha(CsAlphaSpec(p, 0, alpha, z), "real", "oracle")
                assert repb.X >= 1.0 - 1e-10 and repb.P >= 1.0 - 1e-10

    def test_lambda2_squeezing_on_negative_axis(self, paraboson_params):
        # bb1 = 2 > 1/2: X < 1 across the sampled range (dressed photons)
        for g in (0.3, 1.0, 2.0, 3.0):
            rep = squeezing_cs_alpha(CsAlphaSpec(paraboson_params, 0, 0, -g), "dressed", "closed")
            assert rep.X < 1.0
            oracle = squeezing_cs_alpha(CsAlphaSpec(paraboson_params, 0, 0, -g), "dressed", "oracle")
            assert rep.X == pytest.approx(oracle.X, rel=1e-8)
            assert rep.P == pytest.approx(oracle.P, rel=1e-8)

    def test_reflection_symmetry(self, paraboson_params):
        for z in (0.7, 1.9):
            plus = squeezing_cs_alpha(CsAlphaSpec(paraboson_params, 0, 0, z), "dressed", "closed")
            minus = squeezing_cs_alpha(CsAlphaSpec(paraboson_params, 0, 0, -z), "dressed", "closed")
            assert plus.X == pytest.approx(minus.P, rel=1e-12)
            assert plus.P == pytest.approx(minus.X, rel=1e-12)

    def test_real_photon_closed_vs_oracle(self, paraboson_params):
        for alpha in (0, 1):
            for z in (-1.2, 0.6):
                # the alpha = lambda/2 family lives on the unit disc
                spec = CsAlphaSpec(paraboson_params, 0, alpha, 0.5 * z if alpha else z)
                rep = squeezing_cs_alpha(spec, "real", "closed")
                oracle = squeezing_cs_alpha(spec, "real", "oracle")
                assert rep.X == pytest.approx(oracle.X, rel=1e-8)
                assert rep.P == pytest.approx(oracle.P, rel=1e-8)

    def test_uncertainty_relation_holds(self, rng):
        for lam in (2, 3):
            p = random_valid_params(rng, lam)
            for alpha in range(lam // 2 + 1):
                z = 0.7 if 2 * alpha == lam else 1.3
                rep = squeezing_cs_alpha(CsAlphaSpec(p, 0, alpha, z), "dressed", "oracle")
                assert rep.uncertainty_lhs >= rep.uncertainty_rhs - 1e-9

    def test_minimum_uncertainty_only_mu0(self, paraboson_params):
        # the sector vacuum |mu> saturates the bound only for mu = 0
        rep0 = squeezing_cs_alpha(CsAlphaSpec(paraboson_params, 0, 0, 0.0), "dressed", "oracle")
        assert rep0.uncertainty_lhs == pytest.approx(rep0.uncertainty_rhs, rel=1e-10)
        rep1 = squeezing_cs_alpha(CsAlphaSpec(paraboson_params, 1, 0, 0.0), "dressed", "oracle")
        assert rep1.uncertainty_lhs > rep1.uncertainty_rhs + 1e-6


class TestSqueezingEigenstate:
    def test_minimum_uncertainty_everywhere(self, fig1_params):
        for z in (0.4 + 0.0j, 1.2 - 0.8j, 2.0j):
            rep = squeezing_eigenstate(fig1_params, z, "dressed", "oracle")
            assert rep.variance_x == pytest.approx(rep.variance_p, rel=1e-10)
            assert rep.uncertainty_lhs == pytest.approx(rep.uncertainty_rhs, rel=1e-9)

    def test_undeformed_saturates_vacuum(self, undeformed2):
        for z in (0.5, 1.5 + 0.5j):
            rep = squeezing_eigenstate(undeformed2, z, "dressed", "closed")
            assert rep.X == pytest.approx(1.0, rel=1e-10)
            assert rep.P == pytest.approx(1.0, rel=1e-10)

    def test_large_z_limit(self, paraboson_params):
        # X = P -> 1/(lam bb1) = 1/4; the approach is ~ 0.3/t, so the
        # 1e-3 window opens around |z| ~ 24 (see the ledger note on the
        # acceptance-criterion wording)
        rep = squeezing_eigenstate(paraboson_params, 30.0 + 0.0j, "dressed", "closed")
        assert abs(rep.X - 0.25) < 1e-3
        seq = [
            squeezing_eigenstate(paraboson_params, complex(z), "dressed", "closed").X
            for z in (3.0, 6.0, 12.0, 30.0)
        ]
        assert all(a > b for a, b in zip(seq, seq[1:]))  # monotone approach
        assert abs(seq[0] - 0.25) > 1e-2  # the limit is *not* reached at |z| = 3

    def test_small_z_expansion(self, paraboson_params):
        bb1 = 2.0
        z = 0.05
        rep = squeezing_eigenstate(paraboson_params, complex(z), "dressed", "closed")
        assert rep.X == pytest.approx(1.0 + (1 - 2 * bb1) * z**2 / (2 * bb1**2), rel=1e-4)

    def test_closed_vs_oracle_dressed(self, rng):
        for lam in (2, 3):
            p = random_valid_params(rng, lam)
            for z in (0.5, 1.4, 2.0):
                rc = squeezing_eigenstate(p, complex(z), "dressed", "closed")
                ro = squeezing_eigenstate(p, complex(z), "dressed", "oracle")
                assert rc.X == pytest.approx(ro.X, rel=1e-8)

    def test_real_photon_re_im_roles(self, paraboson_params):
        z = 1.1
        re = squeezing_eigenstate(paraboson_params, complex(z), "real", "closed")
        im = squeezing_eigenstate(paraboson_params, complex(0, z), "real", "closed")
        assert re.X == pytest.approx(im.P, rel=1e-10)
        assert re.P == pytest.approx(im.X, rel=1e-10)
        ro = squeezing_eigenstate(paraboson_params, complex(z), "real", "oracle")
        assert re.X == pytest.approx(ro.X, rel=1e-8)
        assert re.P == pytest.approx(ro.P, rel=1e-8)


class TestPublishedQShapes:
    def test_q_minimum_for_shifted_parameters(self):
        # bb1 = bb2 + 1 (lambda = 3, mu = 0): Q = 2 - 3y/((y+bb2)(y+bb2+1))
        # with minimum 2 - 3/(sqrt(bb2) + sqrt(bb2+1))^2
        for bb2 in (0.3, 0.9):
            p = params_from_beta_bar(3, [bb2 + 1.0, bb2])
            y_star = math.sqrt(bb2 * (bb2 + 1.0))
            spec = CsAlphaSpec(p, 0, 1, math.sqrt(3.0 * y_star))
            q_min = mandel_q_cs_alpha(spec, "closed").mandel_Q
            expect = 2.0 - 3.0 / (math.sqrt(bb2) + math.sqrt(bb2 + 1.0)) ** 2
            assert q_min == pytest.approx(expect, rel=1e-10)

    def test_large_z_tail_lambda2(self, paraboson_params):
        # Q ~ (2 bb1 - 1)/(2 |z|^2) for |z| >> 1
        for z in (6.0, 9.0):
            q = mandel_q_eigenstate(paraboson_params, z, "closed").mandel_Q
            assert q * 2.0 * z * z == pytest.approx(3.0, rel=5e-3)


class TestOracleAtModerateZ:
    """The oracle builds the whole state before it contracts it: the points
    where truncation at dim 64 used to cut the coefficients before their peak."""

    def test_eigenstate_lambda2(self):
        p = params_from_beta_bar(2, [2.0])  # alpha = (3, -3)
        for zabs, q in ((13.0, 0.0088750335), (14.0, 0.0076526092)):
            closed = mandel_q_eigenstate(p, zabs, "closed").mandel_Q
            oracle = mandel_q_eigenstate(p, zabs, "oracle").mandel_Q
            assert closed == pytest.approx(q, rel=1e-8)
            assert oracle == pytest.approx(closed, rel=1e-8)

    def test_sector_lambda3(self, fig1_params):
        spec = CsAlphaSpec(fig1_params, 0, 1, 15.0)
        closed = mandel_q_cs_alpha(spec, "closed").mandel_Q
        oracle = mandel_q_cs_alpha(spec, "oracle").mandel_Q
        assert closed == pytest.approx(1.97380, rel=1e-5)
        assert oracle == pytest.approx(closed, rel=1e-8)


    def test_sector_q_variance_keeps_its_digits(self):
        # <N>^2 >> <N> at |z| = 100: a one-pass <N^2> - <N>^2 lost 7.6e-10 of Q here
        p = validate_params(2, (1.0, -1.0))
        oracle = mandel_q_cs_alpha(CsAlphaSpec(p, 0, 0, 100.0), "oracle").mandel_Q
        ref = float(FockSums(p.beta_bar[1:], 100.0, (0, 0)).q)
        assert oracle == pytest.approx(ref, rel=1e-12)


class TestOracleGrid:
    """An oracle grid is one state build per _row_blocks slice."""

    def test_grid_matches_points(self, fig1_params):
        zs = np.array([0.05, 0.7, 1.9, 3.0]) * np.exp(0.3j)
        spec = CsAlphaSpec(fig1_params, 0, 1, zs)
        q_sector = mandel_q_cs_alpha(spec, "oracle").mandel_Q
        q_eigen = mandel_q_eigenstate(fig1_params, np.abs(zs), "oracle").mandel_Q
        sq_sector = squeezing_cs_alpha(spec, "dressed", "oracle")
        sq_eigen = squeezing_eigenstate(fig1_params, zs, "real", "oracle")
        for i, z in enumerate(zs):
            one = CsAlphaSpec(fig1_params, 0, 1, complex(z))
            q_one = mandel_q_cs_alpha(one, "oracle").mandel_Q
            assert q_sector[i] == pytest.approx(q_one, rel=1e-12)
            assert q_eigen[i] == pytest.approx(
                mandel_q_eigenstate(fig1_params, abs(z), "oracle").mandel_Q, rel=1e-12
            )
            rep = squeezing_cs_alpha(one, "dressed", "oracle")
            assert (sq_sector.X[i], sq_sector.P[i]) == pytest.approx((rep.X, rep.P), rel=1e-12)
            rep = squeezing_eigenstate(fig1_params, complex(z), "real", "oracle")
            assert (sq_eigen.X[i], sq_eigen.P[i]) == pytest.approx((rep.X, rep.P), rel=1e-12)
            assert sq_eigen.uncertainty_rhs[i] == 0.25

    def test_long_grid_is_built_in_row_blocks(self, monkeypatch, paraboson_params):
        # at most 64 rows of up to 1024 levels per build
        import clext.observables as obs

        rows = []
        original = obs.eigenstate

        def counted(params, z, dim=64):
            rows.append(len(z))
            return original(params, z, dim)

        monkeypatch.setattr(obs, "eigenstate", counted)
        q = mandel_q_eigenstate(paraboson_params, np.linspace(0.1, 3.0, 130), "oracle").mandel_Q
        assert rows == [64, 64, 2] and q.shape == (130,)


class TestRowBlocks:
    """_fock_weights builds its rows in blocks of at most WORK_ELEMENTS values."""

    def test_large_grid_memory_is_bounded(self):
        # 200 rows of 16384 levels: the (rows, levels) work arrays used to
        # take 121 MB; the 26 MB weight array is now most of the peak
        p = params_from_beta_bar(2, [2.0])
        tracemalloc.start()
        try:
            mandel_q_eigenstate(p, np.linspace(0.05, 100, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_blocks_leave_values_unchanged(self, monkeypatch):
        import clext.states as states

        p = params_from_beta_bar(3, [4 / 3, 2 / 3])
        zabs = np.linspace(0.05, 12.0, 50)

        def run():
            return (mandel_q_eigenstate(p, zabs).mandel_Q,
                    squeezing_eigenstate(p, zabs * np.exp(0.4j), "real").X,
                    mandel_q_cs_alpha(CsAlphaSpec(p, 1, 1, zabs)).mandel_Q)

        whole = run()
        monkeypatch.setattr(states, "WORK_ELEMENTS", 1000)  # blocks of a few rows
        for got, ref in zip(run(), whole):
            assert np.array_equal(got, ref)


class TestFockWeightsKernel:
    """_fock_weights: one shared prefix sum per level count, peak-relative rows."""

    @pytest.mark.parametrize("lam, zabs", [(2, 100.0), (3, 60.0), (4, 30.0)])
    @pytest.mark.parametrize("family", [None, (0, 0)])
    def test_weights_match_product_recursion(self, lam, zabs, family):
        # every level above 1e-3 of the peak, against the 40-digit recursion
        import clext.states as states

        bb = LARGE_Z_BETA_BAR[lam]
        n, p, _ = states._fock_weights(params_from_beta_bar(lam, bb), zabs, family)
        ref = FockSums(bb, zabs, family).p
        top = max(w for _, w in ref)
        column = {level: i for i, level in enumerate(n.tolist())}
        checked = 0
        for level, w in ref:
            if w > 1e-3 * top:
                assert abs(p[0, column[level]] / w - 1) <= 1e-12, (level, p[0, column[level]], w)
                checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("family", [None, (0, 0), (1, 1)])
    def test_zero_rows_are_the_vacuum(self, family):
        import clext.states as states

        params = params_from_beta_bar(3, (4 / 3, 2 / 3))
        zabs = np.array([0.0, 0.3, 1.7, 0.0, 2.9, 0.0])
        n, p, _ = states._fock_weights(params, zabs, family)
        vacuum = (np.arange(len(n)) == 0).astype(float)
        for i, za in enumerate(zabs):
            if za == 0:
                assert np.array_equal(p[i], vacuum)
            else:
                n_one, p_one, _ = states._fock_weights(params, za, family)
                assert np.array_equal(n_one, n)  # the same level count, so the same sum
                assert np.array_equal(p_one[0], p[i])
        assert np.array_equal(states._fock_weights(params, 0.0, family)[1][0], vacuum)

    def test_one_prefix_sum_per_level_count(self, monkeypatch):
        import clext.states as states

        builds, cumsums = [], []
        prefix_sum, cumsum = states._prefix_sum, np.cumsum

        def counted_prefix(ratios):
            builds.append(len(ratios) + 1)
            return prefix_sum(ratios)

        def counted_cumsum(a, *args, **kwargs):
            cumsums.append(np.ndim(a))
            return cumsum(a, *args, **kwargs)

        monkeypatch.setattr(states, "_prefix_sum", counted_prefix)
        monkeypatch.setattr(np, "cumsum", counted_cumsum)
        params = params_from_beta_bar(2, (2.0,))
        n, p, _ = states._fock_weights(params, np.linspace(0.0, 12.0, 300))
        assert len(n) == 256
        assert builds == [64, 128, 256]
        assert cumsums and set(cumsums) == {1}


def assert_matches_reference(got, ref):
    ref = float(ref)
    assert abs(got - ref) <= 1e-10 * abs(ref) + 1e-13, (got, ref)


# beta_bar per lambda for the large-|z| checks, and the sector families:
# (0, 0) plus one alpha >= 1 family (lambda = 2 has none off the unit disc)
LARGE_Z_BETA_BAR = {2: (2.0,), 3: (4 / 3, 2 / 3), 4: (1.5, 1.0, 0.75)}
LARGE_Z_FAMILIES = {2: ((0, 0),), 3: ((0, 0), (1, 1)), 4: ((0, 0), (0, 1))}


class TestLargeZ:
    """Closed forms against 40-digit brute-force Fock sums, out where the
    normalization pFq overflows (from |z| ~ 26 at lambda = 2)."""

    def test_dressed_x_approaches_the_limit_from_above(self, paraboson_params):
        zabs = np.array([30.0, 60.0])
        x = squeezing_eigenstate(paraboson_params, zabs.astype(complex), "dressed", "closed").X
        for xi, za in zip(x, zabs):
            assert xi == pytest.approx(float(FockSums((2.0,), za).dressed_x()), rel=1e-10)
        assert x[0] == pytest.approx(0.250625347173, rel=1e-11)
        assert 0.25 < x[1] < x[0]

    @pytest.mark.parametrize("lam", [2, 3, 4])
    def test_closed_forms(self, lam):
        bb = LARGE_Z_BETA_BAR[lam]
        p = params_from_beta_bar(lam, bb)
        zabs = np.array([30.0, 60.0, 100.0])
        z = zabs * np.exp(0.4j)
        q = mandel_q_eigenstate(p, zabs, "closed").mandel_Q
        x_dressed = squeezing_eigenstate(p, z, "dressed", "closed").X
        real = squeezing_eigenstate(p, z, "real", "closed")
        families = LARGE_Z_FAMILIES[lam]
        q_sector = {f: mandel_q_cs_alpha(CsAlphaSpec(p, *f, zabs), "closed").mandel_Q for f in families}
        for i, za in enumerate(zabs):
            ref = FockSums(bb, za)
            assert_matches_reference(q[i], ref.q)
            assert_matches_reference(x_dressed[i], ref.dressed_x())
            ref_x, ref_p = ref.real_xp(complex(z[i]))
            assert_matches_reference(real.X[i], ref_x)
            assert_matches_reference(real.P[i], ref_p)
            for f in families:
                assert_matches_reference(q_sector[f][i], FockSums(bb, za, f).q)


@st.composite
def closed_q_cases(draw):
    """(lambda, beta_bar, |z|, family): family None is the eigenstate,
    (mu, alpha) a sector state with alpha < lambda/2 (off the unit disc)."""
    lam = draw(st.sampled_from([2, 3, 4]))
    bb = tuple(
        draw(st.floats(0.08, 2.5, exclude_min=True, exclude_max=True)) for _ in range(lam - 1)
    )
    families = [None] + [(mu, a) for a in range((lam - 1) // 2 + 1) for mu in range(lam - a)]
    return lam, bb, draw(st.floats(0.05, 30.0)), draw(st.sampled_from(families))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(closed_q_cases())
def test_closed_q_sweep(case):
    lam, bb, zabs, family = case
    p = params_from_beta_bar(lam, bb)
    if family is None:
        q = mandel_q_eigenstate(p, zabs, "closed").mandel_Q
    else:
        q = mandel_q_cs_alpha(CsAlphaSpec(p, *family, zabs), "closed").mandel_Q
    assert_matches_reference(q, FockSums(bb, zabs, family).q)


@pytest.mark.parametrize("figure", ["4a", "6a", "7a"])
def test_figure_curve_is_one_core_call(monkeypatch, figure):
    # q_eigen (4a), dressed (6a) and real (7a) x_eigen: a curve's whole grid is one call
    import clext.observables as obs
    from clext.figures import FIGURE_PRESETS, run_figure

    calls = []
    original = obs._fock_weights

    def counted(params, z_abs, sector=None):
        calls.append(np.size(z_abs))
        return original(params, z_abs, sector)

    monkeypatch.setattr(obs, "_fock_weights", counted)
    job = FIGURE_PRESETS[figure]
    run_figure(job)
    assert calls == [job.grid[2]] * len(job.curves)
