import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from clext import build_operator
from clext import params_from_beta_bar, structure_function, validate_params
from clext.errors import DomainError, SectorError, ShapeError, TruncationTooSmall
from clext.measures import (
    MomentProblem,
    mellin_lists,
    positivity_condition,
    weight_function,
)
from clext.observables import mandel_q, squeezing
from clext.states import (
    FIRST_LEVELS,
    TAIL_THRESHOLD,
    cs_alpha_state,
    eigenstate,
    _fock_weights,
    log_weights,
    sector_lists,
)
from closed_forms import (
    bessel_i,
    component_zmu,
    eigenstate_norm,
    norm_series_cs_alpha,
    overlap_cs_alpha,
    overlap_eigenstate,
    sector_y,
)
from conftest import dense, norm_sq, random_valid_params
from fock_sums import FockSums


class TestSpecValidation:
    def test_sector_out_of_range(self, fig1_params):
        with pytest.raises(SectorError):
            cs_alpha_state(fig1_params, 0.5, (2, 1))  # mu > lam - alpha - 1

    def test_disc_domain(self, paraboson_params):
        with pytest.raises(DomainError):
            cs_alpha_state(paraboson_params, 1.2, (0, 1))  # |z|^2 >= 1 at alpha = lam/2


class TestCsAlphaState:
    def test_z_zero_is_number_state(self, fig1_params):
        st = cs_alpha_state(fig1_params, 0.0, (1, 1), 12)
        expect = np.zeros(12)
        expect[1] = 1.0
        assert np.abs(st.coeffs - expect).max() == 0.0

    def test_perelomov_ratio_and_norm(self, paraboson_params):
        bb1 = paraboson_params.beta_bar[1]
        z = 0.6
        st = cs_alpha_state(paraboson_params, z, (0, 1), 64)
        # coefficients sit on even levels; ratio c_{k+1}/c_k = z sqrt((bb1+k)/(k+1))
        for k in range(4):
            ratio = st.coeffs[2 * (k + 1)] / st.coeffs[2 * k]
            assert ratio == pytest.approx(z * math.sqrt((bb1 + k) / (k + 1.0)), rel=1e-12)
        assert st.norm_sq_analytic == pytest.approx((1 - z**2) ** (-bb1), rel=1e-12)

    def test_defining_equation_residual_fig1(self, fig1_params):
        z = 1.0
        st = cs_alpha_state(fig1_params, z, (0, 1), 64)
        a = dense(build_operator(fig1_params, "a", 64))
        ad = dense(build_operator(fig1_params, "adag", 64))
        res = np.linalg.norm((a @ a @ st.coeffs - z * ad @ st.coeffs)[:60])
        assert res < 1e-9

    def test_residuals_all_families(self, rng):
        for lam in (2, 3, 4):
            p = random_valid_params(rng, lam)
            for alpha in range(lam // 2 + 1):
                for mu in range(lam - alpha):
                    zmag = 0.9 if 2 * alpha == lam else 2.0
                    z = zmag * cmath.exp(0.7j)
                    st = cs_alpha_state(p, z, (mu, alpha), 64)
                    a = dense(build_operator(p, "a", st.dim))
                    ad = dense(build_operator(p, "adag", st.dim))
                    op = np.linalg.matrix_power(a, lam - alpha) - z * np.linalg.matrix_power(ad, alpha)
                    res = np.linalg.norm((op @ st.coeffs)[: st.dim - lam])
                    assert res < 1e-9

    def test_norm_matches_coefficients(self, rng):
        for lam in (2, 3, 4):
            p = random_valid_params(rng, lam)
            for alpha in range(lam // 2 + 1):
                mu = 0
                z = 0.8 if 2 * alpha == lam else 1.7
                st = cs_alpha_state(p, z, (mu, alpha), 64)
                unnormalized = st.coeffs * math.sqrt(st.norm_sq_analytic)
                mass = np.vdot(unnormalized, unnormalized).real
                assert abs(mass / st.norm_sq_analytic - 1.0) <= st.tail_bound + 1e-12

    def test_log_norm_matches_the_pfq_norm(self, rng):
        # the shared log-space sum against the closed hypergeometric form, to
        # 1e-12 beyond the pFq's own error estimate (7e-12 at y = 0.9, where
        # its terms fall slowly): |z| up to 9 off the unit disc, y up to 0.9
        # on it (0.8 at lambda = 6, whose states need more than 1024 levels
        # at 0.9)
        for lam in range(2, 7):
            p = random_valid_params(rng, lam)
            for alpha in range(lam // 2 + 1):
                if 2 * alpha == lam:
                    zabs = np.sqrt((0.3, 0.6, 0.9 if lam < 6 else 0.8))
                else:
                    zabs = (0.7, 3.0, 9.0)
                for mu in range(lam - alpha):
                    for z in (v * cmath.exp(0.3j) for v in zabs):
                        norm = cs_alpha_state(p, z, (mu, alpha)).norm_sq_analytic
                        series = norm_series_cs_alpha(p, mu, alpha, sector_y(p, z, alpha))
                        assert abs(norm - series.value) <= 1e-12 * series.value + series.abs_error


class TestTruncation:
    """tail_bound = 1 - sum|c|^2 / N is exact, and dims grow until it is small."""

    def test_eigenstate_grows_past_the_peak(self):
        # lambda = 2, alpha = (3, -3): the coefficients still grow at
        # dim 64 for |z| = 13, 14; the state needs dim 512
        p = validate_params(2, (3, -3))
        for zabs in (13.0, 14.0):
            st = eigenstate(p, zabs)
            assert st.dim == 512
            assert st.tail_bound <= TAIL_THRESHOLD
            assert norm_sq(st) == pytest.approx(1.0, abs=1e-10)

    def test_sector_state_grows_past_the_peak(self, fig1_params):
        st = cs_alpha_state(fig1_params, 15.0, (0, 1))
        assert st.dim == 512
        assert st.tail_bound <= TAIL_THRESHOLD
        assert norm_sq(st) == pytest.approx(1.0, abs=1e-10)

    def test_sector_state_normalized_where_the_norm_overflows(self):
        # lambda = 2, (mu, alpha) = (0, 0): log N = 2 sqrt(y) = |z| is past the
        # double range at |z| = 720, while the weights peak near level 720
        st = cs_alpha_state(validate_params(2, (1.0, -1.0)), 720.0, (0, 0))
        assert st.norm_sq_analytic == math.inf
        assert st.dim == 1024 and st.tail_bound <= TAIL_THRESHOLD
        assert norm_sq(st) == pytest.approx(1.0, abs=1e-10)

    def test_unit_disc_edge_raises(self):
        p = validate_params(2, (3, -3))
        with pytest.raises(TruncationTooSmall):
            cs_alpha_state(p, 0.99, (0, 1))

    def test_bound_is_the_missing_mass(self, fig1_params):
        # an explicit dim above the auto-doubling cap is kept as given
        st = cs_alpha_state(fig1_params, 2.0, (0, 0), 2048)
        assert st.dim == 2048
        assert st.tail_bound == max(0.0, 1.0 - norm_sq(st))
        unnormalized = st.coeffs * math.sqrt(st.norm_sq_analytic)
        mass = np.vdot(unnormalized, unnormalized).real
        assert st.tail_bound == pytest.approx(max(0.0, 1.0 - mass / st.norm_sq_analytic), abs=1e-15)


def _max_rel_diff(got, ref):
    big = np.abs(ref) > 1e-250
    return float((np.abs(got - ref)[big] / np.abs(ref)[big]).max())


@pytest.mark.parametrize("zabs", [1.7, 9.0])
def test_log_form_matches_product_recursion(rng, zabs):
    # Reference: the per-level product recursion of each defining equation.
    # The log form rounds L(n) = log prod F, whose size grows with dim, so
    # allow 1e-12 relative at dim 64 and 1e-11 at the dims |z| = 9 needs.
    # alpha = lambda/2 lives on the unit disc and is left out.
    z = zabs * cmath.exp(0.4j)
    for lam in (2, 3, 4):
        p = random_valid_params(rng, lam)
        for alpha in range(lam // 2):
            for mu in range(lam - alpha):
                st = cs_alpha_state(p, z, (mu, alpha))
                ref = np.zeros(st.dim, dtype=complex)
                val = 1.0 + 0.0j
                for n in range(mu, st.dim, lam):
                    ref[n] = val
                    num = math.prod(structure_function(p, j) for j in range(n + 1, n + alpha + 1))
                    den = math.prod(structure_function(p, j) for j in range(n + alpha + 1, n + lam + 1))
                    val *= z * math.sqrt(num / den)
                got = st.coeffs * math.sqrt(st.norm_sq_analytic)
                assert _max_rel_diff(got, ref) <= (1e-12 if st.dim == 64 else 1e-11)
        st = eigenstate(p, z)
        ref = np.ones(st.dim, dtype=complex)
        for n in range(1, st.dim):
            ref[n] = ref[n - 1] * z / math.sqrt(structure_function(p, n))
        got = st.coeffs * math.sqrt(st.norm_sq_analytic)
        assert _max_rel_diff(got, ref) <= (1e-12 if st.dim == 64 else 1e-11)


class TestEigenstate:
    def test_z_zero_is_vacuum(self, fig1_params):
        st = eigenstate(fig1_params, 0.0, 8)
        assert st.coeffs[0] == pytest.approx(1.0)
        assert np.abs(st.coeffs[1:]).max() == 0.0

    def test_undeformed_limit(self, undeformed2):
        z = 1.0
        st = eigenstate(undeformed2, z, 64)
        for n in range(8):
            expect = math.exp(-0.5) / math.sqrt(math.factorial(n))
            assert st.coeffs[n].real == pytest.approx(expect, rel=1e-12)

    def test_eigen_residual(self, fig1_params):
        z = 1.3 - 0.4j
        st = eigenstate(fig1_params, z, 64)
        a = dense(build_operator(fig1_params, "a", 64))
        res = np.linalg.norm((a @ st.coeffs - z * st.coeffs)[:63])
        assert res < 1e-9 * math.sqrt(norm_sq(st))

    def test_paraboson_norm_bessel_form(self, paraboson_params):
        bb1 = paraboson_params.beta_bar[1]
        zabs = 1.5
        t = zabs**2 / 2.0
        series = eigenstate_norm(paraboson_params, t)
        closed = math.gamma(bb1) * t ** (1.0 - bb1) * (
            bessel_i(bb1 - 1.0, 2 * t).value + bessel_i(bb1, 2 * t).value
        )
        assert series == pytest.approx(closed, rel=1e-10)

    def test_log_norm_matches_the_pfq_norm(self, rng):
        # the log-space sum against the closed hypergeometric form
        for lam in (2, 3, 4):
            p = random_valid_params(rng, lam)
            for zabs in (0.7, 3.0, 9.0):
                st = eigenstate(p, zabs * cmath.exp(0.3j))
                series = eigenstate_norm(p, zabs**2 / lam)
                assert st.norm_sq_analytic == pytest.approx(series, rel=1e-12)

    def test_normalized_where_the_norm_overflows(self):
        # lambda = 2, alpha = (3, -3): log N = 719.6 at |z| = 27
        st = eigenstate(validate_params(2, (3, -3)), 27.0)
        assert st.norm_sq_analytic == math.inf
        assert st.tail_bound <= TAIL_THRESHOLD
        assert norm_sq(st) == pytest.approx(1.0, abs=1e-10)

    def test_norm_matches_coefficients(self, rng):
        for lam in (2, 3):
            p = random_valid_params(rng, lam)
            st = eigenstate(p, 1.4 + 0.3j, 64)
            assert norm_sq(st) == pytest.approx(1.0, rel=1e-10)
            assert abs(norm_sq(st) - 1.0) <= st.tail_bound + 1e-12


def _braket(bra, ket) -> complex:
    """<bra|ket> of two truncated states over their common levels."""
    n = min(bra.dim, ket.dim)
    return complex(np.vdot(bra.coeffs[:n], ket.coeffs[:n]))


class TestOverlaps:
    def test_distinct_sectors_orthogonal(self, fig1_params):
        assert overlap_cs_alpha(fig1_params, 1.0, (0, 1), 1.0, (1, 1)) == 0.0

    def test_self_overlap(self, fig1_params):
        z = 1.0 + 0.2j
        assert overlap_cs_alpha(fig1_params, z, (0, 1), z, (0, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_vs_vector(self, fig1_params):
        vec = _braket(cs_alpha_state(fig1_params, 1.0, (0, 1), 64),
                      cs_alpha_state(fig1_params, 0.5, (0, 1), 64))
        got = overlap_cs_alpha(fig1_params, 1.0, (0, 1), 0.5, (0, 1))
        assert got == pytest.approx(vec, abs=1e-10)

    def test_mixed_family_overlap_vs_vector(self, fig1_params):
        z1, z2 = 1.1 + 0.4j, 0.8 - 0.2j
        vec = _braket(cs_alpha_state(fig1_params, z1, (0, 0), 96),
                      cs_alpha_state(fig1_params, z2, (0, 1), 96))
        got = overlap_cs_alpha(fig1_params, z1, (0, 0), z2, (0, 1))
        assert got == pytest.approx(vec, abs=1e-10)

    def test_eigenstate_overlap(self, fig1_params, undeformed2):
        z, zp = 1.0 + 0.0j, 1j
        got = overlap_eigenstate(fig1_params, z, zp)
        vec = _braket(eigenstate(fig1_params, z, 64), eigenstate(fig1_params, zp, 64))
        assert got == pytest.approx(vec, abs=1e-9)
        # undeformed limit: exp(z* z' - |z|^2/2 - |z'|^2/2)
        z, zp = 0.9 + 0.3j, -0.4 + 1.1j
        got = overlap_eigenstate(undeformed2, z, zp)
        expect = cmath.exp(z.conjugate() * zp - abs(z) ** 2 / 2 - abs(zp) ** 2 / 2)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_eigenstate_self(self, fig1_params):
        z = 0.7 + 0.1j
        assert overlap_eigenstate(fig1_params, z, z) == pytest.approx(1.0, abs=1e-12)

    def test_continuity_bound(self, fig1_params):
        z = 0.9 + 0.2j
        prev = None
        for eps in (1e-2, 1e-3, 1e-4):
            dist_sq = 2.0 - 2.0 * overlap_eigenstate(fig1_params, z, z + eps).real
            assert dist_sq <= 10.0 * eps
            if prev is not None:
                assert dist_sq < prev
            prev = dist_sq


class TestComponents:
    def test_lambda2_even_odd_split(self, paraboson_params):
        z = 0.8
        plus = eigenstate(paraboson_params, z, 64).coeffs
        minus = eigenstate(paraboson_params, -z, 64).coeffs
        z0 = component_zmu(paraboson_params, z, 0, 64).coeffs
        z1 = component_zmu(paraboson_params, z, 1, 64).coeffs
        assert np.abs(z0 - 0.5 * (plus + minus)).max() < 1e-12
        assert np.abs(z1 - 0.5 * (plus - minus)).max() < 1e-12

    def test_partition_identity(self, fig1_params):
        z = 0.8
        total = sum(component_zmu(fig1_params, z, mu, 64).coeffs for mu in range(3))
        assert np.abs(total - eigenstate(fig1_params, z, 64).coeffs).max() < 1e-12

    def test_discrete_fourier_relation(self, fig1_params):
        lam, z = 3, 0.8
        for nu in range(lam):
            acc = np.zeros(64, dtype=complex)
            for m in range(lam):
                acc += cmath.exp(-2j * math.pi * m * nu / lam) * eigenstate(
                    fig1_params, z * cmath.exp(2j * math.pi * m / lam), 64
                ).coeffs
            acc /= lam
            assert np.abs(acc - component_zmu(fig1_params, z, nu, 64).coeffs).max() < 1e-10

    def test_component_norms(self, fig1_params):
        z = 1.1
        total = 0.0
        for mu in range(3):
            comp = component_zmu(fig1_params, z, mu, 64)
            assert norm_sq(comp) == pytest.approx(comp.norm_sq_analytic, rel=1e-10)
            total += comp.norm_sq_analytic
        assert total == pytest.approx(1.0, rel=1e-10)


class TestFockWeightCore:
    """log_weights is the one log-weight primitive, and the builders read the
    core's weights."""

    # beta_bar per lambda, and one sector family off the unit disc
    BETA_BAR = {2: (2.0,), 3: (4 / 3, 2 / 3), 4: (1.5, 1.0, 0.75)}
    SECTOR = {2: (0, 0), 3: (1, 1), 4: (0, 1)}

    @pytest.mark.parametrize("lam, zabs", [(2, 100.0), (3, 60.0), (4, 30.0)])
    @pytest.mark.parametrize("family", ["eigen", "sector"])
    def test_log_weights_match_product_recursion(self, lam, zabs, family):
        # log w_k - log w_P about the peak P, on every level above 1e-3 of
        # the peak, against the 40-digit recursion
        bb = self.BETA_BAR[lam]
        sector = None if family == "eigen" else self.SECTOR[lam]
        mu, width = (0, 1) if sector is None else (sector[0], lam)
        ref = FockSums(bb, zabs, sector).p
        top = max(w for _, w in ref)
        kept = [((n - mu) // width, w) for n, w in ref if w > 1e-3 * top]
        peak, w_peak = max(kept, key=lambda kw: kw[1])
        hi, lo = log_weights(params_from_beta_bar(lam, bb), kept[-1][0], sector)
        with mp.workdps(40):
            log_z2 = 2 * mp.log(zabs)
            for k, w in kept:
                want = mp.log(w / w_peak) - (k - peak) * log_z2
                got = (hi[k] - hi[peak]) + (lo[k] - lo[peak])
                assert abs(got - want) <= 1e-12, (k, got, want)
        assert len(kept) >= 4

    @pytest.mark.parametrize("family", ["eigen", "sector"])
    def test_coefficients_are_the_core_weights(self, fig1_params, family):
        # |c_n|^2 of a built grid is the core's p_n on its levels: the oracle
        # and closed columns read one weight array
        zs = np.array([0.0, 0.7 - 0.3j, 2.2j, -3.0, 14.0 * np.exp(1j)])
        st = _build(fig1_params, family, zs)
        sector = None if family == "eigen" else ARRAY_FAMILIES[3]
        mu, width = (0, 1) if sector is None else (sector[0], 3)
        # the build starts the core at its own level count, or at FIRST_LEVELS
        levels = max((63 - mu) // width + 1, FIRST_LEVELS)
        n, p, log_norm = _fock_weights(fig1_params, np.abs(zs), sector, levels)
        on = n < st.dim
        assert np.abs(st.coeffs[:, n[on]]) ** 2 == pytest.approx(p[:, on], rel=1e-15, abs=0)
        assert not np.delete(st.coeffs, n[on], axis=1).any()
        assert st.norm_sq_analytic == pytest.approx(np.exp(log_norm), rel=1e-15)


def test_norm_series_matches_squared_sum(fig1_params):
    st = cs_alpha_state(fig1_params, 1.4, (0, 1), 96)
    unnormalized = st.coeffs * math.sqrt(st.norm_sq_analytic)
    n = norm_series_cs_alpha(fig1_params, 0, 1, sector_y(fig1_params, 1.4, 1)).value.real
    assert np.vdot(unnormalized, unnormalized).real == pytest.approx(n, rel=1e-10)


# one sector family per lambda (alpha < lambda / 2, so |z| = 14 is in its domain)
ARRAY_FAMILIES = {2: (0, 0), 3: (1, 1), 4: (2, 1)}


def _build(params, family, z):
    if family == "eigen":
        return eigenstate(params, z)
    mu, alpha = ARRAY_FAMILIES[params.lam]
    return cs_alpha_state(params, z, (mu, alpha))


class TestArrayBuilders:
    """An array z is one build: rows share one dim, each row is its scalar build."""

    @pytest.mark.parametrize("family", ["eigen", "sector"])
    @pytest.mark.parametrize("lam", [2, 3, 4])
    def test_rows_match_length_one_builds(self, rng, family, lam):
        p = random_valid_params(rng, lam)
        zs = np.array([0.0, 0.3 - 0.2j, 1.1j, -2.2 + 0.9j, 3.0])
        batch = _build(p, family, zs)
        assert batch.coeffs.shape == (len(zs), batch.dim)
        for row, z, tail in zip(batch.coeffs, zs, batch.tail_bound):
            single = _build(p, family, complex(z))
            # the shared levels agree; past them the row holds only the mass
            # the length-1 build truncated
            assert single.dim <= batch.dim
            assert np.abs(row[: single.dim] - single.coeffs).max() <= 1e-15
            assert np.vdot(row[single.dim :], row[single.dim :]).real <= single.tail_bound + 1e-15
            assert tail <= single.tail_bound + 1e-15
            if family == "sector":
                mu = ARRAY_FAMILIES[lam][0]
                assert not row[np.arange(batch.dim) % lam != mu].any()

    @pytest.mark.parametrize("family", ["eigen", "sector"])
    def test_mixed_grid_shares_one_dim(self, fig1_params, family):
        zs = np.array([0.0, 0.05, 3.0, 14.0])
        batch = _build(fig1_params, family, zs)
        assert batch.coeffs.shape == (4, batch.dim)
        assert np.all(batch.tail_bound <= TAIL_THRESHOLD)
        assert batch.norm_sq_analytic.shape == (4,)
        # the vacuum row is |0> (eigenstate) or |mu> (sector)
        level = 0 if family == "eigen" else ARRAY_FAMILIES[3][0]
        assert batch.coeffs[0, level] == 1.0 and np.abs(batch.coeffs[0]).sum() == 1.0
        assert batch.dim == max(_build(fig1_params, family, z).dim for z in zs)

    @pytest.mark.parametrize("family", ["eigen", "sector"])
    def test_scalar_z_keeps_vector_and_floats(self, fig1_params, family):
        st = _build(fig1_params, family, 1.2 - 0.4j)
        assert st.coeffs.shape == (st.dim,)
        assert type(st.norm_sq_analytic) is float and type(st.tail_bound) is float

    @pytest.mark.parametrize("family", ["eigen", "sector"])
    def test_one_untruncatable_row_raises(self, fig1_params, family):
        # |z| = 40 peaks past level 1024 in both families; the message names it
        with pytest.raises(TruncationTooSmall, match=r"at \|z\| = 40\b"):
            _build(fig1_params, family, np.array([0.5, 1.0, 40.0]))

    @pytest.mark.parametrize("z", [math.nan, complex(1.0, math.inf), np.array([1.0, -math.inf])])
    def test_non_finite_z_is_a_domain_error(self, fig1_params, z):
        with pytest.raises(DomainError, match="finite"):
            eigenstate(fig1_params, z)
        with pytest.raises(DomainError, match="finite"):
            cs_alpha_state(fig1_params, z, (0, 1))


class TestFamilyBuild:
    """A family alpha at one z is one build: one row per member mu, each row
    that member's length-1 cs_alpha_state build."""

    @pytest.mark.parametrize("lam", [2, 3, 4, 5, 6])
    def test_rows_match_length_one_builds(self, rng, lam):
        p = random_valid_params(rng, lam)
        for alpha in range(lam // 2 + 1):
            z = (0.85 if 2 * alpha == lam else 1.7) * cmath.exp(2.1j)
            family = cs_alpha_state(p, z, (np.arange(lam - alpha), alpha))
            members = lam - alpha
            assert family.coeffs.shape == (members, family.dim)
            assert family.norm_sq_analytic.shape == family.tail_bound.shape == (members,)
            for mu, row in enumerate(family.coeffs):
                single = cs_alpha_state(p, z, (mu, alpha))
                # the family's dim is its largest member's; past a member's
                # own dim its row holds only the mass that build truncated
                assert single.dim <= family.dim
                assert np.abs(row[: single.dim] - single.coeffs).max() <= 1e-15
                rest = row[single.dim :]
                assert np.vdot(rest, rest).real <= single.tail_bound + 1e-15
                assert family.tail_bound[mu] <= single.tail_bound + 1e-15
                assert family.norm_sq_analytic[mu] == pytest.approx(single.norm_sq_analytic,
                                                                    rel=1e-15)
                assert not row[np.arange(family.dim) % lam != mu].any()

    @pytest.mark.parametrize("lam", [3, 4, 5])
    def test_member_log_weights_are_each_members_own(self, rng, lam):
        # one row per member: the ratios and prefix sum of its own call, bit for bit
        p = random_valid_params(rng, lam)
        for alpha in range(lam // 2 + 1):
            mus = np.arange(lam - alpha)
            hi, lo = log_weights(p, 40, (mus, alpha))
            assert hi.shape == lo.shape == (len(mus), 41)
            for mu in mus:
                one_hi, one_lo = log_weights(p, 40, (int(mu), alpha))
                assert np.array_equal(hi[mu], one_hi) and np.array_equal(lo[mu], one_lo)

    def test_core_gives_one_row_of_levels_per_member(self, fig1_params):
        mus = np.arange(3)
        n, p, log_norm = _fock_weights(fig1_params, np.array([0.4, 1.3]), (mus, 0), 64)
        assert n.shape == (3, 64) and p.shape == (3, 2, 64) and log_norm.shape == (3, 2)
        assert np.array_equal(n, mus[:, None] + 3 * np.arange(64))

    def test_one_stack_per_call(self, fig1_params):
        with pytest.raises(ShapeError, match="one algebra"):
            log_weights([fig1_params, fig1_params], 8, (np.arange(2), 1))

    def test_family_is_checked_where_it_enters(self, fig1_params, paraboson_params):
        with pytest.raises(SectorError):
            cs_alpha_state(fig1_params, 0.5, (np.arange(1), 2))  # alpha > lambda / 2
        with pytest.raises(DomainError, match="finite"):
            cs_alpha_state(fig1_params, complex(math.nan, 0.0), (np.arange(2), 1))
        with pytest.raises(DomainError, match="unit disc"):
            cs_alpha_state(paraboson_params, 1.2, (np.arange(1), 1))


# one family check for every entry point: entry -> (call, takes a stack, the
# sectors it takes: None for |z>, one member mu, an array of members; takes a z)
ENTRIES = {
    "cs_alpha_state": (lambda p, z, sector: cs_alpha_state(p, z, sector), False,
                       {"member", "members"}, True),
    "eigenstate": (lambda p, z, sector: eigenstate(p, z), False, {None}, True),
    "mandel_q": (lambda p, z, sector: mandel_q(p, z, sector), True, {None, "member"}, True),
    "squeezing": (lambda p, z, sector: squeezing(p, z, "dressed", sector), True,
                  {None, "member"}, True),
    "sector_lists": (lambda p, z, sector: sector_lists(p, sector), False, {"member"}, False),
    "mellin_lists": (lambda p, z, sector: mellin_lists(p, sector), False, {"member"}, False),
    "MomentProblem": (lambda p, z, sector: MomentProblem(p, sector), False, {"member"}, False),
    "positivity_condition": (lambda p, z, sector: positivity_condition(p, sector), False,
                             {"member"}, False),
    "weight_function": (lambda p, z, sector: weight_function(p, sector), False, {"member"}, False),
}
LAM3 = (3.0, -3.0, 0.0)  # fig1_params
LAM2 = (3.0, -3.0)  # paraboson_params
# case -> (alpha list, z, sector, error, message); the first six messages are
# the ones each refusal has always had
REFUSALS = {
    "non-finite z": (LAM3, np.array([1.0, math.nan]), (0, 1), DomainError,
                     "z must be finite, got [ 1. nan]"),
    "non-finite z of |z>": (LAM3, np.array([1.0, math.inf]), None, DomainError,
                            "z must be finite, got [ 1. inf]"),
    "mu outside": (LAM3, 0.5, (2, 1), SectorError,
                   "only the trivial solution exists for mu = 2, alpha = 1"),
    "alpha outside": (LAM3, 0.5, (0, 2), SectorError, "alpha must lie in [0, 1], got 2"),
    "one member outside": (LAM3, 0.5, (np.array([0, 1, 3]), 0), SectorError,
                           "only the trivial solution exists for mu = 3, alpha = 0"),
    "a row off the unit disc": (LAM2, np.array([0.5, 1.2]), (0, 1), DomainError,
                                "alpha = lambda/2 states live on the unit disc; y = 1.44 >= 1"),
    "non-integer mu": (LAM3, 0.5, (0.5, 1), SectorError, "mu must be an integer, got 0.5"),
    "non-integer alpha": (LAM3, 0.5, (0, 0.5), SectorError, "alpha must be an integer, got 0.5"),
    "a non-integer member": (LAM3, 0.5, (np.array([0, 1.5]), 0), SectorError,
                             "mu must be an integer, got [0.  1.5]"),
    "no members": (LAM3, 0.5, (np.arange(0), 1), SectorError,
                   "a family needs at least one member mu, got []"),
    "a member array": (LAM3, 0.5, (np.arange(2), 1), SectorError,
                       "the observables take one member mu, got [0 1]"),
    "a member array to the measures": (LAM3, 0.5, (np.arange(2), 1), SectorError,
                                       "sector_lists takes one member mu, got [0 1]"),
}
# the cases about z, which only the entries that take a z refuse
Z_CASES = {"non-finite z", "non-finite z of |z>", "a row off the unit disc"}
# a case that only the entries which do not take its sector refuse -> those entries
REFUSED_BY = {
    "a member array": {"mandel_q", "squeezing"},
    "a member array to the measures": {entry for entry, (*_, takes_z) in ENTRIES.items()
                                       if not takes_z},
}


def _sector_kind(sector):
    if sector is None:
        return None
    return "members" if np.ndim(sector[0]) else "member"


def _refuses(entry, case):
    """Whether entry refuses case: its sector's family is checked before an
    entry that takes one member refuses an array of them."""
    _, _, kinds, takes_z = ENTRIES[entry]
    if case in Z_CASES and not takes_z:
        return False
    if case in REFUSED_BY:
        return entry in REFUSED_BY[case]
    kind = _sector_kind(REFUSALS[case][2])
    return kind in kinds or (kind == "members" and "member" in kinds)


FAMILY_CHECKS = [
    pytest.param(entry, case, stacked, id=f"{entry}-{case}-{'stack' if stacked else 'one'}")
    for entry, (_, takes_stack, *_) in ENTRIES.items()
    for case in REFUSALS
    for stacked in ((False, True) if takes_stack else (False,))
    if _refuses(entry, case)
]


@pytest.mark.parametrize("entry, case, stacked", FAMILY_CHECKS)
def test_one_family_check(entry, case, stacked):
    alpha, z, sector, error, message = REFUSALS[case]
    params = validate_params(len(alpha), alpha)
    with pytest.raises(error) as got:
        ENTRIES[entry][0]([params, params] if stacked else params, z, sector)
    assert str(got.value) == message
