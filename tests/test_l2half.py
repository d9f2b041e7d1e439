import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cshiftlab as cl
from cshiftlab.errors import GridMismatchError, ParameterDomainError
from cshiftlab.l2half import factor_bound, smoothing_bound


class TestMVec:
    def test_phase_vanishes_at_t_zero(self):
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=0.0, x=5.0,
                             F=cl.constant_symbol(0.2), p=cl.identity_phase())
        grid = cl.laguerre_halfline(24, 1.0)
        for k in (1, 2):
            v = cl.m_vec(k, pd, grid, 0.7)
            assert v == pytest.approx(np.exp(-0.5 * grid.nodes), abs=1e-14)

    def test_sqrt_c_prefactor(self):
        pd = cl.make_problem(a=-1, b=1, c=4.0, t=1.0, x=5.0,
                             F=cl.constant_symbol(0.2), p=cl.identity_phase())
        grid = cl.laguerre_halfline(24, 4.0)
        v = cl.m_vec(1, pd, grid, 0.0)
        assert v == pytest.approx(2.0 * np.exp(-2.0 * grid.nodes), abs=1e-14)

    def test_unimodular_phase_for_real_lambda(self, pd_default, grid48):
        v = cl.m_vec(1, pd_default, grid48, 0.5)
        assert np.abs(v) == pytest.approx(np.exp(-0.5 * grid48.nodes),
                                          abs=1e-14)

    def test_growth_condition_raises(self, pd_default, grid48):
        with pytest.raises(ParameterDomainError):
            cl.m_vec(1, pd_default, grid48, 1.0j)


class TestPairing:
    def test_normalization_at_equal_points(self, pd_default, grid48):
        for k in (1, 2):
            for lam in (0.0, 0.7, -0.4):
                kap = cl.kappa_form(k, pd_default, grid48, lam)
                m = cl.m_vec(k, pd_default, grid48, lam)
                assert cl.pair(grid48, kap, m) == pytest.approx(1.0, abs=1e-13)

    def test_closed_rational_form(self, pd_default, grid48):
        # quadrature pairing against i c eps_k / (t(lam - mu) + i eps_k c)
        worst = 0.0
        pts = np.linspace(pd_default.a, pd_default.b, 10)
        for k in (1, 2):
            for lam in pts:
                kap = cl.kappa_form(k, pd_default, grid48, lam)
                for mu in pts:
                    m = cl.m_vec(k, pd_default, grid48, mu)
                    got = cl.pair(grid48, kap, m)
                    ref = cl.pairing_closed_form(k, pd_default, lam, mu)
                    worst = max(worst, abs(got - ref))
        assert worst < 1e-9

    def test_linearity_on_zero_vector(self, pd_default, grid48):
        kap = cl.kappa_form(1, pd_default, grid48, 0.3)
        assert cl.pair(grid48, kap, np.zeros(grid48.n)) == 0.0


class TestEVectors:
    def test_zero_symbol_kills_left_vector(self, pd_zero, grid48):
        EL, ER = cl.e_vectors(pd_zero, grid48, 0.2)
        assert np.max(np.abs(EL)) == 0.0
        assert np.max(np.abs(ER)) > 0.0

    def test_diagonal_pairing_vanishes(self, pd_default, grid48):
        ws2 = np.concatenate([grid48.weights, grid48.weights])
        for lam in (0.37, -0.8):
            EL, ER = cl.e_vectors(pd_default, grid48, lam)
            assert abs((EL.ravel() * ws2) @ ER.ravel()) < 1e-12

    def test_reproduces_deformed_kernel(self, pd_default, grid48):
        vk = cl.v_t(pd_default)
        ws2 = np.concatenate([grid48.weights, grid48.weights])
        for lam, mu in [(0.3, -0.1), (0.9, 0.7)]:
            EL, _ = cl.e_vectors(pd_default, grid48, lam)
            _, ER = cl.e_vectors(pd_default, grid48, mu)
            val = (EL.ravel() * ws2) @ ER.ravel() / (lam - mu)
            assert val == pytest.approx(complex(vk.eval(lam, mu)), abs=1e-10)


class TestBroadcast:
    """Node-array calls equal the stacked scalar calls."""

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    def test_array_calls_match_scalar_calls(self, pd_default, grid48, shape):
        rng = np.random.default_rng(11)
        lam = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-0.2, 0.2, shape)
        for fn, tail in [(lambda z: cl.m_vec(1, pd_default, grid48, z), ()),
                         (lambda z: cl.m_vec(2, pd_default, grid48, z), ()),
                         (lambda z: cl.kappa_form(1, pd_default, grid48, z), ()),
                         (lambda z: cl.kappa_form(2, pd_default, grid48, z), ()),
                         (lambda z: cl.e_vectors(pd_default, grid48, z)[0], (2,)),
                         (lambda z: cl.e_vectors(pd_default, grid48, z)[1], (2,))]:
            got = fn(lam)
            want = np.array([fn(z) for z in lam.ravel()])
            assert got.shape == shape + tail + (grid48.n,)
            assert np.max(np.abs(got.reshape(want.shape) - want)) \
                <= 1e-15 * np.max(np.abs(want))

    def test_growth_check_rejects_any_bad_entry(self, pd_default, grid48):
        lam = np.array([[0.1, 0.2 + 0.1j], [-0.3, 0.5 + 0.25j]])
        for fn in (cl.m_vec, cl.kappa_form):
            with pytest.raises(ParameterDomainError):
                fn(1, pd_default, grid48, lam)
        with pytest.raises(ParameterDomainError):
            cl.e_vectors(pd_default, grid48, lam)


class TestRankOne:
    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=15, deadline=None)
    def test_action_is_scaled_vector(self, seed):
        rng = np.random.default_rng(seed)
        grid = cl.laguerre_halfline(16, 1.0)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        kap = rng.normal(size=16) + 1j * rng.normal(size=16)
        f = rng.normal(size=16)
        mat = cl.rank_one(v, kap, grid)
        assert mat @ f == pytest.approx(v * cl.pair(grid, kap, f), abs=1e-12)

    def test_trace_is_pairing(self, grid48):
        rng = np.random.default_rng(5)
        v = rng.normal(size=48)
        kap = rng.normal(size=48)
        mat = cl.rank_one(v, kap, grid48)
        assert np.trace(mat) == pytest.approx(cl.pair(grid48, kap, v),
                                              abs=1e-12)

    def test_projector_algebra(self, grid48):
        rng = np.random.default_rng(6)
        v = rng.normal(size=48)
        kap = rng.normal(size=48)
        mat = cl.rank_one(v, kap, grid48)
        scale = cl.pair(grid48, kap, v)
        assert mat @ mat == pytest.approx(scale * mat, abs=1e-10)

    def test_grid_mismatch(self, grid48):
        with pytest.raises(GridMismatchError):
            cl.rank_one(np.ones(10), np.ones(48), grid48)


class TestDeterminants:
    def test_rank_one_determinant_closed_form(self, pd_default, grid48):
        # det[id + tau_k m_k kappa_k] = 1 + tau_k
        for k in (1, 2):
            for lam in (0.3, -0.6):
                tk = complex(cl.tau(k, pd_default, lam))
                mat = np.eye(grid48.n) + tk * cl.rank_one(
                    cl.m_vec(k, pd_default, grid48, lam),
                    cl.kappa_form(k, pd_default, grid48, lam), grid48)
                det = np.linalg.det(mat)
                assert det == pytest.approx(1.0 + tk, abs=1e-10)


class TestSmoothingBound:
    def test_smoothing_decay_pattern(self, chi_default):
        # the chi kernel inherits the e^{-c(s+s')/4} decay: entries near
        # the far corner of the grid stay under the bound set by the
        # near-origin entries
        ch = chi_default.chi(2.0j)
        grid = chi_default.grid
        w = np.tile(grid.weights, 2)
        kern = np.abs((ch - np.eye(2 * grid.n)) / w[None, :])
        s = np.tile(grid.nodes, 2)
        bound = smoothing_bound(ch, grid)
        assert np.all(kern <= bound * np.exp(-0.25 * grid.c
                                             * (s[:, None] + s[None, :]))
                      + 1e-300)
        # the bound is set in the small-s corner, not by a far-out entry
        i, j = np.unravel_index(
            np.argmax(kern * np.exp(0.25 * grid.c * (s[:, None] + s[None, :]))),
            kern.shape)
        assert s[i] + s[j] < 5.0

    def test_equals_the_per_call_formula_bitwise(self, chi_default):
        # the bound is the one formed from scratch on every call
        grid = cl.laguerre_halfline(48, 1.0)
        for lam in (2.0j, 0.3 + 0.1j):
            ch = chi_default.chi(lam)
            w = np.tile(grid.weights, 2)
            kernel = (ch - np.eye(2 * grid.n)) / w[None, :]
            s = np.tile(grid.nodes, 2)
            growth = np.exp(0.25 * grid.c * (s[:, None] + s[None, :]))
            assert smoothing_bound(ch, grid) \
                == float(np.max(np.abs(kernel) * growth))


class TestFactorBound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_dense_bound(self, seed):
        # I + sum_jk coef[j, k] l_j (x) r_k assembled densely, with factors
        # decaying like the half-line objects and one coefficient zero
        grid = cl.laguerre_halfline(48, 1.0)
        rng = np.random.default_rng(seed)
        decay = np.exp(-0.3 * grid.nodes)
        l, r = (rng.normal(size=(2, 2, grid.n))
                + 1j * rng.normal(size=(2, 2, grid.n))) * decay
        r = r * grid.weights
        coef = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        coef[rng.integers(2), rng.integers(2)] = 0.0
        n = grid.n
        mat = np.eye(2 * n, dtype=complex)
        for j in (0, 1):
            for k in (0, 1):
                mat[j * n:(j + 1) * n, k * n:(k + 1) * n] += \
                    coef[j, k] * np.outer(l[j], r[k])
        assert factor_bound(coef, l, r, grid) \
            == pytest.approx(smoothing_bound(mat, grid), rel=1e-13)
