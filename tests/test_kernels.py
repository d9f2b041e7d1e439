import numpy as np
import pytest

import cshiftlab as cl
from cshiftlab.errors import PoleError
from cshiftlab.flow import oscillation_nodes
from cshiftlab.kernels import k_kt, resolvent_kernel, solve_densities, u_kt, u_pm
from cshiftlab.quadgrid import graded_interval


def richardson_diag(kernel, lam, h):
    """Independent removable-singularity limit via off-diagonal evaluation."""
    v1 = 0.5 * (kernel.eval(lam, lam + h) + kernel.eval(lam, lam - h))
    v2 = 0.5 * (kernel.eval(lam, lam + h / 2) + kernel.eval(lam, lam - h / 2))
    return (4.0 * v2 - v1) / 3.0


class TestVt:
    def test_zero_symbol(self, pd_zero):
        vk = cl.v_t(pd_zero)
        assert np.max(np.abs(vk.eval(np.linspace(-1, 1, 5)[:, None],
                                     np.linspace(-1, 1, 5)[None, :]))) == 0.0

    def test_t_zero_collapses_to_sine_kernel(self):
        pd0 = cl.make_problem(a=-1, b=1, c=1.0, t=0.0, x=10.0,
                              F=cl.constant_symbol(0.2), p=cl.identity_phase())
        rng = np.random.default_rng(0)
        L = rng.uniform(-1, 1, 20)
        M = rng.uniform(-1, 1, 20)
        vt = cl.v_t(pd0)
        v0 = cl.v0(pd0)
        assert np.max(np.abs(vt.eval(L, M) - v0.eval(L, M))) < 1e-12

    def test_diagonal_from_richardson(self, pd_default):
        # implementer-derived closed form against the off-diagonal limit
        vk = cl.v_t(pd_default)
        for lam in (0.0, 0.5, -0.8):
            ref = complex(richardson_diag(vk, lam, 1e-4))
            assert complex(vk.diag(lam)) == pytest.approx(ref, abs=1e-8)

    def test_diagonal_value_default(self, pd_default):
        # F (2 t + c x p')/(2 pi c) at t=1, c=1, x=10, p'=1
        want = 0.2 * (2.0 + 10.0) / (2 * np.pi)
        assert complex(cl.v_t(pd_default).diag(0.3)) == pytest.approx(want)

    def test_removable_singularity_cauchy_sequence(self, pd_default):
        vk = cl.v_t(pd_default)
        vals = [complex(vk.eval(0.2, 0.2 + h)) for h in (1e-3, 1e-4, 1e-5)]
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 < d1 < 1e-2

    def test_pole_proximity(self, pd_default):
        with pytest.raises(PoleError):
            cl.v_t(pd_default).eval(0.5 + 1j, 0.5 + 1e-12j)


class TestV0:
    def test_zero_symbol(self, pd_zero):
        assert complex(cl.v0(pd_zero).eval(0.1, 0.7)) == 0.0

    def test_diagonal_vs_small_offset(self, pd_default):
        v0k = cl.v0(pd_default)
        want = 0.2 * 10.0 / (2 * np.pi)
        assert complex(v0k.diag(0.4)) == pytest.approx(want, abs=1e-15)
        assert complex(v0k.eval(0.4, 0.4 + 1e-6)) == pytest.approx(want,
                                                                   abs=1e-6)

    def test_direct_substitution(self):
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=np.pi,
                             F=cl.constant_symbol(1.0), p=cl.identity_phase())
        got = complex(cl.v0(pd).eval(0.5, -0.5))
        assert got == pytest.approx(np.sin(np.pi / 2) / np.pi, abs=1e-15)


def two_term_kernel(pd, t, lam, mu):
    """The uncombined two-term form of V_t, off the diagonal only."""
    d = lam - mu
    e = np.exp(0.5j * pd.x * (pd.p(lam) - pd.p(mu)))
    return 1j * pd.c * pd.F(lam) / (2j * np.pi * d) * (
        e / (t * d + 1j * pd.c) + 1.0 / e / (t * d - 1j * pd.c))


def interval_problem(x, t=1.0, F=0.2):
    return cl.make_problem(a=-1.0, b=1.0, c=1.0, t=t, x=x,
                           F=cl.constant_symbol(F), p=cl.identity_phase())


class TestIntervalKernelOracle:
    """V_t and V0 on the Gauss grids of the sweep against the two-term form."""

    @pytest.mark.parametrize("factory, t", [
        (cl.v_t, 1.0), (cl.v_t, 0.0), (cl.v_t, 0.5 + 0.1j),
        (cl.v0, 0.5 + 0.1j),  # V0 is the t = 0 form whatever pd.t is
    ])
    @pytest.mark.parametrize("x", [10.0, 1600.0])
    def test_off_diagonal_matches_two_term_form(self, x, factory, t):
        pd = interval_problem(x, t)
        t_form = t if factory is cl.v_t else 0.0
        kernel = factory(pd)
        z = cl.gauss_interval(oscillation_nodes(x, pd.p_range()), -1.0, 1.0).nodes
        err = kmax = 0.0
        for i in range(0, z.size, 256):  # row blocks bound the memory
            rows = np.arange(i, min(i + 256, z.size))
            K = kernel.eval(z[rows, None], z[None, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                ref = two_term_kernel(pd, t_form, z[rows, None], z[None, :])
            K[rows - i, rows] = ref[rows - i, rows] = 0.0
            err = max(err, np.max(np.abs(K - ref)))
            kmax = max(kmax, np.max(np.abs(K)))
        assert err < 1e-12 * kmax

    @pytest.mark.parametrize("t, F, want", [
        (1.0, 0.2, (np.float64, np.float64)),
        (0.5 + 0.1j, 0.2, (np.complex128, np.float64)),
        (1.0, 0.2 + 0.1j, (np.complex128, np.complex128)),
    ])
    def test_dtype_follows_the_data(self, t, F, want):
        # real t and F give real matrices; V0 does not depend on t
        pd = interval_problem(10.0, t, F)
        rule = cl.gauss_interval(28, -1.0, 1.0)
        z = rule.nodes
        for kernel, dtype in zip((cl.v_t(pd), cl.v0(pd)), want):
            K = kernel.eval(z[:, None], z[None, :])
            sys_ = cl.assemble(kernel, rule)
            assert K.dtype == kernel.diag(z).dtype == sys_.matrix.dtype == dtype
            off = ~np.eye(z.size, dtype=bool)
            assert np.array_equal(sys_.matrix[off], (K * rule.weights)[off])


class TestLoopKernels:
    def test_zero_symbol_determinants_are_one(self, pd_zero, loop_default):
        srh = cl.ScalarRH(pd_zero)
        for k in (1, 2):
            det = cl.determinant(cl.assemble(u_kt(pd_zero, k, srh),
                                             loop_default))
            assert det == pytest.approx(1.0, abs=1e-10)
        for s in (+1, -1):
            det = cl.determinant(cl.assemble(u_pm(pd_zero, s, srh),
                                             loop_default))
            assert det == pytest.approx(1.0, abs=1e-10)

    def test_small_t_limit(self, srh_default):
        pd_small = srh_default.pd.with_(t=1e-9)
        srh = cl.ScalarRH(pd_small)
        kern = u_kt(pd_small, 2, srh)
        z = 0.5 + 0.25j
        assert abs(complex(kern.eval(z, z + 0.3))) < 1e-8

    def test_k2_t1_explicit_form(self, pd_default, srh_default, loop_default):
        kern = u_kt(pd_default, 2, srh_default)
        z = loop_default.samples[:6]
        lam, mu = z[:, None], z[None, :]
        explicit = -srh_default.alpha(lam) / srh_default.alpha(mu + 1j) \
            / (2j * np.pi * ((mu - lam) + 1j))
        assert np.max(np.abs(kern.eval(lam, mu) - explicit)) < 1e-13

    def test_radius_invariance(self, pd_default, srh_default):
        dets = {}
        for r in (0.25, 0.125):
            loop = cl.stadium_contour(-1, 1, r)
            dets[r] = [cl.determinant(cl.assemble(u_pm(pd_default, s,
                                                       srh_default), loop))
                       for s in (+1, -1)]
        assert abs(dets[0.25][0] - dets[0.125][0]) < 1e-8
        assert abs(dets[0.25][1] - dets[0.125][1]) < 1e-8

    def test_large_shift_decay(self, srh_default):
        pd_big = srh_default.pd.with_(c=100.0)
        srh = cl.ScalarRH(pd_big)
        kern = u_pm(pd_big, +1, srh)
        assert abs(complex(kern.eval(0.5 + 0.2j, -0.5 + 0.2j))) < 1e-2

    def test_pm_product_matches_deformed_product(self, pd_default,
                                                 srh_default, loop_default):
        dp = cl.determinant(cl.assemble(u_pm(pd_default, +1, srh_default),
                                        loop_default))
        dm = cl.determinant(cl.assemble(u_pm(pd_default, -1, srh_default),
                                        loop_default))
        d1 = cl.determinant(cl.assemble(u_kt(pd_default, 1, srh_default),
                                        loop_default))
        d2 = cl.determinant(cl.assemble(u_kt(pd_default, 2, srh_default),
                                        loop_default))
        assert dp * dm == pytest.approx(d1 * d2, abs=1e-10)


class TestIntervalContourIdentity:
    GRID = graded_interval(-1.0, 1.0, n_panel=16, levels=6)

    @pytest.mark.parametrize("gam,t", [(0.2, 1.0), (0.5, 0.7),
                                       (0.1, 0.3 + 0.05j)])
    def test_det_identity(self, gam, t):
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=t, x=10.0,
                             F=cl.constant_symbol(gam), p=cl.identity_phase())
        srh = cl.ScalarRH(pd)
        loop = cl.stadium_contour(-1, 1, 0.25)
        grule = graded_interval(pd.a, pd.b)
        for k in (1, 2):
            dU = cl.determinant(cl.assemble(u_kt(pd, k, srh), loop))
            dK = cl.determinant(cl.assemble(k_kt(pd, k, srh), grule))
            assert abs(dU - dK) / abs(dU) < 1e-7

    def test_seeded_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            gam = rng.uniform(0.05, 0.6)
            t = complex(rng.uniform(0.3, 1.2), rng.uniform(-0.05, 0.05))
            pd = cl.make_problem(a=-1, b=1, c=1.0, t=t, x=10.0,
                                 F=cl.constant_symbol(gam),
                                 p=cl.identity_phase())
            srh = cl.ScalarRH(pd)
            loop = cl.stadium_contour(-1, 1, min(0.25, 0.4 / abs(t)))
            grule = graded_interval(pd.a, pd.b)
            for k in (1, 2):
                dU = cl.determinant(cl.assemble(u_kt(pd, k, srh), loop))
                dK = cl.determinant(cl.assemble(k_kt(pd, k, srh), grule))
                assert abs(dU - dK) / abs(dU) < 1e-7

    def test_zero_symbol_k_kernel(self, pd_zero):
        srh = cl.ScalarRH(pd_zero)
        det = cl.determinant(cl.assemble(k_kt(pd_zero, 2, srh), self.GRID))
        assert det == pytest.approx(1.0, abs=1e-12)

    def test_regression_baseline(self, pd_default, srh_default):
        # frozen after the first dual-path-verified run (k=2, gamma=0.2, t=1)
        det = cl.determinant(cl.assemble(k_kt(pd_default, 2, srh_default),
                                         self.GRID))
        assert det == pytest.approx(1.0610362410161316, abs=2e-10)


class TestResolvent:
    def test_zero_symbol(self, pd_zero, grid48):
        rule = cl.gauss_interval(48, -1, 1)
        rk = resolvent_kernel(pd_zero, rule, grid48)
        assert abs(complex(rk.eval(0.3, -0.2))) == 0.0

    def test_neumann_first_order(self, grid48):
        # for F = gamma small, R_t - V_t = O(gamma^2) pointwise
        rule = cl.gauss_interval(48, -1, 1)
        gaps = []
        for gam in (1e-4, 2e-4):
            pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=10.0,
                                 F=cl.constant_symbol(gam),
                                 p=cl.identity_phase())
            rk = resolvent_kernel(pd, rule, grid48)
            vk = cl.v_t(pd)
            gap = 0.0
            for lam, mu in [(0.3, -0.4), (0.8, 0.1)]:
                gap = max(gap, abs(complex(rk.eval(lam, mu))
                                   - complex(vk.eval(lam, mu))))
            gaps.append(gap)
        assert gaps[0] < 5e-8
        assert 3.0 < gaps[1] / gaps[0] < 5.0  # quadratic in gamma

    def test_against_direct_matrix_resolvent(self, pd_default, grid48):
        rule = cl.gauss_interval(64, -1, 1)
        dens = solve_densities(pd_default, rule, grid48)
        rk = resolvent_kernel(pd_default, rule, grid48, densities=dens)
        # direct route: R = (I + V W)^{-1} V as a kernel matrix
        Vmat = dens.Vmat
        A = np.eye(rule.n) + Vmat * rule.weights[None, :]
        Rmat = np.linalg.solve(A, Vmat)
        rng = np.random.default_rng(1)
        idx = rng.integers(0, rule.n, size=(10, 2))
        for i, j in idx:
            if i == j:
                continue
            got = complex(rk.eval(rule.nodes[i], rule.nodes[j]))
            assert got == pytest.approx(Rmat[i, j], abs=1e-8)
        # the diagonal, a difference limit, against the same direct route
        i = idx[:, 0]
        assert np.max(np.abs(rk.diag(rule.nodes[i]) - Rmat[i, i])) < 1e-8

    def test_diagonal_cauchy_sequence(self, pd_default, grid48):
        rule = cl.gauss_interval(64, -1, 1)
        rk = resolvent_kernel(pd_default, rule, grid48)
        lam = 0.3
        d = complex(rk.diag(lam))
        offs = [complex(rk.eval(lam, lam + h)) for h in (1e-3, 1e-4)]
        assert abs(offs[1] - d) < abs(offs[0] - d)

    def test_shape_contract(self, pd_default, grid48):
        # diag keeps its argument's shape and eval broadcasts, as for v_t
        rk = resolvent_kernel(pd_default, cl.gauss_interval(16, -1, 1),
                              grid48)
        mu = -0.4
        for lam in (0.3, np.array([0.3]), np.array([0.3, -0.2, 0.7]),
                    np.array([[0.3, -0.2], [0.7, 0.1]])):
            shape = np.shape(lam)
            d = rk.diag(lam)
            r = rk.eval(lam, mu)
            assert np.shape(d) == shape
            assert np.shape(r) == shape
            flat = np.ravel(lam)
            assert np.array_equal(np.ravel(d),
                                  [complex(rk.diag(l)) for l in flat])
            assert np.array_equal(np.ravel(r),
                                  [complex(rk.eval(l, mu)) for l in flat])
        assert np.shape(rk.eval(np.array([[0.3], [0.7]]),
                                np.array([-0.4, 0.1, 0.5]))) == (2, 3)
