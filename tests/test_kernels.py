import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cshiftlab as cl
from cshiftlab.errors import PoleError
from cshiftlab.flow import oscillation_nodes
from cshiftlab.fredholm import low_rank_system
from cshiftlab.kernels import (KernelHandle, k_factors, k_kt, resolvent_kernel,
                               u_kt)
from cshiftlab.quadgrid import graded_interval


def richardson_diag(kernel, lam, h):
    """Independent removable-singularity limit via off-diagonal evaluation."""
    v1 = 0.5 * (kernel.eval(lam, lam + h) + kernel.eval(lam, lam - h))
    v2 = 0.5 * (kernel.eval(lam, lam + h / 2) + kernel.eval(lam, lam - h / 2))
    return (4.0 * v2 - v1) / 3.0


POLY_PHASE = cl.poly_phase((0.0, 1.0, 0.2))


def _kernel_case(name, pd, srh, loop, grid48):
    """A kernel of the catalog on pd_default, and the support it lives on."""
    interval = cl.gauss_interval(24, pd.a, pd.b)
    if name == "R_t":
        chi = cl.ChiSolution(pd, cl.gauss_interval(16, pd.a, pd.b), grid48)
        return resolvent_kernel(chi), cl.gauss_interval(8, pd.a, pd.b)
    graded = graded_interval(pd.a, pd.b)
    return {
        "V_t": (cl.v_t(pd), interval),
        "V_t_complex": (cl.v_t(pd.with_(t=0.5 + 0.1j)), interval),
        "V_t_poly": (cl.v_t(pd.with_(p=POLY_PHASE)), interval),
        "V0": (cl.v0(pd), interval),
        "U_1": (u_kt(pd, 1, srh), loop),
        "U_2": (u_kt(pd, 2, srh), loop),
        "K_1": (k_kt(pd, 1, srh), graded),
        "K_2": (k_kt(pd, 2, srh), graded),
    }[name]


ALL_KERNELS = ["V_t", "V_t_complex", "V_t_poly", "V0", "U_1", "U_2", "K_1",
               "K_2", "R_t"]


class TestDiagonal:
    """Every kernel is one evaluator, exact on the diagonal lam = mu."""

    @pytest.mark.parametrize("name", ALL_KERNELS[:-1])
    def test_diagonal_from_richardson(self, name, pd_default, srh_default,
                                      loop_default, grid48):
        # the value at lam = mu against the limit of off-diagonal values
        kern, support = _kernel_case(name, pd_default, srh_default,
                                     loop_default, grid48)
        if isinstance(support, cl.Contour):
            lams = support.nodes[::37]
        else:
            lams = np.array([0.0, 0.5, -0.8])
        for lam in lams:
            ref = complex(richardson_diag(kern, lam, 1e-4))
            assert complex(kern.diag(lam)) == pytest.approx(
                ref, abs=1e-8 * max(1.0, abs(ref)))

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_assembly_takes_the_diagonal_from_eval(
            self, name, pd_default, srh_default, loop_default, grid48):
        # assemble evaluates the kernel on every node pair, the diagonal
        # included, and calls no diag
        kern, support = _kernel_case(name, pd_default, srh_default,
                                     loop_default, grid48)
        calls = []
        kern.diag = lambda lam: calls.append(lam)
        sys_ = cl.assemble(kern, support)
        assert calls == []
        z, w = support.nodes, support.weights
        K = kern.eval(z[:, None], z[None, :])
        assert np.array_equal(sys_.matrix, K * w + np.eye(z.size))


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
    """V_t and V0 on the grids of the sweep against the two-term form."""

    @pytest.mark.parametrize("factory, t", [
        (cl.v_t, 1.0), (cl.v_t, 0.0), (cl.v_t, 0.5 + 0.1j),
        (cl.v0, 0.5 + 0.1j),  # V0 is the t = 0 form whatever pd.t is
    ])
    @pytest.mark.parametrize("x", [10.0, 1600.0])
    def test_off_diagonal_matches_two_term_form(self, x, factory, t):
        pd = interval_problem(x, t)
        t_form = t if factory is cl.v_t else 0.0
        kernel = factory(pd)
        z = cl.transplanted_interval(oscillation_nodes(pd), -1.0, 1.0).nodes
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


CUBIC_PHASE = (0.0, 1.0, 0.0, 0.3)
EPS = np.finfo(float).eps


def _v0_error_model(pd, rule, i, j):
    """eps (1 + |a_i| + |a_j|) |F(lam_i)| w_j / (pi |lam_i - lam_j|), a = x p/2,
    for the pairs (i, j) of rule nodes.

    a_i and a_j carry rounding errors of about eps |a|, and sin(a_i - a_j)
    with them, whether it comes by angle addition or from theta directly;
    the entry divides it by lam_i - lam_j.
    """
    lam, w = rule.nodes, rule.weights
    a = 0.5 * pd.x * np.abs(pd.p(lam))
    return EPS * (1.0 + a[i] + a[j]) * np.abs(pd.F(lam))[i] * w[j] \
        / (np.pi * np.abs(lam[i] - lam[j]))


class TestV0GeneratorsAgainstDirectTheta:
    """I + V0 W from its generators (sin(a_i - a_j) by angle addition)
    against the dense kernel, which takes theta = x [p(lam) - p(mu)]/2
    directly for every pair."""

    @pytest.mark.parametrize("build", [cl.gauss_interval,
                                       cl.transplanted_interval])
    @pytest.mark.parametrize("p", [(0.0, 1.0), CUBIC_PHASE],
                             ids=["identity", "cubic"])
    @pytest.mark.parametrize("F", [0.2, 0.2 + 0.1j])
    @pytest.mark.parametrize("x", [100.0, 800.0])
    def test_whole_matrix(self, x, F, p, build):
        pd = _shift_problem(F, p, 1.0, 1.0, x=x)
        rule = build(oscillation_nodes(pd), -1.0, 1.0)
        G = cl.fredholm.cauchy_like_matrix(rule.nodes,
                                           *cl.v0_generators(pd, rule))
        D = cl.assemble(cl.v0(pd), rule).matrix
        assert G.dtype == D.dtype
        i, j = np.nonzero(~np.eye(rule.n, dtype=bool))
        assert np.all(np.abs(G - D)[i, j]
                      <= 4.0 * _v0_error_model(pd, rule, i, j))
        assert np.all(np.abs(np.diag(G) - np.diag(D))
                      <= 4.0 * EPS * np.abs(np.diag(D)))

    @pytest.mark.parametrize("p", [(0.0, 1.0), CUBIC_PHASE],
                             ids=["identity", "cubic"])
    @pytest.mark.parametrize("x", [1600.0, 2e4, 2e5])
    def test_sampled_pairs_at_large_x(self, x, p):
        # the sweep's rule, 76,012 nodes at x = 2e5 with the identity phase;
        # neighbours up to 7 nodes apart (both ways round) and random pairs
        rng = np.random.default_rng(int(x))
        for F in (0.2, -0.5 + 0.5j):
            pd = _shift_problem(F, p, 1.0, 1.0, x=x)
            rule = cl.transplanted_interval(oscillation_nodes(pd), -1.0, 1.0)
            lam, w, n = rule.nodes, rule.weights, rule.n
            near = rng.integers(0, n - 7, 1000)
            step = near + rng.integers(1, 8, 1000)
            i = np.concatenate([near, step, rng.integers(0, n, 1000)])
            j = np.concatenate([step, near, rng.integers(0, n, 1000)])
            i, j = i[i != j], j[i != j]
            g, h, _ = cl.v0_generators(pd, rule)
            gen = np.einsum("pk,pk->p", g[i], h[j]) / (lam[i] - lam[j])
            direct = cl.v0(pd).eval(lam[i], lam[j]) * w[j]
            ratio = np.abs(gen - direct) / _v0_error_model(pd, rule, i, j)
            # within the model, which the rounding does reach
            assert 0.25 < ratio.max() <= 4.0


def _shift_problem(F, p, c, t, x=100.0):
    return cl.make_problem(a=-1.0, b=1.0, c=c, t=t, x=x,
                           F=cl.constant_symbol(F), p=cl.poly_phase(p))


def _shift_miss(pd):
    """max |U R^T - (V_t - V0) W| / max |(V_t - V0) W| on the sweep's rule."""
    rule = cl.transplanted_interval(oscillation_nodes(pd), pd.a, pd.b)
    D = cl.assemble(cl.v_t(pd), rule).matrix - cl.assemble(cl.v0(pd), rule).matrix
    U, R = cl.shift_factors(pd, rule)
    return np.max(np.abs(U @ R.T - D)) / np.max(np.abs(D)), U, R, D


class TestShiftFactors:
    """The c-shift V_t - V0 as exact low-rank Nystrom factors."""

    @pytest.mark.parametrize("t", [1.0, 0.5 + 0.1j])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [(0.0, 1.0), (0.0, 1.0, 0.2)],
                             ids=["identity", "poly"])
    @pytest.mark.parametrize("F", [0.2, -0.5, 0.6])
    def test_factors_match_the_dense_difference(self, F, p, c, t):
        miss, U, R, _ = _shift_miss(_shift_problem(F, p, c, t))
        assert miss < 1e-12
        # real data keep real factors, so V0's float64 LU stays real
        assert U.dtype == R.dtype == (np.float64 if t == 1.0 else np.complex128)

    def test_complex_symbol_gives_complex_factors(self):
        miss, U, R, _ = _shift_miss(
            _shift_problem(0.2 + 0.1j, (0.0, 1.0), 1.0, 1.0))
        assert miss < 1e-12 and U.dtype == R.dtype == np.complex128

    @pytest.mark.parametrize("c, r", [(0.5, 81), (1.0, 46), (2.0, 30)])
    def test_rank_follows_the_poles_not_x(self, c, r):
        # r = ceil(ln(1e16)/ln rho) + 4, rho = |u + sqrt(u^2 - 1)| at the
        # nearest pole u = i c: 46 at c = 1 for every x
        for x in (20.0, 1600.0):
            pd = _shift_problem(0.2, (0.0, 1.0), c, 1.0, x=x)
            U, R = cl.shift_factors(pd, cl.gauss_interval(64, -1.0, 1.0))
            assert U.shape == R.shape == (64, 2 * r)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_too_few_points_miss(self, c, monkeypatch):
        # negative control: the rule keeps about ten points in hand (r - 10
        # still meets 1e-12), a third of them misses by more than 1e-6
        basis = cl.kernels._chebyshev_basis
        monkeypatch.setattr(cl.kernels, "_chebyshev_basis",
                            lambda a, b, r, mu: basis(a, b, -(-r // 3), mu))
        assert _shift_miss(_shift_problem(0.2, (0.0, 1.0), c, 1.0))[0] > 1e-6

    def test_dropping_the_second_term_misses(self):
        # negative control: the e^{-i theta} term is half of the c-shift
        _, U, R, D = _shift_miss(_shift_problem(0.2, (0.0, 1.0), 1.0, 0.5 + 0.1j))
        r = U.shape[1] // 2
        assert np.max(np.abs(U[:, :r] @ R[:, :r].T - D)) > 1e-6 * np.max(np.abs(D))

    def test_t_zero_has_no_columns(self):
        U, R = cl.shift_factors(_shift_problem(0.2, (0.0, 1.0), 1.0, 0.0),
                                cl.gauss_interval(16, -1.0, 1.0))
        assert U.shape == R.shape == (16, 0)

    def test_pole_on_the_interval_raises(self):
        # t = i: the poles lam +- c/t sit on [a, b] itself
        with pytest.raises(PoleError):
            cl.shift_factors(_shift_problem(0.2, (0.0, 1.0), 1.0, 1j),
                             cl.gauss_interval(16, -1.0, 1.0))


#: t/c on two sets where the shift i eps_k c/t of K_{k;t} lies at least
#: (b - a)/2 = 1 off the real axis, or 20 away
RANDOM_T = st.one_of(
    # small |t| in every direction: |i c/t| >= 20 c
    st.builds(lambda s, phi: s * cmath.exp(1j * phi),
              st.floats(1e-6, 0.05), st.floats(-np.pi, np.pi)),
    # |t/c - 1/2| <= 1/2, where Re(c/t) >= 1
    st.builds(lambda rho, phi: 0.5 + 0.5 * rho * cmath.exp(1j * phi),
              st.floats(0.0, 1.0), st.floats(-np.pi, np.pi)))

#: beta's Gauss rule and the K-route's graded rule
K_RULES = {"gauss": cl.gauss_interval(192, -1.0, 1.0),
           "graded": graded_interval(-1.0, 1.0)}


def _k_problem(t, c=1.0, F=0.2):
    return cl.make_problem(a=-1.0, b=1.0, c=c, t=t, x=10.0,
                           F=cl.constant_symbol(F), p=cl.identity_phase())


class TestKFactors:
    """I + K_{k;t} W on an interval rule as the identity plus rank r."""

    @given(u=RANDOM_T, c=st.sampled_from([0.5, 1.0, 2.0]),
           F=st.sampled_from([0.2, -0.5, 0.2 + 0.3j]),
           rule_name=st.sampled_from(sorted(K_RULES)),
           k=st.sampled_from([1, 2]))
    @example(u=1.0, c=1.0, F=0.2, rule_name="gauss", k=1)
    @settings(max_examples=16, deadline=None)
    def test_factors_match_the_dense_kernel(self, u, c, F, rule_name, k):
        # Rounding model: the interpolated sum P_i . Q_j errs by a few eps
        # times sum_l |P_il| |Q_jl| (the Chebyshev Lebesgue constant is in
        # it), which also bounds the dense entry's own rounding.  Both
        # sides take one alpha_{k;+}: near the endpoints its evaluation
        # loses digits of its own.  The log-determinants are held to LU's
        # backward error, n eps cond_1(A).
        pd, rule = _k_problem(c * u, c, F), K_RULES[rule_name]
        srh = cl.ScalarRH(pd)
        lam = rule.nodes
        left = np.exp(cl.EPS_K[k] * srh.exponent(lam + 0j))
        P, Q = k_factors(pd, k, srh, rule, left=left)
        dense = k_kt(pd, k, srh)(lam[:, None], lam[None, :],
                                 left=left[:, None]) * rule.weights
        ratio = np.abs(P @ Q.T - dense) / (EPS * (np.abs(P) @ np.abs(Q).T))
        # within the model, which the rounding does reach
        assert 1.0 < ratio.max() <= 16.0
        sys_ = low_rank_system(rule, P, Q)
        sys_.factorization()
        ref = cl.assemble(k_kt(pd, k, srh), rule, left=left)
        assert abs(cl.logdet(sys_) - cl.logdet(ref)) \
            <= rule.n * EPS * sys_.cond

    @pytest.mark.parametrize("c, r", [(0.5, 81), (1.0, 46), (2.0, 30)])
    def test_rank_is_the_shift_factors_rank(self, c, r):
        # one pole lam - i eps_k c/t per node, as far off [a, b] as the
        # c-shift's: the same r, whatever the rule
        pd = _k_problem(1.0, c)
        srh = cl.ScalarRH(pd)
        for rule in K_RULES.values():
            for k in (1, 2):
                P, Q = k_factors(pd, k, srh, rule)
                assert P.shape == Q.shape == (rule.n, r)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_too_few_points_miss(self, c, monkeypatch):
        # negative control: a third of the Chebyshev points misses
        pd = _k_problem(1.0, c)
        srh, rule = cl.ScalarRH(pd), K_RULES["gauss"]
        dense = cl.assemble(k_kt(pd, 1, srh), rule).matrix - np.eye(rule.n)
        basis = cl.kernels._chebyshev_basis
        monkeypatch.setattr(cl.kernels, "_chebyshev_basis",
                            lambda a, b, r, mu: basis(a, b, -(-r // 3), mu))
        P, Q = k_factors(pd, 1, srh, rule)
        assert np.max(np.abs(P @ Q.T - dense)) > 1e-6 * np.max(np.abs(dense))

    def test_t_zero_has_no_columns(self):
        pd = _k_problem(0.0)
        srh, rule = cl.ScalarRH(pd), K_RULES["graded"]
        for k in (1, 2):
            P, Q = k_factors(pd, k, srh, rule)
            assert P.shape == Q.shape == (rule.n, 0)
            sys_ = low_rank_system(rule, P, Q)
            assert np.array_equal(sys_.matrix, np.eye(rule.n))
            assert cl.logdet(sys_) == 0.0
            g = np.ones((rule.n, 3))
            assert np.array_equal(cl.solve(sys_, g), g)

    def test_pole_on_the_interval_raises(self):
        # t = i: the pole lam - i eps_k c/t = lam - eps_k sits on [a, b]
        pd = _k_problem(1j)
        with pytest.raises(PoleError):
            k_factors(pd, 1, cl.ScalarRH(pd), K_RULES["gauss"])


def _dense_densities(pd, rule, grid):
    """F_L and F_R by dense solves of the assembled V_t and V_t^T systems."""
    vk = cl.v_t(pd)
    vk_T = KernelHandle(lambda lam, mu: vk.eval(mu, lam))
    EL, ER = cl.e_vectors(pd, grid, rule.nodes)
    n = rule.n
    return (np.linalg.solve(cl.assemble(vk, rule).matrix, EL.reshape(n, -1)),
            np.linalg.solve(cl.assemble(vk_T, rule).matrix, ER.reshape(n, -1)))


class TestChiDensities:
    """F_L and F_R from one I + V0 inverse, updated by the c-shift."""

    @pytest.mark.parametrize("F, p, c, t", [
        (0.2, (0.0, 1.0), 1.0, 1.0),
        (0.2, (0.0, 1.0), 1.0, 0.5 + 0.1j),
        (0.3, (0.0, 1.0, 0.2), 1.0, 1.0),
        (0.2, (0.0, 1.0), 2.0, 0.5 + 0.1j),
    ])
    def test_woodbury_matches_the_dense_vt_solves(self, grid48, F, p, c, t):
        pd = _shift_problem(F, p, c, t)
        rule = cl.gauss_interval(
            oscillation_nodes(pd, frequency=1.0, gauss=True), -1, 1)
        chi = cl.ChiSolution(pd, rule, grid48)
        for got, want in zip((chi.FL, chi.FR), _dense_densities(pd, rule,
                                                                grid48)):
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_without_the_shift_the_densities_are_wrong(self, grid48):
        # negative control: I + V0 alone, without U R^T, misses both
        pd = _shift_problem(0.2, (0.0, 1.0), 1.0, 0.5 + 0.1j)
        rule = cl.gauss_interval(
            oscillation_nodes(pd, frequency=1.0, gauss=True), -1, 1)
        sys0 = cl.assemble(cl.v0(pd), rule)
        EL, ER = cl.e_vectors(pd, grid48, rule.nodes)
        n = rule.n
        unshifted = (cl.solve(sys0, EL.reshape(n, -1)),
                     cl.solve(sys0.transposed(), ER.reshape(n, -1)))
        for got, want in zip(unshifted, _dense_densities(pd, rule, grid48)):
            assert np.max(np.abs(got - want)) > 1e-3 * np.max(np.abs(want))

    def test_no_vt_system_is_assembled(self, grid48, monkeypatch):
        pd = _shift_problem(0.2, (0.0, 1.0), 1.0, 0.5 + 0.1j, x=20.0)
        names = []
        original = cl.fredholm.assemble

        def assemble(kernel, support, **kw):
            names.append(kernel.name)
            return original(kernel, support, **kw)

        monkeypatch.setattr(cl.fredholm, "assemble", assemble)
        # rhp binds no assemble of its own, so fredholm's is the only one
        assert not hasattr(cl.rhp, "assemble")
        cl.ChiSolution(pd, cl.gauss_interval(48, -1, 1), grid48)
        # I + V0 comes from its generators: chi assembles nothing
        assert names == []


class TestLoopKernels:
    def test_zero_symbol_determinants_are_one(self, pd_zero, loop_default):
        srh = cl.ScalarRH(pd_zero)
        for k in (1, 2):
            det = cl.determinant(cl.assemble(u_kt(pd_zero, k, srh),
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
        z = loop_default.nodes[:6]
        lam, mu = z[:, None], z[None, :]
        explicit = -srh_default.alpha(lam) / srh_default.alpha(mu + 1j) \
            / (2j * np.pi * ((mu - lam) + 1j))
        assert np.max(np.abs(kern.eval(lam, mu) - explicit)) < 1e-13

    def test_radius_invariance(self, pd_default, srh_default):
        dets = {}
        for r in (0.25, 0.125):
            loop = cl.stadium_contour(-1, 1, r)
            dets[r] = [cl.determinant(cl.assemble(u_kt(pd_default, k,
                                                       srh_default), loop))
                       for k in (1, 2)]
        assert abs(dets[0.25][0] - dets[0.125][0]) < 1e-8
        assert abs(dets[0.25][1] - dets[0.125][1]) < 1e-8

    def test_large_shift_decay(self, srh_default):
        pd_big = srh_default.pd.with_(c=100.0)
        srh = cl.ScalarRH(pd_big)
        kern = u_kt(pd_big, 1, srh)
        assert abs(complex(kern.eval(0.5 + 0.2j, -0.5 + 0.2j))) < 1e-2

    @pytest.mark.parametrize("factory", [u_kt, k_kt])
    @pytest.mark.parametrize("k", [1, 2])
    def test_t_zero_gives_zeros(self, pd_default, loop_default, factory, k):
        # the factor -t vanishes, and the shift i eps_k c/t goes to infinity
        pd0 = pd_default.with_(t=0.0)
        kern = factory(pd0, k, cl.ScalarRH(pd0))
        lam = np.array([[0.1 + 0.3j], [-0.5 - 0.2j]])
        got = kern.eval(lam, np.array([0.2, 0.4j, -0.7]), left=np.ones((2, 1)))
        assert got.shape == (2, 3) and got.dtype == complex and not got.any()
        assert np.shape(kern.diag(0.3)) == ()
        assert cl.determinant(cl.assemble(kern, loop_default)) == 1.0

    def test_pm_product_matches_deformed_product(self, pd_default,
                                                 srh_default, loop_default):
        # U_+- written out, alpha^{-+1}(lam) alpha^{+-1}(mu -+ i c) /
        # (2 i pi (lam - mu +- i c)), are the t = 1 members k = 1, 2
        c, srh = pd_default.c, srh_default

        def u_pm(s):
            def eval_(lam, mu):
                lam = np.asarray(lam, dtype=complex)
                mu = np.asarray(mu, dtype=complex)
                return np.exp(-s * srh.exponent(lam)) \
                    * np.exp(s * srh.exponent(mu - 1j * s * c)) \
                    / (2j * np.pi * (lam - mu + 1j * s * c))
            return KernelHandle(eval_)

        dp, dm = (cl.determinant(cl.assemble(u_pm(s), loop_default))
                  for s in (+1, -1))
        d1, d2 = (cl.determinant(cl.assemble(u_kt(pd_default, k, srh),
                                             loop_default)) for k in (1, 2))
        assert dp == pytest.approx(d1, abs=1e-13)
        assert dm == pytest.approx(d2, abs=1e-13)


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

    @pytest.mark.parametrize("k", [1, 2])
    def test_k_kernel_pole(self, pd_default, srh_default, k):
        # K_{k;t} shares U_{k;t}'s body and its pole t(mu - lam) = -i eps_k c
        e = cl.symbols.EPS_K[k]
        kern = k_kt(pd_default, k, srh_default)
        with pytest.raises(PoleError):
            kern.eval(0.3, 0.3 - 1j * e * pd_default.c / pd_default.t)

    @given(u=RANDOM_T, c=st.floats(0.5, 2.0), F_re=st.floats(-0.5, 0.6),
           F_im=st.floats(-0.3, 0.3), k=st.sampled_from([1, 2]))
    @example(u=0j, c=1.0, F_re=0.2, F_im=0.0, k=1)
    @settings(max_examples=12, deadline=None)
    def test_k_route_matches_the_loop_for_random_t(self, u, c, F_re, F_im, k):
        # t = c u.  On both sets the shift i eps_k c/t lies at least
        # (b - a)/2 = 1 off the real axis, or 20 away, so alpha_k^{-1}(mu +
        # shift) stays analytic between the loop (radius r <= 1/2) and
        # [a, b].  The miss is held to the rules' own refinement gaps.
        pd = cl.make_problem(a=-1, b=1, c=c, t=c * u, x=10.0,
                             F=cl.constant_symbol(complex(F_re, F_im)),
                             p=cl.identity_phase())
        srh = cl.ScalarRH(pd)
        loop, grule = srh.loop, graded_interval(pd.a, pd.b)
        (dU, dK), (dU2, dK2) = (
            (cl.determinant(cl.assemble(u_kt(pd, k, srh), lp)),
             cl.determinant(cl.assemble(k_kt(pd, k, srh), gr)))
            for lp, gr in ((loop, grule), (loop.refined(), grule.refined())))
        gap = abs(dU2 / dU - 1.0) + abs(dK2 / dK - 1.0)
        assert abs(dK / dU - 1.0) <= 2.0 * gap + 64 * EPS

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
    def test_reads_the_chi_densities_without_solving(self, pd_default, grid48,
                                                     monkeypatch):
        # the kernel interpolates the densities chi already holds: neither
        # building nor evaluating it runs another Nystrom solve
        chi = cl.ChiSolution(pd_default, cl.gauss_interval(32, -1, 1), grid48)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return cl.fredholm.solve(*args, **kwargs)

        monkeypatch.setattr(cl.rhp, "solve", spy)
        rk = resolvent_kernel(chi)
        rk.eval(0.3, -0.2)
        rk.diag(np.array([0.1, 0.5]))
        assert calls == []
        # the spy is live: a fresh chi solves for F_L and F_R through it
        cl.ChiSolution(pd_default, chi.rule, grid48)
        assert len(calls) == 2

    def test_zero_symbol(self, pd_zero, grid48):
        rule = cl.gauss_interval(48, -1, 1)
        rk = resolvent_kernel(cl.ChiSolution(pd_zero, rule, grid48))
        assert abs(complex(rk.eval(0.3, -0.2))) == 0.0

    def test_neumann_first_order(self, grid48):
        # for F = gamma small, R_t - V_t = O(gamma^2) pointwise
        rule = cl.gauss_interval(48, -1, 1)
        gaps = []
        for gam in (1e-4, 2e-4):
            pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=10.0,
                                 F=cl.constant_symbol(gam),
                                 p=cl.identity_phase())
            rk = resolvent_kernel(cl.ChiSolution(pd, rule, grid48))
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
        rk = resolvent_kernel(cl.ChiSolution(pd_default, rule, grid48))
        # direct route: R = (I + V W)^{-1} V as a kernel matrix
        Vmat = (cl.assemble(cl.v_t(pd_default), rule).matrix
                - np.eye(rule.n)) / rule.weights[None, :]
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
        rk = resolvent_kernel(cl.ChiSolution(pd_default, rule, grid48))
        lam = 0.3
        d = complex(rk.diag(lam))
        offs = [complex(rk.eval(lam, lam + h)) for h in (1e-3, 1e-4)]
        assert abs(offs[1] - d) < abs(offs[0] - d)

    def test_shape_contract(self, pd_default, grid48):
        # diag keeps its argument's shape and eval broadcasts, as for v_t
        rk = resolvent_kernel(cl.ChiSolution(
            pd_default, cl.gauss_interval(16, -1, 1), grid48))
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
