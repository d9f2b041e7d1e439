import numpy as np
import pytest

import cshiftlab as cl
from cshiftlab.errors import AssemblyError, NearSingularityError
from cshiftlab.fredholm import NystromSystem, logdet, logdet_update


class TestAssemble:
    def test_zero_kernel_gives_identity(self):
        rule = cl.gauss_interval(12, 0.0, 1.0)
        sys = cl.assemble(lambda l, m: np.zeros(np.broadcast(l, m).shape), rule)
        assert np.array_equal(sys.matrix, np.eye(12))
        assert cl.determinant(sys) == 1.0

    def test_rank_one_kernel_structure(self):
        rule = cl.gauss_interval(8, 0.0, 1.0)
        sys = cl.assemble(lambda l, m: np.ones(np.broadcast(l, m).shape), rule)
        expect = np.eye(8) + np.outer(np.ones(8), rule.weights)
        assert np.max(np.abs(sys.matrix - expect)) < 1e-15

    def test_pole_on_support_raises(self):
        rule = cl.gauss_interval(8, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(AssemblyError):
            cl.assemble(lambda l, m: 1.0 / (l - m), rule)

    def test_bare_callable_keeps_its_kernel(self):
        # the system holds whatever was assembled, so a plain function
        # gets the refinement error estimate like a kernel handle
        rule = cl.gauss_interval(12, 0.0, 1.0)
        kernel = lambda l, m: 0.5 * np.exp(l * m)  # noqa: E731
        sys_ = cl.assemble(kernel, rule)
        assert sys_.kernel is kernel
        det, err = cl.determinant(sys_, with_error=True)
        want = cl.determinant(cl.assemble(kernel, rule.refined()))
        assert err == pytest.approx(abs(want - det), abs=1e-15)
        assert err < 1e-13


class TestDeterminant:
    def test_rank_one_fredholm_series(self):
        # K(l, m) = e(l) f(m): the series truncates, det = 1 + int e f
        rule = cl.gauss_interval(24, 0.0, 1.0)
        e = lambda l: np.exp(l)
        f = lambda m: np.cos(3.0 * m)
        sys = cl.assemble(lambda l, m: e(l) * f(m) + 0.0 * (l + m), rule)
        exact = 1.0 + (np.e * (np.cos(3) + 3 * np.sin(3)) - 1.0) / 10.0
        assert cl.determinant(sys) == pytest.approx(exact, abs=1e-12)

    def test_refinement_changes_little_for_analytic_kernel(self, pd_default):
        rule = cl.gauss_interval(48, -1.0, 1.0)
        det, est = cl.determinant(cl.assemble(cl.v_t(pd_default), rule),
                                  with_error=True)
        assert est < 1e-10 * abs(det)

    def test_small_symbol_trace_formula(self):
        # d/dgamma log det(I+V0) at gamma = 0 equals tr V0 / gamma
        # = x (p(b)-p(a)) / (2 pi); Richardson over gamma in {1e-4, 2e-4}
        x = 10.0
        rule = cl.gauss_interval(64, -1.0, 1.0)
        vals = []
        for gam in (1e-4, 2e-4):
            pd = cl.make_problem(a=-1, b=1, c=1.0, t=0.0, x=x,
                                 F=cl.constant_symbol(gam),
                                 p=cl.identity_phase())
            vals.append(logdet(cl.assemble(cl.v0(pd), rule)).real / gam)
        slope = 2.0 * vals[0] - vals[1]  # extrapolate to gamma -> 0
        assert slope == pytest.approx(x * 2.0 / (2 * np.pi), rel=1e-6)

    def test_logdet_additivity(self, pd_default):
        rule = cl.gauss_interval(32, -1.0, 1.0)
        A = cl.assemble(cl.v_t(pd_default), rule)
        B = cl.assemble(cl.v0(pd_default), rule)
        detA = cl.determinant(A)
        detB = cl.determinant(B)
        detAB = np.linalg.det(A.matrix @ B.matrix)
        assert detAB == pytest.approx(detA * detB, rel=1e-10)

    def test_similarity_invariance(self, pd_default):
        rule = cl.gauss_interval(32, -1.0, 1.0)
        sys = cl.assemble(cl.v_t(pd_default), rule)
        rng = np.random.default_rng(2)
        d = np.exp(rng.uniform(-1, 1, rule.n))
        conj = np.diag(1.0 / d) @ sys.matrix @ np.diag(d)
        assert np.linalg.det(conj) == pytest.approx(cl.determinant(sys),
                                                    rel=1e-12)


class TestLogdetUpdate:
    @pytest.mark.parametrize("complex_u", [False, True])
    def test_lemma_against_the_updated_matrix(self, pd_default, complex_u):
        # ln det(I + K + U R^T) - ln det(I + K) for a float64 system, with
        # a real or a complex U, by the LU solve and by the held inverse
        rule = cl.gauss_interval(40, -1.0, 1.0)
        sys_ = cl.assemble(cl.v0(pd_default), rule)
        assert sys_.matrix.dtype == np.float64 and sys_._inv is None
        rng = np.random.default_rng(3)
        U, R = (0.1 * rng.standard_normal((40, 6)) for _ in range(2))
        if complex_u:
            U = U + 0.1j * rng.standard_normal((40, 6))
        want = np.linalg.slogdet(sys_.matrix + U @ R.T)
        want = want[0] * np.exp(want[1])
        lu = logdet_update(sys_, U, R) + logdet(sys_)
        sys_.factorization()
        held = logdet_update(sys_, U, R) + logdet(sys_)
        assert np.exp(lu) == pytest.approx(want, rel=1e-13)
        assert np.exp(held) == pytest.approx(want, rel=1e-13)
        assert abs(lu - held) < 1e-13

    def test_vanishing_update_is_minus_infinity(self):
        rule = cl.gauss_interval(8, 0.0, 1.0)
        sys_ = cl.assemble(lambda l, m: np.zeros(np.broadcast(l, m).shape),
                           rule)
        e1 = np.eye(8)[:, :1]
        assert logdet_update(sys_, -e1, e1) == complex(-np.inf)

    def test_singular_system_raises(self):
        rule = cl.gauss_interval(4, 0.0, 1.0)
        sys_ = NystromSystem(support=rule, kernel=None,
                             matrix=np.zeros((4, 4)))
        with pytest.raises(NearSingularityError):
            logdet_update(sys_, np.ones((4, 1)), np.ones((4, 1)))


class TestViews:
    """Rank-update and transposed views share their base system's inverse."""

    @staticmethod
    def _base(n=30, m=5, complex_u=False):
        rule = cl.gauss_interval(n, -1.0, 1.0)
        rng = np.random.default_rng(5)
        A = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        sys_ = NystromSystem(support=rule, kernel=None, matrix=A)
        U, R = (0.1 * rng.standard_normal((n, m)) for _ in range(2))
        if complex_u:
            U = U + 0.1j * rng.standard_normal((n, m))
        return sys_, U, R

    @pytest.mark.parametrize("complex_u", [False, True])
    def test_woodbury_inverse_and_condition(self, complex_u):
        sys_, U, R = self._base(complex_u=complex_u)
        view = sys_.updated(U, R)
        A = sys_.matrix + U @ R.T
        assert np.array_equal(view.matrix, A)
        inv = view.factorization()
        assert np.max(np.abs(inv - np.linalg.inv(A))) < 1e-13
        assert view.cond == pytest.approx(np.linalg.cond(A, 1), rel=1e-12)
        # the base holds its inverse for further views
        assert sys_._inv is not None and sys_.cond is not None

    def test_transposed_is_the_swapped_kernel(self, pd_default):
        rule = cl.gauss_interval(24, -1.0, 1.0)
        vk = cl.v_t(pd_default.with_(F=cl.poly_symbol([0.2, 0.15])))
        swapped = cl.KernelHandle(lambda l, m: vk.eval(m, l))
        view = cl.assemble(vk, rule).transposed()
        want = cl.assemble(swapped, rule).matrix
        assert np.max(np.abs(view.matrix - want)) < 1e-15
        assert np.max(np.abs(view.factorization() - np.linalg.inv(want))) \
            < 1e-13

    def test_no_columns_is_the_base_system(self):
        sys_, U, R = self._base(m=0)
        view = sys_.updated(U, R)
        assert np.array_equal(view.factorization(), sys_.factorization())

    def test_cap_applies_to_the_view(self):
        # a singular update of a well-conditioned base: A + U R^T has a
        # zero first column and C = I + R^T A^-1 U vanishes to rounding
        sys_, _, _ = self._base(n=8)
        e1 = np.eye(8)[:, :1]
        with pytest.raises(NearSingularityError):
            cl.solve(sys_.updated(-sys_.matrix @ e1, e1), np.ones(8))
        assert sys_.cond < 1e3

    def test_singular_base_raises(self):
        sys_, U, R = self._base(n=8, m=2)
        sys_.matrix[:, 0] = 0.0
        with pytest.raises(NearSingularityError):
            cl.solve(sys_.updated(U, R), np.ones(8))

    def test_logdet_update_applies_a_held_inverse(self, monkeypatch):
        sys_, U, R = self._base(complex_u=True)
        lu = logdet_update(sys_, U, R)
        sys_.factorization()
        monkeypatch.setattr(np.linalg, "solve", None)   # no LU solve left
        assert logdet_update(sys_, U, R) == pytest.approx(lu, rel=1e-13)


class TestSolve:
    def test_zero_kernel_identity_solve(self):
        rule = cl.gauss_interval(12, 0.0, 1.0)
        sys = cl.assemble(lambda l, m: np.zeros(np.broadcast(l, m).shape), rule)
        g = np.sin(rule.nodes)
        assert np.array_equal(cl.solve(sys, g), g)

    def test_sherman_morrison_oracle(self):
        # rank-one K = v(l) k(m): f = g - v * (k w g)/(1 + k w v)
        rule = cl.gauss_interval(16, 0.0, 1.0)
        v = lambda l: 1.0 + 0.5 * l
        k = lambda m: np.cos(m)
        sys = cl.assemble(lambda l, m: v(l) * k(m) + 0.0 * (l + m), rule)
        g = np.exp(rule.nodes)
        f = cl.solve(sys, g)
        kv = (k(rule.nodes) * rule.weights)
        expect = g - v(rule.nodes) * (kv @ g) / (1.0 + kv @ v(rule.nodes))
        assert np.max(np.abs(f - expect)) < 1e-12

    def test_residual_contract(self, pd_default):
        rule = cl.gauss_interval(64, -1.0, 1.0)
        sys = cl.assemble(cl.v_t(pd_default), rule)
        g = np.cos(rule.nodes) + 0.2j * rule.nodes
        f = cl.solve(sys, g)
        resid = np.max(np.abs(sys.matrix @ f - g))
        assert resid < 1e-10 * np.max(np.abs(g))

    def test_exactly_singular_system_raises(self):
        # rank-one with int e f = -1 makes det(I + K) = 0
        rule = cl.gauss_interval(16, 0.0, 1.0)
        sys = cl.assemble(lambda l, m: -np.ones(np.broadcast(l, m).shape), rule)
        with pytest.raises(NearSingularityError):
            cl.solve(sys, np.ones(16))

    def test_exactly_singular_matrix_is_near_singularity(self):
        # numpy's LinAlgError surfaces as the package's error type
        rule = cl.gauss_interval(4, 0.0, 1.0)
        sys = NystromSystem(support=rule, kernel=None, matrix=np.zeros((4, 4)))
        with pytest.raises(NearSingularityError):
            cl.solve(sys, np.ones(4))

    def test_condition_number_is_exact_one_norm(self, pd_default):
        rule = cl.gauss_interval(32, -1.0, 1.0)
        sys = cl.assemble(cl.v_t(pd_default), rule)
        sys.factorization()
        assert sys.cond == pytest.approx(np.linalg.cond(sys.matrix, 1),
                                         rel=1e-12)
