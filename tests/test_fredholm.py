import numpy as np
import pytest

import cshiftlab as cl
from cshiftlab.errors import AssemblyError, NearSingularityError
from cshiftlab import fredholm
from cshiftlab.fredholm import (BLOCK, COND_CAP, NystromSystem,
                                cauchy_like_logdets, logdet, logdet_update,
                                low_rank_logdet, low_rank_system,
                                one_blas_thread)


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

    def test_bare_callable_keeps_its_kernel(self, refinement_error):
        # the system holds whatever was assembled, so a plain function
        # gets the refinement error estimate like a kernel handle
        rule = cl.gauss_interval(12, 0.0, 1.0)
        kernel = lambda l, m: 0.5 * np.exp(l * m)  # noqa: E731
        sys_ = cl.assemble(kernel, rule)
        assert sys_.kernel is kernel
        det, err = cl.determinant(sys_), refinement_error(sys_)
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

    def test_refinement_changes_little_for_analytic_kernel(
            self, pd_default, refinement_error):
        rule = cl.gauss_interval(48, -1.0, 1.0)
        sys_ = cl.assemble(cl.v_t(pd_default), rule)
        det, est = cl.determinant(sys_), refinement_error(sys_)
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
        # a real or a complex U, from the inverse the system then holds
        rule = cl.gauss_interval(40, -1.0, 1.0)
        sys_ = cl.assemble(cl.v0(pd_default), rule)
        assert sys_.matrix.dtype == np.float64 and sys_._inv is None
        rng = np.random.default_rng(3)
        U, R = (0.1 * rng.standard_normal((40, 6)) for _ in range(2))
        if complex_u:
            U = U + 0.1j * rng.standard_normal((40, 6))
        want = np.linalg.slogdet(sys_.matrix + U @ R.T)
        want = want[0] * np.exp(want[1])
        got = logdet_update(sys_, U, R) + logdet(sys_)
        assert np.exp(got) == pytest.approx(want, rel=1e-13)
        assert sys_._inv is not None

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
        want = np.linalg.det(sys_.matrix + U @ R.T) \
            / np.linalg.det(sys_.matrix)
        sys_.factorization()
        # neither an LU solve nor a second inverse is left
        monkeypatch.setattr(np.linalg, "solve", None)
        monkeypatch.setattr(np.linalg, "inv", None)
        assert np.exp(logdet_update(sys_, U, R)) \
            == pytest.approx(want, rel=1e-13)


class TestLowRankSystem:
    """I + P Q^T: Woodbury inverse and log-determinant from r x r."""



    @staticmethod
    def _factors(n=40, r=6):
        rule = cl.gauss_interval(n, -1.0, 1.0)
        rng = np.random.default_rng(7)
        P, Q = (0.3 * (rng.standard_normal((n, r))
                       + 1j * rng.standard_normal((n, r))) for _ in range(2))
        return rule, P, Q

    def test_inverse_condition_and_logdet(self, monkeypatch):
        rule, P, Q = self._factors()
        sys_ = low_rank_system(rule, P, Q)
        A = np.eye(rule.n) + P @ Q.T
        assert np.array_equal(sys_.matrix, A)
        want_inv, want_ld = np.linalg.inv(A), fredholm._slogdet(A)
        # no n x n inverse or LU: the system's r x r solve, and
        # low_rank_logdet's r x r slogdet from the factors alone
        orders = []

        def spy(fn):
            def call(a, *args):
                orders.append(len(a))
                return fn(a, *args)
            return call

        monkeypatch.setattr(np.linalg, "inv", None)
        for name in ("solve", "slogdet"):
            monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
        inv = sys_.factorization()
        ld = low_rank_logdet(P, Q)
        assert orders == [6, 6]
        assert np.max(np.abs(inv - want_inv)) \
            < 1e-13 * np.max(np.abs(want_inv))
        assert sys_.cond == pytest.approx(np.linalg.cond(A, 1), rel=1e-12)
        # Sylvester's identity: the same log-determinant, argument included
        assert abs(ld - want_ld) < 1e-13
        g = np.ones((rule.n, 2))
        assert np.max(np.abs(A @ cl.solve(sys_, g) - g)) < 1e-13

    def test_singular_capacitance_raises(self):
        # P = e_1, Q = -e_1: I + P Q^T has a zero diagonal entry and
        # C = I_1 + Q^T P = 0 exactly
        rule = cl.gauss_interval(8, -1.0, 1.0)
        e1 = np.eye(8)[:, :1] + 0j
        assert low_rank_logdet(e1, -e1).real == -np.inf
        with pytest.raises(NearSingularityError):
            cl.solve(low_rank_system(rule, e1, -e1), np.ones(8))


class TestCauchyLike:
    """Elimination on the generators of A, (lam_i - lam_j) A_ij = g_i . h_j."""

    @staticmethod
    def _dense(nodes, g, h, diag):
        gaps = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(gaps, 1.0)
        A = (g @ h.T) / gaps
        np.fill_diagonal(A, diag)
        return A

    @pytest.mark.parametrize("n, m, complex_g", [
        (300, 6, False), (300, 6, True), (50, 0, False), (256, 3, False)])
    def test_matches_the_formed_matrix(self, n, m, complex_g):
        # three blocks (the last short), one short block, two full ones;
        # spread nodes and the diagonal keep A well conditioned without
        # pivoting
        rng = np.random.default_rng(11)
        nodes = np.linspace(-1.0, 1.0, n) + rng.uniform(0.0, 0.5 / n, n)
        # g_i . h_i = 0, as for V0: D A - A D = g h^T on the diagonal too
        a = rng.uniform(-50.0, 50.0, n)
        f = rng.standard_normal(n) + (1j * rng.standard_normal(n)
                                      if complex_g else 0.0)
        g = np.stack([np.sin(a), -np.cos(a)], axis=1) * f[:, None] / n
        h = np.stack([np.cos(a), np.sin(a)], axis=1) / n
        diag = 1.0 + rng.uniform(0.0, 1.0, n)
        U, R = (0.1 * rng.standard_normal((n, m)) for _ in range(2))
        A = self._dense(nodes, g, h, diag)
        ld, ln_border = cauchy_like_logdets(nodes, g, h, diag, U, R)
        sign, logabs = np.linalg.slogdet(A)
        assert np.exp(ld - logabs) == pytest.approx(sign, abs=1e-13)
        want = np.linalg.det(np.eye(m) + R.T @ np.linalg.solve(A, U))
        assert np.exp(ln_border) == pytest.approx(want, rel=1e-13)

    def test_vanishing_border_is_minus_infinity(self):
        nodes = np.linspace(-1.0, 1.0, 8)
        zero = np.zeros((8, 2))
        e1 = np.eye(8)[:, :1]
        _, ln_border = cauchy_like_logdets(nodes, zero, zero, np.ones(8),
                                           -e1, e1)
        assert ln_border == complex(-np.inf)

    def test_singular_block_raises(self):
        nodes = np.linspace(-1.0, 1.0, 8)
        zero = np.zeros((8, 2))
        with pytest.raises(NearSingularityError):
            cauchy_like_logdets(nodes, zero, zero, np.zeros(8), zero, zero)

    def test_block_over_the_cap_is_refused(self):
        # a diagonal A whose second pivot block has condition number 1e14:
        # the first block passes, and no number comes back
        n = 2 * BLOCK + 10
        nodes = np.linspace(-1.0, 1.0, n)
        zero = np.zeros((n, 2))
        diag = np.ones(n)
        diag[BLOCK + 3] = 1e-14
        with pytest.raises(NearSingularityError, match="exceeds cap") as exc:
            cauchy_like_logdets(nodes, zero, zero, diag, zero, zero)
        assert exc.value.cond > COND_CAP
        diag[BLOCK + 3] = 1e-11
        ld, _ = cauchy_like_logdets(nodes, zero, zero, diag, zero, zero)
        assert ld == pytest.approx(np.log(1e-11), rel=1e-15)


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


class TestOneBlasThread:
    @pytest.fixture(autouse=True)
    def two_threads(self):
        """Every OpenBLAS on two threads for the test, then as it was."""
        setters = fredholm._openblas_thread_setters()
        if not setters:
            pytest.skip("numpy runs on no OpenBLAS here")
        previous = [setter(2) for setter in setters]
        yield
        for setter, count in zip(setters, previous):
            setter(count)

    @staticmethod
    def counts():
        """Each OpenBLAS's thread count, read by setting it back."""
        setters = fredholm._openblas_thread_setters()
        counts = [setter(1) for setter in setters]
        for setter, count in zip(setters, counts):
            setter(count)
        return counts

    def test_one_thread_inside_and_counts_restored(self):
        with one_blas_thread():
            assert set(self.counts()) == {1}
        assert set(self.counts()) == {2}

    def test_counts_restored_when_the_block_raises(self):
        with pytest.raises(RuntimeError), one_blas_thread():
            raise RuntimeError
        assert set(self.counts()) == {2}

    def test_sweep_runs_on_one_thread(self, monkeypatch):
        seen = []
        inner = cl.flow.cauchy_like_logdets

        def spy(*args):
            seen.append(set(self.counts()))
            return inner(*args)

        monkeypatch.setattr(cl.flow, "cauchy_like_logdets", spy)
        cl.flow.theorem1_sweep(cl.flow.SweepConfig(x_list=(50.0,)))
        assert seen and all(c == {1} for c in seen)
        assert set(self.counts()) == {2}
