import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cshiftlab as cl
from cshiftlab.errors import (BoundaryLimitError, ParameterDomainError,
                              SymbolDomainError)
from cshiftlab.symbols import boundary_value, make_handle


def closed_form_alpha(pd, lam):
    """Cauchy integral of a constant density: ((b - lam)/(a - lam))^nu."""
    nuv = complex(cl.nu(pd, 0.5 * (pd.a + pd.b)))
    return np.exp(nuv * (np.log(complex(pd.b - lam))
                         - np.log(complex(pd.a - lam))))


class TestMakeProblem:
    def test_constant_symbol_accepted(self):
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=5.0,
                             F=cl.constant_symbol(0.2), p=cl.identity_phase())
        assert pd.c == 1.0

    def test_arg_condition_rejected(self):
        with pytest.raises(SymbolDomainError):
            cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=5.0,
                            F=cl.constant_symbol(-1.5), p=cl.identity_phase())

    def test_cut_crossing_between_samples_rejected(self):
        # 1 + F = 0.001 + z^2 has zeros at +-0.0316i, inside the loop at
        # safe_radius (0.2); it crosses its cut between two samples, where
        # no sample has |arg(1+F)| near pi
        with pytest.raises(SymbolDomainError):
            cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=5.0,
                            F=cl.poly_symbol([-0.999, 0.0, 1.0]),
                            p=cl.identity_phase())

    def test_orientation_rejected(self):
        with pytest.raises(SymbolDomainError) as exc:
            cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=5.0,
                            F=cl.constant_symbol(0.2),
                            p=cl.poly_phase([0.0, -1.0]))
        assert exc.value.node is not None

    def test_basic_domains(self):
        with pytest.raises(ParameterDomainError):
            cl.make_problem(a=1, b=-1, c=1.0, t=1.0, x=5.0,
                            F=cl.constant_symbol(0.2), p=cl.identity_phase())
        with pytest.raises(ParameterDomainError):
            cl.make_problem(a=-1, b=1, c=-1.0, t=1.0, x=5.0,
                            F=cl.constant_symbol(0.2), p=cl.identity_phase())

    def test_preset_family(self):
        assert make_handle("constant", [0.3])(0.0) == pytest.approx(0.3)
        assert make_handle("poly", [1.0, 2.0])(2.0) == pytest.approx(5.0)
        h = make_handle("scaled_exp", [0.5, 0.0, 1.0])
        assert h(1.0) == pytest.approx(0.5 * np.e)
        with pytest.raises(ParameterDomainError):
            make_handle("nope")


class TestNuTau:
    def test_nu_zero_symbol(self, pd_zero):
        assert cl.nu(pd_zero, 0.3) == pytest.approx(0.0)

    def test_nu_exponential_symbol(self):
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=5.0,
                             F=cl.constant_symbol(np.exp(2 * np.pi * 0.1) - 1),
                             p=cl.identity_phase())
        assert complex(cl.nu(pd, 0.0)) == pytest.approx(0.1j, abs=1e-15)

    def test_nu_default_value(self, pd_default):
        nuv = complex(cl.nu(pd_default, 0.0))
        assert nuv.real == pytest.approx(0.0, abs=1e-15)
        assert nuv.imag == pytest.approx(np.log(1.2) / (2 * np.pi), abs=1e-15)

    def test_tau_substitution(self):
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=5.0,
                             F=cl.constant_symbol(1.0), p=cl.identity_phase())
        assert complex(cl.tau(1, pd, 0.0)) == pytest.approx(-0.5)
        assert complex(cl.tau(2, pd, 0.0)) == pytest.approx(1.0)

    @given(lam_re=st.floats(-0.99, 0.99), lam_im=st.floats(-0.1, 0.1),
           gam=st.floats(-0.4, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_tau_product_identity(self, lam_re, lam_im, gam):
        pd = cl.make_problem(a=-1, b=1, c=1.0, t=1.0, x=5.0,
                             F=cl.constant_symbol(gam), p=cl.identity_phase())
        lam = complex(lam_re, lam_im)
        t1 = complex(cl.tau(1, pd, lam))
        t2 = complex(cl.tau(2, pd, lam))
        assert (1 + t1) * (1 + t2) == pytest.approx(1.0, abs=1e-12)


class TestPolynomialHandles:
    def test_horner_matches_the_polynomial_class(self):
        # polyval on the coefficients: the bits of Polynomial.__call__ on
        # arrays, within rounding on one point; the derivative likewise
        coeffs = [0.0, 1.0, 0.0, 0.3]
        rng = np.random.default_rng(2)
        z = rng.uniform(-2, 2, 64) + 1j * rng.uniform(-1, 1, 64)
        ref = np.polynomial.Polynomial(coeffs)
        for handle, want in ((cl.poly_symbol(coeffs), ref),
                             (cl.poly_symbol(coeffs).deriv, ref.deriv())):
            assert np.array_equal(handle(z), want(z))
            for zi in z[:8]:
                assert abs(handle(zi) - want(zi)) <= 4e-16 * abs(want(zi))
        exp_handle = cl.scaled_exp_symbol(0.5, coeffs)
        assert np.array_equal(exp_handle(z), 0.5 * np.exp(ref(z)))


class TestAlpha:
    def test_trivial_symbol(self, pd_zero):
        srh = cl.ScalarRH(pd_zero)
        assert srh.alpha(2.0j) == pytest.approx(1.0, abs=1e-14)

    def test_closed_form_constant_density(self, pd_default, srh_default):
        for lam in (2.0j, 1.5, -3.0 + 0.2j, 0.2 + 1e-3j):
            assert srh_default.alpha(complex(lam)) == pytest.approx(
                closed_form_alpha(pd_default, lam), abs=1e-10)

    def test_alpha_k_reciprocal(self, srh_default):
        rng = np.random.default_rng(3)
        for _ in range(8):
            lam = complex(rng.uniform(-2, 2), rng.uniform(0.2, 1.5))
            a1 = srh_default.alpha_k(1, lam)
            a2 = srh_default.alpha_k(2, lam)
            assert a1 * a2 == pytest.approx(1.0, abs=1e-12)

    def test_far_field_scaling(self, pd_default, srh_default):
        # |alpha - 1| decays like (b - a)/|lam| and is already below 1e-2
        # at |lam| = 1e3 (b - a)
        vals = []
        for radius in (2e3, 2e4):
            lam = radius * np.exp(0.7j)
            gap = abs(srh_default.alpha(lam) - 1.0)
            assert gap < 1e-2
            vals.append(gap * radius / 2.0)
        assert 0.5 < vals[0] / vals[1] < 2.0

    def test_deformation_invariance(self, pd_default, srh_default):
        vals = []
        for r in (0.25, 0.125):
            loop = cl.stadium_contour(-1.0, 1.0, r)
            vals.append(loop.integrate(srh_default.alpha(loop.nodes)))
        assert abs(vals[0] - vals[1]) < 1e-8

    def test_jump_relation_on_interval(self, pd_default, srh_default):
        for lam0 in np.cos((2 * np.arange(1, 6) - 1) * np.pi / 10.0):
            ap, _ = boundary_value(srh_default.alpha, lam0, +1, scale=2.0)
            am, _ = boundary_value(srh_default.alpha, lam0, -1, scale=2.0)
            assert abs(ap * 1.2 - am) < 1e-6

    def test_plus_values_direct_vs_richardson(self, srh_default):
        lam0 = 0.123
        direct = srh_default.alpha_k(2, lam0 + 0j)
        rich = srh_default.alpha_k_plus(2, lam0)
        assert direct == pytest.approx(rich, abs=1e-9)


class TestBoundaryValue:
    def test_entire_function(self):
        val, est = boundary_value(lambda z: z ** 2, 0.4, +1)
        assert val == pytest.approx(0.16, abs=1e-12)
        assert est < 1e-10

    def test_plemelj_jump_of_unit_density(self):
        # f = Cauchy transform of 1: f_plus - f_minus = 2 i pi at interior
        # points; the oracle is the principal value computed directly by
        # symmetric-interval quadrature plus the log term
        rule = cl.gauss_interval(200, -1.0, 1.0)
        kit = cl.CauchyKit(rule)
        ones = np.ones(rule.n)
        lam0 = 0.3
        fp, _ = boundary_value(lambda z: kit.value(ones, z), lam0, +1)
        fm, _ = boundary_value(lambda z: kit.value(ones, z), lam0, -1)
        assert (fp - fm) / (2j * np.pi) == pytest.approx(1.0, abs=1e-10)
        pv = np.log((1.0 - lam0) / (1.0 + lam0))  # exact principal value
        assert 0.5 * (fp + fm) == pytest.approx(pv, abs=1e-10)

    def test_divergent_schedule_raises(self):
        with pytest.raises(BoundaryLimitError):
            boundary_value(lambda z: 1.0 / (z - 0.3), 0.3, +1)
