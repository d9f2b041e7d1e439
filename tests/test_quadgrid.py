import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from cshiftlab.errors import ParameterDomainError
from cshiftlab.quadgrid import (_J0_ZEROS, _J1_SQUARED_AT_ZEROS, Contour,
                                HalfLineRule, IntervalRule, Rule,
                                _gauss_laguerre, _leggauss, _panels,
                                gauss_interval, graded_interval,
                                laguerre_halfline, oscillation_nodes,
                                safe_radius, stadium_contour,
                                transplanted_interval)
from cshiftlab.symbols import constant_symbol, identity_phase, make_problem


def exact_legendre_pair(n, x0):
    """Gauss-Legendre node near x0 and its weight 2/((1-x^2) P_n'(x)^2),
    by Newton on P_n in 40 digits from a double-precision start."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z = mpmath.mpf(float(x0))
        for _ in range(3):  # 1e-16 -> 1e-25 -> 1e-42: the last step fixes z
            p, q = mpmath.legendre(n, z), mpmath.legendre(n - 1, z)
            dp = n * (z * p - q) / (z * z - 1)
            z -= p / dp
        return float(z), float(2 / ((1 - z * z) * dp * dp))


def exact_laguerre_pair(n, u0):
    """Gauss-Laguerre node near u0 and its weight times e^u,
    e^u / (u L_n'(u)^2), by Newton on L_n in 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z = mpmath.mpf(float(u0))
        for _ in range(4):
            p_prev, p = 0, mpmath.mpf(1)
            for k in range(n):
                p_prev, p = p, ((2 * k + 1 - z) * p - k * p_prev) / (k + 1)
            dp = n * (p - p_prev) / z
            z -= p / dp
        return float(z), float(mpmath.exp(z) / (z * dp * dp))


class TestGaussInterval:
    def test_one_point_rule_is_midpoint(self):
        rule = gauss_interval(1, -1.0, 1.0)
        assert rule.nodes == pytest.approx([0.0])
        assert rule.weights == pytest.approx([2.0])

    def test_two_point_rule_from_exactness_conditions(self):
        # derive the rule from exactness on degrees <= 3: symmetric nodes
        # +-x0 with weights w solve 2 w = 2 and 2 w x0^2 = 2/3
        x0 = np.sqrt(1.0 / 3.0)
        rule = gauss_interval(2, -1.0, 1.0)
        assert rule.nodes == pytest.approx([-x0, x0], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_monomial_on_unit_interval(self):
        rule = gauss_interval(20, 0.0, 1.0)
        assert rule.integrate(rule.nodes ** 5) == pytest.approx(1.0 / 6.0,
                                                               abs=1e-14)

    def test_weights_sum_to_length(self):
        for n, a, b in [(5, -1.0, 1.0), (33, 0.0, 2.5), (80, -3.0, -1.0)]:
            rule = gauss_interval(n, a, b)
            assert abs(rule.weights.sum() - (b - a)) < 1e-13 * (b - a)

    def test_gauss_exactness_through_degree_2n_minus_1(self):
        n = 8
        rule = gauss_interval(n, -1.0, 1.0)
        for j in range(2 * n):
            exact = (1.0 - (-1.0) ** (j + 1)) / (j + 1)
            got = rule.integrate(rule.nodes ** j)
            assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))

    def test_refinement_stability(self):
        rule = gauss_interval(20, 0.0, 1.0)
        fine = rule.refined()
        f = lambda x: np.exp(x) * np.cos(3 * x)
        assert rule.integrate(f(rule.nodes)) == pytest.approx(
            fine.integrate(f(fine.nodes)), abs=1e-13)

    @pytest.mark.parametrize("n", [3, 64])
    def test_matches_numpy_leggauss(self, n):
        # below the 100-node cut both rules start from the Jacobi matrix;
        # numpy's weights are 1.3e-12 off at n = 64, these 9e-14
        x, w = leggauss(n)
        rule = gauss_interval(n, -1.0, 1.0)
        assert np.max(np.abs(rule.nodes - x)) < 1e-14
        assert np.max(np.abs(rule.weights / w - 1.0)) < 1e-11

    @pytest.mark.parametrize("n", [101, 500, 1500, 5000])
    def test_matches_newton_reference(self, n):
        # Bogaert's rule against 40-digit Newton, endpoints to middle;
        # numpy's leggauss weight at j = 0 is 3e-8 off at n = 1500
        rule = gauss_interval(n, -1.0, 1.0)
        for j in (0, 1, 2, 5, n // 3, n // 2):
            x, w = exact_legendre_pair(n, rule.nodes[j])
            assert abs(rule.nodes[j] - x) < 1e-15
            assert abs(rule.weights[j] / w - 1.0) < 1e-14

    @given(n=st.integers(2, 6000))
    @example(n=100)
    @example(n=101)
    @example(n=4064)
    @settings(max_examples=30, deadline=None)
    def test_rule_properties_across_the_switch(self, n):
        x, w = _leggauss(n)
        assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
        assert np.array_equal(x, -x[::-1])
        assert np.all(w > 0) and np.array_equal(w, w[::-1])
        for m in range(min(8, n - 1) + 1):  # exact through degree 2n - 1
            assert abs(w @ x ** (2 * m) - 2.0 / (2 * m + 1)) < 1e-14

    def test_cached_small_rule_is_read_only(self):
        x, w = _leggauss(16)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        rule = gauss_interval(16, -1.0, 1.0)
        rule.nodes[0] = 5.0
        rule.weights[:] = 2.0
        assert _leggauss(16)[0][0] < 0.0 and _leggauss(16)[1].sum() < 2.1

    def test_parameter_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            gauss_interval(0, -1.0, 1.0)
        with pytest.raises(ParameterDomainError):
            gauss_interval(4, 1.0, -1.0)


class TestTransplantedInterval:
    @pytest.mark.parametrize("n, a, b", [(9, -1.0, 1.0), (216, -1.0, 1.0),
                                         (1201, 0.5, 3.0)])
    def test_rule_properties(self, n, a, b):
        rule = transplanted_interval(n, a, b)
        x, w = rule.nodes, rule.weights
        assert np.all(np.diff(x) > 0) and a < x[0] and x[-1] < b
        assert np.all(w > 0)
        assert abs(w.sum() - (b - a)) < 1e-14 * (b - a)
        mid = 0.5 * (a + b)
        assert np.max(np.abs((x - mid) + (x[::-1] - mid))) < 1e-15 * (b - a)

    @pytest.mark.parametrize("x", [400.0, 1600.0])
    def test_resolves_the_kernel_phase_from_fewer_nodes(self, x):
        # a Nystrom rule integrates products of two functions resolved at
        # the kernel's frequency x/2: int_{-1}^{1} e^{i x lam} dlam =
        # 2 sin(x)/x on the sweep's node count, to 1e-13 of int |f| = 2
        # (phase rounding leaves 2e-14 at x = 1600).  A Gauss rule of the
        # same size misses by 3e-5 and 2e-2; at frequency x/2 alone its
        # degree 2n - 1 would still carry it
        pd = make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=x,
                          F=constant_symbol(0.2), p=identity_phase())
        n = oscillation_nodes(pd)
        exact = 2.0 * np.sin(x) / x

        def miss(rule):
            return abs(rule.integrate(np.exp(1j * x * rule.nodes)) - exact)

        assert miss(transplanted_interval(n, -1.0, 1.0)) < 2e-13
        assert miss(gauss_interval(n, -1.0, 1.0)) > 1e-6

    def test_refined_keeps_the_map(self):
        rule = transplanted_interval(40, -1.0, 2.0)
        fine = rule.refined()
        want = transplanted_interval(80, -1.0, 2.0)
        assert np.array_equal(fine.nodes, want.nodes)
        assert np.array_equal(fine.weights, want.weights)
        assert not np.allclose(fine.nodes, gauss_interval(80, -1.0, 2.0).nodes)
        assert np.array_equal(fine.refined().nodes,
                              transplanted_interval(160, -1.0, 2.0).nodes)

    def test_parameter_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            transplanted_interval(0, -1.0, 1.0)
        with pytest.raises(ParameterDomainError):
            transplanted_interval(4, 1.0, -1.0)


class TestBesselTable:
    def test_equals_scipy_bitwise(self):
        special = pytest.importorskip("scipy.special")
        zeros = special.jn_zeros(0, 21)
        assert np.array_equal(_J0_ZEROS, zeros[:20])
        assert np.array_equal(_J1_SQUARED_AT_ZEROS, special.j1(zeros) ** 2)


class TestGradedInterval:
    def test_integrates_smooth_function(self):
        rule = graded_interval(-1.0, 1.0)
        assert rule.integrate(rule.nodes ** 4) == pytest.approx(0.4, abs=1e-13)

    def test_resolves_endpoint_log_oscillation(self):
        # (1 - x)^{i beta} oscillates logarithmically at the endpoint; a
        # plain Gauss rule of the same size stalls, the graded rule nails
        # the closed form  int (1-x)^{i b} dx = 2^{1 + i b}/(1 + i b)
        beta = 0.3
        rule = graded_interval(-1.0, 1.0, n_panel=16, levels=12)
        vals = np.exp(1j * beta * np.log(1.0 - rule.nodes))
        exact = 2.0 ** (1.0 + 1j * beta) / (1.0 + 1j * beta)
        assert rule.integrate(vals) == pytest.approx(exact, abs=1e-9)
        plain = gauss_interval(rule.n, -1.0, 1.0)
        plain_val = plain.integrate(np.exp(1j * beta * np.log(1.0 - plain.nodes)))
        assert abs(plain_val - exact) > 100 * abs(rule.integrate(vals) - exact)

    def test_refined_keeps_grading(self):
        rule = graded_interval(0.0, 1.0)
        fine = rule.refined()
        assert fine.n > rule.n
        assert fine.nodes[0] < rule.nodes[0]


class TestStadiumContour:
    def test_residue(self):
        loop = stadium_contour(-1.0, 1.0, 0.25)
        val = loop.integrate(1.0 / loop.nodes)
        assert abs(val - 2j * np.pi) < 1e-10 * 2 * np.pi

    def test_entire_integrand_vanishes(self):
        loop = stadium_contour(-1.0, 1.0, 0.25)
        assert abs(loop.integrate(loop.nodes)) < 1e-12

    def test_second_order_pole(self):
        # oint dz/(z-1)^2 = 0; brute-force refinement confirms the value
        loop = stadium_contour(0.0, 2.0, 0.3)
        val = loop.integrate(1.0 / (loop.nodes - 1.0) ** 2)
        fine = loop.refined().refined()
        ref = fine.integrate(1.0 / (fine.nodes - 1.0) ** 2)
        assert abs(val) < 1e-10
        assert abs(val - ref) < 1e-10

    def test_weights_sum_to_zero(self):
        loop = stadium_contour(-1.0, 1.0, 0.25)
        perimeter = 2 * 2.0 + 2 * np.pi * 0.25
        assert abs(loop.weights.sum()) < 1e-13 * perimeter

    def test_winding_number(self):
        loop = stadium_contour(-1.0, 1.0, 0.25)
        assert loop.winding_number(0.0) == 1
        assert loop.winding_number(0.9) == 1
        assert loop.winding_number(2.0 + 1.0j) == 0

    def test_distance_band(self):
        # stadium shape constant kappa = 0: every point at distance r
        loop = stadium_contour(-1.0, 1.0, 0.25)
        d = loop.distance_to_segment()
        assert abs(d.min() - 0.25) < 1e-12
        assert d.max() < 0.25 * (1.0 + 1e-12)

    def test_refinement_stability(self):
        loop = stadium_contour(-1.0, 1.0, 0.25)
        fine = loop.refined()
        f = lambda z: np.exp(z) / (z - 0.3)
        assert abs(loop.integrate(f(loop.nodes))
                   - fine.integrate(f(fine.nodes))) < 1e-12

    def test_safety_errors(self):
        with pytest.raises(ParameterDomainError):
            stadium_contour(-1.0, 1.0, -0.1)
        with pytest.raises(ParameterDomainError):
            stadium_contour(1.0, -1.0, 0.25)


class TestSafeRadius:
    @given(t_abs=st.floats(0.01, 100.0), t_arg=st.floats(-np.pi, np.pi),
           c=st.floats(0.1, 10.0), width=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_growth_pole_and_margin_bounds(self, t_abs, t_arg, c, width):
        # the endpoint margin: r <= (b - a)/4 keeps a disk off the far end
        t = t_abs * np.exp(1j * t_arg)
        pd = make_problem(a=-0.5 * width, b=0.5 * width, c=c, t=t, x=10.0,
                          F=constant_symbol(0.2), p=identity_phase())
        r = safe_radius(pd)
        assert 0.0 < r <= width / 4.0
        assert r * abs(t) < c / 4.0
        assert r < c / (2.0 * abs(t))


class TestHalfLine:
    def test_exponential_moment(self):
        rule = laguerre_halfline(40, 1.0)
        assert rule.integrate(np.exp(-rule.nodes)) == pytest.approx(
            1.0, abs=1e-12)

    def test_scaled_first_moment(self):
        rule = laguerre_halfline(40, 2.0)
        val = rule.integrate(rule.nodes * np.exp(-2.0 * rule.nodes))
        assert val == pytest.approx(0.25, abs=1e-10)

    def test_laplace_transform_of_cosine(self):
        # int e^{-s} cos(s) ds = 1/(1 + 1) = 1/2
        rule = laguerre_halfline(40, 1.0)
        val = rule.integrate(np.exp(-rule.nodes) * np.cos(rule.nodes))
        assert val == pytest.approx(0.5, abs=1e-8)

    def test_refinement_stability(self):
        rule = laguerre_halfline(40, 1.0)
        fine = rule.refined()
        g = lambda s: np.exp(-s) * np.cos(s)
        assert rule.integrate(g(rule.nodes)) == pytest.approx(
            fine.integrate(g(fine.nodes)), abs=1e-10)

    @pytest.mark.parametrize("n", [16, 48, 64])
    def test_matches_newton_reference(self, n):
        # scipy's roots_laguerre: 2e-16 and 1.4e-13 at n = 48
        rule = laguerre_halfline(n, 1.0)
        for u, we in zip(rule.nodes, rule.weights):
            u_ref, we_ref = exact_laguerre_pair(n, u)
            assert abs(u / u_ref - 1.0) < 1e-14
            assert abs(we / we_ref - 1.0) < 2e-13

    def test_cached_rule_is_read_only(self):
        u, we = _gauss_laguerre(24)
        with pytest.raises(ValueError):
            u[0] = 0.0
        with pytest.raises(ValueError):
            we[0] = 0.0
        before = u.copy(), we.copy()
        rule = laguerre_halfline(24, 1.0)
        rule.nodes[0] = 5.0
        rule.weights[:] = 2.0
        assert np.array_equal(u, before[0]) and np.array_equal(we, before[1])

    def test_doubled_rule(self):
        # the rule of L2(R+) + L2(R+): the arrays twice over, bitwise,
        # built once and shared read-only
        rule = laguerre_halfline(24, 1.5)
        two = rule.doubled
        assert np.array_equal(two.nodes, np.concatenate([rule.nodes] * 2))
        assert np.array_equal(two.weights,
                              np.concatenate([rule.weights] * 2))
        assert rule.doubled is two
        with pytest.raises(ValueError):
            two.weights[0] = 0.0
        # e^{c s/4} at the nodes, likewise cached and read-only
        assert np.array_equal(rule.growth, np.exp(0.375 * rule.nodes))
        assert rule.growth is rule.growth
        with pytest.raises(ValueError):
            rule.growth[0] = 0.0

    def test_parameter_domain_errors(self):
        with pytest.raises(ParameterDomainError):
            laguerre_halfline(0, 1.0)
        with pytest.raises(ParameterDomainError):
            laguerre_halfline(12, -1.0)


#: every rule builder on [-1, 2] (c = 2.5 on the half-line), with an
#: integrand and its known integral: the length b - a, oint 1 dz = 0,
#: oint dz/z = 2 pi i and int_0^inf e^{-c s} ds = 1/c
RULE_CASES = {
    "gauss": (lambda: gauss_interval(40, -1.0, 2.0), np.ones_like, 3.0),
    "transplanted": (lambda: transplanted_interval(40, -1.0, 2.0),
                     np.ones_like, 3.0),
    "graded": (lambda: graded_interval(-1.0, 2.0), np.ones_like, 3.0),
    "stadium-1": (lambda: stadium_contour(-1.0, 2.0, 0.3), np.ones_like, 0.0),
    "stadium-1/z": (lambda: stadium_contour(-1.0, 2.0, 0.3),
                    lambda z: 1.0 / z, 2j * np.pi),
    "laguerre": (lambda: laguerre_halfline(40, 2.5),
                 lambda s: np.exp(-2.5 * s), 1.0 / 2.5),
}


class TestRuleContract:
    """Every builder returns a Rule: nodes and weights and nothing else."""

    @pytest.mark.parametrize("name", RULE_CASES)
    def test_rule_integrates_its_known_measure(self, name):
        build, f, exact = RULE_CASES[name]
        rule = build()
        assert isinstance(rule, Rule)
        assert rule.n == rule.nodes.size == rule.weights.size
        assert abs(rule.integrate(f(rule.nodes)) - exact) < 1e-13 * 2 * np.pi

    def test_n_and_integrate_defined_once(self):
        for cls in (IntervalRule, Contour, HalfLineRule):
            assert issubclass(cls, Rule)
            assert "n" not in vars(cls) and "integrate" not in vars(cls)


class TestPanels:
    @pytest.mark.parametrize("q", [2, 5, 16])
    def test_each_panel_exact_to_degree_2q_minus_1(self, q):
        edges = np.array([-1.0, -0.7, 0.1, 0.15, 2.0])
        nodes, weights = _panels(edges, q)
        assert nodes.size == weights.size == q * (edges.size - 1)
        for j, (e0, e1) in enumerate(zip(edges[:-1], edges[1:])):
            x, w = nodes[j * q:(j + 1) * q], weights[j * q:(j + 1) * q]
            assert np.all((e0 < x) & (x < e1)) and np.all(np.diff(x) > 0)
            for k in range(2 * q):
                exact = (e1 ** (k + 1) - e0 ** (k + 1)) / (k + 1)
                assert w @ x ** k == pytest.approx(exact, rel=1e-13,
                                                   abs=1e-15)

    @pytest.mark.parametrize("a, b, n_panel, levels, ratio", [
        (-1.0, 1.0, 16, 6, 0.15), (0.0, 3.0, 32, 7, 0.15),
        (-2.5, 0.7, 8, 3, 0.4)])
    def test_graded_rule_matches_the_per_panel_formula(self, a, b, n_panel,
                                                       levels, ratio):
        # the panel routine is bitwise the panel-by-panel construction
        half_len = 0.5 * (b - a)
        edges = np.concatenate((
            [a], [a + half_len * ratio ** j for j in range(levels, 0, -1)],
            [b - half_len * ratio ** j for j in range(1, levels + 1)], [b]))
        x, w = _leggauss(n_panel)
        nodes = np.concatenate([0.5 * (e0 + e1) + 0.5 * (e1 - e0) * x
                                for e0, e1 in zip(edges[:-1], edges[1:])])
        weights = np.concatenate([0.5 * (e1 - e0) * w
                                  for e0, e1 in zip(edges[:-1], edges[1:])])
        rule = graded_interval(a, b, n_panel, levels, ratio)
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, weights)
