import numpy as np
import pytest

from cshiftlab.cauchy import CauchyKit
from cshiftlab.quadgrid import gauss_interval, stadium_contour


def brute_cauchy(f, lam, n=4000):
    """Principal-value-free brute force for lam off the axis: fine midpoint
    rule on a path split at Re(lam); good to ~1e-9 for |Im lam| >= 1e-3."""
    xs = np.linspace(-1.0, 1.0, n, endpoint=False) + 1.0 / n
    return np.sum(f(xs) / (xs - lam)) * (2.0 / n)


@pytest.fixture(scope="module")
def kit():
    return CauchyKit(gauss_interval(160, -1.0, 1.0))


DENSITY = lambda x: np.exp(0.3 * x) / (1.3 + x)


class TestCauchyKit:
    def test_matches_quadrature_oracle_far(self, kit):
        fv = DENSITY(kit.rule.nodes)
        for lam in (2.0 + 1.0j, -3.0, 0.5 + 0.8j):
            ref = brute_cauchy(DENSITY, lam, n=200000)
            assert kit.value(fv, lam) == pytest.approx(ref, abs=2e-9)

    def test_matches_series_oracle_near(self, kit):
        # near the cut the oracle is the closed form for a polynomial
        # density: C[x^k] via the Legendre expansion computed recursively
        # from C[1] and mu^k/(mu-lam) = mu^{k-1} + lam mu^{k-1}/(mu-lam)
        lam = 0.3 + 1e-4j
        c0 = np.log(1.0 - lam) - np.log(-1.0 - lam)

        def cpoly(k):
            # C[x^k] = m_{k-1} + lam C[x^{k-1}] with m_j the plain moments
            val = c0
            for j in range(1, k + 1):
                m = (1.0 - (-1.0) ** j) / j
                val = m + lam * val
            return val

        for k in (0, 1, 3, 6):
            fv = kit.rule.nodes ** k
            assert kit.value(fv, lam) == pytest.approx(cpoly(k), abs=1e-12)

    def test_plus_side_value_on_cut(self, kit):
        # the on-axis evaluation returns the +side limit
        fv = DENSITY(kit.rule.nodes)
        lam0 = 0.37
        above = kit.value(fv, lam0 + 1e-9j)
        on = kit.value(fv, lam0 + 0.0j)
        assert on == pytest.approx(above, abs=1e-7)

    def test_near_far_routes_agree_in_overlap(self, kit):
        fv = DENSITY(kit.rule.nodes)
        # points on both sides of the switching distance
        for lam in (0.2 + 0.34j, 0.2 + 0.36j, -1.34, -1.36):
            w_near = kit.weights(np.array([lam]))[0]
            far = kit.rule.weights / (kit.rule.nodes - lam)
            assert w_near @ fv == pytest.approx(far @ fv, abs=1e-11)

    def test_dweights_match_derivative(self, kit):
        fv = DENSITY(kit.rule.nodes)
        h = 1e-6
        for lam in (0.1 + 0.2j, 1.5 + 0.5j):
            fd = (kit.value(fv, lam + h) - kit.value(fv, lam - h)) / (2 * h)
            assert kit.dweights(lam) @ fv == pytest.approx(fd, abs=1e-7)


class TestAgainstMpmath:
    """Weights against 30-digit transforms of the barycentric interpolant.

    The reference splits off the pole: with p the interpolant of the node
    values and p0 = p(xi), p1 = p'(xi),
        C(xi)  = int (p - p0)/(x - xi) + p0 L,
        C'(xi) = int (p - p0 - p1 (x - xi))/(x - xi)^2
                 + p0 (1/(-1 - xi) - 1/(1 - xi)) + p1 L,
    both integrands polynomials, summed by a 96-point mpmath Gauss rule.
    On the cut L is the Plemelj +side value log((1 - x)/(1 + x)) + i pi.
    """

    N = 48

    @pytest.fixture(scope="class")
    def ref(self):
        mp = pytest.importorskip("mpmath")
        rule = gauss_interval(self.N, -1.0, 1.0)
        f = np.exp(0.7j * rule.nodes) / (1.3 + rule.nodes)
        with mp.workdps(30):
            xs = [mp.mpf(float(v)) for v in rule.nodes]
            fs = [mp.mpc(complex(v)) for v in f]
            bw = [1 / mp.fprod(xj - xi for xi in xs if xi != xj) for xj in xs]

            def p(z):
                if z in xs:
                    return fs[xs.index(z)]
                t = [b / (z - xj) for b, xj in zip(bw, xs)]
                return mp.fdot(t, fs) / mp.fsum(t)

            gl = mp.calculus.quadrature.GaussLegendre(mp.mp).get_nodes(
                -1, 1, 6, mp.mp.prec)
            p_gl = [(t, wt, p(t)) for t, wt in gl]

        @mp.workdps(30)
        def transforms(lam, on_cut):
            xi = mp.mpf(lam.real) if on_cut else mp.mpc(lam)
            p0, p1 = p(xi), mp.diff(p, xi)
            if on_cut:
                L = mp.log((1 - xi) / (1 + xi)) + 1j * mp.pi
            else:
                L = mp.log(xi - 1) - mp.log(xi + 1)
            c = mp.fsum(wt * (pt - p0) / (t - xi) for t, wt, pt in p_gl)
            dc = mp.fsum(wt * (pt - p0 - p1 * (t - xi)) / (t - xi) ** 2
                         for t, wt, pt in p_gl)
            return (complex(c + p0 * L),
                    complex(dc + p0 * (1 / (-1 - xi) - 1 / (1 - xi)) + p1 * L))

        return CauchyKit(rule), f, transforms

    @pytest.mark.parametrize("lam", [0.3 + 1e-4j, 0.999 + 1e-4j,
                                     -0.9995 + 1e-6j, 0.2 + 0.34j])
    def test_near_cut(self, ref, lam):
        kit, f, transforms = ref
        c, dc = transforms(lam, on_cut=False)
        assert abs(kit.weights(lam) @ f - c) <= 1e-13 * abs(c)
        assert abs(kit.dweights(lam) @ f - dc) <= 1e-12 * abs(dc)

    @pytest.mark.parametrize("offset", [0.0, 1e-12])
    def test_on_cut_at_and_beside_a_node(self, ref, offset):
        kit, f, transforms = ref
        lam = complex(kit.rule.nodes[17] + offset)
        with np.errstate(divide="raise", invalid="raise"):
            w, dw = kit.weights(lam), kit.dweights(lam)
        c, dc = transforms(lam, on_cut=True)
        assert abs(w @ f - c) <= 1e-13 * abs(c)
        assert abs(dw @ f - dc) <= 1e-12 * abs(dc)
        # the +side limit: C(lam + i h) = C(lam) + i h C'(lam) + O(h^2)
        h = 1e-7
        assert abs(kit.weights(lam + 1j * h) @ f - c) \
            <= 2 * h * abs(dc) + 1e-12 * abs(c)


class TestPlainWeightsOffTheCut:
    """Where rho^-2n is below rounding the near formula is noise.

    The reference weight is the transform of the Lagrange basis function,
    int l_j(x)/(x - xi) dx, summed in 30 digits by mpmath's 192-point Gauss
    rule: off the cut l_j(x)/(x - xi) is a smooth integrand, and that rule
    misses it by rho^-(2*192 - n).
    """

    N = 160

    @pytest.fixture(scope="class")
    def kit(self):
        return CauchyKit(gauss_interval(self.N, -1.0, 1.0))

    @pytest.fixture(scope="class")
    def basis_transform(self, kit):
        """xi -> int l_j(x)/(x - xi) dx for every j, in 30 digits."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            xs = [mp.mpf(float(v)) for v in kit.rule.nodes]
            bw = [1 / mp.fprod(xj - xk for xk in xs if xk != xj) for xj in xs]
            gl = mp.calculus.quadrature.GaussLegendre(mp.mp).get_nodes(
                -1, 1, 7, mp.mp.prec)
            rows = []  # (t_i, W_i l_j(t_i) for every j)
            for t, wt in gl:
                terms = [b / (t - xj) for b, xj in zip(bw, xs)]
                scale = wt / mp.fsum(terms)
                rows.append((t, [scale * term for term in terms]))

        @mp.workdps(30)
        def transform(xi):
            z = mp.mpc(complex(xi))
            out = [mp.mpc(0)] * len(xs)
            for t, wl in rows:
                inv = 1 / (t - z)
                out = [o + inv * v for o, v in zip(out, wl)]
            return np.array([complex(v) for v in out])

        return transform

    # the second point is the r = 0.25 loop sample where S once rounded to 0
    @pytest.mark.parametrize("lam", [0.2 + 0.34j, 1.2072 + 0.1399j])
    def test_each_weight_matches_its_basis_transform(self, kit,
                                                     basis_transform, lam):
        loop = stadium_contour(-1.0, 1.0, 0.25).nodes
        if abs(lam.real) > 1.0:
            lam = loop[np.argmin(np.abs(loop - lam))]
        with np.errstate(divide="raise", invalid="raise"):
            w = kit.weights(lam)
        ref = basis_transform(lam)
        assert np.all(np.isfinite(w))
        assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref))
