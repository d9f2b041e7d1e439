import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import exp1, gamma

from cshiftlab import chf
from cshiftlab.chf import (A_CAP, _asymptotic, _gamma, _laplace, tricomi_psi)
from cshiftlab.errors import AccuracyError, BranchError, ParameterDomainError
from cshiftlab.quadgrid import _leggauss

#: exponent values used by the default symbol family
NU = 1j * np.log(1.2) / (2 * np.pi)
ARTIFACT_PARAMS = [NU, -NU, 1 + NU, 1 - NU, 0.12 + 0.05j, -0.3j]


def ode_continue(a, z0, direction, turns=1.0):
    """Analytic continuation around 0 by integrating the defining ODE.

    Independent oracle for the monodromy relations: start from the
    principal value, integrate z y'' + (1-z) y' - a y = 0 along a circle.
    """
    t0 = tricomi_psi(a, z0)
    y0 = [t0.value, t0.dvalue]

    def rhs(th, y):
        z = abs(z0) * np.exp(1j * (np.angle(z0) + direction * th))
        dz = 1j * direction * z
        return [y[1] * dz, dz * (a * y[0] - (1.0 - z) * y[1]) / z]

    sol = solve_ivp(rhs, [0.0, 2 * np.pi * turns], y0, rtol=3e-13,
                    atol=1e-14, method="DOP853")
    return sol.y[0][-1]


class TestPrincipalValues:
    def test_exponential_integral_representation(self):
        # Psi(1, 1; z) = e^z E_1(z)
        got = tricomi_psi(1.0, 1.0).value
        assert got == pytest.approx(np.e * exp1(1.0), abs=1e-10)
        assert abs(got - 0.596347) < 1e-6

    def test_a_zero_is_identically_one(self):
        for z in (0.3, 5.0 + 2.0j, -7.0 + 0.5j):
            assert tricomi_psi(0.0, z).value == pytest.approx(1.0, abs=1e-14)
        for sheet in (-1, 1):
            assert tricomi_psi(0.0, 2.0 + 1j, sheet=sheet).value \
                == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_integer_parameter_is_polynomial(self):
        for z in (0.5, 3.0 - 2.0j, 30.0j):
            assert tricomi_psi(-1.0, z).value == pytest.approx(z - 1.0,
                                                               abs=1e-12)

    def test_ode_residual_across_routes(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z = rng.uniform(0.5, 60.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            te = tricomi_psi(a, z)
            assert te.ode_residual() < 1e-6

    def test_asymptotic_leading_term(self):
        # Psi(a, 1; z) z^a -> 1 at |z| = 1e3 on the upper imaginary ray
        for a in (0.3, -0.2 + 0.4j, NU):
            z = 1e3 * np.exp(1j * np.pi / 2)
            val = tricomi_psi(a, z).value * np.exp(a * np.log(z))
            assert abs(val - 1.0) < 1e-3


class TestMonodromy:
    def test_relations_against_ode_continuation(self):
        cases = [(0.3 + 0.2j, 2.0 + 1.0j), (1 + NU, 5.0j), (-0.4, 3.0),
                 (0.9 - 0.6j, 1.5 - 2.0j), (NU, 7.0), (0.5, 1.0 - 0.8j)]
        for a, z0 in cases:
            for d in (+1, -1):
                ref = ode_continue(a, z0, d)
                got = tricomi_psi(a, z0, sheet=d).value
                assert abs(got - ref) / max(abs(ref), 1.0) < 1e-8

    def test_residuals_of_both_connection_formulas(self):
        # residual of the two sheet-connection identities over random
        # (a, z) with |a| <= 1, 1 <= |z| <= 10
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(a) > 1:
                a = a / abs(a) * rng.uniform(0.1, 1.0)
            z = rng.uniform(1.0, 10.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            up = tricomi_psi(a, z, sheet=+1).value
            dn = tricomi_psi(a, z, sheet=-1).value
            base = tricomi_psi(a, z).value
            g2 = gamma(a) ** 2
            rot = np.exp(-2j * np.pi * a)
            term = 2j * np.pi * np.exp(-1j * np.pi * a + z) / g2 \
                * tricomi_psi(1.0 - a, -z, sheet=(1 if np.angle(z) > 0 else 0)).value
            r1 = abs(up - (rot * base + term))
            term2 = 2j * np.pi * np.exp(1j * np.pi * a + z) / g2 \
                * tricomi_psi(1.0 - a, -z,
                              sheet=(-1 if np.angle(z) < 0 else 0)).value
            r2 = abs(dn - (base / rot - term2))
            scale = max(abs(up), abs(dn), 1.0)
            worst = max(worst, r1 / scale, r2 / scale)
        assert worst < 1e-9

    def test_round_trip_up_then_down(self):
        # one turn up followed by one turn down returns the start value;
        # exercises both connection formulas jointly
        for a, z in [(0.25 - 0.7j, 3.0 + 1.0j), (1 - NU, 6.0j)]:
            ref = ode_continue(a, z, +1)
            back = ode_continue(a, z * np.exp(0j), -1)  # placeholder path
            up = tricomi_psi(a, z, sheet=+1).value
            assert abs(up - ref) < 1e-8 * max(1.0, abs(ref))
            assert abs(tricomi_psi(a, z, sheet=0).value
                       - ode_continue(a, z, -1, turns=0.0)) < 1e-10

    def test_two_turns(self):
        a, z = 0.3, 2.0
        ref = ode_continue(a, z, +1, turns=2.0)
        got = tricomi_psi(a, z, sheet=2).value
        assert abs(got - ref) / abs(ref) < 1e-7


class TestRouteConsistency:
    def test_overlap_agreement_across_switch(self):
        # the Laplace route against the asymptotic expansion at every row,
        # just inside the switch radius and beyond it
        worst = 0.0
        for a in ARTIFACT_PARAMS:
            for r in (19.9, 20.0, 20.5, 22.0, 25.0):
                for th in (-np.pi / 2, np.pi / 2, 1.2):
                    z = r * np.exp(1j * th)
                    vi = _laplace(complex(a), z)[0]
                    va = _asymptotic(complex(a), z, th)[0]
                    worst = max(worst, abs(vi - va) / abs(vi))
        assert worst < 1e-7

    def test_interior_routes_in_full_annulus(self):
        # the Laplace route matches the arbitrary-precision oracle through
        # 15..25, within its own error monitor
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for a in (1 + NU, 0.8, 1.3 - 0.2j):
                for r in (15.0, 18.0, 22.0, 25.0):
                    z = r * np.exp(1j * np.pi / 2)
                    vl, _, _, el = _laplace(complex(a), z)
                    ref = complex(mpmath.hyperu(mpmath.mpc(a), 1,
                                                mpmath.mpc(z)))
                    assert abs(vl - ref) / abs(ref) < min(1e-8, el)

    @pytest.mark.parametrize("a", [0.03j, -0.03j, 1 + 0.03j, 1 - 0.03j])
    def test_route_is_fixed_on_the_switch_circle(self, a):
        # a disk probe whose |z| rounds to one bit either side of
        # SWITCH_RADIUS takes the route it takes on the circle itself
        radii = (20.0 * (1 - 2.0 ** -52), 20.0, 20.0 * (1 + 2.0 ** -52))
        assert len(set(radii)) == 3
        for th in (0.0, 1.0, np.pi / 2, -2.5):
            routes = {tricomi_psi(a, r * np.exp(1j * th)).route
                      for r in radii}
            assert len(routes) == 1

    def test_error_monitor_populated(self):
        te = tricomi_psi(0.3, 30.0j)
        assert te.route == "asymptotic"
        assert 0.0 <= te.err < 1e-10


class TestErrors:
    def test_branch_point(self):
        with pytest.raises(BranchError):
            tricomi_psi(0.3, 0.0)

    def test_parameter_cap(self):
        with pytest.raises(ParameterDomainError):
            tricomi_psi(6.0, 1.0)

    def test_strict_overlap_budget(self):
        # one turn down near the switch radius the connection's e^z-weighted
        # terms cancel, pushing its monitor over budget: the value is refused
        bad = (0.4 + 0.95j, 23.0 * np.exp(-0.12j))
        with pytest.raises(AccuracyError, match="monodromy") as exc:
            tricomi_psi(*bad, sheet=-1)
        assert exc.value.estimate > 1e-8


class TestSpecialFunctions:
    """The private Gamma against 30-digit mpmath, |a| <= 5."""

    @staticmethod
    def sample():
        rng = np.random.default_rng(7)
        disk = 5.0 * np.sqrt(rng.uniform(0, 1, 2000)) \
            * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000))
        # within 1e-3 of the poles 0, -1, ..., -4
        poles = -rng.integers(0, 5, 300) + 1e-3 * rng.uniform(0.01, 1, 300) \
            * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
        return [complex(a) for a in np.concatenate([disk, poles])]

    @staticmethod
    def worst(fn, ref, pts, floor):
        """Largest |fn - ref| / max(|ref|, floor) over pts."""
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(30):
            for a in pts:
                exact = complex(getattr(mpmath, ref)(mpmath.mpc(a)))
                worst = max(worst, abs(fn(a) - exact) / max(abs(exact), floor))
        return worst

    @pytest.mark.parametrize("fn, ref", [(_gamma, "gamma")])
    def test_relative_error_in_the_disk(self, fn, ref):
        pts = self.sample()
        assert sum(a.real < 0.5 for a in pts) > 1000
        assert sum(abs(a) <= 1e-3 for a in pts) > 40
        assert self.worst(fn, ref, pts, 0.0) < 2e-14

    @pytest.mark.parametrize("fn, ref", [(_gamma, "gamma")])
    def test_real_axis(self, fn, ref):
        # relative error below |Gamma| = 1 is bounded absolutely
        pts = np.random.default_rng(8).uniform(-5, 5, 200)
        assert self.worst(fn, ref, [complex(a) for a in pts], 1.0) < 2e-14

    def test_poles_raise(self):
        for a in (0.0, -1.0, -4.0):
            with pytest.raises(ParameterDomainError):
                _gamma(a)


class TestOracle:
    """Psi, Psi' and Psi'' on the principal sheet against 30-digit mpmath."""

    @staticmethod
    def sample():
        rng = np.random.default_rng(5)
        pts = []
        for i in range(48):
            if i % 3 == 0:      # the parametrix's parameter range
                a = complex(rng.uniform(-0.5, 1.5), rng.uniform(-1, 1))
            elif i % 3 == 1:    # the disk |a| <= A_CAP
                a = A_CAP * np.sqrt(rng.uniform()) \
                    * np.exp(1j * rng.uniform(-np.pi, np.pi))
            else:               # within 1e-3 of a pole 0, -1, ..., -4 of Gamma
                a = -rng.integers(0, 5) + 1e-3 * rng.uniform(0.01, 1) \
                    * np.exp(1j * rng.uniform(-np.pi, np.pi))
            th = rng.uniform(-np.pi, np.pi)
            if i % 4 == 0:      # within 1e-3 of the cut
                th = np.copysign(np.pi - 1e-3 * rng.uniform(), th)
            r = 10.0 ** rng.uniform(-3.0, np.log10(20.0))
            pts.append((complex(a), complex(r * np.exp(1j * th))))
        return pts

    def test_value_and_derivatives(self):
        mpmath = pytest.importorskip("mpmath")
        worst_inner = 0.0
        with mpmath.workdps(30):
            for a, z in self.sample():
                te = tricomi_psi(a, z)
                A, Z = mpmath.mpc(a), mpmath.mpc(z)
                u = mpmath.hyperu(A, 1, Z)
                # (z^a U)' = a^2 z^(a-1) U(a+1, 1; z) gives U'; the ODE U''
                du = A * (A * mpmath.hyperu(A + 1, 1, Z) - u) / Z
                ref = [complex(u), complex(du),
                       complex(((Z - 1) * du + A * u) / Z)]
                got = (te.value, te.dvalue, te.d2value)
                assert abs(got[0] - ref[0]) <= te.err * abs(ref[0]), (a, z)
                if -0.5 < a.real < 1.5 and abs(a.imag) <= 1.0:
                    # floored: U' and U'' vanish with a
                    worst_inner = max(worst_inner, *(
                        abs(g - e) / max(abs(e), 1e-3)
                        for g, e in zip(got, ref)))
        assert 0.0 < worst_inner < 1e-12


def _per_panel_formula(edges, q):
    """The Laplace ray's panels as built panel by panel before _panels."""
    x, w = _leggauss(q)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (((0.5 * (edges[:-1] + edges[1:]))[:, None] + half * x).ravel(),
            (half * w).ravel())


def test_laplace_values_match_the_per_panel_formula(monkeypatch):
    # the shared panel routine leaves every Laplace value bitwise unchanged
    rng = np.random.default_rng(21)
    points = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
               rng.uniform(0.3, 30.0) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
              for _ in range(40)]
    got = [chf._laplace_ray(a, z) for a, z in points]
    monkeypatch.setattr(chf, "_panels", _per_panel_formula)
    for (vals, err), (a, z) in zip(got, points):
        ref_vals, ref_err = chf._laplace_ray(a, z)
        assert np.array_equal(vals, ref_vals) and err == ref_err
