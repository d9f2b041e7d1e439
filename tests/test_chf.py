import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import exp1, gamma

import cshiftlab as cl
from cshiftlab import chf
from cshiftlab.chf import (A_CAP, TricomiEval, _asymptotic, _gamma, _laplace,
                           _over_budget, tricomi_psi)
from cshiftlab.errors import AccuracyError, BranchError, ParameterDomainError
from cshiftlab.parametrix import Parametrix, _psi_cont, zeta
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

    @pytest.mark.parametrize("a, poly", [
        (5e-324j, lambda z: 1.0), (1e-310 + 1e-310j, lambda z: 1.0),
        (-1.0 + 5e-324j, lambda z: z - 1.0)])
    def test_parameter_next_to_a_pole_of_gamma(self, a, poly):
        # closer than 1/Gamma(a)^2 and the Laplace stub's 1/a can be
        # formed, U takes its value at the integer, on every sheet; its
        # neighbour a + 1 stays finite off-sheet, where 1 - a is as close
        for sheet in (-1, 0, 1):
            z = 3.0 * np.exp(0.5j)
            assert tricomi_psi(a, z, sheet).value \
                == pytest.approx(poly(z), rel=1e-14)
            assert np.isfinite(tricomi_psi(a + 1.0, z, sheet).value)

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
                    vl, _, _, el, _ = _laplace(complex(a), z)
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


def _continued(a, z, sheet):
    """Psi(a, 1; z) on the sheet by 50-digit mpmath: ``hyperu`` on the
    principal sheet, one monodromy connection formula off it (total
    argument within 3 pi/2, so that -z is principal)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        A, Z = mpmath.mpc(a), mpmath.mpc(z)
        val = mpmath.hyperu(A, 1, Z)
        if sheet:
            kap = sheet * 2j * mpmath.pi * mpmath.rgamma(A) ** 2 \
                * mpmath.exp(-1j * mpmath.pi * A * sheet)
            val = mpmath.exp(-2j * mpmath.pi * A * sheet) * val \
                + kap * mpmath.exp(Z) * mpmath.hyperu(1 - A, 1, -Z)
        return complex(val)


def _relation_gap(a, z, sheet, lowered=lambda up, *_: up.lowered()):
    """|Psi(a, 1; z) from the index relation - reference| over its bound.

    ``lowered(up, a, z, sheet)`` forms Psi(a) from ``up``, the evaluation
    at a + 1 on the same sheet.  The reference is ``_continued``.  The
    bound is scale-free: 10 max(lowered_err, 1e-13) |Psi(a)|, with the
    relation's own monitor (``TricomiEval.lowered_err``).
    """
    up = tricomi_psi(a + 1.0, z, sheet)
    ref = _continued(a, z, sheet)
    bound = 10.0 * max(up.lowered_err(), 1e-13) * abs(ref)
    return abs(lowered(up, a, z, sheet) - ref) / bound


def _on_cover(r, total):
    """(z, sheet) of the point of modulus r at total argument ``total``."""
    z = complex(r * np.exp(1j * total))
    return z, int(np.rint((total - np.angle(z)) / (2.0 * np.pi)))


class TestIndexRelation:
    """Psi(a) = (a + z) Psi(a+1) - z Psi'(a+1), the parametrix's route to
    Psi(+-m), over its parameter range and the arguments of its disks:
    |Re a| <= 0.45, |Im a| <= 0.3, 0.3 <= |z| <= 100, total argument in
    (-3 pi/2, 3 pi/2).  Every point is checked, also those where the
    direct evaluation is over budget; the relation is held to its own
    monitor and budget (``TricomiEval.lowered_err``)."""

    @settings(max_examples=60, deadline=None)
    @given(re=st.floats(-0.45, 0.45), im=st.floats(-0.3, 0.3),
           log_r=st.floats(np.log10(0.3), 2.0),
           total=st.floats(-1.5 * np.pi, 1.5 * np.pi, exclude_min=True,
                           exclude_max=True))
    def test_matches_the_reference(self, re, im, log_r, total):
        a = complex(re, im)
        z, sheet = _on_cover(10.0 ** log_r, total)
        try:
            up = tricomi_psi(a + 1.0, z, sheet)
        except AccuracyError:
            reject()  # no value at a + 1 to lower
        if _over_budget(z, up.lowered_err()):
            # the relation is refused: the direct value, or its refusal
            try:
                direct = tricomi_psi(up.a - 1.0, z, sheet).value
            except AccuracyError:
                with pytest.raises(AccuracyError):
                    up.lowered()
            else:
                assert up.lowered() == direct
            return
        assert _relation_gap(a, z, sheet) <= 1.0
        if sheet:
            # and off-sheet it agrees with the direct value wherever that
            # is within budget
            try:
                direct = tricomi_psi(a, z, sheet)
            except AccuracyError:
                return
            assert abs(up.lowered() - direct.value) \
                <= 10.0 * abs(direct.value) \
                * max(up.lowered_err() + direct.err, 1e-13)

    @pytest.mark.parametrize("a, r, total, outcome", [
        (0.03 + 0.57j, 23.6, -4.7, "relation"),
        (0.09 - 0.14j, 24.0, 4.7, "direct"),
        (0.4 + 0.95j, 23.0, -0.12 - 2.0 * np.pi, "refused"),
    ])
    def test_budget_as_for_the_direct_value(self, a, r, total, outcome):
        # in the overlap annulus: the relation serves where its monitor is
        # within budget, also where the direct value is refused; over it,
        # the direct value is taken, or refused as the direct call is
        z, sheet = _on_cover(r, total)
        up = tricomi_psi(a + 1.0, z, sheet)
        assert _over_budget(z, up.lowered_err()) == (outcome != "relation")
        if outcome == "refused":
            with pytest.raises(AccuracyError):
                tricomi_psi(a, z, sheet)
            with pytest.raises(AccuracyError):
                up.lowered()
        elif outcome == "direct":
            assert up.lowered() == tricomi_psi(up.a - 1.0, z, sheet).value
        else:
            with pytest.raises(AccuracyError):
                tricomi_psi(a, z, sheet)
            assert _relation_gap(a, z, sheet) <= 1.0

    def test_lowered_is_the_relation(self):
        te = tricomi_psi(0.7 + 0.1j, 3.0 - 2.0j)
        assert isinstance(te, TricomiEval)
        assert te.lowered() == (te.a - 1.0 + te.z) * te.value \
            - te.z * te.dvalue
        # the monitor: both terms' monitors and rounding over the result
        up, dn = abs((te.a - 1.0 + te.z) * te.value), abs(te.z * te.dvalue)
        assert te.lowered_err() == pytest.approx(
            (up * (te.err + 2.0 ** -53) + dn * (te.derr + 2.0 ** -53))
            / abs(te.lowered()), rel=1e-12)

    def test_probe_disks_against_the_direct_entries(self):
        # Psi(+-m) as the parametrix takes them, against their direct
        # evaluation on the small-norm probe disks: x = 100 and |zeta| =
        # 15..25, the overlap annulus, all around both endpoints, so on
        # every sheet.  The symbols are the probe's F = 0.1 and 0.3 and
        # two of the new regimes, F = 0.2 + 0.3i and -0.8.
        sheets, fallbacks, disagree = set(), 0, 0
        for F in (0.1, 0.3, 0.2 + 0.3j, -0.8):
            pd = cl.make_problem(a=-1.0, b=1.0, c=1.0, t=1.0, x=100.0,
                                 F=cl.constant_symbol(F),
                                 p=cl.identity_phase())
            for ep, s in (("a", 1), ("b", -1)):
                px = Parametrix(ep, pd.a if s > 0 else pd.b, 0.2, 100.0, pd,
                                factory=None)
                for r in np.linspace(0.15, 0.25, 5):
                    for th in np.linspace(-np.pi, np.pi, 32, endpoint=False):
                        lam = px.center + r * np.exp(1j * (th + 0.01))
                        m = -s * complex(cl.nu(pd, lam))
                        z = zeta(ep, pd, lam, px.x)
                        try:
                            ups = [_psi_cont(1.0 + m, z, -1),
                                   _psi_cont(1.0 - m, z, +1)]
                        except AccuracyError:
                            # Psi(1 +- m) are evaluated directly, as before
                            with pytest.raises(AccuracyError):
                                px._confluent(m, z)
                            continue
                        cols = []
                        for up, rot in zip(ups, (-1, +1)):
                            sheets.add(up.sheet)
                            try:
                                direct = _psi_cont(up.a - 1.0, z, rot)
                            except AccuracyError:
                                direct = None
                            cols.append((up, direct,
                                         _over_budget(z, up.lowered_err())))
                        if any(over and d is None for _, d, over in cols):
                            # refused exactly where the direct call is
                            with pytest.raises(AccuracyError):
                                px._confluent(m, z)
                            continue
                        got = px._confluent(m, z)
                        assert got[1, 0] == ups[0].value
                        assert got[0, 1] == ups[1].value
                        for (up, direct, over), entry in zip(
                                cols, (got[0, 0], got[1, 1])):
                            le = up.lowered_err()
                            if over:
                                fallbacks += 1
                                assert entry == direct.value
                                continue
                            if direct is None or abs(entry - direct.value) \
                                    <= 10.0 * abs(direct.value) \
                                    * max(le + direct.err, 1e-13):
                                continue
                            # apart by more than both monitors: the
                            # relation holds to its own against the
                            # reference, the direct value does not
                            disagree += 1
                            ref = _continued(up.a - 1.0, up.z, up.sheet)
                            assert abs(entry - ref) \
                                <= 10.0 * max(le, 1e-13) * abs(ref)
                            assert abs(direct.value - ref) \
                                > 10.0 * direct.err * abs(ref)
        assert sheets == {-1, 0, 1} and fallbacks > 0
        assert disagree <= 10

    @pytest.mark.parametrize("lowered", [
        lambda up, a, z, sheet: (a + z) * up.value
        - z * tricomi_psi(a, z, sheet).dvalue,
        lambda up, a, z, sheet: z * up.value - z * up.dvalue,
    ], ids=["slope-at-a", "no-a-term"])
    def test_wrong_relations_fail(self, lowered):
        # negative controls: Psi'(a) for Psi'(a+1), and a Psi(a+1) dropped
        rng = np.random.default_rng(8)
        gaps = []
        for _ in range(12):
            a = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.3, 0.3))
            z, sheet = _on_cover(10.0 ** rng.uniform(np.log10(0.3), 2.0),
                                 rng.uniform(-1.5 * np.pi, 1.5 * np.pi))
            try:
                gaps.append(_relation_gap(a, z, sheet, lowered))
            except AccuracyError:
                continue
        assert len(gaps) >= 10 and min(gaps) > 1.0


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
        assert np.array_equal(vals, ref_vals) and np.array_equal(err, ref_err)
