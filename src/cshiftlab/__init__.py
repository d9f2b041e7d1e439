"""Numerical laboratory for c-shifted integrable kernel determinants.

Quadrature rules, the scalar symbol machinery, a discretized model of
L2(R+) + L2(R+), the kernel catalog, a Nystrom determinant engine, the
operator-valued Riemann-Hilbert objects, confluent-hypergeometric local
parametrices, and the determinant-ratio pipeline that ties them together.
"""

from .quadgrid import (Rule, IntervalRule, Contour, HalfLineRule,
                       gauss_interval, transplanted_interval, graded_interval,
                       stadium_contour, laguerre_halfline, safe_radius)
from .cauchy import CauchyKit
from .symbols import (HolomorphicHandle, ProblemData, ScalarRH, EPS_K,
                      constant_symbol, poly_symbol, scaled_exp_symbol,
                      identity_phase, poly_phase, make_handle, make_problem,
                      nu, tau, boundary_value)
from .l2half import (m_vec, kappa_form, pair, pairing_closed_form, e_vectors,
                     rank_one, dense, smoothing_bound, factor_bound)
from .kernels import (KernelHandle, v_t, v0, v0_generators, shift_factors,
                      u_kt, k_kt, resolvent_kernel)
from .fredholm import (NystromSystem, assemble, cauchy_like_logdets,
                       determinant, logdet, logdet_update, solve)
from .rhp import (ChiSolution, BetaSolution, OperatorFactory,
                  solve_beta, g_chi, factorization_residual,
                  pi_residual, default_probes)
from .chf import TricomiEval, tricomi_psi
from .parametrix import Parametrix, build_parametrix, zeta
from .flow import (SweepConfig, SweepReport, theorem1_sweep, dt_logdet_check,
                   emit, load_config)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
