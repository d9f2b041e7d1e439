"""Nystrom discretization: determinants and second-kind solves.

I + K on an interval or contour becomes the dense matrix
I + K(z_i, z_j) w_j.  Its dtype is the result dtype of the kernel values
and the weights: real kernels on interval rules (real nodes and weights)
give a float64 matrix, factored in real arithmetic; contours and complex
kernel values give complex128.  Its determinant is the Fredholm
determinant of the discretized operator, and (I + K) f = g becomes a
dense solve whose LU factorization is reused across right-hand sides.
Complex contour weights enter as they are; no symmetrized square-root
splitting is attempted (square roots of complex weights are
branch-ambiguous, and determinants are similarity-invariant anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import get_lapack_funcs

from .errors import AssemblyError, NearSingularityError
from .kernels import KernelHandle
from .quadgrid import Contour, IntervalRule

__all__ = ["NystromSystem", "assemble", "determinant", "logdet", "solve"]

Support = Union[IntervalRule, Contour]


def _support_nodes_weights(support: Support):
    if isinstance(support, IntervalRule):
        return support.nodes, support.weights
    if isinstance(support, Contour):
        return support.samples, support.cweights
    raise AssemblyError(f"unsupported support type {type(support)!r}")


@dataclass
class NystromSystem:
    """Discretized I + K, ready for determinants and solves."""

    support: Support
    kernel: Optional[KernelHandle]
    matrix: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    _lu: tuple = field(default=None, repr=False)
    cond: float = None

    @property
    def n(self) -> int:
        return self.nodes.size

    def factorization(self, cond_cap: float = 1e12):
        """LU factorization plus a 1-norm condition estimate (cached)."""
        if self._lu is None:
            lu, piv = lu_factor(self.matrix)
            anorm = np.linalg.norm(self.matrix, 1)
            gecon, = get_lapack_funcs(("gecon",), (lu,))
            rcond, info = gecon(lu, anorm)
            if info != 0:
                raise NearSingularityError("condition estimation failed")
            self.cond = float(1.0 / max(rcond, 1e-300))
            self._lu = (lu, piv)
        if self.cond > cond_cap:
            raise NearSingularityError(
                f"condition estimate {self.cond:.3e} exceeds cap {cond_cap:.1e}"
                " (determinant numerically zero: the excluded case)",
                cond=self.cond)
        return self._lu


def assemble(kernel, support: Support) -> NystromSystem:
    """Discretize I + kernel on the support.

    The kernel's closed-form diagonal replaces the (removable) diagonal
    entries on interval supports; contour kernels are regular on the
    diagonal but still go through ``diag`` for uniformity.  The matrix
    keeps the result dtype of the kernel values and the weights.
    """
    nodes, weights = _support_nodes_weights(support)
    if isinstance(kernel, KernelHandle):
        K = np.asarray(kernel.eval(nodes[:, None], nodes[None, :]))
        diag = kernel.diag(nodes)
        K = K.astype(np.result_type(K, diag), copy=False)
        np.fill_diagonal(K, diag)
        handle = kernel
    else:  # bare callable: already regular everywhere
        K = np.asarray(kernel(nodes[:, None], nodes[None, :]))
        handle = None
    if not np.all(np.isfinite(K)):
        bad = np.argwhere(~np.isfinite(K))[0]
        raise AssemblyError(
            f"kernel not finite at nodes ({nodes[bad[0]]}, {nodes[bad[1]]})")
    matrix = K * weights[None, :]
    matrix.flat[::nodes.size + 1] += 1.0
    return NystromSystem(support=support, kernel=handle, matrix=matrix,
                         nodes=nodes, weights=weights)


def logdet(sys: NystromSystem) -> complex:
    """log det(I + K) with the imaginary part the accumulated argument."""
    sign, logabs = np.linalg.slogdet(sys.matrix)
    if sign == 0:
        return complex(-np.inf, 0.0)
    return complex(logabs) + np.log(complex(sign))


def determinant(sys: NystromSystem, with_error: bool = False):
    """Fredholm determinant; optionally with a refinement error estimate.

    The estimate doubles the node count and reports |det_2n - det_n|; the
    kernels in scope are analytic, so refinement converges geometrically
    and the estimate is sharp.
    """
    ld = logdet(sys)
    det = np.exp(ld) if ld.real < 700 else complex(np.inf)
    if not with_error:
        return det
    if sys.kernel is None:
        raise AssemblyError("error estimate needs the kernel handle")
    refined = assemble(sys.kernel, sys.support.refined())
    det2 = np.exp(logdet(refined))
    return det, abs(det2 - det)


def solve(sys: NystromSystem, rhs: np.ndarray,
          cond_cap: float = 1e12) -> np.ndarray:
    """Solve (I + K) f = g for one or many right-hand sides.

    Columns of a 2-d rhs are independent right-hand sides.  The residual
    is driven below 1e-10 * |g| by one step of iterative refinement and
    checked.
    """
    lu = sys.factorization(cond_cap)
    g = np.asarray(rhs, dtype=complex)
    f = lu_solve(lu, g)
    # one refinement step, then verify the residual contract
    r = g - sys.matrix @ f
    f = f + lu_solve(lu, r)
    r = g - sys.matrix @ f
    gnorm = np.max(np.abs(g))
    if gnorm > 0 and np.max(np.abs(r)) > 1e-10 * gnorm:
        raise NearSingularityError(
            f"solve residual {np.max(np.abs(r)):.2e} exceeds 1e-10 * |g|",
            cond=sys.cond)
    return f
