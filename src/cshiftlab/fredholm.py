"""Nystrom discretization: determinants and second-kind solves.

I + K on an interval or contour becomes the dense matrix
I + K(z_i, z_j) w_j.  Its dtype is the result dtype of the kernel values
and the weights: real kernels on interval rules (real nodes and weights)
give a float64 matrix, factored in real arithmetic; contours and complex
kernel values give complex128.  Its determinant is the Fredholm
determinant of the discretized operator, and (I + K) f = g becomes a
dense solve whose inverse is reused across right-hand sides.
Complex contour weights enter as they are; no symmetrized square-root
splitting is attempted (square roots of complex weights are
branch-ambiguous, and determinants are similarity-invariant anyway).

Solves invert the matrix once with numpy and take the exact 1-norm
condition number ||A||_1 ||A^-1||_1 from that inverse.  All dense linear
algebra is numpy's, the package's only runtime dependency.  numpy reports
an exactly singular matrix as LinAlgError; it is raised here as
NearSingularityError, like a condition number over the cap.

``logdet_update`` adds a term of low rank m to a system:
ln det(I + K + U R^T) - ln det(I + K) = ln det(I_m + R^T (I + K)^{-1} U),
the matrix determinant lemma, at the cost of one LU solve against the m
columns of U.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import AssemblyError, NearSingularityError
from .quadgrid import Contour, IntervalRule

__all__ = ["NystromSystem", "assemble", "determinant", "logdet",
           "logdet_update", "solve"]

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
    kernel: Optional[Callable]
    matrix: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    _inv: np.ndarray = field(default=None, repr=False)
    cond: float = None

    @property
    def n(self) -> int:
        return self.nodes.size

    def factorization(self, cond_cap: float = 1e12) -> np.ndarray:
        """The inverse matrix plus the exact 1-norm condition number (cached)."""
        if self._inv is None:
            try:
                self._inv = np.linalg.inv(self.matrix)
            except np.linalg.LinAlgError as exc:
                raise NearSingularityError(
                    "matrix is exactly singular (the excluded case)",
                    cond=np.inf) from exc
            self.cond = float(np.linalg.norm(self.matrix, 1)
                              * np.linalg.norm(self._inv, 1))
        if self.cond > cond_cap:
            raise NearSingularityError(
                f"condition number {self.cond:.3e} exceeds cap {cond_cap:.1e}"
                " (determinant numerically zero: the excluded case)",
                cond=self.cond)
        return self._inv


def assemble(kernel, support: Support) -> NystromSystem:
    """Discretize I + kernel on the support.

    The kernel's closed-form diagonal replaces the (removable) diagonal
    entries on interval supports; contour kernels are regular on the
    diagonal but still go through ``diag`` for uniformity.  The matrix
    keeps the result dtype of the kernel values and the weights.
    """
    nodes, weights = _support_nodes_weights(support)
    if hasattr(kernel, "diag"):
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


def _slogdet(matrix: np.ndarray) -> complex:
    sign, logabs = np.linalg.slogdet(matrix)
    if sign == 0:
        return complex(-np.inf, 0.0)
    return complex(logabs) + np.log(complex(sign))


def logdet(sys: NystromSystem) -> complex:
    """log det(I + K) with the imaginary part the accumulated argument."""
    return _slogdet(sys.matrix)


def logdet_update(sys: NystromSystem, U: np.ndarray, R: np.ndarray) -> complex:
    """ln det(I + K + U R^T) - ln det(I + K) for (n, m) factors U and R.

    Computed as ln det(I_m + R^T (I + K)^{-1} U), with one LU solve of the
    system against U; (I + K + U R^T) itself is never formed.  A float64
    system stays in real arithmetic: a complex U is solved as the real pair
    [Re U, Im U].  An exactly singular system raises NearSingularityError;
    a vanishing updated determinant gives -inf, as in ``logdet``.
    """
    A, m = sys.matrix, U.shape[1]
    split = np.iscomplexobj(U) and not np.iscomplexobj(A)
    try:
        X = np.linalg.solve(A, np.concatenate([U.real, U.imag], axis=1)
                            if split else U)
    except np.linalg.LinAlgError as exc:
        raise NearSingularityError(
            "matrix is exactly singular (the excluded case)",
            cond=np.inf) from exc
    if split:
        X = X[:, :m] + 1j * X[:, m:]
    return _slogdet(np.eye(m) + R.T @ X)


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
    inv = sys.factorization(cond_cap)
    g = np.asarray(rhs, dtype=complex)
    f = inv @ g
    # one refinement step, then verify the residual contract
    r = g - sys.matrix @ f
    f = f + inv @ r
    r = g - sys.matrix @ f
    gnorm = np.max(np.abs(g))
    if gnorm > 0 and np.max(np.abs(r)) > 1e-10 * gnorm:
        raise NearSingularityError(
            f"solve residual {np.max(np.abs(r)):.2e} exceeds 1e-10 * |g|",
            cond=sys.cond)
    return f
