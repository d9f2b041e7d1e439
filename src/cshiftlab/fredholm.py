"""Nystrom discretization: determinants and second-kind solves.

I + K on any ``quadgrid.Rule`` (an interval rule, a loop or the
half-line) becomes the dense matrix I + K(z_i, z_j) w_j, from the rule's
nodes z and weights w alone.  Its dtype is the result dtype of the kernel
values and the weights: real kernels on interval rules (real nodes and
weights) give a float64 matrix, factored in real arithmetic; contours and
complex kernel values give complex128.  Its determinant is the Fredholm
determinant of the discretized operator, and (I + K) f = g becomes a
dense solve whose inverse is reused across right-hand sides.
Complex contour weights enter as they are; no symmetrized square-root
splitting is attempted (square roots of complex weights are
branch-ambiguous, and determinants are similarity-invariant anyway).

Solves invert the matrix once with numpy and take the exact 1-norm
condition number ||A||_1 ||A^-1||_1 from that inverse; ``solve`` refuses a
condition number over COND_CAP.  All dense linear algebra is numpy's, the
package's only runtime dependency.  numpy reports an exactly singular
matrix as LinAlgError; it is raised here as NearSingularityError, like a
condition number over the cap.

``logdet_update`` adds a term of low rank m to a system:
ln det(I + K + U R^T) - ln det(I + K) = ln det(I_m + R^T (I + K)^{-1} U),
the matrix determinant lemma, at the cost of one LU solve against the m
columns of U, or of a product when the system already holds its inverse.
``NystromSystem.updated`` is the system of I + K + U R^T itself, inverted
from (I + K)^{-1} by the Sherman-Morrison-Woodbury identity (Hager, SIAM
Rev. 31, 1989), and ``NystromSystem.transposed`` the system of the
transposed kernel, W^{-1} (I + K W)^T W, inverted by the same scaling:
one inverse of I + K serves any number of updates and both kernel
orientations.  ``solve`` on such a view checks the view's own condition
number and residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AssemblyError, NearSingularityError
from .quadgrid import Rule

__all__ = ["NystromSystem", "assemble", "determinant", "logdet",
           "logdet_update", "solve"]

#: ``solve`` refuses a system whose 1-norm condition number exceeds this:
#: its determinant is numerically zero (the excluded case)
COND_CAP = 1e12

@dataclass
class NystromSystem:
    """Discretized I + K, ready for determinants and solves."""

    support: Rule
    kernel: Optional[Callable]
    matrix: np.ndarray
    _inv: np.ndarray = field(default=None, repr=False)
    cond: float = None
    #: a view's inverse from its base system's (``updated``, ``transposed``)
    _invert: Optional[Callable] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.support.n

    def factorization(self) -> np.ndarray:
        """The inverse matrix plus the exact 1-norm condition number (cached).

        A view takes its inverse from its base system's; ``solve``'s cap
        applies to the view's own condition number.
        """
        if self._inv is None:
            invert = self._invert or (lambda: np.linalg.inv(self.matrix))
            try:
                self._inv = invert()
            except np.linalg.LinAlgError as exc:
                raise NearSingularityError(
                    "matrix is exactly singular (the excluded case)",
                    cond=np.inf) from exc
            self.cond = float(np.linalg.norm(self.matrix, 1)
                              * np.linalg.norm(self._inv, 1))
        return self._inv

    def _view(self, matrix: np.ndarray, invert: Callable) -> "NystromSystem":
        return NystromSystem(support=self.support, kernel=None, matrix=matrix,
                             _invert=invert)

    def updated(self, U: np.ndarray, R: np.ndarray) -> "NystromSystem":
        """The system of A + U R^T for (n, m) factors U and R, A = I + K.

        Its matrix is formed by one product; its inverse, on first use, is
        A^{-1} - (A^{-1} U) C^{-1} (R^T A^{-1}) with C = I_m + R^T A^{-1} U,
        from this system's inverse.  An exactly singular A or C raises
        NearSingularityError.
        """
        def invert():
            inv = self.factorization()
            X = _dot(inv, U)
            C = np.eye(U.shape[1]) + R.T @ X
            return inv - X @ np.linalg.solve(C, _dot(R.T, inv))

        return self._view(self.matrix + U @ R.T, invert)

    def transposed(self) -> "NystromSystem":
        """The system of the transposed kernel K(mu, lam): W^{-1} A^T W.

        Its inverse W^{-1} A^{-T} W is a scaling of this system's.
        """
        w = self.support.weights
        scale = w[None, :] / w[:, None]
        return self._view(self.matrix.T * scale,
                          lambda: self.factorization().T * scale)


def _dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B, a complex factor against a real one taken as a real pair."""
    if np.iscomplexobj(A) == np.iscomplexobj(B):
        return A @ B
    if np.iscomplexobj(B):
        return A @ B.real + 1j * (A @ B.imag)
    return A.real @ B + 1j * (A.imag @ B)


def assemble(kernel, support: Rule, left=None) -> NystromSystem:
    """Discretize I + kernel on any rule, from its nodes and weights.

    ``kernel(lam, mu)`` is evaluated on every pair of nodes, the diagonal
    included: a ``kernels.KernelHandle`` or any callable that broadcasts
    and is exact there.  ``left``, for a kernel that takes one
    (``kernels.k_kt``), is its lam-side factor at the nodes when the caller
    has it.  The matrix keeps the result dtype of the kernel values and
    the weights.
    """
    nodes, weights = support.nodes, support.weights
    kw = {} if left is None else {"left": np.asarray(left)[:, None]}
    K = np.asarray(kernel(nodes[:, None], nodes[None, :], **kw))
    if not np.all(np.isfinite(K)):
        bad = np.argwhere(~np.isfinite(K))[0]
        raise AssemblyError(
            f"kernel not finite at nodes ({nodes[bad[0]]}, {nodes[bad[1]]})")
    matrix = K * weights[None, :]
    matrix.flat[::nodes.size + 1] += 1.0
    return NystromSystem(support=support, kernel=kernel, matrix=matrix)


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

    Computed as ln det(I_m + R^T (I + K)^{-1} U); (I + K + U R^T) itself
    is never formed.  A system that holds its inverse (``factorization``)
    applies it; otherwise one LU solve against U, which forms no inverse.
    An exactly singular system raises
    NearSingularityError; a vanishing updated determinant gives -inf, as
    in ``logdet``.
    """
    if sys._inv is not None:
        return _slogdet(np.eye(U.shape[1]) + R.T @ _dot(sys._inv, U))
    try:
        X = np.linalg.solve(sys.matrix, U)
    except np.linalg.LinAlgError as exc:
        raise NearSingularityError(
            "matrix is exactly singular (the excluded case)",
            cond=np.inf) from exc
    return _slogdet(np.eye(U.shape[1]) + R.T @ X)


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
        raise AssemblyError("error estimate needs the kernel")
    refined = assemble(sys.kernel, sys.support.refined())
    det2 = np.exp(logdet(refined))
    return det, abs(det2 - det)


def solve(sys: NystromSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + K) f = g for one or many right-hand sides.

    Columns of a 2-d rhs are independent right-hand sides.  A condition
    number over COND_CAP raises NearSingularityError.  The residual is
    driven below 1e-10 * |g| by one step of iterative refinement and
    checked.
    """
    inv = sys.factorization()
    if sys.cond > COND_CAP:
        raise NearSingularityError(
            f"condition number {sys.cond:.3e} exceeds cap {COND_CAP:.1e}"
            " (determinant numerically zero: the excluded case)",
            cond=sys.cond)
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
