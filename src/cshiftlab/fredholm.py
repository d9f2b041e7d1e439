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
the matrix determinant lemma, as a product with the system's inverse.
``NystromSystem.updated`` is the system of I + K + U R^T itself, inverted
from (I + K)^{-1} by the Sherman-Morrison-Woodbury identity (Hager, SIAM
Rev. 31, 1989), and ``NystromSystem.transposed`` the system of the
transposed kernel, W^{-1} (I + K W)^T W, inverted by the same scaling:
one inverse of I + K serves any number of updates and both kernel
orientations.  ``solve`` on such a view checks the view's own condition
number and residual.  ``low_rank_system`` is the system of I + P Q^T for
(n, r) factors, the identity updated without a base inverse: Woodbury
with an r x r solve inverts it, and its log-determinant is the r x r
ln det(I_r + Q^T P).  I + K_{k;t} W on an interval rule is such a
system (``kernels.k_factors``).

``cauchy_like_logdets`` needs no matrix at all.  A Cauchy-like A, with
D A - A D = G H^T for D = diag(lam) and G, H of a few columns, is fixed
by its generators and its diagonal, and so is every Schur complement of
it (Gohberg, Kailath & Olshevsky, Math. Comp. 64, 1995).  Gaussian
elimination then runs on the generators, block by block, and returns
ln det A together with the lemma's ln det(I_m + R^T A^{-1} U) in one
pass and O(n (m + BLOCK)) memory; ``cauchy_like_matrix`` forms A, or a
pivot block, from the same generators.  I + V0 W is such a matrix
(``kernels.v0_generators``): the sweep eliminates it, ``rhp.ChiSolution``
forms it.  U_{k;t} on its loop, the one kernel a pipeline assembles,
and the tests' dense references go through ``assemble``.

``one_blas_thread`` runs a block of code with OpenBLAS on one thread.
The sweep's products are too small to gain from BLAS threads, and an
idle OpenBLAS thread spins between calls, so on more threads the sweep
is charged their CPU time and slows down whenever another process
holds a core.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AssemblyError, NearSingularityError
from .quadgrid import Rule

__all__ = ["NystromSystem", "assemble", "cauchy_like_logdets",
           "cauchy_like_matrix", "determinant", "logdet", "logdet_update",
           "low_rank_system", "one_blas_thread", "solve"]

#: ``solve`` refuses a system whose 1-norm condition number exceeds this:
#: its determinant is numerically zero (the excluded case); and
#: ``cauchy_like_logdets`` refuses a pivot block over it
COND_CAP = 1e12
#: pivots per block of ``cauchy_like_logdets``
BLOCK = 128

@dataclass
class NystromSystem:
    """Discretized I + K, ready for determinants and solves."""

    support: Rule
    kernel: Optional[Callable]
    matrix: np.ndarray
    _inv: np.ndarray = field(default=None, repr=False)
    cond: float = None
    #: a view's inverse from its base system's (``updated``, ``transposed``)
    #: or from low-rank factors (``low_rank_system``)
    _invert: Optional[Callable] = field(default=None, repr=False)
    #: I_r + Q^T P of a ``low_rank_system``; None for any other system
    capacitance: Optional[np.ndarray] = field(default=None, repr=False)

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


def low_rank_system(support: Rule, P: np.ndarray,
                    Q: np.ndarray) -> NystromSystem:
    """The system of I + P Q^T for (n, r) factors P and Q on the rule.

    Its matrix is formed by one product.  Its inverse, on first use, is
    I - P C^{-1} Q^T with the r x r capacitance matrix C = I_r + Q^T P
    (Woodbury), and ``logdet`` takes ln det C (Sylvester's identity), so
    no n x n matrix is factored.  ``solve`` checks the exact condition
    number and residual of the formed matrix, as for any system.  An
    exactly singular C raises NearSingularityError from ``factorization``;
    its ``logdet`` is -inf.
    """
    n = support.n
    C = np.eye(P.shape[1]) + Q.T @ P
    matrix = P @ Q.T
    matrix.flat[::n + 1] += 1.0

    def invert():
        inv = -P @ np.linalg.solve(C, Q.T)
        inv.flat[::n + 1] += 1.0
        return inv

    return NystromSystem(support=support, kernel=None, matrix=matrix,
                         _invert=invert, capacitance=C)


def _slogdet(matrix: np.ndarray) -> complex:
    sign, logabs = np.linalg.slogdet(matrix)
    if sign == 0:
        return complex(-np.inf, 0.0)
    return complex(logabs) + np.log(complex(sign))


def logdet(sys: NystromSystem) -> complex:
    """log det(I + K) with the imaginary part the accumulated argument.

    A ``low_rank_system`` takes it from its r x r capacitance matrix.
    """
    return _slogdet(sys.matrix if sys.capacitance is None
                    else sys.capacitance)


def logdet_update(sys: NystromSystem, U: np.ndarray, R: np.ndarray) -> complex:
    """ln det(I + K + U R^T) - ln det(I + K) for (n, m) factors U and R.

    Computed as ln det(I_m + R^T (I + K)^{-1} U) with the system's inverse
    (``factorization``); (I + K + U R^T) itself is never formed.  An
    exactly singular system raises NearSingularityError; a vanishing
    updated determinant gives -inf, as in ``logdet``.
    """
    return _slogdet(np.eye(U.shape[1]) + R.T @ _dot(sys.factorization(), U))


def cauchy_like_matrix(nodes: np.ndarray, g: np.ndarray, h: np.ndarray,
                       diag: np.ndarray) -> np.ndarray:
    """A_ij = g_i . h_j / (nodes_i - nodes_j) off the diagonal, diag_i on it."""
    gaps = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(gaps, 1.0)
    A = (g @ h.T) / gaps
    np.fill_diagonal(A, diag)
    return A


def cauchy_like_logdets(nodes: np.ndarray, g: np.ndarray, h: np.ndarray,
                        diag: np.ndarray, U: np.ndarray, R: np.ndarray):
    """(ln det A, ln det(I_m + R^T A^{-1} U)) for a Cauchy-like A, unformed.

    A_ij = g_i . h_j / (nodes_i - nodes_j) off the diagonal and diag_i on
    it, for distinct real nodes and (n, k) generators g, h with
    g_i . h_i = 0 (so D A - A D = g h^T, D = diag(nodes)); U and R are
    (n, m).  This eliminates the bordered matrix [[A, U], [R^T, -I_m]]
    BLOCK pivots at a time.  The block row and column of the current Schur
    complement come from its generators; the b x b block
    (``cauchy_like_matrix``) is inverted by numpy (pivoted within the
    block); then g, h, the diagonal, U, R and the border's m x m sum
    I_m + R^T A^{-1} U are updated:
        g_2 -= A_21 A_11^{-1} g_1,   h_2 -= (A_11^{-1} A_12)^T h_1,
    and alike for U and R, which keeps the complement Cauchy-like with the
    same nodes.  ln det A is the fsum of the blocks' log-determinants,
    with the product of their signs, so its imaginary part is principal.
    Across blocks the elimination does not pivot: a block whose 1-norm
    condition number exceeds COND_CAP, or that is exactly singular, raises
    NearSingularityError.  A vanishing border determinant gives -inf, as
    in ``logdet_update``.
    """
    n, k = g.shape
    dtype = np.result_type(g, h, diag, U, R)
    # U and R take the updates of g and h: one array each, [g, U] and [h, R]
    gu = np.concatenate([g, U], axis=1, dtype=dtype)
    hr = np.concatenate([h, R], axis=1, dtype=dtype)
    diag = np.array(diag, dtype=dtype)
    border = np.eye(U.shape[1], dtype=dtype)
    logabs, sign = [], 1.0
    for k0 in range(0, n, BLOCK):
        k1 = min(k0 + BLOCK, n)
        blk, rest = slice(k0, k1), slice(k1, n)
        g1, h1 = gu[blk, :k], hr[blk, :k]
        A11 = cauchy_like_matrix(nodes[blk], g1, h1, diag[blk])
        try:
            inv = np.linalg.inv(A11)
        except np.linalg.LinAlgError as exc:
            raise NearSingularityError(
                "pivot block is exactly singular (the excluded case)",
                cond=np.inf) from exc
        cond = float(np.linalg.norm(A11, 1) * np.linalg.norm(inv, 1))
        if not cond <= COND_CAP:      # NaN included
            raise NearSingularityError(
                f"pivot block condition number {cond:.3e} exceeds cap "
                f"{COND_CAP:.1e} (the excluded case)", cond=cond)
        block_sign, block_logabs = np.linalg.slogdet(A11)
        sign = sign * block_sign
        logabs.append(float(block_logabs))
        # A_11^{-T} [h_1, R_1]: the pivots' part of H^T and R^T times A^{-1}
        hr1 = inv.T @ hr[blk]
        border += hr1[:, k:].T @ gu[blk, k:]
        if k1 == n:
            break
        cauchy = 1.0 / (nodes[blk, None] - nodes[None, rest])
        A12 = (g1 @ hr[rest, :k].T) * cauchy
        # A_21^T = -(h_1 g_2^T) o cauchy; its minus turns the -= into +=
        Y = inv.T @ ((h1 @ gu[rest, :k].T) * cauchy)
        gu[rest] += Y.T @ gu[blk]
        diag[rest] += np.einsum("ij,ij->j", Y, A12)
        hr[rest] -= A12.T @ hr1
    ld = complex(math.fsum(logabs)) + np.log(complex(sign))
    return ld, _slogdet(border)


@functools.cache
def _openblas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of each OpenBLAS in the process.

    Looked up once, on first use, among the shared objects that
    /proc/self/maps lists (Linux).  Elsewhere, for a BLAS other than
    OpenBLAS, or for an OpenBLAS older than 0.3.27, there is none.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({fields[5].strip() for fields in
                            (line.split(None, 5) for line in maps)
                            if len(fields) == 6
                            and "openblas" in fields[5].lower()})
    except OSError:
        return ()
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return tuple(setters)


@contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS on one thread; restore the counts.

    ``openblas_set_num_threads_local`` sets a count and returns the one
    it replaces.  The count is process-wide, so blocks entered from
    several Python threads at once may restore it out of order.  Without
    OpenBLAS this does nothing.
    """
    setters = _openblas_thread_setters()
    previous = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, count in zip(setters, previous):
            setter(count)


def determinant(sys: NystromSystem):
    """Fredholm determinant exp(``logdet``); complex inf past e^700."""
    ld = logdet(sys)
    return np.exp(ld) if ld.real < 700 else complex(np.inf)


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
