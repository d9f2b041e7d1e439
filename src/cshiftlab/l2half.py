"""Discretized model of L2(R+) + L2(R+): vectors, one-forms, block operators.

Functions on the half-line are arrays of values at the HalfLineRule nodes;
one-forms pair through the rule weights.  Operators act on value vectors,
so an integral operator with kernel k(s, s') is the matrix
k(s_i, s_j) * w_j and "identity plus integral operator" is I + that.
Matrix determinants and traces of such matrices coincide with the
Fredholm determinants and operator traces they discretize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterDomainError
from .quadgrid import HalfLineRule
from .symbols import EPS_K, ProblemData

__all__ = [
    "m_vec",
    "kappa_form",
    "pair",
    "pairing_closed_form",
    "e_vectors",
    "rank_one",
    "BlockOperator",
]


def _check_growth(pd: ProblemData, lam):
    # keeps |e^{+- i s t lam}| <= e^{c s / 4}, so all half-line kernels decay
    growth = float(np.max(np.abs(np.imag(pd.t * np.asarray(lam)))))
    if growth >= pd.c / 4.0:
        raise ParameterDomainError(
            f"|Im(t*lam)| = {growth:.3g} >= c/4; half-line factors would grow")


def m_vec(k: int, pd: ProblemData, grid: HalfLineRule, lam) -> np.ndarray:
    """Values of m_k(lam) at the grid nodes, shape lam.shape + (n,).

    m_k(lam; s) = sqrt(c) e^{-c s/2} e^{-i eps_k t s lam}; k=1 carries
    e^{+i s t lam}, k=2 the conjugate phase.
    """
    _check_growth(pd, lam)
    s = grid.snodes
    lam = np.asarray(lam)[..., None]
    return np.sqrt(pd.c) * np.exp(-0.5 * pd.c * s - 1j * EPS_K[k] * pd.t * s * lam)


def kappa_form(k: int, pd: ProblemData, grid: HalfLineRule, lam) -> np.ndarray:
    """Values of the one-form kappa_k(lam), shape lam.shape + (n,).

    kappa_k(lam; s) = m_k(-lam; s); pairing goes through the weights.
    """
    return m_vec(k, pd, grid, -np.asarray(lam))


def pair(grid: HalfLineRule, kappa_vals: np.ndarray, f_vals: np.ndarray):
    """kappa[f] = int kappa(s) f(s) ds on the grid."""
    return (np.asarray(kappa_vals) * np.asarray(f_vals)) @ grid.sweights


def pairing_closed_form(k: int, pd: ProblemData, lam: complex, mu: complex):
    """kappa_k(lam)[m_k(mu)] = i c eps_k / (t (lam - mu) + i eps_k c)."""
    e = EPS_K[k]
    return 1j * pd.c * e / (pd.t * (lam - mu) + 1j * e * pd.c)


def e_vectors(pd: ProblemData, grid: HalfLineRule, mu):
    """The vector pair E_R(mu) and one-form pair E_L(mu).

    Returns (EL, ER), each of shape mu.shape + (2, n): EL rows are one-form
    values F(mu) e^{-+ i x p(mu)/2} kappa_k(mu) with a sign flip on the
    second row, ER rows are -1/(2 i pi) e^{+- i x p(mu)/2} m_k(mu).  The
    pairing (EL(lam), ER(mu)) / (lam - mu) reproduces the deformed kernel
    V_t, and it vanishes at lam = mu.
    """
    Fv = pd.F(mu)[..., None]
    ph = np.exp(0.5j * pd.x * pd.p(mu))[..., None]
    EL = np.stack([
        Fv / ph * kappa_form(1, pd, grid, mu),
        -Fv * ph * kappa_form(2, pd, grid, mu),
    ], axis=-2)
    ER = (-1.0 / (2j * np.pi)) * np.stack([
        ph * m_vec(1, pd, grid, mu),
        m_vec(2, pd, grid, mu) / ph,
    ], axis=-2)
    return EL, ER


def rank_one(v: np.ndarray, kappa: np.ndarray, grid: HalfLineRule) -> np.ndarray:
    """Action matrix of v (x) kappa: (v (x) kappa)[f] = v * kappa[f]."""
    v = np.asarray(v)
    kappa = np.asarray(kappa)
    if v.shape != (grid.n,) or kappa.shape != (grid.n,):
        raise GridMismatchError("vector/one-form length does not match grid")
    return np.outer(v, kappa * grid.sweights)


@dataclass
class BlockOperator:
    """2x2 matrix of operators on the half-line grid, one (2n, 2n) matrix.

    ``mat`` acts on stacked value vectors (component 1 first).  Read as
    id + smoothing part, the smoothing kernel (``kernel_part``) of the
    jump and solution operators inherits the e^{-c(s+s')/4} decay pattern
    of the objects it discretizes (``smoothing_bound``).
    """

    mat: np.ndarray
    grid: HalfLineRule

    @classmethod
    def from_blocks(cls, blocks, grid: HalfLineRule) -> "BlockOperator":
        (b11, b12), (b21, b22) = blocks
        return cls(np.block([[b11, b12], [b21, b22]]).astype(complex), grid)

    def block(self, q: int, r: int) -> np.ndarray:
        n = self.grid.n
        return self.mat[(q - 1) * n:q * n, (r - 1) * n:r * n]

    def __matmul__(self, other):
        if isinstance(other, BlockOperator):
            if other.grid is not self.grid and other.grid.n != self.grid.n:
                raise GridMismatchError("block operators on different grids")
            return BlockOperator(self.mat @ other.mat, self.grid)
        return self.mat @ np.asarray(other)

    def inv(self) -> "BlockOperator":
        return BlockOperator(np.linalg.inv(self.mat), self.grid)

    def det(self) -> complex:
        sign, logabs = np.linalg.slogdet(self.mat)
        return sign * np.exp(logabs)

    def kernel_part(self) -> np.ndarray:
        """Kernel values of the smoothing part (weights divided out)."""
        n = self.grid.n
        w = np.tile(self.grid.sweights, 2)
        return (self.mat - np.eye(2 * n)) / w[None, :]

    def smoothing_bound(self) -> float:
        """max |kernel(s, s')| e^{c (s+s')/4}: the decay-pattern constant."""
        s = np.tile(self.grid.snodes, 2)
        growth = np.exp(0.25 * self.grid.c * (s[:, None] + s[None, :]))
        return float(np.max(np.abs(self.kernel_part()) * growth))

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self.mat @ np.asarray(f)
