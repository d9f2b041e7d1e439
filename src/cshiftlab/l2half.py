"""Discretized model of L2(R+) + L2(R+): vectors, one-forms, operators.

Functions on the half-line are arrays of values at the HalfLineRule nodes;
one-forms pair through the rule weights.  Operators are plain matrices
acting on value vectors, so an integral operator with kernel k(s, s') is
the matrix k(s_i, s_j) * w_j and "identity plus integral operator" is
I + that.  A 2x2 block operator on L2(R+) + L2(R+) is one (2n, 2n) array
acting on stacked value vectors, component 1 first.
Matrix determinants and traces of such matrices coincide with the
Fredholm determinants and operator traces they discretize.
"""

from __future__ import annotations

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
    "smoothing_bound",
    "factor_bound",
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
    s = grid.nodes
    lam = np.asarray(lam)[..., None]
    return np.sqrt(pd.c) * np.exp(-0.5 * pd.c * s - 1j * EPS_K[k] * pd.t * s * lam)


def kappa_form(k: int, pd: ProblemData, grid: HalfLineRule, lam) -> np.ndarray:
    """Values of the one-form kappa_k(lam), shape lam.shape + (n,).

    kappa_k(lam; s) = m_k(-lam; s); pairing goes through the weights.
    """
    return m_vec(k, pd, grid, -np.asarray(lam))


def pair(grid: HalfLineRule, kappa_vals: np.ndarray, f_vals: np.ndarray):
    """kappa[f] = int kappa(s) f(s) ds on the grid."""
    return (np.asarray(kappa_vals) * np.asarray(f_vals)) @ grid.weights


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
    return np.outer(v, kappa * grid.weights)


def smoothing_bound(mat: np.ndarray, grid: HalfLineRule) -> float:
    """max |kernel(s, s')| e^{c (s+s')/4} of a (2n, 2n) operator id + K.

    The kernel values of K are mat - I with the weights divided out.  The
    jump and solution operators inherit the e^{-c(s+s')/4} decay pattern
    of the objects they discretize, so this is their decay-pattern
    constant.  This dense form is the definition and the tests'
    reference; the package takes the same number from the factors of its
    block-rank-one operators (``factor_bound``).
    """
    s = grid.doubled.nodes
    kernel = (mat - np.eye(2 * grid.n)) / grid.doubled.weights[None, :]
    return float(np.max(np.abs(kernel)
                        * np.exp(0.25 * grid.c * (s[:, None] + s[None, :]))))


def factor_bound(coef: np.ndarray, l: np.ndarray, r: np.ndarray,
                 grid: HalfLineRule) -> float:
    """``smoothing_bound`` of I + sum_jk coef[j, k] l_j (x) r_k in O(n).

    ``l`` and ``r`` hold the vectors and one-forms l_1, l_2 and r_1, r_2
    in their rows.  Block (j, k) of the kernel is coef[j, k] l_j(s)
    r_k(s') / w(s'), rank one, so with g = e^{c s/4} (``grid.growth``) its
    bound is exactly |coef[j, k]| max |l_j g| max |r_k g / w|.
    """
    g = grid.growth
    lg = np.max(np.abs(l) * g, axis=1)
    rg = np.max(np.abs(r) * (g / grid.weights), axis=1)
    return float(np.max(np.abs(coef) * lg[:, None] * rg[None, :]))
