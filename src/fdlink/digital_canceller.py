"""Adaptive digital self-interference cancellation.

The residual SI after the analog stage is linear in the augmented monomials
of the known transmit frame (the impairment basis times the delay lines), so
the canceller solves a regularized least squares from training samples. The
eigenbasis of the design matrix's Gram matrix, built from lag correlations of
the undelayed monomial stream without forming the design matrix, is truncated
at the smallest rank whose per-antenna residual falls to the thermal noise
floor. The learned map is one matrix per delay line, so it is applied to the
whole frame after the ADC as an FIR filter over that stream.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .channel import apply_channel
from .impairments import build_augmented_vector
from .waveform import frame_power


@dataclass
class DigitalCancellerState:
    theta: np.ndarray                     # (n_rx, n_basis) learned map
    rank_used: int
    residual_power_per_antenna: np.ndarray
    singular_values: np.ndarray


def build_design_matrix(x, l_si):
    """Stack delayed copies of the impairment monomials of the TX frame.

    :param x: (n_tx, T) known transmit frame (pre-impairment baseband)
    :param l_si: number of delay lines spanned
    :returns: (6 * n_tx * l_si, T); delayed columns before the frame start
        are zero (the frame is the start of the transmission)
    """
    u = build_augmented_vector(np.atleast_2d(np.asarray(x)))
    nb, t = u.shape
    psi = np.zeros((l_si * nb, t), dtype=u.dtype)
    for l in range(min(l_si, t)):
        psi[l * nb:(l + 1) * nb, l:] = u[:, :t - l]
    return psi


def linear_basis_mask(n_tx, l_si):
    """Rows of the design matrix holding only the linear monomial x: the
    first n_tx of each delay line's 6 * n_tx rows."""
    return np.tile(np.arange(6 * n_tx) < n_tx, l_si)


def normal_equations(u, y, l_si):
    """G = psi psi^H and C = y psi^H for psi = build_design_matrix(x, l_si).

    Built from u = build_augmented_vector(x), (n_basis, T), and y, (n_rx, T),
    without forming psi. Block row 0 of G and all of C take one product per
    delay line against a shifted copy of u, of inner length T like the dense
    product: OpenBLAS rounds a shorter inner length differently at other
    thread counts, so serial and parallel runs would disagree. The other
    blocks follow from G[l, m] = G[l-1, m-1] - u[:, T-l] u[:, T-m]^H.
    """
    y = np.atleast_2d(np.asarray(y))
    nb, t = u.shape
    if y.shape[1] != t:
        raise ValueError("basis stream and observations disagree in length")
    rows = np.concatenate([u, y])
    pad = np.concatenate([np.zeros((nb, l_si - 1)), u], axis=1)
    g = np.empty((l_si, nb, l_si, nb), dtype=complex)
    c = np.empty((y.shape[0], l_si, nb), dtype=complex)
    for m in range(l_si):                  # u delayed by m, zeros before it
        prod = rows @ pad[:, l_si - 1 - m:][:, :t].conj().T
        g[0, :, m], c[:, m] = prod[:nb], prod[nb:]
    rev = pad[:, ::-1]             # rev[:, l - 1] = u[:, T - l], or 0 if l > T
    for l in range(1, l_si):
        g[l:, :, l - 1] = g[l - 1, :, l:].transpose(1, 2, 0).conj()
        g[l, :, l:] = g[l - 1, :, l - 1:-1] - (
            rev[:, l - 1, None, None] * rev[:, l - 1:l_si - 1].conj().T)
    return g.reshape(l_si * nb, -1), c.reshape(-1, l_si * nb)


def tsvd_fit(g, c, y, noise_var_w):
    """Truncated-SVD fit of y, (n_rx, T), from g = psi psi^H and c = y psi^H.

    Ranks are added in descending singular-value order until every antenna's
    mean-square residual is at or below noise_var_w; if that never happens
    the full numerical rank is used, which coincides with the minimum-norm
    least-squares solution. Singular values at numerical zero are never used.

    The eigenvalues of g are the squared singular values of psi, so psi is
    never factored. The numerical rank keeps lambda > lambda_0 *
    max(n_basis, T) * eps: eigh resolves g only to about eps * lambda_0, so
    an eigenvalue below that level carries no direction of psi.
    """
    y = np.atleast_2d(np.asarray(y))
    t = y.shape[1]
    lam, u = numerics.eigh(g)
    tol = lam[0] * max(g.shape[0], t) * np.finfo(float).eps if lam.size else 0.0
    k = int(np.sum(lam > tol))
    if k == 0:
        theta = np.zeros((y.shape[0], g.shape[0]), dtype=complex)
        return DigitalCancellerState(theta, 0, frame_power(y), lam[:0])
    cu = c @ u[:, :k]                      # coefficients times singular values
    cum = np.cumsum(np.abs(cu) ** 2 / lam[:k], axis=1)
    res = np.maximum(np.sum(np.abs(y) ** 2, axis=1)[:, None] - cum, 0.0)
    ok = np.all(res / t <= noise_var_w, axis=0)
    p = int(np.argmax(ok)) + 1 if np.any(ok) else k
    theta = (cu[:, :p] / lam[:p]) @ u[:, :p].conj().T
    return DigitalCancellerState(theta, p, res[:, p - 1] / t,
                                 np.sqrt(lam[:k]))


def tsvd_estimate(psi, y, noise_var_w):
    """tsvd_fit over a dense design matrix psi (the normal_equations oracle)."""
    psi = np.asarray(psi)
    y = np.atleast_2d(np.asarray(y))
    if y.shape[1] != psi.shape[1]:
        raise ValueError("design matrix and observations disagree in length")
    psi_h = psi.conj().T
    return tsvd_fit(psi @ psi_h, y @ psi_h, y, noise_var_w)


def cancel_signal(state, u):
    """Correction signal -Theta psi[k]; add to the post-ADC frame.

    :param u: (n_basis, T) undelayed basis stream the fit's design matrix
        was built from, build_augmented_vector(x) for the full basis or x
        for the linear_basis_mask basis. Theta holds one (n_rx, n_basis)
        block per delay line, so it is applied as an FIR filter over u.
    """
    theta = state.theta
    n_rx = theta.shape[0]
    taps = theta.reshape(n_rx, -1, u.shape[0]).transpose(1, 0, 2)
    return -apply_channel(u, taps)
