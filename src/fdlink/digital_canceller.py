"""Adaptive digital self-interference cancellation.

The residual SI after the analog stage is linear in the augmented monomials
of the known transmit frame (the impairment basis times the delay lines), so
the canceller solves a regularized least squares from training samples. The
fit works on the Gram matrix of the training-window design matrix: its
eigendecomposition gives the singular basis of the design matrix, which is
truncated at the smallest rank whose per-antenna residual falls to the
thermal noise floor. The learned map is one matrix per delay line, so it is
applied to the whole frame after the ADC as an FIR filter over the
undelayed monomial stream; the design matrix of the payload is never built.
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
    """Rows of the design matrix holding only the linear monomial x."""
    mask = np.zeros(6 * n_tx * l_si, dtype=bool)
    for l in range(l_si):
        mask[l * 6 * n_tx: l * 6 * n_tx + n_tx] = True
    return mask


def tsvd_estimate(psi, y, noise_var_w):
    """Truncated-SVD fit of y over the rows of psi.

    Ranks are added in descending singular-value order until every antenna's
    mean-square residual is at or below noise_var_w; if that never happens
    the full numerical rank is used, which coincides with the minimum-norm
    least-squares solution. Singular values at numerical zero are never used.

    The singular basis comes from the Gram matrix G = psi psi^H, whose
    eigenvalues are the squared singular values, and the coefficients from
    C = y psi^H, so the fit never factors psi itself. The numerical-rank cut
    is taken on the eigenvalues, lambda > lambda_0 * max(psi.shape) * eps:
    eigh resolves G only to about eps * lambda_0, so an eigenvalue below
    that level carries no direction of psi.
    """
    psi = np.asarray(psi)
    y = np.atleast_2d(np.asarray(y))
    t = psi.shape[1]
    if y.shape[1] != t:
        raise ValueError("design matrix and observations disagree in length")
    psi_h = psi.conj().T
    lam, u = numerics.eigh(psi @ psi_h)
    tol = lam[0] * max(psi.shape) * np.finfo(float).eps if lam.size else 0.0
    k = int(np.sum(lam > tol))
    if k == 0:
        theta = np.zeros((y.shape[0], psi.shape[0]), dtype=complex)
        res = frame_power(y)
        return DigitalCancellerState(theta, 0, res, lam[:0])
    cu = (y @ psi_h) @ u[:, :k]            # coefficients times singular values
    cum = np.cumsum(np.abs(cu) ** 2 / lam[:k], axis=1)
    res = np.maximum(np.sum(np.abs(y) ** 2, axis=1)[:, None] - cum, 0.0)
    ok = np.all(res / t <= noise_var_w, axis=0)
    p = int(np.argmax(ok)) + 1 if np.any(ok) else k
    theta = (cu[:, :p] / lam[:p]) @ u[:, :p].conj().T
    return DigitalCancellerState(theta, p, res[:, p - 1] / t,
                                 np.sqrt(lam[:k]))


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
