"""Adaptive digital self-interference cancellation.

The residual SI after the analog stage is a widely-linear function of the
impairment monomials of the known transmit frame (x, x*, x^3, x^2 x*,
x x*^2, x*^3) over the delay lines. Half of those monomials conjugate the
other half, so the canceller fits the real form of the same model
(Picinbono & Chevalier, IEEE TSP 1995): the real basis r = (Re x, Im x,
Re x^3, Im x^3, Re |x|^2 x, Im |x|^2 x), 6 n_tx real rows per delay line,
fitted to [Re y; Im y] with real coefficients. It is the same least squares
with half the multiplies. Its design matrix is R = M psi for the complex one
psi, with M M^H = I/2, so the real Gram B = R R^T = M G M^H has exactly half
the eigenvalues of G = psi psi^H: the truncation rule, the numerical-rank
tolerance and the rank they pick are those of the complex fit.

B and the cross terms come from lag products of the undelayed real basis,
without forming R. B's eigenbasis is truncated at the smallest rank whose
per-antenna residual (Re plus Im) falls to the thermal noise floor. The
linear-only baseline stays strictly linear, a complex map of x alone, with
its Gram and cross terms read from the x rows of B and C. Each learned map
is one matrix per delay line, so both are applied to the frame as FIR
filters over the real basis in one pass, which builds the basis one block
of samples at a time; the fit builds it for the training window only.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .channel import BLOCK
from .impairments import build_augmented_vector
from .waveform import frame_power


@dataclass
class DigitalCancellerState:
    theta: np.ndarray          # (n_rx, n_basis) map; (2 n_rx, .) if real
    rank_used: int
    residual_power_per_antenna: np.ndarray
    singular_values: np.ndarray           # of the complex design matrix


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
    first n_tx of each delay line's 6 * n_tx rows (Re x in the real basis,
    whose next n_tx rows are Im x)."""
    return np.tile(np.arange(6 * n_tx) < n_tx, l_si)


def real_basis(x, out=None):
    """The real impairment basis of x, (n, T), in real arithmetic:
    (Re x, Im x, Re x^3, Im x^3, Re |x|^2 x, Im |x|^2 x), (6n, T), into out
    when given. Over the complex numbers its rows span those of
    build_augmented_vector(x)."""
    x = np.atleast_2d(np.asarray(x))
    if out is None:
        out = np.empty((6 * len(x), x.shape[1]))
    a, b, c3, s3, cm, sm = np.split(out, 6)        # views of the six blocks
    np.copyto(a, x.real)
    np.copyto(b, x.imag)
    np.square(a, out=c3)
    np.square(b, out=s3)
    np.add(c3, s3, out=cm)                 # |x|^2
    np.multiply(c3, 3.0, out=sm)
    np.subtract(sm, s3, out=sm)            # 3 a^2 - b^2
    np.multiply(s3, 3.0, out=s3)
    np.subtract(c3, s3, out=c3)            # a^2 - 3 b^2
    np.multiply(c3, a, out=c3)             # Re x^3
    np.multiply(sm, b, out=s3)             # Im x^3
    np.multiply(cm, b, out=sm)             # Im |x|^2 x
    np.multiply(cm, a, out=cm)             # Re |x|^2 x
    return out


def normal_equations(r, y, l_si):
    """B = R R^T and C = [Re y; Im y] R^T for the real design matrix R.

    R stacks l_si delayed copies of r = real_basis(x), (n_basis, T), zero
    before the frame start; y is (n_rx, T). R is never formed: block row 0
    of B and all of C take one product per delay line, over the samples the
    delay keeps, and the other blocks follow from
    B[l, m] = B[l-1, m-1] - r[:, T-l] r[:, T-m]^T. One product per line
    gives both: r and [Re y; Im y] stacked, against r delayed.
    """
    y = np.atleast_2d(np.asarray(y))
    nb, t = r.shape
    if y.shape[1] != t:
        raise ValueError("basis stream and observations disagree in length")
    ry = np.concatenate([r, y.real, y.imag])
    b = np.zeros((l_si, nb, l_si, nb))
    c = np.zeros((2 * len(y), l_si, nb))
    for m in range(min(l_si, t)):          # r delayed by m
        b[0, :, m], c[:, m] = np.split(ry[:, m:] @ r[:, :t - m].T, [nb])
    tail = np.zeros((nb, l_si))            # tail[:, l] = r[:, T-l], 0 if l > T
    n = min(l_si - 1, t)
    tail[:, 1:n + 1] = r[:, t - n:][:, ::-1]
    for l in range(1, l_si):
        b[l:, :, l - 1] = b[l - 1, :, l:].transpose(1, 2, 0)
        b[l, :, l:] = b[l - 1, :, l - 1:-1] - (
            tail[:, l, None, None] * tail[:, l:].T)
    return b.reshape(l_si * nb, -1), c.reshape(-1, l_si * nb)


def linear_normal_equations(b, c, l_si):
    """The complex Gram and cross terms of the linear-only fit, a complex map
    of x alone, read from the x rows of normal_equations' B and C:
    G_xx = B_rr + B_ii + i (B_ir - B_ri) over the rows r of Re x and i of
    Im x, and C_xx = C_yr,r + C_yi,i + i (C_yi,r - C_yr,i) likewise."""
    n_tx, n_rx = len(b) // (6 * l_si), len(c) // 2
    re = np.flatnonzero(linear_basis_mask(n_tx, l_si))
    im = re + n_tx
    cr, ci = c[:n_rx], c[n_rx:]
    g = b[np.ix_(re, re)] + b[np.ix_(im, im)] + 1j * (
        b[np.ix_(im, re)] - b[np.ix_(re, im)])
    return g, cr[:, re] + ci[:, im] + 1j * (ci[:, re] - cr[:, im])


def tsvd_fit(g, c, y, noise_var_w):
    """Truncated-SVD fit of y, (n_rx, T), from a Gram g and cross terms c.

    Either g = psi psi^H and c = y psi^H for a complex design matrix psi,
    or g = B and c = C from normal_equations, real, whose c rows are those
    of Re y then Im y: an antenna's residual is then the sum of its Re and
    Im residuals, and theta is real, (2 n_rx, n_basis).

    Ranks are added in descending eigenvalue order until every antenna's
    mean-square residual is at or below noise_var_w; if that never happens
    the full numerical rank is used, which coincides with the minimum-norm
    least-squares solution. Eigenvalues at numerical zero are never used.

    The eigenvalues of g are the squared singular values of the design
    matrix (half of them for B, as in the module docstring), so it is never
    factored. The numerical rank keeps lambda > lambda_0 * max(n_basis, T)
    * eps: eigh resolves g only to about eps * lambda_0, so an eigenvalue
    below that level carries no direction of the design matrix.
    """
    y = np.atleast_2d(np.asarray(y))
    t = y.shape[1]
    parts = len(c) // len(y)               # 2 for the rows of Re y, Im y
    lam, u = numerics.eigh(g)
    tol = lam[0] * max(g.shape[0], t) * np.finfo(float).eps if lam.size else 0.0
    k = int(np.sum(lam > tol))
    if k == 0:
        theta = np.zeros((len(c), len(g)), dtype=np.result_type(c, g))
        return DigitalCancellerState(theta, 0, frame_power(y), lam[:0])
    cu = c @ u[:, :k]                      # coefficients times singular values
    cum = np.cumsum(np.abs(cu) ** 2 / lam[:k], axis=1)
    cum = cum.reshape(parts, len(y), k).sum(axis=0)
    res = np.maximum(np.sum(np.abs(y) ** 2, axis=1)[:, None] - cum, 0.0)
    ok = np.all(res / t <= noise_var_w, axis=0)
    p = int(np.argmax(ok)) + 1 if np.any(ok) else k
    theta = (cu[:, :p] / lam[:p]) @ u[:, :p].conj().T
    return DigitalCancellerState(theta, p, res[:, p - 1] / t,
                                 np.sqrt(parts * lam[:k]))


def tsvd_estimate(psi, y, noise_var_w):
    """tsvd_fit over a dense complex design matrix psi: the oracle of the
    real fit from normal_equations."""
    psi = np.asarray(psi)
    y = np.atleast_2d(np.asarray(y))
    if y.shape[1] != psi.shape[1]:
        raise ValueError("design matrix and observations disagree in length")
    psi_h = psi.conj().T
    return tsvd_fit(psi @ psi_h, y @ psi_h, y, noise_var_w)


def _real_taps(theta, l_si):
    """A fit's map as (l_si, 2 n_rx, k) real taps on the first k rows of each
    delay line's real basis. A complex map Theta of x alone acts on (Re x,
    Im x) as [[Re Theta, -Im Theta], [Im Theta, Re Theta]]."""
    if np.iscomplexobj(theta):
        th = theta.reshape(len(theta), l_si, -1)
        tr, ti = th.real, th.imag
        theta = np.concatenate([np.concatenate([tr, -ti], axis=2),
                                np.concatenate([ti, tr], axis=2)])
    return theta.reshape(len(theta), l_si, -1).transpose(1, 0, 2)


def cancel_signal(x, thetas, l_si, start=0):
    """Each fit's correction -Theta psi[k], for the columns k >= start of x.

    :param x: (n_tx, T) known transmit frame the fits' design matrix was
        built from; the columns before start are only the history the delay
        lines reach, and there is none before column 0
    :param thetas: the fits' maps, each a real (2 n_rx, 6 n_tx l_si) map of
        the real basis (tsvd_fit over normal_equations) or a complex
        (n_rx, n_tx l_si) map of x alone (the linear-only fit)
    :returns: one complex (n_rx, T - start) correction per map

    Each map is an FIR filter over the real basis. One pass over column
    blocks of x builds the block's basis into one buffer and runs every
    map's stacked taps through one reused product buffer. Each delay line's
    shifted rows are summed, in line order, in a contiguous block of [Re;
    Im] rows, which is written into the real and imaginary parts of that
    map's correction.
    """
    x = np.atleast_2d(np.asarray(x))
    t = x.shape[1]
    fits = []
    for theta in thetas:
        taps = -_real_taps(theta, l_si)
        n_rx = taps.shape[1] // 2
        fits.append((taps.reshape(-1, taps.shape[2]),
                     np.empty((n_rx, t - start), dtype=complex)))
    width = min(BLOCK + l_si - 1, t)
    basis = np.empty((6 * len(x), width))
    prod = np.empty((max(len(s) for s, _ in fits), width))
    acc = np.empty((max(2 * len(out) for _, out in fits), min(BLOCK, t)))
    for k0 in range(start, t, BLOCK):
        k1 = min(k0 + BLOCK, t)
        h0 = max(k0 - l_si + 1, 0)         # oldest input the block reaches
        r = real_basis(x[:, h0:k1], out=basis[:, :k1 - h0])
        for stacked, out in fits:
            p = np.matmul(stacked, r[:stacked.shape[1]],
                          out=prod[:len(stacked), :k1 - h0])
            p = p.reshape(l_si, -1, k1 - h0)
            a = acc[:p.shape[1], :k1 - k0]
            np.copyto(a, p[0, :, k0 - h0:k1 - h0])
            for l in range(1, min(l_si, k1)):
                lo = max(k0, l)            # first output with x[k-l] in frame
                a[:, lo - k0:] += p[l, :, lo - l - h0:k1 - l - h0]
            n_rx = len(out)
            out.real[:, k0 - start:k1 - start] = a[:n_rx]
            out.imag[:, k0 - start:k1 - start] = a[n_rx:]
    return [out for _, out in fits]
