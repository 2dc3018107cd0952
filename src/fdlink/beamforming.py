"""TX/RX beamforming for the full-duplex node and its two users.

Downlink: the FD node steers its precoder through the weakest right-singular
subspace of the effective residual SI channel (estimated SI plus analog
canceller), picking the largest stream count whose estimated per-antenna
residual SI stays under the RF saturation threshold, then eigenbeamforms the
downlink inside that subspace. Uplink: the uplink user eigenbeamforms its
estimated channel and the FD node combines with the generalized-eigenvector
(interference-whitening) receiver built from the interference-plus-noise
covariance its caller measured, computed on the Cholesky-whitened channel.

Per-subcarrier arrays hold the data bins only, (nd, ...), in
`cfg.data_idx` order; the stream count is one integer per coherence block.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .impairments import check_saturation, tx_chain
from .waveform import (draw_symbols, full_bins, ofdm_modulate,
                       ofdm_demodulate)

# OFDM symbols in the probe frame that measures the TX distortion
PROBE_SYMBOLS = 4


@dataclass
class DlSolution:
    v: np.ndarray              # (nd, n_tx, alpha) precoders on the data bins
    u: np.ndarray              # (nd, n_rx_m1, alpha) combiners on the data bins
    alpha: int
    feasible: bool
    violating_antenna: int | None
    margin_db: float           # worst antenna's estimated residual over the
                               # threshold, dB (negative when feasible)
    est_residual_w: np.ndarray # per-antenna estimated residual SI, watts


def _bin_cov(x):
    """Per-bin covariance over the symbols of x (nd, n, sym): (nd, n, n)."""
    return (x @ numerics.herm(x)) / x.shape[2]


def _through(h, cov):
    """The per-bin covariance cov seen through the per-bin channel h."""
    return h @ cov @ numerics.herm(h)


def residual_si_cov(h_si_eff_f, a, z_bins):
    """Per-bin covariance (nd, n_rx, n_rx) of the SI past the analog
    canceller that solve_dl holds under the saturation threshold and the UL
    combiner whitens against: signal a (nd, n_tx, d) plus TX distortion
    z_bins (nd, n_tx, sym), through h. The signal part is (h a)(h a)^H, as
    h (a a^H) h^H can round below 0 when a lies in the null space of h."""
    sig = h_si_eff_f @ a
    return sig @ numerics.herm(sig) + _through(h_si_eff_f, _bin_cov(z_bins))


def solve_dl(h_si_eff_f, h_dl_f, gains_b, g1, lambda_b_w, nc, data_idx,
             cp_len, probe_gen, alpha_cap):
    """Downlink precoder/combiner with RF-saturation-aware stream count.

    :param h_si_eff_f: (nd, n_rx_b, n_tx_b) estimated SI-plus-canceller response
    :param h_dl_f: (nd, n_rx_m1, n_tx_b) estimated downlink response
    :param gains_b: composite TX gains of the FD node (for the probe frame)
    :param g1: the node's per-antenna amplitude, sqrt(P_b / n_tx)
    :param probe_gen: random generator for the distortion probe symbols
    :param alpha_cap: cap on the stream count

    Stream counts are tried from the largest down to 2 (a single pass at 1
    for single-antenna users); the first count whose estimated per-antenna
    residual SI power (signal plus measured TX distortion, time-averaged)
    stays strictly below lambda_b_w wins. If none does, the smallest count's
    solution is returned flagged infeasible.

    The distortion only adds power, so a count whose precoded signal alone
    already reaches lambda_b_w on some antenna cannot win: it is rejected
    before its downlink SVD and probe frame (the last count is still built,
    since it is returned). Its probe symbols are drawn all the same, so
    every later count's probe, and so the result, is the one the full probe
    would have given.
    """
    n_tx = h_si_eff_f.shape[2]
    n_rx_m1 = h_dl_f.shape[1]
    alpha_max = min(n_rx_m1, n_tx, alpha_cap)
    candidates = list(range(alpha_max, 1, -1)) if alpha_max >= 2 else [1]

    _, _, vr = numerics.svd(h_si_eff_f)        # right-singular basis, descending
    # per-antenna signal power along each right-singular direction, so the
    # signal part of a count's residual is a sum over its weakest directions
    # (the precoder's rotation inside the subspace keeps the power)
    sig_w = np.sum(np.abs(h_si_eff_f @ (g1 * vr)) ** 2, axis=0) / nc
    for alpha in candidates:
        null_basis = vr[:, :, n_tx - alpha:]   # weakest-alpha subspace
        # the margin covers the rounding between this sum and the probe's
        # (signal and distortion summed in another order): a count is only
        # skipped when the full estimate would flag it as well
        hopeless = np.any(np.sum(sig_w[:, n_tx - alpha:], axis=1)
                          >= lambda_b_w * (1 + 1e-9))
        if hopeless and alpha != candidates[-1]:
            draw_symbols(probe_gen, PROBE_SYMBOLS, nc, data_idx, alpha)
            continue
        m = h_dl_f @ null_basis                # downlink seen through it
        um, _, fm = numerics.svd(m)
        v = null_basis @ fm                    # (nd, n_tx, alpha), orthonormal
        u = um[:, :, :alpha]

        # estimated residual SI at the own RX: precoded signal part plus the
        # actual TX distortion of a probe frame run through the chain
        s = draw_symbols(probe_gen, PROBE_SYMBOLS, nc, data_idx, alpha)
        x = ofdm_modulate(s, full_bins(nc, data_idx, v), cp_len)
        _, z = tx_chain(x, gains_b)
        zf = ofdm_demodulate(z, nc, cp_len)[:, data_idx, :].transpose(1, 2, 0)
        cov = residual_si_cov(h_si_eff_f, g1 * v, zf)
        res_w = np.sum(np.diagonal(cov, axis1=1, axis2=2).real, axis=0) / nc
        sat = check_saturation(res_w, lambda_b_w)

        with np.errstate(divide="ignore"):     # zero residual reads -inf dB
            margin = float(10 * np.log10(np.max(res_w) / lambda_b_w))
        last = DlSolution(
            v=v,
            u=u,
            alpha=alpha,
            feasible=not np.any(sat),
            violating_antenna=int(np.argmax(res_w)) if np.any(sat) else None,
            margin_db=margin,
            est_residual_w=res_w,
        )
        if last.feasible:
            break
    return last


def ul_precoder(h_ul_f, d_m2):
    """Uplink user: eigenbeamforming on the estimated channel, d_m2 streams."""
    _, _, vr = numerics.svd(h_ul_f)
    return vr[:, :, :d_m2]


def ul_combiner(heff, ipn):
    """Interference-whitening UL receive combiner, one unit column per stream.

    heff (nd, n_rx, d) is the effective uplink channel, precoder and
    amplitude included. The columns span the dominant generalized
    eigenvectors of (heff heff^H, ipn) for the per-bin interference-plus-noise
    covariance ipn = L L^H (nd, n_rx, n_rx): L^-H times the top-d
    left-singular vectors of the whitened channel L^-1 heff.
    """
    try:
        chol = np.linalg.cholesky(ipn)
    except np.linalg.LinAlgError as exc:
        raise numerics.NumericalError(f"IpN covariance is singular: {exc}") from None
    u, _, _ = numerics.svd(np.linalg.solve(chol, heff))
    v = np.linalg.solve(numerics.herm(chol), u[:, :, :heff.shape[2]])
    return v / np.linalg.norm(v, axis=-2, keepdims=True)  # never a zero column


def rate_bits(s_mat, q_mat):
    """log2 det(I + S S^H Q^-1) per bin; shapes (..., d, d) -> (...)."""
    gram = s_mat @ numerics.herm(s_mat)
    sign_q, logdet_q = np.linalg.slogdet(q_mat)
    sign_t, logdet_t = np.linalg.slogdet(q_mat + gram)
    if np.any(sign_q == 0):
        raise numerics.NumericalError("singular IpN covariance in rate")
    return (logdet_t - logdet_q) / np.log(2.0)
