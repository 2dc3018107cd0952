"""TX/RX beamforming for the full-duplex node and its two users.

Downlink: the FD node steers its precoder through the weakest right-singular
subspace of the effective residual SI channel (estimated SI plus analog
canceller), picking the largest stream count whose estimated per-antenna
residual SI stays under the RF saturation threshold, then eigenbeamforms the
downlink inside that subspace. Uplink: the uplink user eigenbeamforms its
estimated channel and the FD node combines with the generalized-eigenvector
(interference-whitening) receiver built from the measured interference-plus-
noise covariance.

Per-subcarrier solves are vectorized over the data bins; the stream count is
one integer per coherence block.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .impairments import check_saturation, tx_chain
from .waveform import draw_symbols, ofdm_modulate, ofdm_demodulate


@dataclass
class DlSolution:
    v: np.ndarray              # (nc, n_tx, alpha) precoders, zero on null bins
    u: np.ndarray              # (nc, n_rx_m1, alpha) combiners, zero on null bins
    g1: float                  # per-antenna gain, sqrt(P_b / n_tx)
    alpha: int
    feasible: bool
    violating_antenna: int | None
    margin_db: float           # worst antenna's estimated residual over the
                               # threshold, dB (negative when feasible)
    est_residual_w: np.ndarray # per-antenna estimated residual SI, watts


class DlInfeasibleError(Exception):
    """No stream count can keep the estimated residual SI under threshold."""

    def __init__(self, antenna, margin_db, solution):
        super().__init__(
            f"RX antenna {antenna} exceeds the saturation threshold by "
            f"{margin_db:.2f} dB at every candidate stream count")
        self.antenna = antenna
        self.margin_db = margin_db
        self.solution = solution


def _unit_columns(v):
    n = np.linalg.norm(v, axis=-2, keepdims=True)
    n[n == 0] = 1.0
    return v / n


def _full_bins(nc, data_idx, per_bin):
    out = np.zeros((nc,) + per_bin.shape[1:], dtype=complex)
    out[data_idx] = per_bin
    return out


def solve_dl(h_si_eff_f, h_dl_f, gains_b, p_b_w, lambda_b_w, nc, data_idx,
             cp_len, probe_gen, alpha_cap=None, probe_symbols=4, strict=False):
    """Downlink precoder/combiner with RF-saturation-aware stream count.

    :param h_si_eff_f: (nc, n_rx_b, n_tx_b) estimated SI-plus-canceller response
    :param h_dl_f: (nc, n_rx_m1, n_tx_b) estimated downlink response
    :param gains_b: composite TX gains of the FD node (for the probe frame)
    :param probe_gen: random generator for the distortion probe symbols
    :param alpha_cap: optional cap on the stream count
    :param strict: raise DlInfeasibleError instead of returning the flagged
        smallest-stream-count solution

    Stream counts are tried from the largest down to 2 (a single pass at 1
    for single-antenna users); the first count whose estimated per-antenna
    residual SI power (signal plus measured TX distortion, time-averaged)
    stays strictly below lambda_b_w wins.
    """
    n_rx_b, n_tx = h_si_eff_f.shape[1:]
    n_rx_m1 = h_dl_f.shape[1]
    alpha_max = min(n_rx_m1, n_tx)
    if alpha_cap is not None:
        alpha_max = min(alpha_max, alpha_cap)
    candidates = list(range(alpha_max, 1, -1)) if alpha_max >= 2 else [1]

    hts = h_si_eff_f[data_idx]
    hdl = h_dl_f[data_idx]
    _, _, vr = numerics.svd(hts)               # right-singular basis, descending
    g1 = np.sqrt(p_b_w / n_tx)

    last = None
    for alpha in candidates:
        null_basis = vr[:, :, n_tx - alpha:]   # weakest-alpha subspace
        m = hdl @ null_basis                   # downlink seen through it
        um, _, fm = numerics.svd(m)
        v = null_basis @ fm                    # (nd, n_tx, alpha), orthonormal
        u = um[:, :, :alpha]

        # estimated residual SI at the own RX: precoded signal part plus the
        # actual TX distortion of a probe frame run through the chain
        s = draw_symbols(probe_gen, probe_symbols, nc, data_idx, alpha)
        v_full = _full_bins(nc, data_idx, v)
        x = ofdm_modulate(s, v_full, cp_len)
        _, z = tx_chain(x, gains_b)
        zf = ofdm_demodulate(z, nc, cp_len)[:, data_idx, :]
        sig = hts @ (g1 * v)
        p_sig = np.sum(np.abs(sig) ** 2, axis=(0, 2))
        hz = np.einsum("nri,sni->snr", hts, zf)
        p_z = np.sum(np.mean(np.abs(hz) ** 2, axis=0), axis=0)
        res_w = (p_sig + p_z) / nc             # per-antenna time average
        sat = check_saturation(res_w, lambda_b_w)

        with np.errstate(divide="ignore"):     # zero residual reads -inf dB
            margin = float(10 * np.log10(np.max(res_w) / lambda_b_w))
        last = DlSolution(
            v=v_full,
            u=_full_bins(nc, data_idx, u),
            g1=float(g1),
            alpha=alpha,
            feasible=not np.any(sat),
            violating_antenna=int(np.argmax(res_w)) if np.any(sat) else None,
            margin_db=margin,
            est_residual_w=res_w,
        )
        if last.feasible:
            return last
    if strict:
        raise DlInfeasibleError(last.violating_antenna, last.margin_db, last)
    return last


def ul_precoder(h_ul_f, d_m2, p_m2_w, nc, data_idx):
    """Uplink user: eigenbeamforming on the estimated channel, equal power."""
    n_tx_m2 = h_ul_f.shape[2]
    _, _, vr = numerics.svd(h_ul_f[data_idx])
    v = _full_bins(nc, data_idx, vr[:, :, :d_m2])
    return v, float(np.sqrt(p_m2_w / n_tx_m2))


def ul_combiner(h_ul_f, v_m2, g1_m2, d_m2, sigma_b_w, nc, data_idx,
                h_si_eff_f=None, v_b=None, g1_b=None,
                z_b_cov=None, z_m2_cov=None, d_cov=None):
    """Interference-whitening UL receive combiner.

    Builds the per-bin interference-plus-noise covariance (residual SI signal
    and distortion, uplink TX distortion, digital-canceller correction, and
    thermal noise), then takes the dominant generalized eigenvectors of the
    uplink signal Gram against it: the row eigenvectors of
    signal_gram @ Sigma^-1, i.e. eig(Sigma^-1 @ signal_gram).
    """
    n_rx = h_ul_f.shape[1]
    hul = h_ul_f[data_idx]
    nd = len(data_idx)
    sigma = np.zeros((nd, n_rx, n_rx), dtype=complex)
    if h_si_eff_f is not None and v_b is not None:
        hts = h_si_eff_f[data_idx]
        a = g1_b * v_b[data_idx]
        sigma += hts @ (a @ _h(a)) @ _h(hts)
        if z_b_cov is not None:
            sigma += hts @ z_b_cov @ _h(hts)
    if z_m2_cov is not None:
        sigma += hul @ z_m2_cov @ _h(hul)
    if d_cov is not None:
        sigma += d_cov
    sigma += sigma_b_w * np.eye(n_rx)

    heff = hul @ (g1_m2 * v_m2[data_idx])
    s0 = heff @ _h(heff)
    try:
        m = np.linalg.solve(sigma, s0)
    except np.linalg.LinAlgError as exc:
        raise numerics.NumericalError(f"IpN covariance is singular: {exc}") from None
    _, vec = numerics.eig_general(m)
    u = _unit_columns(vec[:, :, :d_m2])
    return _full_bins(nc, data_idx, u)


def _h(a):
    return np.swapaxes(a, -2, -1).conj()


def rate_bits(s_mat, q_mat):
    """log2 det(I + S S^H Q^-1) per bin; shapes (..., d, d) -> (...)."""
    gram = s_mat @ _h(s_mat)
    sign_q, logdet_q = np.linalg.slogdet(q_mat)
    sign_t, logdet_t = np.linalg.slogdet(q_mat + gram)
    if np.any(sign_q == 0):
        raise numerics.NumericalError("singular IpN covariance in rate")
    return (logdet_t - logdet_q) / np.log(2.0)
