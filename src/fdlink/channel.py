"""Wideband block-fading channels: Rayleigh user links and the Rician
self-interference channel of the full-duplex node.

A channel is a dense stack of sample-spaced matrix taps (L, n_rx, n_tx);
applying it is a linear convolution with zero initial history. Only the
tapped delay lines (those with a nonzero tap; the SI channel and the analog
canceller can leave most lines empty) enter it: one stacked product
(L' n_rx, n_tx) @ x over the L' tapped lines per cache-sized column block of
the frame, with their shifted adds inside the block. The same loop filters a
samplewise basis of the input (the digital canceller's monomials), built one
block at a time, so the basis is never formed for the whole frame.
Frequency responses are the unnormalized DFT across the tap axis.
"""

import numpy as np

from .config_units import complex_normal, db_to_linear

BLOCK = 8192        # frame columns per stacked product (buffer reused)


def gen_rayleigh(gen, n_rx, n_tx, n_taps, pathloss_db, profile="uniform"):
    """Iid Rayleigh tap stack whose total per-entry power is 10^(-PL/10).

    profile "uniform" splits the power evenly over taps; "exponential" decays
    one neper per tap.
    """
    if profile == "uniform":
        w = np.ones(n_taps)
    elif profile == "exponential":
        w = np.exp(-np.arange(n_taps, dtype=float))
    else:
        raise ValueError(f"unknown delay profile {profile!r}")
    w = w / w.sum() * db_to_linear(-pathloss_db)
    taps = np.empty((n_taps, n_rx, n_tx), dtype=complex)
    for l in range(n_taps):
        taps[l] = complex_normal(gen, (n_rx, n_tx), var=w[l])
    return taps


# Specular-to-diffuse power split of the reflected SI paths. The reflected
# bounces are modelled as a single dominant plane wave (rank-one outer
# product, redrawn per coherence block) plus a small diffuse remainder; the
# direct tap instead has a fixed coupling geometry. These fractions control
# how often per-subcarrier soft-nulling can clear the RF saturation threshold
# with few canceller taps and how far the adaptive digital stage can push the
# residual, and were calibrated jointly against the reference operating
# points (saturation-probability, cancellation-depth and rate-gain targets).
# The first bounce stays the most specular; the later, longer bounces pick
# up a somewhat larger scattered share on their extra wall interactions.
REFLECT_DIFFUSE = (0.025, 0.045, 0.045)


def direct_coupling_matrix(n_rx, n_tx):
    """Deterministic unit-modulus near-field coupling of the own array.

    Quadratic phase across antenna index differences; fixed over runs, the
    same way a bolted-down array keeps its direct leakage geometry.
    """
    jj = np.arange(n_rx)[:, None]
    ii = np.arange(n_tx)[None, :]
    return np.exp(1j * 2.0 * np.pi * ((jj - ii) ** 2) / 7.0)


def gen_rician_si(gen, n_rx, n_tx, lines, losses_db, k_direct_db):
    """Self-interference channel: direct coupling tap plus reflected paths.

    Path p sits on the sample-spaced delay line lines[p] (a config's
    si_delay_samples); paths on the same line add there. Per-entry average
    power of each path equals 10^(-loss/10) exactly.
    """
    taps = np.zeros((max(lines) + 1, n_rx, n_tx), dtype=complex)
    d0_sq = db_to_linear(-k_direct_db)
    for p, (line, loss) in enumerate(zip(lines, losses_db)):
        v = db_to_linear(-loss)
        if p == 0:
            det = direct_coupling_matrix(n_rx, n_tx)
            mix = d0_sq
        else:
            a = complex_normal(gen, (n_rx,))
            b = complex_normal(gen, (n_tx,))
            det = np.outer(a, np.conj(b))
            mix = REFLECT_DIFFUSE[min(p - 1, len(REFLECT_DIFFUSE) - 1)]
        diffuse = complex_normal(gen, (n_rx, n_tx))
        if p > 0:
            # Reflected bounces carry a fixed aggregate scattered power;
            # only the spatial structure varies between realizations.
            diffuse *= np.sqrt(n_rx * n_tx) / np.linalg.norm(diffuse)
        taps[line] += np.sqrt(v) * (np.sqrt(1.0 - mix) * det
                                    + np.sqrt(mix) * diffuse)
    return taps


def apply_channel(x, taps, basis=None):
    """Linear convolution y[k] = sum_l H[l] u[k-l], zero history before k=0.

    Only the delay lines with a nonzero tap enter the product and the
    shifted adds, in ascending line order; an all-zero line adds nothing.

    :param x: (n, n_samples) frame
    :param taps: (L, n_rx, n_tx) tap stack
    :param basis: optional samplewise map of x's columns to n_tx rows, such
        as build_augmented_vector; u = basis(x), built per block. Without it
        u = x and n = n_tx.
    :returns: (n_rx, n_samples) frame (tail beyond the frame is dropped)
    """
    x = np.atleast_2d(np.asarray(x))
    n_lines, n_rx, n_tx = taps.shape
    n_samp = x.shape[1]
    lines = np.flatnonzero(np.any(taps != 0, axis=(1, 2))).tolist()
    if not lines:
        return np.zeros((n_rx, n_samp), dtype=complex)
    rows = lines
    if len(lines) * n_rx == 1 < n_lines:
        # a one-row product runs as a matrix-vector product, which rounds
        # unlike the dense stack's matrix product: carry one zero line along
        rows = lines + [0 if lines[0] else 1]
    stacked = taps if len(lines) == n_lines else taps[rows]  # dense: no copy
    stacked = stacked.reshape(len(rows) * n_rx, n_tx)
    y = np.empty((n_rx, n_samp), dtype=complex)
    y[:, :lines[0]] = 0.0                  # no tapped line reaches them yet
    # the product spans the whole stack's history, trailing zero lines
    # included: its column count, and so its rounding, stays that of the
    # dense stack
    buf = np.empty((len(stacked), min(BLOCK + n_lines - 1, n_samp)), complex)
    for k0 in range(0, n_samp, BLOCK):
        k1 = min(k0 + BLOCK, n_samp)
        h0 = max(k0 - n_lines + 1, 0)      # oldest input the block reaches
        u = x[:, h0:k1] if basis is None else basis(x[:, h0:k1])
        p = np.matmul(stacked, u, out=buf[:, :k1 - h0])
        p = p.reshape(len(rows), n_rx, k1 - h0)
        for i, l in enumerate(lines):
            lo = max(k0, l)                # first output with x[k-l] in frame
            if lo >= k1:
                break
            if i == 0:
                y[:, lo:k1] = p[0, :, lo - l - h0:k1 - l - h0]
            else:
                y[:, lo:k1] += p[i, :, lo - l - h0:k1 - l - h0]
    return y


def to_freq(taps, nc):
    """Per-subcarrier responses: (nc, n_rx, n_tx), H_n = sum_l H[l] W^(ln).

    Unnormalized DFT over the tap axis, so a single delay-0 tap gives a flat
    response equal to that tap on every bin.
    """
    if taps.shape[0] > nc:
        raise ValueError("channel is longer than the FFT size")
    return np.fft.fft(taps, n=nc, axis=0)


def estimate_with_mse(taps, mse_db, gen):
    """Imperfect CSI: add per-tap white estimation error at a relative MSE.

    mse_db = None returns an exact copy (ideal knowledge). Otherwise each
    tap gets iid complex Gaussian error with variance 10^(mse_db/10) times
    that tap's mean entry power; zero taps stay exactly zero.
    """
    taps = taps.copy()
    if mse_db is not None:
        rel = db_to_linear(mse_db)
        for l in range(taps.shape[0]):
            p = np.mean(np.abs(taps[l]) ** 2)
            if p > 0:
                taps[l] += complex_normal(gen, taps[l].shape, var=rel * p)
    return taps
