"""OFDM waveform generation and demodulation with 16-QAM payloads.

Frames are (n_antennas, n_samples) complex arrays at baseband. Subcarrier
symbol blocks are (n_symbols, nc, d) with exact zeros on the null bins.
The DFTs are unitary, so per-subcarrier and time-domain powers agree.
"""

import numpy as np

from . import numerics

# unit-average-power 16-QAM levels per rail
_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)


def map_qam16(gen, shape):
    """Draw iid uniform 16-QAM symbols of the given shape."""
    re = _QAM16_LEVELS[gen.integers(0, 4, size=shape)]
    im = _QAM16_LEVELS[gen.integers(0, 4, size=shape)]
    return re + 1j * im


def draw_symbols(gen, n_symbols, nc, data_idx, d):
    """16-QAM subcarrier block (n_symbols, nc, d), zeros on null bins."""
    s = np.zeros((n_symbols, nc, d), dtype=complex)
    s[:, data_idx, :] = map_qam16(gen, (n_symbols, len(data_idx), d))
    return s


def full_bins(nc, data_idx, per_bin):
    """Scatter per-data-bin values (nd, ...) into all nc bins, zero elsewhere."""
    out = np.zeros((nc,) + per_bin.shape[1:], dtype=complex)
    out[data_idx] = per_bin
    return out


def ofdm_modulate(s, v, cp_len):
    """Precode, inverse-DFT and prepend cyclic prefixes.

    :param s: (n_symbols, nc, d) subcarrier symbols
    :param v: (nc, n_tx, d) per-subcarrier precoders
    :param cp_len: cyclic prefix length in samples
    :returns: (n_tx, n_symbols * (nc + cp_len)) time frame
    """
    s = np.asarray(s)
    v = np.asarray(v)
    if s.ndim != 3 or v.ndim != 3 or s.shape[1] != v.shape[0] or s.shape[2] != v.shape[2]:
        raise ValueError("symbol block and precoder shapes do not agree")
    xf = (v @ s.transpose(1, 2, 0)).transpose(1, 2, 0)   # (n_tx, n_sym, nc)
    xt = numerics.ifft(np.ascontiguousarray(xf))
    if cp_len:
        xt = np.concatenate([xt[..., -cp_len:], xt], axis=-1)
    return xt.reshape(xt.shape[0], -1)


def ofdm_demodulate(y, nc, cp_len):
    """Strip cyclic prefixes and DFT each symbol.

    :param y: (n_rx, n_samples) time frame, n_samples a multiple of nc+cp_len
    :returns: (n_symbols, nc, n_rx) subcarrier observations
    """
    y = np.atleast_2d(np.asarray(y))
    sym_len = nc + cp_len
    n_rx, n_samp = y.shape
    if n_samp == 0 or n_samp % sym_len:
        raise ValueError(f"frame length {n_samp} is not a multiple of {sym_len}")
    blocks = y.reshape(n_rx, n_samp // sym_len, sym_len)[:, :, cp_len:]
    yf = numerics.fft(blocks, axis=2)             # (n_rx, n_sym, nc)
    return yf.transpose(1, 2, 0)


def frame_power(y):
    """Time-averaged power per antenna, watts: (n_rx,)."""
    y = np.atleast_2d(np.asarray(y))
    return np.mean(np.abs(y) ** 2, axis=1)
