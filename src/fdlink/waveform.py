"""OFDM waveform generation and demodulation with 16-QAM payloads.

Frames are (n_antennas, n_samples) complex arrays at baseband. Subcarrier
symbol blocks are (n_symbols, nc, d) with exact zeros on the null bins.
The DFTs are unitary, so per-subcarrier and time-domain powers agree.
Reductions over a frame take it a few rows at a time (row_blocks), so a
long frame needs no frame-sized temporaries.
"""

import numpy as np

from . import numerics

# unit-average-power 16-QAM levels per rail
_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)

# samples per pass of a row-blocked reduction: a wifi20 frame is one block,
# an lte20 or nr100 frame one antenna per block
ROW_BLOCK = 1 << 15


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


def ofdm_modulate(s, v, cp_len, data_idx=None):
    """Precode, inverse-DFT and prepend cyclic prefixes.

    :param s: (n_symbols, nc, d) subcarrier symbols
    :param v: (nc, n_tx, d) per-subcarrier precoders, or with data_idx
        (len(data_idx), n_tx, d) precoders of the data bins data_idx; the
        other bins carry nothing
    :param cp_len: cyclic prefix length in samples
    :returns: (n_tx, n_symbols * (nc + cp_len)) time frame
    """
    s = np.asarray(s)
    # a contiguous precoder keeps each bin's product on the BLAS path
    v = np.ascontiguousarray(v)
    if (s.ndim != 3 or v.ndim != 3 or s.shape[2] != v.shape[2] or len(v)
            != (s.shape[1] if data_idx is None else len(data_idx))):
        raise ValueError("symbol block and precoder shapes do not agree")
    n_sym, nc, _ = s.shape
    n_tx = v.shape[1]
    bins = np.arange(nc) if data_idx is None else np.asarray(data_idx)
    xf = np.zeros((n_tx, n_sym, nc), dtype=complex)
    # each run of consecutive bins is precoded through views of s and xf
    cuts = (np.flatnonzero(np.diff(bins) != 1) + 1).tolist()
    for i, j in zip([0] + cuts, cuts + [len(bins)]):
        run = slice(bins[i], bins[j - 1] + 1)
        xf[:, :, run] = (v[i:j] @ s[:, run].transpose(1, 2, 0)).transpose(
            1, 2, 0)
    xt = numerics.ifft(xf)                 # (n_tx, n_sym, nc)
    del xf
    if not cp_len:
        return xt.reshape(n_tx, -1)
    frame = np.empty((n_tx, n_sym, nc + cp_len), dtype=complex)
    frame[:, :, cp_len:] = xt
    frame[:, :, :cp_len] = xt[:, :, nc - cp_len:]
    return frame.reshape(n_tx, -1)


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


def row_blocks(y):
    """Slices of y's rows, in order, of at most ROW_BLOCK samples each; a
    row longer than that is a block of its own."""
    n_rows, n_cols = y.shape
    step = max(1, ROW_BLOCK // max(n_cols, 1))
    return [slice(r, min(r + step, n_rows)) for r in range(0, n_rows, step)]


def frame_power(y):
    """Time-averaged power per antenna, watts: (n_rx,).

    Each row's mean is taken on its own, as a mean over the whole array
    along axis 1 takes it, so the blocks change no bit.
    """
    y = np.atleast_2d(np.asarray(y))
    out = np.empty(len(y))
    for rows in row_blocks(y):
        p = np.abs(y[rows])
        np.square(p, out=p)
        out[rows] = np.mean(p, axis=1)
    return out
