"""OFDM waveform generation and demodulation with 16-QAM payloads.

Frames are (n_antennas, n_samples) complex arrays at baseband. Symbol
blocks hold the data bins only, (n_symbols, nd, d); the null bins exist
only inside ofdm_modulate, which precodes the data bins into the frame
and inverse-transforms it in place, and ofdm_demodulate, whose
(n_symbols, nc, n_rx) output data_bins cuts to the data bins. The DFTs
are unitary, so per-subcarrier and time-domain powers agree. Reductions
over a frame take it a few rows at a time (row_blocks), so a long frame
needs no frame-sized temporaries.
"""

import numpy as np

from . import numerics

# unit-average-power 16-QAM levels per rail
_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)

# samples per pass of a row-blocked reduction: a wifi20 frame is one block,
# an lte20 or nr100 frame one antenna per block
ROW_BLOCK = 1 << 15


def draw_symbols(gen, n_symbols, n_data, d):
    """iid uniform 16-QAM symbols (n_symbols, n_data, d) of the data bins:
    the Re levels are drawn first, then the Im levels."""
    shape = (n_symbols, n_data, d)
    s = np.empty(shape, dtype=complex)
    s.real = _QAM16_LEVELS[gen.integers(0, 4, size=shape)]
    s.imag = _QAM16_LEVELS[gen.integers(0, 4, size=shape)]
    return s


def ofdm_modulate(s, v, cp_len, bins=None):
    """Precode, inverse-DFT and prepend cyclic prefixes.

    :param s: (n_symbols, nc, d) subcarrier symbols, or with bins
        (n_symbols, len(data_idx), d) symbols of the data bins
    :param v: (nc, n_tx, d) per-subcarrier precoders, or with bins
        (len(data_idx), n_tx, d) precoders of the data bins
    :param cp_len: cyclic prefix length in samples
    :param bins: (nc, data_idx) when s and v hold only the data bins data_idx
        of an nc-point DFT; the other bins carry nothing
    :returns: (n_tx, n_symbols * (nc + cp_len)) time frame
    """
    s = np.asarray(s)
    # a contiguous precoder keeps each bin's product on the BLAS path
    v = np.ascontiguousarray(v)
    nc, idx = (len(v), np.arange(len(v))) if bins is None else bins
    if (s.ndim != 3 or v.ndim != 3 or s.shape[2] != v.shape[2]
            or s.shape[1] != len(v) or len(v) != len(idx)):
        raise ValueError("symbol block and precoder shapes do not agree")
    n_sym, n_tx = len(s), v.shape[1]
    frame = np.zeros((n_tx, n_sym, nc + cp_len), dtype=complex)
    body = frame[:, :, cp_len:]
    # each run of consecutive bins is precoded through views of s and the
    # frame's body, which the inverse DFT then overwrites in place
    cuts = (np.flatnonzero(np.diff(idx) != 1) + 1).tolist()
    for i, j in zip([0] + cuts, cuts + [len(idx)]):
        run = slice(idx[i], idx[j - 1] + 1)
        body[:, :, run] = (v[i:j] @ s[:, i:j].transpose(1, 2, 0)).transpose(
            1, 2, 0)
    numerics.ifft(body, out=body)
    frame[:, :, :cp_len] = frame[:, :, nc:]    # the body's last cp_len samples
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


def data_bins(y, nc, cp_len, data_idx):
    """The data bins data_idx of each OFDM symbol of y, (nd, n_rx, n_sym)."""
    return ofdm_demodulate(y, nc, cp_len)[:, data_idx, :].transpose(1, 2, 0)


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
