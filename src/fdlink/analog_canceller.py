"""Multi-tap analog self-interference canceller.

Hardware model: a tap is (line, rx, tx, w). Its MUX setting picks TX chain
tx, the signal runs through sample-spaced delay line `line`, a complex
attenuator/phase-shifter weights it by w, and its DEMUX setting sums it into
RX chain rx. The per-delay cancellation matrix C[l] therefore holds w at
(rx, tx) for each tap on line l, and the canceller output
sum_l C[l] x_tilde[k-l] is added to the received signal ahead of the LNA/ADC,
operating on the impaired transmit signal (so it cancels the nonlinear SI
energy it can see, not just the linear part).

Taps are loaded with the negated estimated SI channel entries, delay line by
delay line, each line filled column by column (TX-major) until the budget
runs out.
"""

from dataclasses import dataclass, replace

import numpy as np

from .config_units import ConfigError


@dataclass
class AnalogCancellerConfig:
    """Tap list ordered by delay line: tap k routes TX chain tx[k] through
    delay line line[k], weighted by w[k], into RX chain rx[k]."""
    line: np.ndarray     # (n_taps,) int, non-decreasing
    rx: np.ndarray       # (n_taps,) int
    tx: np.ndarray       # (n_taps,) int
    w: np.ndarray        # (n_taps,) complex
    shape: tuple         # (L, n_rx, n_tx) of the SI channel

    def matrices(self):
        """Dense (L, n_rx, n_tx) stack C[l]; untapped entries are zero."""
        out = np.zeros(self.shape, dtype=complex)
        out[self.line, self.rx, self.tx] = self.w
        return out


def build_canceller(est, n_taps, greedy=False):
    """Allocate n_taps canceller taps against the estimated SI taps est.

    Default order is delay-major: earliest delay line first (skipping lines
    with no estimated energy), TX column by column within a line. greedy=True
    instead ranks all (delay, rx, tx) entries by estimated magnitude; taps
    are then grouped by line, keeping magnitude order within a line.
    Tap values are the negated channel entries.
    """
    _, n_rx, n_tx = est.shape
    active = np.flatnonzero(np.any(est != 0, axis=(1, 2)))
    per_line = n_rx * n_tx
    budget = per_line * max(len(active), 1)
    if not (1 <= n_taps <= budget):
        raise ConfigError(f"n_taps must be in [1, {budget}] for this channel")

    if greedy:
        k = np.argsort(-np.abs(est[active]).ravel(), kind="stable")[:n_taps]
        k = k[np.argsort(k // per_line, kind="stable")]
        al, rx, tx = np.unravel_index(k, (len(active), n_rx, n_tx))
    else:
        # an estimate with no active line gets no taps
        al, t = np.divmod(np.arange(min(n_taps, len(active) * per_line)),
                          per_line)
        tx, rx = np.divmod(t, n_rx)
    line = active[al]
    return AnalogCancellerConfig(line, rx, tx,
                                 -est[line, rx, tx].astype(complex), est.shape)


def quantize_taps(canc, gen, attenuation_step_db, phase_step_deg):
    """Impose hardware resolution on the tap weights.

    Magnitudes snap to the attenuation grid (attenuation_step_db); phases
    pick up a uniform random error of +- phase_step_deg / 2 (half a phase
    step), drawn for the nonzero weights in tap order. Zero step sizes
    leave the respective part untouched.
    """
    w = canc.w.copy()
    nz = w != 0
    mag = np.abs(w[nz])
    if attenuation_step_db > 0:
        mag_db = 20.0 * np.log10(mag)
        mag = 10.0 ** (np.round(mag_db / attenuation_step_db)
                       * attenuation_step_db / 20.0)
    ph = np.angle(w[nz])
    if phase_step_deg > 0:
        half_rad = np.deg2rad(phase_step_deg / 2.0)
        ph = ph + gen.uniform(-half_rad, half_rad, size=ph.shape)
    w[nz] = mag * np.exp(1j * ph)
    return replace(canc, w=w)
