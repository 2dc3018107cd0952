"""Multi-tap analog self-interference canceller.

Hardware model: per delay line, a binary MUX picks one TX chain per tap, a
complex attenuator/phase-shifter weights it, and a binary DEMUX sums each tap
into one RX chain. The per-delay cancellation matrix is therefore
C[l] = DEMUX[l] @ diag(w[l]) @ MUX[l], and the canceller output
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
    """Structural canceller: one (mux, taps, demux) triple per delay line."""
    mux: list        # per line: (m_l, n_tx) binary, rows sum to 1
    taps: list       # per line: (m_l,) complex weights
    demux: list      # per line: (n_rx, m_l) binary, columns sum to 1
    n_rx: int
    n_tx: int
    attenuation_step_db: float = 0.02
    phase_step_deg: float = 0.13

    @property
    def n_taps(self):
        return sum(len(t) for t in self.taps)

    def matrices(self):
        """Dense (L, n_rx, n_tx) stack C[l] = demux[l] diag(taps[l]) mux[l]."""
        out = np.zeros((len(self.taps), self.n_rx, self.n_tx), dtype=complex)
        for l, (m, w, d) in enumerate(zip(self.mux, self.taps, self.demux)):
            if len(w):
                out[l] = d @ (w[:, None] * m)
        return out

    def validate(self):
        for l, (m, w, d) in enumerate(zip(self.mux, self.taps, self.demux)):
            if len(w) == 0:
                continue
            if m.shape != (len(w), self.n_tx) or d.shape != (self.n_rx, len(w)):
                raise ConfigError(f"inconsistent routing shapes at delay {l}")
            ok_m = np.all(np.isin(m, (0, 1))) and np.all(m.sum(axis=1) == 1)
            ok_d = np.all(np.isin(d, (0, 1))) and np.all(d.sum(axis=0) == 1)
            if not (ok_m and ok_d):
                raise ConfigError(f"invalid MUX/DEMUX routing at delay {l}")
        return self


def build_canceller(est, n_taps, greedy=False,
                    attenuation_step_db=0.02, phase_step_deg=0.13):
    """Allocate n_taps canceller taps against the estimated SI taps est.

    Default order is delay-major: earliest delay line first (skipping lines
    with no estimated energy), TX column by column within a line. greedy=True
    instead ranks all (delay, rx, tx) entries by estimated magnitude.
    Tap values are the negated channel entries.
    """
    n_lines, n_rx, n_tx = est.shape
    active = [l for l in range(n_lines) if np.any(est[l] != 0)]
    budget = n_rx * n_tx * max(len(active), 1)
    if not (1 <= n_taps <= budget):
        raise ConfigError(f"n_taps must be in [1, {budget}] for this channel")

    if greedy:
        mags = np.array([np.abs(est[l]) for l in active])  # (n_active, rx, tx)
        order = np.argsort(-mags.ravel(), kind="stable")[:n_taps]
        picks = [np.unravel_index(k, mags.shape) for k in order]
        picks = [(active[al], j, i) for al, j, i in picks]
    else:
        picks = []
        for l in active:
            room = min(n_rx * n_tx, n_taps - len(picks))
            for t in range(room):
                i, j = t // n_rx, t % n_rx
                picks.append((l, j, i))
            if len(picks) == n_taps:
                break

    mux = [np.zeros((0, n_tx))] * n_lines
    taps = [np.zeros(0, dtype=complex)] * n_lines
    demux = [np.zeros((n_rx, 0))] * n_lines
    for l in range(n_lines):
        here = [(j, i) for (pl, j, i) in picks if pl == l]
        if not here:
            continue
        m = np.zeros((len(here), n_tx))
        d = np.zeros((n_rx, len(here)))
        w = np.zeros(len(here), dtype=complex)
        for r, (j, i) in enumerate(here):
            m[r, i] = 1.0
            d[j, r] = 1.0
            w[r] = -est[l, j, i]
        mux[l], taps[l], demux[l] = m, w, d
    cfg = AnalogCancellerConfig(mux, taps, demux, n_rx, n_tx,
                                attenuation_step_db, phase_step_deg)
    return cfg.validate()


def quantize_taps(cfg, gen):
    """Impose hardware resolution on the tap weights.

    Magnitudes snap to the attenuation grid (attenuation_step_db); phases
    pick up a uniform random error of +- phase_step_deg / 2 (half a phase
    step). Zero step sizes leave the respective part untouched.
    """
    new_taps = []
    half_rad = np.deg2rad(cfg.phase_step_deg / 2.0)
    for w in cfg.taps:
        w = w.copy()
        nz = w != 0
        if np.any(nz):
            mag = np.abs(w[nz])
            if cfg.attenuation_step_db > 0:
                mag_db = 20.0 * np.log10(mag)
                mag = 10.0 ** (np.round(mag_db / cfg.attenuation_step_db)
                               * cfg.attenuation_step_db / 20.0)
            ph = np.angle(w[nz])
            if cfg.phase_step_deg > 0:
                ph = ph + gen.uniform(-half_rad, half_rad, size=ph.shape)
            w[nz] = mag * np.exp(1j * ph)
        new_taps.append(w)
    return replace(cfg, taps=new_taps)

