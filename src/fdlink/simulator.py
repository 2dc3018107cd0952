"""Monte Carlo link simulator for the three-node full-duplex scenario.

`run_frame` runs one coherence block as a list of stage calls: channels and
CSI, the analog canceller, the uplink, the downlink beamformer under the RF
saturation constraint with one continuous frame (canceller training symbols
with the uplink muted, then payload) and its SI, the analog metrics, the ADC
and the digital canceller with its shadow metrics, and the rates against a
half-duplex baseline. Each stage draws from its own child stream, and `stages`
stops the chain after the analog or the digital metrics. Runs are
deterministic in (seed, sweep point, run index) and embarrassingly parallel.

Lifetime rule: a frame-long array is made, reduced to what later stages read
of it (a covariance, a power, a PSD, a rate, or a sum taken in place into
another frame array) and freed in one stage. The uplink is muted over the
training window, so it is built as payload only, and a `digital` frame
quantizes only the training window. The SI frame is reduced to its power and
PSD and freed before the residual-plus-noise frame is made. An `analog` frame
peaks in the SI convolutions, a `digital` frame at the PSD of the SI frame
plus noise (where the transmit, SI, residual SI, noise and uplink frames
coexist) or in the digital fit's normal equations, and a `full` frame after
the digital fit. Each stage has its own stream and every sum keeps its
operand order, so the order of the work changes no number.
"""

import collections
import contextlib
import csv
import multiprocessing
import os
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import numerics
from .config_units import (Rng, SystemConfig, ConfigError, check_int,
                           complex_normal, dbm_to_linear, linear_to_db,
                           linear_to_dbm, preset)
from .waveform import (draw_symbols, frame_power, ofdm_modulate,
                       ofdm_demodulate, row_blocks)
from .impairments import (adc_full_scale, adc_quantize,
                          build_augmented_vector, check_saturation,
                          derive_gain_matrices, make_impairment_model,
                          tx_chain)
from .channel import (apply_channel, estimate_with_mse, gen_rayleigh,
                      gen_rician_si, to_freq)
from .analog_canceller import build_canceller, quantize_taps
from .beamforming import (bin_cov, cov_through, rate_bits, residual_si_cov,
                          solve_dl, ul_combiner, ul_precoder)
# build_design_matrix, tsvd_estimate: unused, but perfbench/bench.py wraps them
from .digital_canceller import (build_design_matrix, cancel_signal,
                                linear_basis_mask, normal_equations,
                                tsvd_estimate, tsvd_fit)

STAGES = ("analog", "digital", "full")


@dataclass
class MetricsRecord:
    run_id: int
    sweep_point: str
    p_saturation: int
    alpha: int
    tsvd_rank: float = np.nan
    residual_si_dbm: float = np.nan
    analog_supp_db: float = np.nan
    digital_supp_db: float = np.nan
    linear_supp_db: float = np.nan
    total_supp_db: float = np.nan
    isr_db: float = np.nan
    dl_rate: float = np.nan
    ul_rate: float = np.nan
    fd_rate: float = np.nan
    hd_rate: float = np.nan
    # spectra in watts per bin (not serialized into the runs CSV)
    psd_before: np.ndarray | None = None
    psd_analog: np.ndarray | None = None
    psd_digital: np.ndarray | None = None
    psd_noise: np.ndarray | None = None


CSV_FIELDS = [f.name for f in fields(MetricsRecord) if not f.name.startswith("psd_")]
METRIC_FIELDS = [n for n in CSV_FIELDS if n not in ("run_id", "sweep_point")]


def compute_psd(frames, nc, cp_len):
    """Averaged periodogram over OFDM-symbol windows, watts per bin.

    Cyclic prefixes are stripped, each body is DFT'd (unitary), and |Y|^2 is
    averaged over symbols and antennas then divided by nc, so white noise of
    power sigma^2 reads sigma^2/nc per bin and the bin sum equals the
    time-domain power.

    The frame is taken a block of antennas at a time. Each block's |Y|^2
    fills the rows after row 0 of one buffer, and row 0 carries the running
    sum, so a reduction down the buffer adds the terms in the order, antenna
    then symbol, and so to the bits, of one mean over the whole frame. The
    result outlives the frame in its record, so it is allocated before the
    buffers: made after them, it can land where a later frame's arrays
    would, and the kept heap (numerics.keep_heap) grows around it.
    """
    frames = np.atleast_2d(np.asarray(frames))
    out = np.empty(nc)
    blocks = row_blocks(frames)
    n_sym = frames.shape[1] // (nc + cp_len)
    buf = np.zeros((1 + (blocks[0].stop - blocks[0].start) * n_sym, nc))
    for rows in blocks:
        # back to the (antenna, symbol, bin) layout the DFT wrote
        yf = ofdm_demodulate(frames[rows], nc, cp_len).transpose(2, 0, 1)
        end = 1 + yf.shape[0] * n_sym
        p = buf[1:end].reshape(yf.shape)
        np.abs(yf, out=p)
        del yf                         # before the next block's DFT
        np.square(p, out=p)
        buf[0] = np.add.reduce(buf[:end], axis=0)
    np.divide(buf[0], len(frames) * n_sym, out=out)
    return np.divide(out, nc, out=out)


def _per_antenna_db(p_num, p_den):
    return float(np.mean(linear_to_db(p_num / p_den)))


def _data_bins(cfg, frames):
    """The data bins of each OFDM symbol of frames, (nd, n, sym)."""
    yf = ofdm_demodulate(frames, cfg.nc, cfg.cp_len)[:, cfg.data_idx, :]
    return yf.transpose(1, 2, 0)


def _measured_rate(cfg, y_frames, u, s):
    """Mean data-bin rate of the symbols s (sym, nc, d) received as y_frames
    and combined by u (nd, n_rx, d), with empirical combined-domain IpN.

    The per-bin effective channel is refit from the payload by least
    squares (the demod reference a receiver would estimate from the
    frame), so raw CSI error does not masquerade as interference.
    """
    s_known = s[:, cfg.data_idx, :].transpose(1, 2, 0)     # (nd, d, sym)
    comb = numerics.herm(u) @ _data_bins(cfg, y_frames)     # U^H y
    cross = comb @ numerics.herm(s_known)
    gram = s_known @ numerics.herm(s_known)
    try:
        s_mat = numerics.herm(np.linalg.solve(numerics.herm(gram),
                                              numerics.herm(cross)))
    except np.linalg.LinAlgError as exc:
        raise numerics.NumericalError("payload too short to fit the demod "
                                      f"reference: {exc}") from None
    err = comb - s_mat @ s_known
    return float(np.mean(rate_bits(s_mat, bin_cov(err))))


def _channels(cfg, rng):
    """Draw the SI, downlink and uplink channels and their CSI estimates."""
    g_ch, g_est = rng.child(0).generator, rng.child(1).generator
    h_si = gen_rician_si(g_ch, cfg.n_rx_b, cfg.n_tx_b, cfg.si_delay_samples,
                         cfg.si_losses_db, cfg.k_direct_db)
    h_dl = gen_rayleigh(g_ch, cfg.n_rx_m1, cfg.n_tx_b, cfg.l_dl,
                        cfg.pathloss_dl_db, cfg.delay_profile)
    h_ul = gen_rayleigh(g_ch, cfg.n_rx_b, cfg.n_tx_m2, cfg.l_ul,
                        cfg.pathloss_ul_db, cfg.delay_profile)
    est = [estimate_with_mse(h, cfg.channel_mse_db, g_est)
           for h in (h_si, h_dl, h_ul)]
    return (h_si, h_dl, h_ul), est


def _analog_canceller(cfg, est_si, rng):
    """Tap the estimated SI channel, quantized; returns the tap stack."""
    canc = quantize_taps(build_canceller(est_si, cfg.n_taps, cfg.greedy_taps),
                         rng.child(2).generator, cfg.attenuation_step_db,
                         cfg.phase_step_deg)
    return canc.matrices()


def _precoded_frame(cfg, gen, n_symbols, v):
    """n_symbols OFDM symbols of v.shape[2] streams drawn from gen, precoded
    by the data-bin precoder v and modulated; returns (symbols, frame)."""
    s = draw_symbols(gen, n_symbols, cfg.nc, cfg.data_idx, v.shape[2])
    return s, ofdm_modulate(s, v, cfg.cp_len, cfg.data_idx)


def _uplink(cfg, model, est_ul, h_ul, rng, rates):
    """The uplink payload received at the node; the uplink is muted over the
    training window, so only the payload is modulated, distorted and sent.
    Returns (ul_rx, ul). With rates, ul holds what the uplink rates read:
    the effective data-bin channel estimate, the symbols, and the
    covariance of the uplink TX distortion seen through the estimate; else
    it is None."""
    h_ul_est = to_freq(est_ul, cfg.nc)[cfg.data_idx]
    g1_m2 = np.sqrt(dbm_to_linear(cfg.p_m2_dbm) / cfg.n_tx_m2)
    v_m2 = ul_precoder(h_ul_est, cfg.ul_streams)
    s_m2, x_m2 = _precoded_frame(cfg, rng.child(5).generator,
                                 cfg.frame_symbols, v_m2)
    xt_m2, z_m2 = tx_chain(x_m2, derive_gain_matrices(model, g1_m2))
    del x_m2
    ul = ((h_ul_est @ (g1_m2 * v_m2), s_m2,
           cov_through(h_ul_est, _data_bins(cfg, z_m2))) if rates else None)
    del z_m2, s_m2
    return apply_channel(xt_m2, h_ul), ul


class Downlink(NamedTuple):
    """What the metrics and the rates read of the node's downlink."""
    alpha: int                  # stream count
    gains: object               # the node's impairments.GainMatrices
    h_dl_est: np.ndarray        # (nd, n_rx_m1, n_tx_b) estimated downlink
    si_cov: np.ndarray | None   # residual SI covariance, with rates
    dl_rate: float              # nan without rates


def _transmit(cfg, model, h_si, h_dl, est_si, est_dl, c_mats, rng, rates):
    """The node's beamformer under the RF saturation constraint, its frame
    through the TX chain, and that frame through the SI channel and the
    analog canceller; returns (Downlink, x_b, si_rx, si_res). The residual
    SI covariance and the downlink rate free their frames before the SI
    frames are made."""
    nc, data = cfg.nc, cfg.data_idx
    pay = slice(cfg.train_symbols * (nc + cfg.cp_len), None)
    h_si_eff = (to_freq(est_si, nc) + to_freq(c_mats, nc))[data]
    h_dl_est = to_freq(est_dl, nc)[data]
    g1_b = np.sqrt(dbm_to_linear(cfg.p_b_dbm) / cfg.n_tx_b)
    gains_b = derive_gain_matrices(model, g1_b)
    dl = solve_dl(h_si_eff, h_dl_est, gains_b, g1_b, cfg.lambda_b_w,
                  nc, data, cfg.cp_len, rng.child(3).generator,
                  alpha_cap=cfg.dl_streams)
    s_b, x_b = _precoded_frame(cfg, rng.child(4).generator,
                               cfg.train_symbols + cfg.frame_symbols, dl.v)
    xt_b, z_b = tx_chain(x_b, gains_b)
    si_cov = (residual_si_cov(h_si_eff, g1_b * dl.v,
                              _data_bins(cfg, z_b[:, pay])) if rates else None)
    del z_b
    dl_rate = (_dl_rate(cfg, xt_b, h_dl, dl.u, s_b[cfg.train_symbols:],
                        rng.child(7).generator) if rates else np.nan)
    del s_b
    si_rx = apply_channel(xt_b, h_si)
    si_res = apply_channel(xt_b, c_mats)
    np.add(si_rx, si_res, out=si_res)
    return (Downlink(dl.alpha, gains_b, h_dl_est, si_cov, dl_rate), x_b, si_rx,
            si_res)


def _adc(cfg, y, cols=slice(None)):
    """Quantize the columns cols of y on the configured ADC; the auto-range
    rail is set from all of y."""
    return adc_quantize(y[:, cols], cfg.adc_bits, adc_full_scale(
        y, cfg.adc_full_scale_dbm, cfg.adc_auto_range))


def _dl_rate(cfg, xt, h_dl, u, s, gen):
    """Downlink rate of the frame xt whose last symbols carry s (sym, nc, d),
    received with noise from gen and combined by u."""
    y_m1 = apply_channel(xt, h_dl)
    y_m1 += complex_normal(gen, (cfg.n_rx_m1, xt.shape[1]), cfg.sigma_m1_w)
    n_pay = len(s) * (cfg.nc + cfg.cp_len)
    return _measured_rate(cfg, y_m1[:, -n_pay:], u, s)


def _digital_cancel(cfg, x_b, y_train):
    """Fit the digital canceller on the training window, with all monomials
    and with the linear taps only; returns each fit's payload correction and
    the full fit's TSVD rank."""
    n_train = y_train.shape[1]
    g, c = normal_equations(build_augmented_vector(x_b[:, :n_train]),
                            y_train, cfg.l_si)
    state = tsvd_fit(g, c, y_train, cfg.sigma_b_w)
    # only the payload is read past here; the filter reaches l_si - 1 back
    hist = max(n_train - cfg.l_si + 1, 0)
    d_corr = cancel_signal(state, x_b[:, hist:],
                           build_augmented_vector)[:, n_train - hist:]
    lin = linear_basis_mask(cfg.n_tx_b, cfg.l_si)
    state_lin = tsvd_fit(g[np.ix_(lin, lin)], c[:, lin], y_train,
                         cfg.sigma_b_w)
    d_lin = cancel_signal(state_lin, x_b[:, hist:])[:, n_train - hist:]
    return d_corr, d_lin, float(state.rank_used)


def _shadow(cfg, rec, mid, d_corr, d_lin, p_before, p_mid, p_si):
    """Fill rec's digital metrics from the SI-only payload mid corrected by
    each fit, summed in place into d_corr and d_lin. This shadow frame mutes
    the uplink, to isolate cancellation depth, and is kept unquantized on
    purpose: re-quantizing it against a rail chosen for the composite signal
    adds clip artifacts that belong to the live path, not to the canceller
    under measurement."""
    after = np.add(mid, d_corr, out=d_corr)
    p_after = frame_power(after)
    rec.digital_supp_db = _per_antenna_db(p_mid, p_after)
    rec.total_supp_db = _per_antenna_db(p_before, p_after)
    rec.isr_db = float(linear_to_db(np.sum(p_after) / np.sum(p_si)))
    rec.psd_digital = compute_psd(after, cfg.nc, cfg.cp_len)
    # linear-taps-only baseline canceller on the same training data
    after_lin = np.add(mid, d_lin, out=d_lin)
    rec.linear_supp_db = _per_antenna_db(p_mid, frame_power(after_lin))


def _rates(cfg, rec, tx, ul, h_dl, y_ul, ul_pay, d_cov, rng):
    """Fill rec's rates. The uplink combiner whitens y_ul against the sum, in
    this order, of residual SI, uplink TX distortion, the digital correction
    and noise. The half-duplex baseline gives each link half the time:
    unconstrained downlink eigenbeamforming at full stream count, and the
    uplink payload ul_pay without the node's transmitter."""
    heff, s_m2, ul_dist = ul
    noise_cov = cfg.sigma_b_w * np.eye(cfg.n_rx_b)
    g_hd = rng.child(8).generator
    a_hd = cfg.dl_streams
    uh, _, vh = numerics.svd(tx.h_dl_est)
    s_hd, x_hd = _precoded_frame(cfg, g_hd, cfg.frame_symbols, vh[:, :, :a_hd])
    xt_hd, _ = tx_chain(x_hd, tx.gains)
    del x_hd
    dl_hd = _dl_rate(cfg, xt_hd, h_dl, uh[:, :, :a_hd], s_hd, g_hd)
    ul_hd = _measured_rate(cfg, _adc(cfg, ul_pay),
                           ul_combiner(heff, ul_dist + noise_cov), s_m2)
    rec.hd_rate = 0.5 * (dl_hd + ul_hd)
    ipn = tx.si_cov + ul_dist + d_cov + noise_cov
    rec.ul_rate = _measured_rate(cfg, y_ul, ul_combiner(heff, ipn), s_m2)
    rec.fd_rate = rec.dl_rate + rec.ul_rate


def run_frame(cfg, rng, stages="full", run_id=0, sweep_point=""):
    """Simulate one coherence block and return its MetricsRecord."""
    if stages not in STAGES:
        raise ConfigError(f"stages must be one of {STAGES}")
    nc, cp = cfg.nc, cfg.cp_len
    n_train = cfg.train_symbols * (nc + cp)
    pay = slice(n_train, None)
    rates = stages == "full"

    (h_si, h_dl, h_ul), (est_si, est_dl, est_ul) = _channels(cfg, rng)
    c_mats = _analog_canceller(cfg, est_si, rng)
    model = make_impairment_model(cfg.irr_db, cfg.iip3_dbm,
                                  pa_gain_db=cfg.pa_gain_db)
    if stages != "analog":             # the analog stage reads no uplink
        ul_rx, ul = _uplink(cfg, model, est_ul, h_ul, rng, rates)
    tx, x_b, si_rx, si_res = _transmit(cfg, model, h_si, h_dl, est_si,
                                       est_dl, c_mats, rng, rates)
    noise_b = complex_normal(rng.child(6).generator, si_rx.shape, cfg.sigma_b_w)

    # --- analog-stage metrics (payload window, noise-inclusive) -----------
    if stages != "analog":             # isr_db's reference, before the noise
        p_si = frame_power(si_rx[:, pay])
    before = np.add(si_rx[:, pay], noise_b[:, pay], out=si_rx[:, pay])
    p_before = frame_power(before)
    psd_before = None if stages == "analog" else compute_psd(before, nc, cp)
    del si_rx, before                  # before mid is made
    p_res = frame_power(si_res[:, pay])
    mid = si_res[:, pay] + noise_b[:, pay]
    p_mid = frame_power(mid)
    rec = MetricsRecord(
        run_id=run_id, sweep_point=sweep_point, alpha=tx.alpha,
        p_saturation=int(np.any(check_saturation(p_res, cfg.lambda_b_w))),
        residual_si_dbm=float(np.max(linear_to_dbm(p_res))),
        analog_supp_db=_per_antenna_db(p_before, p_mid), dl_rate=tx.dl_rate,
        psd_before=psd_before)
    if stages == "analog":
        return rec
    rec.psd_analog = compute_psd(mid, nc, cp)
    rec.psd_noise = compute_psd(noise_b[:, pay], nc, cp)

    if rates:                          # the half-duplex uplink input
        ul_pay = ul_rx + noise_b[:, pay]
    # the live receive frame, summed in place: (si_res + ul_rx) + noise_b
    si_res[:, pay] += ul_rx
    si_res += noise_b
    del ul_rx, noise_b
    # only the uplink rate reads the payload past the ADC
    y_q = _adc(cfg, si_res, slice(None) if rates else slice(n_train))
    del si_res
    d_corr, d_lin, rec.tsvd_rank = _digital_cancel(cfg, x_b, y_q[:, :n_train])
    del x_b
    if rates:                          # before _shadow sums into d_corr
        d_cov = bin_cov(_data_bins(cfg, d_corr))
        np.add(y_q[:, pay], d_corr, out=y_q[:, pay])
    _shadow(cfg, rec, mid, d_corr, d_lin, p_before, p_mid, p_si)
    if stages == "digital":
        return rec
    del mid, d_corr, d_lin
    _rates(cfg, rec, tx, ul, h_dl, y_q[:, pay], ul_pay, d_cov, rng)
    return rec


# ---------------------------------------------------------------------------
# scenarios and Monte Carlo orchestration

def _clip(label):
    """A label for an error message: its repr, cut after 20 characters."""
    return repr(label) if len(label) <= 20 else f"{label[:20]!r}..."


@dataclass
class ScenarioSpec:
    """A named simulation campaign: a base config, the sweep points that
    override it, and the run count and seed of every point. Each point is
    resolved once, into `points`: its (label, config) pairs in sweep order."""
    name: str = "scenario"
    config: SystemConfig = field(default_factory=SystemConfig)
    sweep: list = field(default_factory=lambda: [{}])
    runs: int = 100
    seed: int = 1
    stages: str = "full"
    points: list = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.stages, str) or self.stages not in STAGES:
            raise ConfigError(f"stages must be one of {STAGES}")
        check_int("runs", self.runs, 1)
        check_int("seed", self.seed, 0)           # SeedSequence: >= 0
        if not (isinstance(self.sweep, list) and self.sweep
                and all(isinstance(p, dict) for p in self.sweep)):
            raise ConfigError("sweep must be a non-empty list of objects")
        self.points, names = [], []
        for point in self.sweep:
            label = self.point_label(point)
            try:                               # validates overrides eagerly
                cfg = self.config.override(
                    **{k: v for k, v in point.items() if k != "label"})
            except ConfigError as exc:
                raise ConfigError(f"sweep point {_clip(label)}: {exc}") from None
            name = _psd_file_name(label)
            if any(label == seen for seen, _ in self.points):
                raise ConfigError(f"sweep label {label!r} is not unique")
            # each label names a file in the output directory, so the check
            # runs before any frame does
            if any(c in name for c in "/\\\0"):
                raise ConfigError(f"sweep label {label!r} holds a path "
                                  "separator or a NUL")
            if len(name.encode()) > 255:       # NAME_MAX of common filesystems
                raise ConfigError(f"sweep label {_clip(label)} is too long "
                                  "for a file name")
            if name in names:
                raise ConfigError(
                    f"sweep labels {self.points[names.index(name)][0]!r} and "
                    f"{label!r} both write {name}")
            # the rate fit solves d unknowns per bin from the payload and
            # estimates a d x d residual covariance from the rest
            d = max(cfg.dl_streams, cfg.ul_streams)
            if self.stages == "full" and cfg.frame_symbols < 2 * d:
                raise ConfigError(
                    f"sweep point {label!r}: frame_symbols must be >= "
                    f"{2 * d} (2 per stream) for stages 'full'")
            self.points.append((label, cfg))
            names.append(name)

    def point_label(self, point):
        if "label" in point:
            return str(point["label"])
        if not point:
            return "base"
        return ",".join(f"{k}={point[k]}" for k in sorted(point))

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f.name for f in fields(cls) if f.init}
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        if "config" in d:
            d = {**d, "config": SystemConfig.from_dict(d["config"])}
        return cls(**d)


class RunFailure(NamedTuple):
    """A run that raised, recorded in place of its MetricsRecord."""
    label: str
    run_id: int
    message: str


@dataclass
class MonteCarloResult:
    spec: ScenarioSpec
    records: list                      # completed MetricsRecords
    failures: list                     # RunFailures

    @property
    def attempted(self):
        return len(self.records) + len(self.failures)

    def by_label(self, label):
        return [r for r in self.records if r.sweep_point == label]

    def aggregate(self):
        """{label: {metric: (mean, stderr, n)}} over finite values."""
        out = {}
        for label, _ in self.spec.points:
            recs = self.by_label(label)
            point = {}
            for name in METRIC_FIELDS:
                vals = np.array([getattr(r, name) for r in recs], dtype=float)
                vals = vals[np.isfinite(vals)]
                if len(vals) == 0:
                    continue
                stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) \
                    if len(vals) > 1 else 0.0
                point[name] = (float(np.mean(vals)), stderr, len(vals))
            out[label] = point
        return out

    def mean_psd(self, label, which="psd_digital"):
        arrs = [getattr(r, which) for r in self.by_label(label)
                if getattr(r, which) is not None]
        if not arrs:
            return None
        return np.mean(np.stack(arrs), axis=0)


def _mc_task(args):
    cfg, seed, point_idx, run_idx, stages, label = args
    rng = Rng(seed).child(point_idx, run_idx)
    try:
        return run_frame(cfg, rng, stages=stages, run_id=run_idx,
                         sweep_point=label)
    except Exception as exc:       # one bad run must not end the campaign
        return RunFailure(label, run_idx, f"{type(exc).__name__}: {exc}")


def _mc_worker(conn, tasks):
    """Run the tasks whose indices arrive on conn until None arrives."""
    numerics.keep_heap()
    for i in iter(conn.recv, None):
        conn.send(_mc_task(tasks[i]))


def _worker_died(task, exitcode):
    _, _, _, run_idx, _, label = task
    cause = f"signal {-exitcode}" if exitcode < 0 else f"exit code {exitcode}"
    return RunFailure(label, run_idx, f"WorkerDied: {cause}")


def _run_forked(tasks, workers):
    """Run tasks on at most `workers` forked workers, in task order.

    Each worker inherits `tasks` and is sent one task index at a time over
    its own pipe, so no task is pickled; only the results come back. A
    worker whose pipe reaches end of file before its result arrives has
    died: its task becomes a RunFailure naming the signal or exit code, and
    a fresh worker takes its place while tasks remain. No worker outlives
    the call, also when it raises.
    """
    # imported here, not with the module: the import takes about 6 ms
    from multiprocessing.connection import wait
    ctx = multiprocessing.get_context("fork")
    results = [None] * len(tasks)
    todo = collections.deque(range(len(tasks)))
    held = {}                      # busy worker's pipe end -> (worker, index)
    procs = []

    def assign(conn, proc):
        i = todo.popleft()
        held[conn] = (proc, i)
        with contextlib.suppress(OSError):   # a dead worker reads as EOF
            conn.send(i)

    try:
        while held or todo:
            while todo and len(held) < workers:
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_mc_worker, args=(child, tasks),
                                   daemon=True)
                proc.start()
                child.close()
                procs.append(proc)
                assign(conn, proc)
            for conn in wait(list(held)):
                proc, i = held.pop(conn)
                try:
                    results[i] = conn.recv()
                except (EOFError, OSError):           # the worker died
                    conn.close()
                    proc.join()
                    results[i] = _worker_died(tasks[i], proc.exitcode)
                    continue
                if todo:
                    assign(conn, proc)
                else:                    # no runs left: the worker may exit
                    with contextlib.suppress(OSError):
                        conn.send(None)
                    conn.close()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
            proc.join()
    return results


def monte_carlo(spec, workers=1):
    """Run a scenario; deterministic in (seed, sweep point, run index)."""
    check_int("workers", workers, 1)
    tasks = []
    for point_idx, (label, cfg) in enumerate(spec.points):
        tasks += [(cfg, spec.seed, point_idx, run_idx, spec.stages, label)
                  for run_idx in range(spec.runs)]
    # every frame runs at one BLAS thread, so the bytes depend neither on
    # workers nor on the core count; forked workers inherit the cap
    with numerics.blas_threads(1):
        if workers > 1:
            # numpy loads these on first use; loading them before the fork
            # spares every worker the import in its first frame
            import numpy.fft
            import numpy.random
            results = _run_forked(tasks, min(workers, len(tasks)))
        else:
            results = [_mc_task(t) for t in tasks]
    return MonteCarloResult(
        spec=spec,
        records=[r for r in results if not isinstance(r, RunFailure)],
        failures=[r for r in results if isinstance(r, RunFailure)])


# ---------------------------------------------------------------------------
# CSV output (deterministic bytes: fixed order, 9 significant digits, \n)

def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if np.isnan(v):
        return "nan"
    return f"{v:.9g}"


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path


def write_runs_csv(result, path):
    return _write_rows(path, CSV_FIELDS, (
        [r.sweep_point if n == "sweep_point" else _fmt(getattr(r, n))
         for n in CSV_FIELDS] for r in result.records))


def write_aggregate_csv(result, path):
    agg = result.aggregate()
    header = ["sweep_point", "metric", "mean", "stderr", "n"]
    return _write_rows(path, header, (
        [label, name, _fmt(mean), _fmt(err), n]
        for label, _ in result.spec.points
        for name, (mean, err, n) in agg[label].items()))


def write_curve_csv(path, x_name, xs, means, stderrs, ns):
    return _write_rows(path, [x_name, "mean", "stderr", "n"], (
        [_fmt(x), _fmt(mean), _fmt(err), int(n)]
        for x, mean, err, n in zip(xs, means, stderrs, ns)))


def write_psd_csv(path, psd_watts, cfg):
    """Plot-ready PSD: frequency-sorted bins in dBm."""
    freqs = np.fft.fftfreq(cfg.nc, d=cfg.sample_period_s)
    order = np.argsort(freqs, kind="stable")
    dbm = linear_to_dbm(np.asarray(psd_watts))
    return _write_rows(path, ["freq_hz", "psd_dbm"],
                       ([_fmt(freqs[i]), _fmt(dbm[i])] for i in order))


def curve_from_result(result, metric, x_key):
    """Extract (xs, means, stderrs, ns) for one metric across the sweep."""
    agg = result.aggregate()
    rows = [(point.get(x_key, np.nan), *agg[label][metric])
            for point, (label, _) in zip(result.spec.sweep, result.spec.points)
            if metric in agg[label]]
    return tuple(list(col) for col in zip(*rows)) or ([], [], [], [])


def _psd_file_name(label):
    """The file a sweep point's mean PSD is written to, from its label."""
    safe = label.replace("=", "-").replace(",", "_").replace(" ", "")
    return f"psd_{safe}.csv"


def write_scenario_outputs(result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    paths = [write_runs_csv(result, os.path.join(out_dir, "runs.csv")),
             write_aggregate_csv(result, os.path.join(out_dir, "aggregates.csv"))]
    for label, cfg in result.spec.points:    # each on its point's FFT grid
        psd = result.mean_psd(label)
        if psd is not None:
            paths.append(write_psd_csv(
                os.path.join(out_dir, _psd_file_name(label)), psd, cfg))
    return paths


# ---------------------------------------------------------------------------
# figure reproduction presets

POWER_SWEEP = (20.0, 25.0, 30.0, 35.0, 40.0)
FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")

_SINGLE_ANT = dict(n_rx_m1=1, n_tx_m2=1, d_b=1, d_m2=1)


def _power_points(**extra):
    return [dict(p_b_dbm=p, p_m2_dbm=p, **extra) for p in POWER_SWEEP]


def figure_scenarios(fig, runs=None):
    """ScenarioSpecs backing each reference figure, plus curve extraction
    hints as (scenario, metric, x_key, curve_name) tuples. runs=None keeps
    ScenarioSpec's default run count."""
    base = SystemConfig()
    single = base.override(**_SINGLE_ANT)
    items = []
    run_count = {} if runs is None else {"runs": runs}

    def spec(name, config, sweep, stages):
        return ScenarioSpec(name=name, config=config, sweep=sweep,
                            stages=stages, **run_count)

    if fig in ("fig3", "fig4"):
        users = single if fig == "fig3" else base
        for lc, taps in ((1, 16), (2, 32), (3, 48)):
            sc = spec(f"{fig}_lc{lc}", users.override(n_taps=taps),
                      _power_points(), "analog")
            items.append((sc, "p_saturation", "p_b_dbm", f"lc{lc}"))
    elif fig == "fig5":
        for ants, cfg in (("single", single), ("multi", base)):
            for lc, taps in ((2, 32), (3, 48)):
                sc = spec(f"fig5_{ants}_lc{lc}", cfg.override(n_taps=taps),
                          _power_points(), "full")
                items.append((sc, "dl_rate", "p_b_dbm", f"{ants}_lc{lc}"))
    elif fig == "fig6":
        sweep = [dict(train_symbols=t) for t in (1, 2, 4, 8, 16)]
        sc = spec("fig6", base, sweep, "digital")
        items.append((sc, "digital_supp_db", "train_symbols", "tsvd"))
        items.append((sc, "linear_supp_db", "train_symbols", "linear"))
    elif fig == "fig7":
        sc = spec("fig7", base, [dict(p_b_dbm=40.0, p_m2_dbm=40.0)], "digital")
        items.append((sc, "total_supp_db", "p_b_dbm", "psd"))
    elif fig == "fig8":
        for ants, cfg in (("single", single), ("multi", base)):
            sc = spec(f"fig8_{ants}", cfg, _power_points(), "full")
            items.append((sc, "fd_rate", "p_b_dbm", f"{ants}_fd"))
            items.append((sc, "hd_rate", "p_b_dbm", f"{ants}_hd"))
    elif fig == "fig9":
        for mse in (None, -30.0, -20.0, -10.0):
            tag = "ideal" if mse is None else f"mse{int(mse)}"
            sc = spec(f"fig9_{tag}", base.override(channel_mse_db=mse),
                      _power_points(), "full")
            items.append((sc, "fd_rate", "p_b_dbm", tag))
    elif fig == "fig10":
        for name in ("wifi20", "lte20", "nr100"):
            sc = spec(f"fig10_{name}", preset(name), _power_points(), "digital")
            items.append((sc, "isr_db", "p_b_dbm", name))
    else:
        raise ConfigError(f"unknown figure {fig!r}; choose from {FIGURES}")
    return items


def reproduce(fig, out_dir, runs=None, workers=1):
    """Run the campaigns behind one reference figure; write plot CSVs.

    Returns (written paths, failed runs, attempted runs)."""
    written = []
    results = {}
    for sc, metric, x_key, curve in figure_scenarios(fig, runs=runs):
        if sc.name not in results:
            results[sc.name] = monte_carlo(sc, workers=workers)
            written += write_scenario_outputs(
                results[sc.name], os.path.join(out_dir, sc.name))
        res = results[sc.name]
        xs, means, errs, ns = curve_from_result(res, metric, x_key)
        if xs:
            written.append(write_curve_csv(
                os.path.join(out_dir, f"{fig}_{curve}_{metric}.csv"),
                x_key, xs, means, errs, ns))
        if fig == "fig7":
            label, cfg = sc.points[0]
            for which in ("psd_before", "psd_analog", "psd_digital", "psd_noise"):
                psd = res.mean_psd(label, which)
                if psd is not None:
                    written.append(write_psd_csv(
                        os.path.join(out_dir, f"{fig}_{which}.csv"), psd, cfg))
    failures = sum(len(r.failures) for r in results.values())
    attempted = sum(r.attempted for r in results.values())
    return written, failures, attempted
