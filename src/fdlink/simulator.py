"""Monte Carlo link simulator for the three-node full-duplex scenario.

`run_frame` runs one coherence block as a sequence of stage functions:
channels and CSI, the analog canceller, the downlink beamformer under the
RF saturation constraint with one continuous frame (digital-canceller
training symbols with the uplink muted, then payload), the uplink, the ADC,
the digital canceller, and the rates against a half-duplex baseline. Each
stage draws from its own child stream, and `stages` stops the chain after
the analog or the digital metrics. Runs are deterministic in (seed, sweep
point, run index) and embarrassingly parallel.

Lifetime rule: a frame-long array is reduced, right where it is made, to
what later stages read of it (a covariance, a power, a PSD, a rate, or a
sum taken in place into another frame array) and is freed there. The
uplink is muted over the training window, so it is built as payload only,
and a `digital` frame quantizes only the training window the canceller
fits. Moving a stage's work earlier moves none of its draws, since each
stage has its own stream, and every sum keeps its operand order, so the
order of the work changes no number.
"""

import csv
import multiprocessing
import os
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import numerics
from .config_units import (Rng, SystemConfig, ConfigError, _is_a,
                           complex_normal, dbm_to_linear, linear_to_db,
                           linear_to_dbm, preset)
from .waveform import (draw_symbols, frame_power, full_bins, ofdm_modulate,
                       ofdm_demodulate)
from .impairments import (adc_full_scale, adc_quantize,
                          build_augmented_vector, check_saturation,
                          derive_gain_matrices, make_impairment_model,
                          tx_chain)
from .channel import (apply_channel, estimate_with_mse, gen_rayleigh,
                      gen_rician_si, to_freq)
from .analog_canceller import build_canceller, quantize_taps
from .beamforming import (_bin_cov, _through, rate_bits, residual_si_cov,
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
    """
    yf = ofdm_demodulate(frames, nc, cp_len)
    return np.mean(np.abs(yf) ** 2, axis=(0, 2)) / nc


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
    return float(np.mean(rate_bits(s_mat, _bin_cov(err))))


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
    nc, data = cfg.nc, cfg.data_idx
    s = draw_symbols(gen, n_symbols, nc, data, v.shape[2])
    return s, ofdm_modulate(s, full_bins(nc, data, v), cfg.cp_len)


def _uplink(cfg, model, est_ul, h_ul, rng, rates):
    """The uplink payload received at the node; the uplink is muted over the
    training window, so only the payload is modulated, distorted and sent.
    Returns (ul_rx, ul, ul_dist). With rates, ul and ul_dist hold what the
    uplink rates read: (effective data-bin channel estimate, symbols) and
    the covariance of the uplink TX distortion seen through the estimate;
    else both are None."""
    h_ul_est = to_freq(est_ul, cfg.nc)[cfg.data_idx]
    g1_m2 = np.sqrt(dbm_to_linear(cfg.p_m2_dbm) / cfg.n_tx_m2)
    v_m2 = ul_precoder(h_ul_est, cfg.ul_streams)
    s_m2, x_m2 = _precoded_frame(cfg, rng.child(5).generator,
                                 cfg.frame_symbols, v_m2)
    xt_m2, z_m2 = tx_chain(x_m2, derive_gain_matrices(model, g1_m2))
    del x_m2
    ul = ul_dist = None
    if rates:
        ul = (h_ul_est @ (g1_m2 * v_m2), s_m2)
        ul_dist = _through(h_ul_est, _bin_cov(_data_bins(cfg, z_m2)))
    del z_m2, s_m2
    return apply_channel(xt_m2, h_ul), ul, ul_dist


def _adc(cfg, y, cols=slice(None)):
    """Quantize the columns cols of y on the configured ADC; the auto-range
    rail is set from all of y."""
    return adc_quantize(y[:, cols], cfg.adc_bits, adc_full_scale(
        y, cfg.adc_full_scale_dbm, cfg.adc_auto_range))


def _ul_rate(cfg, ul, y, ipn):
    """Uplink rate of payload y through the combiner that whitens against
    the interference-plus-noise covariance ipn."""
    heff, s_m2 = ul
    return _measured_rate(cfg, y, ul_combiner(heff, ipn), s_m2)


def _dl_rate(cfg, xt, h_dl, u, s, gen):
    """Downlink rate of the frame xt whose last symbols carry s (sym, nc, d),
    received with noise from gen and combined by u."""
    y_m1 = apply_channel(xt, h_dl)
    y_m1 += complex_normal(gen, (cfg.n_rx_m1, xt.shape[1]), cfg.sigma_m1_w)
    n_pay = len(s) * (cfg.nc + cfg.cp_len)
    return _measured_rate(cfg, y_m1[:, -n_pay:], u, s)


def _half_duplex(cfg, h_dl, h_dl_est, gains_b, ul, ul_pay, ipn, rng):
    """Half-duplex rate on the same channels, each link on half the time:
    unconstrained downlink eigenbeamforming at full stream count, and the
    uplink payload ul_pay (noise included) without the node's transmitter,
    combined against ipn."""
    g_hd = rng.child(8).generator
    a_hd = cfg.dl_streams
    uh, _, vh = numerics.svd(h_dl_est)
    s_hd, x_hd = _precoded_frame(cfg, g_hd, cfg.frame_symbols, vh[:, :, :a_hd])
    xt_hd, _ = tx_chain(x_hd, gains_b)
    del x_hd
    dl_hd = _dl_rate(cfg, xt_hd, h_dl, uh[:, :, :a_hd], s_hd, g_hd)
    ul_hd = _ul_rate(cfg, ul, _adc(cfg, ul_pay), ipn)
    return 0.5 * (dl_hd + ul_hd)


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


def run_frame(cfg, rng, stages="full", run_id=0, sweep_point=""):
    """Simulate one coherence block and return its MetricsRecord."""
    if stages not in STAGES:
        raise ConfigError(f"stages must be one of {STAGES}")
    nc, cp, data = cfg.nc, cfg.cp_len, cfg.data_idx
    n_train = cfg.train_symbols * (nc + cp)
    pay = slice(n_train, None)
    rates = stages == "full"

    (h_si, h_dl, h_ul), (est_si, est_dl, est_ul) = _channels(cfg, rng)
    c_mats = _analog_canceller(cfg, est_si, rng)
    h_si_eff = (to_freq(est_si, nc) + to_freq(c_mats, nc))[data]
    h_dl_est = to_freq(est_dl, nc)[data]

    # The lifetime rule of the module docstring: each frame-long array below
    # is reduced where it is made and freed there (`del`), so a frame holds
    # few of them at once. The peak falls between the SI convolutions and
    # the shadow PSDs, where the transmit frame and the SI frames coexist.

    # --- downlink beamformer and frame: training (UL muted), then payload ---
    model = make_impairment_model(cfg.irr_db, cfg.iip3_dbm,
                                  pa_gain_db=cfg.pa_gain_db)
    g1_b = np.sqrt(dbm_to_linear(cfg.p_b_dbm) / cfg.n_tx_b)
    gains_b = derive_gain_matrices(model, g1_b)
    dl = solve_dl(h_si_eff, h_dl_est, gains_b, g1_b, cfg.lambda_b_w,
                  nc, data, cp, rng.child(3).generator,
                  alpha_cap=cfg.dl_streams)
    s_b, x_b = _precoded_frame(cfg, rng.child(4).generator,
                               cfg.train_symbols + cfg.frame_symbols, dl.v)
    xt_b, z_b = tx_chain(x_b, gains_b)
    if rates:
        # interference-plus-noise of the uplink combiners, summed at the end
        # in this order: residual SI, uplink TX distortion, the digital
        # correction (known after the ADC), then noise. The half-duplex
        # combiner sees the uplink TX distortion and noise only.
        si_cov = residual_si_cov(h_si_eff, g1_b * dl.v,
                                 _data_bins(cfg, z_b[:, pay]))
        noise_cov = cfg.sigma_b_w * np.eye(cfg.n_rx_b)
    del z_b
    if stages != "analog":             # the analog stage reads no uplink
        ul_rx, ul, ul_dist = _uplink(cfg, model, est_ul, h_ul, rng, rates)

    si_rx = apply_channel(xt_b, h_si)
    si_res = apply_channel(xt_b, c_mats)
    np.add(si_rx, si_res, out=si_res)
    dl_rate = (_dl_rate(cfg, xt_b, h_dl, dl.u, s_b[cfg.train_symbols:],
                        rng.child(7).generator) if rates else np.nan)
    del xt_b, s_b
    noise_b = complex_normal(rng.child(6).generator, si_rx.shape,
                             cfg.sigma_b_w)

    # --- analog-stage metrics (payload window, noise-inclusive) -----------
    if stages != "analog":             # isr_db's reference, before the noise
        p_si = frame_power(si_rx[:, pay])
    before = np.add(si_rx[:, pay], noise_b[:, pay], out=si_rx[:, pay])
    p_before = frame_power(before)
    p_res = frame_power(si_res[:, pay])
    mid = si_res[:, pay] + noise_b[:, pay]
    p_mid = frame_power(mid)
    saturated = bool(np.any(check_saturation(p_res, cfg.lambda_b_w)))

    rec = MetricsRecord(
        run_id=run_id, sweep_point=sweep_point,
        p_saturation=int(saturated), alpha=dl.alpha,
        residual_si_dbm=float(np.max(linear_to_dbm(p_res))),
        analog_supp_db=_per_antenna_db(p_before, p_mid), dl_rate=dl_rate,
    )
    if stages == "analog":
        return rec
    rec.psd_before = compute_psd(before, nc, cp)
    del si_rx, before
    rec.psd_analog = compute_psd(mid, nc, cp)
    rec.psd_noise = compute_psd(noise_b[:, pay], nc, cp)

    if rates:                          # the half-duplex uplink input
        ul_pay = ul_rx + noise_b[:, pay]
    # the live receive frame, summed in place: (si_res + ul_rx) + noise_b
    y_b = si_res
    y_b[:, pay] += ul_rx
    y_b += noise_b
    del si_res, ul_rx, noise_b

    # --- ADC and digital cancellation --------------------------------------
    # only the uplink rate reads the payload past the ADC
    y_q = _adc(cfg, y_b, slice(None) if rates else slice(n_train))
    del y_b
    d_corr, d_lin, rec.tsvd_rank = _digital_cancel(cfg, x_b, y_q[:, :n_train])
    del x_b
    if rates:
        d_cov = _bin_cov(_data_bins(cfg, d_corr))
        y_ul = np.add(y_q[:, pay], d_corr, out=y_q[:, pay])

    # Shadow SI-only measurement: the same frame with the uplink muted,
    # used to isolate cancellation depth.  Kept unquantized on purpose:
    # the live path (training, rates, saturation counts) goes through the
    # ADC, but re-quantizing the shadow against a rail chosen for the
    # composite signal adds clip artifacts that belong to the live path,
    # not to the canceller under measurement.
    after = np.add(mid, d_corr, out=d_corr)
    p_after = frame_power(after)
    rec.digital_supp_db = _per_antenna_db(p_mid, p_after)
    rec.total_supp_db = _per_antenna_db(p_before, p_after)
    rec.isr_db = float(linear_to_db(np.sum(p_after) / np.sum(p_si)))
    rec.psd_digital = compute_psd(after, nc, cp)
    # linear-taps-only baseline canceller on the same training data
    after_lin = np.add(mid, d_lin, out=d_lin)
    rec.linear_supp_db = _per_antenna_db(p_mid, frame_power(after_lin))
    if stages == "digital":
        return rec
    del mid, after, after_lin, d_corr, d_lin

    # --- uplink combiner and rate, and the half-duplex baseline -----------
    rec.hd_rate = _half_duplex(cfg, h_dl, h_dl_est, gains_b, ul, ul_pay,
                               ul_dist + noise_cov, rng)
    rec.ul_rate = _ul_rate(cfg, ul, y_ul, si_cov + ul_dist + d_cov + noise_cov)
    rec.fd_rate = rec.dl_rate + rec.ul_rate
    return rec


# ---------------------------------------------------------------------------
# scenarios and Monte Carlo orchestration

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
        for name, low in (("runs", 1), ("seed", 0)):   # SeedSequence: >= 0
            v = getattr(self, name)
            if not (_is_a(v, int) and v >= low):
                raise ConfigError(f"{name} must be an integer >= {low}")
        if not (isinstance(self.sweep, list) and self.sweep
                and all(isinstance(p, dict) for p in self.sweep)):
            raise ConfigError("sweep must be a non-empty list of objects")
        self.points, names = [], []
        for point in self.sweep:
            label = self.point_label(point)
            name = _psd_file_name(label)
            if any(label == seen for seen, _ in self.points):
                raise ConfigError(f"sweep label {label!r} is not unique")
            # each label names a file in the output directory, so the check
            # runs before any frame does
            if any(c in name for c in "/\\\0"):
                raise ConfigError(f"sweep label {label!r} holds a path "
                                  "separator or a NUL")
            if len(name.encode()) > 255:       # NAME_MAX of common filesystems
                raise ConfigError(f"sweep label {label[:20]!r}... is too long "
                                  "for a file name")
            if name in names:
                raise ConfigError(
                    f"sweep labels {self.points[names.index(name)][0]!r} and "
                    f"{label!r} both write {name}")
            try:                               # validates overrides eagerly
                cfg = self.config.override(
                    **{k: v for k, v in point.items() if k != "label"})
            except ConfigError as exc:
                raise ConfigError(f"sweep point {label!r}: {exc}") from None
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


def monte_carlo(spec, workers=1):
    """Run a scenario; deterministic in (seed, sweep point, run index)."""
    if not (_is_a(workers, int) and workers >= 1):
        raise ConfigError("workers must be an integer >= 1")
    tasks = []
    for point_idx, (label, cfg) in enumerate(spec.points):
        tasks += [(cfg, spec.seed, point_idx, run_idx, spec.stages, label)
                  for run_idx in range(spec.runs)]
    # every frame runs at one BLAS thread, so the bytes depend neither on
    # workers nor on the core count; pool workers fork with the cap
    with numerics.blas_threads(1):
        if workers > 1:
            # numpy loads these on first use; loading them before the fork
            # spares every worker the import in its first frame
            import numpy.fft
            import numpy.random
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(min(workers, len(tasks)),
                          initializer=numerics.keep_heap) as pool:
                results = pool.map(_mc_task, tasks, chunksize=1)
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
