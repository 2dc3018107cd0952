"""Monte Carlo link simulator for the three-node full-duplex scenario.

Each run draws a block-fading channel set, builds the analog canceller from
estimated CSI, solves the downlink beamformer under the RF saturation
constraint, transmits one continuous frame (digital-canceller training
symbols with the uplink muted, then payload), trains the adaptive digital
canceller post-ADC, and measures suppression, saturation, PSD and rate
metrics. Runs are deterministic in (seed, sweep point, run index) and
embarrassingly parallel.
"""

import csv
import multiprocessing
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import numerics
from .config_units import (Rng, SystemConfig, ConfigError, complex_normal,
                           dbm_to_linear, linear_to_db, linear_to_dbm, preset)
from .waveform import draw_symbols, ofdm_modulate, ofdm_demodulate, frame_power
from .impairments import (AdcModel, adc_full_scale, adc_quantize,
                          build_augmented_vector, check_saturation,
                          derive_gain_matrices, make_impairment_model,
                          tx_chain)
from .channel import (apply_channel, estimate_with_mse, gen_rayleigh,
                      gen_rician_si, to_freq)
from .analog_canceller import build_canceller, quantize_taps
from .beamforming import rate_bits, solve_dl, ul_combiner, ul_precoder
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


def compute_psd(frames, nc, cp_len=0):
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


def _bin_cov(frames, nc, cp, data):
    """Per-data-bin sample covariance over OFDM symbols, (nd, n, n)."""
    zf = ofdm_demodulate(frames, nc, cp)[:, data, :]         # (sym, nd, n)
    zf = zf.transpose(1, 2, 0)
    return (zf @ zf.conj().transpose(0, 2, 1)) / zf.shape[2]


def _measured_rate(y_frames, u_f, s_known, nc, cp, data):
    """Mean data-bin rate with empirical combined-domain IpN.

    The per-bin effective channel is refit from the payload by least
    squares (the demod reference a receiver would estimate from the
    frame), so raw CSI error does not masquerade as interference.
    """
    yf = ofdm_demodulate(y_frames, nc, cp)[:, data, :]       # (sym, nd, n_rx)
    u = u_f[data]                                            # (nd, n_rx, d)
    comb = np.einsum("nrd,snr->snd", u.conj(), yf)           # U^H y
    cross = np.einsum("snd,sne->nde", comb, s_known.conj())
    gram = np.einsum("snd,sne->nde", s_known, s_known.conj())
    try:
        s_mat = np.linalg.solve(
            gram.conj().transpose(0, 2, 1),
            cross.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
    except np.linalg.LinAlgError as exc:
        raise numerics.NumericalError(
            f"payload too short to fit the demod reference: {exc}"
        ) from None
    err = comb - np.einsum("nde,sne->snd", s_mat, s_known)
    e = err.transpose(1, 2, 0)
    q = (e @ e.conj().transpose(0, 2, 1)) / e.shape[2]
    return float(np.mean(rate_bits(s_mat, q)))


def run_frame(cfg, rng, stages="full", run_id=0, sweep_point=""):
    """Simulate one coherence block and return its MetricsRecord."""
    if stages not in STAGES:
        raise ConfigError(f"stages must be one of {STAGES}")
    nc, cp = cfg.nc, cfg.cp_len
    data = cfg.data_idx
    fs = cfg.sample_rate_hz
    p_b_w = dbm_to_linear(cfg.p_b_dbm)
    p_m2_w = dbm_to_linear(cfg.p_m2_dbm)

    g_ch = rng.child(0).generator
    g_est = rng.child(1).generator
    g_quant = rng.child(2).generator
    g_probe = rng.child(3).generator
    g_sym_b = rng.child(4).generator
    g_sym_m2 = rng.child(5).generator
    g_noise_b = rng.child(6).generator
    g_noise_m1 = rng.child(7).generator
    g_hd = rng.child(8).generator

    # --- channels and CSI -------------------------------------------------
    h_si = gen_rician_si(g_ch, cfg.n_rx_b, cfg.n_tx_b, cfg.si_delays_ns,
                         cfg.si_losses_db, fs, cfg.k_direct_db)
    h_dl = gen_rayleigh(g_ch, cfg.n_rx_m1, cfg.n_tx_b, cfg.l_dl,
                        cfg.pathloss_dl_db, cfg.delay_profile)
    h_ul = gen_rayleigh(g_ch, cfg.n_rx_b, cfg.n_tx_m2, cfg.l_ul,
                        cfg.pathloss_ul_db, cfg.delay_profile)
    est_si = estimate_with_mse(h_si, cfg.channel_mse_db, g_est)
    est_dl = estimate_with_mse(h_dl, cfg.channel_mse_db, g_est)
    est_ul = estimate_with_mse(h_ul, cfg.channel_mse_db, g_est)

    canc = build_canceller(est_si, cfg.n_taps, greedy=cfg.greedy_taps,
                           attenuation_step_db=cfg.attenuation_step_db,
                           phase_step_deg=cfg.phase_step_deg)
    if cfg.tap_quantization:
        canc = quantize_taps(canc, g_quant)
    c_mats = canc.matrices()

    h_si_eff_f = to_freq(est_si, nc) + to_freq(c_mats, nc)
    h_dl_est_f = to_freq(est_dl, nc)
    h_ul_est_f = to_freq(est_ul, nc)

    model = make_impairment_model(cfg.irr_db, cfg.iip3_dbm,
                                  pa_gain_db=cfg.pa_gain_db)
    gains_b = derive_gain_matrices(model, np.sqrt(p_b_w / cfg.n_tx_b))
    gains_m2 = derive_gain_matrices(model, np.sqrt(p_m2_w / cfg.n_tx_m2))

    # --- downlink beamformer under the saturation constraint --------------
    dl = solve_dl(h_si_eff_f, h_dl_est_f, gains_b, p_b_w, cfg.lambda_b_w,
                  nc, data, cp, g_probe, alpha_cap=cfg.dl_streams)

    # --- one continuous frame: training (UL muted) then payload -----------
    t_sym, f_sym = cfg.train_symbols, cfg.frame_symbols
    sym_len = nc + cp
    n_train = t_sym * sym_len
    s_b = draw_symbols(g_sym_b, t_sym + f_sym, nc, data, dl.alpha)
    x_b = ofdm_modulate(s_b, dl.v, cp)
    xt_b, z_b = tx_chain(x_b, gains_b)

    v_m2, g1_m2 = ul_precoder(h_ul_est_f, cfg.ul_streams, p_m2_w, nc, data)
    s_m2 = draw_symbols(g_sym_m2, f_sym, nc, data, cfg.ul_streams)
    x_m2 = np.concatenate(
        [np.zeros((cfg.n_tx_m2, n_train), dtype=complex),
         ofdm_modulate(s_m2, v_m2, cp)], axis=1)
    xt_m2, z_m2 = tx_chain(x_m2, gains_m2)

    si_rx = apply_channel(xt_b, h_si)
    si_res = si_rx + apply_channel(xt_b, c_mats)
    ul_rx = apply_channel(xt_m2, h_ul)
    noise_b = complex_normal(g_noise_b, si_rx.shape, cfg.sigma_b_w)

    pay = slice(n_train, None)

    # --- analog-stage metrics (payload window, noise-inclusive) -----------
    p_res = frame_power(si_res[:, pay])
    saturated = bool(np.any(check_saturation(p_res, cfg.lambda_b_w)))
    before = si_rx[:, pay] + noise_b[:, pay]
    mid = si_res[:, pay] + noise_b[:, pay]
    analog_db = _per_antenna_db(frame_power(before), frame_power(mid))

    rec = MetricsRecord(
        run_id=run_id, sweep_point=sweep_point,
        p_saturation=int(saturated), alpha=dl.alpha,
        residual_si_dbm=float(np.max(linear_to_dbm(p_res))),
        analog_supp_db=analog_db,
    )
    if stages == "analog":
        return rec

    # --- ADC and digital cancellation --------------------------------------
    y_b = si_res + ul_rx + noise_b
    adc = AdcModel(bits=cfg.adc_bits, papr_db=cfg.adc_papr_db,
                   dynamic_range_db=cfg.adc_dynamic_range_db,
                   full_scale_dbm=cfg.adc_full_scale_dbm,
                   auto_range=cfg.adc_auto_range)
    fs_w = adc_full_scale(adc, y_b)
    y_q = adc_quantize(y_b, adc, fs_w)

    mono_b = build_augmented_vector(x_b)
    y_train = y_q[:, :n_train]
    g, c = normal_equations(mono_b[:, :n_train], y_train, cfg.l_si)
    state = tsvd_fit(g, c, y_train, cfg.sigma_b_w)
    d_corr = cancel_signal(state, mono_b)
    del mono_b              # 6 * n_tx frame-long rows, not needed past here
    r_post = y_q + d_corr

    # Shadow SI-only measurement: the same frame with the uplink muted,
    # used to isolate cancellation depth.  Kept unquantized on purpose:
    # the live path (training, rates, saturation counts) goes through the
    # ADC, but re-quantizing the shadow against a rail chosen for the
    # composite signal adds clip artifacts that belong to the live path,
    # not to the canceller under measurement.
    after = mid + d_corr[:, pay]
    rec.tsvd_rank = float(state.rank_used)
    rec.digital_supp_db = _per_antenna_db(frame_power(mid), frame_power(after))
    rec.total_supp_db = _per_antenna_db(frame_power(before), frame_power(after))
    rec.isr_db = float(linear_to_db(np.sum(frame_power(after))
                                    / np.sum(frame_power(si_rx[:, pay]))))

    # linear-taps-only baseline canceller on the same training data
    lin = linear_basis_mask(cfg.n_tx_b, cfg.l_si)
    state_lin = tsvd_fit(g[np.ix_(lin, lin)], c[:, lin], y_train,
                         cfg.sigma_b_w)
    after_lin = mid + cancel_signal(state_lin, x_b)[:, pay]
    rec.linear_supp_db = _per_antenna_db(frame_power(mid),
                                         frame_power(after_lin))

    rec.psd_before = compute_psd(before, nc, cp)
    rec.psd_analog = compute_psd(mid, nc, cp)
    rec.psd_digital = compute_psd(after, nc, cp)
    rec.psd_noise = compute_psd(noise_b[:, pay], nc, cp)
    if stages == "digital":
        return rec

    # --- uplink combiner and rate metrics ----------------------------------
    cov_z_b = _bin_cov(z_b[:, pay], nc, cp, data)
    cov_z_m2 = _bin_cov(z_m2[:, pay], nc, cp, data)
    cov_d = _bin_cov(d_corr[:, pay], nc, cp, data)

    u_b = ul_combiner(h_ul_est_f, v_m2, g1_m2, cfg.ul_streams, cfg.sigma_b_w,
                      nc, data, h_si_eff_f=h_si_eff_f, v_b=dl.v, g1_b=dl.g1,
                      z_b_cov=cov_z_b, z_m2_cov=cov_z_m2, d_cov=cov_d)

    ul_rate = _measured_rate(r_post[:, pay], u_b, s_m2[:, data, :],
                             nc, cp, data)

    noise_m1 = complex_normal(g_noise_m1, (cfg.n_rx_m1, si_rx.shape[1]),
                              cfg.sigma_m1_w)
    y_m1 = apply_channel(xt_b, h_dl) + noise_m1
    dl_rate = _measured_rate(y_m1[:, pay], dl.u, s_b[t_sym:, data, :],
                             nc, cp, data)

    # --- half-duplex baseline on the same channels -------------------------
    # Downlink: unconstrained eigenbeamforming at full stream count.
    a_hd = min(cfg.n_tx_b, cfg.n_rx_m1, cfg.dl_streams)
    uh, _, vh = numerics.svd(h_dl_est_f[data])
    v_hd = np.zeros((nc, cfg.n_tx_b, a_hd), dtype=complex)
    v_hd[data] = vh[:, :, :a_hd]
    u_hd = np.zeros((nc, cfg.n_rx_m1, a_hd), dtype=complex)
    u_hd[data] = uh[:, :, :a_hd]
    s_hd = draw_symbols(g_hd, f_sym, nc, data, a_hd)
    x_hd = ofdm_modulate(s_hd, v_hd, cp)
    xt_hd, _ = tx_chain(x_hd, gains_b)
    y_m1_hd = apply_channel(xt_hd, h_dl) + complex_normal(
        g_hd, (cfg.n_rx_m1, x_hd.shape[1]), cfg.sigma_m1_w)
    dl_hd = _measured_rate(y_m1_hd, u_hd, s_hd[:, data, :], nc, cp, data)

    # Uplink: same uplink transmission without the node's own transmitter.
    y_ul_hd = ul_rx[:, pay] + noise_b[:, pay]
    y_ul_hd = adc_quantize(y_ul_hd, adc)
    u_b_hd = ul_combiner(h_ul_est_f, v_m2, g1_m2, cfg.ul_streams,
                         cfg.sigma_b_w, nc, data, z_m2_cov=cov_z_m2)
    ul_hd = _measured_rate(y_ul_hd, u_b_hd, s_m2[:, data, :], nc, cp, data)

    rec.dl_rate = dl_rate
    rec.ul_rate = ul_rate
    rec.fd_rate = dl_rate + ul_rate
    rec.hd_rate = 0.5 * (dl_hd + ul_hd)
    return rec


# ---------------------------------------------------------------------------
# scenarios and Monte Carlo orchestration

@dataclass
class ScenarioSpec:
    """A named simulation campaign: base config, sweep points, run count."""
    name: str
    config: SystemConfig = field(default_factory=SystemConfig)
    sweep: list = field(default_factory=lambda: [{}])
    runs: int | None = None            # None: config.mc_runs
    seed: int | None = None            # None: config.seed
    stages: str = "full"

    def __post_init__(self):
        if self.stages not in STAGES:
            raise ConfigError(f"stages must be one of {STAGES}")
        if not self.sweep:
            raise ConfigError("sweep must contain at least one point")
        for point in self.sweep:
            self.point_config(point)   # validates overrides eagerly

    def point_config(self, point):
        kw = {k: v for k, v in point.items() if k != "label"}
        try:
            return self.config.override(**kw)
        except TypeError as exc:
            raise ConfigError(f"bad sweep override {point}: {exc}") from None

    def point_label(self, point):
        if "label" in point:
            return str(point["label"])
        if not point:
            return "base"
        return ",".join(f"{k}={point[k]}" for k in sorted(point))

    @property
    def n_runs(self):
        return self.runs if self.runs is not None else self.config.mc_runs

    @property
    def rng_seed(self):
        return self.seed if self.seed is not None else self.config.seed

    def to_dict(self):
        return {"name": self.name, "config": self.config.to_dict(),
                "sweep": self.sweep, "runs": self.runs, "seed": self.seed,
                "stages": self.stages}

    @classmethod
    def from_dict(cls, d):
        known = {"name", "config", "sweep", "runs", "seed", "stages"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        cfg = d.get("config", {})
        if not isinstance(cfg, SystemConfig):
            cfg = SystemConfig.from_dict(cfg)
        return cls(name=d.get("name", "scenario"), config=cfg,
                   sweep=d.get("sweep") or [{}], runs=d.get("runs"),
                   seed=d.get("seed"), stages=d.get("stages", "full"))


@dataclass
class MonteCarloResult:
    spec: ScenarioSpec
    records: list                      # completed MetricsRecords
    failures: list                     # (label, run_id, message)
    labels: list

    @property
    def attempted(self):
        return len(self.records) + len(self.failures)

    def by_label(self, label):
        return [r for r in self.records if r.sweep_point == label]

    def aggregate(self):
        """{label: {metric: (mean, stderr, n)}} over finite values."""
        out = {}
        for label in self.labels:
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
        return ("failure", label, run_idx, f"{type(exc).__name__}: {exc}")


def monte_carlo(spec, workers=1):
    """Run a scenario; deterministic in (seed, sweep point, run index)."""
    tasks = []
    labels = []
    for point_idx, point in enumerate(spec.sweep):
        cfg = spec.point_config(point)
        label = spec.point_label(point)
        labels.append(label)
        for run_idx in range(spec.n_runs):
            tasks.append((cfg, spec.rng_seed, point_idx, run_idx,
                          spec.stages, label))
    if workers > 1:
        # forked workers inherit the parent's multithreaded BLAS; each caps
        # its own at one thread so the pool does not oversubscribe the CPUs
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=numerics.limit_blas_threads,
                      initargs=(1,)) as pool:
            results = pool.map(_mc_task, tasks, chunksize=1)
    else:
        results = [_mc_task(t) for t in tasks]
    records, failures = [], []
    for res in results:
        if isinstance(res, tuple) and res and res[0] == "failure":
            failures.append(res[1:])
        else:
            records.append(res)
    return MonteCarloResult(spec=spec, records=records, failures=failures,
                            labels=labels)


# ---------------------------------------------------------------------------
# CSV output (deterministic bytes: fixed order, 9 significant digits, \n)

def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    if np.isnan(v):
        return "nan"
    return f"{v:.9g}"


def write_runs_csv(result, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_FIELDS)
        for r in result.records:
            w.writerow([_fmt(getattr(r, n)) if n != "sweep_point"
                        else r.sweep_point for n in CSV_FIELDS])
    return path


def write_aggregate_csv(result, path):
    agg = result.aggregate()
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["sweep_point", "metric", "mean", "stderr", "n"])
        for label in result.labels:
            for name in METRIC_FIELDS:
                if name not in agg[label]:
                    continue
                mean, err, n = agg[label][name]
                w.writerow([label, name, _fmt(mean), _fmt(err), n])
    return path


def write_curve_csv(path, x_name, xs, means, stderrs, ns):
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([x_name, "mean", "stderr", "n"])
        for row in zip(xs, means, stderrs, ns):
            w.writerow([_fmt(row[0]), _fmt(row[1]), _fmt(row[2]), int(row[3])])
    return path


def write_psd_csv(path, psd_watts, cfg):
    """Plot-ready PSD: frequency-sorted bins in dBm."""
    freqs = np.fft.fftfreq(cfg.nc, d=cfg.sample_period_s)
    order = np.argsort(freqs, kind="stable")
    dbm = linear_to_dbm(np.asarray(psd_watts))
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["freq_hz", "psd_dbm"])
        for i in order:
            w.writerow([_fmt(freqs[i]), _fmt(dbm[i])])
    return path


def curve_from_result(result, spec, metric, x_key):
    """Extract (xs, means, stderrs, ns) for one metric across the sweep."""
    agg = result.aggregate()
    xs, means, errs, ns = [], [], [], []
    for point in spec.sweep:
        label = spec.point_label(point)
        if metric not in agg.get(label, {}):
            continue
        mean, err, n = agg[label][metric]
        xs.append(point.get(x_key, np.nan))
        means.append(mean)
        errs.append(err)
        ns.append(n)
    return xs, means, errs, ns


def write_scenario_outputs(result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    paths = [write_runs_csv(result, os.path.join(out_dir, "runs.csv")),
             write_aggregate_csv(result, os.path.join(out_dir, "aggregates.csv"))]
    cfg = result.spec.config
    for label in result.labels:
        psd = result.mean_psd(label)
        if psd is not None:
            safe = label.replace("=", "-").replace(",", "_").replace(" ", "")
            paths.append(write_psd_csv(
                os.path.join(out_dir, f"psd_{safe}.csv"), psd, cfg))
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
    hints as (scenario, metric, x_key, curve_name) tuples."""
    base = SystemConfig()
    single = base.override(**_SINGLE_ANT)
    items = []

    def spec(name, config, sweep, stages):
        return ScenarioSpec(name=name, config=config, sweep=sweep,
                            runs=runs, stages=stages)

    if fig == "fig3":
        for lc, taps in ((1, 16), (2, 32), (3, 48)):
            sc = spec(f"fig3_lc{lc}", single.override(n_taps=taps),
                      _power_points(), "analog")
            items.append((sc, "p_saturation", "p_b_dbm", f"lc{lc}"))
    elif fig == "fig4":
        for lc, taps in ((1, 16), (2, 32), (3, 48)):
            sc = spec(f"fig4_lc{lc}", base.override(n_taps=taps),
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
    items = figure_scenarios(fig, runs=runs)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    results = {}
    for sc, metric, x_key, curve in items:
        if sc.name not in results:
            results[sc.name] = monte_carlo(sc, workers=workers)
            written += write_scenario_outputs(
                results[sc.name], os.path.join(out_dir, sc.name))
        res = results[sc.name]
        xs, means, errs, ns = curve_from_result(res, sc, metric, x_key)
        if xs:
            written.append(write_curve_csv(
                os.path.join(out_dir, f"{fig}_{curve}_{metric}.csv"),
                x_key, xs, means, errs, ns))
        if fig == "fig7":
            cfg = sc.config
            for which in ("psd_before", "psd_analog", "psd_digital", "psd_noise"):
                psd = res.mean_psd(sc.point_label(sc.sweep[0]), which)
                if psd is not None:
                    written.append(write_psd_csv(
                        os.path.join(out_dir, f"{fig}_{which}.csv"), psd, cfg))
    failures = sum(len(r.failures) for r in results.values())
    attempted = sum(r.attempted for r in results.values())
    return written, failures, attempted
