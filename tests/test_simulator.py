"""Monte Carlo orchestration, CSV outputs, and the CLI front end."""

import ast
import importlib
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fdlink import cli, digital_canceller, numerics, simulator
from fdlink.cli import main
from fdlink.config_units import (ConfigError, Rng, SystemConfig,
                                 complex_normal, preset)
from fdlink.simulator import (MonteCarloResult, ScenarioSpec, compute_psd,
                              curve_from_result, figure_scenarios,
                              monte_carlo, reproduce, run_frame,
                              write_runs_csv, write_scenario_outputs)
from fdlink.waveform import ofdm_demodulate

SMALL = dict(frame_symbols=12, train_symbols=4)


def _small_cfg(**kw):
    return SystemConfig().override(**{**SMALL, **kw})


# --- single frame ------------------------------------------------------------

def test_run_frame_deterministic_in_rng_path():
    cfg = _small_cfg()
    a = run_frame(cfg, Rng(99).child(0, 0))
    b = run_frame(cfg, Rng(99).child(0, 0))
    for name in simulator.METRIC_FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        assert va == vb or (np.isnan(va) and np.isnan(vb)), name
    assert np.array_equal(a.psd_digital, b.psd_digital)
    c = run_frame(cfg, Rng(99).child(0, 1))
    assert c.fd_rate != a.fd_rate


_ANALOG_FIELDS = ["run_id", "sweep_point", "p_saturation", "alpha",
                  "residual_si_dbm", "analog_supp_db"]
_DIGITAL_FIELDS = _ANALOG_FIELDS + [
    "tsvd_rank", "digital_supp_db", "linear_supp_db", "total_supp_db",
    "isr_db", "psd_before", "psd_analog", "psd_digital", "psd_noise"]
_STAGE_FIELDS = {"analog": _ANALOG_FIELDS, "digital": _DIGITAL_FIELDS,
                 "full": [f.name for f in fields(simulator.MetricsRecord)]}


def _assert_stage_fields_finite(rec, stages):
    for name in _STAGE_FIELDS[stages]:
        v = getattr(rec, name)
        if isinstance(v, np.ndarray):
            assert np.all(np.isfinite(v)), (stages, name)
        elif not isinstance(v, str):
            assert np.isfinite(v), (stages, name)


def test_run_frame_stage_subsets():
    cfg = _small_cfg()
    recs = {s: run_frame(cfg, Rng(5).child(0, 0), stages=s)
            for s in simulator.STAGES}
    for stages, rec in recs.items():
        for f in fields(rec):
            v = getattr(rec, f.name)
            if f.name not in _STAGE_FIELDS[stages]:
                assert v is None or np.isnan(v), (stages, f.name)
        _assert_stage_fields_finite(rec, stages)
    # every field a stage subset sets equals the value of the longer chains,
    # bit for bit: the stages share their streams, and the rate work that
    # runs ahead of the ADC in `full` leaves the digital stage unchanged
    for short, longer in (("analog", "digital"), ("analog", "full"),
                          ("digital", "full")):
        for name in _STAGE_FIELDS[short]:
            a, b = getattr(recs[short], name), getattr(recs[longer], name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), (short, longer, name)
            else:
                assert a == b, (short, longer, name)


# Every scalar field of run_frame(_small_cfg(), Rng(5).child(0, 0)), added
# stage by stage. The values were recorded from run_frame itself, so a
# refactor that moves any number fails here; a change that moves them on
# purpose says so and records them again.
_RECORDED = {
    "analog": dict(p_saturation=0, alpha=2,
                   residual_si_dbm=-40.623522677319244,
                   analog_supp_db=37.34904955877774),
    "digital": dict(tsvd_rank=96.0, digital_supp_db=55.363200347203886,
                    linear_supp_db=9.27053248120536,
                    total_supp_db=92.71224990598164,
                    isr_db=-93.13679946408888),
    "full": dict(dl_rate=18.35506905685632, ul_rate=38.95732541037573,
                 fd_rate=57.31239446723205, hd_rate=37.573294813684456),
}
# The same for one long frame, run_frame(preset("lte20"), Rng(1).child(0, 0),
# stages="digital"), whose frame spans many apply_channel blocks and whose
# ADC rail reads the uplink payload; its four PSD arrays are in data/.
_RECORDED_LTE20 = {
    "analog": dict(p_saturation=0, alpha=2,
                   residual_si_dbm=-42.59914036627562,
                   analog_supp_db=39.551709583871144),
    "digital": dict(tsvd_rank=144.0, digital_supp_db=55.53493306140577,
                    linear_supp_db=19.93041204505606,
                    total_supp_db=95.08664264527691,
                    isr_db=-95.36144574556467),
}
_LTE20_PSD = Path(__file__).parent / "data" / "lte20_digital_seed1_psd.npz"


@pytest.mark.parametrize("case", [*simulator.STAGES, "lte20-digital"])
def test_run_frame_matches_recorded_values(case):
    if case == "lte20-digital":
        cfg, seed, stages, recorded = (preset("lte20"), 1, "digital",
                                       _RECORDED_LTE20)
    else:
        cfg, seed, stages, recorded = _small_cfg(), 5, case, _RECORDED
    rec = run_frame(cfg, Rng(seed).child(0, 0), stages=stages,
                    run_id=3, sweep_point="p")
    want = {"run_id": 3, "sweep_point": "p"}
    for s in simulator.STAGES[:simulator.STAGES.index(stages) + 1]:
        want.update(recorded[s])
    for name in simulator.CSV_FIELDS:
        got = getattr(rec, name)
        if name not in want:
            assert np.isnan(got), name
        elif isinstance(want[name], float):
            assert got == pytest.approx(want[name], rel=1e-9, abs=0), name
        else:
            assert type(got) is type(want[name]) and got == want[name], name
    if case == "lte20-digital":
        with np.load(_LTE20_PSD) as psd:
            for name in psd.files:
                np.testing.assert_allclose(getattr(rec, name), psd[name],
                                           rtol=1e-9, atol=0, err_msg=name)


def test_run_frame_negligible_si():
    cfg = _small_cfg(si_losses_db=(300.0, 310.0, 310.0, 310.0))
    rec = run_frame(cfg, Rng(6).child(0, 0), stages="analog")
    assert rec.p_saturation == 0
    assert abs(rec.analog_supp_db) < 0.5      # nothing to suppress


def test_run_frame_full_tap_ideal_canceller():
    # perfect CSI + one tap per (delay, rx, tx) pair + exact hardware:
    # the analog stage alone reaches numerical-noise residuals
    cfg = _small_cfg(n_taps=64, attenuation_step_db=0.0, phase_step_deg=0.0,
                     channel_mse_db=None)
    rec = run_frame(cfg, Rng(7).child(0, 0), stages="analog")
    assert rec.residual_si_dbm < -200.0
    assert rec.p_saturation == 0


def test_run_frame_never_builds_the_design_matrix(monkeypatch):
    # the canceller fits from normal equations built from the monomial stream
    def boom(*args, **kwargs):
        raise AssertionError("design matrix built")
    monkeypatch.setattr(simulator, "build_design_matrix", boom)
    monkeypatch.setattr(digital_canceller, "build_design_matrix", boom)
    rec = run_frame(_small_cfg(), Rng(5).child(0, 0), stages="digital")
    assert np.isfinite(rec.digital_supp_db) and np.isfinite(rec.linear_supp_db)


@pytest.mark.parametrize("stages, skipped", [
    # the analog stage reads nothing of the uplink transmission
    pytest.param("analog", ("ul_precoder", "ul_combiner", "rate_bits",
                            "residual_si_cov"), id="analog"),
    # a digital frame sends the uplink but does no rate work
    pytest.param("digital", ("ul_combiner", "rate_bits", "residual_si_cov"),
                 id="digital"),
])
def test_run_frame_does_no_work_past_its_stage(monkeypatch, stages, skipped):
    def boom(*args, **kwargs):
        raise AssertionError("called past the stage")
    for name in skipped:
        monkeypatch.setattr(simulator, name, boom)
    rec = run_frame(_small_cfg(), Rng(5).child(0, 0), stages=stages)
    _assert_stage_fields_finite(rec, stages)


@pytest.mark.parametrize("n_rx_b", [1, 2, 3])
@pytest.mark.parametrize("stages", simulator.STAGES)
def test_node_with_fewer_receive_than_transmit_antennas_runs(stages, n_rx_b):
    # an n_rx_b x 4 SI response has a null space; the downlink precoder's
    # weakest right-singular directions must include it
    cfg = _small_cfg(n_rx_b=n_rx_b, frame_symbols=8, train_symbols=2,
                     n_taps=16)
    rec = run_frame(cfg, Rng(3).child(0, 0), stages=stages)
    assert rec.alpha >= 1
    _assert_stage_fields_finite(rec, stages)


_SMALL_CONFIGS = st.fixed_dictionaries({
    "n_tx_b": st.integers(1, 4), "n_rx_b": st.integers(1, 4),
    "n_rx_m1": st.integers(1, 4), "n_tx_m2": st.integers(1, 4),
    "nc": st.sampled_from([16, 32, 64]), "cp_len": st.integers(3, 15),
    "l_dl": st.integers(1, 4), "l_ul": st.integers(1, 4),
    "frame_symbols": st.integers(1, 8), "train_symbols": st.integers(1, 3),
    "greedy_taps": st.booleans(),
    "attenuation_step_db": st.sampled_from([0.0, 0.02]),
    "phase_step_deg": st.sampled_from([0.0, 0.13]),
    "irr_db": st.sampled_from([None, 30.0]),
    "iip3_dbm": st.sampled_from([None, 15.0]),
    "channel_mse_db": st.sampled_from([None, -20.0]),
})


@settings(deadline=None, max_examples=200)
@given(params=_SMALL_CONFIGS, stages=st.sampled_from(simulator.STAGES),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_a_config_a_campaign_accepts_runs(params, stages, seed, data):
    # every small config that validates, at a stages value its campaign
    # accepts, gives a record or a NumericalError; a numpy floating-point
    # warning fails the test
    params["n_data"] = 2 * data.draw(st.integers(1, params["nc"] // 2 - 1))
    cfg = SystemConfig(n_taps=1, **params)
    lines = len(np.unique(cfg.si_delay_samples))
    cfg = cfg.override(n_taps=data.draw(
        st.integers(1, cfg.n_rx_b * cfg.n_tx_b * lines)))
    try:
        ScenarioSpec(config=cfg, stages=stages, runs=1, seed=seed)
    except ConfigError:
        assume(False)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            rec = run_frame(cfg, Rng(seed).child(0, 0), stages=stages)
    except numerics.NumericalError:
        return
    assert 1 <= rec.alpha <= cfg.dl_streams


def _bench_layers(name):
    """A (module, function) list assigned at the top of perfbench/bench.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not assigned in {path}")


def test_benchmark_layers_resolve_on_their_owners():
    # the benchmark wraps each layer where fdlink looks it up: numerics on
    # fdlink.numerics, the other frame layers on fdlink.simulator, and the
    # campaign layers on fdlink.cli
    layers = [(module, func, numerics if module == "numerics" else simulator)
              for module, func in _bench_layers("FRAME_LAYERS")]
    layers += [(module, func, cli) for module, func in
               _bench_layers("CLI_LAYERS")]
    assert len(layers) > 20
    for module, func, owner in layers:
        defined = getattr(importlib.import_module(f"fdlink.{module}"), func)
        assert getattr(owner, func, None) is defined, (module, func)


# --- PSD estimate ------------------------------------------------------------

def test_compute_psd_white_noise_level_and_sum():
    gen = Rng(8).generator
    nc, cp, n_sym = 64, 16, 200
    var = 2.5e-9
    frames = complex_normal(gen, (4, n_sym * (nc + cp)), var=var)
    psd = compute_psd(frames, nc, cp)
    assert psd.shape == (nc,)
    level_db = 10 * np.log10(psd / (var / nc))
    assert np.max(np.abs(level_db)) < 1.0
    # unitary DFT: the bin sum equals the mean per-sample body power
    bodies = frames.reshape(4, n_sym, nc + cp)[:, :, cp:]
    assert np.sum(psd) == pytest.approx(np.mean(np.abs(bodies) ** 2), rel=1e-12)


@pytest.mark.parametrize("name", ["wifi20", "lte20"])
def test_compute_psd_row_blocks_equal_one_mean(name):
    # the antenna blocks, with the running sum carried in the buffer's first
    # row, keep the bits of one mean over symbols and antennas; also on the
    # payload slice of a longer frame, as run_frame passes it
    cfg = preset(name)
    nc, cp = cfg.nc, cfg.cp_len
    pay = cfg.train_symbols * (nc + cp)
    y = complex_normal(Rng(9).generator,
                       (4, pay + cfg.frame_symbols * (nc + cp)), var=1e-7)
    for frame in (y, y[:, pay:], y[:3, pay:]):
        want = np.mean(np.abs(ofdm_demodulate(frame, nc, cp)) ** 2,
                       axis=(0, 2)) / nc
        assert np.array_equal(compute_psd(frame, nc, cp), want)


# --- scenarios ---------------------------------------------------------------

def test_scenario_labels_and_validation():
    spec = ScenarioSpec(name="t", sweep=[{}, {"p_b_dbm": 40.0, "n_taps": 16},
                                         {"label": "x", "p_b_dbm": 20.0}])
    assert spec.point_label(spec.sweep[0]) == "base"
    assert spec.point_label(spec.sweep[1]) == "n_taps=16,p_b_dbm=40.0"
    assert spec.point_label(spec.sweep[2]) == "x"
    with pytest.raises(ConfigError):
        ScenarioSpec(name="t", stages="quantum")
    with pytest.raises(ConfigError):
        ScenarioSpec(name="t", sweep=[])
    with pytest.raises(ConfigError):
        ScenarioSpec(name="t", sweep=[{"no_such_knob": 1}])


def test_sweep_point_with_unknown_key_is_a_config_error():
    # SystemConfig.override is the one unknown-key check, for a sweep point
    # as for a config file
    with pytest.raises(ConfigError, match=r"sweep point 'frobnicate=1': "
                       r"unknown config fields: \['frobnicate'\]"):
        ScenarioSpec(sweep=[{"frobnicate": 1}])
    with pytest.raises(ConfigError, match="unknown config fields"):
        SystemConfig().override(frobnicate=1)


def test_sweep_point_error_names_the_field_and_stays_short():
    with pytest.raises(ConfigError) as err:
        ScenarioSpec(sweep=[{"lambda_b_dbm": 2 ** 1100}])
    msg = str(err.value)
    assert msg.startswith("sweep point 'lambda_b_dbm=1358298'...: "
                          "lambda_b_dbm must be finite")
    assert len(msg) < 140, len(msg)


def test_sweep_labels_need_distinct_plain_psd_file_names(tmp_path):
    with pytest.raises(ConfigError, match=r"sweep labels 'p=30' and 'p-30' "
                       r"both write psd_p-30\.csv"):
        ScenarioSpec(sweep=[{"label": "p=30"}, {"label": "p-30"}])
    for label in ("a/b", "a\\b", "a\0b"):
        with pytest.raises(ConfigError, match="path separator"):
            ScenarioSpec(sweep=[{"label": label}])
    # a label's PSD file is the one write_scenario_outputs writes
    spec = ScenarioSpec(name="t", config=_small_cfg(), runs=1,
                        stages="digital",
                        sweep=[{"label": "p = 30, x"}, {"label": "p=40"}])
    write_scenario_outputs(monte_carlo(spec), tmp_path)
    assert sorted(p.name for p in tmp_path.glob("psd_*")) == [
        "psd_p-30_x.csv", "psd_p-40.csv"]


def test_scenario_dict_round_trip():
    d = {"name": "t", "config": SMALL, "sweep": [{"p_b_dbm": 25.0}],
         "runs": 2, "seed": 7, "stages": "digital"}
    spec = ScenarioSpec.from_dict(json.loads(json.dumps(d)))
    assert spec == ScenarioSpec(name="t", config=_small_cfg(),
                                sweep=[{"p_b_dbm": 25.0}], runs=2, seed=7,
                                stages="digital")
    with pytest.raises(ConfigError):
        ScenarioSpec.from_dict({"name": "t", "mystery": 1})


def test_scenario_run_and_seed_defaults():
    spec = ScenarioSpec.from_dict({"config": SMALL})
    assert spec.runs == 100 and spec.seed == 1 and spec.name == "scenario"
    assert spec.sweep == [{}] and spec.stages == "full"
    for key in ("runs", "seed"):
        with pytest.raises(ConfigError, match=key):
            ScenarioSpec(name="t", **{key: None})


@pytest.mark.parametrize("streams", [1, 2, 4])
def test_full_scenario_needs_two_payload_symbols_per_stream(streams):
    # the rate fit solves `streams` unknowns per bin from the payload and
    # estimates a streams x streams covariance from what is left over
    cfg = SystemConfig(d_b=streams, d_m2=streams, train_symbols=2)
    ok = [{"frame_symbols": 2 * streams}]
    short = [{"frame_symbols": 2 * streams - 1}]
    spec = ScenarioSpec(name="t", config=cfg, sweep=ok)
    rec = run_frame(spec.points[0][1], Rng(3).child(0, 0))
    assert np.isfinite(rec.ul_rate) and np.isfinite(rec.dl_rate)
    with pytest.raises(ConfigError, match="frame_symbols"):
        ScenarioSpec(name="t", config=cfg, sweep=short)
    for stages in ("analog", "digital"):
        ScenarioSpec(name="t", config=cfg, sweep=short, stages=stages)


# --- Monte Carlo -------------------------------------------------------------

def test_monte_carlo_reproducible_csv_bytes(tmp_path):
    spec = ScenarioSpec(name="t", config=_small_cfg(),
                        sweep=[{}, {"p_b_dbm": 40.0}], runs=2,
                        stages="digital")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_runs_csv(monte_carlo(spec), p1)
    write_runs_csv(monte_carlo(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_bytes()) > 100


def test_monte_carlo_parallel_matches_serial(tmp_path):
    # the short payload (n_train 158, not 0 or 7 mod 8) gives canceller
    # products that OpenBLAS rounds differently at one and two threads
    short = _small_cfg(cp_len=15, train_symbols=2, frame_symbols=8)
    for i, (cfg, seed) in enumerate([(_small_cfg(), 1), (short, 3)]):
        spec = ScenarioSpec(name="t", config=cfg, seed=seed,
                            sweep=[{}, {"p_b_dbm": 40.0}], runs=2,
                            stages="digital")
        d1, d2 = tmp_path / f"serial{i}", tmp_path / f"parallel{i}"
        write_scenario_outputs(monte_carlo(spec, workers=1), d1)
        write_scenario_outputs(monte_carlo(spec, workers=2), d2)
        for name in ("runs.csv", "aggregates.csv", "psd_base.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), \
                (cfg.cp_len, name)


def test_long_frame_campaign_parallel_matches_serial(tmp_path):
    # lte20 frames span many apply_channel blocks, and its canceller fit
    # runs eigh on a 144 x 144 G, which can round apart at other thread counts
    spec = ScenarioSpec(name="t", config=preset("lte20"), runs=2, seed=1,
                        stages="digital")
    d1, d2 = tmp_path / "serial", tmp_path / "parallel"
    write_scenario_outputs(monte_carlo(spec, workers=1), d1)
    write_scenario_outputs(monte_carlo(spec, workers=2), d2)
    names = sorted(p.name for p in d1.glob("*.csv"))
    assert "psd_base.csv" in names
    assert names == sorted(p.name for p in d2.glob("*.csv"))
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


@pytest.mark.parametrize("name, stages, bound", [
    # lte20 `analog`: 48 MB while the SI frame lived on past its PSD and the
    # transmit chain, the noise draw, the powers and the PSDs made
    # frame-sized temporaries; 39 MB with si_rx freed before the analog
    # residual is made and those kernels run a block at a time
    pytest.param("lte20", "analog", 45e6, id="analog"),
    # lte20 `digital`: 226 MB when the monomial basis was built for the
    # whole frame, 110 MB with it built per apply_channel block and each
    # array freed after its last use, 62 MB with each frame array reduced
    # where it is made (the ADC quantizing the training window only, the
    # uplink sent as payload only), 47 MB with the kernels that pass over a
    # whole frame run a block at a time and si_rx freed before the analog
    # residual is made; the bound sits about 8 MB above that
    pytest.param("lte20", "digital", 55e6, id="digital"),
    # lte20 `full`: 216 MB while the transmit, distortion and uplink frames
    # lived to the end of the frame, 158 MB with the rate work ahead of the
    # ADC, 80 MB with the distortion covariances taken after each TX chain,
    # the downlink rate after the SI convolutions and the half-duplex
    # baseline last, 70 MB with the uplink sent first and the downlink rate
    # taken before the SI convolutions; the bound sits about two frame-long
    # (4 x 144672) arrays above 70 MB
    pytest.param("lte20", "full", 90e6, id="full"),
    # nr100 `digital`, the largest preset (its payload carries 1620 data
    # bins): 111 MB before the arrays were reduced where they are made,
    # 62 MB after, 50 MB with the block-wise kernels; the same bound as lte20
    pytest.param("nr100", "digital", 55e6, id="nr100-digital"),
])
def test_long_frame_memory_is_bounded(name, stages, bound):
    # traced peak of numpy arrays in one frame (seed 1)
    tracemalloc.start()
    try:
        run_frame(preset(name), Rng(1).child(0, 0), stages=stages)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"{peak / 1e6:.1f} MB"


def test_monte_carlo_counts_numerical_failures(monkeypatch):
    def boom(cfg, rng, stages="full", run_id=0, sweep_point=""):
        raise numerics.NumericalError("synthetic breakdown")
    monkeypatch.setattr(simulator, "run_frame", boom)
    spec = ScenarioSpec(name="t", config=_small_cfg(), runs=3)
    result = monte_carlo(spec)
    assert len(result.failures) == result.attempted == 3
    label, run_id, msg = result.failures[0]
    assert label == "base" and run_id == 0 and "synthetic" in msg
    assert result.aggregate() == {"base": {}}


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_survives_non_numerical_failure(monkeypatch, workers):
    real_run_frame = simulator.run_frame

    def flaky(cfg, rng, stages="full", run_id=0, sweep_point=""):
        if run_id == 1:
            raise ValueError("synthetic bug")
        return real_run_frame(cfg, rng, stages=stages, run_id=run_id,
                              sweep_point=sweep_point)
    monkeypatch.setattr(simulator, "run_frame", flaky)
    spec = ScenarioSpec(name="t", config=_small_cfg(), runs=3,
                        stages="analog")
    result = monte_carlo(spec, workers=workers)   # forked workers see flaky
    assert [r.run_id for r in result.records] == [0, 2]
    assert result.failures == [("base", 1, "ValueError: synthetic bug")]


def test_monte_carlo_pool_forks_no_idle_workers(monkeypatch):
    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def start(self):
        started.append(self)
        real_start(self)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    spec = ScenarioSpec(name="t", config=_small_cfg(), runs=2,
                        stages="analog")
    result = monte_carlo(spec, workers=8)
    assert len(result.records) == 2
    assert len(started) == 2


@pytest.mark.parametrize("workers", [0, -3, 1.5, True])
def test_monte_carlo_rejects_bad_worker_count(workers):
    spec = ScenarioSpec(name="t", config=_small_cfg(), runs=1,
                        stages="analog")
    with pytest.raises(ConfigError, match="workers"):
        monte_carlo(spec, workers=workers)


_FIRST_FRAME_MODULES = """
import json
import sys
from fdlink import simulator
from fdlink.config_units import SystemConfig
from fdlink.simulator import ScenarioSpec, monte_carlo

def probe(cfg, rng, stages="full", run_id=0, sweep_point=""):
    return ["numpy.random" in sys.modules, "numpy.fft" in sys.modules]

simulator.run_frame = probe
spec = ScenarioSpec(name="t", config=SystemConfig(), runs=4, stages="analog")
# were numpy.random loaded here already, the check would prove nothing
assert "numpy.random" not in sys.modules and "numpy.fft" not in sys.modules
print(json.dumps(monte_carlo(spec, workers=2).records))
"""


def test_pool_workers_start_with_numpy_lazy_modules_loaded():
    # a fresh interpreter: pytest itself has loaded numpy.random long ago
    proc = subprocess.run([sys.executable, "-c", _FIRST_FRAME_MODULES],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[True, True]] * 4


_DYING_WORKER = """
import json
import multiprocessing
import os
import signal
from dataclasses import asdict
import numpy as np
from fdlink import simulator
from fdlink.config_units import SystemConfig
from fdlink.simulator import ScenarioSpec, monte_carlo

PARENT = os.getpid()
real_run_frame = simulator.run_frame

def killed_on_run_1(cfg, rng, stages="full", run_id=0, sweep_point=""):
    # as the kernel's OOM killer would kill a worker; never this process
    if run_id == 1 and os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_run_frame(cfg, rng, stages=stages, run_id=run_id,
                          sweep_point=sweep_point)

alive = []
real_start = multiprocessing.context.ForkProcess.start

def start(self):
    real_start(self)
    alive.append(len(multiprocessing.active_children()))

multiprocessing.context.ForkProcess.start = start
cfg = SystemConfig().override(frame_symbols=12, train_symbols=4)
spec = ScenarioSpec(name="t", config=cfg, runs=6, stages="analog")
clean = monte_carlo(spec, workers=1)
simulator.run_frame = killed_on_run_1
result = monte_carlo(spec, workers=2)
# NaN metrics compare equal, PSD arrays element by element
np.testing.assert_equal(
    [asdict(r) for r in result.records],
    [asdict(r) for r in clean.records if r.run_id != 1])
print(json.dumps({"failures": result.failures, "started": len(alive),
                  "most_alive": max(alive),
                  "left": len(multiprocessing.active_children())}))
"""


def test_monte_carlo_records_a_worker_that_dies():
    # a worker killed mid-run used to hang the campaign for good, so the
    # campaign runs in a child process under a timeout
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKER],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["failures"] == [["base", 1, "WorkerDied: signal 9"]]
    assert got["started"] == 3          # the two workers and one replacement
    assert got["most_alive"] == 2
    assert got["left"] == 0


class _ParentStops(Exception):
    pass


@pytest.mark.parametrize("fault", [None, "run raises"])
def test_no_worker_outlives_a_campaign(monkeypatch, fault):
    real_run_frame = simulator.run_frame

    def flaky(cfg, rng, stages="full", run_id=0, sweep_point=""):
        if run_id == 1:
            raise ValueError("synthetic bug")
        return real_run_frame(cfg, rng, stages=stages, run_id=run_id,
                              sweep_point=sweep_point)
    if fault:
        monkeypatch.setattr(simulator, "run_frame", flaky)
    spec = ScenarioSpec(name="t", config=_small_cfg(), runs=4,
                        stages="analog")
    result = monte_carlo(spec, workers=2)
    assert len(result.failures) == (fault is not None)
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_campaign_whose_parent_raises(monkeypatch):
    real_wait = multiprocessing.connection.wait
    alive = []

    def wait(conns, timeout=None):     # raises after the first result
        alive.append(len(multiprocessing.active_children()))
        if len(alive) > 1:
            raise _ParentStops
        return real_wait(conns, timeout)
    monkeypatch.setattr(multiprocessing.connection, "wait", wait)
    spec = ScenarioSpec(name="t", config=_small_cfg(), runs=4,
                        stages="analog")
    with pytest.raises(_ParentStops):
        monte_carlo(spec, workers=2)
    assert alive == [2, 2]
    assert multiprocessing.active_children() == []


def test_pooled_runs_travel_as_run_indices(monkeypatch):
    # the workers inherit the tasks, so no SystemConfig is pickled to them
    spec = ScenarioSpec(name="t", config=_small_cfg(),
                        sweep=[{}, {"p_b_dbm": 40.0}], runs=2,
                        stages="analog")
    serial = monte_carlo(spec, workers=1)

    def unpicklable(self, protocol):
        raise pickle.PicklingError("a SystemConfig was pickled")
    monkeypatch.setattr(SystemConfig, "__reduce_ex__", unpicklable)
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(spec.config)
    pooled = monte_carlo(spec, workers=2)
    # NaN metrics compare equal, PSD arrays element by element
    np.testing.assert_equal([asdict(r) for r in pooled.records],
                            [asdict(r) for r in serial.records])


_WARM_CAMPAIGN_FAULTS = """
import contextlib
import io
import json
import resource
import sys
from fdlink import cli

spec, out = sys.argv[1], sys.argv[2]
with open(spec, "w") as f:
    json.dump({"name": "warm", "runs": 10, "seed": 1, "stages": "full"}, f)

def campaign():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--spec", spec, "--out", out]) == 0

campaign()              # the first campaign grows the heap
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
campaign()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="keep_heap tunes glibc's malloc only")
def test_cli_frames_reuse_the_heap(tmp_path):
    # glibc used to unmap every frame array when it was freed, so each wifi20
    # full frame faulted about 1 200 pages in again
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_CAMPAIGN_FAULTS,
         str(tmp_path / "warm.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 50


def test_aggregate_and_curve_extraction():
    spec = ScenarioSpec(name="t", config=_small_cfg(),
                        sweep=[{"p_b_dbm": 20.0}, {"p_b_dbm": 40.0}],
                        runs=2, stages="analog")
    result = monte_carlo(spec)
    agg = result.aggregate()
    for label, _ in spec.points:
        mean, err, n = agg[label]["analog_supp_db"]
        assert n == 2 and np.isfinite(mean) and err >= 0
        assert "fd_rate" not in agg[label]       # all-nan metrics drop out
    xs, means, errs, ns = curve_from_result(result, "analog_supp_db",
                                            "p_b_dbm")
    assert xs == [20.0, 40.0] and ns == [2, 2]


def test_mean_psd_and_failure_free(tmp_path):
    spec = ScenarioSpec(name="t", config=_small_cfg(), runs=2,
                        stages="digital")
    result = monte_carlo(spec)
    assert result.failures == []
    psd = result.mean_psd("base")
    assert psd.shape == (64,) and np.all(psd > 0)
    paths = write_scenario_outputs(result, tmp_path / "o")
    names = {os.path.basename(p) for p in paths}
    assert names == {"runs.csv", "aggregates.csv", "psd_base.csv"}
    lines = (tmp_path / "o" / "psd_base.csv").read_text().splitlines()
    assert lines[0] == "freq_hz,psd_dbm"
    freqs = [float(l.split(",")[0]) for l in lines[1:]]
    assert freqs == sorted(freqs) and len(freqs) == 64


# --- figure presets ----------------------------------------------------------

def test_figure_scenarios_cover_all_figures():
    for fig in simulator.FIGURES:
        items = figure_scenarios(fig, runs=1)
        assert items
        for sc, metric, x_key, curve in items:
            assert sc.runs == 1
            assert metric in simulator.METRIC_FIELDS
    # without runs, the presets keep ScenarioSpec's default run count
    assert {sc.runs for sc, *_ in figure_scenarios("fig8")} == {100}
    with pytest.raises(ConfigError):
        figure_scenarios("fig99")


def test_reproduce_writes_curve_files(tmp_path):
    written, failures, attempted = reproduce("fig6", tmp_path / "r", runs=1)
    assert failures == 0 and attempted == 5
    names = {os.path.basename(p) for p in written}
    assert "fig6_tsvd_digital_supp_db.csv" in names
    assert "fig6_linear_linear_supp_db.csv" in names
    curve = (tmp_path / "r" / "fig6_tsvd_digital_supp_db.csv").read_text()
    assert curve.splitlines()[0] == "train_symbols,mean,stderr,n"
    assert len(curve.splitlines()) == 6          # header + 5 sweep points


# --- CLI ---------------------------------------------------------------------

def _write_cfg(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_cli_run_bare_config(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL)
    rc = main(["run", "--config", path, "--runs", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "run [base]" in out and "wrote" in out
    assert (tmp_path / "out" / "runs.csv").exists()
    assert (tmp_path / "out" / "aggregates.csv").exists()


def test_cli_run_seed_changes_output(tmp_path):
    path = _write_cfg(tmp_path, SMALL)
    main(["run", "--config", path, "--runs", "1", "--seed", "1",
          "--out", str(tmp_path / "s1")])
    main(["run", "--config", path, "--runs", "1", "--seed", "1",
          "--out", str(tmp_path / "s1b")])
    main(["run", "--config", path, "--runs", "1", "--seed", "2",
          "--out", str(tmp_path / "s2")])
    a = (tmp_path / "s1" / "runs.csv").read_bytes()
    assert a == (tmp_path / "s1b" / "runs.csv").read_bytes()
    assert a != (tmp_path / "s2" / "runs.csv").read_bytes()


def test_cli_sweep_scenario_file(tmp_path, capsys):
    spec = {"name": "demo", "config": SMALL,
            "sweep": [{"p_b_dbm": 20.0}, {"p_b_dbm": 40.0}],
            "runs": 1, "stages": "analog"}
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    rc = main(["sweep", "--spec", str(p), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "demo [p_b_dbm=20.0]" in out and "demo [p_b_dbm=40.0]" in out


def test_cli_config_errors(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nonsense")
    assert main(["run", "--config", str(bad_json)]) == 2
    unknown = _write_cfg(tmp_path, {"frobnicate": 1})
    assert main(["run", "--config", unknown]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


@pytest.mark.parametrize("key", ["adc_papr_db", "adc_dynamic_range_db",
                                 "bandwidth_hz", "data_subcarriers",
                                 "tap_quantization"])
def test_cli_rejects_removed_config_keys(tmp_path, capsys, key):
    # these keys once were accepted and changed nothing
    path = _write_cfg(tmp_path, {key: 10.0})
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "unknown config fields" in err and key in err


@pytest.mark.parametrize("key,value", [
    ("si_delays_ns", None), ("n_taps", "8"), ("nc", 64.5),
    ("si_delays_ns", 5), ("adc_auto_range", "no"), ("p_b_dbm", "40")])
def test_cli_rejects_wrongly_typed_config_values(tmp_path, capsys, key,
                                                 value):
    path = _write_cfg(tmp_path, {key: value})
    assert main(["run", "--config", path, "--runs", "1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("key,value", [
    ("runs", "3"), ("seed", "5"), ("runs", 0), ("runs", -2),
    pytest.param("seed", -1, id="seed-negative"),
    pytest.param("seed", 2 ** 1100, id="seed-beyond-float-range"),
    pytest.param("sweep", [], id="sweep-empty"),
    pytest.param("sweep", "abc", id="sweep-string"),
    pytest.param("sweep", [1, 2], id="sweep-numbers"),
    pytest.param("config", 5, id="config-number"),
    # a full run fits 4 streams per bin; 4 payload symbols read ~416
    # bits/s/Hz, 5 to 7 mostly fail on a singular covariance
    pytest.param("config", {"frame_symbols": 4, "train_symbols": 2},
                 id="config-payload-4"),
    pytest.param("config", {"frame_symbols": 7, "train_symbols": 2},
                 id="config-payload-7"),
    pytest.param("sweep", [{"p_b_dbm": 30.0},
                           {"label": "p_b_dbm=30.0", "p_b_dbm": 40.0}],
                 id="sweep-duplicate-label"),
    pytest.param("sweep", [{}, {}], id="sweep-duplicate-base"),
    # the two labels name one PSD file, so one overwrote the other; the
    # next label leaves the output directory and the last names a file
    # longer than 255 bytes, so both failed after the whole campaign ran
    pytest.param("sweep", [{"label": "p=30"}, {"label": "p-30"}],
                 id="sweep-same-psd-file"),
    pytest.param("sweep", [{"label": "a/b"}], id="sweep-label-path"),
    pytest.param("sweep", [{"label": "x" * 300}], id="sweep-label-too-long"),
    pytest.param("sweep", [{"seed": 9}], id="sweep-sets-seed"),
    pytest.param("sweep", [{"mc_runs": 5}], id="sweep-sets-mc_runs")])
def test_cli_rejects_bad_scenario_values(tmp_path, capsys, key, value):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps({"name": "demo", "config": SMALL, "runs": 1,
                             key: value}))
    assert main(["sweep", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["config", "sweep"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                     pytest.param(str(2 ** 1100), id="2**1100")])
def test_cli_rejects_non_finite_numbers_before_any_run(tmp_path, capsys,
                                                       monkeypatch, where,
                                                       literal):
    # json reads these literals; a NaN threshold once flagged no saturation
    # and let every run complete
    def boom(*args, **kwargs):
        raise AssertionError("a frame ran")
    monkeypatch.setattr(simulator, "run_frame", boom)
    bad = '{"lambda_b_dbm": %s}' % literal
    config, sweep = ((bad, "[{}]") if where == "config"
                     else (json.dumps(SMALL), "[%s]" % bad))
    p = tmp_path / "scn.json"
    p.write_text('{"name": "demo", "runs": 1, "config": %s, "sweep": %s}'
                 % (config, sweep))
    assert main(["sweep", "--spec", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "lambda_b_dbm" in err and "finite" in err
    assert not (tmp_path / "o").exists()


def test_cli_rejects_negative_config_seed(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL)
    assert main(["run", "--config", path, "--runs", "2", "--seed", "-1",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err
    assert not (tmp_path / "o").exists()
    # the seed and run count are scenario fields, not config fields
    for key in ("seed", "mc_runs"):
        path = _write_cfg(tmp_path, {**SMALL, key: 3})
        assert main(["run", "--config", path, "--runs", "2",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "unknown config fields" in err and key in err
        assert not (tmp_path / "o").exists()


def test_cli_runs_a_scenario_file_without_config_and_sweep(tmp_path):
    # both keys have defaults, so the file is a scenario, not a bare config
    path = _write_cfg(tmp_path, {"name": "s", "runs": 1, "seed": 2,
                                 "stages": "analog"})
    assert main(["sweep", "--spec", path, "--out", str(tmp_path / "o")]) == 0
    runs = (tmp_path / "o" / "runs.csv").read_text().splitlines()
    assert len(runs) == 2 and runs[1].split(",")[1] == "base"


# the wifi20 and lte20 numerologies, and the shortest digital frame
WIFI20 = dict(subcarrier_spacing_hz=312500.0, nc=64, n_data=52, cp_len=16)
LTE20 = dict(subcarrier_spacing_hz=15e3, nc=2048, n_data=1200, cp_len=144)
SHORT = dict(frame_symbols=1, train_symbols=2)


@pytest.mark.parametrize("base,points", [
    ({}, [("half", {"subcarrier_spacing_hz": 156250.0}, 64, 156250.0),
          ("lte", LTE20, 2048, 15e3)]),
    (LTE20, [("wifi", WIFI20, 64, 312500.0)])], ids=["wifi20", "lte20"])
def test_cli_writes_each_psd_on_its_points_fft_grid(tmp_path, base, points):
    spec = tmp_path / "scn.json"
    spec.write_text(json.dumps({
        "config": {**base, **SHORT}, "runs": 1, "stages": "digital",
        "sweep": [{"label": label, **kw} for label, kw, _, _ in points]}))
    assert main(["sweep", "--spec", str(spec),
                 "--out", str(tmp_path / "o")]) == 0
    for label, _, nc, spacing in points:
        freqs = np.loadtxt(tmp_path / "o" / f"psd_{label}.csv",
                           delimiter=",", skiprows=1)[:, 0]
        assert len(freqs) == nc
        assert np.allclose(np.diff(freqs), spacing)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_bad_worker_count(tmp_path, capsys, workers):
    path = _write_cfg(tmp_path, SMALL)
    assert main(["run", "--config", path, "--runs", "1", "--workers", workers,
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["reproduce", "fig3", "--runs", "1", "--workers", workers,
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 2 and "workers" in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "r").exists()


def test_cli_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(cfg, rng, stages="full", run_id=0, sweep_point=""):
        raise numerics.NumericalError("synthetic breakdown")
    monkeypatch.setattr(simulator, "run_frame", boom)
    path = _write_cfg(tmp_path, SMALL)
    rc = main(["run", "--config", path, "--runs", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "2 of 2 runs failed" in capsys.readouterr().err.splitlines()


def test_cli_reproduce_failure_exit_code(tmp_path, monkeypatch, capsys):
    def boom(cfg, rng, stages="full", run_id=0, sweep_point=""):
        raise numerics.NumericalError("synthetic breakdown")
    monkeypatch.setattr(simulator, "run_frame", boom)
    rc = main(["reproduce", "fig7", "--runs", "1",
               "--out", str(tmp_path / "fig7")])
    assert rc == 3
    assert "1 of 1 runs failed" in capsys.readouterr().err.splitlines()


def test_cli_reproduce(tmp_path, capsys):
    rc = main(["reproduce", "fig7", "--runs", "1",
               "--out", str(tmp_path / "fig7")])
    assert rc == 0
    out = capsys.readouterr().out
    for which in ("psd_before", "psd_analog", "psd_digital", "psd_noise"):
        assert (tmp_path / "fig7" / f"fig7_{which}.csv").exists(), which


def _child_env():
    """The environment of a child that imports the same fdlink as this
    test, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "fdlink", "--help"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    for cmd in ("run", "sweep", "reproduce"):
        assert cmd in proc.stdout
