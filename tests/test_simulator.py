"""Monte Carlo orchestration, CSV outputs, and the CLI front end."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdlink import cli, digital_canceller, numerics, simulator
from fdlink.cli import main
from fdlink.config_units import ConfigError, Rng, SystemConfig, complex_normal
from fdlink.simulator import (MonteCarloResult, ScenarioSpec, compute_psd,
                              curve_from_result, figure_scenarios,
                              monte_carlo, reproduce, run_frame,
                              write_runs_csv, write_scenario_outputs)

SMALL = dict(frame_symbols=12, train_symbols=4, mc_runs=3)


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


def test_run_frame_stage_subsets():
    cfg = _small_cfg()
    rng = Rng(5).child(0, 0)
    ra = run_frame(cfg, rng, stages="analog")
    assert np.isfinite(ra.analog_supp_db) and np.isfinite(ra.residual_si_dbm)
    assert np.isnan(ra.digital_supp_db) and np.isnan(ra.fd_rate)
    assert ra.psd_digital is None
    rd = run_frame(cfg, Rng(5).child(0, 0), stages="digital")
    assert np.isfinite(rd.digital_supp_db) and np.isfinite(rd.isr_db)
    assert np.isnan(rd.fd_rate)
    assert rd.psd_digital is not None
    rf = run_frame(cfg, Rng(5).child(0, 0), stages="full")
    for name in ("analog_supp_db", "digital_supp_db", "total_supp_db",
                 "dl_rate", "ul_rate", "fd_rate", "hd_rate"):
        assert np.isfinite(getattr(rf, name)), name
    # the shared front end is identical across stage subsets
    assert rf.analog_supp_db == ra.analog_supp_db
    assert rf.digital_supp_db == rd.digital_supp_db


def test_run_frame_negligible_si():
    cfg = _small_cfg(si_losses_db=(300.0, 310.0, 310.0, 310.0))
    rec = run_frame(cfg, Rng(6).child(0, 0), stages="analog")
    assert rec.p_saturation == 0
    assert abs(rec.analog_supp_db) < 0.5      # nothing to suppress


def test_run_frame_full_tap_ideal_canceller():
    # perfect CSI + one tap per (delay, rx, tx) pair + exact hardware:
    # the analog stage alone reaches numerical-noise residuals
    cfg = _small_cfg(n_taps=64, tap_quantization=False, channel_mse_db=None)
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


def test_scenario_dict_round_trip():
    spec = ScenarioSpec(name="t", config=_small_cfg(),
                        sweep=[{"p_b_dbm": 25.0}], runs=2, seed=7,
                        stages="digital")
    clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone.name == spec.name and clone.sweep == spec.sweep
    assert clone.runs == 2 and clone.seed == 7 and clone.stages == "digital"
    assert clone.config == spec.config
    with pytest.raises(ConfigError):
        ScenarioSpec.from_dict({"name": "t", "mystery": 1})


def test_scenario_run_and_seed_defaults():
    spec = ScenarioSpec(name="t", config=_small_cfg(seed=11))
    assert spec.n_runs == 3 and spec.rng_seed == 11
    spec2 = ScenarioSpec(name="t", config=_small_cfg(), runs=1, seed=2)
    assert spec2.n_runs == 1 and spec2.rng_seed == 2


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
    spec = ScenarioSpec(name="t", config=_small_cfg(),
                        sweep=[{}, {"p_b_dbm": 40.0}], runs=2,
                        stages="digital")
    d1, d2 = tmp_path / "serial", tmp_path / "parallel"
    write_scenario_outputs(monte_carlo(spec, workers=1), d1)
    write_scenario_outputs(monte_carlo(spec, workers=2), d2)
    for name in ("runs.csv", "aggregates.csv", "psd_base.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


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


def test_aggregate_and_curve_extraction():
    spec = ScenarioSpec(name="t", config=_small_cfg(),
                        sweep=[{"p_b_dbm": 20.0}, {"p_b_dbm": 40.0}],
                        runs=2, stages="analog")
    result = monte_carlo(spec)
    agg = result.aggregate()
    for label in result.labels:
        mean, err, n = agg[label]["analog_supp_db"]
        assert n == 2 and np.isfinite(mean) and err >= 0
        assert "fd_rate" not in agg[label]       # all-nan metrics drop out
    xs, means, errs, ns = curve_from_result(result, spec, "analog_supp_db",
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
            assert sc.n_runs == 1
            assert metric in simulator.METRIC_FIELDS
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


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "fdlink", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("run", "sweep", "reproduce"):
        assert cmd in proc.stdout
