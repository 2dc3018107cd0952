"""Analog multi-tap canceller: allocation, routing, quantization, residuals."""

import numpy as np
import pytest

from fdlink.analog_canceller import (AnalogCancellerConfig, build_canceller,
                                     quantize_taps)
from fdlink.channel import apply_channel, to_freq
from fdlink.config_units import ConfigError, Rng, complex_normal


def _channel(gen, n_lines=4, n_rx=4, n_tx=4, scale=1e-2):
    taps = scale * complex_normal(gen, (n_lines, n_rx, n_tx))
    return taps


def test_full_budget_matches_negated_channel():
    gen = Rng(0).generator
    h = _channel(gen)
    cfg = build_canceller(h, 64)
    assert cfg.n_taps == 64
    assert np.allclose(cfg.matrices(), -h, atol=0)


def test_full_budget_cancels_to_numerical_zero():
    gen = Rng(1).generator
    h = _channel(gen)
    cfg = build_canceller(h, 64)
    hf = to_freq(h, 64)
    cf = to_freq(cfg.matrices(), 64)
    assert np.max(np.abs(hf + cf)) < 1e-12 * np.max(np.abs(hf))
    x = complex_normal(gen, (4, 200))
    res = apply_channel(x, h) + apply_channel(x, cfg.matrices())
    assert np.max(np.abs(res)) < 1e-12


def test_delay_major_allocation():
    # 40 taps on a 4x4 with 4 lines: lines get 16, 16, 8, 0
    gen = Rng(2).generator
    h = _channel(gen)
    cfg = build_canceller(h, 40)
    assert [len(t) for t in cfg.taps] == [16, 16, 8, 0]
    c = cfg.matrices()
    assert np.allclose(c[0], -h[0]) and np.allclose(c[1], -h[1])
    # third line is filled tx-column by tx-column: columns 0 and 1 only
    assert np.allclose(c[2][:, :2], -h[2][:, :2])
    assert np.all(c[2][:, 2:] == 0)
    assert np.all(c[3] == 0)


def test_allocation_skips_silent_lines():
    gen = Rng(3).generator
    h = _channel(gen, n_lines=4)
    h[1] = 0.0                               # no estimated energy at delay 1
    cfg = build_canceller(h, 20)
    assert [len(t) for t in cfg.taps] == [16, 0, 4, 0]


def test_budget_bounds():
    gen = Rng(4).generator
    h = _channel(gen, n_lines=2, n_rx=2, n_tx=2)
    with pytest.raises(ConfigError):
        build_canceller(h, 0)
    with pytest.raises(ConfigError):
        build_canceller(h, 9)                # budget is 2*2*2 = 8
    build_canceller(h, 8)                    # boundary is fine


def test_greedy_takes_largest_entries():
    h = np.zeros((2, 2, 2), dtype=complex)
    h[0] = [[1.0, 0.2], [0.1, 0.05]]
    h[1] = [[0.5, 3.0], [0.02, 0.01]]
    cfg = build_canceller(h, 3, greedy=True)
    c = cfg.matrices()
    want = np.zeros_like(h)
    want[1, 0, 1] = -3.0                     # top three magnitudes
    want[0, 0, 0] = -1.0
    want[1, 0, 0] = -0.5
    assert np.allclose(c, want)


def test_greedy_beats_delay_major_on_adversarial_channel():
    # energy concentrated on the last line: greedy must find it
    gen = Rng(5).generator
    h = _channel(gen, scale=1e-4)
    h[3] *= 1000
    x = complex_normal(gen, (4, 400))
    si = apply_channel(x, h)
    res_seq = si + apply_channel(x, build_canceller(h, 16).matrices())
    res_grd = si + apply_channel(
        x, build_canceller(h, 16, greedy=True).matrices())
    assert np.sum(np.abs(res_grd) ** 2) < 0.01 * np.sum(np.abs(res_seq) ** 2)


def test_residual_decreases_with_budget():
    gen = Rng(6).generator
    h = _channel(gen)
    hf = to_freq(h, 64)
    last = np.inf
    for n in (8, 16, 24, 32, 48, 64):
        cf = to_freq(build_canceller(h, n).matrices(), 64)
        res = np.sum(np.abs(hf + cf) ** 2)
        assert res < last
        last = res
    assert last < 1e-20


def test_validate_rejects_bad_routing():
    h = np.ones((1, 2, 2), dtype=complex)
    cfg = build_canceller(h, 4)
    bad = AnalogCancellerConfig([cfg.mux[0] * 2], cfg.taps, cfg.demux, 2, 2)
    with pytest.raises(ConfigError):
        bad.validate()
    twice = cfg.demux[0].copy()
    twice[:, 0] = 1                          # tap 0 feeds both rx chains
    with pytest.raises(ConfigError):
        AnalogCancellerConfig(cfg.mux, cfg.taps, [twice], 2, 2).validate()
    with pytest.raises(ConfigError):
        AnalogCancellerConfig([cfg.mux[0][:2]], cfg.taps, cfg.demux,
                              2, 2).validate()


def test_quantize_magnitude_grid_and_phase_jitter():
    gen = Rng(7).generator
    h = _channel(gen, scale=1e-3)
    cfg = build_canceller(h, 64)
    q = quantize_taps(cfg, gen)
    for w0, w1 in zip(cfg.taps, q.taps):
        db1 = 20 * np.log10(np.abs(w1))
        steps = db1 / cfg.attenuation_step_db
        assert np.allclose(steps, np.round(steps), atol=1e-6)
        dphi = np.angle(w1 / w0)
        assert np.all(np.abs(dphi) <= np.deg2rad(cfg.phase_step_deg / 2) + 1e-12)
        # snapping moves magnitudes by at most half a step
        ddb = db1 - 20 * np.log10(np.abs(w0))
        assert np.all(np.abs(ddb) <= cfg.attenuation_step_db / 2 + 1e-9)


def test_quantize_leaves_zero_taps_and_zero_steps_alone():
    gen = Rng(8).generator
    h = _channel(gen, n_lines=2, n_rx=2, n_tx=2)
    h[1] = 0
    cfg = build_canceller(h, 4)
    q = quantize_taps(cfg, gen)
    assert len(q.taps[1]) == 0
    exact = build_canceller(h, 4, attenuation_step_db=0.0, phase_step_deg=0.0)
    q2 = quantize_taps(exact, gen)
    for w0, w1 in zip(exact.taps, q2.taps):
        # zero step sizes: no grid, no jitter (polar round trip only)
        assert np.allclose(w0, w1, rtol=1e-12, atol=0)


def test_quantization_error_stays_small():
    gen = Rng(9).generator
    h = _channel(gen)
    cfg = quantize_taps(build_canceller(h, 64), gen)
    hf = to_freq(h, 64)
    cf = to_freq(cfg.matrices(), 64)
    rel = np.sum(np.abs(hf + cf) ** 2) / np.sum(np.abs(hf) ** 2)
    # 0.02 dB / 0.13 deg resolution leaves roughly -58 dB of residual
    assert 10 * np.log10(rel) < -50

