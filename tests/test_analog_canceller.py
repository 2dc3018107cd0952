"""Analog multi-tap canceller: allocation, routing, quantization, residuals."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fdlink.analog_canceller import build_canceller, quantize_taps
from fdlink.channel import apply_channel, to_freq
from fdlink.config_units import ConfigError, Rng, complex_normal

ATT_DB, PHASE_DEG = 0.02, 0.13          # SystemConfig's hardware resolution


def _channel(gen, n_lines=4, n_rx=4, n_tx=4, scale=1e-2):
    taps = scale * complex_normal(gen, (n_lines, n_rx, n_tx))
    return taps


def test_full_budget_matches_negated_channel():
    gen = Rng(0).generator
    h = _channel(gen)
    cfg = build_canceller(h, 64)
    assert len(cfg.w) == 64
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
    assert np.bincount(cfg.line, minlength=4).tolist() == [16, 16, 8, 0]
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
    assert np.bincount(cfg.line, minlength=4).tolist() == [16, 0, 4, 0]


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


def test_quantize_magnitude_grid_and_phase_jitter():
    gen = Rng(7).generator
    h = _channel(gen, scale=1e-3)
    cfg = build_canceller(h, 64)
    q = quantize_taps(cfg, gen, ATT_DB, PHASE_DEG)
    w0, w1 = cfg.w, q.w
    db1 = 20 * np.log10(np.abs(w1))
    steps = db1 / ATT_DB
    assert np.allclose(steps, np.round(steps), atol=1e-6)
    dphi = np.angle(w1 / w0)
    assert np.all(np.abs(dphi) <= np.deg2rad(PHASE_DEG / 2) + 1e-12)
    # snapping moves magnitudes by at most half a step
    ddb = db1 - 20 * np.log10(np.abs(w0))
    assert np.all(np.abs(ddb) <= ATT_DB / 2 + 1e-9)


def test_quantize_leaves_zero_taps_and_zero_steps_alone():
    gen = Rng(8).generator
    h = _channel(gen, n_lines=2, n_rx=2, n_tx=2)
    h[1] = 0
    cfg = build_canceller(h, 4)
    q = quantize_taps(cfg, gen, ATT_DB, PHASE_DEG)
    assert not np.any(q.line == 1)
    q2 = quantize_taps(cfg, gen, 0.0, 0.0)
    # zero step sizes: no grid, no jitter (polar round trip only)
    assert np.allclose(cfg.w, q2.w, rtol=1e-12, atol=0)


def test_quantization_error_stays_small():
    gen = Rng(9).generator
    h = _channel(gen)
    cfg = quantize_taps(build_canceller(h, 64), gen, ATT_DB, PHASE_DEG)
    hf = to_freq(h, 64)
    cf = to_freq(cfg.matrices(), 64)
    rel = np.sum(np.abs(hf + cf) ** 2) / np.sum(np.abs(hf) ** 2)
    # 0.02 dB / 0.13 deg resolution leaves roughly -58 dB of residual
    assert 10 * np.log10(rel) < -50



def _routed_channel(seed, shape, silent, p_zero):
    """Random SI estimate with whole silent lines and scattered zeros."""
    gen = np.random.default_rng(seed)
    h = complex_normal(gen, shape)
    h[gen.random(shape) < p_zero] = 0
    h[np.asarray(silent)] = 0
    return h


@settings(deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 4),
                       st.integers(1, 4)),
       silent=st.lists(st.booleans(), min_size=5, max_size=5),
       p_zero=st.sampled_from([0.0, 0.3]),
       greedy=st.booleans(), seed=st.integers(0, 2 ** 16), data=st.data())
def test_tap_list_routing_matches_mux_demux_oracle(shape, silent, p_zero,
                                                   greedy, seed, data):
    n_lines, n_rx, n_tx = shape
    h = _routed_channel(seed, shape, silent[:n_lines], p_zero)
    active = np.any(h != 0, axis=(1, 2))
    assume(np.any(active))
    n = data.draw(st.integers(1, n_rx * n_tx * int(active.sum())))
    cfg = build_canceller(h, n, greedy=greedy)

    assert len(cfg.w) == n
    assert len(set(zip(cfg.line, cfg.rx, cfg.tx))) == n
    assert np.all(np.diff(cfg.line) >= 0) and np.all(active[cfg.line])
    assert np.array_equal(cfg.w, -h[cfg.line, cfg.rx, cfg.tx])
    if greedy:
        picked = np.zeros(shape, dtype=bool)
        picked[cfg.line, cfg.rx, cfg.tx] = True
        left = np.abs(h[~picked & active[:, None, None]])
        assert np.all(np.abs(cfg.w).min() >= left)

    # hardware view: per line a one-hot MUX (taps x n_tx) picks each tap's
    # TX chain and a one-hot DEMUX (n_rx x taps) sums it into its RX chain
    want = np.zeros(shape, dtype=complex)
    for l in range(n_lines):
        k = np.flatnonzero(cfg.line == l)
        mux = np.zeros((len(k), n_tx))
        mux[np.arange(len(k)), cfg.tx[k]] = 1
        demux = np.zeros((n_rx, len(k)))
        demux[cfg.rx[k], np.arange(len(k))] = 1
        want[l] = demux @ np.diag(cfg.w[k]) @ mux
    assert np.array_equal(cfg.matrices(), want)


def _quantize_per_line(canc, gen, attenuation_step_db, phase_step_deg):
    """Reference: quantize one delay line at a time, drawing each line's
    phase errors with its own call."""
    out = []
    half_rad = np.deg2rad(phase_step_deg / 2.0)
    for l in range(canc.shape[0]):
        w = canc.w[canc.line == l].copy()
        nz = w != 0
        if np.any(nz):
            mag = np.abs(w[nz])
            if attenuation_step_db > 0:
                mag_db = 20.0 * np.log10(mag)
                mag = 10.0 ** (np.round(mag_db / attenuation_step_db)
                               * attenuation_step_db / 20.0)
            ph = np.angle(w[nz])
            if phase_step_deg > 0:
                ph = ph + gen.uniform(-half_rad, half_rad, size=ph.shape)
            w[nz] = mag * np.exp(1j * ph)
        out.append(w)
    return np.concatenate(out)


@pytest.mark.parametrize("greedy", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_quantize_draws_in_tap_order_like_per_line_loop(greedy, seed):
    # the golden CSV bytes depend on this stream of phase errors
    h = _routed_channel(seed, (5, 4, 4), [False, True, False, False, False],
                        0.2)
    n = int(np.random.default_rng(seed).integers(1, 64))
    cfg = build_canceller(h, n, greedy=greedy)
    for steps in ((ATT_DB, PHASE_DEG), (0.0, PHASE_DEG), (ATT_DB, 0.0)):
        got = quantize_taps(cfg, Rng(seed).generator, *steps)
        want = _quantize_per_line(cfg, Rng(seed).generator, *steps)
        assert got.w.tobytes() == want.tobytes()
