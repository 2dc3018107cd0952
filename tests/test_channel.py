"""Wideband channel generation, convolution, and CSI error injection."""

import numpy as np
import pytest

from fdlink.config_units import (SystemConfig, complex_normal, db_to_linear,
                                 dbm_to_linear, preset)
from fdlink.channel import (BLOCK, apply_channel, direct_coupling_matrix,
                            estimate_with_mse, gen_rayleigh, gen_rician_si,
                            to_freq)
from fdlink.impairments import build_augmented_vector


def _gen(seed=0):
    return np.random.default_rng(seed)


# --- Rayleigh links ----------------------------------------------------------

def test_rayleigh_total_power_matches_pathloss():
    # 10k tap entries: the per-entry power summed over taps is 10^(-PL/10)
    ch = gen_rayleigh(_gen(), n_rx=40, n_tx=50, n_taps=5, pathloss_db=20.0)
    per_entry = np.sum(np.mean(np.abs(ch) ** 2, axis=(1, 2)))
    assert per_entry == pytest.approx(db_to_linear(-20.0), rel=0.05)


def test_rayleigh_profiles():
    ch_u = gen_rayleigh(_gen(1), 30, 30, 4, 0.0, profile="uniform")
    p_u = np.mean(np.abs(ch_u) ** 2, axis=(1, 2))
    assert np.all(np.abs(p_u - 0.25) < 0.05)
    ch_e = gen_rayleigh(_gen(2), 30, 30, 4, 0.0, profile="exponential")
    p_e = np.mean(np.abs(ch_e) ** 2, axis=(1, 2))
    ratios = p_e[:-1] / p_e[1:]
    assert np.all(np.abs(ratios - np.e) < 0.5)
    with pytest.raises(ValueError):
        gen_rayleigh(_gen(), 2, 2, 2, 0.0, profile="flat")


def test_link_budget_through_channel():
    # white TX at total power P through a PL-dB channel lands at P - PL
    gen = _gen(3)
    pl = 60.0
    ch = gen_rayleigh(gen, 16, 16, 4, pl)
    p_tx_w = dbm_to_linear(30.0)
    x = np.sqrt(p_tx_w / 16 / 2) * (gen.standard_normal((16, 8192))
                                    + 1j * gen.standard_normal((16, 8192)))
    y = apply_channel(x, ch)
    # each rx antenna hears every tx antenna, so the per-antenna average
    # equals the full transmit power through the pathloss
    p_rx = np.mean(np.abs(y) ** 2)
    want_db = 30.0 - pl
    got_db = 10 * np.log10(p_rx / 1e-3)
    assert got_db == pytest.approx(want_db, abs=0.5)


# --- convolution against a reference ----------------------------------------

def _convolve_oracle(x, taps):
    _, n_rx, n_tx = taps.shape
    want = np.zeros((n_rx, x.shape[1]), dtype=complex)
    for j in range(n_rx):
        for i in range(n_tx):
            want[j] += np.convolve(taps[:, j, i], x[i])[:x.shape[1]]
    return want


def test_apply_channel_equals_reference_convolution():
    gen = _gen(4)
    taps = gen.standard_normal((3, 2, 4)) + 1j * gen.standard_normal((3, 2, 4))
    x = gen.standard_normal((4, 50)) + 1j * gen.standard_normal((4, 50))
    y = apply_channel(x, taps)
    assert np.allclose(y, _convolve_oracle(x, taps), atol=1e-12)


# frame lengths around the block edges of the stacked product
_BLOCK_EDGES = list(dict.fromkeys(
    (n_lines, n_samp) for n_lines in (5, 1)
    for n_samp in (1, n_lines - 1, n_lines, BLOCK - 1, BLOCK, BLOCK + 1,
                   2 * BLOCK + n_lines - 1) if n_samp > 0))


@pytest.mark.parametrize("n_lines,n_samp", _BLOCK_EDGES)
def test_apply_channel_across_block_edges(n_lines, n_samp):
    gen = _gen(n_lines * 7919 + n_samp)
    taps = (gen.standard_normal((n_lines, 2, 3))
            + 1j * gen.standard_normal((n_lines, 2, 3)))
    x = gen.standard_normal((3, n_samp)) + 1j * gen.standard_normal((3, n_samp))
    got = apply_channel(x, taps)
    want = _convolve_oracle(x, taps)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


def test_apply_channel_zero_history():
    taps = np.zeros((2, 1, 1), dtype=complex)
    taps[1, 0, 0] = 1.0                      # pure one-sample delay
    x = np.arange(1.0, 6.0)[None, :]
    y = apply_channel(x, taps)
    assert np.allclose(y[0], [0, 1, 2, 3, 4])


def _dense_apply_channel(x, taps, basis=None):
    """apply_channel as it was before it skipped all-zero delay lines: every
    line of the stack in the stacked product and the shifted adds. The
    byte-exact oracle of the tapped-lines-only convolution."""
    x = np.atleast_2d(np.asarray(x))
    n_lines, n_rx, n_tx = taps.shape
    n_samp = x.shape[1]
    stacked = taps.reshape(n_lines * n_rx, n_tx)
    y = np.empty((n_rx, n_samp), dtype=complex)
    buf = np.empty((len(stacked), min(BLOCK + n_lines - 1, n_samp)), complex)
    for k0 in range(0, n_samp, BLOCK):
        k1 = min(k0 + BLOCK, n_samp)
        h0 = max(k0 - n_lines + 1, 0)
        u = x[:, h0:k1] if basis is None else basis(x[:, h0:k1])
        p = np.matmul(stacked, u, out=buf[:, :k1 - h0])
        p = p.reshape(n_lines, n_rx, k1 - h0)
        y[:, k0:k1] = p[0, :, k0 - h0:]
        for l in range(1, min(n_lines, k1)):
            lo = max(k0, l)
            y[:, lo:k1] += p[l, :, lo - l - h0:k1 - l - h0]
    return y


def _bytes(y):
    """y's bytes with -0 read as +0. An output no tapped line reaches is an
    exact zero in both loops, but the dense loop's product of all-zero
    lines gives it either sign, depending on the data; adding +0 maps -0 to
    +0 and leaves every other value as it is."""
    return (y + 0j).tobytes()


def _tapped(gen, n_lines, tapped, n_rx, n_tx):
    taps = np.zeros((n_lines, n_rx, n_tx), dtype=complex)
    taps[tapped] = complex_normal(gen, (len(tapped), n_rx, n_tx))
    return taps


# (stack length, tapped lines, frame length, receive antennas): the SI
# stacks of lte20 and nr100, an empty first line, empty interior lines,
# empty trailing lines, an all-zero stack, stacks longer than the frame,
# frames across the stacked product's block edges, and one receive antenna
# with one tapped line, a one-row product (which a matrix-vector product
# would round differently at three transmit antennas)
_SPARSE = [
    (6, [0, 2, 3, 5], 2 * BLOCK + 17, 2),
    (19, [0, 6, 12, 18], 2 * BLOCK + 3, 2),
    (8, [3, 7], BLOCK + 5, 2),
    (8, [2, 5], BLOCK - 1, 2),
    (8, [1, 4], BLOCK, 2),
    (9, [0, 1], BLOCK + 1, 2),
    (7, [], 300, 2),
    (12, [4, 9], 6, 2),
    (12, [10], 6, 2),
    (12, [0, 11], 11, 2),
    (5, [0, 1, 2, 3, 4], 2 * BLOCK + 4, 2),
    (6, [0], 200, 1),
    (6, [3], 200, 1),
    (6, [2, 5], 200, 1),
]


@pytest.mark.parametrize("n_lines,tapped,n_samp,n_rx", _SPARSE)
def test_apply_channel_bytes_equal_the_dense_line_loop(n_lines, tapped,
                                                       n_samp, n_rx):
    gen = _gen(n_lines * 7919 + n_samp)
    taps = _tapped(gen, n_lines, tapped, n_rx, 3)
    x = complex_normal(gen, (3, n_samp))
    got = apply_channel(x, taps)
    assert _bytes(got) == _bytes(_dense_apply_channel(x, taps))


@pytest.mark.parametrize("n_lines,tapped,n_samp", [
    (6, [1, 3, 5], BLOCK + 9),
    (4, [0, 3], 2 * BLOCK),
    (3, [], 40),
])
def test_apply_channel_over_a_basis_bytes_equal_the_dense_line_loop(
        n_lines, tapped, n_samp):
    gen = _gen(n_lines + n_samp)
    taps = _tapped(gen, n_lines, tapped, 2, 12)     # 6 monomials of 2 inputs
    x = complex_normal(gen, (2, n_samp))
    got = apply_channel(x, taps, build_augmented_vector)
    want = _dense_apply_channel(x, taps, build_augmented_vector)
    assert _bytes(got) == _bytes(want)


# --- frequency responses -----------------------------------------------------

def test_to_freq_single_delay_phase_ramp():
    nc = 64
    taps = np.zeros((4, 1, 1), dtype=complex)
    taps[3, 0, 0] = 2.0 - 1.0j
    h = to_freq(taps, nc)
    n = np.arange(nc)
    want = (2.0 - 1.0j) * np.exp(-2j * np.pi * 3 * n / nc)
    assert np.allclose(h[:, 0, 0], want, atol=1e-12)


def test_to_freq_flat_for_delay_zero():
    taps = np.zeros((1, 2, 2), dtype=complex)
    taps[0] = np.array([[1, 2], [3, 4]])
    h = to_freq(taps, 16)
    assert np.allclose(h, np.broadcast_to(taps[0], (16, 2, 2)))


def test_to_freq_rejects_overlong_channel():
    with pytest.raises(ValueError):
        to_freq(np.zeros((65, 1, 1), dtype=complex), 64)


def test_cp_makes_channel_diagonal_per_subcarrier():
    # keystone: with L-1 <= cp the demodulated symbols see H_n exactly
    from fdlink.waveform import draw_symbols, ofdm_demodulate, ofdm_modulate
    cfg = SystemConfig()
    gen = _gen(6)
    ch = gen_rayleigh(gen, 3, 2, 4, 0.0)
    v = np.zeros((cfg.nc, 2, 2), dtype=complex)
    v[:] = np.eye(2)
    s = draw_symbols(gen, 5, cfg.nc, cfg.data_idx, 2)
    y = apply_channel(ofdm_modulate(s, v, cfg.cp_len), ch)
    yf = ofdm_demodulate(y, cfg.nc, cfg.cp_len)
    h = to_freq(ch, cfg.nc)
    want = np.einsum("nrt,snt->snr", h, s)
    # first symbol's head is hit by the zero initial history, skip it
    err = np.max(np.abs(yf[1:] - want[1:]))
    assert err <= 1e-10 * np.max(np.abs(want))


# --- self-interference channel ----------------------------------------------

def test_direct_coupling_is_deterministic_unit_modulus():
    d = direct_coupling_matrix(4, 4)
    assert np.allclose(np.abs(d), 1.0)
    assert np.allclose(d, direct_coupling_matrix(4, 4))
    assert d[0, 0] == 1.0 and d[1, 0] == pytest.approx(np.exp(2j * np.pi / 7))


def test_rician_si_powers_and_placement():
    cfg = SystemConfig()
    ch = gen_rician_si(_gen(7), 4, 4, cfg.si_delay_samples, cfg.si_losses_db,
                       cfg.k_direct_db)
    assert ch.shape == (4, 4, 4)
    # the direct line is dominated by the fixed coupling at the path loss
    p0 = np.mean(np.abs(ch[0]) ** 2)
    assert 10 * np.log10(p0) == pytest.approx(-40.0, abs=1.0)


def test_rician_si_average_reflected_power():
    # over many draws each reflected path's per-entry power is 10^(-loss/10)
    acc = np.zeros(3)
    n_draws = 200
    gen = _gen(8)
    for _ in range(n_draws):
        ch = gen_rician_si(gen, 4, 4, (0, 1, 2, 3), (40.0, 50.0, 60.0, 70.0),
                           30.0)
        acc += [np.mean(np.abs(ch[l]) ** 2) for l in (1, 2, 3)]
    acc /= n_draws
    for got, loss in zip(acc, (50.0, 60.0, 70.0)):
        assert 10 * np.log10(got) == pytest.approx(-loss, abs=0.5)


def test_rician_si_nearest_sample_placement():
    # 50 ns at 30.72 MHz rounds to line 2 (test_config_units checks the
    # rounding); the path lands there and line 1 stays empty
    cfg = preset("lte20", si_delays_ns=(0.0, 50.0), si_losses_db=(40.0, 50.0))
    ch = gen_rician_si(_gen(9), 2, 2, cfg.si_delay_samples, cfg.si_losses_db,
                       cfg.k_direct_db)
    assert ch.shape[0] == cfg.l_si == 2 + 1
    assert np.all(ch[1] == 0) and np.all(ch[2] != 0)


def test_rician_si_shared_line_accumulates():
    # two paths on the same sample line add incoherently: the
    # per-entry power averages to the sum of the two path powers
    gen = _gen(10)
    acc = 0.0
    n_draws = 300
    for _ in range(n_draws):
        ch = gen_rician_si(gen, 2, 2, (0, 1, 1), (40.0, 50.0, 50.0), 30.0)
        assert ch.shape[0] == 2
        acc += np.mean(np.abs(ch[1]) ** 2)
    p1 = acc / n_draws
    assert 10 * np.log10(p1) == pytest.approx(10 * np.log10(2e-5), abs=0.5)


# --- CSI error ---------------------------------------------------------------

def test_estimate_with_mse_none_is_exact_copy():
    ch = gen_rayleigh(_gen(11), 3, 3, 2, 10.0)
    est = estimate_with_mse(ch, None, _gen(12))
    assert est is not ch
    assert np.array_equal(est, ch)


def test_estimate_with_mse_relative_error_level():
    gen = _gen(13)
    ch = gen_rayleigh(gen, 40, 40, 3, 0.0)
    est = estimate_with_mse(ch, -20.0, gen)
    err = est - ch
    for l in range(3):
        rel = np.mean(np.abs(err[l]) ** 2) / np.mean(np.abs(ch[l]) ** 2)
        assert 10 * np.log10(rel) == pytest.approx(-20.0, abs=0.5)


def test_estimate_with_mse_keeps_zero_taps_zero():
    taps = np.zeros((3, 2, 2), dtype=complex)
    taps[0] = 1.0
    est = estimate_with_mse(taps, -10.0, _gen(14))
    assert np.all(est[1:] == 0)
    assert np.any(est[0] != taps[0])
