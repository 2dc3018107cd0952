"""OFDM modulation/demodulation and the 16-QAM alphabet."""

import numpy as np
import pytest

from fdlink.config_units import SystemConfig, complex_normal, preset
from fdlink.waveform import (ROW_BLOCK, data_bins, draw_symbols, frame_power,
                             ofdm_demodulate, ofdm_modulate)


def qam16_constellation():
    """All 16 constellation points, average power exactly 1."""
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
    re, im = np.meshgrid(levels, levels)
    return (re + 1j * im).ravel()


def _identity_precoder(nc, d):
    v = np.zeros((nc, d, d), dtype=complex)
    v[:] = np.eye(d)
    return v


def test_constellation_unit_power():
    c = qam16_constellation()
    assert c.shape == (16,)
    assert np.mean(np.abs(c) ** 2) == pytest.approx(1.0)
    assert len(np.unique(np.round(c, 12))) == 16


def test_map_qam16_draws_from_alphabet():
    # the 16-QAM map lives in draw_symbols
    gen = np.random.default_rng(1)
    s = draw_symbols(gen, 1000, 1, 1).ravel()
    alphabet = set(np.round(qam16_constellation(), 12))
    assert set(np.round(s, 12)) <= alphabet
    assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, rel=0.1)


def test_draw_symbols_null_bins():
    # the block holds the data bins only; the null bins exist only in the
    # modulated frame, where they carry nothing
    cfg = SystemConfig()
    gen = np.random.default_rng(2)
    s = draw_symbols(gen, 3, len(cfg.data_idx), 2)
    assert s.shape == (3, 52, 2)
    assert np.all(s != 0)
    x = ofdm_modulate(s, _identity_precoder(len(cfg.data_idx), 2),
                      cfg.cp_len, (cfg.nc, cfg.data_idx))
    back = ofdm_demodulate(x, cfg.nc, cfg.cp_len)
    assert back.shape == (3, 64, 2)
    null = np.setdiff1d(np.arange(64), cfg.data_idx)
    assert np.allclose(back[:, null, :], 0, atol=1e-12)
    assert np.allclose(back[:, cfg.data_idx, :], s, atol=1e-12)


def _zero_padded_draw(gen, n_symbols, nc, data_idx, d):
    """The symbol draw as it was: a (n_symbols, nc, d) block with zeros on
    the null bins, the data bins filled with Re + 1j Im from one Re draw and
    then one Im draw."""
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
    shape = (n_symbols, len(data_idx), d)
    re = levels[gen.integers(0, 4, size=shape)]
    im = levels[gen.integers(0, 4, size=shape)]
    s = np.zeros((n_symbols, nc, d), dtype=complex)
    s[:, data_idx, :] = re + 1j * im
    return s


@pytest.mark.parametrize("name,n_symbols,d", [("wifi20", 3, 2),
                                              ("lte20", 4, 1),
                                              ("nr100", 2, 3)])
def test_draw_symbols_bytes_equal_the_zero_padded_draw(name, n_symbols, d):
    # the same generator gives the same data-bin symbols, and leaves the
    # same state for the draws after it
    cfg = preset(name)
    gen, old_gen = np.random.default_rng(8), np.random.default_rng(8)
    got = draw_symbols(gen, n_symbols, len(cfg.data_idx), d)
    want = _zero_padded_draw(old_gen, n_symbols, cfg.nc, cfg.data_idx, d)
    assert got.tobytes() == want[:, cfg.data_idx, :].tobytes()
    assert gen.integers(0, 1 << 30) == old_gen.integers(0, 1 << 30)


def test_modulate_demodulate_round_trip():
    cfg = SystemConfig()
    gen = np.random.default_rng(3)
    s = draw_symbols(gen, 4, cfg.nc, 3)
    x = ofdm_modulate(s, _identity_precoder(cfg.nc, 3), cfg.cp_len)
    assert x.shape == (3, 4 * (64 + 16))
    back = ofdm_demodulate(x, cfg.nc, cfg.cp_len)
    assert back.shape == (4, 64, 3)
    assert np.allclose(back, s, atol=1e-12)


def test_unitary_power_preservation():
    # frame power equals mean subcarrier power (cp repeats body samples,
    # so the cp-inclusive time average equals the body average)
    cfg = SystemConfig()
    gen = np.random.default_rng(4)
    s = draw_symbols(gen, 10, cfg.nc, 1)
    x = ofdm_modulate(s, _identity_precoder(cfg.nc, 1), 0)
    p_time = frame_power(x)[0]
    p_freq = np.mean(np.sum(np.abs(s[:, :, 0]) ** 2, axis=1)) / cfg.nc
    assert p_time == pytest.approx(p_freq, rel=1e-12)


def test_precoder_application():
    nc, d = 16, 2
    gen = np.random.default_rng(5)
    v = (gen.standard_normal((nc, 3, d))
         + 1j * gen.standard_normal((nc, 3, d)))
    s = np.zeros((2, nc, d), dtype=complex)
    s[:, 1:, :] = gen.standard_normal((2, nc - 1, d))
    x = ofdm_modulate(s, v, 0)
    back = ofdm_demodulate(x, nc, 0)
    want = np.einsum("ntd,snd->snt", v, s)
    assert np.allclose(back, want, atol=1e-12)


@pytest.mark.parametrize("cp_len", [0, 9])
def test_modulate_equals_einsum_oracle(cp_len):
    nc, n_tx, d, n_sym = 32, 3, 2, 5
    gen = np.random.default_rng(6)
    v = (gen.standard_normal((nc, n_tx, d))
         + 1j * gen.standard_normal((nc, n_tx, d)))
    s = np.zeros((n_sym, nc, d), dtype=complex)
    s[:, 1:21] = draw_symbols(gen, n_sym, 20, d)
    xt = np.fft.ifft(np.einsum("ntd,snd->snt", v, s), axis=1, norm="ortho")
    xt = np.concatenate([xt[:, nc - cp_len:, :], xt], axis=1)
    want = xt.transpose(2, 0, 1).reshape(n_tx, n_sym * (nc + cp_len))
    got = ofdm_modulate(s, v, cp_len)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


def _full_bins(nc, data_idx, per_bin):
    """Scatter per-data-bin values into all nc bins, zero elsewhere."""
    out = np.zeros((nc,) + per_bin.shape[1:], dtype=complex)
    out[data_idx] = per_bin
    return out


@pytest.mark.parametrize("name", ["wifi20", "lte20"])
@pytest.mark.parametrize("cp_len", [0, None])
def test_modulate_data_bins_equal_full_bin_precoder(name, cp_len):
    # the data-bin path precodes only the data bins; its frame has the bytes
    # of the full-bin precoder and symbols with zeros on the null bins
    cfg = preset(name)
    cp_len = cfg.cp_len if cp_len is None else cp_len
    gen = np.random.default_rng(3)
    v = complex_normal(gen, (len(cfg.data_idx), 4, 3))[:, :, ::-1]
    s = draw_symbols(gen, 3, len(cfg.data_idx), 3)
    got = ofdm_modulate(s, v, cp_len, (cfg.nc, cfg.data_idx))
    s_full = np.zeros((3, cfg.nc, 3), dtype=complex)
    s_full[:, cfg.data_idx] = s
    want = ofdm_modulate(s_full, _full_bins(cfg.nc, cfg.data_idx, v), cp_len)
    assert got.shape == want.shape == (4, 3 * (cfg.nc + cp_len))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["wifi20", "lte20"])
def test_data_bins_equal_the_demodulated_data_bins(name):
    cfg = preset(name)
    y = complex_normal(np.random.default_rng(9),
                       (3, 5 * (cfg.nc + cfg.cp_len)))
    got = data_bins(y, cfg.nc, cfg.cp_len, cfg.data_idx)
    want = ofdm_demodulate(y, cfg.nc, cfg.cp_len)[:, cfg.data_idx, :]
    assert got.shape == (len(cfg.data_idx), 3, 5)
    assert np.array_equal(got, want.transpose(1, 2, 0))


def test_modulate_shape_mismatch_raises():
    s = np.zeros((2, 16, 2), dtype=complex)
    v = np.zeros((16, 4, 3), dtype=complex)
    with pytest.raises(ValueError):
        ofdm_modulate(s, v, 4)
    # data-bin symbols and precoders that do not match the data bins
    v = np.zeros((16, 4, 2), dtype=complex)
    with pytest.raises(ValueError):
        ofdm_modulate(s, v, 4, (32, np.arange(1, 16)))


def test_demodulate_bad_length_raises():
    with pytest.raises(ValueError):
        ofdm_demodulate(np.zeros((2, 81), dtype=complex), 64, 16)
    with pytest.raises(ValueError):
        ofdm_demodulate(np.zeros((2, 0), dtype=complex), 64, 16)


def _frame_power_oracle(y):
    """frame_power as one mean over the whole array."""
    return np.mean(np.abs(y) ** 2, axis=1)


@pytest.mark.parametrize("name", ["wifi20", "lte20"])
def test_frame_power_row_blocks_equal_one_mean(name):
    # a wifi20 frame is one row block, an lte20 frame one row per block;
    # each row's mean keeps its bits, also on a payload slice of the frame
    cfg = preset(name)
    sym = cfg.nc + cfg.cp_len
    y = complex_normal(np.random.default_rng(4),
                       (4, (cfg.train_symbols + cfg.frame_symbols) * sym))
    assert (y.size <= ROW_BLOCK) == (name == "wifi20")
    for frame in (y, y[:, cfg.train_symbols * sym:], y[:3, 5:]):
        assert np.array_equal(frame_power(frame), _frame_power_oracle(frame))


def test_frame_power():
    y = np.array([[1.0, 1j, -1.0, -1j], [2.0, 0.0, 0.0, 0.0]])
    assert np.allclose(frame_power(y), [1.0, 1.0])
    assert frame_power(np.zeros((1, 4)))[0] == 0.0
