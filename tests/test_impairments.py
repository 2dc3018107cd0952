"""TX impairment chain and ADC oracles.

The mixer/PA constants below are frozen from the closed forms: for IRR R the
amplitude mismatch solves g^2 - 2 g (R+1)/(R-1) + 1 = 0 on (0, 1); the PA
cubic coefficient is nu1 / IIP3_watts.
"""

import numpy as np
import pytest

from fdlink.config_units import dbm_to_linear, linear_to_db
from fdlink.impairments import (TX_BLOCK, adc_full_scale, adc_quantize,
                                build_augmented_vector, check_saturation,
                                derive_gain_matrices, make_impairment_model,
                                tx_chain)

# frozen oracle values for IRR = 30 dB, PA 38 dB gain, IIP3 15 dBm
G_30DB = 0.938693139936569
MU1_30DB = 0.969346569968285
MU2_30DB = 0.030653430031715
NU1_38DB = 79.432823472428
NU3 = 2511.8864315096


# --- mixer and PA constants --------------------------------------------------

def _irr(m):
    """Linear image-rejection ratio |mu1/mu2|^2."""
    return abs(m.mu1 / m.mu2) ** 2


def test_mixer_solution_matches_frozen_values():
    m = make_impairment_model(irr_db=30.0)
    assert m.mu1 - m.mu2 == pytest.approx(G_30DB, abs=1e-12)
    assert m.mu1 == pytest.approx(MU1_30DB, abs=1e-12)
    assert m.mu2 == pytest.approx(MU2_30DB, abs=1e-12)
    assert m.mu1 + m.mu2 == pytest.approx(1.0)
    assert 10 * np.log10(_irr(m)) == pytest.approx(30.0, abs=1e-9)


@pytest.mark.parametrize("irr", [20.0, 25.0, 30.0, 40.0])
def test_requested_irr_met_exactly(irr):
    m = make_impairment_model(irr_db=irr)
    assert 10 * np.log10(_irr(m)) == pytest.approx(irr, abs=1e-9)


def test_ideal_mixer_and_linear_pa():
    m = make_impairment_model(irr_db=None, iip3_dbm=None)
    assert m.mu1 == 1.0 and m.mu2 == 0.0 and m.nu3 == 0.0


def test_pa_constants():
    m = make_impairment_model()
    assert m.nu1 == pytest.approx(NU1_38DB, rel=1e-12)
    assert m.nu3 == pytest.approx(NU3, rel=1e-12)


# --- composite gains ---------------------------------------------------------

def test_drive_hits_linear_gain_target():
    m = make_impairment_model()
    gains = derive_gain_matrices(m, g1_target=0.25)
    assert abs(gains.g1) == pytest.approx(0.25, rel=1e-12)


def test_ideal_mixer_reduces_to_plain_cubic():
    # with mu2 = 0 the composite x^2 x* gain is exactly nu3 c^3 and the
    # mirror terms vanish: the chain is nu1 c x + nu3 c^3 |x|^2 x
    m = make_impairment_model(irr_db=None)
    gains = derive_gain_matrices(m, g1_target=1.0)
    c = gains.drive
    assert gains.g2 == 0 and gains.g3 == 0 and gains.g6 == 0
    assert gains.g4 == pytest.approx(m.nu3 * c ** 3, rel=1e-12)
    assert gains.g5 == 0


def test_augmented_vector_frozen_example():
    psi = build_augmented_vector(np.array([1 + 1j]))
    want = [1 + 1j, 1 - 1j, -2 + 2j, 2 + 2j, 2 - 2j, -2 - 2j]
    assert np.allclose(psi[:, 0] if psi.ndim == 2 else psi, want, atol=1e-15)


def _augmented_oracle(x):
    """The former np.concatenate formula, with x xc^2 written xc^2 x.

    Numpy evaluates x * xc ** 2 on frame-sized inputs as xc ** 2 * x anyway
    (it reuses the xc ** 2 temporary as the output), and with fused
    multiply-adds the operand order decides the last bit.
    """
    xc = np.conj(x)
    return np.concatenate([x, xc, x ** 3, x ** 2 * xc, xc ** 2 * x, xc ** 3],
                          axis=0)


@pytest.mark.parametrize("shape", [(1,), (4,), (33,), (20000,), (3, 10),
                                   (4, 5280)])
def test_augmented_vector_bytes_equal_concatenate_oracle(shape):
    gen = np.random.default_rng(len(shape) * 100 + shape[-1])
    x = 1e-2 * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
    got = build_augmented_vector(x)
    want = _augmented_oracle(x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_augmented_vector_shapes():
    x = np.ones((3, 10), dtype=complex)
    assert build_augmented_vector(x).shape == (18, 10)
    assert build_augmented_vector(np.ones(4, dtype=complex)).shape == (24,)


def test_dual_form_identity():
    # physical chain output equals the composite monomial expansion to
    # machine precision on random frames
    gen = np.random.default_rng(0)
    m = make_impairment_model(irr_db=30.0, iip3_dbm=15.0)
    gains = derive_gain_matrices(m, g1_target=np.sqrt(dbm_to_linear(40.0) / 4))
    x = 0.01 * (gen.standard_normal((4, 256)) + 1j * gen.standard_normal((4, 256)))
    x_tilde, z = tx_chain(x, gains)
    psi = build_augmented_vector(x)
    g_aug = gains.augmented(4)
    composite = g_aug @ psi
    scale = np.max(np.abs(x_tilde))
    assert np.max(np.abs(x_tilde - composite)) <= 1e-12 * scale
    assert np.max(np.abs(x_tilde - (gains.g1 * x + z))) <= 1e-12 * scale


def _tx_chain_oracle(x, gains):
    """The chain as one expression per stage, with numpy's temporaries."""
    m = gains.model
    u = gains.drive * x
    w = m.mu1 * u + m.mu2 * np.conj(u)
    x_tilde = m.nu1 * w + m.nu3 * (np.abs(w) ** 2) * w
    return x_tilde, x_tilde - gains.g1 * x


# 4 x 320 samples (20 KB) stays under numpy's 256 KiB temporary-elision
# threshold, 4 x 144672 (an lte20 frame) goes over it; the chain runs
# TX_BLOCK columns at a time, so the lengths around a block edge and a
# strided slice of the frame are checked too
@pytest.mark.parametrize("n_samp", [320, 144672, TX_BLOCK, TX_BLOCK + 1,
                                    2 * TX_BLOCK + 7])
@pytest.mark.parametrize("irr_db", [30.0, None])
def test_tx_chain_bytes_equal_expression_oracle(n_samp, irr_db):
    gen = np.random.default_rng(n_samp)
    m = make_impairment_model(irr_db=irr_db, iip3_dbm=15.0)
    gains = derive_gain_matrices(m, g1_target=np.sqrt(dbm_to_linear(40.0) / 4))
    x = 0.01 * (gen.standard_normal((4, n_samp))
                + 1j * gen.standard_normal((4, n_samp)))
    x[:, :n_samp // 4] = 0.0           # a muted training window, as uplink
    for frame in (x, x[:, 1:]):
        got = tx_chain(frame, gains)
        want = _tx_chain_oracle(frame, gains)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_gain_block_matrix_layout():
    m = make_impairment_model()
    gains = derive_gain_matrices(m, 1.0)
    g_aug = gains.augmented(2)
    assert g_aug.shape == (2, 12)
    assert g_aug[0, 0] == gains.g1 and g_aug[1, 3] == gains.g2
    assert g_aug[0, 1] == 0


# --- RF quality oracles ------------------------------------------------------

def _tone(freq_bin, n, amp):
    t = np.arange(n)
    return amp * np.exp(2j * np.pi * freq_bin * t / n)


def test_single_tone_image_at_irr():
    # a complex tone at +f leaks an image at -f exactly IRR below it
    n = 4096
    m = make_impairment_model(irr_db=30.0, iip3_dbm=None)
    gains = derive_gain_matrices(m, g1_target=1.0)
    x = _tone(100, n, 0.1)[None, :]
    y, _ = tx_chain(x, gains)
    yf = np.fft.fft(y[0]) / n
    p_sig = np.abs(yf[100]) ** 2
    p_img = np.abs(yf[n - 100]) ** 2
    assert 10 * np.log10(p_sig / p_img) == pytest.approx(30.0, abs=0.1)


def test_two_tone_im3_intercept():
    # drive the PA input plane directly (ideal mixer, unit drive) with two
    # tones 20 dB under IIP3; the inferred intercept must match iip3_dbm
    n = 8192
    iip3_dbm = 15.0
    m = make_impairment_model(irr_db=None, iip3_dbm=iip3_dbm)
    gains = derive_gain_matrices(m, g1_target=m.nu1)   # drive c = 1
    assert gains.drive == pytest.approx(1.0)
    p_in_dbm = iip3_dbm - 20.0
    amp = np.sqrt(dbm_to_linear(p_in_dbm))
    x = (_tone(200, n, amp) + _tone(210, n, amp))[None, :]
    y, _ = tx_chain(x, gains)
    yf = np.fft.fft(y[0]) / n
    p_fund = np.abs(yf[200]) ** 2
    p_im3 = np.abs(yf[190]) ** 2                       # 2 f1 - f2
    iip3_est = p_in_dbm + 0.5 * 10 * np.log10(p_fund / p_im3)
    assert iip3_est == pytest.approx(iip3_dbm, abs=0.5)


def complex_normal_like(gen, shape, var):
    s = np.sqrt(var / 2)
    return s * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


def test_tx_power_within_budget():
    # unit-power drive per antenna radiates the configured total plus a
    # little cubic distortion; stay within 1 dB of the linear target
    gen = np.random.default_rng(1)
    p_w = dbm_to_linear(40.0)
    m = make_impairment_model()
    gains = derive_gain_matrices(m, g1_target=np.sqrt(p_w / 4))
    x = complex_normal_like(gen, (4, 20000), var=1.0)
    y, _ = tx_chain(x, gains)
    p_out = np.sum(np.mean(np.abs(y) ** 2, axis=1))
    assert linear_to_db(p_out / p_w) == pytest.approx(0.0, abs=1.0)


# --- ADC ---------------------------------------------------------------------

BITS, FLOOR_DBM = 14, -30.0                 # SystemConfig's ADC defaults


def test_adc_quantize_idempotent_and_bounded():
    gen = np.random.default_rng(2)
    y = complex_normal_like(gen, (3, 2048), var=dbm_to_linear(-40.0))
    q = adc_quantize(y, BITS, adc_full_scale(y, FLOOR_DBM, False))
    assert np.array_equal(
        adc_quantize(q, BITS, adc_full_scale(q, FLOOR_DBM, False)), q)
    step = 2 * np.sqrt(dbm_to_linear(-30.0)) / 2 ** 14
    inside = (np.abs(y.real) < np.sqrt(dbm_to_linear(-30.0))) \
        & (np.abs(y.imag) < np.sqrt(dbm_to_linear(-30.0)))
    err = np.abs(q - y)[inside]
    assert np.max(err) <= step / np.sqrt(2.0) + 1e-18


def _adc_oracle(y, full_scale_w, bits):
    """Both rails as one expression each, summed into a complex frame."""
    amp = np.sqrt(np.asarray(full_scale_w, dtype=float))
    if amp.ndim == 1:
        amp = amp[:, None]
    step = 2.0 * amp / (2 ** bits)
    top = amp - 0.5 * step

    def rail(v):
        return np.clip((np.floor(v / step) + 0.5) * step, -top, top)

    return rail(y.real) + 1j * rail(y.imag)


@pytest.mark.parametrize("n_samp", [320, 144672])
@pytest.mark.parametrize("per_antenna", [False, True])
def test_adc_quantize_bytes_equal_expression_oracle(n_samp, per_antenna):
    gen = np.random.default_rng(n_samp + per_antenna)
    y = complex_normal_like(gen, (4, n_samp), var=dbm_to_linear(-32.0))
    fs = adc_full_scale(y, FLOOR_DBM, per_antenna)
    if per_antenna:
        fs = fs * np.array([0.25, 0.5, 1.0, 2.0])    # some rails clip
    got = adc_quantize(y, 8, fs)
    want = _adc_oracle(y, fs, 8)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_adc_clipping():
    amp = np.sqrt(dbm_to_linear(-30.0))
    step = 2 * amp / 2 ** 14
    y = np.array([[10 * amp, -10 * amp, amp]], dtype=complex)
    q = adc_quantize(y, BITS, adc_full_scale(y, FLOOR_DBM, False))
    assert q[0, 0].real == pytest.approx(amp - step / 2)
    assert q[0, 1].real == pytest.approx(-(amp - step / 2))
    assert q[0, 2].real == pytest.approx(amp - step / 2)


def test_adc_sine_sqnr():
    # standard quantizer oracle: each rail of a full-scale complex tone is a
    # full-scale sine, so SQNR = 6.02 bits + 1.76 dB
    gen = np.random.default_rng(3)
    amp = np.sqrt(dbm_to_linear(0.0))
    t = gen.uniform(0, 2 * np.pi, 10 ** 6)
    s = amp * np.exp(1j * t)
    q = adc_quantize(s[None, :], BITS, adc_full_scale(s[None, :], 0.0, False))
    sqnr = 10 * np.log10(np.mean(np.abs(s) ** 2)
                         / np.mean(np.abs(q[0] - s) ** 2))
    assert sqnr == pytest.approx(6.02 * 14 + 1.76, abs=1.0)


def test_adc_auto_range_tracks_peak_above_floor():
    floor_w = dbm_to_linear(FLOOR_DBM)
    quiet = np.full((2, 100), 1e-6 + 0j)
    assert np.allclose(adc_full_scale(quiet, FLOOR_DBM, True), floor_w)
    hot = np.zeros((2, 100), dtype=complex)
    hot[1, 3] = 0.5 + 0.25j
    fs = adc_full_scale(hot, FLOOR_DBM, True)
    assert fs[0] == pytest.approx(floor_w)
    assert fs[1] == pytest.approx(0.25)                 # peak rail squared
    # with the rail at the peak nothing clips: error stays within one step
    q = adc_quantize(hot, BITS, fs)
    assert np.max(np.abs(q - hot)) <= 2 * np.sqrt(fs[1]) / 2 ** 14


def test_adc_fixed_range_when_disabled():
    y = np.full((2, 10), 1.0 + 0j)
    fs = adc_full_scale(y, FLOOR_DBM, False)
    assert np.isscalar(fs) or np.ndim(fs) == 0


def test_check_saturation_boundary():
    flags = check_saturation(np.array([0.9e-7, 1e-7, 2e-7]), 1e-7)
    assert list(flags) == [False, True, True]
