"""Unit conversions, seeded random streams, and configuration validation."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdlink.analog_canceller import build_canceller
from fdlink.channel import gen_rician_si
from fdlink.config_units import (ConfigError, Rng, SystemConfig,
                                 complex_normal, db_to_linear, dbm_to_linear,
                                 linear_to_db, linear_to_dbm, preset)


# --- unit helpers ----------------------------------------------------------

def test_dbm_anchors():
    assert dbm_to_linear(0.0) == pytest.approx(1e-3)
    assert dbm_to_linear(30.0) == pytest.approx(1.0)
    assert dbm_to_linear(-100.0) == pytest.approx(1e-13)
    assert linear_to_dbm(1.0) == pytest.approx(30.0)
    assert db_to_linear(3.0) == pytest.approx(10 ** 0.3)


@given(st.floats(min_value=-150.0, max_value=80.0))
def test_dbm_round_trip(p_dbm):
    assert linear_to_dbm(dbm_to_linear(p_dbm)) == pytest.approx(p_dbm)


def test_db_floor_behavior():
    assert linear_to_db(0.0) == -400.0
    assert linear_to_db(-1.0) == -400.0
    assert linear_to_dbm(0.0) == -400.0
    out = linear_to_db(np.array([1.0, 0.0, 10.0]))
    assert out[1] == -400.0 and out[0] == 0.0 and out[2] == pytest.approx(10.0)


# --- random streams --------------------------------------------------------

def test_rng_deterministic_and_path_addressed():
    a = Rng(42).child(1, 2).generator.standard_normal(8)
    b = Rng(42).child(1, 2).generator.standard_normal(8)
    c = Rng(42).child(1, 3).generator.standard_normal(8)
    d = Rng(43).child(1, 2).generator.standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_child_extends_path():
    r = Rng(7).child(4).child(5, 6)
    assert r.seed == 7 and r.path == (4, 5, 6)


def test_complex_normal_variance_and_circularity():
    gen = np.random.default_rng(0)
    x = complex_normal(gen, 200_000, var=2.5)
    assert np.mean(np.abs(x) ** 2) == pytest.approx(2.5, rel=0.02)
    # circular symmetry: pseudo-variance is near zero
    assert abs(np.mean(x * x)) < 0.05


@pytest.mark.parametrize("shape,var", [(7, 1.0), ((3, 5), 1.0),
                                       ((4, 144672), 2.5e-13)])
def test_complex_normal_bytes_equal_expression_oracle(shape, var):
    got = complex_normal(np.random.default_rng(5), shape, var)
    gen = np.random.default_rng(5)
    a = gen.standard_normal(shape)
    b = gen.standard_normal(shape)
    want = np.sqrt(var / 2.0) * (a + 1j * b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# --- system configuration --------------------------------------------------

def test_default_numerology():
    cfg = SystemConfig()
    assert cfg.sample_rate_hz == pytest.approx(20e6)
    assert cfg.nc == 64 and cfg.cp_len == 16 and cfg.n_data == 52
    assert np.array_equal(cfg.data_idx, np.r_[1:27, 38:64])
    assert np.array_equal(cfg.si_delay_samples, [0, 1, 2, 3])
    assert cfg.l_si == 4
    assert cfg.dl_streams == 4 and cfg.ul_streams == 4
    assert cfg.sigma_b_w == pytest.approx(1e-13)
    assert cfg.lambda_b_w == pytest.approx(1e-7)


def test_si_delays_round_to_the_nearest_sample_line():
    # 50 ns at 30.72 MHz rounds to line 2, so line 1 stays empty
    cfg = preset("lte20", si_delays_ns=(0.0, 50.0), si_losses_db=(40.0, 50.0))
    assert np.array_equal(cfg.si_delay_samples, [0, 2]) and cfg.l_si == 3
    # 50 and 52 ns at 20 MHz share line 1
    cfg = SystemConfig(si_delays_ns=(0.0, 50.0, 52.0),
                       si_losses_db=(40.0, 50.0, 50.0))
    assert np.array_equal(cfg.si_delay_samples, [0, 1, 1]) and cfg.l_si == 2


def test_stream_count_overrides():
    cfg = SystemConfig(d_b=2, d_m2=3)
    assert cfg.dl_streams == 2 and cfg.ul_streams == 3
    with pytest.raises(ConfigError):
        SystemConfig(d_b=5)


@pytest.mark.parametrize("kw", [
    dict(nc=63),                       # not a power of two
    dict(nc=4),                        # too small
    dict(n_data=51),                   # odd
    dict(n_data=64),                   # >= nc
    dict(cp_len=2),                    # shorter than channel spread
    dict(cp_len=64),                   # >= nc
    dict(n_taps=0),
    dict(n_taps=65),                   # above the 4*4*4 budget
    dict(si_delays_ns=(0.0, 50.0)),    # length mismatch with losses
    dict(si_delays_ns=(-50.0, 50.0, 100.0, 150.0)),   # negative delay
    dict(si_delays_ns=(), si_losses_db=()),
    dict(delay_profile="gaussian"),
    dict(irr_db=-3.0),
    dict(adc_bits=1),
    dict(frame_symbols=0),
    # 0 and 20 ns share sample line 0: three lines, a 4*4*3 budget
    dict(si_delays_ns=(0.0, 20.0, 100.0, 150.0), n_taps=64),
    dict(subcarrier_spacing_hz=-312500.0),    # negative SI sample delays
    dict(subcarrier_spacing_hz=0.0),
    dict(subcarrier_spacing_hz=float("inf")),
    dict(si_delays_ns=(0.0, 1e300, 1e300, 1e300)),   # overflows int64
    dict(si_delays_ns=(0.0, 50.0, float("nan"), 150.0)),
    dict(si_losses_db=(40.0, 50.0, 60.0, float("inf"))),
    dict(train_symbols=0),
    dict(attenuation_step_db=-0.02),
])
def test_validation_rejects(kw):
    with pytest.raises(ConfigError):
        SystemConfig(**kw)


@pytest.mark.parametrize("kw,match", [
    (dict(subcarrier_spacing_hz=0.0), "subcarrier_spacing_hz"),
    (dict(si_delays_ns=(0.0, 1e300, 1e300, 1e300)), "channel spread"),
    (dict(si_losses_db=(40.0, 50.0, 60.0, float("inf"))), "si_losses_db"),
    (dict(phase_step_deg=-0.13), "step sizes")])
def test_validation_names_the_bad_value(kw, match):
    with pytest.raises(ConfigError, match=match):
        SystemConfig(**kw)


@settings(deadline=None)
@given(lines=st.lists(st.integers(0, 5), min_size=1, max_size=5),
       dup=st.integers(0, 4),
       offsets_ns=st.lists(st.floats(0.0, 20.0), min_size=6, max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_n_taps_budget_counts_shared_sample_lines(lines, dup, offsets_ns,
                                                   seed):
    # wifi20 samples every 50 ns, so a 0-20 ns offset keeps a path on its
    # line; the repeated line makes at least two paths share one
    lines = lines + [lines[dup % len(lines)]]
    delays = tuple(50.0 * l + o for l, o in zip(lines, offsets_ns))
    losses = tuple(40.0 + 10.0 * p for p in range(len(delays)))
    budget = 16 * len(set(lines))
    cfg = SystemConfig(si_delays_ns=delays, si_losses_db=losses,
                       n_taps=budget)
    # both sides accept an interval [1, budget], so the top decides
    h = gen_rician_si(np.random.default_rng(seed), 4, 4,
                      cfg.si_delay_samples, losses, cfg.k_direct_db)
    assert len(build_canceller(h, cfg.n_taps).w) == budget
    with pytest.raises(ConfigError):
        cfg.override(n_taps=budget + 1)


# RFC 8259 calls integers interoperable up to 2**53 - 1 in magnitude;
# Python's json module also reads NaN, Infinity, -Infinity and integers
# beyond float range
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 53 + 1, 2 ** 53 - 1)
    | st.integers(2 ** 1024, 2 ** 2000) | st.integers(-2 ** 2000, -2 ** 1024)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@settings(deadline=None, max_examples=300)
@given(name=st.sampled_from([f.name for f in fields(SystemConfig)]),
       value=_JSON_VALUES)
def test_any_json_value_builds_or_raises_config_error(name, value):
    try:
        cfg = SystemConfig.from_dict({name: value})
    except ConfigError:
        return
    assert cfg.to_dict()[name] == value


_NUMBER_FIELDS = [f.name for f in fields(SystemConfig)
                if f.type not in (bool, str)]
_NOT_FINITE = {"nan": float("nan"), "inf": float("inf"),
               "-inf": -float("inf"), "2**1024": 2 ** 1024,
               "-2**2000": -2 ** 2000}


@pytest.mark.parametrize("bad", _NOT_FINITE.values(), ids=_NOT_FINITE.keys())
@pytest.mark.parametrize("name", _NUMBER_FIELDS)
def test_every_number_field_rejects_non_finite_numbers(name, bad):
    value = [0.0, bad] if name in ("si_delays_ns", "si_losses_db") else bad
    with pytest.raises(ConfigError, match=name):
        SystemConfig.from_dict({name: value})


def test_dict_round_trip_and_unknown_keys():
    cfg = SystemConfig(p_b_dbm=25.0, si_delays_ns=(0.0, 100.0),
                       si_losses_db=(40.0, 60.0))
    d = cfg.to_dict()
    assert isinstance(d["si_delays_ns"], list)          # JSON friendly
    again = SystemConfig.from_dict(d)
    assert again == cfg
    with pytest.raises(ConfigError):
        SystemConfig.from_dict({"not_a_field": 1})


def test_override_returns_new_frozen_config():
    cfg = SystemConfig()
    hot = cfg.override(p_b_dbm=20.0)
    assert hot.p_b_dbm == 20.0 and cfg.p_b_dbm == 40.0
    with pytest.raises(Exception):
        cfg.p_b_dbm = 0.0                               # frozen dataclass


def test_presets():
    lte = preset("lte20")
    assert lte.nc == 2048 and lte.subcarrier_spacing_hz == 15e3
    assert lte.sample_rate_hz == pytest.approx(30.72e6)
    # 50/100/150 ns on the 30.72 MHz grid round to samples 2, 3, 5
    assert np.array_equal(lte.si_delay_samples, [0, 2, 3, 5])
    nr = preset("nr100")
    assert nr.sample_rate_hz == pytest.approx(122.88e6)
    assert np.array_equal(nr.si_delay_samples, [0, 6, 12, 18])
    assert preset("wifi20") == SystemConfig()
    with pytest.raises(ConfigError):
        preset("lte5")


def test_preset_accepts_overrides():
    cfg = preset("lte20", p_b_dbm=20.0)
    assert cfg.p_b_dbm == 20.0 and cfg.nc == 2048
