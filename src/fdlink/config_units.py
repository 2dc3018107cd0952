"""System configuration, unit conversions, and deterministic random streams.

Powers are carried in dBm at the API surface and converted to watts
(complex-baseband mean-square) exactly once, here. The default configuration
is a 20 MHz 64-subcarrier OFDM link with a 4x4 full-duplex node, one downlink
user and one uplink user.
"""

import math
import numbers
import typing
from dataclasses import dataclass, fields, replace, asdict

import numpy as np


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


# ---------------------------------------------------------------------------
# unit helpers

def dbm_to_linear(p_dbm):
    """dBm to watts."""
    return 10.0 ** ((np.asarray(p_dbm, dtype=float) - 30.0) / 10.0)


def db_to_linear(x_db):
    """dB ratio to linear power ratio."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x, floor_db=-400.0):
    """Linear power ratio to dB; non-positive ratios clamp to floor_db."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, floor_db)
    np.log10(x, out=out, where=x > 0)
    out = np.where(x > 0, 10.0 * out, floor_db)
    out = np.maximum(out, floor_db)
    if np.ndim(x) == 0:
        return float(out)
    return out


def linear_to_dbm(p_watts, floor_dbm=-400.0):
    """Watts to dBm; non-positive powers clamp to floor_dbm."""
    return linear_to_db(p_watts, floor_db=floor_dbm - 30.0) + 30.0


# ---------------------------------------------------------------------------
# random streams

class Rng:
    """Hierarchical deterministic random streams.

    An Rng is addressed by (seed, path). Children are reached with .child(i)
    and are statistically independent of each other and of the parent.
    Streams are reproducible across platforms and process layouts because
    they are derived purely from numpy SeedSequence spawn keys.
    """

    def __init__(self, seed, path=()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        self._gen = None

    def child(self, *idx):
        return Rng(self.seed, self.path + tuple(int(i) for i in idx))

    @property
    def generator(self):
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._gen = np.random.default_rng(ss)
        return self._gen

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={self.path})"


def complex_normal(gen, shape, var=1.0):
    """Circularly symmetric complex Gaussian, CN(0, var), iid entries."""
    scale = np.sqrt(var / 2.0)
    out = np.empty(shape, dtype=complex)
    draw = gen.standard_normal(shape)
    np.multiply(scale, draw, out=out.real)
    np.multiply(scale, gen.standard_normal(out=draw), out=out.imag)
    return out


# ---------------------------------------------------------------------------
# system configuration

_TUPLE_FIELDS = {"si_delays_ns", "si_losses_db"}


def _is_a(v, kind):
    """Field type check for JSON input: a bool is no number, an int is a
    real, a tuple holds real numbers, and every number is finite as a float
    (no NaN, no infinity, no integer beyond float range)."""
    if kind in (bool, str, type(None)):
        return isinstance(v, kind)
    if kind is tuple:
        return isinstance(v, tuple) and all(_is_a(x, float) for x in v)
    try:
        return (isinstance(v, numbers.Integral if kind is int else numbers.Real)
                and not isinstance(v, bool) and math.isfinite(v))
    except OverflowError:               # an int beyond float range
        return False


@dataclass(frozen=True)
class SystemConfig:
    # antenna and stream counts
    n_tx_b: int = 4
    n_rx_b: int = 4
    n_rx_m1: int = 4
    n_tx_m2: int = 4
    d_b: int | None = None      # max DL streams; None = min(n_tx_b, n_rx_m1)
    d_m2: int | None = None     # UL streams; None = min(n_tx_m2, n_rx_b)

    # OFDM numerology
    nc: int = 64
    n_data: int = 52
    cp_len: int = 16
    subcarrier_spacing_hz: float = 312.5e3

    # powers and noise
    p_b_dbm: float = 40.0
    p_m2_dbm: float = 40.0
    noise_floor_b_dbm: float = -100.0
    noise_floor_m1_dbm: float = -90.0
    lambda_b_dbm: float = -40.0

    # propagation
    pathloss_dl_db: float = 100.0
    pathloss_ul_db: float = 100.0
    l_dl: int = 4
    l_ul: int = 4
    delay_profile: str = "uniform"          # "uniform" or "exponential"
    si_delays_ns: tuple = (0.0, 50.0, 100.0, 150.0)
    si_losses_db: tuple = (40.0, 50.0, 60.0, 70.0)
    k_direct_db: float = 30.0               # Rician factor of the direct SI tap

    # analog canceller
    n_taps: int = 32
    attenuation_step_db: float = 0.02       # 0 = exact tap magnitudes
    phase_step_deg: float = 0.13            # 0 = exact tap phases
    greedy_taps: bool = False               # magnitude-greedy tap allocation

    # TX impairments
    irr_db: float | None = 30.0             # None = ideal IQ mixer
    iip3_dbm: float | None = 15.0           # None = linear PA
    pa_gain_db: float = 38.0

    # ADC
    adc_bits: int = 14
    adc_full_scale_dbm: float = -30.0
    adc_auto_range: bool = True

    # channel knowledge
    channel_mse_db: float | None = None     # None = ideal estimates

    # frame length in OFDM symbols
    frame_symbols: int = 50
    train_symbols: int = 16

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            kinds = typing.get_args(f.type) or (f.type,)   # int | None
            if not any(_is_a(v, k) for k in kinds):
                name = getattr(f.type, "__name__", f.type)
                raise ConfigError(f"{f.name} must be {name}, got {v!r}")
        self._validate()

    # -- derived quantities ------------------------------------------------

    @property
    def sample_rate_hz(self):
        return self.nc * self.subcarrier_spacing_hz

    @property
    def sample_period_s(self):
        return 1.0 / self.sample_rate_hz

    @property
    def si_delay_samples(self):
        """Configured SI path delays rounded to the sample grid."""
        d = np.asarray(self.si_delays_ns, dtype=float) * 1e-9 * self.sample_rate_hz
        return np.round(d).astype(int)

    @property
    def l_si(self):
        """Dense SI channel length in sample-spaced delay lines."""
        return int(self.si_delay_samples.max()) + 1

    @property
    def data_idx(self):
        """FFT-bin indices of the data subcarriers (DC and band edges null)."""
        half = self.n_data // 2
        return np.r_[1:half + 1, self.nc - half:self.nc]

    @property
    def dl_streams(self):
        return self.d_b if self.d_b is not None else min(self.n_tx_b, self.n_rx_m1)

    @property
    def ul_streams(self):
        return self.d_m2 if self.d_m2 is not None else min(self.n_tx_m2, self.n_rx_b)

    @property
    def sigma_b_w(self):
        return dbm_to_linear(self.noise_floor_b_dbm)

    @property
    def sigma_m1_w(self):
        return dbm_to_linear(self.noise_floor_m1_dbm)

    @property
    def lambda_b_w(self):
        return dbm_to_linear(self.lambda_b_dbm)

    # -- validation ---------------------------------------------------------

    def _validate(self):
        c = self
        for name in ("n_tx_b", "n_rx_b", "n_rx_m1", "n_tx_m2"):
            if getattr(c, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if c.nc < 8 or c.nc & (c.nc - 1):
            raise ConfigError("nc must be a power of two >= 8")
        if not (0 < c.n_data < c.nc):
            raise ConfigError("n_data must be in (0, nc)")
        if c.n_data % 2:
            raise ConfigError("n_data must be even (symmetric around DC)")
        if c.subcarrier_spacing_hz <= 0:
            raise ConfigError("subcarrier_spacing_hz must be > 0")
        if c.d_b is not None and not (1 <= c.d_b <= min(c.n_tx_b, c.n_rx_m1)):
            raise ConfigError("d_b must be in [1, min(n_tx_b, n_rx_m1)]")
        if c.d_m2 is not None and not (1 <= c.d_m2 <= min(c.n_tx_m2, c.n_rx_b)):
            raise ConfigError("d_m2 must be in [1, min(n_tx_m2, n_rx_b)]")
        if len(c.si_delays_ns) != len(c.si_losses_db):
            raise ConfigError("si_delays_ns and si_losses_db lengths differ")
        if len(c.si_delays_ns) == 0:
            raise ConfigError("at least one SI path is required")
        if min(c.si_delays_ns) < 0:
            raise ConfigError("SI delays must be >= 0")
        if c.delay_profile not in ("uniform", "exponential"):
            raise ConfigError("delay_profile must be 'uniform' or 'exponential'")
        if c.l_dl < 1 or c.l_ul < 1:
            raise ConfigError("link channel lengths must be >= 1")
        # the SI spread in float: the int cast of si_delay_samples overflows
        si_spread = np.round(max(c.si_delays_ns) * 1e-9 * c.sample_rate_hz)
        max_spread = max(si_spread, c.l_dl - 1, c.l_ul - 1)
        if c.cp_len < max_spread:
            raise ConfigError(
                f"cp_len={c.cp_len} shorter than channel spread {max_spread:g}")
        if c.cp_len >= c.nc:
            raise ConfigError("cp_len must be < nc")
        # one canceller line per distinct sample delay: paths that round to
        # the same line share its n_rx_b * n_tx_b taps
        budget = c.n_rx_b * c.n_tx_b * len(np.unique(self.si_delay_samples))
        if not (1 <= c.n_taps <= budget):
            raise ConfigError(f"n_taps must be in [1, {budget}]")
        if c.attenuation_step_db < 0 or c.phase_step_deg < 0:
            raise ConfigError("tap step sizes must be >= 0 (0 = exact taps)")
        if c.irr_db is not None and c.irr_db <= 0:
            raise ConfigError("irr_db must be positive (or None for ideal)")
        if c.adc_bits < 2 or c.adc_bits > 24:
            raise ConfigError("adc_bits out of range")
        for name in ("frame_symbols", "train_symbols"):
            if getattr(c, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        d = asdict(self)
        for k in _TUPLE_FIELDS:
            d[k] = list(d[k])
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {d!r}")
        return cls().override(**d)

    def override(self, **kw):
        """A copy with the given fields replaced; JSON lists become tuples."""
        unknown = set(kw) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for k in _TUPLE_FIELDS:
            if isinstance(kw.get(k), list):
                kw[k] = tuple(kw[k])
        return replace(self, **kw)


def preset(name, **overrides):
    """Named waveform presets.

    wifi20: 20 MHz, 312.5 kHz spacing, 64 subcarriers (the default).
    lte20:  20 MHz, 15 kHz spacing, 2048-point FFT, 1200 data subcarriers.
    nr100:  100 MHz, 60 kHz spacing, 2048-point FFT, 1620 data subcarriers.

    FFT sizes are the smallest power of two holding bandwidth/spacing bins.
    """
    presets = {
        "wifi20": {},
        "lte20": dict(subcarrier_spacing_hz=15e3, nc=2048, n_data=1200,
                      cp_len=144),
        "nr100": dict(subcarrier_spacing_hz=60e3, nc=2048, n_data=1620,
                      cp_len=144),
    }
    if name not in presets:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    kw = dict(presets[name])
    kw.update(overrides)
    return SystemConfig(**kw)
