"""Link-level simulator for a wideband full-duplex MIMO OFDM node with
multi-tap analog and adaptive digital self-interference cancellation."""

__version__ = "0.1.0"

from .config_units import (ConfigError, Rng, SystemConfig, dbm_to_linear,
                           linear_to_dbm, preset)
from .simulator import (MetricsRecord, ScenarioSpec, monte_carlo, reproduce,
                        run_frame)

__all__ = [
    "ConfigError", "Rng", "SystemConfig", "preset",
    "dbm_to_linear", "linear_to_dbm",
    "MetricsRecord", "ScenarioSpec", "monte_carlo", "reproduce", "run_frame",
    "__version__",
]
