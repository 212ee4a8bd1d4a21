"""Security-proof verification and key-rate simulation for MDI-SARG04 QKD."""

from .bounds import BoundResult, binary_entropy, f_type1, g_type2, phase_bound
from .config import ScenarioConfig
from .optics import ChannelParams, ClickPattern, DetectorParams, relay_yields
from .povm import ErrorPair, PovmSet, attack_state_22, build_povm, error_rates
from .rates import GainTable, KeyRateBreakdown, assemble_gains, bb84_baseline_rate
from .scenario import RateCurvePoint, optimize_mu, run_sweep
from .sources import poisson_source, spdc_heralded
from .verify import verify_suite

__all__ = [
    "BoundResult",
    "binary_entropy",
    "f_type1",
    "g_type2",
    "phase_bound",
    "ScenarioConfig",
    "ChannelParams",
    "ClickPattern",
    "DetectorParams",
    "relay_yields",
    "ErrorPair",
    "PovmSet",
    "attack_state_22",
    "build_povm",
    "error_rates",
    "GainTable",
    "KeyRateBreakdown",
    "assemble_gains",
    "bb84_baseline_rate",
    "RateCurvePoint",
    "optimize_mu",
    "run_sweep",
    "poisson_source",
    "spdc_heralded",
    "verify_suite",
]

__version__ = "0.1.0"
