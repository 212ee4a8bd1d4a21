"""Security-proof verification and key-rate simulation for MDI-SARG04 QKD.

Every module is plain Python, and importing the package loads the rate
path only.  The security-proof modules `povm` and `verify`, and with them
`linalg`, load on first use of one of their names (PEP 562), so a rate
command never pays for them.
"""

import importlib

from .bounds import BoundResult, binary_entropy, f_type1, g_type2, phase_bound
from .config import ScenarioConfig
from .optics import ChannelParams, ClickPattern, DetectorParams, relay_yields
from .rates import KeyRateBreakdown, bb84_baseline_rate
from .scenario import RateCurvePoint, optimize_mu, run_sweep
from .sources import spdc_heralded

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
    "KeyRateBreakdown",
    "bb84_baseline_rate",
    "RateCurvePoint",
    "optimize_mu",
    "run_sweep",
    "spdc_heralded",
    "verify_suite",
]

__version__ = "0.1.0"

# public name -> the submodule that defines it, loaded on first access
_LAZY = {
    "ErrorPair": "povm",
    "PovmSet": "povm",
    "attack_state_22": "povm",
    "build_povm": "povm",
    "error_rates": "povm",
    "verify_suite": "verify",
    "povm": "povm",
    "verify": "verify",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
