"""Scenario configuration with JSON round-tripping.

Defaults follow the Gobby-Yuan-Shields detector and fiber parameters.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .sources import CUTOFF_HARD_CAP

SCENARIOS = ("qnd_coherent", "spdc_heralded", "bb84_baseline")
TYPE_SELECTIONS = ("both", "type1_only", "type2_only")
PHOTON_TERMS = ("one_one_only", "up_to_two")
# largest distance grid a config may ask for; each point is one mu optimization
MAX_DISTANCE_POINTS = 100_000


class ConfigError(ValueError):
    """Invalid scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "qnd_coherent"
    eta: float = 0.045
    dark: float = 8.5e-7
    loss_db_per_km: float = 0.21
    ec_inefficiency: float = 1.22
    distance_start_km: float = 0.0
    distance_stop_km: float = 60.0
    distance_step_km: float = 2.0
    mu_min: float = 1e-4
    mu_max: float = 1.5
    type_selection: str = "both"
    photon_terms: str = "up_to_two"
    n_cutoff: int = 6
    spdc_pair_statistics: str = "thermal"
    output_path: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.type_selection not in TYPE_SELECTIONS:
            raise ConfigError(f"unknown type selection {self.type_selection!r}")
        if self.photon_terms not in PHOTON_TERMS:
            raise ConfigError(f"unknown photon-terms mode {self.photon_terms!r}")
        if self.spdc_pair_statistics not in ("thermal", "poisson"):
            raise ConfigError(f"unknown pair statistics {self.spdc_pair_statistics!r}")
        if not 0 < self.eta <= 1:
            raise ConfigError(f"detector efficiency {self.eta} outside (0, 1]")
        if not 0 <= self.dark < 1:
            raise ConfigError(f"dark-count probability {self.dark} outside [0, 1)")
        if not 0 <= self.loss_db_per_km < math.inf:
            raise ConfigError("negative or non-finite loss coefficient")
        if not 1 <= self.ec_inefficiency < math.inf:
            raise ConfigError("error-correction inefficiency below 1 or non-finite")
        grid = (self.distance_start_km, self.distance_stop_km, self.distance_step_km)
        if not all(map(math.isfinite, grid)) or grid[0] < 0 or grid[2] <= 0 or grid[1] < grid[0]:
            raise ConfigError("empty, inverted, negative or non-finite distance grid")
        if (grid[1] + 1e-9 - grid[0]) / grid[2] >= MAX_DISTANCE_POINTS:
            raise ConfigError(f"distance grid of more than {MAX_DISTANCE_POINTS} points")
        if not 0 < self.mu_min < self.mu_max < math.inf:
            raise ConfigError("invalid mean-photon-number bounds")
        if not isinstance(self.n_cutoff, int) or not 2 <= self.n_cutoff <= CUTOFF_HARD_CAP:
            raise ConfigError(f"source cutoff must be an integer from 2 to {CUTOFF_HARD_CAP}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError("output path must be a string or null")

    def distances(self) -> list[float]:
        """Points start + i*step up to stop (with 1e-9 km slack), rounded to 9 decimals."""
        start, step = self.distance_start_km, self.distance_step_km
        count = math.floor((self.distance_stop_km + 1e-9 - start) / step) + 1
        return [round(start + i * step, 9) for i in range(count)]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "ScenarioConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())
