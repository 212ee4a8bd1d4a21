"""Scenario configuration with JSON round-tripping.

Defaults follow the Gobby-Yuan-Shields detector and fiber parameters.
"""

import math
from typing import NamedTuple

SCENARIOS = ("qnd_coherent", "spdc_heralded", "bb84_baseline")
TYPE_SELECTIONS = ("both", "type1_only", "type2_only")
PHOTON_TERMS = ("one_one_only", "up_to_two")
# largest distance grid a config may ask for; each point is one mu optimization
MAX_DISTANCE_POINTS = 100_000


class ConfigError(ValueError):
    """Invalid scenario configuration."""


# the annotations are evaluated (no `from __future__ import annotations`), so
# the numeric fields can be read off them as `float`
class _ScenarioConfig(NamedTuple):
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
    spdc_pair_statistics: str = "thermal"
    output_path: str | None = None


_NUMBER_FIELDS = tuple(
    name for name, kind in _ScenarioConfig.__annotations__.items() if kind is float
)


class ScenarioConfig(_ScenarioConfig):
    """A scenario and its parameters, checked on construction (also by `_replace`)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in _NUMBER_FIELDS:
            value = getattr(self, name)
            # JSON true/false would pass as 1/0, and null or a string fails a comparison
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            # a JSON integer may lie beyond the float range the model computes in
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"{name} is beyond the float range") from None
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
        # the grid's points are rounded to 9 decimals and its stop has 1e-9 km
        # of slack: a finer step repeats points and oversteps the stop
        if grid[2] <= 1e-9:
            raise ConfigError(f"distance step {grid[2]} km not above the 1e-9 km resolution")
        if (grid[1] + 1e-9 - grid[0]) / grid[2] >= MAX_DISTANCE_POINTS:
            raise ConfigError(f"distance grid of more than {MAX_DISTANCE_POINTS} points")
        self.distances()  # a grid whose rounded points overstep the stop or repeat raises
        if not 0 < self.mu_min < self.mu_max < math.inf:
            raise ConfigError("invalid mean-photon-number bounds")
        # an empty path would silently mean standard output
        path = self.output_path
        if path is not None and not (isinstance(path, str) and path):
            raise ConfigError("output path must be a non-empty string or null")
        return self

    __new__.__wrapped__ = _ScenarioConfig.__new__  # the signature `help` shows

    @classmethod
    def _make(cls, iterable):
        """Build through the checking constructor, so `_replace` checks too."""
        return cls(*iterable)

    def distances(self) -> list[float]:
        """Points start + i*step up to stop (with 1e-9 km slack), rounded to 9
        decimals, so the first is the start rounded.  A ConfigError if a
        rounded point falls past the stop or the points do not increase
        strictly, as where the float spacing of the distances is near the
        step."""
        start, stop, step = self.distance_start_km, self.distance_stop_km, self.distance_step_km
        count = math.floor((stop + 1e-9 - start) / step) + 1
        points = [round(start + i * step, 9) for i in range(count)]
        if points[-1] > stop:
            raise ConfigError(
                f"distance grid point {points[-1]} km past the stop {stop} km"
                " after rounding to 9 decimals"
            )
        if any(a >= b for a, b in zip(points, points[1:])):
            raise ConfigError(
                f"distance step {step} km repeats grid points after rounding to 9 decimals"
            )
        return points

    def to_json(self) -> str:
        import json

        return json.dumps(self._asdict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        import json

        try:
            data = json.loads(text)
        except ValueError as exc:  # also an integer past the digit limit of int()
            raise ConfigError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ConfigError("invalid JSON: nested too deeply") from None
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "ScenarioConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())
