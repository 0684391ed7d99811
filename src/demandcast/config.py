"""Run configuration: one JSON document drives every pipeline stage.

Precedence is flag > config file > default, so a config file plus the
overriding flags fully determines a run; the manifest records the resolved
configuration's fingerprint for reproducibility.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .data import DEFAULT_SCHEMA, Granularity, SplitSpec
from .evaluate import MODEL_NAMES, SCENARIO_IDS, ScenarioSpec, config_fingerprint
from .features import DeviationMode
from .inventory import ReplenishmentPolicy
from .models.gbdt import GbdtConfig
from .models.svr import SvrConfig
from .models.trend_seasonal import TrendSeasonalConfig

# Models whose settings model_overrides may change, and their config types.
MODEL_CONFIGS = {"gbdt": GbdtConfig, "svr": SvrConfig, "trend_seasonal": TrendSeasonalConfig}


class ConfigError(ValueError):
    pass


def _check_types(cls, values: Mapping[str, Any], prefix: str = "") -> None:
    """Raise ConfigError unless each value has the JSON type of its field's
    default in the dataclass ``cls``.  A float field also takes an integer; a
    field whose default is null takes null, or a number where it is annotated
    ``float | None`` and a string otherwise.
    Keys ``cls`` lacks are left to its constructor.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, value in values.items():
        f = fields.get(key)
        if f is None:
            continue
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if default is None:
            allowed = (float, int, type(None)) if "float" in str(f.type) else (str, type(None))
        elif isinstance(default, float):
            allowed = (float, int)
        else:
            allowed = (type(default),)
        if type(value) not in allowed:
            names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise ConfigError(f"{prefix}{key} must be {names}, got {value!r}")


def _not_a_number(constant: str) -> None:
    """Reject the ``NaN``, ``Infinity`` and ``-Infinity`` that Python's JSON
    reader takes but JSON does not have."""
    raise ConfigError(f"config file holds {constant}, which is not a JSON number")


@dataclass
class RunConfig:
    data_path: str | None = None  # None -> bundled sample data
    holiday_calendar_path: str | None = None  # None -> bundled calendar
    schema: dict[str, str] = field(default_factory=dict)  # logical -> header name
    granularity: str = "per-series"
    train_end: str = "2017-07-31"  # the test window starts the day after
    test_end: str = "2017-12-31"
    scenarios: list[str] = field(default_factory=lambda: ["S1", "S2"])
    models: list[str] = field(default_factory=lambda: list(MODEL_NAMES))
    deviation_mode: str = "same-day"
    model_overrides: dict[str, dict[str, Any]] = field(default_factory=dict)
    output_dir: str = "out"
    workers: int = 1
    save_models: bool = False
    simulation: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_not_a_number)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def validate(self) -> None:
        """Check every value at load: any bad one raises ConfigError.

        Every value must first have the JSON type of its field's default,
        and so must each setting of ``model_overrides`` and ``simulation``
        against its model config or the policy.  Building the scenario specs
        and the policy then runs their own checks.
        """
        _check_types(RunConfig, vars(self))
        for name, values in (
            ("scenarios", self.scenarios),
            ("models", self.models),
            ("schema", list(self.schema.values())),
        ):
            if any(type(v) is not str for v in values):
                raise ConfigError(f"{name} must hold strings, got {getattr(self, name)!r}")
        unknown = set(self.model_overrides) - set(MODEL_CONFIGS)
        if unknown:
            raise ConfigError(
                f"model_overrides accepts only {sorted(MODEL_CONFIGS)}, got {sorted(unknown)}"
            )
        for name, settings in self.model_overrides.items():
            if type(settings) is not dict:
                raise ConfigError(f"model_overrides.{name} must be dict, got {settings!r}")
            _check_types(MODEL_CONFIGS[name], settings, f"model_overrides.{name}.")
        _check_types(ReplenishmentPolicy, self.simulation, "simulation.")
        for name, value, choices in (
            ("granularity", self.granularity, [g.value for g in Granularity]),
            ("deviation_mode", self.deviation_mode, [m.value for m in DeviationMode]),
            ("simulation.scenario", self.simulation_scenario(), list(SCENARIO_IDS)),
        ):
            if value not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
        bad_schema = set(self.schema) - set(DEFAULT_SCHEMA)
        if bad_schema:
            raise ConfigError(f"schema may remap only date/store/item/sales, got {sorted(bad_schema)}")
        headers = {**DEFAULT_SCHEMA, **self.schema}
        for header in dict.fromkeys(headers.values()):
            shared = [name for name, h in headers.items() if h == header]
            if len(shared) > 1:
                raise ConfigError(f"schema maps {' and '.join(shared)} to one column, {header!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be an integer >= 1, got {self.workers!r}")
        # Path existence is deliberately not a config check: a missing file
        # surfaces when opened, as an input error with its own exit code.
        try:
            self.scenario_specs()
            self.policy()
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def scenario_specs(self) -> list[ScenarioSpec]:
        """The scenarios this config runs: its one translation for evaluate."""
        if not self.scenarios or len(set(self.scenarios)) != len(self.scenarios):
            raise ConfigError(f"scenarios must name each scenario once, got {self.scenarios!r}")
        configs = {
            f"{name}_config": MODEL_CONFIGS[name](**settings)
            for name, settings in self.model_overrides.items()
        }
        return [
            ScenarioSpec(
                scenario_id,
                split=self.split(),
                granularity=Granularity(self.granularity),
                deviation_mode=DeviationMode(self.deviation_mode),
                models=tuple(self.models),
                **configs,
            )
            for scenario_id in self.scenarios
        ]

    def split(self) -> SplitSpec:
        dates = []
        for name in ("train_end", "test_end"):
            value = getattr(self, name)
            try:
                dates.append(dt.date.fromisoformat(value))
            except ValueError:
                raise ConfigError(f"{name} must be a date as YYYY-MM-DD, got {value!r}") from None
        return SplitSpec(*dates)

    def policy(self) -> ReplenishmentPolicy:
        kwargs = {k: v for k, v in self.simulation.items() if k != "scenario"}
        return ReplenishmentPolicy(**kwargs)

    def simulation_scenario(self) -> str:
        return self.simulation.get("scenario", "S2")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        return config_fingerprint(self.to_dict())


def bundled_sample_stream():
    """Binary stream over the packaged sample sales CSV."""
    return resources.files("demandcast.assets").joinpath("sample_sales.csv").open("rb")


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
