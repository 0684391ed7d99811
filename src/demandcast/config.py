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
from typing import Any

from .data import FillMethod, Granularity, SplitSpec
from .evaluate import MODEL_NAMES
from .features import DeviationMode
from .inventory import ReplenishmentPolicy
from .models.arimax import ForecastMode


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    data_path: str | None = None  # None -> bundled sample data
    holiday_calendar_path: str | None = None  # None -> bundled calendar
    schema: dict[str, str] = field(default_factory=dict)  # logical -> header name
    extra_columns: list[str] = field(default_factory=list)
    granularity: str = "per-series"
    train_end: str = "2017-07-31"
    test_start: str = "2017-08-01"
    test_end: str = "2017-12-31"
    scenarios: list[str] = field(default_factory=lambda: ["S1", "S2"])
    models: list[str] = field(default_factory=lambda: list(MODEL_NAMES))
    deviation_mode: str = "same-day"
    arimax_forecast_mode: str = "recursive"
    fill_method: str = "linear-interpolate"
    model_overrides: dict[str, dict[str, Any]] = field(default_factory=dict)
    output_dir: str = "out"
    workers: int = 1
    save_models: bool = False
    simulation: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def apply_overrides(self, **flags: Any) -> "RunConfig":
        updates = {k: v for k, v in flags.items() if v is not None}
        return dataclasses.replace(self, **updates)

    def validate(self) -> None:
        try:
            self.split()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for value, enum_cls, name in (
            (self.granularity, Granularity, "granularity"),
            (self.deviation_mode, DeviationMode, "deviation_mode"),
            (self.arimax_forecast_mode, ForecastMode, "arimax_forecast_mode"),
            (self.fill_method, FillMethod, "fill_method"),
        ):
            try:
                enum_cls(value)
            except ValueError:
                choices = [e.value for e in enum_cls]
                raise ConfigError(f"{name} must be one of {choices}, got {value!r}") from None
        bad_schema = set(self.schema) - {"date", "store", "item", "sales"}
        if bad_schema:
            raise ConfigError(f"schema may remap only date/store/item/sales, got {sorted(bad_schema)}")
        bad_models = set(self.models) - set(MODEL_NAMES)
        if bad_models:
            raise ConfigError(f"unknown models: {sorted(bad_models)}")
        bad_scenarios = set(self.scenarios) - {"S1", "S2"}
        if bad_scenarios:
            raise ConfigError(f"unknown scenarios: {sorted(bad_scenarios)}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # Path existence is deliberately not a config check: a missing file
        # surfaces when opened, as an input error with its own exit code.
        policy_keys = {f.name for f in dataclasses.fields(ReplenishmentPolicy)}
        sim_known = policy_keys | {"scenario"}
        unknown = set(self.simulation) - sim_known
        if unknown:
            raise ConfigError(f"unknown simulation keys: {sorted(unknown)}")

    def split(self) -> SplitSpec:
        return SplitSpec(
            dt.date.fromisoformat(self.train_end),
            dt.date.fromisoformat(self.test_start),
            dt.date.fromisoformat(self.test_end),
        )

    def policy(self) -> ReplenishmentPolicy:
        kwargs = {k: v for k, v in self.simulation.items() if k != "scenario"}
        return ReplenishmentPolicy(**kwargs)

    def simulation_scenario(self) -> str:
        return self.simulation.get("scenario", "S2")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def bundled_sample_stream():
    """Binary stream over the packaged sample sales CSV."""
    return resources.files("demandcast.assets").joinpath("sample_sales.csv").open("rb")


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
