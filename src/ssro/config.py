"""Run configuration: schema-validated JSON with environment overrides.

A config file mirrors the package's parameter objects section by section.
Unknown keys are rejected everywhere.  Environment variables with the
``SSRO_`` prefix override file values using ``__`` as the path separator
(``SSRO_RUN__SHOTS=1000`` sets run.shots), which is how CI pipelines are
expected to tweak runs without editing files.
"""
from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from .analysis import ClassifierConfig
from .model import PhysicalParams, packaged_defaults
from .optics import OpticalModel, default_optical_model
from .trajectory import ShotModel, calibrated_shot_model

__all__ = ["RunConfig", "RunSettings", "ProtocolConfig", "ConfigError",
           "load_config", "default_config", "ENV_PREFIX"]

ENV_PREFIX = "SSRO_"

BUILTIN_PROFILES = ("default", "paper-defaults")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ProtocolConfig:
    kind: str = "standard"            # standard | dual
    cycles: int = 250
    laser_window_us: float = 1.5
    pi_duration_us: float = 1.0

    def __post_init__(self):
        if self.kind not in ("standard", "dual"):
            raise ConfigError(f"protocol.kind must be standard or dual, "
                              f"got {self.kind!r}")
        if self.cycles < 1:
            raise ConfigError("protocol.cycles must be >= 1")

    def build(self):
        from .protocol import build_dual_step_readout, build_standard_readout
        builder = (build_dual_step_readout if self.kind == "dual"
                   else build_standard_readout)
        return builder(PhysicalParams(), cycles=self.cycles,
                       laser_window_us=self.laser_window_us,
                       pi_duration_us=self.pi_duration_us)


@dataclass(frozen=True)
class RunSettings:
    shots: int = 100_000
    seed: int = 1
    out: str = "ssro-out"
    full_cycles: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.shots < 1:
            raise ConfigError("run.shots must be >= 1")
        if self.workers < 1:
            raise ConfigError("run.workers must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    physical: PhysicalParams = field(default_factory=PhysicalParams)
    optical: OpticalModel = field(default_factory=default_optical_model)
    shot_model: ShotModel = field(default_factory=calibrated_shot_model)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    run: RunSettings = field(default_factory=RunSettings)

    def to_dict(self) -> dict:
        return {
            "physical": dataclasses.asdict(self.physical),
            "optical": dataclasses.asdict(self.optical),
            "shot_model": dataclasses.asdict(self.shot_model),
            "protocol": dataclasses.asdict(self.protocol),
            "classifier": dataclasses.asdict(self.classifier),
            "run": dataclasses.asdict(self.run),
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        sections = dict(
            physical=PhysicalParams,
            optical=OpticalModel,
            shot_model=ShotModel,
            protocol=ProtocolConfig,
            classifier=ClassifierConfig,
            run=RunSettings,
        )
        unknown = set(raw) - set(sections)
        if unknown:
            raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
        defaults = cls()
        kwargs = {}
        for name, typ in sections.items():
            section = raw.get(name, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            allowed = {f.name for f in dataclasses.fields(typ)}
            bad = set(section) - allowed
            if bad:
                raise ConfigError(
                    f"unknown key(s) in {name}: {sorted(bad)}")
            try:
                base = dataclasses.asdict(getattr(defaults, name))
                base.update(section)
                kwargs[name] = typ(**base)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid {name} section: {exc}") from exc
        return cls(**kwargs)


def _parse_env_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_env(raw: dict, environ) -> dict:
    for key, value in sorted(environ.items()):
        if not key.startswith(ENV_PREFIX):
            continue
        path = key[len(ENV_PREFIX):].lower().split("__")
        if len(path) != 2:
            raise ConfigError(
                f"env override {key} must look like "
                f"{ENV_PREFIX}SECTION__FIELD")
        section, fieldname = path
        raw.setdefault(section, {})[fieldname] = _parse_env_value(value)
    return raw


def default_config() -> RunConfig:
    return RunConfig()


def load_config(path_or_profile: str | None = None,
                environ=None) -> RunConfig:
    """Load a config file or a built-in profile name, then apply
    environment overrides."""
    environ = os.environ if environ is None else environ
    if path_or_profile in (None, *BUILTIN_PROFILES):
        raw = packaged_defaults()
    else:
        try:
            with open(path_or_profile, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path_or_profile}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    raw = _apply_env(raw, environ)
    return RunConfig.from_dict(raw)
