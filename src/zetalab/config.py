"""Flat key-value configuration for the CLI.

Format: one `key = value` per line, `#` starts a comment anywhere,
blank lines ignored, unknown keys rejected.  The keys are Config's four
fields; series lengths the code works out and the report directory
(`moment report --out`) are not keys.  --threads overrides the file;
the only environment variable honored is ZETALAB_CONFIG, which names
the config file when --config is absent.  Thread counts live here so
runs are reproducible from (flags, config) alone, never from ambient
machine state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Optional

from .errors import ParseError
from .quadrature import QuadratureSettings
from .zeta import EvalSettings

ENV_VAR = "ZETALAB_CONFIG"


@dataclass(frozen=True)
class Config:
    """Effective settings: precision and quadrature."""

    target_abs_error: float = EvalSettings.target_abs_error
    points_per_panel: int = QuadratureSettings.points_per_panel
    width_scale: float = QuadratureSettings.width_scale
    threads: int = QuadratureSettings.threads

    def __post_init__(self):
        self.eval_settings()  # the settings objects validate their own fields
        self.quadrature_settings()

    def eval_settings(self) -> EvalSettings:
        return EvalSettings(target_abs_error=self.target_abs_error)

    def quadrature_settings(self) -> QuadratureSettings:
        return QuadratureSettings(
            points_per_panel=self.points_per_panel,
            width_scale=self.width_scale,
            threads=self.threads,
        )


# key -> parser: the type of each field's default
_PARSERS = {f.name: type(f.default) for f in fields(Config)}


def parse_config(text: str) -> Config:
    """Parse config text; ParseError positions are 1-based line numbers."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ParseError(f"unknown config key {key!r}", lineno)
        if key in values:
            raise ParseError(f"duplicate config key {key!r}", lineno)
        try:
            values[key] = _PARSERS[key](value)
        except ValueError:
            raise ParseError(f"bad value for {key}: {value!r}", lineno) from None
    return Config(**values)


def dump_config(config: Config) -> str:
    """Render the effective config in parseable form (round-trips)."""
    lines = []
    for f in fields(Config):
        value = getattr(config, f.name)
        if isinstance(value, float):
            value = f"{value:.15g}"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path: Optional[str] = None) -> Config:
    """Read config from path, else from $ZETALAB_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return Config()
    if not os.path.exists(path):
        raise ParseError(f"config file not found: {path}", 0)
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def override(config: Config, **changes) -> Config:
    """Apply flag overrides; None values mean 'not given'."""
    effective = {k: v for k, v in changes.items() if v is not None}
    return replace(config, **effective) if effective else config
