"""Flat key-value configuration for the CLI.

Format: one `key = value` per line, `#` starts a comment anywhere,
blank lines ignored, unknown keys rejected.  The keys are Config's two
fields; series lengths the code works out, the panel rule (a constant
of the quadrature) and the report directory (`moment report --out`) are
not keys.  --threads overrides the file;
the only environment variable honored is ZETALAB_CONFIG, which names
the config file when --config is absent.  Thread counts live here so
runs are reproducible from (flags, config) alone, never from ambient
machine state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Optional

from .errors import ParseError
from .quadrature import QuadratureSettings
from .zeta import EvalSettings

ENV_VAR = "ZETALAB_CONFIG"


@dataclass(frozen=True)
class Config:
    """Effective settings, two fields: the zeta precision target and the
    quadrature thread count."""

    target_abs_error: float = EvalSettings.target_abs_error
    threads: int = QuadratureSettings.threads

    def __post_init__(self):
        self.eval_settings()  # the settings objects validate their own fields
        self.quadrature_settings()

    def eval_settings(self) -> EvalSettings:
        return EvalSettings(target_abs_error=self.target_abs_error)

    def quadrature_settings(self) -> QuadratureSettings:
        return QuadratureSettings(threads=self.threads)


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

