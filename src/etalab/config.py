"""Run configuration: defaults, flat key=value config file, flag overrides.

Precedence is defaults < config file < explicit command-line flags.  The
config file uses the long flag names (without leading dashes) as keys;
its path comes from ETALAB_CONFIG.  Values from any source pass errors.py.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import check_at_least, check_in, check_target

ENV_CONFIG = "ETALAB_CONFIG"


@dataclass
class RunConfig:
    precision: float = 1e-9  # CLI-facing oracle target; the library floor is 1e-13
    epsilon: float = 0.5
    window: int = 1000
    grid_alpha_from: float = 0.0
    grid_alpha_to: float = 0.45
    grid_alpha_step: float = 0.05
    grid_t_from: float = 2.0 * math.pi + 1.0
    grid_t_to: float = 120.0
    grid_t_step: float = 0.25
    format: str = "csv"
    out: str | None = None
    cache_dir: str | None = None
    threads: int = 1


_KEY_TO_FIELD = {f.name.replace("_", "-"): f.name for f in fields(RunConfig)}

_PARSERS = {
    f.name: str if f.default is None else type(f.default) for f in fields(RunConfig)
}


def read_config_file(path) -> dict:
    """Parse flat key=value lines; # starts a comment."""
    values: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        field = _KEY_TO_FIELD.get(key)
        if field is None:
            raise ValueError(f"unknown config key: {key!r}")
        values[field] = _PARSERS[field](val.strip())
    return values


def resolve_config(cli_values: dict) -> RunConfig:
    """Layer config-file values and explicit CLI values over the defaults.

    cli_values maps RunConfig field names to values or None; None means
    the flag was not given.
    """
    cfg = RunConfig()
    env_path = os.environ.get(ENV_CONFIG)
    if env_path:
        for field, value in read_config_file(env_path).items():
            setattr(cfg, field, value)
    for field, value in cli_values.items():
        if value is not None:
            setattr(cfg, field, value)
    check_at_least("threads", cfg.threads, 1)
    check_target(cfg.precision)
    check_in("format", cfg.format, "{csv, json}")
    return cfg
