"""Runtime limits and evaluation horizons.

Resolution order (CLI and library agree): explicit argument > config file
named by the DENSITAS_CONFIG environment variable > defaults below. The file
format is flat `key = value` lines; unknown keys are rejected so typos fail
loudly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace, fields


@dataclass(frozen=True)
class Config:
    # Prefix horizon for observational density profiles on truncated evidence.
    prefix_horizon: int = 100_000
    # Largest window length tried by sliding-window scans (powers of two).
    window_max: int = 16_384
    # Residue materialization guard for lcm-based normalization.
    modulus_budget: int = 1_000_000_000
    # Last default cut of the observational weighted prefix profile (it stops
    # at the smaller of this and prefix_horizon).
    weight_horizon: int = 100_000
    # Cap on the doubling search for valid cuts in limit construction.
    cut_search_max: int = 1 << 26
    # Printed with every report but enforced nowhere: nothing reads it.
    ie_subset_budget: int = 1_000_000
    # Start positions swept per window length when maxima need a full period;
    # periods longer than this degrade to candidate-restricted probing.
    window_sweep_budget: int = 100_000

    def with_overrides(self, **kw) -> "Config":
        return replace(self, **kw)


DEFAULT_CONFIG = Config()

_FIELD_NAMES = {f.name: f.type for f in fields(Config)}


def load_config(path: str | None = None) -> Config:
    """Load a Config, consulting DENSITAS_CONFIG when no path is given."""
    if path is None:
        path = os.environ.get("DENSITAS_CONFIG")
    if not path:
        return DEFAULT_CONFIG
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _FIELD_NAMES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = int(value.strip())
    return DEFAULT_CONFIG.with_overrides(**overrides)
