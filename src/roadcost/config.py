"""Run configuration: solver knobs, experiment knobs, config-file parsing."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .graph import HIGHWAY_CUTOFF_KMH
from .pagerank import DEFAULT_TOL
from .solver import DEFAULT_CG_TOL

# Objective variants: which penalty terms participate besides the misfit
# and ridge terms (use_similarity, use_adjacency).
VARIANTS = {
    "F1": (False, False),
    "F2": (True, False),
    "F3": (False, True),
    "F4": (True, True),
}


@dataclass(frozen=True)
class RunConfig:
    """Knobs for annotation and evaluation runs.

    alpha weighs the flow-similarity penalty, beta the directional-adjacency
    penalty, gamma the ridge term (must stay positive). The similarity
    threshold filters segment pairs by PageRank ratio; the highway cutoff
    splits edges into highway/urban categories for the adjacency penalty.
    These fields are the one list of run settings: the config-file keys and
    the command-line flags are read off them.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1e-4
    similarity_threshold: float = 0.95
    highway_cutoff_kmh: float = HIGHWAY_CUTOFF_KMH
    cg_tol: float = DEFAULT_CG_TOL
    pr_tol: float = DEFAULT_TOL
    seed: int = 0
    variant: str = "F4"

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        for name in ("gamma", "highway_cutoff_kmh", "cg_tol", "pr_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.cg_tol >= 1:  # the zero start of CG already meets it
            raise ValueError(f"cg_tol must be below 1, got {self.cg_tol}")
        if not 0 < self.similarity_threshold <= 1:
            raise ValueError("similarity threshold must be in (0, 1]")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {sorted(VARIANTS)}")

    def variant_coefficients(self, variant: str) -> tuple[float, float]:
        """(alpha, beta) actually applied under a given variant."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}: must be one of {sorted(VARIANTS)}")
        use_a, use_b = VARIANTS[variant]
        return (self.alpha if use_a else 0.0, self.beta if use_b else 0.0)


def parse_config_file(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    """Read key=value lines (# comments allowed) on top of a base config.

    Each value takes the type of its field's default and is validated as it
    is read, so a bad one is reported as ``path:line``.
    """
    config = base or RunConfig()
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            config = replace(config, **{key: types[key](value)})
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}={value}: {exc}") from None
    return config
