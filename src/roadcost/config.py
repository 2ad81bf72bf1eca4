"""Run configuration: solver knobs, experiment knobs, config-file parsing."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

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
    splits edges into highway/urban categories for the adjacency penalty and
    the speed-limit baseline.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1e-4
    similarity_threshold: float = 0.95
    highway_cutoff_kmh: float = 90.0
    cg_tol: float = DEFAULT_CG_TOL
    pr_tol: float = DEFAULT_TOL
    seed: int = 0
    variant: str = "F4"

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if not 0 < self.similarity_threshold <= 1:
            raise ValueError("similarity threshold must be in (0, 1]")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {sorted(VARIANTS)}")

    def variant_coefficients(self, variant: str) -> tuple[float, float]:
        """(alpha, beta) actually applied under a given variant."""
        use_a, use_b = VARIANTS[variant]
        return (self.alpha if use_a else 0.0, self.beta if use_b else 0.0)


_FLOAT_FIELDS = {
    "alpha", "beta", "gamma", "similarity_threshold", "highway_cutoff_kmh",
    "cg_tol", "pr_tol",
}
_INT_FIELDS = {"seed"}


def parse_config_file(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    """Read key=value lines (# comments allowed) on top of a base config."""
    config = base or RunConfig()
    overrides: dict[str, object] = {}
    known = {f.name for f in fields(RunConfig)}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in _FLOAT_FIELDS:
            overrides[key] = float(value)
        elif key in _INT_FIELDS:
            overrides[key] = int(value)
        else:
            overrides[key] = value
    return replace(config, **overrides)
