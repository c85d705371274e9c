"""Reasoning-layer configuration, one place for every tunable."""

from __future__ import annotations

from dataclasses import dataclass

from .chem.fingerprint import SKETCH_DIMS


class ConfigError(ValueError):
    pass


# the fixed part of a spatial node feature: kind one-hot + box geometry + fingerprint sketch
BASE_NODE_DIMS = 4 + 4 + SKETCH_DIMS


@dataclass(frozen=True)
class ReasoningConfig:
    """Knobs of the graph construction / fusion / inference stack.

    The fusion weights must be non-negative and sum to one; thresholds
    live in [0, 1].
    """

    k_nn: int = 4
    radius: float = 0.25
    layers: int = 2
    dim: int = 32
    beta: float = 0.7
    tau_chem: float = 0.3
    tau_cluster: float = 0.35
    tau_fuse: float = 0.45
    alpha_space: float = 0.3
    alpha_chem: float = 0.2
    alpha_init: float = 0.5
    exact_search_limit: int = 12
    conservation_penalty: float = 0.9

    def __post_init__(self):
        for name in ("tau_chem", "tau_cluster", "tau_fuse", "radius", "beta"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        alphas = (self.alpha_space, self.alpha_chem, self.alpha_init)
        if not all(a >= 0 for a in alphas):  # written so that NaN fails
            raise ConfigError(f"fusion weights must be non-negative: {alphas}")
        if not abs(sum(alphas) - 1.0) <= 1e-9:
            raise ConfigError(f"fusion weights must sum to 1, got {sum(alphas)}")
        if self.dim < BASE_NODE_DIMS:
            raise ConfigError(f"dim must be >= {BASE_NODE_DIMS}, got {self.dim}")
        if self.k_nn < 0 or self.layers < 1 or self.exact_search_limit < 1:
            raise ConfigError("k_nn >= 0, layers >= 1, exact_search_limit >= 1 required")
        if not 0.0 < self.conservation_penalty <= 1.0:
            raise ConfigError("conservation_penalty must lie in (0, 1]")
