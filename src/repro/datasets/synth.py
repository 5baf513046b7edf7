"""Deterministic synthetic-data helpers shared by the dataset builders.

The paper evaluates QFE on two real datasets (a SQLShare biology database and
the Lahman baseball archive) and one census extract; none of them ships with
the paper, so each dataset module builds a *seeded synthetic equivalent* with
the same schema shape, row counts and join selectivity. All randomness flows
through :class:`random.Random` instances seeded per dataset, so every build is
bit-for-bit reproducible and tests can assert exact cardinalities.
"""

from __future__ import annotations

import random
import string

__all__ = [
    "rng_for",
    "identifier",
    "clipped_normal",
    "log_fold_change",
    "p_value",
    "scaled_count",
]

_BASE_SEED = 0x5F3E_2015  # stable across runs; 2015 is the paper's year


def rng_for(name: str, seed: int | None = None) -> random.Random:
    """A deterministic RNG namespaced by *name* (and optionally a caller seed)."""
    base = _BASE_SEED if seed is None else seed
    return random.Random(f"{base}:{name}")


def identifier(rng: random.Random, prefix: str, width: int = 6) -> str:
    """A synthetic identifier such as ``gene_ab12cd`` (lower-case alphanumerics)."""
    alphabet = string.ascii_lowercase + string.digits
    suffix = "".join(rng.choice(alphabet) for _ in range(width))
    return f"{prefix}_{suffix}"


def clipped_normal(
    rng: random.Random, mean: float, stddev: float, minimum: float, maximum: float
) -> float:
    """A normal sample clipped into ``[minimum, maximum]``."""
    value = rng.gauss(mean, stddev)
    return max(minimum, min(maximum, value))


def log_fold_change(rng: random.Random, spread: float = 2.0) -> float:
    """A log-fold-change style value roughly in ``[-3·spread/2, 3·spread/2]``."""
    return round(clipped_normal(rng, 0.0, spread, -3.0 * spread, 3.0 * spread), 4)


def p_value(rng: random.Random, significant_fraction: float = 0.25) -> float:
    """A p-value, a ``significant_fraction`` of which fall below 0.05."""
    if rng.random() < significant_fraction:
        return round(rng.uniform(0.0001, 0.049), 4)
    return round(rng.uniform(0.05, 1.0), 4)


def scaled_count(full_count: int, scale: float, *, minimum: int = 1) -> int:
    """Scale a full-size row count, never dropping below *minimum*."""
    return max(minimum, int(round(full_count * scale)))
