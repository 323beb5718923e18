"""Search-space generator: eigenvector-plus-noise bases.

Randomness comes exclusively from the counter-based Philox 4x64 generator
keyed by the caller's integer seed, so every basis is bit-reproducible for a
fixed seed (and a fixed numpy major version, which pins the normal-variate
algorithm).
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import as_integer, as_matrix, as_vector, orthonormalize


def generator(seed: int) -> np.random.Generator:
    """The package-wide seeded source: Philox 4x64 keyed by ``seed`` in ``[0, 2**128)``."""
    return np.random.Generator(np.random.Philox(key=as_integer(seed, "seed", 0, 2**128)))


def as_epsilon(epsilon) -> float:
    """The one admission of a perturbation size: ``epsilon`` as a finite float ``>= 0``."""
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    return epsilon


def perturbed_subspace(x1, companions, epsilon: float, seed: int) -> np.ndarray:
    """Orthonormal basis of ``[x1, companions] + epsilon * G``.

    ``G`` has independent unit-variance normal real and imaginary parts drawn
    from the seeded generator (real parts first, then imaginary).  For
    ``epsilon = 0`` the first Householder column reproduces ``x1`` up to a
    unit phase, so ``x1`` lies in the span exactly.

    Raises:
        ValueError: if ``epsilon`` is negative or not finite (``as_epsilon``),
            or ``seed`` is not an integer in ``[0, 2**128)`` (``generator``).
        DimensionMismatch: if ``companions`` and ``x1`` differ in row count.
        RankDeficient: if the perturbed block loses full column rank.
    """
    epsilon = as_epsilon(epsilon)
    if np.size(companions):
        companions = as_matrix(companions, "companions")
        base = np.column_stack([as_vector(x1, "x1", companions.shape[0]), companions])
    else:
        base = as_vector(x1, "x1").reshape(-1, 1)
    rng = generator(seed)
    noise = rng.standard_normal(base.shape) + 1j * rng.standard_normal(base.shape)
    return orthonormalize(base + epsilon * noise)
