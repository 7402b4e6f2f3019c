"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from convkernel.kernels import Architecture


def random_symmetric(rng: np.random.Generator, p: int) -> np.ndarray:
    a = rng.standard_normal((p, p))
    return (a + a.T) / 2.0


def random_psd(
    rng: np.random.Generator, p: int, eig_low: float = 0.5, eig_high: float = 2.0
) -> np.ndarray:
    """Well-conditioned random PSD matrix with eigenvalues in [eig_low, eig_high]."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = rng.uniform(eig_low, eig_high, size=p)
    out = (q * eigs) @ q.T
    return (out + out.T) / 2.0


def random_unit_vector(rng: np.random.Generator, p: int) -> np.ndarray:
    v = rng.standard_normal(p)
    return v / np.linalg.norm(v)


def unit_start(geometry, arch: Architecture) -> np.ndarray:
    """The depth-0 matrix, identity or all-ones, scaled to unit Frobenius norm."""
    start = np.eye(geometry.p) if arch is Architecture.FLATTENING else np.ones((geometry.p,) * 2)
    return start / np.linalg.norm(start)

