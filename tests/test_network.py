"""The network identity: over random weights, the output covariance of a deep
linear CNN on basis images is the depth-D transform, up to scale."""

from __future__ import annotations

import math

import numpy as np
import pytest

from _network import readout_features
from _oracles import dense
from convkernel.kernels import Architecture, ConvGeometry, GeometryKind, Padding, feature_transforms

DEPTH = 3
CHANNELS = 4
DRAWS, CHUNK = 10_000, 1_000
# Accepts an entry within this many Monte Carlo standard errors.
Z_MAX = 5.0

CASES = [(ConvGeometry(GeometryKind.ONE_D, 8), padding, arch)
         for padding in Padding for arch in Architecture]
CASES.append((ConvGeometry(GeometryKind.TWO_D, 9), Padding.ZERO, Architecture.POOLING))


def output_products(geometry, padding, arch) -> np.ndarray:
    """E_v[f(e_i) f(e_j)] of each of DRAWS networks: shape (DRAWS, p, p)."""
    rng = np.random.default_rng(2024)
    samples = []
    for _ in range(DRAWS // CHUNK):
        features = readout_features(rng, CHUNK, geometry.axes, DEPTH, CHANNELS,
                                    padding is Padding.CIRCULAR,
                                    arch is Architecture.POOLING)
        samples.append(features.transpose(0, 2, 1) @ features)
    return np.concatenate(samples)


def largest_z(samples: np.ndarray, transform) -> float:
    """Largest |mean - scale * T| over the entries, each in its own standard
    errors, at the least-squares scale.  An entry no draw moves (two inputs
    whose receptive fields do not meet) must match exactly."""
    matrix = dense(transform)
    mean = samples.mean(axis=0)
    error = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    scale = np.sum(mean * matrix) / np.sum(matrix * matrix)
    deviation = np.abs(mean - scale * matrix)
    z = np.divide(deviation, error, out=np.where(deviation > 0, np.inf, 0.0), where=error > 0)
    return float(np.max(z))


@pytest.mark.parametrize("geometry, padding, arch", CASES,
                         ids=lambda case: getattr(case, "value", None))
def test_output_covariance_is_the_transform(geometry, padding, arch):
    samples = output_products(geometry, padding, arch)
    # Circular padding makes every depth the same transform: nothing to reject.
    depths = [DEPTH] if padding is Padding.CIRCULAR else [DEPTH - 1, DEPTH, DEPTH + 1]
    z = {d: largest_z(samples, ft)
         for d, ft in zip(depths, feature_transforms(depths, geometry, padding, arch))}
    assert z[DEPTH] <= Z_MAX, z
    assert all(z[d] > Z_MAX for d in depths if d != DEPTH), z
