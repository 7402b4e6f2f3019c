"""A random deep linear CNN, run forward in numpy: the network that the
depth-D transform T_D describes, built without any kernel code.

Each of its depth layers maps fan-in channels to `channels` channels with
3-tap (1-D) or 3 x 3 (2-D) filters of iid N(0, 1/(taps * fan-in)) weights,
convolving tap by tap over zero or circularly padded pixels, so the pixel
count stays p.  The input is one channel.  Its readout is linear with iid
N(0, 1) weights v on readout features: every channel and pixel of the last
layer over sqrt(channels * p) (flattening), or each channel's pixel sum over
sqrt(channels) (pooling).  So the network is f(x) = v . (features x), and
over the readout weights E_v[f(x) f(y)] = (features x) . (features y)
exactly.  Over the filter weights as well, E[f(e_i) f(e_j)] is T_D up to
scale at any width.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def readout_features(rng: np.random.Generator, draws: int, axes: tuple[int, ...], depth: int,
                     channels: int, circular: bool, pooling: bool) -> np.ndarray:
    """Readout features of `draws` independent networks on every basis image:
    shape (draws, features, p), column i belonging to the input e_i."""
    p = math.prod(axes)
    taps = list(itertools.product((-1, 0, 1), repeat=len(axes)))
    # (draw, channel, input, *axes): the forward pass of all p basis images at once.
    h = np.broadcast_to(np.eye(p).reshape((1, 1, p) + axes), (draws, 1, p) + axes)
    margin = [(0, 0)] * 3 + [(1, 1)] * len(axes)
    for _ in range(depth):
        fan_in = h.shape[1]
        padded = np.pad(h, margin, mode="wrap" if circular else "constant")
        weights = rng.standard_normal((len(taps), draws, channels, fan_in))
        out = np.zeros((draws, channels, p * p))
        for w, tap in zip(weights, taps):
            # window[..., i] = h[..., i + tap], or the padding beyond the edge.
            window = padded[(...,) + tuple(slice(1 + k, 1 + k + n) for k, n in zip(tap, axes))]
            out += w @ window.reshape(draws, fan_in, p * p)
        h = (out / math.sqrt(len(taps) * fan_in)).reshape((draws, channels, p) + axes)
    fan_in = h.shape[1]
    last = h.reshape(draws, fan_in, p, p)
    if pooling:
        return last.sum(axis=3) / math.sqrt(fan_in)
    return last.transpose(0, 1, 3, 2).reshape(draws, fan_in * p, p) / math.sqrt(fan_in * p)
