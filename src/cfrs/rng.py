"""Deterministic random-stream management.

Every stochastic quantity in the package is drawn from a named substream of a
single experiment seed, so results are reproducible and independent of worker
count or evaluation order.
"""

import math
import zlib

import numpy as np


def substream(seed, *tags):
    """Return a ``numpy.random.Generator`` for the substream named by ``tags``.

    Tags may be strings or integers. The same (seed, tags) combination always
    produces the same stream.
    """
    words = []
    for tag in tags:
        if isinstance(tag, (int, np.integer)):
            words.append(int(tag) & 0xFFFFFFFF)
        else:
            words.append(zlib.crc32(str(tag).encode("utf-8")))
    entropy = [int(seed) & 0xFFFFFFFF] + words
    return np.random.default_rng(np.random.SeedSequence(entropy))


def complex_normal_blocks(rng, n, shape, out):
    """n blocks of circularly symmetric unit-variance complex Gaussians,
    shape (n, *shape), written into the first n prod(shape) entries of the
    flat complex buffer out.

    Draws one (n, M, 2) standard-normal array, M = prod(shape), into out's
    float view and reads each (real, imaginary) pair as one number, so block
    b reads numbers [2 M b, 2 M (b + 1)) of the stream: n1 blocks and then
    n2 blocks are the same numbers as n1 + n2 blocks at once.
    """
    M = math.prod(shape)
    x = rng.standard_normal(out=out[:n * M].view(float).reshape(n, M, 2))
    x *= 1.0 / np.sqrt(2.0)
    return x.view(complex).reshape(n, *shape)
