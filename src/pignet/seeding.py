"""Deterministic RNG derivation.

Every stochastic step derives its generator from a tuple of integers
(seed plus context tags such as epoch and shape index), so results do not
depend on scheduling order and replay bit-exactly.
"""

import numpy as np

# context tags mixed into derived seeds
INIT = 0
SHUFFLE = 1
SAMPLE = 2
AUGMENT = 3
EVAL = 4
NOISE = 5


def make_rng(*entropy):
    """Build a PCG64 generator from a tuple of integer entropy values."""
    seq = np.random.SeedSequence([int(e) for e in entropy])
    return np.random.Generator(np.random.PCG64(seq))


def rng_of(seed, *tags):
    """Accept either a ready generator or an int / tuple seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (tuple, list)):
        return make_rng(*seed, *tags)
    return make_rng(int(seed), *tags)
