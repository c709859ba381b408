"""Counter-based random streams.

Every stochastic quantity in the simulator is drawn from a Philox stream
keyed on (seed, purpose tag) with the counter carrying one index (a
snapshot, or a hover wobble step). Streams can therefore be evaluated in
any order, in parallel, and always reproduce bit-identically.
"""

import numpy as np

# Purpose tags keep streams for different physical effects independent
# even when they share a seed and an index.
TAG_CHAIN = 1
TAG_PORT_GAIN = 2
TAG_NOISE = 3
TAG_DRIFT_MEAS = 4
TAG_DRIFT_B2B = 5
TAG_WOBBLE_POS = 6
TAG_WOBBLE_TILT = 7

_MASK64 = (1 << 64) - 1


def stream(seed, tag, index=0):
    """Return a Generator for the (seed, tag) stream at ``index``: numpy's
    Philox keyed on [seed mod 2**64, tag] with the counter [0, index mod
    2**64, 0, 0], given as uint64 words (numpy takes a list holding a word
    >= 2**63 through float64); each index owns a disjoint block of 2**64
    draws."""
    key = np.array([int(seed) & _MASK64, int(tag) & _MASK64], np.uint64)
    counter = np.array([0, int(index) & _MASK64, 0, 0], np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))
