"""Counter-based random streams.

Every stochastic quantity in the simulator is drawn from a Philox stream
keyed on (seed, purpose tag) with the counter carrying one index (a
snapshot, or a TX wobble step). Streams can therefore be evaluated in
any order, in parallel, and always reproduce bit-identically.

This module is the package's one import of numpy.random (``numpy_random``).
numpy.random's ``bit_generator`` imports ``secrets``, which imports
``hmac`` and ``hashlib``, and those map OpenSSL's libcrypto (~3.4 MiB of
RSS) through ``_hashlib``. Every stream here is keyed, so nothing ever
draws from ``secrets``: the first import hides ``_hashlib``, and ``hmac``
and ``hashlib`` fall back to CPython's built-in digests. It then drops
the ``hashlib`` and ``hmac`` modules it made, so a later ``import
hashlib`` anywhere in the process loads OpenSSL as usual.
"""

import sys
import threading

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

_random = None
_random_lock = threading.Lock()  # a first draw may come from any thread


def numpy_random():
    """The numpy.random module, imported on first use with OpenSSL hidden
    unless numpy.random or ``_hashlib`` is already loaded; an interpreter
    whose ``hmac`` requires ``_hashlib`` gets a plain import."""
    global _random
    if _random is None:
        with _random_lock:
            if _random is None:
                _random = _import_random()
    return _random


def _import_random():
    if "numpy.random" not in sys.modules and "_hashlib" not in sys.modules:
        before = set(sys.modules)
        sys.modules["_hashlib"] = None
        try:
            import numpy.random
            return numpy.random
        except ImportError:
            pass
        finally:
            del sys.modules["_hashlib"]
            for name in ("hashlib", "hmac"):
                if name not in before:
                    sys.modules.pop(name, None)
    import numpy.random
    return numpy.random


def stream(seed, tag, index=0):
    """Return a Generator for the (seed, tag) stream at ``index``: numpy's
    Philox keyed on [seed mod 2**64, tag] with the counter [0, index mod
    2**64, 0, 0], given as uint64 words (numpy takes a list holding a word
    >= 2**63 through float64); each index owns a disjoint block of 2**64
    draws."""
    key = np.array([int(seed) & _MASK64, int(tag) & _MASK64], np.uint64)
    counter = np.array([0, int(index) & _MASK64, 0, 0], np.uint64)
    random = numpy_random()
    return random.Generator(random.Philox(key=key, counter=counter))
