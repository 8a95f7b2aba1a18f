"""Deterministic, splittable random streams.

All randomness in the toolkit flows through counter-based Philox generators
keyed by a root seed plus an integer path (for example the trajectory index).
Streams derived this way are independent of each other and of the order in
which they are created, so results are reproducible regardless of how work is
chunked or threaded.
"""

import numbers

import numpy as np

from .errors import InvalidInput

_MASK64 = (1 << 64) - 1


def stream(root_seed, *path):
    """Return a ``numpy.random.Generator`` for ``(root_seed, *path)``.

    The same arguments always yield the same stream; distinct paths yield
    statistically independent streams. Within a stream, draws are consumed
    sequentially (the Philox counter plays the role of the step index).
    Each word is masked to 64 bits; a bool or a non-integer, which ``int()``
    would alias onto an integer's stream, raises :class:`InvalidInput`.
    """
    words = (root_seed, *path)
    if any(isinstance(w, bool) or not isinstance(w, numbers.Integral) for w in words):
        raise InvalidInput(f"stream seeds and paths must be integers, got {words!r}")
    entropy = tuple(int(w) & _MASK64 for w in words)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# Paths that no shot takes. A sampler run gives shot s the path (s,), and
# SeedSequence reads an integer below 2**32 as one 32-bit word; a path
# 2**32 + k is the two words (k, 1), so it is no shot's path in a run of
# fewer than 2**32 shots.
COUNTS = 2 ** 32  # the count sampler's draws
DRIVES = 2 ** 32 + 1  # the drives of the ipc experiment
