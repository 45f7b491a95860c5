"""Counter-based random streams.

All randomness in polyens flows through Philox (a counter-based generator),
keyed so that replica r of a run with seed s draws from an independent,
reproducible stream:

    stream(seed, r) == Generator(Philox(SeedSequence(entropy=seed, spawn_key=(r,))))

Splitting by spawn_key means results do not depend on how replicas are
batched: replica 17 produces the same points whether it runs first, last,
or alone.
"""

import numpy as np

from .errors import _integer

DEFAULT_SEED = 20230915


def stream(seed=DEFAULT_SEED, replica=0):
    """Independent Generator for the (seed, replica) pair; seed None is DEFAULT_SEED."""
    seed = DEFAULT_SEED if seed is None else _integer(seed, "seed", 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_integer(replica, "replica", 0),))
    return np.random.Generator(np.random.Philox(ss))
