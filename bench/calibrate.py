"""A fixed pure-Python reference task that gauges the host's current speed.

On a shared host the speed available to one thread drifts: on the 2-core VM
where this benchmark was defined, raw throughput of the same ops moved by up
to 2x within minutes.  Each timed chunk is therefore bracketed by runs of this
task, which shares no code with gradcast, and its times are rescaled to a host
on which the task takes ``REFERENCE_NS``.  A change to gradcast moves the
rescaled numbers; a change in the host's speed mostly does not.
"""

import random
import time

from workloads import evaluate, gen_tree, tree_text

REFERENCE_NS = 100_000
_TREE = gen_tree(random.Random(0), 40)


def reference_ns() -> int:
    """Wall time of one run of the reference task, in ns."""
    start = time.perf_counter_ns()
    for _ in range(3):
        evaluate(_TREE)
        evaluate(_TREE, swapped=True)
        tree_text(_TREE)
    return time.perf_counter_ns() - start
