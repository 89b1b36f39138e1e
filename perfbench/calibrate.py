"""Machine speed from a fixed pure-Python kernel, to scale timings by.

On a shared machine the speed one process gets drifts by tens of percent
over seconds and minutes, as other tenants' load comes and goes. The
benchmark times this kernel between operations and scales each
operation's time by ``REFERENCE_S / kernel time``, so timings read as if
taken on a machine running the kernel at its reference speed.

What the kernel does: 60 times over, it sorts the 40 items of a small
string-keyed dict, looks each key up in another 40-key dict and sums the
few products with ``math.fsum``. The two dicts share almost no keys, so
the time goes to ``sorted()`` over tuples, string hashing and dict
lookups: the interpreter work of kpindex's ``cosine``, without its
arithmetic. Every call touches the same 60 rows (about 120 KB), so the
kernel runs from the CPU caches: it follows how fast the CPU runs this
process (other tenants on the same core, clock changes), not extra cache
misses, and a stall that falls between two samples goes unseen.

On the 2-CPU x86-64 VM the bounds were set on, over 150 s of operations
cut into blocks of 8 to 11 s, dividing by this kernel cut the spread of
the block times (coefficient of variation) from 0.103 to 0.024 for
``index-search`` queries and from 0.033 to 0.023 for ``neighbors-wide``
documents. A variant that walked a 4000-row table with overlapping keys,
so that it missed the caches, did no better (0.039 and 0.018).

The kernel must never change, or timings taken before and after the
change stop being comparable.
"""

from __future__ import annotations

import math
import random
import statistics
import time

#: Seconds of one ``measure()`` call on a lightly loaded 2-CPU x86-64 VM
#: with CPython 3.11. Only sets the scale of the reported numbers.
REFERENCE_S = 0.0004

_rng = random.Random(20210628)
_KEYS = [f"t{i}" for i in range(20000)]
_TABLE = [{k: _rng.random() for k in _rng.sample(_KEYS, 40)}
          for _ in range(4000)]
_PROBE = {k: 1.0 for k in _rng.sample(_KEYS, 40)}
_ORDER = [_rng.randrange(len(_TABLE)) for _ in range(60)]


def _kernel() -> float:
    total = 0.0
    for i in _ORDER:
        row = _TABLE[i]
        total += math.fsum(w * row[t] for t, w in sorted(_PROBE.items())
                           if t in row)
    return total


def measure(tries: int = 3) -> float:
    """Median seconds of ``tries`` timed kernel calls."""
    times = []
    for _ in range(tries):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
