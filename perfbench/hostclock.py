"""Host-clock measurement of the simulator process itself.

The simulated system never reads these clocks: they time the Python
process that runs the simulation (how much CPU a round costs, how much
memory it peaks at).  CPU time is preferred to wall time because other
tenants of a shared machine move wall time far more than CPU time.
"""

from __future__ import annotations

import resource
import time

__all__ = ["cpu_s", "wall_s", "peak_rss_mb"]

#: Process CPU seconds (user + system), the host-clock unit of the benchmark.
cpu_s = time.process_time

#: Monotonic wall seconds: only bounds how long a run keeps repeating rounds.
wall_s = time.monotonic


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
