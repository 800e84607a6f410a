"""Plays rounds and turns them into the benchmark's end-to-end metrics.

A round's simulated-clock metrics are a pure function of (workload, seed,
scale): :func:`play_round` returns them separately from the host-clock
times so a run can check that every repetition reproduced them exactly.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import hostclock
from workloads import WORKLOADS, percentile

__all__ = ["RoundResult", "play_round", "sim_metrics", "METRICS", "GATED",
           "MIN_P99_SAMPLES"]

#: Every end-to-end metric: name -> (unit, clock, what).
METRICS: Dict[str, Tuple[str, str, str]] = {
    "read_p50_ms": ("ms", "sim", "get_data/exists/get_children, submit -> result"),
    "read_p99_ms": ("ms", "sim", "get_data/exists/get_children, submit -> result"),
    "write_p50_ms": ("ms", "sim", "create/set_data/delete, submit -> ack"),
    "write_p99_ms": ("ms", "sim", "create/set_data/delete, submit -> ack"),
    "watch_p50_ms": ("ms", "sim", "triggering write submitted -> watcher callback"),
    "watch_p99_ms": ("ms", "sim", "triggering write submitted -> watcher callback"),
    "eviction_lag_p50_s": ("s", "sim", "session goes silent -> closed_at"),
    "eviction_lag_p99_s": ("s", "sim", "session goes silent -> closed_at"),
    "sim_ops_per_s": ("ops/s", "sim", "client ops completed per simulated second"),
    "cost_usd_per_100k_ops": ("usd", "sim", "metered dollars of the measured phase per 100k ops"),
    "failed_op_frac": ("ratio", "-", "failed or rejected client ops / attempted"),
    "run_cpu_s": ("s", "host", "process CPU time of the measured phase (median of rounds)"),
    "setup_s": ("s", "host", "deploy + registration + preload + warm-up CPU (median)"),
    "peak_rss_mb": ("MB", "host", "peak RSS of the benchmark process"),
}

#: The metrics BENCHMARK.json gates: every workload reports them, and their
#: spread over seeds stays within a third of their bound.  The p99s are
#: reported but not gated: each sits on a steep part of its distribution
#: (storage-fault retries, heartbeat bursts), so it moves 7-16% between seeds.
GATED = ("read_p50_ms", "write_p50_ms", "sim_ops_per_s",
         "cost_usd_per_100k_ops", "run_cpu_s", "setup_s", "peak_rss_mb")

#: A p99 is reported only when at least this many samples back it.
MIN_P99_SAMPLES = 1000


@dataclass
class RoundResult:
    setup_cpu_s: float
    run_cpu_s: float
    sim: Dict[str, Tuple[float, int]]       # name -> (value, samples)
    attempted: int
    failed: int
    failures: Dict[str, int]
    violations: List[str]
    stale_arms: int = 0
    #: Per-layer metrics (name -> value, unit) of a traced round.
    layers: Optional[Dict[str, Tuple[float, str]]] = None


def _latency_pair(out: Dict[str, Tuple[float, int]], stem: str, unit_div: float,
                  samples: List[float], suffix: str) -> None:
    if not samples:
        return
    ordered = sorted(samples)
    n = len(ordered)
    out[f"{stem}_p50_{suffix}"] = (percentile(ordered, 50.0) / unit_div, n)
    if n >= MIN_P99_SAMPLES:
        out[f"{stem}_p99_{suffix}"] = (percentile(ordered, 99.0) / unit_div, n)


def sim_metrics(rnd) -> Dict[str, Tuple[float, int]]:
    """Simulated-clock metrics of one finished round (name -> value, n)."""
    log = rnd.log
    out: Dict[str, Tuple[float, int]] = {}
    _latency_pair(out, "read", 1.0, log.reads_ms, "ms")
    _latency_pair(out, "write", 1.0, log.writes_ms, "ms")
    _latency_pair(out, "watch", 1.0, rnd.watch_latencies(), "ms")
    _latency_pair(out, "eviction_lag", 1000.0, rnd.eviction_lags(), "s")
    window_s = (log.window[1] - log.window[0]) / 1000.0
    if log.completed:
        out["sim_ops_per_s"] = (log.completed / window_s, log.completed)
        cost = rnd.meter_window[1] - rnd.meter_window[0]
        out["cost_usd_per_100k_ops"] = (cost * 100_000.0 / log.completed,
                                        log.completed)
    if log.attempted:
        out["failed_op_frac"] = (log.failed / log.attempted, log.attempted)
    return out


def play_round(workload: str, seed: int, scale: float = 1.0,
               service_hook: Optional[Callable[[Any], None]] = None,
               tracer=None) -> RoundResult:
    """Run one round; host CPU is read around the phases, never inside."""
    rnd = WORKLOADS[workload](seed, scale=scale, service_hook=service_hook,
                              tracer=tracer)
    gc.collect()
    t0 = hostclock.cpu_s()
    rnd.setup()
    rnd.warm_up()
    t1 = hostclock.cpu_s()
    rnd.measure()
    t2 = hostclock.cpu_s()
    rnd.drain()
    violations = rnd.audit()
    log = rnd.log
    result = RoundResult(
        setup_cpu_s=t1 - t0, run_cpu_s=t2 - t1,
        sim=sim_metrics(rnd), attempted=log.attempted, failed=log.failed,
        failures=dict(log.failures), violations=violations,
        stale_arms=rnd.stale_arms)
    if tracer is not None:
        result.layers = tracer.report(rnd, result)
    return result


def setup_only(workload: str, seed: int, scale: float = 1.0) -> float:
    """Host CPU of one more set-up (deploy + registration + preload +
    warm-up), for runs whose rounds are too long to give three samples."""
    rnd = WORKLOADS[workload](seed, scale=scale)
    gc.collect()
    t0 = hostclock.cpu_s()
    rnd.setup()
    rnd.warm_up()
    return hostclock.cpu_s() - t0
