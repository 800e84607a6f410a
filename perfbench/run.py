#!/usr/bin/env python3
"""The repository benchmark: one command, three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``read-mostly``, ``write-watch``, ``session-churn``
(or ``all``).  A run repeats seeded rounds of the workload until
``--seconds`` of wall time have passed; every round deploys a fresh
``FaaSKeeperService``, so each repeats the simulated-clock metrics exactly
(checked) while the host-clock metrics are reported as medians over rounds.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics instead.
The report lists every metric with its unit and sample count; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness oracle,
or a round that does not reproduce the first, prints the seed and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOAD_NAMES = ("read-mostly", "write-watch", "session-churn")

#: Set-up samples a run takes at least (extra set-ups when rounds are long).
MIN_SETUPS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (tests use 0.05-0.2)")
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(workload: str, args) -> dict:
    """All rounds of one workload; returns the result object."""
    import hostclock
    from statistics import median

    from measure import GATED, METRICS, play_round, setup_only

    deadline = hostclock.wall_s() + args.seconds
    rounds, traced = [], []
    tracer_mod = None
    if args.trace:
        import tracing as tracer_mod
    while True:
        rounds.append(play_round(workload, args.seed, args.scale))
        if tracer_mod is not None:
            # Only the first traced round writes its spans out.
            tracer = tracer_mod.Tracer(
                out_dir=None if traced else tracer_mod.OUT_DIR)
            traced.append(play_round(workload, args.seed, args.scale,
                                     tracer=tracer))
        if hostclock.wall_s() >= deadline:
            break
    setups = [r.setup_cpu_s for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_only(workload, args.seed, args.scale))

    problems = []
    first = rounds[0]
    for r in rounds[1:] + traced:
        if r.sim != first.sim:
            problems.append("determinism: a repeated round did not reproduce "
                            "the first round's simulated-clock metrics")
            break
    for r in rounds + traced:
        problems.extend(v for v in r.violations if v not in problems)

    values = {name: v for name, (v, _n) in first.sim.items()}
    samples = {name: n for name, (_v, n) in first.sim.items()}
    values["run_cpu_s"] = median([r.run_cpu_s for r in rounds])
    samples["run_cpu_s"] = len(rounds)
    values["setup_s"] = median(setups)
    samples["setup_s"] = len(setups)
    values["peak_rss_mb"] = hostclock.peak_rss_mb()
    samples["peak_rss_mb"] = 1

    print(f"== {workload}  seed={args.seed}  scale={args.scale}  "
          f"rounds={len(rounds)}  traced={len(traced)}")
    for name, (unit, clock, what) in METRICS.items():
        if name in values:
            print(f"  {name:<24} {_fmt(values[name]):>12} {unit:<6} "
                  f"n={samples[name]:<7} [{clock}] {what}")
    if first.stale_arms:
        print(f"  stale watch arms: {first.stale_arms} data watches "
              f"never fired although their arming read returned a version "
              f"older than the path's final one (every newer write was "
              f"submitted before that read returned)")
    if first.failures:
        print("  failures: " + ", ".join(
            f"{k}={v}" for k, v in sorted(first.failures.items())))

    if args.trace:
        layers = traced[0].layers
        untraced_cpu = median([r.run_cpu_s for r in rounds])
        traced_cpu = median([r.run_cpu_s for r in traced])
        layers["trace.overhead_frac"] = (traced_cpu / untraced_cpu - 1.0,
                                         "ratio")
        from tracing import LAYER_TO_END_TO_END
        print("  per-layer (traced round):")
        for name in sorted(layers):
            value, unit = layers[name]
            print(f"  {name:<46} {_fmt(value):>12} {unit}")
        print("  layer -> end-to-end metric it should move:")
        for layer, target in LAYER_TO_END_TO_END:
            print(f"    {layer:<30} -> {target}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(layers.items())}
    else:
        missing = [name for name in GATED if name not in values]
        if missing and args.scale == 1.0:
            problems.append(f"metrics without samples: {missing}")
        metrics = {name: {"value": values[name], "unit": METRICS[name][0]}
                   for name in GATED if name in values}

    for p in problems:
        print(f"FAILED {workload} seed={args.seed}: {p}", file=sys.stderr)
    if problems:
        print(f"reproduce with: python3 perfbench/run.py --workload {workload} "
              f"--seed {args.seed} --scale {args.scale} --seconds 0",
              file=sys.stderr)
    return {"correct": not problems, "attempted": first.attempted,
            "failed": first.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the simulator sources ({SRC}/repro) are not there; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args) for name in names]
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{name}.{k}": v for name, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
