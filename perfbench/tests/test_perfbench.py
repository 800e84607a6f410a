"""Tests of the benchmark itself: scaled-down runs, determinism, and a
planted defect for each correctness oracle.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys

import pytest

from measure import GATED, METRICS, play_round
from tracing import PER_LAYER

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SCALE = {"read-mostly": 0.1, "write-watch": 0.15, "session-churn": 0.1}
SIM = [name for name, (_unit, clock, _what) in METRICS.items() if clock == "sim"]


def _run(workload: str, *extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--scale", str(SCALE.get(workload, 0.1)),
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _report(stdout: str):
    """(name -> (unit, n)) from the report lines, and the final JSON."""
    lines = stdout.strip().splitlines()
    rows = {}
    for line in lines[:-1]:
        m = re.match(r"\s+(\S+)\s+\S+\s+(\S+)\s+n=(\d+)", line)
        if m and m.group(1) in METRICS:
            rows[m.group(1)] = (m.group(2), int(m.group(3)))
    return rows, json.loads(lines[-1])


# -- scaled-down runs ----------------------------------------------------------

@pytest.mark.parametrize("workload", ["read-mostly", "write-watch", "session-churn"])
def test_scaled_run_emits_every_metric_with_its_unit(workload):
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr
    rows, final = _report(proc.stdout)
    assert final["correct"] is True
    assert final["attempted"] >= 1 and final["failed"] >= 0
    expected = {"read_p50_ms", "write_p50_ms", "sim_ops_per_s",
                "cost_usd_per_100k_ops", "failed_op_frac", "run_cpu_s",
                "setup_s", "peak_rss_mb"}
    if workload != "read-mostly":
        expected.add("watch_p50_ms")
    if workload == "session-churn":
        expected.add("eviction_lag_p50_s")
    assert expected <= set(rows)
    for name, (unit, n) in rows.items():
        assert unit == METRICS[name][0]
        if "_p99_" in name:
            assert n >= 1000
    for name, entry in final["metrics"].items():
        assert name in GATED
        assert entry["unit"] == METRICS[name][0]
        assert entry["value"] > 0


def test_traced_run_emits_every_layer_metric():
    proc = _run("write-watch", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is True
    units = {name: unit for name, unit, _ in PER_LAYER}
    assert set(final["metrics"]) == set(units)
    for name, entry in final["metrics"].items():
        assert entry["unit"] == units[name]
    m = {k: v["value"] for k, v in final["metrics"].items()}
    # Layer self times and the kernel remainder add up to the traced CPU.
    assert m["sim.kernel.cpu_s"] >= 0
    assert 0 < m["trace.attributed_frac"] <= 1
    assert m["cloud.kvstore.ops_per_op"] > 0
    assert m["cloud.functions.leader.invocations"] > 0
    assert m["faaskeeper.watch_fn.fires"] > 0


def test_missing_sources_fail_without_a_result(tmp_path):
    """Run from a directory holding only the benchmark: no simulator, so the
    run must fail fast and print no result line."""
    import shutil
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-mostly",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- determinism -----------------------------------------------------------------

def _sim_only(result):
    return {k: v for k, v in result.sim.items() if k in SIM}


@pytest.mark.parametrize("workload", ["write-watch", "session-churn"])
def test_same_seed_same_sim_metrics_in_one_process(workload):
    a = play_round(workload, 5, SCALE[workload])
    b = play_round(workload, 5, SCALE[workload])
    assert _sim_only(a) == _sim_only(b)
    assert a.attempted == b.attempted


def test_same_seed_same_sim_metrics_across_processes():
    outs = []
    for _ in range(2):
        proc = _run("read-mostly")
        assert proc.returncode == 0, proc.stderr
        _, final = _report(proc.stdout)
        lines = [line for line in proc.stdout.splitlines()
                 if line.strip().split(" ")[0] in SIM]
        outs.append((lines, final["attempted"], final["failed"]))
    assert outs[0] == outs[1]


def test_tracing_does_not_perturb_the_simulation():
    import tracing
    plain = play_round("write-watch", 4, SCALE["write-watch"])
    traced = play_round("write-watch", 4, SCALE["write-watch"],
                        tracer=tracing.Tracer(out_dir=None))
    assert _sim_only(plain) == _sim_only(traced)
    assert not traced.violations


# -- planted defects: each oracle must trip ------------------------------------------

def _wrap(obj, name, make):
    setattr(obj, name, make(getattr(obj, name)))


def _play_defect(workload, seed, scale, hook):
    """``play_round`` with a planted defect.  Such rounds can end with client
    ops that never complete; when their processes are collected, the
    client's completion runner swallows ``GeneratorExit``.  That is expected
    here, so only that message is kept out of the test output."""
    previous = sys.unraisablehook

    def quiet(unraisable):
        if not (isinstance(unraisable.exc_value, RuntimeError)
                and "ignored GeneratorExit" in str(unraisable.exc_value)):
            previous(unraisable)

    sys.unraisablehook = quiet
    try:
        result = play_round(workload, seed, scale, service_hook=hook)
        gc.collect()
    finally:
        sys.unraisablehook = previous
    return result


def _nothing():
    return None
    yield  # a generator that completes at once


def _first_rewritten(paths):
    """Predicate selecting every write to the first path written after its
    preload (version > 0); ``paths`` records the choice."""
    def chosen(path, image):
        if not paths and image.get("version", 0) > 0:
            paths.append(path)
        return bool(paths) and path == paths[0]
    return chosen


def test_dropped_write_node_fails_the_version_audit():
    target = []
    chosen = _first_rewritten(target)

    def hook(service):
        def make(write_node):
            def drop(ctx, region, path, image):
                if chosen(path, image):
                    return _nothing()
                return write_node(ctx, region, path, image)
            return drop
        _wrap(service.user_store, "write_node", make)

    r = _play_defect("read-mostly", 2, 0.2, hook)
    assert target
    assert any(v.startswith(f"exactly-once: {target[0]}") for v in r.violations)


def test_wrong_payload_fails_the_z1_audit():
    target = []
    chosen = _first_rewritten(target)

    def hook(service):
        def make(write_node):
            def corrupt(ctx, region, path, image):
                if chosen(path, image):
                    image = dict(image, data=b"corrupted")
                return write_node(ctx, region, path, image)
            return corrupt
        _wrap(service.user_store, "write_node", make)

    r = _play_defect("read-mostly", 2, 0.2, hook)
    assert target
    assert any(v.startswith(f"Z1: {target[0]}") for v in r.violations)


def test_stale_read_fails_the_session_order_check():
    def hook(service):
        def make(read_node):
            def stale(ctx, region, path):
                image = yield from read_node(ctx, region, path)
                if image and image.get("version", 0) > 0:
                    image = dict(image, version=image["version"] - 1)
                return image
            return stale
        _wrap(service.user_store, "read_node", make)

    r = _play_defect("read-mostly", 2, 0.2, hook)
    assert any(v.startswith("Z2/Z3:") for v in r.violations)


def test_duplicated_watch_delivery_fails_at_most_once():
    def hook(service):
        def make(notify):
            def twice(session, watch_id, event):
                client = service.clients[session]
                callbacks = list(client._registered.get(watch_id, []))
                yield from notify(session, watch_id, event)
                for callback in callbacks:
                    if callback is not None:
                        callback(event)
            return twice
        _wrap(service, "notify_watch_process", make)

    r = _play_defect("write-watch", 2, SCALE["write-watch"], hook)
    assert any("fired 2 times" in v for v in r.violations)


def test_lost_watch_delivery_fails_must_fire():
    def hook(service):
        def make(notify):
            def lossy(session, watch_id, event):
                if event.path == "/h00":
                    return None
                yield from notify(session, watch_id, event)
            return lossy
        _wrap(service, "notify_watch_process", make)

    r = _play_defect("write-watch", 2, SCALE["write-watch"], hook)
    assert any("never fired after a later write" in v for v in r.violations)


def test_missed_evictions_fail_the_churn_audit():
    def hook(service):
        def make(ping):
            def always_answers(session_id):
                yield from ping(session_id)
                return True
            return always_answers
        _wrap(service, "heartbeat_ping", make)

    r = _play_defect("session-churn", 2, SCALE["session-churn"], hook)
    assert any(v.startswith("eviction:") for v in r.violations)
    assert any(v.startswith("ephemeral:") for v in r.violations)
    assert any(v.startswith("sessions:") for v in r.violations)


def test_benchmark_json_lists_what_the_runs_emit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [m["name"] for m in spec["end_to_end"]] == list(GATED)
    for m in spec["end_to_end"]:
        assert m["unit"] == METRICS[m["name"]][0]
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(row) for row in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == \
        ["read-mostly", "write-watch", "session-churn"]
