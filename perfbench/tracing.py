"""The traced run: spans around each layer's public entry points.

Nothing inside ``src/`` is instrumented.  For the measured phase of one
round, :class:`Tracer` replaces the public entry points of each layer with
wrappers defined here, and restores them when the phase ends:

* ``cloud.kvstore`` -- the :class:`KeyValueStore` operations;
* ``cloud.objectstore`` -- the :class:`ObjectStore` operations;
* ``faaskeeper.userstore`` -- ``read_node``/``write_node``/``delete_node``/
  ``update_metadata`` of the deployment's user store;
* ``cloud.queues`` -- queue ``send``;
* ``cloud.functions.<fn>`` -- ``DeployedFunction.invoke`` and the handler
  generator it runs (the handler's self time is the stage's protocol code);
* ``sim.kernel`` -- ``Environment.step`` counts; its CPU is whatever no
  layer above claims.

Most entry points are generator functions that the caller drives with
``yield from`` or as a kernel process.  A span over one measures host CPU
per resume and subtracts the resumes of wrapped calls nested in it (its self
time); its simulated duration runs from ``env.now`` at the first resume to
``env.now`` at return.  The parent of a span is the enclosing wrapped call
on the same sim process; root spans are client operations, keyed by
``(session, seq)``, and processes spawned while a client call is being
submitted inherit its root.  Spans stay in memory (columnar, capped) and
are written out as gzipped JSON lines when the round ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
from array import array
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

import hostclock
from workloads import percentile

from repro.cloud.functions import DeployedFunction
from repro.cloud.expressions import item_size_kb
from repro.cloud.kvstore import KeyValueStore
from repro.cloud.objectstore import ObjectStore
from repro.cloud.queues import FifoQueue, StandardQueue

__all__ = ["Tracer", "PER_LAYER", "LAYER_TO_END_TO_END", "FUNCTIONS"]

KV_OPS = ("get_item", "put_item", "update_item", "delete_item",
          "transact_update", "scan", "batch_put")
OBJECT_OPS = ("put_object", "get_object", "delete_object")
USER_OPS = ("read_node", "write_node", "delete_node", "update_metadata")

#: Function groups reported per layer, matched on the deployed name.
FUNCTIONS = ("follower", "leader", "distributor", "watch", "heartbeat", "gc")

#: Spans kept for the written trace; aggregates count every span.
MAX_SPANS = 400_000

#: Directory the traced run writes its spans to, relative to the checkout.
OUT_DIR = ".perfbench_out"

_ABSENT = object()

_FN_FIELDS = (("invocations", "count", "lower"), ("cold_starts", "count", "lower"),
              ("busy_ms", "ms", "lower"), ("duration_p50_ms", "ms", "lower"),
              ("duration_p99_ms", "ms", "lower"), ("batch_mean", "msgs", "higher"),
              ("cpu_s", "s", "lower"))

#: Every per-layer metric: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.kernel.events_per_op", "events/op", "lower"),
    ("sim.kernel.cpu_s", "s", "lower"),
    ("cloud.kvstore.ops_per_op", "ops/op", "lower"),
    ("cloud.kvstore.cpu_s", "s", "lower"),
    ("cloud.kvstore.sim_ms_p50", "ms", "lower"),
    ("cloud.kvstore.sim_ms_p99", "ms", "lower"),
    ("cloud.kvstore.scan_items", "count", "lower"),
    ("cloud.kvstore.condition_failed", "count", "lower"),
    ("cloud.kvstore.kb_moved", "kB", "lower"),
    ("cloud.objectstore.ops_per_op", "ops/op", "lower"),
    ("cloud.objectstore.cpu_s", "s", "lower"),
    ("cloud.objectstore.sim_ms_p50", "ms", "lower"),
    ("cloud.objectstore.kb_moved", "kB", "lower"),
    ("faaskeeper.userstore.read_node_ops", "count", "lower"),
    ("faaskeeper.userstore.write_node_ops", "count", "lower"),
    ("faaskeeper.userstore.sim_ms_p50", "ms", "lower"),
    ("faaskeeper.userstore.cpu_s", "s", "lower"),
    ("faaskeeper.cache.hit_ratio", "ratio", "higher"),
    ("faaskeeper.cache.invalidations", "count", "lower"),
    ("cloud.queues.sends_per_op", "sends/op", "lower"),
    ("cloud.queues.cpu_s", "s", "lower"),
] + [
    (f"cloud.functions.{fn}.{field}", unit, better)
    for fn in FUNCTIONS for field, unit, better in _FN_FIELDS
] + [
    ("faaskeeper.follower.lock_ms_p50", "ms", "lower"),
    ("faaskeeper.follower.busy_rejections", "count", "lower"),
    ("faaskeeper.leader.ops_per_batch", "ops", "higher"),
    ("faaskeeper.leader.busy_frac", "ratio", "lower"),
    ("faaskeeper.distributor.batches", "count", "lower"),
    ("faaskeeper.distributor.coalesced_frac", "ratio", "higher"),
    ("faaskeeper.watch_fn.fires", "count", "lower"),
    ("faaskeeper.watch_fn.deliveries_per_fire", "ratio", "higher"),
    ("faaskeeper.heartbeat.sweeps", "count", "lower"),
    ("faaskeeper.heartbeat.sessions_checked_per_sweep", "count", "lower"),
    ("faaskeeper.heartbeat.evictions", "count", "lower"),
    ("faaskeeper.heartbeat.sweep_p99_ms", "ms", "lower"),
    ("faaskeeper.retry.retries", "count", "lower"),
    ("faaskeeper.retry.backoff_ms", "ms", "lower"),
    ("faaskeeper.retry.exhausted", "count", "lower"),
    ("cost.queue_usd", "usd", "lower"),
    ("cost.system_store_usd", "usd", "lower"),
    ("cost.user_store_usd", "usd", "lower"),
    ("cost.functions_usd", "usd", "lower"),
    ("trace.attributed_frac", "ratio", "higher"),
    ("trace.bookkeeping_cpu_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: Which end-to-end metric each layer should move, and on which workload.
LAYER_TO_END_TO_END: List[Tuple[str, str]] = [
    ("sim.kernel", "run_cpu_s on every workload"),
    ("cloud.kvstore", "run_cpu_s, peak_rss_mb on write-watch and session-churn "
                      "(barely read-mostly)"),
    ("cloud.objectstore", "read_p50_ms/read_p99_ms on read-mostly; write_p50_ms "
                          "on write-watch"),
    ("faaskeeper.userstore", "read_p50_ms/read_p99_ms on read-mostly; "
                             "write_p50_ms on write-watch"),
    ("faaskeeper.cache", "read_p50_ms, cost_usd_per_100k_ops on read-mostly"),
    ("cloud.queues", "write_*, sim_ops_per_s, cost_usd_per_100k_ops on "
                     "write-watch and read-mostly"),
    ("cloud.functions.<fn>", "write_*, sim_ops_per_s, cost_usd_per_100k_ops on "
                             "write-watch and read-mostly"),
    ("faaskeeper.follower", "failed_op_frac, write_p99_ms on write-watch"),
    ("faaskeeper.leader", "write_p99_ms, sim_ops_per_s on read-mostly and "
                          "write-watch"),
    ("faaskeeper.distributor", "write_p50_ms, cost_usd_per_100k_ops on "
                               "write-watch"),
    ("faaskeeper.watch_fn", "watch_p99_ms on write-watch"),
    ("faaskeeper.heartbeat", "eviction_lag_*, run_cpu_s on session-churn"),
    ("faaskeeper.retry", "write_p99_ms, failed_op_frac on write-watch"),
    ("cost.*", "cost_usd_per_100k_ops on every workload"),
]


def _fn_group(name: str) -> Optional[str]:
    """``fk-leader-3`` -> ``leader``; ``None`` for functions not reported."""
    stem = name[3:] if name.startswith("fk-") else name
    for group in FUNCTIONS:
        if stem == group or stem.startswith(group + "-"):
            return group
    return None


def _p(values: List[float], q: float) -> float:
    return percentile(sorted(values), q) if values else 0.0


def _counter_total(snapshot: Dict[str, Any], name: str) -> float:
    family = snapshot.get(name)
    if not family:
        return 0.0
    total = 0.0
    for value in family["values"].values():
        total += value["sum"] if isinstance(value, dict) else value
    return total


class Tracer:
    """Spans and counters of one traced round's measured phase."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        self.env = None
        self.active = False
        self._ids = itertools.count(1)
        #: Open frames, innermost last: [span id, CPU of nested wrapped calls].
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.cpu: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.sim_ms: Dict[str, List[float]] = defaultdict(list)
        self.kb: Dict[str, float] = defaultdict(float)
        self.scan_items = 0
        self.condition_failed = 0
        self.batches: Dict[str, List[int]] = defaultdict(list)
        self.bookkeeping = 0.0
        self.steps = 0
        self.names: Dict[str, int] = {}
        self.cols = {"id": array("q"), "parent": array("q"), "name": array("i"),
                     "start": array("d"), "end": array("d"), "self_cpu": array("d")}
        self.dropped = 0
        self.current_root: Optional[Tuple[str, int]] = None
        self._proc_root: Dict[Any, Tuple[str, int]] = {}
        self.roots: Dict[Tuple[str, int], List[Any]] = {}
        self._span_root: Dict[int, Tuple[str, int]] = {}

    # -- patching ---------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``; :meth:`_unpatch` restores the owner's own
        value, or removes the attribute when it only had an inherited one."""
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def _unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- span machinery -----------------------------------------------------------
    def _record(self, span_id: int, parent: int, name: str, start: float,
                end: float, self_cpu: float) -> None:
        if len(self.cols["id"]) >= MAX_SPANS:
            self.dropped += 1
            return
        code = self.names.setdefault(name, len(self.names))
        cols = self.cols
        cols["id"].append(span_id)
        cols["parent"].append(parent)
        cols["name"].append(code)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["self_cpu"].append(self_cpu)

    def _open(self) -> Tuple[int, int]:
        span_id = next(self._ids)
        if self._stack:
            parent = self._stack[-1][0]
            root = self._span_root.get(parent)
        else:
            parent = 0
            root = self._proc_root.get(self.env.active_process)
        if root is not None:
            self._span_root[span_id] = root
        return span_id, parent

    def _finish(self, layer: str, name: str, span_id: int, parent: int,
                start: float, self_cpu: float, result: Any, error: Any,
                sizer, call: tuple) -> None:
        end = self.env.now
        self.calls[name] += 1
        self.sim_ms[layer].append(end - start)
        if sizer is not None:
            sizer(self, call, result, error)
        self._record(span_id, parent, name, start, end, self_cpu)

    def _drive(self, gen, layer: str, name: str, sizer, call: tuple):
        """Drive ``gen`` as its caller would, timing every resume."""
        pt = hostclock.cpu_s
        stack = self._stack
        value: Any = None
        error: Optional[BaseException] = None
        span_id = parent = 0
        start = 0.0
        self_cpu = 0.0
        first = True
        while True:
            a = pt()
            if first:
                first = False
                span_id, parent = self._open()
                start = self.env.now
            frame = [span_id, 0.0]
            stack.append(frame)
            b = pt()
            try:
                event = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                c = pt()
                stack.pop()
                self_cpu += self._account(layer, (c - b) - frame[1])
                self._finish(layer, name, span_id, parent, start, self_cpu,
                             stop.value, None, sizer, call)
                self._close_resume(a, b, c)
                return stop.value
            except BaseException as exc:
                c = pt()
                stack.pop()
                self_cpu += self._account(layer, (c - b) - frame[1])
                self._finish(layer, name, span_id, parent, start, self_cpu,
                             None, exc, sizer, call)
                self._close_resume(a, b, c)
                raise
            c = pt()
            stack.pop()
            self_cpu += self._account(layer, (c - b) - frame[1])
            self._close_resume(a, b, c)
            try:
                value = yield event
                error = None
            except BaseException as exc:
                value = None
                error = exc

    def _account(self, layer: str, self_cpu: float) -> float:
        """Charge one resume's self time to its layer while the measured
        phase is open (generators outlive it into the drain)."""
        if self.active:
            self.cpu[layer] += self_cpu
        return self_cpu

    def _close_resume(self, a: float, b: float, c: float) -> None:
        d = hostclock.cpu_s()
        if self._stack:
            self._stack[-1][1] += d - a
        if self.active:
            self.bookkeeping += (b - a) + (d - c)

    def wrap_gen(self, fn, layer: str, name: str, sizer=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            return tracer._drive(gen, layer, name, sizer, (args, kwargs))
        return wrapper

    def wrap_sync(self, fn, layer: str, name: str, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            pt = hostclock.cpu_s
            a = pt()
            span_id, parent = tracer._open()
            start = tracer.env.now
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            b = pt()
            try:
                return fn(*args, **kwargs)
            finally:
                c = pt()
                tracer._stack.pop()
                self_cpu = (c - b) - frame[1]
                tracer.cpu[layer] += self_cpu
                tracer.calls[name] += 1
                if on_call is not None:
                    on_call(tracer, args)
                tracer._record(span_id, parent, name, start, tracer.env.now,
                               self_cpu)
                tracer._close_resume(a, b, c)
        return wrapper

    # -- root spans (client ops) ----------------------------------------------------
    def begin_root(self, session: str, seq: int, op: str) -> None:
        if self.active:
            self.current_root = (session, seq)
            self.roots[(session, seq)] = [op, self.env.now, None, None]

    def end_root_call(self) -> None:
        self.current_root = None

    def finish_root(self, session: str, seq: int, start: float, end: float,
                    ok: bool) -> None:
        entry = self.roots.get((session, seq))
        if entry is not None:
            entry[2] = end
            entry[3] = ok

    # -- round hooks ------------------------------------------------------------------
    def window_open(self, rnd) -> None:
        service = rnd.service
        env = rnd.env
        self.env = env
        self._meter0 = dict(rnd.cloud.meter.by_service())
        self._metrics0 = service.metrics_snapshot()
        self._fn0 = {fn.spec.name: (fn.invocations, fn.cold_starts,
                                    len(fn.durations_ms),
                                    len(fn.segments.get("lock", ())))
                     for fn in self._functions(service)}
        self._cache0 = service.client_cache_stats()

        for op in KV_OPS:
            self._patch(KeyValueStore, op, self.wrap_gen(
                getattr(KeyValueStore, op), "cloud.kvstore",
                f"cloud.kvstore.{op}", _kv_sizer(op)))
        for op in OBJECT_OPS:
            self._patch(ObjectStore, op, self.wrap_gen(
                getattr(ObjectStore, op), "cloud.objectstore",
                f"cloud.objectstore.{op}", _object_sizer(op)))
        for cls in (FifoQueue, StandardQueue):
            self._patch(cls, "send", self.wrap_gen(
                vars(cls)["send"], "cloud.queues", "cloud.queues.send"))
        self._patch(DeployedFunction, "invoke", self.wrap_sync(
            DeployedFunction.invoke, "cloud.functions",
            "cloud.functions.invoke", _count_batch))
        store = service.user_store
        for op in USER_OPS:
            self._patch(store, op, self.wrap_gen(
                getattr(store, op), "faaskeeper.userstore",
                f"faaskeeper.userstore.{op}"))
        for fn in self._functions(service):
            group = _fn_group(fn.spec.name)
            self._patch(fn.spec, "handler", self.wrap_gen(
                fn.spec.handler, f"cloud.functions.{group}",
                f"cloud.functions.{group}.handler"))
        self._patch(env, "step", self._counting_step(env.step))
        self._patch(env, "process", self._rooting_process(env.process))
        self.active = True

    def window_close(self, rnd) -> None:
        self.active = False
        self._unpatch()
        service = rnd.service
        self._meter1 = dict(rnd.cloud.meter.by_service())
        self._metrics1 = service.metrics_snapshot()
        self._fn1 = {fn.spec.name: (fn.invocations, fn.cold_starts,
                                    list(fn.durations_ms),
                                    list(fn.segments.get("lock", ())))
                     for fn in self._functions(service)}
        self._cache1 = service.client_cache_stats()
        self._proc_root.clear()

    @staticmethod
    def _functions(service) -> List[Any]:
        return [fn for fn in service.cloud.runtime.functions.values()
                if _fn_group(fn.spec.name) is not None]

    def _counting_step(self, step):
        tracer = self

        def counted():
            tracer.steps += 1
            return step()
        return counted

    def _rooting_process(self, process):
        tracer = self

        def rooted(generator, name=None):
            proc = process(generator, name=name)
            root = tracer.current_root or tracer._proc_root.get(
                tracer.env.active_process)
            if root is not None and tracer.active:
                tracer._proc_root[proc] = root
            return proc
        return rooted

    # -- report ---------------------------------------------------------------------
    def report(self, rnd, result) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of the traced measured phase (name -> value,
        unit).  ``trace.overhead_frac`` is added by the caller, which also
        holds the untraced rounds."""
        ops = max(1, rnd.log.completed)
        window_ms = rnd.log.window[1] - rnd.log.window[0]
        out: Dict[str, Tuple[float, str]] = {}
        units = {name: unit for name, unit, _ in PER_LAYER}

        def put(name: str, value: float) -> None:
            out[name] = (float(value), units[name])

        total_cpu = result.run_cpu_s
        layer_cpu = sum(self.cpu.values())
        kernel_cpu = total_cpu - layer_cpu - self.bookkeeping
        put("sim.kernel.events_per_op", self.steps / ops)
        put("sim.kernel.cpu_s", kernel_cpu)
        kv_calls = sum(self.calls[f"cloud.kvstore.{op}"] for op in KV_OPS)
        put("cloud.kvstore.ops_per_op", kv_calls / ops)
        put("cloud.kvstore.cpu_s", self.cpu["cloud.kvstore"])
        put("cloud.kvstore.sim_ms_p50", _p(self.sim_ms["cloud.kvstore"], 50))
        put("cloud.kvstore.sim_ms_p99", _p(self.sim_ms["cloud.kvstore"], 99))
        put("cloud.kvstore.scan_items", self.scan_items)
        put("cloud.kvstore.condition_failed", self.condition_failed)
        put("cloud.kvstore.kb_moved", self.kb["cloud.kvstore"])
        obj_calls = sum(self.calls[f"cloud.objectstore.{op}"] for op in OBJECT_OPS)
        put("cloud.objectstore.ops_per_op", obj_calls / ops)
        put("cloud.objectstore.cpu_s", self.cpu["cloud.objectstore"])
        put("cloud.objectstore.sim_ms_p50", _p(self.sim_ms["cloud.objectstore"], 50))
        put("cloud.objectstore.kb_moved", self.kb["cloud.objectstore"])
        put("faaskeeper.userstore.read_node_ops",
            self.calls["faaskeeper.userstore.read_node"])
        put("faaskeeper.userstore.write_node_ops",
            self.calls["faaskeeper.userstore.write_node"])
        put("faaskeeper.userstore.sim_ms_p50",
            _p(self.sim_ms["faaskeeper.userstore"], 50))
        put("faaskeeper.userstore.cpu_s", self.cpu["faaskeeper.userstore"])
        hits = self._cache1["hits"] - self._cache0["hits"]
        misses = self._cache1["misses"] - self._cache0["misses"]
        put("faaskeeper.cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0)
        put("faaskeeper.cache.invalidations",
            self._cache1["invalidations"] - self._cache0["invalidations"])
        put("cloud.queues.sends_per_op", self.calls["cloud.queues.send"] / ops)
        put("cloud.queues.cpu_s", self.cpu["cloud.queues"])

        groups: Dict[str, Dict[str, Any]] = {
            g: {"inv": 0, "cold": 0, "durations": [], "lock": []} for g in FUNCTIONS}
        for name, (inv, cold, durations, lock) in self._fn1.items():
            g = groups[_fn_group(name)]
            inv0, cold0, dur0, lock0 = self._fn0.get(name, (0, 0, 0, 0))
            g["inv"] += inv - inv0
            g["cold"] += cold - cold0
            g["durations"] += durations[dur0:]
            g["lock"] += lock[lock0:]
        for group, g in groups.items():
            batches = self.batches.get(group, [])
            prefix = f"cloud.functions.{group}"
            put(f"{prefix}.invocations", g["inv"])
            put(f"{prefix}.cold_starts", g["cold"])
            put(f"{prefix}.busy_ms", sum(g["durations"]))
            put(f"{prefix}.duration_p50_ms", _p(g["durations"], 50))
            put(f"{prefix}.duration_p99_ms", _p(g["durations"], 99))
            put(f"{prefix}.batch_mean", sum(batches) / len(batches) if batches else 0.0)
            put(f"{prefix}.cpu_s", self.cpu[prefix])

        m0, m1 = self._metrics0, self._metrics1

        def delta(metric: str) -> float:
            return _counter_total(m1, metric) - _counter_total(m0, metric)

        put("faaskeeper.follower.lock_ms_p50", _p(groups["follower"]["lock"], 50))
        put("faaskeeper.follower.busy_rejections",
            sum(v for k, v in result.failures.items() if k.endswith(":system_busy")))
        leader_batches = self.batches.get("leader", [])
        put("faaskeeper.leader.ops_per_batch",
            sum(leader_batches) / len(leader_batches) if leader_batches else 0.0)
        n_leaders = sum(1 for name in self._fn1 if _fn_group(name) == "leader")
        put("faaskeeper.leader.busy_frac",
            sum(groups["leader"]["durations"]) / (window_ms * max(1, n_leaders)))
        put("faaskeeper.distributor.batches", delta("fk_distributor_batches_total"))
        distributed = sum(self.batches.get("distributor", []))
        put("faaskeeper.distributor.coalesced_frac",
            delta("fk_distributor_coalesced_writes_total") / distributed
            if distributed else 0.0)
        fires = delta("fk_watch_fanouts_total")
        put("faaskeeper.watch_fn.fires", fires)
        put("faaskeeper.watch_fn.deliveries_per_fire",
            delta("fk_watch_deliveries_total") / fires if fires else 0.0)
        sweeps = delta("fk_heartbeat_sweeps_total")
        put("faaskeeper.heartbeat.sweeps", sweeps)
        put("faaskeeper.heartbeat.sessions_checked_per_sweep",
            delta("fk_heartbeat_sessions_checked_total") / sweeps if sweeps else 0.0)
        put("faaskeeper.heartbeat.evictions", delta("fk_heartbeat_evictions_total"))
        put("faaskeeper.heartbeat.sweep_p99_ms", _p(groups["heartbeat"]["durations"], 99))
        put("faaskeeper.retry.retries", delta("fk_storage_retries_total"))
        put("faaskeeper.retry.backoff_ms", delta("fk_storage_retry_backoff_ms"))
        put("faaskeeper.retry.exhausted", delta("fk_storage_retry_exhausted_total"))

        spent = {k: self._meter1.get(k, 0.0) - self._meter0.get(k, 0.0)
                 for k in self._meter1}
        put("cost.queue_usd", sum(v for k, v in spent.items() if k.startswith("sqs")))
        put("cost.system_store_usd", spent.get("dynamodb:system", 0.0))
        put("cost.user_store_usd", sum(v for k, v in spent.items()
                                       if k in ("s3", "dynamodb:user")
                                       or k.startswith(("redis", "mem", "user"))))
        put("cost.functions_usd", sum(v for k, v in spent.items() if k.startswith("fn:")))
        put("trace.attributed_frac", layer_cpu / total_cpu if total_cpu else 0.0)
        put("trace.bookkeeping_cpu_s", self.bookkeeping)
        if kernel_cpu < -0.01 * total_cpu:
            result.violations.append(
                f"trace: layer self times ({layer_cpu:.3f}s) + bookkeeping "
                f"({self.bookkeeping:.3f}s) exceed the traced phase's CPU "
                f"({total_cpu:.3f}s)")
        self.write_spans(rnd)
        return out

    def write_spans(self, rnd) -> Optional[str]:
        if not self.out_dir:
            return None
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{rnd.name}-{rnd.seed}.jsonl.gz")
        names = {code: name for name, code in self.names.items()}
        cols = self.cols
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for (session, seq), (op, start, end, ok) in self.roots.items():
                fh.write(json.dumps({"root": [session, seq], "name": f"client.{op}",
                                     "start": start, "end": end, "ok": ok}) + "\n")
            for i in range(len(cols["id"])):
                span_id = cols["id"][i]
                root = self._span_root.get(span_id)
                fh.write(json.dumps({
                    "id": span_id, "parent": cols["parent"][i] or None,
                    "root": list(root) if root else None,
                    "name": names[cols["name"][i]], "start": cols["start"][i],
                    "end": cols["end"][i], "self_cpu_s": cols["self_cpu"][i]}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
        return path


def _kv_sizer(op: str):
    """kB crossing the key-value API: written items, read items."""
    def sizer(tracer: Tracer, call: tuple, result: Any, error: Any) -> None:
        if error is not None:
            if type(error).__name__ == "ConditionFailed":
                tracer.condition_failed += 1
            return
        args, kwargs = call
        kb = 0.0
        if op == "scan" and isinstance(result, dict):
            tracer.scan_items += len(result)
            kb = sum(item_size_kb(v) for v in result.values())
        elif op == "get_item" and result is not None:
            kb = item_size_kb(result)
        elif op == "put_item":
            kb = item_size_kb(kwargs.get("attributes", args[4] if len(args) > 4 else None))
        elif op == "batch_put":
            items = kwargs.get("items", args[3] if len(args) > 3 else {})
            kb = sum(item_size_kb(v) for v in items.values())
        elif op in ("update_item", "transact_update") and result:
            images = result if isinstance(result, list) else [result]
            kb = sum(item_size_kb(v) for v in images if isinstance(v, dict))
        tracer.kb["cloud.kvstore"] += kb
    return sizer


def _object_sizer(op: str):
    """kB crossing the object-store API: written and read payloads."""
    def sizer(tracer: Tracer, call: tuple, result: Any, error: Any) -> None:
        if error is not None:
            return
        args, kwargs = call
        if op == "get_object" and result is not None:
            tracer.kb["cloud.objectstore"] += ObjectStore.payload_kb(result[0])
        elif op == "put_object":
            payload = kwargs.get("payload", args[4] if len(args) > 4 else None)
            tracer.kb["cloud.objectstore"] += ObjectStore.payload_kb(payload)
    return sizer


def _count_batch(tracer: Tracer, args: tuple) -> None:
    fn, payload = args[0], args[1] if len(args) > 1 else None
    group = _fn_group(fn.spec.name)
    if group is not None:
        tracer.batches[group].append(len(payload) if isinstance(payload, list) else 1)
